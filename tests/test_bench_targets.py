"""The benchmark's tracer wraps package attributes by name; each must exist.

perfbench/tracing.py lists (module, attribute, span) targets. Renaming or
deleting one of those attributes breaks `perfbench/run.py --trace 1`, so
the names are checked here, where every test run sees them.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

import tracing  # noqa: E402


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in tracing.TARGETS],
                         ids=[span for _, _, span in tracing.TARGETS])
def test_trace_target_exists(module, attr):
    assert hasattr(module, attr), f"{module.__name__}.{attr} is gone"
