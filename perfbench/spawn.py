"""Run one command; print its exit code, wall time and peak RSS as JSON.

    python3 perfbench/spawn.py STDOUT_FILE STDERR_FILE -- COMMAND...

Linux charges a new program's peak RSS with the peak of the memory image
it was started from, which is its parent's. Started straight from the
benchmark, which holds a loaded model and the corpora, every CLI child
would report at least the benchmark's own size. Started from this small
process, the child's ru_maxrss is its own.

The last stdout line is {"code": int, "wall_s": float, "maxrss_kb": int}.
On SIGTERM the child is killed and waited for before this process exits.
"""

import json
import os
import signal
import subprocess
import sys
import time


def main(argv):
    out_path, err_path, separator, *command = argv
    if separator != "--" or not command:
        sys.exit("usage: spawn.py STDOUT_FILE STDERR_FILE -- COMMAND...")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(command, stdout=out, stderr=err)

        def stop(signum, frame):
            proc.kill()
            proc.wait()
            sys.exit(128 + signum)

        signal.signal(signal.SIGTERM, stop)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    # wait4 reaped the child; tell Popen so it does not wait again
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"code": proc.returncode, "wall_s": wall,
                      "maxrss_kb": usage.ru_maxrss}))


if __name__ == "__main__":
    main(sys.argv[1:])
