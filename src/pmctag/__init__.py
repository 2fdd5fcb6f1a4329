"""Sequence labeling with hidden and pairwise Markov chains."""

from .conll import (LabeledCorpus, apply_mapping, mark_known, read_conll,
                    read_records, read_tag_mapping, write_conll)
from .errors import (CorruptModel, DeadEnd, EmptyCorpus, EmptySentence,
                     EmptySupport, EmptyToken, FormatError, PmctagError,
                     ShapeError, UnknownTag, UnsupportedVersion)
from .evaluation import EvalReport, evaluate_predictions
from .features import (FeatureEmissionTables, WordFeatures, extract_features,
                       fit_feature_tables)
from .inference import (FactorProvider, backward, decode_sentence, forward, lookup_window,
                        posterior_marginals, resolve_factors)
from .model import CountTable, CountTables, HmcParams, Interner, ModelBundle
from .oracle import (PmcParams, TinyInstance, embed_hmc_as_pmc, enumerate_map,
                     enumerate_posteriors, fit_pmc, normalize_counts)
from .serialize import (deserialize_model, load_model, model_stats, save_model,
                        serialize_model)
from .training import (TrainConfig, accumulate_counts, bundle_from_counts,
                       fit_hmc, train_model, update_online)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
