"""Post-hoc debiasing of multi-class probability outputs.

Given a model's per-class probabilities and true labels, the package selects
one correction function per class (a triangular membership reshaping or a
linear down-weighting) by simulated annealing over an objective that trades
off overall error, pairwise per-class accuracy imbalance, and a per-class
prediction/label PMI reward. The selected scheme is a tiny artifact that can
be saved, audited, and applied to new probability outputs of the same model.
The root exports that library API; everything else lives in its own module.
"""
from .annealing import AnnealConfig, accept, anneal
from .corrections import (
    FunctionSet,
    TriangularMembership,
    apply_selection,
    default_function_set,
    eval_membership,
    eval_weight,
    heaviside,
)
from .data import LabeledDataset, load_dataset, save_dataset
from .errors import PreconditionError, ValidationError
from .objective import (
    ObjectiveWeights,
    evaluate,
    objective_value,
    predict,
    z_cobias,
    z_err,
    z_pmi,
)
from .oracle import exhaustive_search
from .scheme import CorrectionScheme, load_scheme, save_scheme

__version__ = "0.1.0"

__all__ = [
    "AnnealConfig",
    "CorrectionScheme",
    "FunctionSet",
    "LabeledDataset",
    "ObjectiveWeights",
    "PreconditionError",
    "TriangularMembership",
    "ValidationError",
    "accept",
    "anneal",
    "apply_selection",
    "default_function_set",
    "eval_membership",
    "eval_weight",
    "evaluate",
    "exhaustive_search",
    "heaviside",
    "load_dataset",
    "load_scheme",
    "objective_value",
    "predict",
    "save_dataset",
    "save_scheme",
    "z_cobias",
    "z_err",
    "z_pmi",
]
