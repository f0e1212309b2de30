"""Correction-function catalog and its step-gated per-class application.

A catalog holds D_F triangular membership functions followed by D_W linear
weight coefficients. A selection assigns every class one 1-based index k into
the combined list: k <= D_F picks the membership mu_k, k > D_F picks the
weight coefficient (k - D_F) / D_W. Applied to a probability p in [0, 1]:

* membership: mu(p) = (p - a) / (b - a) on [a, b] if b > a, then
  (c - p) / (c - b) on [b, c] if c > b, and 0 outside [a, c]; so mu(b) = 1.
  The shoulders (0, 0, c) and (a, 1, 1) are this triangle without its
  rising or its falling side.
* weight: omega(p) = ((k - D_F) / D_W) * p.

Exactly one of the two branches fires for each index; the routing is the pair
of unit-step gates ``step(D_F - k)`` and ``step(k - D_F - 1)``, which sum to 1
for every valid k. The membership (0, 1, 1) is the mandatory "Don't Change"
element: its rising side (p - 0) / 1 maps every p to itself bit-for-bit, so
selecting it leaves a class untouched.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import _index_vector, _probabilities
from .errors import ValidationError
from .records import Record, read_record, write_json

# The largest catalog num_weights. Far past any useful catalog (the stock one
# has 30), it keeps index ranges small, and with it every catalog that fits
# in memory (under 2^30 memberships) gives ``ObjectiveEvaluator`` rank keys
# within 64 bits for up to 1,024 classes.
MAX_WEIGHTS = 2**20


def heaviside(x: float) -> int:
    """Unit step: 1 for x >= 0, else 0."""
    return 1 if x >= 0 else 0


@dataclass(frozen=True)
class TriangularMembership(Record):
    """Triangle vertices 0 <= a <= b <= c <= 1, not all equal."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        self._check_fields()
        if not (0.0 <= self.a <= self.b <= self.c <= 1.0):
            raise ValidationError(
                f"membership vertices must satisfy 0 <= a <= b <= c <= 1, "
                f"got ({self.a}, {self.b}, {self.c})"
            )
        if self.a == self.b == self.c:
            raise ValidationError(
                f"degenerate membership with a = b = c = {self.a}"
            )

    @property
    def is_dont_change(self) -> bool:
        return self.a == 0.0 and self.b == 1.0 and self.c == 1.0


def _membership_array(f: TriangularMembership, p: np.ndarray) -> np.ndarray:
    a, b, c = f.a, f.b, f.c
    out = np.zeros_like(p)
    if b > a:
        np.divide(p - a, b - a, out=out, where=(p >= a) & (p <= b))
    if c > b:
        # rewrites p = b with the same 1.0
        np.divide(c - p, c - b, out=out, where=(p >= b) & (p <= c))
    return out


def _on_values(p, kernel, *args):
    """Run an array kernel on ``p``: a scalar in gives a float out, an array
    gives an array. Values go through ``data._probabilities`` first."""
    out = kernel(*args, _probabilities(p))
    return float(out) if np.ndim(out) == 0 else out


def eval_membership(f: TriangularMembership, p):
    """Evaluate mu_f at ``p`` (scalar or array of values in [0, 1]).

    One formula serves every membership: (p - a) / (b - a) on [a, b] if
    b > a, (c - p) / (c - b) on [b, c] if c > b, else 0. Output is always in
    [0, 1] and mu(b) = 1, so a = b = 0 gives mu(0) = 1 and b = c = 1 gives
    mu(1) = 1.
    """
    return _on_values(p, _membership_array, f)


def eval_weight(k: int, num_memberships: int, num_weights: int, p):
    """Evaluate the weight coefficient for index k: ((k - D_F) / D_W) * p.

    k must be a catalog index (``validate_selection``'s rule) past the
    memberships, in D_F + 1..D_F + D_W.
    """
    return _on_values(p, np.multiply, _weight_factor(k, num_memberships, num_weights))


def _weight_factor(k: int, num_memberships: int, num_weights: int) -> float:
    """(k - D_F) / D_W for a weight index k, checked as ``eval_weight`` says."""
    top = num_memberships + num_weights
    (k,) = _index_vector((k,), top, "selection value", at="entry").tolist()
    if k <= num_memberships:
        raise ValidationError(f"weight index {k} outside {num_memberships + 1}..{top}")
    return (k - num_memberships) / num_weights


@dataclass(frozen=True)
class FunctionSet(Record):
    """An ordered catalog of D_F memberships plus D_W weight coefficients.

    Indices are 1-based: 1..D_F address memberships in order, D_F+1..D_F+D_W
    address the weight coefficients 1/D_W, 2/D_W, ..., 1. The catalog must
    contain the Don't Change membership (0, 1, 1), located by exact match.
    """

    memberships: tuple[TriangularMembership, ...]
    num_weights: int

    def __post_init__(self) -> None:
        self._check_fields()
        if not self.memberships:
            raise ValidationError("catalog needs at least one membership")
        if self.num_weights < 1:
            raise ValidationError("catalog needs at least one weight")
        if self.num_weights > MAX_WEIGHTS:
            raise ValidationError(
                f"num_weights must be at most {MAX_WEIGHTS}, "
                f"got {self.num_weights}"
            )
        k0 = next(
            (i + 1 for i, f in enumerate(self.memberships) if f.is_dont_change),
            None,
        )
        if k0 is None:
            raise ValidationError(
                "catalog must contain the Don't Change membership (0, 1, 1)"
            )
        object.__setattr__(self, "_dont_change_index", k0)

    @property
    def num_memberships(self) -> int:
        return len(self.memberships)

    @property
    def size(self) -> int:
        return self.num_memberships + self.num_weights

    @property
    def dont_change_index(self) -> int:
        return self._dont_change_index

    def index_kind(self, k: int) -> str:
        """"membership" for k <= D_F, "weight" above."""
        (k,) = validate_selection(self, (k,))
        return "membership" if k <= self.num_memberships else "weight"

    def weight_factor(self, k: int) -> float:
        """(k - D_F) / D_W for a weight index k in D_F + 1..D_F + D_W."""
        return _weight_factor(k, self.num_memberships, self.num_weights)

    def describe_index(self, k: int) -> dict:
        """Parameters of the function at index k, for reports."""
        (k,) = validate_selection(self, (k,))
        if k <= self.num_memberships:
            return {"kind": "membership", **self.memberships[k - 1].to_dict()}
        return {"kind": "weight", "factor": self.weight_factor(k)}

    def apply_index(self, k: int, p):
        """Apply the function at index k to ``p`` (scalar or array)."""
        (k,) = validate_selection(self, (k,))
        return _on_values(p, _apply_column, self, k)


def _apply_column(fs: FunctionSet, k: int, p: np.ndarray) -> np.ndarray:
    """Apply catalog index k to a float array, with no index or range check.

    The membership gate step(D_F - k) and the weight gate step(k - D_F - 1)
    are mutually exclusive for valid k, so exactly one family is evaluated.
    Callers pass a valid k and values already known to lie in [0, 1].
    """
    d_f = fs.num_memberships
    if heaviside(d_f - k):
        return _membership_array(fs.memberships[k - 1], p)
    return (k - d_f) / fs.num_weights * p


def validate_selection(fs: FunctionSet, xi, num_classes: int | None = None):
    """Check a per-class selection vector against the catalog; return a tuple.

    Every entry must be an integer index in 1..(D_F + D_W), under the rule
    dataset labels follow: a float, even 1.0, or a string is rejected, not
    converted. When ``num_classes`` is given the length must equal it.
    """
    entries = _index_vector(xi, fs.size, "selection value", at="entry")
    if num_classes is not None and len(entries) != num_classes:
        raise ValidationError(
            f"selection has {len(entries)} entries, expected {num_classes}"
        )
    if not len(entries):
        raise ValidationError("selection vector is empty")
    return tuple(entries.tolist())


def normalize_allowed(fs: FunctionSet, allowed_indices) -> tuple[int, ...]:
    """Sorted, deduplicated search indices; None means the whole catalog.

    Every index must pass ``validate_selection``'s rule, or ValidationError
    is raised.
    """
    if allowed_indices is None:
        return tuple(range(1, fs.size + 1))
    allowed = _index_vector(
        tuple(allowed_indices), fs.size, "allowed value", at="entry"
    )
    return tuple(sorted(set(allowed.tolist())))


# the paper's method and the two predecessors it is compared with
MODES = ("dcs", "dnip", "furud")


def mode_indices(fs: FunctionSet, mode: str) -> tuple[int, ...]:
    """Catalog indices searchable under ``mode``.

    dcs searches everything, dnip only weights plus Don't Change, furud
    only memberships (Don't Change is itself a membership).
    """
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}, expected one of {MODES}")
    k0 = fs.dont_change_index
    if mode == "dcs":
        return tuple(range(1, fs.size + 1))
    if mode == "dnip":
        weights = range(len(fs.memberships) + 1, fs.size + 1)
        return (k0, *weights)
    return tuple(range(1, len(fs.memberships) + 1))


def kind_bucket(fs: FunctionSet, k: int) -> str:
    """``fs.index_kind(k)``, with Don't Change split out of the membership
    family so tallies show how often a class is left alone."""
    kind = fs.index_kind(k)
    return "dont_change" if k == fs.dont_change_index else kind


def apply_selection(fs: FunctionSet, xi, probs) -> np.ndarray:
    """Correct one probability row (N,) or a matrix of rows (M, N): class
    i's column goes through function xi[i]. The result has the shape of the
    row or matrix; ``xi`` must have one entry per column."""
    values = np.atleast_1d(_probabilities(probs))
    entries = validate_selection(fs, xi, num_classes=values.shape[-1])
    out = np.empty_like(values)
    for i, k in enumerate(entries):
        out[..., i] = _apply_column(fs, k, values[..., i])
    return out


def default_function_set() -> FunctionSet:
    """The stock catalog: 19 memberships plus 30 weight coefficients.

    Memberships are Don't Change, nine interior triangles with peaks at
    0.1..0.9 and feet 0.25 to either side (clipped to [0, 1]), five falling
    shoulders (0, 0, c), and four rising shoulders (a, 1, 1). Weights are
    1/30, 2/30, ..., 1.
    """
    memberships = [TriangularMembership(0.0, 1.0, 1.0)]
    for i in range(1, 10):
        memberships.append(
            TriangularMembership(
                max(0.0, (10 * i - 25) / 100),
                i / 10,
                min(1.0, (10 * i + 25) / 100),
            )
        )
    for c in (0.2, 0.4, 0.6, 0.8, 1.0):
        memberships.append(TriangularMembership(0.0, 0.0, c))
    for a in (0.2, 0.4, 0.6, 0.8):
        memberships.append(TriangularMembership(a, 1.0, 1.0))
    return FunctionSet(memberships=tuple(memberships), num_weights=30)


def save_catalog(fs: FunctionSet, path: str | Path) -> None:
    write_json(path, fs.to_dict())


def load_catalog(path: str | Path) -> FunctionSet:
    return read_record(path, FunctionSet, "catalog")
