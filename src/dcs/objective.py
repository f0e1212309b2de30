"""Objective terms scored on corrected predictions.

The score of a selection xi on a labeled dataset is

    Z = Z_err + beta * Z_imbalance + tau * Z_pmi

where Z_err is the overall error rate of the corrected argmax predictions,
Z_imbalance is the mean absolute pairwise difference of per-class accuracies
over classes present in the labels, and Z_pmi is the negated sum over present
classes of the pointwise mutual information between "predicted j" and
"labeled j" events. Each term can be disabled, in which case it contributes
exactly 0; at least one must stay enabled. Which terms count is decided in
one place, ``ObjectiveWeights.enabled_terms``, and what a term needs (the
imbalance term two present classes) in another, ``combine_terms``, the one
function that weighs them.

Predicted labels are 1-based argmaxes of the probability rows corrected by
``apply_selection``, ties broken toward the lowest class index. Natural
logarithms throughout.

Every term comes from one scoring tail. A single flat N x N confusion count
of (label, prediction) pairs yields the correct and predicted counts per
class, and from them err, per-class accuracy, imbalance and PMI. The tail is
a scorer bound to one label vector: what the labels alone fix (true counts
per class, M, the present classes, their pairs) is computed when it is
built. ``ObjectiveEvaluator`` builds one for its dataset and reuses it on
every candidate; the public term functions, ``score_predictions``,
``objective_value`` and ``evaluate`` build one per call from the count's
row sums. So the Z that the annealer minimizes, the Z a saved scheme
records and the Z a report prints are the same number by construction.

The imbalance term's mean of pair gaps is summed with the bits numpy's
``add.reduce`` gives: up to 128 gaps (16 present classes) in Python, in
numpy's own order, and past that by numpy itself. So Z keeps the bits it
had when the whole sum ran through numpy (see ``_pairwise_sum``), and a
saved ``best_z`` keeps its bits; ``tests/test_objective.py`` pins the sum
to ``np.add.reduce`` on the installed numpy.

The exact PMI tail stays in Python, one ``math.log`` per present class, and
is not to be vectorized: ``np.log`` and ``math.log`` differ in the last bit
on some inputs (about 0.1% of uniform draws in (0, 10] on numpy 2.4.6,
x86_64), which would change Z's bits. A numpy screen is fine where every
candidate it keeps is re-scored by this tail.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .corrections import (
    FunctionSet,
    _apply_column,
    apply_selection,
    normalize_allowed,
    validate_selection,
)
from .data import LabeledDataset, _index_vector
from .errors import PreconditionError, ValidationError
from .records import Record

PMI_EPSILON = 1e-12
# float values per scratch array of the ObjectiveEvaluator build: a chunk
# holds max(1, _CHUNK_VALUES // (N * D)) instances, never the whole table
_CHUNK_VALUES = 1 << 15
# the objective ablations ``ObjectiveWeights.from_mode`` builds
OBJECTIVES = ("full", "err", "err+pmi")
# the imbalance term's requirement, raised where the term is weighed
_NEEDS_TWO_CLASSES = "accuracy-imbalance term needs at least two classes present"


@dataclass(frozen=True)
class ObjectiveWeights(Record):
    """Term weights and enable flags for the combined objective."""

    beta: float = 1.0
    tau: float = 1.0
    enable_err: bool = True
    enable_cobias: bool = True
    enable_pmi: bool = True

    def __post_init__(self) -> None:
        self._check_fields()
        if not self.enabled_terms:
            raise ValidationError("at least one objective term must be enabled")
        # negated, so that a NaN fails it too
        if not all(w >= 0.0 and math.isfinite(w) for w in (self.beta, self.tau)):
            raise ValidationError("beta and tau must be finite and non-negative")

    @property
    def enabled_terms(self) -> tuple[str, ...]:
        """The names of the enabled terms, in the order Z sums them."""
        flags = (self.enable_err, self.enable_cobias, self.enable_pmi)
        return tuple(name for name, on in zip(("err", "cobias", "pmi"), flags) if on)

    @classmethod
    def from_mode(
        cls, mode: str, beta: float = 1.0, tau: float = 1.0
    ) -> "ObjectiveWeights":
        """Build weights for an ablation mode: full, err, or err+pmi."""
        if mode == "full":
            return cls(beta=beta, tau=tau)
        if mode == "err":
            return cls(beta=0.0, tau=0.0, enable_cobias=False, enable_pmi=False)
        if mode == "err+pmi":
            return cls(beta=0.0, tau=tau, enable_cobias=False)
        raise ValidationError(f"unknown objective mode {mode!r}")


def predict(ds: LabeledDataset, fs: FunctionSet, xi) -> np.ndarray:
    """1-based argmax labels of the corrected rows, ties to the lowest index."""
    corrected = apply_selection(fs, xi, ds.probabilities)
    return np.argmax(corrected, axis=1).astype(np.int64) + 1


class _Terms(NamedTuple):
    err: float
    accuracy: list[float | None]
    true_counts: list[int]
    cobias: float | None
    pmi: float


def _pairwise_sum(values: list[float]) -> float:
    """Sum of ``values`` with the bits ``np.add.reduce`` gives a contiguous
    float64 array of them.

    numpy sums fewer than 8 terms one by one from 0.0, and up to 128 terms
    in 8 interleaved accumulators combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) with the remainder added in order;
    those two branches are copied here, as they beat a call into numpy at
    the pair counts a class count gives in practice. More terms go to
    numpy's own sum, which splits them pairwise (Higham, SIAM J. Sci.
    Comput. 14, 1993). Python's ``sum`` compensates from 3.12 on and
    ``math.fsum`` rounds once, so neither gives numpy's bits.
    """
    size = len(values)
    if size < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if size > 128:
        return float(np.add.reduce(np.array(values)))
    tail = size - size % 8
    r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
    for i in range(8, tail, 8):
        v0, v1, v2, v3, v4, v5, v6, v7 = values[i : i + 8]
        r0 += v0
        r1 += v1
        r2 += v2
        r3 += v3
        r4 += v4
        r5 += v5
        r6 += v6
        r7 += v7
    total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for v in values[tail:]:
        total += v
    return total


_LOG_EPSILON = math.log(PMI_EPSILON)


class _Scorer:
    """Every term from the flat confusion count, for one label vector.

    ``flat[t * N + p]`` counts instances labeled t + 1 and predicted p + 1.
    What depends on the labels alone is computed once: the per-class true
    counts, M, the present classes with their t / M, and the pairs of
    present classes. It computes every term, enabled or not; which of them
    count is ``ObjectiveWeights.enabled_terms``, and ``combine_terms``
    weighs them and checks what an enabled term needs.
    """

    __slots__ = ("_true_counts", "_n", "_m", "_present", "_pairs")

    def __init__(self, true_counts: list[int]) -> None:
        self._true_counts = true_counts
        self._n = len(true_counts)
        self._m = m = sum(true_counts)
        self._present = [(j, t, t / m) for j, t in enumerate(true_counts) if t]
        self._pairs = list(combinations(range(len(self._present)), 2))

    def terms(self, flat: list[int]) -> _Terms:
        """An absent class's accuracy is None. ``cobias`` is None when
        fewer than two classes are present."""
        err, present_accuracy, cobias, pmi = self._score(flat)
        accuracy = [None] * self._n
        for (j, _, _), a in zip(self._present, present_accuracy):
            accuracy[j] = a
        return _Terms(err, accuracy, self._true_counts, cobias, pmi)

    def value(self, flat: list[int], w: ObjectiveWeights) -> float:
        err, _, cobias, pmi = self._score(flat)
        return combine_terms(err, cobias, pmi, w)

    def _score(self, flat: list[int]):
        """err, the present classes' accuracies, cobias and PMI."""
        n, m = self._n, self._m
        correct = flat[:: n + 1]
        acc = []
        total = 0.0
        for j, t, t_m in self._present:
            c = correct[j]
            acc.append(c / t)
            if c == 0:
                total += _LOG_EPSILON
            else:
                total += math.log((c / m) / ((sum(flat[j::n]) / m) * t_m))

        diffs = [abs(acc[i] - acc[j]) for i, j in self._pairs]
        cobias = _pairwise_sum(diffs) / len(diffs) if diffs else None
        err = (m - sum(correct)) / m if m else math.nan
        return err, acc, cobias, -total


def _index_pair(predictions, labels, top: int):
    """Predictions and labels as int64 vectors in 1..top of one shape."""
    preds = _index_vector(predictions, top, "prediction")
    labels = _index_vector(labels, top, "label")
    if preds.shape != labels.shape:
        raise ValidationError(
            f"predictions shape {preds.shape} differs from labels "
            f"shape {labels.shape}"
        )
    return preds, labels


def _terms(predictions, labels, num_classes: int) -> _Terms:
    """Every term of one prediction vector: count, then score.

    The count is the flat N x N confusion count as Python ints:
    ``flat[t * N + p]`` counts instances labeled t + 1 and predicted p + 1.
    """
    n = num_classes
    # in range, as an out-of-range value would alias into another cell; and
    # in int64, as a narrow caller dtype would wrap (label - 1) * N
    preds, labels = _index_pair(predictions, labels, n)
    flat = np.bincount((labels - 1) * n + (preds - 1), minlength=n * n).tolist()
    scorer = _Scorer([sum(flat[t * n : t * n + n]) for t in range(n)])
    return scorer.terms(flat)


def z_err(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of instances whose prediction differs from the label; NaN
    for no instances.

    The mismatch count is M minus the confusion count's diagonal, so this is
    the err of every other term function, without its N x N count.
    """
    # no class count bounds the values, only int64
    preds, labels = _index_pair(predictions, labels, np.iinfo(np.int64).max)
    m = len(labels)
    return int(np.count_nonzero(preds != labels)) / m if m else math.nan


def per_class_accuracy(
    predictions: np.ndarray, labels: np.ndarray, num_classes: int
) -> np.ndarray:
    """Accuracy per class over its true instances; NaN for absent classes."""
    return np.array(_terms(predictions, labels, num_classes).accuracy, dtype=float)


def z_cobias(
    predictions: np.ndarray, labels: np.ndarray, num_classes: int
) -> float:
    """Mean absolute accuracy difference over pairs of present classes."""
    cobias = _terms(predictions, labels, num_classes).cobias
    if cobias is None:
        raise PreconditionError(_NEEDS_TWO_CLASSES)
    return cobias


def z_pmi(
    predictions: np.ndarray, labels: np.ndarray, num_classes: int
) -> float:
    """Negated sum of per-class prediction/label PMI over present classes.

    PMI_j = ln( (correct_j / M) / ((predicted_j / M) * (true_j / M)) ). A
    class with true instances but no correct predictions would make the
    numerator 0, so its PMI is floored at ln(PMI_EPSILON); this makes never
    predicting a present class expensive rather than undefined.
    """
    return _terms(predictions, labels, num_classes).pmi


def combine_terms(
    err: float, cobias: float | None, pmi: float, w: ObjectiveWeights
) -> float:
    """Weighted sum of the terms ``w.enabled_terms`` names, in that order.

    This is the one function that weighs terms, so it also checks what an
    enabled term needs: the imbalance term, None when fewer than two classes
    are present, raises PreconditionError. So does a sum that overflows: no
    Z can rank selections then."""
    z = 0.0
    if w.enable_err:
        z = z + err
    if w.enable_cobias:
        if cobias is None:
            raise PreconditionError(_NEEDS_TWO_CLASSES)
        z = z + w.beta * cobias
    if w.enable_pmi:
        z = z + w.tau * pmi
    if math.isinf(z):
        raise PreconditionError(f"beta {w.beta!r} and tau {w.tau!r} overflow Z to {z}")
    return z


def score_predictions(
    predictions: np.ndarray,
    labels: np.ndarray,
    num_classes: int,
    w: ObjectiveWeights,
) -> float:
    """Objective value of fixed predictions."""
    t = _terms(predictions, labels, num_classes)
    return combine_terms(t.err, t.cobias, t.pmi, w)


def objective_value(
    ds: LabeledDataset, fs: FunctionSet, xi, w: ObjectiveWeights
) -> float:
    """Z for one selection on one dataset. Deterministic, no randomness."""
    preds = predict(ds, fs, xi)
    return score_predictions(preds, ds.labels, ds.num_classes, w)


class ObjectiveEvaluator:
    """Scores many selections over one dataset from precomputed rank keys.

    Every corrected value ``f_k(p_ij)`` (instance i, class j, and k one of
    the D searchable catalog indices, ``allowed_indices`` as
    ``normalize_allowed`` checks them, the whole catalog by default; 49,
    31 or 19 for the stock catalog's ``dcs``, ``dnip`` and ``furud``
    modes) is computed once up front, by the kernel
    ``apply_selection`` uses, and stored as a small unsigned integer key::

        key = (N*D - 1 - r) << S | (label_i - 1) * N + j

    where r is the dense rank of the value among instance i's N*D candidate
    values and S = (N*N - 1).bit_length() bits hold the confusion-count
    cell. The smallest key of an instance is therefore its largest value,
    and among equal values the lowest class index, as ``np.argmax`` breaks
    ties; its low S bits are the cell of (label, top class). The ranks come
    from an ``np.argsort`` of each instance's values, a gather of the values
    in that order and a ``!=`` compare of neighbours: the argsort puts equal
    values (``-0.0`` and ``0.0`` included) side by side, in any order, so
    they share a rank and strict order is kept. That is exact because
    every value is finite: ``LabeledDataset`` rejects non-finite
    probabilities and every kernel maps [0, 1] into [0, 1]. Ranks within a
    subset keep the subset's order and ties, so every comparison of two keys
    is the one the whole catalog's ranks would give. ``value`` and
    ``predictions`` take a selection through ``validate_selection``, the
    door ``evaluate``, ``apply_selection`` and ``CorrectionScheme`` share,
    and then reject a catalog function outside the searchable set, which
    gets no keys, with ``ValidationError``. The keys take the
    smallest unsigned type that holds them, uint16 for the stock catalog up
    to 10 classes and uint8 for ``dnip`` and ``furud`` at 2 classes.

    The build ranks max(1, ``_CHUNK_VALUES`` // (N*D)) instances at a
    time, in scratch arrays that every chunk reuses and that hold at most
    max(``_CHUNK_VALUES``, N*D) entries each, so what it holds beyond the
    (N, D, M) keys does not grow with M. Ranks go back to their candidates
    through flat indices, the argsort's column plus the instance's offset
    in the chunk, and each chunk's keys are copied into the table once.

    Scores come from one C-contiguous (N, M) key buffer of the current
    selection, where row j holds class j's keys: ``value(xi)`` writes all N
    rows and scores the buffer. Both searches step that buffer, unchecked:
    ``_walk_put(j, k)`` overwrites row j in place with function k's keys,
    and ``_walk_value()`` scores the buffer. The annealer puts a row,
    scores, and after a rejection puts the old row back;
    ``exhaustive_search`` puts every row of each vector and scores. A step
    costs one contiguous row copy, one ``minimum`` reduction into the top
    keys, one mask of them in place and one confusion count of those cells
    in the key dtype, with no range check: the labels were validated when
    the dataset was built, so every cell lies in 0..N*N - 1.

    The scorer of the dataset's labels is built once, here; a step counts
    the cells into a flat list and hands it to that scorer, the same
    scoring tail ``score_predictions`` uses, so scores equal
    ``objective_value`` bit for bit. ``predictions`` reads the top classes
    of a selection from the keys and leaves the buffer alone.
    """

    def __init__(
        self,
        ds: LabeledDataset,
        fs: FunctionSet,
        w: ObjectiveWeights,
        allowed_indices=None,
    ) -> None:
        self._num_classes = ds.num_classes
        self._fs = fs
        self._weights = w
        allowed = normalize_allowed(fs, allowed_indices)
        m, n, d = ds.num_instances, ds.num_classes, len(allowed)
        nd = n * d
        shift = (n * n - 1).bit_length()
        key_type = np.min_scalar_type((nd << shift) - 1)
        if key_type.kind != "u":
            raise PreconditionError(
                f"{n} classes x {d} functions do not fit a 64-bit rank key"
            )
        self._mask = (1 << shift) - 1
        self._keys = np.empty((n, d, m), dtype=key_type)
        # row j * D + a, column i: the key of f_k(p_ij), k = allowed[a]
        table = self._keys.reshape(nd, m)
        label_cells = ((ds.labels - 1) * n).astype(key_type)[:, None]
        classes = np.repeat(np.arange(n, dtype=key_type), d)
        rows = max(1, _CHUNK_VALUES // nd)
        # one chunk's scratch, a row per instance: its candidate values,
        # f_k(p_ij) at column j * D + a (the key's row in ``table``), those
        # values in rank order, their ranks and their keys
        values = np.empty((min(m, rows), nd))
        ordered = np.empty_like(values)
        ranks = np.empty(values.shape, dtype=key_type)
        keys = np.empty_like(ranks)
        offsets = np.arange(0, values.size, nd)[:, None]
        for start in range(0, m, rows):
            stop = min(start + rows, m)
            r = stop - start
            chunk = values[:r].reshape(r, n, d)
            p = ds.probabilities[start:stop]
            for a, k in enumerate(allowed):
                chunk[:, :, a] = _apply_column(fs, k, p)
            # flat positions of each instance's candidates, smallest first
            order = np.argsort(values[:r], axis=1)
            order += offsets[:r]
            # every index is in range, and "clip" gathers with no temp copy
            np.take(values, order, out=ordered[:r], mode="clip")
            # equal values sit side by side, so they share a rank
            ranks[:r, 0] = 0
            np.not_equal(ordered[:r, 1:], ordered[:r, :-1], out=ranks[:r, 1:])
            np.cumsum(ranks[:r], axis=1, out=ranks[:r])
            np.subtract(nd - 1, ranks[:r], out=ranks[:r])
            keys.reshape(-1)[order] = ranks[:r]
            chunk_keys = keys[:r]
            chunk_keys <<= shift
            # the low ``shift`` bits are 0, so adding the cell sets them
            chunk_keys += label_cells[start:stop]
            chunk_keys += classes
            table[:, start:stop] = chunk_keys.T
        # class j's key row of each searchable function, by catalog index
        self._rows = [dict(zip(allowed, self._keys[j])) for j in range(n)]
        self._scorer = _Scorer(np.bincount(ds.labels - 1, minlength=n).tolist())
        self._cells = n * n
        self._buffer = np.empty((n, m), dtype=key_type)
        self._top = np.empty(m, dtype=key_type)

    def predictions(self, xi) -> np.ndarray:
        """1-based top classes of a selection, as ``predict`` gives them."""
        cells = np.minimum.reduce(self._key_rows(xi), axis=0) & self._mask
        return (cells % self._num_classes + 1).astype(np.int64)

    def value(self, xi) -> float:
        """Load ``xi`` into the buffer and score it."""
        for j, row in enumerate(self._key_rows(xi)):
            self._buffer[j] = row
        return self._walk_value()

    def _key_rows(self, xi) -> list[np.ndarray]:
        """Class j's key row of function xi[j], for every j.

        The selection passes ``validate_selection`` before the lookup, as an
        equal float, 13.0 for 13, would find the same key in the dict.
        """
        entries = validate_selection(self._fs, xi, num_classes=self._num_classes)
        try:
            return [self._rows[j][k] for j, k in enumerate(entries)]
        except KeyError as exc:
            raise ValidationError(
                f"function {exc.args[0]} is not one of the "
                f"{len(self._rows[0])} functions this evaluator searches"
            ) from None

    def _walk_put(self, j: int, k: int) -> None:
        """Put function k's keys on class j's row of the buffer, unscored."""
        self._buffer[j] = self._rows[j][k]

    def _walk_value(self) -> float:
        """Score the buffer. ``_top`` then holds each instance's
        confusion-count cell of (label, top class), in the key dtype."""
        top = np.minimum.reduce(self._buffer, axis=0, out=self._top)
        top &= self._mask
        flat = np.bincount(top, minlength=self._cells).tolist()
        return self._scorer.value(flat, self._weights)


@dataclass(frozen=True)
class EvalReport(Record):
    """Evaluation summary of one selection (or raw baseline) on one dataset."""

    overall_accuracy: float
    err: float
    per_class_accuracy: tuple[float | None, ...]
    class_counts: tuple[int, ...]
    cobias: float | None
    pmi_sum: float
    z_value: float
    beta: float
    tau: float
    enabled_terms: tuple[str, ...]
    correction_kinds: tuple[str, ...]
    correction_params: tuple[dict, ...]


def evaluate(
    ds: LabeledDataset,
    fs: FunctionSet,
    xi,
    w: ObjectiveWeights,
) -> EvalReport:
    """Full report for one selection: accuracies, imbalance, PMI, and Z.

    The imbalance and PMI components are reported whenever defined, even if
    disabled in ``w``; ``z_value`` only sums the enabled terms. Overall
    accuracy is defined as 1 - err so the two always sum to 1 exactly.
    """
    entries = validate_selection(fs, xi, num_classes=ds.num_classes)
    return _report_from_predictions(ds, fs, entries, predict(ds, fs, entries), w)


def _report_from_predictions(
    ds: LabeledDataset,
    fs: FunctionSet,
    entries: tuple[int, ...],
    preds: np.ndarray,
    w: ObjectiveWeights,
) -> EvalReport:
    """``evaluate``'s report for a validated selection whose predictions on
    ``ds`` are already computed."""
    t = _terms(preds, ds.labels, ds.num_classes)
    params = tuple(fs.describe_index(k) for k in entries)
    return EvalReport(
        overall_accuracy=1.0 - t.err,
        err=t.err,
        per_class_accuracy=tuple(t.accuracy),
        class_counts=tuple(t.true_counts),
        cobias=t.cobias,
        pmi_sum=t.pmi,
        z_value=combine_terms(t.err, t.cobias, t.pmi, w),
        beta=w.beta,
        tau=w.tau,
        enabled_terms=w.enabled_terms,
        correction_kinds=tuple(p["kind"] for p in params),
        correction_params=params,
    )
