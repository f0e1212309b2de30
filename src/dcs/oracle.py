"""Exhaustive search over selection vectors, used as a ground-truth check.

Enumerates the full cartesian product of allowed indices in lexicographic
order and scores every vector on the key buffer the annealer walks, with
the two steps it takes (``ObjectiveEvaluator._walk_put`` and
``_walk_value``), so values are bit-comparable. Intended for small
instances; the space size is guarded by an explicit limit.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .corrections import FunctionSet, normalize_allowed
from .data import LabeledDataset
from .errors import PreconditionError
from .objective import ObjectiveEvaluator, ObjectiveWeights
from .records import Record

# the largest search space ``exhaustive_search`` enumerates by default
SPACE_LIMIT = 1_000_000


@dataclass(frozen=True)
class OracleResult(Record):
    best_xi: tuple[int, ...]
    best_z: float
    num_evaluated: int
    ties: int


def exhaustive_search(
    ds: LabeledDataset,
    fs: FunctionSet,
    weights: ObjectiveWeights,
    limit: int = SPACE_LIMIT,
    allowed_indices=None,
) -> OracleResult:
    """Score every selection vector and return the first-encountered minimum.

    ``ties`` counts all vectors whose score exactly equals the minimum
    (including the winner itself). ``num_evaluated`` is |allowed|**N, the
    whole space. ``normalize_allowed`` checks ``allowed_indices``; raises
    PreconditionError when the space exceeds ``limit``.
    """
    n = ds.num_classes
    allowed = normalize_allowed(fs, allowed_indices)
    space = len(allowed) ** n
    if not space <= limit:  # a NaN limit refuses too
        raise PreconditionError(
            f"search space {len(allowed)}^{n} = {space} exceeds limit {limit}"
        )
    evaluator = ObjectiveEvaluator(ds, fs, weights, allowed)
    best_xi: tuple[int, ...] | None = None
    best_z = float("inf")
    ties = 0
    for xi in itertools.product(allowed, repeat=n):
        for j, k in enumerate(xi):
            evaluator._walk_put(j, k)
        z = evaluator._walk_value()
        if z < best_z:
            best_xi, best_z, ties = xi, z, 1
        elif z == best_z:
            ties += 1
    return OracleResult(
        best_xi=best_xi, best_z=best_z, num_evaluated=space, ties=ties
    )
