"""Exhaustive-search oracle: exact enumeration, ties, and guard rails."""
import itertools

import numpy as np
import pytest

from dcs import (
    AnnealConfig,
    FunctionSet,
    ObjectiveWeights,
    PreconditionError,
    TriangularMembership,
    ValidationError,
    anneal,
    default_function_set,
    exhaustive_search,
    objective_value,
)
from dcs.corrections import mode_indices
from dcs.objective import ObjectiveEvaluator
from dcs.oracle import OracleResult
from dcs.synth import BiasProfile, generate
from conftest import BAD_ALLOWED, make_dataset


def test_enumerates_full_space(four_row_dataset, tiny_catalog):
    w = ObjectiveWeights(beta=1.0, tau=1.0)
    result = exhaustive_search(four_row_dataset, tiny_catalog, w)
    assert result.num_evaluated == tiny_catalog.size ** 2 == 16


def test_best_matches_manual_enumeration(four_row_dataset, tiny_catalog):
    w = ObjectiveWeights(beta=1.0, tau=1.0)
    result = exhaustive_search(four_row_dataset, tiny_catalog, w)
    zs = {
        xi: objective_value(four_row_dataset, tiny_catalog, xi, w)
        for xi in itertools.product((1, 2, 3, 4), repeat=2)
    }
    assert result.best_z == min(zs.values())
    assert zs[result.best_xi] == result.best_z


def test_tie_goes_to_lexicographically_first():
    # constant probabilities make many selections prediction-identical
    ds = make_dataset([[0.5, 0.5], [0.5, 0.5]], [1, 2])
    fs = FunctionSet(
        memberships=(TriangularMembership(0.0, 1.0, 1.0),),
        num_weights=2,
    )
    w = ObjectiveWeights.from_mode("err")
    result = exhaustive_search(ds, fs, w)
    zs = {
        xi: objective_value(ds, fs, xi, w)
        for xi in itertools.product((1, 2, 3), repeat=2)
    }
    best_z = min(zs.values())
    firsts = sorted(xi for xi, z in zs.items() if z == best_z)
    assert result.best_xi == firsts[0]
    assert result.ties == len(firsts)


def test_one_hot_rows_tie_count(tiny_catalog):
    # one-hot rows: weights and Don't Change keep the argmax, the left
    # shoulder inverts it; exactly 9 of 16 selections stay perfect
    # (worked by enumerating (f(1), f(0)) pairs per class)
    ds = make_dataset([[1.0, 0.0], [0.0, 1.0]], [1, 2])
    w = ObjectiveWeights.from_mode("err")
    result = exhaustive_search(ds, tiny_catalog, w)
    zs = [
        objective_value(ds, tiny_catalog, xi, w)
        for xi in itertools.product((1, 2, 3, 4), repeat=2)
    ]
    assert result.best_z == 0.0
    assert result.ties == sum(1 for z in zs if z == 0.0)
    assert result.ties == 9


@pytest.mark.parametrize("mode", ["dnip", "furud"])
def test_searchable_subset_matches_brute_force(mode):
    # the evaluator ranks keys among the allowed functions only; the oracle
    # must still find the first minimum and its ties that a from-scratch
    # ``objective_value`` scan of the same space finds
    profile = BiasProfile(
        num_classes=2,
        class_priors=(0.6, 0.4),
        target_accuracy=(0.9, 0.4),
        confusion_temperature=1.0,
        seed=31,
    )
    ds = generate(profile, 60)
    fs = default_function_set()
    w = ObjectiveWeights()
    allowed = mode_indices(fs, mode)
    result = exhaustive_search(ds, fs, w, allowed_indices=allowed)
    zs = [
        (objective_value(ds, fs, xi, w), xi)
        for xi in itertools.product(allowed, repeat=2)
    ]
    best_z = min(z for z, _ in zs)
    assert result == OracleResult(
        best_xi=next(xi for z, xi in zs if z == best_z),
        best_z=best_z,
        num_evaluated=len(allowed) ** 2,
        ties=sum(1 for z, _ in zs if z == best_z),
    )


def test_allowed_indices_restrict_enumeration(four_row_dataset, tiny_catalog):
    w = ObjectiveWeights(beta=1.0, tau=1.0)
    result = exhaustive_search(
        four_row_dataset, tiny_catalog, w, allowed_indices=(1, 3)
    )
    assert result.num_evaluated == 4
    assert all(k in (1, 3) for k in result.best_xi)


def test_empty_allowed_set_rejected(four_row_dataset, tiny_catalog):
    w = ObjectiveWeights()
    with pytest.raises(PreconditionError, match="allowed index set is empty"):
        exhaustive_search(four_row_dataset, tiny_catalog, w, allowed_indices=())


@pytest.mark.parametrize("allowed, message", BAD_ALLOWED)
@pytest.mark.parametrize("door", [exhaustive_search, ObjectiveEvaluator])
def test_allowed_indices_follow_the_index_rule(
    four_row_dataset, door, allowed, message
):
    with pytest.raises(ValidationError) as info:
        door(four_row_dataset, default_function_set(), ObjectiveWeights(),
             allowed_indices=allowed)
    assert str(info.value) == message


# space > nan is False, so a NaN limit refuses only through the negated test
@pytest.mark.parametrize("limit", [100, float("nan")], ids=["below", "nan"])
def test_limit_guard(four_row_dataset, limit):
    from dcs import default_function_set

    fs = default_function_set()
    w = ObjectiveWeights(beta=1.0, tau=1.0)
    with pytest.raises(PreconditionError, match=f"exceeds limit {limit}"):
        exhaustive_search(four_row_dataset, fs, w, limit=limit)


def test_annealer_reaches_oracle_optimum_on_small_space(tiny_catalog):
    profile = BiasProfile(
        num_classes=2,
        class_priors=(0.5, 0.5),
        target_accuracy=(0.9, 0.3),
        confusion_temperature=1.0,
        seed=5,
    )
    ds = generate(profile, 50)
    w = ObjectiveWeights(beta=1.0, tau=1.0)
    oracle = exhaustive_search(ds, tiny_catalog, w)
    hits = 0
    for seed in (0, 1, 2):
        result = anneal(ds, tiny_catalog, w, AnnealConfig(seed=seed))
        if abs(result.best_z - oracle.best_z) <= 1e-9:
            hits += 1
    assert hits >= 2
