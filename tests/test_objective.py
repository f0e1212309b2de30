"""Objective terms against hand-worked values and an independent oracle."""
import itertools
import math
import tracemalloc
from operator import truediv

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dcs import (
    AnnealConfig,
    CorrectionScheme,
    FunctionSet,
    ObjectiveWeights,
    PreconditionError,
    TriangularMembership,
    ValidationError,
    apply_selection,
    default_function_set,
    evaluate,
    objective_value,
    predict,
    z_cobias,
    z_err,
    z_pmi,
)
import dcs.objective
from dcs.objective import (
    _CHUNK_VALUES,
    EvalReport,
    ObjectiveEvaluator,
    _pairwise_sum,
    combine_terms,
    per_class_accuracy,
    score_predictions,
)
from dcs.corrections import MODES, mode_indices
from dcs.synth import BiasProfile, benchmark_suite, generate
from conftest import make_dataset

EXACT = 1e-12
# every value a tie can hinge on: both signed zeros and two exact levels
TIE_VALUES = (0.0, -0.0, 0.25, 1.0)
# the stock catalog, and one whose extra membership peaks at a tie value
TIE_CATALOGS = (
    default_function_set(),
    FunctionSet(
        default_function_set().memberships
        + (TriangularMembership(0.25, 0.25, 0.5),),
        num_weights=30,
    ),
)


def _chunk_rows(n: int, d: int) -> int:
    """Instances per chunk of the ObjectiveEvaluator build, for N classes
    and D searchable functions."""
    return max(1, _CHUNK_VALUES // (n * d))


class TestPredict:
    def test_all_k0_is_raw_argmax(self, four_row_dataset):
        fs = default_function_set()
        preds = predict(four_row_dataset, fs, (1, 1))
        raw = np.argmax(four_row_dataset.probabilities, axis=1) + 1
        assert np.array_equal(preds, raw)

    def test_tie_breaks_to_lowest_index(self):
        ds = make_dataset([[0.4, 0.4, 0.1], [0.2, 0.3, 0.3]], [1, 2])
        fs = default_function_set()
        preds = predict(ds, fs, (1, 1, 1))
        assert preds[0] == 1
        assert preds[1] == 2

    def test_all_zero_row_predicts_class_1(self):
        # every class's correction maps its probability to 0
        fs = FunctionSet(
            memberships=(
                TriangularMembership(0.0, 1.0, 1.0),
                TriangularMembership(0.0, 0.0, 0.1),
            ),
            num_weights=1,
        )
        ds = make_dataset([[0.9, 0.8]], [2])
        preds = predict(ds, fs, (2, 2))
        assert preds[0] == 1

    def test_labels_are_one_based(self, four_row_dataset):
        fs = default_function_set()
        preds = predict(four_row_dataset, fs, (1, 1))
        assert set(np.unique(preds)) <= {1, 2}


class TestErr:
    def test_one_of_four(self):
        assert z_err(np.array([1, 1, 2, 2]), np.array([1, 2, 2, 2])) == 0.25

    def test_perfect(self):
        assert z_err(np.array([1, 2]), np.array([1, 2])) == 0.0

    def test_all_wrong(self):
        assert z_err(np.array([2, 1]), np.array([1, 2])) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            z_err(np.array([1]), np.array([1, 2]))

    def test_cost_does_not_grow_with_a_value(self):
        # no N x N count sized by the largest value
        assert z_err([1, 2**40], [1, 1]) == 0.5
        assert z_err(np.array([2**62]), np.array([2**62])) == 0.0
        assert math.isnan(z_err([], []))

    @pytest.mark.parametrize("seed", range(4))
    def test_is_the_err_term_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        preds, labels = rng.integers(1, 7, size=(2, 97))
        err_only = ObjectiveWeights.from_mode("err")
        assert z_err(preds, labels) == score_predictions(preds, labels, 6, err_only)


class TestCountInputTypes:
    @pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.int16])
    def test_narrow_integers_count_in_full_width(self, dtype):
        # (label - 1) * 20 + (pred - 1) runs up to 399, past any 8-bit type
        labels = np.arange(1, 21, dtype=dtype)
        assert z_err(labels, labels) == 0.0
        assert per_class_accuracy(labels, labels, 20).tolist() == [1.0] * 20
        assert z_cobias(labels, labels, 20) == 0.0

    def test_narrow_integers_score_like_int64(self):
        rng = np.random.default_rng(5)
        preds = rng.integers(1, 21, size=300)
        labels = rng.integers(1, 21, size=300)
        w = ObjectiveWeights()
        expected = score_predictions(preds, labels, 20, w)
        narrow = score_predictions(
            preds.astype(np.uint8), labels.astype(np.int8), 20, w
        )
        assert narrow == expected

    @pytest.mark.parametrize(
        "preds,labels",
        [
            (np.array([1.0, 2.0]), np.array([1, 2])),
            (np.array([1, 2]), np.array([1.0, 2.0])),
            (np.array([True, False]), np.array([1, 2])),
        ],
    )
    def test_non_integer_values_rejected(self, preds, labels):
        with pytest.raises(ValidationError, match="must be integers"):
            z_pmi(preds, labels, 2)


class TestTermInputs:
    """Every public term function checks its vectors with the rule labels
    follow, so numpy's own errors never escape."""

    TERMS = {
        "z_err": z_err,
        "per_class_accuracy": lambda p, t: per_class_accuracy(p, t, 2),
        "z_cobias": lambda p, t: z_cobias(p, t, 2),
        "z_pmi": lambda p, t: z_pmi(p, t, 2),
    }

    @pytest.mark.parametrize("term", sorted(TERMS))
    def test_two_dimensional_vectors_rejected(self, term):
        vectors = np.array([[1, 2], [2, 1]])
        with pytest.raises(ValidationError) as info:
            self.TERMS[term](vectors, vectors)
        assert str(info.value) == "predictions must be a 1-d vector, got (2, 2)"

    @pytest.mark.parametrize("term", sorted(TERMS))
    def test_string_labels_rejected(self, term):
        with pytest.raises(ValidationError) as info:
            self.TERMS[term](np.array([1, 2]), np.array(["1", "2"]))
        assert str(info.value) == "labels must be integers, got dtype <U1"

    def test_z_err_checks_before_it_infers_n(self):
        with pytest.raises(ValidationError) as info:
            z_err([1, 2], [1, "2"])
        assert str(info.value) == "labels must be integers, got '2' at row 2"
        with pytest.raises(ValidationError) as info:
            z_err(np.array([1, 0]), np.array([1, 2]))
        assert str(info.value) == (
            f"prediction out of range 1..{2**63 - 1} at row 2: 0"
        )

    def test_out_of_range_names_the_row(self):
        with pytest.raises(ValidationError) as info:
            z_pmi(np.array([1, 2, 3]), np.array([1, 2, 2]), 2)
        assert str(info.value) == "prediction out of range 1..2 at row 3: 3"


class TestSelectionEntries:
    """A selection entry must be an integer: a float, even 1.0, and a
    numeric string are rejected, not converted, by every selection caller."""

    CALLERS = {
        "apply_selection": lambda ds, fs, xi: apply_selection(
            fs, xi, ds.probabilities
        ),
        "objective_value": lambda ds, fs, xi: objective_value(
            ds, fs, xi, ObjectiveWeights()
        ),
        "evaluate": lambda ds, fs, xi: evaluate(ds, fs, xi, ObjectiveWeights()),
        "CorrectionScheme": lambda ds, fs, xi: CorrectionScheme(
            catalog=fs,
            selection=xi,
            objective=ObjectiveWeights(),
            anneal_config=AnnealConfig(seed=0),
            best_z=0.0,
            dataset_num_instances=ds.num_instances,
            dataset_num_classes=ds.num_classes,
            dataset_sha256=ds.fingerprint(),
        ),
    }

    @pytest.mark.parametrize("caller", sorted(CALLERS))
    @pytest.mark.parametrize(
        "xi, message",
        [
            ((13.9, 25), "selection values must be integers, got 13.9 at entry 1"),
            (("13", "25"), "selection values must be integers, got '13' at entry 1"),
            ((1.0, 2.0), "selection values must be integers, got 1.0 at entry 1"),
            ((13, True), "selection values must be integers, got True at entry 2"),
            (
                np.array([13.0, 25.0]),
                "selection values must be integers, got dtype float64",
            ),
            ((13, 50), "selection value out of range 1..49 at entry 2: 50"),
            ((2**64, 1), f"selection value out of range 1..49 at entry 1: {2**64}"),
        ],
    )
    def test_bad_entries_rejected(self, four_row_dataset, caller, xi, message):
        fs = default_function_set()
        with pytest.raises(ValidationError) as info:
            self.CALLERS[caller](four_row_dataset, fs, xi)
        assert str(info.value) == message

    @pytest.mark.parametrize("caller", sorted(CALLERS))
    def test_numpy_integer_entries_accepted(self, four_row_dataset, caller):
        fs = default_function_set()
        for xi in (np.array([13, 25], dtype=np.uint8), (np.int64(13), 25)):
            self.CALLERS[caller](four_row_dataset, fs, xi)

    def test_evaluator_checks_entries_before_the_lookup(self):
        # 13.0 == 13 and True == 1 would find those functions' keys
        train = benchmark_suite()[0].train_dataset()
        ev = ObjectiveEvaluator(train, default_function_set(), ObjectiveWeights())
        z = ev.value((13, 25, 1))
        for xi, bad in [
            ((13.0, 25.0, 1.0), "13.0 at entry 1"),
            ((13, 25, True), "True at entry 3"),
            (np.array([13.0, 25.0, 1.0]), f"{np.float64(13.0)!r} at entry 1"),
            ((13, [25], 1), "[25] at entry 2"),
        ]:
            for call in (ev.value, ev.predictions):
                with pytest.raises(ValidationError) as info:
                    call(xi)
                assert str(info.value) == (
                    f"selection values must be integers, got {bad}"
                )
        assert ev.value((np.int64(13), np.uint8(25), 1)) == z

    def test_objective_value_agrees_with_the_evaluator(self, four_row_dataset):
        # both reject what neither can score
        fs = default_function_set()
        w = ObjectiveWeights()
        with pytest.raises(ValidationError):
            ObjectiveEvaluator(four_row_dataset, fs, w).value((1.9, "2"))
        with pytest.raises(ValidationError):
            objective_value(four_row_dataset, fs, (1.9, "2"), w)


class TestPerClassAccuracy:
    def test_direct_counts(self):
        acc = per_class_accuracy(
            np.array([1, 1, 2, 2]), np.array([1, 2, 2, 2]), 2
        )
        assert acc[0] == 1.0
        assert abs(acc[1] - 2 / 3) <= EXACT

    def test_absent_class_is_nan(self):
        acc = per_class_accuracy(np.array([1, 2]), np.array([1, 2]), 3)
        assert math.isnan(acc[2])

    def test_single_correct_instance(self):
        acc = per_class_accuracy(np.array([2]), np.array([2]), 2)
        assert acc[1] == 1.0
        assert math.isnan(acc[0])


class TestCobias:
    def test_three_class_mean_pair_gap(self):
        # accs (1.0, 0.5, 0.5): pairs |1-.5| + |1-.5| + |.5-.5| over 3
        preds = np.array([1, 1, 2, 3, 2, 3])
        labels = np.array([1, 1, 2, 2, 3, 3])
        assert abs(z_cobias(preds, labels, 3) - 1 / 3) <= EXACT

    def test_equal_accuracies_give_zero(self):
        preds = np.array([1, 2])
        labels = np.array([1, 2])
        assert z_cobias(preds, labels, 2) == 0.0

    def test_two_class_gap(self):
        # A_1 = 0.8 (4 of 5), A_2 = 0.6 (3 of 5)
        preds = np.array([1, 1, 1, 1, 2, 2, 2, 2, 1, 1])
        labels = np.array([1, 1, 1, 1, 1, 2, 2, 2, 2, 2])
        assert abs(z_cobias(preds, labels, 2) - 0.2) <= EXACT

    def test_absent_classes_shrink_divisor(self):
        # class 3 absent: only the (1,2) pair counts
        preds = np.array([1, 2, 2, 2])
        labels = np.array([1, 1, 2, 2])
        assert abs(z_cobias(preds, labels, 3) - 0.5) <= EXACT

    def test_fewer_than_two_present_classes_rejected(self):
        with pytest.raises(PreconditionError):
            z_cobias(np.array([1, 1]), np.array([1, 1]), 2)

    @given(st.permutations([1, 2, 3]))
    def test_relabel_invariance(self, perm):
        preds = np.array([1, 1, 2, 3, 3, 2])
        labels = np.array([1, 2, 2, 3, 3, 1])
        mapping = {i + 1: perm[i] for i in range(3)}
        p2 = np.array([mapping[v] for v in preds])
        l2 = np.array([mapping[v] for v in labels])
        assert abs(
            z_cobias(preds, labels, 3) - z_cobias(p2, l2, 3)
        ) <= EXACT


# values shaped like accuracy gaps: exact fractions c / t and differences of
# two of them, 0.0, and subnormals
_GAPS = st.one_of(
    st.just(0.0),
    st.builds(truediv, st.integers(0, 3000), st.integers(1, 3000)),
    st.builds(
        lambda a, b, c, d: abs(a / b - c / d),
        st.integers(0, 3000),
        st.integers(1, 3000),
        st.integers(0, 3000),
        st.integers(1, 3000),
    ),
    st.floats(min_value=0.0, max_value=2.2250738585072014e-308),
)
# n gaps drawn with repeats from a pool of up to 40 distinct ones, as k
# classes give k(k-1)/2 gaps between only k accuracies
_GAP_LISTS = st.builds(
    lambda n, pool, rnd: [rnd.choice(pool) for _ in range(n)],
    st.integers(0, 300),
    st.lists(_GAPS, min_size=1, max_size=40),
    st.randoms(use_true_random=False),
)


class TestPairwiseSum:
    """The imbalance term's sum of pair gaps, pinned to ``np.add.reduce``.

    The scorer adds up to 128 gaps in Python in numpy's order, and hands
    more to numpy, so that Z matches the bits numpy's sum gave it before. Z's
    bit-reproducibility (golden traces, a saved scheme's ``best_z``) now
    rests on this property of the installed numpy, as it already does for
    the RNG block draws. Lengths run over 0..300, which covers the
    sequential (< 8) and 8-accumulator (8..128) branches and the hand-off
    to numpy's own sum (> 128).
    """

    @settings(max_examples=250, deadline=None)
    @given(_GAP_LISTS)
    @example([0.1] * 7)
    @example([1 / 3] * 8)
    @example([2 / 7] * 128)
    @example([0.3] * 129)
    @example([i / 300 for i in range(300)])
    def test_matches_numpy_add_reduce(self, values):
        expected = float(np.add.reduce(np.array(values, dtype=np.float64)))
        assert _pairwise_sum(values).hex() == expected.hex()


class TestManyClasses:
    """The scorer past the goldens' 8 classes, where nothing else pins its
    pair order or reaches ``_pairwise_sum``'s numpy branch (past 128 gaps,
    from 17 present classes)."""

    def test_cobias_sums_triu_pairs_as_numpy_does(self):
        rng = np.random.default_rng(27)
        for k in range(2, 41):
            # every class present, at uneven counts
            labels = np.concatenate(
                [np.arange(1, k + 1), rng.integers(1, k + 1, size=6 * k)]
            )
            preds = rng.integers(1, k + 1, size=labels.size)
            acc = per_class_accuracy(preds, labels, k)
            iu, ju = np.triu_indices(k, 1)
            expected = np.add.reduce(np.abs(acc[iu] - acc[ju])) / len(iu)
            got = z_cobias(preds, labels, k)
            assert got.hex() == float(expected).hex(), k

    def test_evaluator_matches_objective_value_at_17_classes(self):
        k = 17
        rng = np.random.default_rng(17)
        labels = np.concatenate(
            [np.arange(1, k + 1), rng.integers(1, k + 1, size=10 * k)]
        )
        ds = make_dataset(rng.dirichlet(np.ones(k), size=labels.size), labels)
        fs = default_function_set()
        w = ObjectiveWeights()
        ev = ObjectiveEvaluator(ds, fs, w)
        for _ in range(5):
            xi = [int(j) for j in rng.integers(1, fs.size + 1, size=k)]
            assert ev.value(xi) == objective_value(ds, fs, xi, w)


class TestPmi:
    def test_hand_worked_value(self):
        got = z_pmi(np.array([1, 1, 2, 2]), np.array([1, 2, 2, 2]), 2)
        expected = -(math.log(2) + math.log(4 / 3))
        assert abs(got - expected) <= EXACT
        assert abs(got - (-0.98083)) < 1e-5

    def test_perfect_balanced_two_class(self):
        got = z_pmi(np.array([1, 2, 1, 2]), np.array([1, 2, 1, 2]), 2)
        assert abs(got - (-2 * math.log(2))) <= EXACT
        assert abs(got - (-1.38629)) < 1e-5

    def test_never_predicted_class_hits_floor(self):
        # class 2 true-present but never predicted: its term is ln(1e-12)
        got = z_pmi(np.array([1, 1, 1, 1]), np.array([1, 1, 2, 2]), 2)
        class1 = math.log((2 / 4) / ((4 / 4) * (2 / 4)))
        assert abs(got - (-(class1 + math.log(1e-12)))) <= 1e-9

    def test_absent_class_skipped(self):
        with_absent = z_pmi(np.array([1, 2]), np.array([1, 2]), 3)
        without = z_pmi(np.array([1, 2]), np.array([1, 2]), 2)
        assert with_absent == without


def steering_dataset():
    """Two-class set where the PMI floor decides the optimum.

    Five confident class-1 rows, three narrow class-1 rows, and two narrow
    class-2 rows whose raw argmax is class 1. Error alone tolerates never
    predicting class 2; the ln(1e-12) floor does not.
    """
    rows = [[0.9, 0.2]] * 5 + [[0.7, 0.65]] * 3 + [[0.7, 0.6]] * 2
    labels = [1] * 8 + [2] * 2
    return make_dataset(rows, labels)


def steering_catalog():
    return FunctionSet(
        memberships=(TriangularMembership(0.0, 1.0, 1.0),),
        num_weights=5,
    )


def brute_force_best(ds, fs, weights):
    """Independent oracle: plain-python enumeration of all selections."""
    best = None
    for xi in itertools.product(range(1, fs.size + 1), repeat=ds.num_classes):
        z = objective_value(ds, fs, xi, weights)
        if best is None or z < best[1]:
            best = (xi, z)
    return best


class TestPmiSteering:
    def test_floor_steers_away_from_never_predicting(self):
        ds = steering_dataset()
        fs = steering_catalog()
        err_only = ObjectiveWeights.from_mode("err")
        err_pmi = ObjectiveWeights.from_mode("err+pmi", tau=1.0)

        xi_err, z_err_best = brute_force_best(ds, fs, err_only)
        xi_pmi, z_pmi_best = brute_force_best(ds, fs, err_pmi)

        preds_err = predict(ds, fs, xi_err)
        preds_pmi = predict(ds, fs, xi_pmi)
        # error alone never predicts class 2 (cost 0.2 is minimal);
        # adding the PMI term makes class 2 predictions worth having
        assert 2 not in preds_err
        assert 2 in preds_pmi

    def test_pmi_optimum_still_has_low_error(self):
        ds = steering_dataset()
        fs = steering_catalog()
        err_pmi = ObjectiveWeights.from_mode("err+pmi", tau=1.0)
        xi, _ = brute_force_best(ds, fs, err_pmi)
        preds = predict(ds, fs, xi)
        assert z_err(preds, ds.labels) <= 0.3


class TestCombination:
    def test_weighted_sum(self):
        w = ObjectiveWeights(beta=1.0, tau=0.0)
        z = combine_terms(0.25, 1 / 3, -99.0, w)
        assert abs(z - (0.25 + 1 / 3)) <= EXACT

    def test_err_only_ablation(self):
        w = ObjectiveWeights.from_mode("err")
        z = combine_terms(0.25, 1 / 3, -5.0, w)
        assert z == 0.25

    def test_err_pmi_ablation(self):
        w = ObjectiveWeights.from_mode("err+pmi", tau=0.5)
        z = combine_terms(0.25, 1 / 3, -2.0, w)
        assert z == 0.25 + 0.5 * (-2.0)

    def test_full_mode_objective_on_dataset(self, four_row_dataset):
        fs = default_function_set()
        w = ObjectiveWeights(beta=1.0, tau=0.0)
        z = objective_value(four_row_dataset, fs, (1, 1), w)
        assert abs(z - (0.25 + 1 / 3)) < EXACT
        assert abs(z - 0.58333) < 1e-5

    def test_all_k0_equals_uncorrected_objective(self, four_row_dataset):
        fs = default_function_set()
        w = ObjectiveWeights(beta=1.0, tau=1.0)
        raw_preds = np.argmax(four_row_dataset.probabilities, axis=1) + 1
        labels = four_row_dataset.labels
        manual = (
            z_err(raw_preds, labels)
            + z_cobias(raw_preds, labels, 2)
            + z_pmi(raw_preds, labels, 2)
        )
        assert objective_value(four_row_dataset, fs, (1, 1), w) == manual

    def test_requires_one_enabled_term(self):
        with pytest.raises(ValidationError):
            ObjectiveWeights(
                enable_err=False, enable_cobias=False, enable_pmi=False
            )

    def test_rejects_negative_weights(self):
        with pytest.raises(ValidationError):
            ObjectiveWeights(beta=-0.1)
        with pytest.raises(ValidationError):
            ObjectiveWeights(tau=-1.0)
        with pytest.raises(ValidationError):
            ObjectiveWeights(beta=math.nan)
        with pytest.raises(ValidationError):
            ObjectiveWeights(tau=math.nan)
        with pytest.raises(ValidationError):
            ObjectiveWeights(beta=math.inf)
        with pytest.raises(ValidationError):
            ObjectiveWeights(tau=math.inf)

    @pytest.mark.parametrize(
        "beta, tau, terms, z",
        [
            (1.0, 1e308, (0.25, 0.5, -2.0), "-inf"),
            (1.0, 1e308, (0.25, 0.5, 2.0), "inf"),
            # each product is finite, their sum is not
            (1e308, 1e308, (0.0, 1.0, 1.0), "inf"),
        ],
    )
    def test_overflowing_sum_is_refused(self, beta, tau, terms, z):
        with pytest.raises(PreconditionError) as info:
            combine_terms(*terms, ObjectiveWeights(beta=beta, tau=tau))
        assert str(info.value) == f"beta {beta!r} and tau {tau!r} overflow Z to {z}"

    def test_every_scoring_call_refuses_an_overflowing_objective(self):
        ds = generate(benchmark_suite()[4].profile, 300)
        fs = default_function_set()
        xi = (1,) * ds.num_classes
        # a large tau that keeps Z finite still scores
        assert math.isfinite(objective_value(ds, fs, xi, ObjectiveWeights(tau=1e306)))
        w = ObjectiveWeights(tau=1e308)
        calls = [
            lambda: score_predictions(
                predict(ds, fs, xi), ds.labels, ds.num_classes, w
            ),
            lambda: objective_value(ds, fs, xi, w),
            lambda: ObjectiveEvaluator(ds, fs, w).value(xi),
            lambda: evaluate(ds, fs, xi, w),
            lambda: dcs.anneal(ds, fs, w, AnnealConfig(seed=0, max_outer_loops=1)),
        ]
        for call in calls:
            with pytest.raises(PreconditionError, match="^beta 1.0 and tau 1e"):
                call()

    def test_from_mode_wiring(self):
        full = ObjectiveWeights.from_mode("full", beta=2.0, tau=0.5)
        assert (full.beta, full.tau) == (2.0, 0.5)
        assert full.enable_err and full.enable_cobias and full.enable_pmi
        err = ObjectiveWeights.from_mode("err")
        assert err.beta == 0.0 and err.tau == 0.0
        assert not err.enable_cobias and not err.enable_pmi
        ep = ObjectiveWeights.from_mode("err+pmi", tau=0.7)
        assert ep.beta == 0.0 and ep.tau == 0.7
        assert not ep.enable_cobias and ep.enable_pmi
        with pytest.raises(ValidationError):
            ObjectiveWeights.from_mode("nope")


class TestEvaluatorEquivalence:
    def test_bit_identical_to_plain_path(self, four_row_dataset):
        fs = default_function_set()
        w = ObjectiveWeights(beta=1.0, tau=1.0)
        ev = ObjectiveEvaluator(four_row_dataset, fs, w)
        rng = np.random.default_rng(0)
        for _ in range(50):
            xi = tuple(rng.integers(1, fs.size + 1, size=2))
            assert ev.value(xi) == objective_value(four_row_dataset, fs, xi, w)

    @pytest.mark.parametrize("mode", ["full", "err", "err+pmi"])
    def test_walk_bit_identical_to_objective_value(self, mode):
        # the annealer's in-place walk: try a move, then keep it or put the
        # old column back; every score must equal the from-scratch value
        profile = BiasProfile(
            num_classes=4,
            class_priors=(0.4, 0.3, 0.2, 0.1),
            target_accuracy=(0.9, 0.6, 0.5, 0.3),
            confusion_temperature=1.0,
            seed=11,
        )
        ds = generate(profile, 400)
        fs = default_function_set()
        w = ObjectiveWeights.from_mode(mode)
        ev = ObjectiveEvaluator(ds, fs, w)
        rng = np.random.default_rng(3)
        xi = [int(k) for k in rng.integers(1, fs.size + 1, size=4)]
        assert ev.value(xi) == objective_value(ds, fs, xi, w)
        for _ in range(300):
            j = int(rng.integers(4))
            k = int(rng.integers(1, fs.size + 1))
            moved = xi[:j] + [k] + xi[j + 1 :]
            ev._walk_put(j, k)
            assert ev._walk_value() == objective_value(ds, fs, moved, w)
            if rng.random() < 0.5:
                xi = moved
            else:
                ev._walk_put(j, xi[j])
        ev._walk_put(0, xi[0])
        assert ev._walk_value() == objective_value(ds, fs, xi, w)
        # value reloads every column, whatever the walk left in the buffer
        fresh = [int(k) for k in rng.integers(1, fs.size + 1, size=4)]
        assert ev.value(fresh) == objective_value(ds, fs, fresh, w)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_walk_top_class_is_row_argmax(self, data):
        # the smallest rank key of each column of the (N, M) buffer must
        # pick the same class as a per-row argmax, ties to the lowest index, on
        # values full of ties: signed zeros, all-zero rows, equal columns
        n = data.draw(st.integers(2, 8), label="N")
        m = data.draw(st.integers(1, 30), label="M")
        values = np.array(
            data.draw(
                st.lists(
                    st.sampled_from(TIE_VALUES), min_size=m * n, max_size=m * n
                ),
                label="values",
            )
        ).reshape(m, n)
        zero_row = data.draw(st.integers(0, m - 1), label="zero row")
        values[zero_row] = data.draw(
            st.lists(st.sampled_from((0.0, -0.0)), min_size=n, max_size=n),
            label="signed zeros",
        )
        src = data.draw(st.integers(0, n - 1), label="copied column")
        dst = data.draw(st.integers(0, n - 1), label="overwritten column")
        values[:, dst] = values[:, src]
        labels = data.draw(
            st.lists(st.integers(1, n), min_size=m, max_size=m), label="labels"
        )
        ds = make_dataset(values, labels)
        fs = default_function_set()
        # the error term alone, so that one present class still scores
        ev = ObjectiveEvaluator(ds, fs, ObjectiveWeights.from_mode("err"))
        # Don't Change passes every value through, signed zeros included
        for j in range(n):
            ev._walk_put(j, fs.dont_change_index)
        expected = (ds.labels - 1) * n + np.argmax(values, axis=1)
        ev._walk_value()
        assert np.array_equal(ev._top, expected)

    def test_walk_top_class_past_one_byte_ranks(self):
        # 300 classes: class indices and confusion cells past one byte
        n = 300
        values = np.zeros((3, n))
        values[0, [280, 290]] = 0.5  # a tie high up: class 280 wins
        values[2, n - 1] = 1.0  # the last class alone on top
        ds = make_dataset(values, [1, n, 7])  # row 1 is all zero: class 0
        fs = default_function_set()
        ev = ObjectiveEvaluator(ds, fs, ObjectiveWeights())
        for j in range(n):
            ev._walk_put(j, fs.dont_change_index)
        ev._walk_value()
        top = ev._top - (ds.labels - 1) * n
        assert top.tolist() == [280, 0, n - 1]
        assert np.array_equal(top, np.argmax(values, axis=1))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_predictions_match_predict_on_ties(self, data):
        # the rank keys must reproduce ``predict`` where corrections make
        # ties: shoulders and triangles send many values to 0, and weights
        # scale 1.0 and 0.25 onto equal values across classes. The second
        # catalog adds (0.25, 0.25, 0.5), whose vertex 0.25 maps to 1.0
        fs = data.draw(st.sampled_from(TIE_CATALOGS), label="catalog")
        n = data.draw(st.integers(2, 8), label="N")
        m = data.draw(st.integers(1, 30), label="M")
        values = data.draw(
            st.lists(
                st.sampled_from(TIE_VALUES + (0.5,)),
                min_size=m * n,
                max_size=m * n,
            ),
            label="values",
        )
        labels = data.draw(
            st.lists(st.integers(1, n), min_size=m, max_size=m), label="labels"
        )
        ds = make_dataset(np.reshape(values, (m, n)), labels)
        corrections = [
            k for k in range(1, fs.size + 1) if k != fs.dont_change_index
        ]
        # the error term alone, so that ``value`` scores one present class
        ev = ObjectiveEvaluator(ds, fs, ObjectiveWeights.from_mode("err"))
        for _ in range(3):
            xi = data.draw(
                st.lists(
                    st.sampled_from(corrections), min_size=n, max_size=n
                ),
                label="xi",
            )
            expected = predict(ds, fs, xi)
            assert np.array_equal(ev.predictions(xi), expected)
            # the path ``anneal`` runs: load the selection, read the cells
            ev.value(xi)
            assert np.array_equal(ev._top % n + 1, expected)

    def test_walk_across_chunk_boundary(self):
        # the keys are built a chunk of instances at a time; instances on
        # both sides of each boundary must score as one table
        profile = BiasProfile(
            num_classes=5,
            class_priors=(0.3, 0.2, 0.2, 0.2, 0.1),
            target_accuracy=(0.9, 0.5, 0.7, 0.4, 0.8),
            confusion_temperature=1.0,
            seed=17,
        )
        fs = default_function_set()
        ds = generate(profile, 2 * _chunk_rows(5, fs.size) + 1)
        w = ObjectiveWeights()
        ev = ObjectiveEvaluator(ds, fs, w)
        rng = np.random.default_rng(5)
        xi = [fs.dont_change_index] * 5
        assert ev.value(xi) == objective_value(ds, fs, xi, w)
        for _ in range(200):
            j = int(rng.integers(5))
            k = int(rng.integers(1, fs.size + 1))
            moved = xi[:j] + [k] + xi[j + 1 :]
            ev._walk_put(j, k)
            assert ev._walk_value() == objective_value(ds, fs, moved, w)
            if rng.random() < 0.3:
                xi = moved
            else:
                ev._walk_put(j, xi[j])
        assert np.array_equal(ev.predictions(xi), predict(ds, fs, xi))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_keys_do_not_depend_on_chunk_size(self, data):
        # chunks of 1, 7 and 64 instances build the keys of one chunk, on
        # values full of ties: signed zeros, a subnormal, equal levels
        n = data.draw(st.sampled_from((2, 3, 5, 8)), label="N")
        m = data.draw(st.integers(1, 80), label="M")
        mode = data.draw(st.sampled_from(MODES), label="mode")
        values = data.draw(
            st.lists(
                st.sampled_from(TIE_VALUES + (0.1, 0.5, 5e-324)),
                min_size=m * n,
                max_size=m * n,
            ),
            label="values",
        )
        labels = data.draw(
            st.lists(st.integers(1, n), min_size=m, max_size=m), label="labels"
        )
        ds = make_dataset(np.reshape(values, (m, n)), labels)
        fs = default_function_set()
        allowed = mode_indices(fs, mode)
        w = ObjectiveWeights()
        nd = n * len(allowed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dcs.objective, "_CHUNK_VALUES", m * nd)
            whole = ObjectiveEvaluator(ds, fs, w, allowed)._keys
            for rows in (1, 7, 64):
                mp.setattr(dcs.objective, "_CHUNK_VALUES", rows * nd)
                keys = ObjectiveEvaluator(ds, fs, w, allowed)._keys
                assert keys.dtype == whole.dtype
                assert np.array_equal(keys, whole)

    def test_build_scratch_is_bounded(self):
        # beyond its keys, the build holds a fixed scratch, not one that
        # grows with M * N * D: the whole 6,000 x 8 x 49 float table would
        # take 18.8 MB, and 256-instance chunks held 3.4 MB
        profile = BiasProfile(
            num_classes=8,
            class_priors=(0.2, 0.15, 0.15, 0.1, 0.1, 0.1, 0.1, 0.1),
            target_accuracy=(0.9, 0.5, 0.7, 0.4, 0.8, 0.6, 0.45, 0.75),
            confusion_temperature=1.0,
            seed=29,
        )
        ds = generate(profile, 6000)
        fs = default_function_set()
        w = ObjectiveWeights()
        tracemalloc.start()
        try:
            ev = ObjectiveEvaluator(ds, fs, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - ev._keys.nbytes < 2_000_000

    @pytest.mark.parametrize("mode", ["dnip", "furud"])
    def test_walk_over_searchable_subset(self, mode):
        # keys ranked among one mode's functions only must score every
        # move as the whole-catalog path does, across chunk boundaries
        profile = BiasProfile(
            num_classes=3,
            class_priors=(0.5, 0.3, 0.2),
            target_accuracy=(0.9, 0.5, 0.3),
            confusion_temperature=1.0,
            seed=23,
        )
        fs = default_function_set()
        allowed = mode_indices(fs, mode)
        ds = generate(profile, 2 * _chunk_rows(3, len(allowed)) + 1)
        w = ObjectiveWeights()
        ev = ObjectiveEvaluator(ds, fs, w, allowed)
        rng = np.random.default_rng(13)
        xi = [int(k) for k in rng.choice(allowed, size=3)]
        assert ev.value(xi) == objective_value(ds, fs, xi, w)
        for _ in range(300):
            j = int(rng.integers(3))
            k = int(rng.choice(allowed))
            moved = xi[:j] + [k] + xi[j + 1 :]
            ev._walk_put(j, k)
            assert ev._walk_value() == objective_value(ds, fs, moved, w)
            if rng.random() < 0.5:
                xi = moved
            else:
                ev._walk_put(j, xi[j])
        ev._walk_put(0, xi[0])
        assert ev._walk_value() == objective_value(ds, fs, xi, w)
        assert np.array_equal(ev.predictions(xi), predict(ds, fs, xi))

    def test_selection_outside_evaluator_rejected(
        self, four_row_dataset
    ):
        fs = default_function_set()
        furud = mode_indices(fs, "furud")
        ev = ObjectiveEvaluator(four_row_dataset, fs, ObjectiveWeights(), furud)
        weight = max(furud) + 1  # a weight: in the catalog, not searched
        for xi in ((1, weight), (0, 1), (fs.size + 1, 1)):
            with pytest.raises(ValidationError, match="not one of the 19"):
                ev.value(xi)
            with pytest.raises(ValidationError, match="not one of the 19"):
                ev.predictions(xi)
        # a short selection would score the rows the buffer still holds
        for xi in ((1,), (1, 1, 1)):
            with pytest.raises(ValidationError, match="expected 2"):
                ev.value(xi)
            with pytest.raises(ValidationError, match="expected 2"):
                ev.predictions(xi)

    @pytest.mark.parametrize(
        "num_classes, key_type",
        [(8, np.uint16), (300, np.uint32), (1024, np.uint64)],
    )
    def test_smallest_key_type(self, num_classes, key_type):
        # the walk masks and counts its cells in the key dtype, so each
        # dtype scores as objective_value does
        rng = np.random.default_rng(num_classes)
        probs = rng.dirichlet(np.ones(num_classes), size=6)
        probs[:2] = np.eye(num_classes)[:2]
        ds = make_dataset(probs, [1, 2, 1, 2, 3, 1])
        fs, w = default_function_set(), ObjectiveWeights()
        ev = ObjectiveEvaluator(ds, fs, w)
        assert ev._keys.dtype == key_type
        xi = tuple(rng.integers(1, fs.size + 1, size=num_classes).tolist())
        assert ev.value(xi) == objective_value(ds, fs, xi, w)
        assert ev._top.dtype == key_type
        moved = (xi[0], fs.dont_change_index, *xi[2:])
        ev._walk_put(1, moved[1])
        assert ev._walk_value() == objective_value(ds, fs, moved, w)

    def test_empty_allowed_set_rejected(self, four_row_dataset):
        with pytest.raises(PreconditionError, match="allowed index set is empty"):
            ObjectiveEvaluator(
                four_row_dataset, default_function_set(), ObjectiveWeights(), ()
            )

    def test_keys_past_64_bits_rejected(self):
        # 2^15 classes and a 2^20-weight catalog need a 66-bit key
        fs = FunctionSet(
            memberships=(TriangularMembership(0.0, 1.0, 1.0),),
            num_weights=2**20,
        )
        ds = make_dataset(np.full((1, 2**15), 0.5), [1])
        with pytest.raises(PreconditionError, match="64-bit"):
            ObjectiveEvaluator(ds, fs, ObjectiveWeights())

    def test_deterministic_repeat(self, four_row_dataset):
        fs = default_function_set()
        w = ObjectiveWeights(beta=1.0, tau=1.0)
        xi = (13, 25)
        a = objective_value(four_row_dataset, fs, xi, w)
        b = objective_value(four_row_dataset, fs, xi, w)
        assert a == b


class TestEvaluate:
    def test_report_fields(self, four_row_dataset):
        fs = default_function_set()
        w = ObjectiveWeights(beta=1.0, tau=1.0)
        report = evaluate(four_row_dataset, fs, (1, 1), w)
        assert report.overall_accuracy + report.err == 1.0
        assert report.class_counts == (1, 3)
        assert report.cobias is not None and 0.0 <= report.cobias <= 1.0
        assert report.correction_kinds == ("membership", "membership")
        assert report.z_value == combine_terms(
            report.err, report.cobias, report.pmi_sum, w
        )

    def test_report_round_trip(self, four_row_dataset):
        fs = default_function_set()
        w = ObjectiveWeights(beta=0.5, tau=2.0)
        report = evaluate(four_row_dataset, fs, (13, 25), w)
        again = EvalReport.from_dict(report.to_dict())
        assert again == report

    def test_disabled_cobias_still_reported(self, four_row_dataset):
        fs = default_function_set()
        w = ObjectiveWeights.from_mode("err")
        report = evaluate(four_row_dataset, fs, (1, 1), w)
        assert report.cobias is not None
        assert report.z_value == report.err
