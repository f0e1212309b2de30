"""Objective terms against hand-worked values and an independent oracle."""
import itertools
import math
from operator import truediv

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dcs import (
    FunctionSet,
    ObjectiveWeights,
    PreconditionError,
    TriangularMembership,
    ValidationError,
    default_function_set,
    evaluate,
    objective_value,
    predict,
    z_cobias,
    z_err,
    z_pmi,
)
from dcs.objective import (
    _CHUNK,
    EvalReport,
    ObjectiveEvaluator,
    _pairwise_sum,
    combine_terms,
    per_class_accuracy,
    score_predictions,
)
from dcs.corrections import mode_indices
from dcs.synth import BiasProfile, generate
from conftest import make_dataset

EXACT = 1e-12
# every value a tie can hinge on: both signed zeros and two exact levels
TIE_VALUES = (0.0, -0.0, 0.25, 1.0)


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

    The scorer adds the gaps in pure Python in numpy's pairwise order, so
    that Z matches the bits numpy's sum gave it before. Z's
    bit-reproducibility (golden traces, a saved scheme's ``best_z``) now
    rests on this property of the installed numpy, as it already does for
    the RNG block draws. Lengths run over 0..300, which covers the
    sequential (< 8), 8-accumulator (8..128) and recursive (> 128) branches.
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
            assert ev._walk_try(j, k) == objective_value(ds, fs, moved, w)
            if rng.random() < 0.5:
                xi = moved
            else:
                ev._walk_put(j, xi[j])
        assert ev._walk_try(0, xi[0]) == objective_value(ds, fs, xi, w)
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
        ev = ObjectiveEvaluator(ds, fs, ObjectiveWeights())
        # Don't Change passes every value through, signed zeros included
        for j in range(n):
            ev._walk_put(j, fs.dont_change_index)
        expected = (ds.labels - 1) * n + np.argmax(values, axis=1)
        assert np.array_equal(ev._walk_codes(), expected)

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
        top = ev._walk_codes() - (ds.labels - 1) * n
        assert top.tolist() == [280, 0, n - 1]
        assert np.array_equal(top, np.argmax(values, axis=1))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_predictions_match_predict_on_ties(self, data):
        # the rank keys must reproduce ``predict`` where corrections make
        # ties: shoulders and triangles send many values to 0, and weights
        # scale 1.0 and 0.25 onto equal values across classes
        fs = default_function_set()
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
        ev = ObjectiveEvaluator(ds, fs, ObjectiveWeights())
        for _ in range(3):
            xi = data.draw(
                st.lists(
                    st.sampled_from(corrections), min_size=n, max_size=n
                ),
                label="xi",
            )
            assert np.array_equal(ev.predictions(xi), predict(ds, fs, xi))

    def test_walk_across_chunk_boundary(self):
        # the keys are built _CHUNK instances at a time; instances on both
        # sides of each boundary must score as one table
        profile = BiasProfile(
            num_classes=5,
            class_priors=(0.3, 0.2, 0.2, 0.2, 0.1),
            target_accuracy=(0.9, 0.5, 0.7, 0.4, 0.8),
            confusion_temperature=1.0,
            seed=17,
        )
        ds = generate(profile, 2 * _CHUNK + 1)
        fs = default_function_set()
        w = ObjectiveWeights()
        ev = ObjectiveEvaluator(ds, fs, w)
        rng = np.random.default_rng(5)
        xi = [fs.dont_change_index] * 5
        assert ev.value(xi) == objective_value(ds, fs, xi, w)
        for _ in range(200):
            j = int(rng.integers(5))
            k = int(rng.integers(1, fs.size + 1))
            moved = xi[:j] + [k] + xi[j + 1 :]
            assert ev._walk_try(j, k) == objective_value(ds, fs, moved, w)
            if rng.random() < 0.3:
                xi = moved
            else:
                ev._walk_put(j, xi[j])
        assert np.array_equal(ev.predictions(xi), predict(ds, fs, xi))

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
        ds = generate(profile, 2 * _CHUNK + 1)
        fs = default_function_set()
        w = ObjectiveWeights()
        allowed = mode_indices(fs, mode)
        ev = ObjectiveEvaluator(ds, fs, w, allowed)
        rng = np.random.default_rng(13)
        xi = [int(k) for k in rng.choice(allowed, size=3)]
        assert ev.value(xi) == objective_value(ds, fs, xi, w)
        for _ in range(300):
            j = int(rng.integers(3))
            k = int(rng.choice(allowed))
            moved = xi[:j] + [k] + xi[j + 1 :]
            assert ev._walk_try(j, k) == objective_value(ds, fs, moved, w)
            if rng.random() < 0.5:
                xi = moved
            else:
                ev._walk_put(j, xi[j])
        assert ev._walk_try(0, xi[0]) == objective_value(ds, fs, xi, w)
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
        "num_classes, key_type", [(8, np.uint16), (300, np.uint32)]
    )
    def test_smallest_key_type(self, num_classes, key_type):
        ds = make_dataset(np.eye(num_classes)[:2], [1, 2])
        ev = ObjectiveEvaluator(ds, default_function_set(), ObjectiveWeights())
        assert ev._keys.dtype == key_type

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
