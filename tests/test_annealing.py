"""Annealer mechanics: acceptance rule, neighbors, schedule, determinism."""
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcs import (
    AnnealConfig,
    ObjectiveWeights,
    PreconditionError,
    ValidationError,
    accept,
    anneal,
    default_function_set,
    objective_value,
)
from dcs.annealing import (
    BLOCK,
    SolveResult,
    _blocks,
    initial_solution,
    make_streams,
    neighbor,
)
from dcs.synth import BiasProfile, generate
from conftest import make_dataset


def small_dataset(m=60, seed=5):
    profile = BiasProfile(
        num_classes=2,
        class_priors=(0.5, 0.5),
        target_accuracy=(0.9, 0.3),
        confusion_temperature=1.0,
        seed=seed,
    )
    return generate(profile, m)


class TestAccept:
    def test_improvement_always_accepted(self):
        rng = np.random.default_rng(0)
        assert accept(-1e-9, 1e-6, rng)
        assert accept(-100.0, 1e6, rng)

    def test_improvement_consumes_no_draw(self):
        a = np.random.default_rng(42)
        b = np.random.default_rng(42)
        accept(-1.0, 10.0, a)
        assert a.random() == b.random()

    def test_metropolis_frequency_at_known_delta(self):
        # delta = T*ln2 makes the acceptance probability exactly 1/2
        rng = np.random.default_rng(7)
        temperature = 3.7
        delta = temperature * math.log(2)
        trials = 100_000
        hits = sum(accept(delta, temperature, rng) for _ in range(trials))
        assert abs(hits / trials - 0.5) < 0.01

    def test_zero_delta_always_accepted(self):
        # exp(0) = 1 > any uniform draw in [0, 1)
        rng = np.random.default_rng(1)
        assert all(accept(0.0, 2.0, rng) for _ in range(100))

    def test_rejects_nonpositive_temperature(self):
        rng = np.random.default_rng(0)
        with pytest.raises(PreconditionError):
            accept(1.0, 0.0, rng)

    def test_nan_temperature_raises_before_any_draw(self):
        # it returned False and used up a draw
        a = np.random.default_rng(3)
        b = np.random.default_rng(3)
        with pytest.raises(PreconditionError, match="temperature must be positive"):
            accept(1.0, float("nan"), a)
        assert a.random() == b.random()


class TestNeighbor:
    @given(st.integers(0, 2**31 - 1))
    def test_exactly_one_coordinate_changes(self, seed):
        rng = np.random.default_rng(seed)
        xi = (1, 5, 9, 3)
        moved = neighbor(xi, 10, rng, rng)
        diffs = [a != b for a, b in zip(xi, moved)]
        assert sum(diffs) == 1

    @given(st.integers(0, 2**31 - 1))
    def test_new_value_never_equals_old(self, seed):
        rng = np.random.default_rng(seed)
        xi = (4, 4)
        moved = neighbor(xi, (1, 4, 7), rng, rng)
        changed = [v for old, v in zip(xi, moved) if v != old]
        assert changed and changed[0] in (1, 7)

    def test_domain_as_sequence_restricts_values(self):
        rng = np.random.default_rng(3)
        xi = (2, 2, 2)
        for _ in range(50):
            moved = neighbor(xi, (1, 2, 9), rng, rng)
            assert all(v in (1, 2, 9) for v in moved)

    def test_singleton_domain_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(PreconditionError):
            neighbor((1, 1), (1,), rng, rng)


class TestStreams:
    def test_three_independent_streams(self):
        a = make_streams(17)
        b = make_streams(17)
        assert len(a) == 3
        for left, right in zip(a, b):
            assert left.random() == right.random()

    def test_different_seeds_differ(self):
        a = make_streams(1)[0]
        b = make_streams(2)[0]
        assert a.random() != b.random()


class TestBlockDraws:
    """``anneal`` draws its streams in blocks; bit-reproducibility rests on
    block draws returning exactly what scalar draws would."""

    @pytest.mark.parametrize("n", [2, 3, 5, 48, 1000])
    def test_integers_block_equals_scalar(self, n):
        block, scalar = make_streams(7)[0], make_streams(7)[0]
        assert block.integers(n, size=BLOCK).tolist() == [
            int(scalar.integers(n)) for _ in range(BLOCK)
        ]

    def test_random_block_equals_scalar(self):
        block, scalar = make_streams(7)[2], make_streams(7)[2]
        assert block.random(BLOCK).tolist() == [
            scalar.random() for _ in range(BLOCK)
        ]

    @pytest.mark.parametrize("n", [2, 5, 48])
    def test_refilled_integers_equal_scalar(self, n):
        count = 2 * BLOCK + BLOCK // 2
        blocks = _blocks(functools.partial(make_streams(3)[1].integers, n))
        scalar = make_streams(3)[1]
        assert [next(blocks) for _ in range(count)] == [
            int(scalar.integers(n)) for _ in range(count)
        ]

    def test_refilled_uniforms_equal_scalar(self):
        count = 2 * BLOCK + BLOCK // 2
        blocks = _blocks(make_streams(3)[2].random)
        scalar = make_streams(3)[2]
        assert [next(blocks) for _ in range(count)] == [
            scalar.random() for _ in range(count)
        ]


class TestInitialSolution:
    def test_all_dont_change(self):
        fs = default_function_set()
        assert initial_solution(fs, 4) == (1, 1, 1, 1)

    def test_rejects_zero_classes(self):
        with pytest.raises(PreconditionError, match="at least one class"):
            initial_solution(default_function_set(), 0)


class TestAnnealRun:
    def test_schedule_is_closed_form(self):
        ds = small_dataset()
        fs = default_function_set()
        w = ObjectiveWeights(beta=1.0, tau=1.0)
        config = AnnealConfig(seed=0)
        result = anneal(ds, fs, w, config)
        for t, temp in enumerate(result.temperatures):
            assert temp == 200_000.0 * 0.95**t

    def test_best_trace_non_increasing(self):
        ds = small_dataset()
        fs = default_function_set()
        w = ObjectiveWeights(beta=1.0, tau=1.0)
        result = anneal(ds, fs, w, AnnealConfig(seed=1))
        trace = result.z_trace
        assert all(b <= a + 1e-15 for a, b in zip(trace, trace[1:]))

    def test_loop_caps_respected(self):
        ds = small_dataset()
        fs = default_function_set()
        w = ObjectiveWeights(beta=1.0, tau=1.0)
        config = AnnealConfig(seed=2)
        result = anneal(ds, fs, w, config)
        n = ds.num_classes
        gen_cap = math.ceil(config.lambda2 * n)
        acc_cap = math.ceil(config.lambda1 * n)
        assert result.outer_loops_run <= config.max_outer_loops
        for generated, accepted in result.acceptance_counts:
            assert generated <= gen_cap
            assert accepted <= acc_cap
            # the loop ends the moment either cap is reached
            assert generated == gen_cap or accepted == acc_cap

    def test_identical_seed_is_bit_identical(self):
        ds = small_dataset()
        fs = default_function_set()
        w = ObjectiveWeights(beta=1.0, tau=1.0)
        a = anneal(ds, fs, w, AnnealConfig(seed=9))
        b = anneal(ds, fs, w, AnnealConfig(seed=9))
        assert a.best_xi == b.best_xi
        assert a.best_z == b.best_z
        assert a.z_trace == b.z_trace
        assert a.temperatures == b.temperatures
        assert a.acceptance_counts == b.acceptance_counts

    def test_best_z_equals_recomputed_objective(self):
        ds = small_dataset()
        fs = default_function_set()
        w = ObjectiveWeights(beta=1.0, tau=1.0)
        result = anneal(ds, fs, w, AnnealConfig(seed=3))
        assert result.best_z == objective_value(ds, fs, result.best_xi, w)

    def test_best_never_worse_than_start(self):
        ds = small_dataset()
        fs = default_function_set()
        w = ObjectiveWeights(beta=1.0, tau=1.0)
        start = objective_value(ds, fs, initial_solution(fs, 2), w)
        result = anneal(ds, fs, w, AnnealConfig(seed=4))
        assert result.best_z <= start

    def test_allowed_indices_restrict_solution(self):
        ds = small_dataset()
        fs = default_function_set()
        w = ObjectiveWeights(beta=1.0, tau=1.0)
        allowed = (1, 20, 30, 49)
        result = anneal(
            ds, fs, w, AnnealConfig(seed=5), allowed_indices=allowed
        )
        assert all(k in allowed for k in result.best_xi)

    def test_allowed_indices_must_include_dont_change(self):
        ds = small_dataset()
        fs = default_function_set()
        w = ObjectiveWeights(beta=1.0, tau=1.0)
        with pytest.raises(PreconditionError):
            anneal(ds, fs, w, AnnealConfig(seed=0), allowed_indices=(20, 21))

    def test_dont_change_alone_rejected(self):
        ds = small_dataset()
        fs = default_function_set()
        with pytest.raises(PreconditionError, match="at least two allowed"):
            anneal(
                ds, fs, ObjectiveWeights(), AnnealConfig(seed=0),
                allowed_indices=(fs.dont_change_index,),
            )

    def test_single_present_class_rejected(self):
        ds = make_dataset([[0.9, 0.1], [0.8, 0.2]], [1, 1])
        fs = default_function_set()
        w = ObjectiveWeights.from_mode("err")
        with pytest.raises(PreconditionError):
            anneal(ds, fs, w, AnnealConfig(seed=0))

    def test_fast_cooling_runs_fewer_loops(self):
        ds = small_dataset()
        fs = default_function_set()
        w = ObjectiveWeights(beta=1.0, tau=1.0)
        config = AnnealConfig(
            seed=0, initial_temperature=10.0, cooling_rate=0.5
        )
        result = anneal(ds, fs, w, config)
        # 10 * 0.5^t < 0.01 at t = 10
        assert result.outer_loops_run == 10
        assert result.stop_reason == "min_temperature"
        assert result.evaluations == sum(g for g, _ in result.acceptance_counts)

    def test_solve_result_round_trip(self):
        ds = small_dataset()
        fs = default_function_set()
        w = ObjectiveWeights(beta=1.0, tau=1.0)
        result = anneal(ds, fs, w, AnnealConfig(seed=6))
        again = SolveResult.from_dict(result.to_dict())
        assert again == result
        # the paper schedule: the 150-loop cap binds long before T < 1e-2
        assert again.stop_reason == "max_outer_loops"
        assert again.evaluations == sum(g for g, _ in again.acceptance_counts)

    def test_from_dict_rejects_a_three_value_count(self):
        payload = SolveResult(
            best_xi=(1, 1),
            best_z=0.5,
            z_trace=(0.5,),
            temperatures=(1.0,),
            acceptance_counts=((3, 1),),
            outer_loops_run=1,
            wall_time=0.0,
            evaluations=3,
            stop_reason="max_outer_loops",
        ).to_dict()
        payload["acceptance_counts"] = [[3, 1, 0]]
        with pytest.raises(ValidationError) as info:
            SolveResult.from_dict(payload)
        assert str(info.value) == (
            "field 'acceptance_counts[0]' must be an array of 2, got [3, 1, 0]"
        )


class TestAnnealConfig:
    def test_default_schedule_values(self):
        config = AnnealConfig(seed=0)
        assert config.initial_temperature == 200_000.0
        assert config.cooling_rate == 0.95
        assert config.lambda1 == 10.0
        assert config.lambda2 == 100.0
        assert config.min_temperature == 1e-2
        assert config.max_outer_loops == 150

    def test_rejects_bad_schedule(self):
        with pytest.raises(PreconditionError):
            AnnealConfig(seed=0, cooling_rate=1.0)
        with pytest.raises(PreconditionError):
            AnnealConfig(seed=0, lambda1=50.0, lambda2=10.0)
        with pytest.raises(PreconditionError):
            AnnealConfig(seed=0, initial_temperature=0.0)
        with pytest.raises(PreconditionError):
            AnnealConfig(seed=0, min_temperature=300_000.0)

    @pytest.mark.parametrize(
        "field, value", [("seed", -1), ("max_outer_loops", 0)]
    )
    def test_rejects_out_of_range_count(self, field, value):
        with pytest.raises(PreconditionError, match=field):
            AnnealConfig(**{"seed": 0, field: value})

    @pytest.mark.parametrize(
        "field",
        [
            "initial_temperature",
            "cooling_rate",
            "lambda1",
            "lambda2",
            "min_temperature",
        ],
    )
    def test_rejects_nan(self, field):
        for value in (math.nan, math.inf):
            with pytest.raises(PreconditionError, match=field):
                AnnealConfig(seed=0, **{field: value})
