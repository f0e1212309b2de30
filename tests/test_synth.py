"""Synthetic generator: determinism, replica semantics, and bias shape."""
import math

import numpy as np
import pytest

from dcs import ValidationError
from dcs.synth import (
    BiasProfile,
    benchmark_suite,
    confusion_logits,
    generate,
    load_profile,
    save_profile,
)


def profile(**overrides) -> BiasProfile:
    base = dict(
        num_classes=3,
        class_priors=(1 / 3, 1 / 3, 1 / 3),
        target_accuracy=(0.95, 0.20, 0.90),
        confusion_temperature=1.0,
        seed=0,
    )
    base.update(overrides)
    return BiasProfile(**base)


class TestProfileValidation:
    def test_priors_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            profile(class_priors=(0.5, 0.2, 0.2))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("class_priors", (float("nan"), 0.5, 0.5)),
            ("confusion_temperature", float("nan")),
            ("confusion_temperature", math.inf),
        ],
    )
    def test_rejects_nan(self, field, value):
        with pytest.raises(ValidationError):
            profile(**{field: value})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            (
                "class_priors",
                (0.5, 0.5),
                "class_priors and target_accuracy must have num_classes entries",
            ),
            ("class_priors", (-0.5, 0.75, 0.75), "class priors must be non-negative"),
            ("seed", -1, "seed must be a non-negative integer"),
        ],
    )
    def test_rejects_out_of_range_field(self, field, value, message):
        with pytest.raises(ValidationError) as info:
            profile(**{field: value})
        assert str(info.value) == message

    def test_targets_must_be_probabilities(self):
        with pytest.raises(ValidationError):
            profile(target_accuracy=(1.2, 0.2, 0.9))

    @pytest.mark.parametrize(
        "field, value",
        [("confusion_temperature", "abc"), ("class_priors", "ab"), ("seed", None)],
    )
    def test_from_dict_rejects_mistyped_field(self, field, value):
        payload = {**profile().to_dict(), field: value}
        with pytest.raises(ValidationError, match=field):
            BiasProfile.from_dict(payload)

    def test_round_trip(self, tmp_path):
        p = profile(seed=9)
        path = tmp_path / "profile.json"
        save_profile(p, path)
        assert load_profile(path) == p


class TestGenerate:
    def test_deterministic(self):
        a = generate(profile(), 200)
        b = generate(profile(), 200)
        assert a.fingerprint() == b.fingerprint()

    def test_p5_replica_bits_are_pinned(self):
        # recorded when every (M, N) step still made a new table; writing
        # into the noise buffers must give the same bits
        ds = generate(benchmark_suite()[4].profile, 10_000, replica=3)
        assert ds.fingerprint() == (
            "b83b1a91d478c6715a7fbcf39d6641491c5a1634b9a1489b9855a7867a6b7532"
        )

    def test_replicas_differ_in_instances(self):
        a = generate(profile(), 200, replica=0)
        b = generate(profile(), 200, replica=1)
        assert a.fingerprint() != b.fingerprint()

    def test_replicas_share_confusion_structure(self):
        # structure comes from the profile seed alone, so replicas of the
        # same profile see identical logits
        logits = confusion_logits(profile())
        again = confusion_logits(profile())
        assert np.array_equal(logits, again)

    def test_winner_always_holds_argmax(self):
        ds = generate(profile(), 500)
        top = np.max(ds.probabilities, axis=1)
        # winner mass is drawn above 0.505 and the rest shares below 0.495
        assert np.all(top > 0.5)
        runner_up = np.sort(ds.probabilities, axis=1)[:, -2]
        assert np.all(runner_up < top)

    def test_rows_are_distributions(self):
        ds = generate(profile(), 300)
        sums = ds.probabilities.sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_accuracy_tracks_targets(self):
        ds = generate(profile(), 4000)
        preds = np.argmax(ds.probabilities, axis=1) + 1
        for c, target in enumerate(profile().target_accuracy, start=1):
            mask = ds.labels == c
            acc = float(np.mean(preds[mask] == c))
            assert abs(acc - target) < 0.08

    def test_priors_track_requested(self):
        p = profile(class_priors=(0.6, 0.25, 0.15))
        ds = generate(p, 5000)
        for c, prior in enumerate(p.class_priors, start=1):
            share = float(np.mean(ds.labels == c))
            assert abs(share - prior) < 0.05

    def test_rejects_too_few_instances(self):
        with pytest.raises(ValidationError):
            generate(profile(), 2)

    def test_rejects_negative_replica(self):
        with pytest.raises(ValidationError):
            generate(profile(), 100, replica=-1)

    @pytest.mark.parametrize(
        "num_instances, replica, message",
        [
            # 10.0 and '1' ended in a bare TypeError, True drew replica 1
            (10.0, 0, "num_instances must be integers, got 10.0"),
            (10, "1", "replicas must be integers, got '1'"),
            (10, True, "replicas must be integers, got True"),
        ],
    )
    def test_rejects_non_integer_arguments(self, num_instances, replica, message):
        with pytest.raises(ValidationError) as info:
            generate(profile(), num_instances, replica=replica)
        assert str(info.value) == message

    def test_numpy_int_arguments_accepted(self):
        ds = generate(profile(), np.int64(50), replica=np.int32(1))
        assert ds.fingerprint() == generate(profile(), 50, replica=1).fingerprint()


class TestSuite:
    def test_five_tasks_with_unique_names(self):
        suite = benchmark_suite()
        assert len(suite) == 5
        names = [t.name for t in suite]
        assert len(set(names)) == 5

    def test_p1_is_the_canonical_three_class_task(self):
        p1 = benchmark_suite()[0]
        assert p1.name == "p1"
        assert p1.profile.num_classes == 3
        assert p1.profile.target_accuracy == (0.95, 0.20, 0.90)
        assert p1.profile.seed == 0
        assert p1.train_size == 3000

    def test_suite_contains_near_zero_accuracy_class(self):
        suite = benchmark_suite()
        assert any(
            min(t.profile.target_accuracy) <= 0.05 for t in suite
        )

    def test_train_and_eval_are_disjoint_draws(self):
        task = benchmark_suite()[0]
        train = task.train_dataset()
        eval_ds = task.eval_dataset()
        assert train.fingerprint() != eval_ds.fingerprint()

    def test_eval_replica_matches_train_bias_direction(self):
        # the same class is weakest in both replicas
        task = benchmark_suite()[0]

        def weakest(ds):
            preds = np.argmax(ds.probabilities, axis=1) + 1
            accs = [
                float(np.mean(preds[ds.labels == c] == c))
                for c in range(1, ds.num_classes + 1)
            ]
            return int(np.argmin(accs))

        assert weakest(task.train_dataset()) == weakest(task.eval_dataset())
