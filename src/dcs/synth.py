"""Synthetic biased probability datasets with controlled per-class accuracy.

A profile fixes the number of classes, the label prior, a target accuracy per
class, a confusion temperature, and a seed. Generation is fully vectorized
and deterministic for a given (profile, M):

1. labels are drawn from the prior;
2. each row is flagged correct with its class's target probability;
3. a per-true-class confusion preference (one fixed logit row per class,
   drawn once from the profile seed) plus per-row noise picks the winning
   class for incorrect rows, sampled at the confusion temperature via the
   Gumbel-max trick;
4. the winner receives a probability mass drawn from U(0.505, 0.75) and the
   remaining mass is spread over the other classes by a softmax of the same
   confusion preference, again at the confusion temperature.

Because every non-winner share is strictly below the winner mass, the row
argmax equals the intended winner exactly, so empirical per-class accuracy
concentrates on the targets. Low temperatures concentrate both the error
destinations and the loser mass on the preferred confusable classes, which
yields the kind of asymmetric, miscalibrated bias structure the optimizer
is meant to repair.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import LabeledDataset, _require_integers
from .errors import ValidationError
from .records import Record, read_record, write_json

_WINNER_LOW = 0.505
_WINNER_HIGH = 0.75
_LOGIT_NOISE = 0.5
_STRUCT_NOISE = 0.5
_CONFUSION_PULL = 6.0
_SELF_TRUST = 6.0


@dataclass(frozen=True)
class BiasProfile(Record):
    """Recipe for one synthetic dataset family."""

    num_classes: int
    class_priors: tuple[float, ...]
    target_accuracy: tuple[float, ...]
    confusion_temperature: float
    seed: int

    def __post_init__(self) -> None:
        self._check_fields()
        n = self.num_classes
        if n < 2:
            raise ValidationError("profile needs at least two classes")
        priors, targets = self.class_priors, self.target_accuracy
        if len(priors) != n or len(targets) != n:
            raise ValidationError(
                "class_priors and target_accuracy must have num_classes entries"
            )
        if any(p < 0.0 for p in priors):
            raise ValidationError("class priors must be non-negative")
        # negated comparisons, so that a NaN fails them too
        if not abs(sum(priors) - 1.0) <= 1e-9:
            raise ValidationError(
                f"class priors must sum to 1, got {sum(priors)!r}"
            )
        if any(not 0.0 <= t <= 1.0 for t in targets):
            raise ValidationError("target accuracies must lie in [0, 1]")
        t = self.confusion_temperature
        if not (t > 0.0 and math.isfinite(t)):
            raise ValidationError("confusion_temperature must be positive and finite")
        if self.seed < 0:
            raise ValidationError("seed must be a non-negative integer")


def save_profile(profile: BiasProfile, path: str | Path) -> None:
    write_json(path, profile.to_dict())


def load_profile(path: str | Path) -> BiasProfile:
    return read_record(path, BiasProfile, "profile")


def confusion_logits(profile: BiasProfile) -> np.ndarray:
    """The profile's fixed (N, N) confusion preference logits.

    Row y holds the relative attractiveness of each class as an error
    destination (and loser-mass recipient) for true class y. Fixed for a
    given profile seed, so every replica of the profile shares one confusion
    structure, the way repeated runs of one underlying model would.

    The structure encodes the miscalibration pattern that goes with skewed
    per-class accuracy: a low-accuracy class is systematically
    under-weighted on its own instances (its column bias and its diagonal
    self-trust both scale with target accuracy minus 1/2, so weak classes
    hold little of their own rows' probability) while soaking up hedge mass
    and error flow on other classes' instances. High-accuracy classes keep
    a strong "close second" share on their own rare error rows. Seeded
    noise on top varies which strong classes confuse each other.
    """
    n = profile.num_classes
    targets = np.array(profile.target_accuracy, dtype=np.float64)
    rng = np.random.default_rng(np.random.SeedSequence([profile.seed, 0]))
    noise = rng.standard_normal((n, n)) * _STRUCT_NOISE
    logits = noise + (_CONFUSION_PULL * (0.5 - targets))[None, :]
    diag = np.arange(n)
    logits[diag, diag] = noise[diag, diag] + _SELF_TRUST * (targets - 0.5)
    return logits


def generate(
    profile: BiasProfile, num_instances: int, replica: int = 0
) -> LabeledDataset:
    """Draw a dataset of ``num_instances`` rows from the profile.

    ``replica`` indexes independent instance-level draws over the shared
    confusion structure: replica 0 is the canonical dataset, any other value
    gives a fresh sample from the same distribution (for held-out
    evaluation sets).
    """
    _require_integers((num_instances,), "num_instance")
    _require_integers((replica,), "replica")
    n = profile.num_classes
    m = num_instances
    if m < n:
        raise ValidationError(
            f"need at least num_classes={n} instances, got {m}"
        )
    if replica < 0:
        raise ValidationError("replica must be a non-negative integer")
    base_logits = confusion_logits(profile)
    rng = np.random.default_rng(
        np.random.SeedSequence([profile.seed, 1 + replica])
    )
    priors = np.array(profile.class_priors, dtype=np.float64)
    priors = priors / priors.sum()
    targets = np.array(profile.target_accuracy, dtype=np.float64)

    # fixed draw order keeps the stream stable for a given profile
    labels0 = rng.choice(n, size=m, p=priors)
    correct = rng.random(m) < targets[labels0]
    winner_noise = rng.standard_normal((m, n)) * _LOGIT_NOISE
    gumbel = rng.gumbel(size=(m, n))
    winner_mass = rng.uniform(_WINNER_LOW, _WINNER_HIGH, size=m)
    share_noise = rng.standard_normal((m, n)) * _LOGIT_NOISE

    temp = profile.confusion_temperature
    rows = np.arange(m)

    # the (M, N) steps below write into the noise buffers, so that no
    # whole-table temporary is made; each gives the bits of its plain form
    gathered = base_logits[labels0]

    # winners: the true class when correct, else a Gumbel-max draw from the
    # softmax of the true class's confusion logits over the other classes
    winner_logits = np.add(gathered, winner_noise, out=winner_noise)
    winner_logits /= temp
    winner_logits[rows, labels0] = -np.inf
    winner_logits += gumbel
    del gumbel
    sampled = np.argmax(winner_logits, axis=1)
    winners = np.where(correct, labels0, sampled)

    # losers split the leftover mass by a softmax of the same preferences
    share_logits = np.add(gathered, share_noise, out=share_noise)
    del gathered
    share_logits /= temp
    share_logits[rows, winners] = -np.inf
    share_logits -= np.max(share_logits, axis=1, keepdims=True)
    shares = np.exp(share_logits, out=share_logits)
    shares /= shares.sum(axis=1, keepdims=True)

    probs = np.multiply(shares, (1.0 - winner_mass)[:, None], out=shares)
    probs[rows, winners] = winner_mass

    return LabeledDataset(
        probabilities=probs,
        labels=(labels0 + 1).astype(np.int64),
        instance_ids=tuple(f"s{i:06d}" for i in range(m)),
    )


@dataclass(frozen=True)
class SuiteTask:
    """One benchmark dataset family: a profile plus train/eval sizes.

    The evaluation set is replica 1 of the profile: same confusion
    structure, fresh instance draws, so it is a true held-out sample from
    the train distribution.
    """

    name: str
    profile: BiasProfile
    train_size: int
    eval_size: int

    def train_dataset(self) -> LabeledDataset:
        return generate(self.profile, self.train_size, replica=0)

    def eval_dataset(self) -> LabeledDataset:
        return generate(self.profile, self.eval_size, replica=1)


def benchmark_suite() -> tuple[SuiteTask, ...]:
    """Five frozen dataset families of increasing shape variety.

    p1 is the canonical three-class set with one badly underperforming class;
    p4 has a class whose raw accuracy is near zero with confusions
    concentrated at a low temperature, the regime where only a shape-based
    (membership) correction can rescue the weak class.
    """
    return (
        SuiteTask(
            name="p1",
            profile=BiasProfile(
                num_classes=3,
                class_priors=(1 / 3, 1 / 3, 1 / 3),
                target_accuracy=(0.95, 0.20, 0.90),
                confusion_temperature=1.0,
                seed=0,
            ),
            train_size=3000,
            eval_size=3000,
        ),
        SuiteTask(
            name="p2",
            profile=BiasProfile(
                num_classes=2,
                class_priors=(0.65, 0.35),
                target_accuracy=(0.92, 0.50),
                confusion_temperature=1.0,
                seed=11,
            ),
            train_size=1600,
            eval_size=2000,
        ),
        SuiteTask(
            name="p3",
            profile=BiasProfile(
                num_classes=4,
                class_priors=(0.25, 0.25, 0.25, 0.25),
                target_accuracy=(0.90, 0.35, 0.85, 0.55),
                confusion_temperature=0.8,
                seed=21,
            ),
            train_size=2000,
            eval_size=2400,
        ),
        SuiteTask(
            name="p4",
            profile=BiasProfile(
                num_classes=4,
                class_priors=(0.35, 0.30, 0.20, 0.15),
                target_accuracy=(0.90, 0.85, 0.02, 0.70),
                confusion_temperature=0.30,
                seed=31,
            ),
            train_size=2000,
            eval_size=2400,
        ),
        SuiteTask(
            name="p5",
            profile=BiasProfile(
                num_classes=5,
                class_priors=(0.2, 0.2, 0.2, 0.2, 0.2),
                target_accuracy=(0.95, 0.60, 0.80, 0.30, 0.90),
                confusion_temperature=1.5,
                seed=41,
            ),
            train_size=2000,
            eval_size=2500,
        ),
    )
