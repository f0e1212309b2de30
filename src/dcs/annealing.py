"""Simulated annealing over per-class correction-function selections.

The search space is the set of selection vectors xi in {1..D}^N where D is
the catalog size (optionally restricted to an allowed index subset). The
chain starts from the all-Don't-Change vector, proposes single-coordinate
resamples, and accepts with the Metropolis rule at a geometrically cooled
temperature. The best selection ever evaluated is tracked separately from
the chain and returned.

Randomness comes from three independent PCG64 streams spawned from the one
seed, consumed in a fixed role order: coordinate choice, replacement value
choice, acceptance draw. A run is bit-reproducible for a given seed on the
pinned numpy and with the same libm: numpy's ``Generator`` algorithms may
change between releases (NEP 19), and Z's PMI term goes through libm's
``log``, whose last bit can differ between C library builds and CPU
variants.

``anneal`` draws each stream in blocks of ``BLOCK`` values and draws a new
block when one is used up. Every proposal takes one coordinate draw j in
0..N-1 and one value draw r in 0..A-2, for A allowed indices; only a
non-improving move takes an acceptance draw. A position map skips the
current index: with ``position[k]`` the place of k in the sorted allowed
tuple, r picks ``allowed[r]`` below the current index's place and
``allowed[r + 1]`` from it on, so each of the other A - 1 indices is equally
likely. Block draws equal scalar draws because numpy's
``Generator.integers(n, size=B)`` and ``random(B)`` return what B scalar
``integers(n)``/``random()`` calls would, so bit-reproducibility rests on
that property of the installed numpy. ``tests/test_annealing.py`` pins it,
and pins the draws themselves to PCG64's raw 64-bit outputs: Lemire's
multiply-and-reject on their low and then high 32-bit halves for
``integers``, the top 53 bits for ``random``.
``neighbor`` makes the same proposal from scalar draws; ``anneal`` does not
call it.
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .corrections import FunctionSet, normalize_allowed
from .data import LabeledDataset
from .errors import PreconditionError
from .objective import ObjectiveEvaluator, ObjectiveWeights, objective_value
from .records import Record

# values drawn per RNG call in ``anneal``
BLOCK = 1024


@dataclass(frozen=True)
class AnnealConfig(Record):
    """Cooling schedule and stopping parameters.

    The inner loop at temperature T_t = initial_temperature * cooling_rate**t
    ends once ceil(lambda1 * N) candidates were accepted or
    ceil(lambda2 * N) were generated; the outer loop ends when the
    temperature falls below min_temperature or after max_outer_loops rounds.
    """

    seed: int
    initial_temperature: float = 200_000.0
    cooling_rate: float = 0.95
    lambda1: float = 10.0
    lambda2: float = 100.0
    min_temperature: float = 1e-2
    max_outer_loops: int = 150

    def __post_init__(self) -> None:
        self._check_fields()
        if self.seed < 0:
            raise PreconditionError("seed must be a non-negative integer")
        # negated comparisons, so that a NaN fails them too; a finite
        # initial_temperature and lambda2 bound min_temperature and lambda1
        t0 = self.initial_temperature
        if not (t0 > 0.0 and math.isfinite(t0)):
            raise PreconditionError("initial_temperature must be positive and finite")
        if not 0.0 < self.cooling_rate < 1.0:
            raise PreconditionError("cooling_rate must lie in (0, 1)")
        if not (self.lambda1 > 0.0 and self.lambda2 > 0.0):
            raise PreconditionError("lambda1 and lambda2 must be positive")
        if not (self.lambda2 >= self.lambda1 and math.isfinite(self.lambda2)):
            raise PreconditionError("lambda2 must be finite and at least lambda1")
        if not self.min_temperature > 0.0:
            raise PreconditionError("min_temperature must be positive")
        if not self.min_temperature < self.initial_temperature:
            raise PreconditionError(
                "min_temperature must be below initial_temperature"
            )
        if self.max_outer_loops < 1:
            raise PreconditionError("max_outer_loops must be at least 1")


@dataclass(frozen=True)
class SolveResult(Record):
    """Outcome of one annealing run."""

    best_xi: tuple[int, ...]
    best_z: float
    z_trace: tuple[float, ...]
    temperatures: tuple[float, ...]
    acceptance_counts: tuple[tuple[int, int], ...]
    outer_loops_run: int
    wall_time: float
    # candidates scored, and "max_outer_loops" when the loop cap ended the
    # schedule, else "min_temperature"
    evaluations: int
    stop_reason: str

    def trace_rows(self) -> list[dict]:
        """One row per outer loop, keyed by the trace.csv column names."""
        loops = zip(self.temperatures, self.z_trace, self.acceptance_counts)
        return [
            {"outer_loop": t, "temperature": temp, "best_z": z,
             "generated": g, "accepted": a}
            for t, (temp, z, (g, a)) in enumerate(loops)
        ]


def initial_solution(fs: FunctionSet, num_classes: int) -> tuple[int, ...]:
    """Every class starts on Don't Change, so the start equals the raw model."""
    if num_classes < 1:
        raise PreconditionError("need at least one class")
    return (fs.dont_change_index,) * num_classes


def neighbor(xi, domain, coord_rng, value_rng) -> tuple[int, ...]:
    """Resample one uniformly chosen coordinate to a different allowed value.

    ``domain`` is either the catalog size D (meaning indices 1..D) or an
    explicit sequence of allowed indices. The replacement is uniform over the
    allowed values excluding the coordinate's current one, so the result is
    always at Hamming distance exactly 1 from ``xi``.
    """
    values = (
        tuple(range(1, domain + 1)) if isinstance(domain, int) else tuple(domain)
    )
    if len(values) < 2:
        raise PreconditionError("neighbor needs at least two allowed indices")
    xi = tuple(xi)
    j = int(coord_rng.integers(len(xi)))
    choices = [k for k in values if k != xi[j]]
    replacement = choices[int(value_rng.integers(len(choices)))]
    return xi[:j] + (replacement,) + xi[j + 1 :]


def accept(delta_z: float, temperature: float, rng) -> bool:
    """Metropolis rule: improvements always pass, otherwise with
    probability exp(-delta_z / temperature)."""
    # negated, so that a NaN fails it too
    if not temperature > 0.0:
        raise PreconditionError("temperature must be positive")
    if delta_z < 0.0:
        return True
    return rng.random() < math.exp(-delta_z / temperature)


def _blocks(draw):
    """The values of ``draw(size=BLOCK)``, one at a time, drawn anew when
    used up."""
    while True:
        yield from draw(size=BLOCK).tolist()


def make_streams(seed: int):
    """The three named RNG streams: (coordinate, value, acceptance)."""
    children = np.random.SeedSequence(seed).spawn(3)
    return tuple(np.random.default_rng(child) for child in children)


def anneal(
    ds: LabeledDataset,
    fs: FunctionSet,
    weights: ObjectiveWeights,
    config: AnnealConfig,
    allowed_indices=None,
) -> SolveResult:
    """Minimize the objective over selection vectors for ``ds``.

    ``allowed_indices`` restricts the search domain to a subset of catalog
    indices (it must contain the Don't Change index, which seeds the chain);
    None searches the full catalog. The returned best_z is recomputed from
    best_xi through the plain objective path, so it always equals
    ``objective_value(ds, fs, best_xi, weights)``.
    """
    n = ds.num_classes
    # lambda1 <= lambda2, so this bounds both loop caps
    if not math.isfinite(config.lambda2 * n):
        raise PreconditionError(f"lambda2 * {n} classes overflows the loop cap")
    present = np.unique(ds.labels).shape[0]
    if present < 2:
        raise PreconditionError(
            f"annealing needs at least two classes present, found {present}"
        )
    allowed = normalize_allowed(fs, allowed_indices)
    if fs.dont_change_index not in allowed:
        raise PreconditionError(
            "allowed indices must include the Don't Change index"
        )
    if len(allowed) < 2:
        raise PreconditionError("need at least two allowed indices")

    coord_rng, value_rng, accept_rng = make_streams(config.seed)
    coords = _blocks(functools.partial(coord_rng.integers, n))
    # a draw r picks the r-th allowed index other than the current one
    picks = _blocks(functools.partial(value_rng.integers, len(allowed) - 1))
    # ``accept`` calls random() only on non-improving moves
    uniforms = SimpleNamespace(random=_blocks(accept_rng.random).__next__)
    position = {k: at for at, k in enumerate(allowed)}

    evaluator = ObjectiveEvaluator(ds, fs, weights, allowed)
    current = list(initial_solution(fs, n))
    current_z = evaluator.value(current)
    best, best_z = tuple(current), current_z

    accepted_cap = math.ceil(config.lambda1 * n)
    generated_cap = math.ceil(config.lambda2 * n)

    z_trace: list[float] = []
    temperatures: list[float] = []
    counts: list[tuple[int, int]] = []
    start = time.perf_counter()
    for t in range(config.max_outer_loops):
        # closed form, not iterated multiplication: T_t = T0 * alpha**t
        temperature = config.initial_temperature * config.cooling_rate**t
        if temperature < config.min_temperature:
            break
        generated = 0
        accepted = 0
        while accepted < accepted_cap and generated < generated_cap:
            j = next(coords)
            r = next(picks)
            old = current[j]
            k = allowed[r + (r >= position[old])]
            evaluator._walk_put(j, k)
            candidate_z = evaluator._walk_value()
            generated += 1
            if candidate_z < best_z:
                best = (*current[:j], k, *current[j + 1 :])
                best_z = candidate_z
            if accept(candidate_z - current_z, temperature, uniforms):
                current[j] = k
                current_z = candidate_z
                accepted += 1
            else:
                evaluator._walk_put(j, old)
        z_trace.append(best_z)
        temperatures.append(temperature)
        counts.append((generated, accepted))
    wall = time.perf_counter() - start
    capped = len(counts) == config.max_outer_loops

    return SolveResult(
        best_xi=best,
        best_z=objective_value(ds, fs, best, weights),
        z_trace=tuple(z_trace),
        temperatures=tuple(temperatures),
        acceptance_counts=tuple(counts),
        outer_loops_run=len(counts),
        wall_time=wall,
        evaluations=sum(g for g, _ in counts),
        stop_reason="max_outer_loops" if capped else "min_temperature",
    )
