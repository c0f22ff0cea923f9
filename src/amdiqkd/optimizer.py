"""Global search over source parameters for a fixed link.

A generational genetic algorithm (tournament selection, blend crossover,
decaying Gaussian mutation, elitism) interleaved with deterministic
coordinate-polish sweeps around the incumbent.  Candidates live in a unit
genotype cube and are mapped through box bounds (log-scaled where flagged)
and a feasibility repair before evaluation, so every objective call sees a
valid parameter set.

The candidate stream depends only on the seed and the history of evaluated
values, never on the budget: a longer run replays a shorter run exactly and
then keeps going.  Runs are therefore bit-reproducible and the best value is
non-decreasing in the budget.

The initial population and each generation are decoded and scored as one
batch: an objective that carries a ``many`` attribute (a list of parameter
dicts -> their values) gets the whole batch in one call, and the polish
trials, one candidate each, go through the plain call, which is the reference
path.  Either way the candidates are counted and compared in order, so a run
is the same whichever path scored it, as long as ``many`` returns what the
plain call would.  A parameter set scored once in a run is not scored again:
its stored value is reused and still counts against the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .stats import each

__all__ = [
    "SearchSpace",
    "OptimResult",
    "optimize_link",
    "async_search_space",
    "repair_async_params",
]

_MIN_INTENSITY_GAP = 1e-4
_MIN_VACUUM_PROB = 1e-3
_GENERATIONS_PER_ERA = 10
_POPULATION = 50
_CROSSOVER_PROB = 0.9


@dataclass(frozen=True)
class SearchSpace:
    """Box bounds plus mirrors and an optional repair step.

    ``mirror`` maps a dependent parameter to the one it copies (used to tie
    the two parties on symmetric links).  ``log_scale`` lists parameters
    searched on a logarithmic axis.
    """

    bounds: Mapping[str, tuple[float, float]]
    mirror: Mapping[str, str] = field(default_factory=dict)
    log_scale: frozenset = frozenset()
    repair: Callable[[dict], dict] | None = None

    def __post_init__(self) -> None:
        for name, (lo, hi) in self.bounds.items():
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"bad bounds for {name!r}: {(lo, hi)}")
            if name in self.log_scale and lo <= 0.0:
                raise ValueError(f"log-scaled {name!r} needs positive bounds")
        if not self.bounds:
            raise ValueError("search space has no free parameters")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self.bounds))

    def decode(self, genotype: np.ndarray) -> dict:
        return self.decode_many(np.asarray(genotype)[None, :])[0]

    def decode_many(self, genotypes: np.ndarray) -> list[dict]:
        """Parameter dicts of the rows of an (n, dim) genotype stack."""
        genes = np.clip(np.asarray(genotypes, dtype=float), 0.0, 1.0)
        lo, hi = np.array([self.bounds[name] for name in self.names]).T
        params = dict(zip(self.names, (lo + (hi - lo) * genes).T))
        for j, name in enumerate(self.names):
            if name in self.log_scale:
                low, high = self.bounds[name]
                params[name] = low * each(lambda g: (high / low) ** g, genes[:, j])
        for dst, src in self.mirror.items():
            params[dst] = params[src]
        if self.repair is not None:
            params = self.repair(params)
        rows = zip(*(np.asarray(v).tolist() for v in params.values()))
        return [dict(zip(params, row)) for row in rows]

    def encode(self, params: Mapping[str, float]) -> np.ndarray:
        geno = np.empty(len(self.names))
        for i, name in enumerate(self.names):
            lo, hi = self.bounds[name]
            v = min(max(float(params.get(name, lo)), lo), hi)
            if name in self.log_scale:
                geno[i] = math.log(v / lo) / math.log(hi / lo)
            else:
                geno[i] = (v - lo) / (hi - lo)
        return geno


def repair_async_params(params: dict) -> dict:
    """Restore intensity ordering and the probability simplex per party.

    Repairs each side whose ``mu_<side>`` is present, so a one-party search
    space (the BB84 baseline) goes through the same step.  Values may be
    floats or equal-length arrays of candidates (the columns ``decode_many``
    builds); floats come back as floats.
    """
    out = dict(params)
    parties: dict[tuple, list[str]] = {}  # label set -> the sides that use it
    for side in ("a", "b"):
        if f"mu_{side}" in out:
            labels = ("mu",) + (("omega",) if f"omega_{side}" in out else ()) + ("nu",)
            parties.setdefault(labels, []).append(side)
    for labels, sides in parties.items():
        # (label, side[, candidate]) arrays: every side of one label set at once
        levels = [[f"{l}_{s}" for s in sides] for l in labels]
        probs = [[f"p_{l}_{s}" for s in sides] for l in labels]
        scalar = np.ndim(out[levels[0][0]]) == 0
        values = -np.sort(-np.array([[out[n] for n in row] for row in levels]), axis=0)
        for i in range(1, len(values)):
            values[i] = np.minimum(values[i], values[i - 1] - _MIN_INTENSITY_GAP)
        values = np.maximum(values, _MIN_INTENSITY_GAP / 10.0)
        # the floor can merge the lowest levels; lift each merged one above the next
        for i in range(len(values) - 2, -1, -1):
            values[i] = np.where(values[i] <= values[i + 1],
                                 values[i + 1] + _MIN_INTENSITY_GAP / 10.0, values[i])
        p = np.array([[out[n] for n in row] for row in probs])
        total = 0.0
        for row in p:
            total = total + row
        ceiling = 1.0 - _MIN_VACUUM_PROB
        p = p * np.where(total > ceiling, ceiling / total, 1.0)  # x * 1.0 is x exactly
        for names, new in ((levels, values), (probs, p)):
            for row, new_row in zip(names, new):
                out.update(zip(row, new_row.tolist() if scalar else new_row))
    return out


def async_search_space(four_intensity: bool = False) -> SearchSpace:
    """Default search space for the asynchronous protocol (weak-coherent boxes),
    with the pairing window ``tc_bins`` on a log axis."""
    intensity_box = (1e-4, 1.0)
    prob_box = (1e-3, 0.99)
    names = ["mu", "nu"] + (["omega"] if four_intensity else [])
    bounds: dict[str, tuple[float, float]] = {"tc_bins": (1e3, 1e7)}
    for n in names:
        for side in ("a", "b"):
            bounds[f"{n}_{side}"] = intensity_box
            bounds[f"p_{n}_{side}"] = prob_box
    return SearchSpace(bounds=bounds, log_scale=frozenset({"tc_bins"}), repair=repair_async_params)


@dataclass
class OptimResult:
    best_params: dict
    best_rate: float
    eval_count: int
    seed: int
    trace: list[tuple[int, float]] = field(default_factory=list)


class _BudgetExhausted(Exception):
    pass


def optimize_link(
    objective: Callable[[dict], float],
    space: SearchSpace,
    budget: int = 3000,
    seed: int = 0,
    warm_starts: Sequence[Mapping[str, float]] = (),
) -> OptimResult:
    """Maximize ``objective`` within an evaluation budget.

    ``warm_starts`` are parameter dicts injected into the initial population
    (clipped into the boxes through the genotype encoding).  If ``objective``
    has a ``many`` attribute, batches of more than one new parameter set go
    through ``objective.many(list_of_dicts)`` (see the module docstring).
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    names = space.names
    dim = len(names)
    population = min(_POPULATION, budget)
    rng = np.random.default_rng(seed)

    state = {
        "evals": 0,
        "best_rate": -math.inf,
        "best_params": {},
        "best_geno": None,
        "trace": [],
    }

    many = getattr(objective, "many", None)
    # decoded parameter set -> value, keyed by the bits of its values
    memo: dict[bytes, float] = {}

    def evaluate(genotypes: np.ndarray) -> np.ndarray:
        """Score the rows in order; after the last row the budget allows, stop."""
        n = min(len(genotypes), budget - state["evals"])
        batch = space.decode_many(genotypes[:n])
        keys = [row.tobytes() for row in np.array([list(p.values()) for p in batch])]
        fresh = {}
        for key, params in zip(keys, batch):
            if key not in memo:
                fresh.setdefault(key, params)
        if len(fresh) > 1 and many is not None:
            memo.update(zip(fresh, map(float, many(list(fresh.values())))))
        else:
            memo.update((key, objective(params)) for key, params in fresh.items())
        values = np.array([memo[key] for key in keys])
        for genotype, params, value in zip(genotypes, batch, values.tolist()):
            state["evals"] += 1
            if value > state["best_rate"]:
                state["best_rate"] = value
                state["best_params"] = params
                state["best_geno"] = genotype.copy()
                state["trace"].append((state["evals"], value))
        if n < len(genotypes):
            raise _BudgetExhausted
        return values

    pop = rng.random((population, dim))
    for slot, start in enumerate(warm_starts):
        if slot < population:
            pop[slot] = space.encode(start)

    def evolve(generation: int, fitness: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        sigma = max(0.25 * 0.93**generation, 0.02)
        order = np.argsort(-fitness)
        children = [pop[order[0]], pop[order[1 % population]]]  # the elites
        if state["best_geno"] is not None:
            children[1] = state["best_geno"]
        # draw per child, in the stream's order; then breed all children at once
        draws = [
            (rng.integers(0, population, size=(2, 3)), rng.random(dim), rng.uniform(-0.1, 1.1, size=dim),
             rng.random(dim), rng.normal(0.0, sigma, size=dim))
            for _ in range(population - 2)
        ]
        if draws:
            picks, cross, blend, mutate, step = map(np.stack, zip(*draws))
            # tournament of three: the first of the fittest, for each parent
            best = np.argmax(fitness[picks], axis=2)[..., None]
            parents = pop[np.take_along_axis(picks, best, axis=2)[..., 0]]
            pa, pb = parents[:, 0], parents[:, 1]
            child = np.where(cross < _CROSSOVER_PROB, blend * pa + (1.0 - blend) * pb, pa)
            child = np.where(mutate < 1.5 / dim, child + step, child)
            children.extend(np.clip(child, 0.0, 1.0))
        new_pop = np.stack(children)
        return new_pop, evaluate(new_pop)

    def polish() -> None:
        # deterministic local refinement, re-run while it keeps helping
        sym = _symmetrized(state["best_params"])
        if sym is not None:
            evaluate(space.encode(sym)[None, :])
        for step in (0.05, 0.01):
            improving = True
            while improving:
                improving = False
                base = state["best_geno"]
                if base is None:
                    return
                for i in range(dim):
                    for sign in (+1.0, -1.0):
                        trial = base.copy()
                        trial[i] = min(max(trial[i] + sign * step, 0.0), 1.0)
                        before = state["best_rate"]
                        evaluate(trial[None, :])
                        if state["best_rate"] > before:
                            improving = True
                            base = state["best_geno"]

    try:
        fitness = evaluate(pop)
        generation = 0
        while True:
            for _ in range(_GENERATIONS_PER_ERA):
                pop, fitness = evolve(generation, fitness)
                generation += 1
            polish()
            if state["best_geno"] is not None:
                pop[0] = state["best_geno"].copy()
    except _BudgetExhausted:
        pass

    if not state["best_params"]:
        state["best_params"] = space.decode(pop[0])
        state["best_rate"] = -math.inf
    return OptimResult(
        best_params=state["best_params"],
        best_rate=state["best_rate"],
        eval_count=state["evals"],
        seed=seed,
        trace=state["trace"],
    )


def _symmetrized(params: Mapping[str, float]) -> dict | None:
    """Average the two parties' parameters; None when not applicable."""
    if not params or "mu_b" not in params:
        return None
    out = dict(params)
    for base in ("mu", "omega", "nu", "p_mu", "p_omega", "p_nu"):
        ka, kb = f"{base}_a", f"{base}_b"
        if ka in out and kb in out:
            avg = 0.5 * (out[ka] + out[kb])
            out[ka] = out[kb] = avg
    return out
