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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

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
    """Box bounds plus frozen values, mirrors and an optional repair step.

    ``mirror`` maps a dependent parameter to the one it copies (used to tie
    the two parties on symmetric links).  ``log_scale`` lists parameters
    searched on a logarithmic axis.
    """

    bounds: Mapping[str, tuple[float, float]]
    frozen: Mapping[str, float] = field(default_factory=dict)
    mirror: Mapping[str, str] = field(default_factory=dict)
    log_scale: frozenset = frozenset()
    repair: Callable[[dict], dict] | None = None

    def __post_init__(self) -> None:
        for name, (lo, hi) in self.bounds.items():
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"bad bounds for {name!r}: {(lo, hi)}")
            if name in self.log_scale and lo <= 0.0:
                raise ValueError(f"log-scaled {name!r} needs positive bounds")
        overlap = set(self.bounds) & set(self.frozen)
        if overlap:
            raise ValueError(f"parameters both free and frozen: {overlap}")
        if not self.bounds:
            raise ValueError("search space has no free parameters")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self.bounds))

    def decode(self, genotype: np.ndarray) -> dict:
        params = dict(self.frozen)
        for gene, name in zip(genotype, self.names):
            lo, hi = self.bounds[name]
            g = min(max(float(gene), 0.0), 1.0)
            if name in self.log_scale:
                params[name] = lo * (hi / lo) ** g
            else:
                params[name] = lo + (hi - lo) * g
        for dst, src in self.mirror.items():
            params[dst] = params[src]
        if self.repair is not None:
            params = self.repair(params)
        return params

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
    space (the BB84 baseline) goes through the same step.
    """
    out = dict(params)
    for side in ("a", "b"):
        if f"mu_{side}" not in out:
            continue
        labels = ["mu"] + (["omega"] if f"omega_{side}" in out else []) + ["nu"]
        values = sorted((out[f"{l}_{side}"] for l in labels), reverse=True)
        for i in range(1, len(values)):
            values[i] = min(values[i], values[i - 1] - _MIN_INTENSITY_GAP)
        values = [max(v, _MIN_INTENSITY_GAP / 10.0) for v in values]
        # the floor can merge the lowest levels; lift each merged one above the next
        for i in range(len(values) - 2, -1, -1):
            if values[i] <= values[i + 1]:
                values[i] = values[i + 1] + _MIN_INTENSITY_GAP / 10.0
        for l, v in zip(labels, values):
            out[f"{l}_{side}"] = v
        prob_names = [f"p_{l}_{side}" for l in labels]
        total = sum(out[p] for p in prob_names)
        ceiling = 1.0 - _MIN_VACUUM_PROB
        if total > ceiling:
            for p in prob_names:
                out[p] *= ceiling / total
    return out


def async_search_space(
    four_intensity: bool = False,
    optimize_pairing_window: bool = True,
) -> SearchSpace:
    """Default search space for the asynchronous protocol (weak-coherent boxes)."""
    intensity_box = (1e-4, 1.0)
    prob_box = (1e-3, 0.99)
    names = ["mu", "nu"] + (["omega"] if four_intensity else [])
    bounds: dict[str, tuple[float, float]] = {}
    for n in names:
        for side in ("a", "b"):
            bounds[f"{n}_{side}"] = intensity_box
            bounds[f"p_{n}_{side}"] = prob_box
    log_scale = set()
    if optimize_pairing_window:
        bounds["tc_bins"] = (1e3, 1e7)
        log_scale.add("tc_bins")
    return SearchSpace(bounds=bounds, log_scale=frozenset(log_scale), repair=repair_async_params)


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
    (clipped into the boxes through the genotype encoding).
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

    def evaluate(genotype: np.ndarray) -> float:
        if state["evals"] >= budget:
            raise _BudgetExhausted
        params = space.decode(genotype)
        value = objective(params)
        state["evals"] += 1
        if value > state["best_rate"]:
            state["best_rate"] = value
            state["best_params"] = params
            state["best_geno"] = genotype.copy()
            state["trace"].append((state["evals"], value))
        return value

    pop = rng.random((population, dim))
    for slot, start in enumerate(warm_starts):
        if slot < population:
            pop[slot] = space.encode(start)

    def evolve(generation: int, fitness: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        sigma = max(0.25 * 0.93**generation, 0.02)
        order = np.argsort(-fitness)
        children = [pop[order[0]].copy(), pop[order[1 % population]].copy()]
        if state["best_geno"] is not None:
            children[1] = state["best_geno"].copy()
        while len(children) < population:
            picks = rng.integers(0, population, size=(2, 3))
            pa = pop[picks[0][np.argmax(fitness[picks[0]])]]
            pb = pop[picks[1][np.argmax(fitness[picks[1]])]]
            child = pa.copy()
            cross = rng.random(dim) < _CROSSOVER_PROB
            blend = rng.uniform(-0.1, 1.1, size=dim)
            child[cross] = (blend * pa + (1.0 - blend) * pb)[cross]
            mutate = rng.random(dim) < 1.5 / dim
            child[mutate] += rng.normal(0.0, sigma, size=dim)[mutate]
            children.append(np.clip(child, 0.0, 1.0))
        new_pop = np.stack(children)
        return new_pop, np.array([evaluate(g) for g in new_pop])

    def polish() -> None:
        # deterministic local refinement, re-run while it keeps helping
        sym = _symmetrized(state["best_params"])
        if sym is not None:
            evaluate(space.encode(sym))
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
                        evaluate(trial)
                        if state["best_rate"] > before:
                            improving = True
                            base = state["best_geno"]

    try:
        fitness = np.array([evaluate(g) for g in pop])
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
