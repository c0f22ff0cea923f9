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

Candidates are decoded and scored in batches: the initial population, each
generation, and each polish pass, which holds the coordinate moves still to
come from the incumbent.  An objective with a ``many`` attribute (name ->
(B,) columns -> their (B,) values) gets every batch's new parameter sets in
one call; one without it is called on a dict per set when the set is counted,
the reference path.  Candidates are counted and compared in order, a polish
pass only up to its first improvement: its later rows are memoized but not
counted, and the moves after it are built again from the new incumbent.  So
a run is the same whichever path scored it, as long as ``many`` returns what
the plain call would.  A parameter set scored once in a run is not scored
again: its stored value is reused and still counts against the budget.
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

    def decode_columns(self, genotypes: np.ndarray) -> dict[str, np.ndarray]:
        """Parameter sets of the rows of an (n, dim) genotype stack as name -> (n,) columns."""
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
        return {name: np.asarray(v, dtype=float) for name, v in params.items()}

    def encode(self, params: Mapping[str, float]) -> np.ndarray:
        """Genotype of a parameter set that holds every searched key and
        possibly mirror keys, else ValueError naming the keys; values are
        clipped into the boxes."""
        missing = self.bounds.keys() - params.keys()
        unread = params.keys() - self.bounds.keys() - self.mirror.keys()
        if missing or unread:
            raise ValueError(f"warm start: missing keys {sorted(missing)}, "
                             f"unread keys {sorted(unread)}")
        geno = np.empty(len(self.names))
        for i, name in enumerate(self.names):
            lo, hi = self.bounds[name]
            v = min(max(float(params[name]), lo), hi)
            if name in self.log_scale:
                geno[i] = math.log(v / lo) / math.log(hi / lo)
            else:
                geno[i] = (v - lo) / (hi - lo)
        return geno


def repair_async_params(params: dict) -> dict:
    """Restore intensity ordering and the probability simplex per party.

    Repairs each side whose ``mu_<side>`` is present, so a one-party search
    space (the BB84 baseline) goes through the same step; the sides share one
    label set, as :class:`~amdiqkd.channel.SourceConfig` requires.  Values are
    equal-length (B,) arrays of candidates, the columns ``decode_columns``
    builds.
    """
    out = dict(params)
    sides = [side for side in ("a", "b") if f"mu_{side}" in out]
    labels = ("mu",) + (("omega",) if f"omega_{sides[0]}" in out else ()) + ("nu",)
    # (label, side, candidate) arrays: every side at once
    levels = [[f"{l}_{s}" for s in sides] for l in labels]
    probs = [[f"p_{l}_{s}" for s in sides] for l in labels]
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
            out.update(zip(row, new_row))
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
    has a ``many`` attribute, every batch's new parameter sets go through
    ``objective.many`` as name -> (B,) columns; a polish pass is counted up to
    its first improvement, its later rows memoized (see the module docstring).
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    dim = len(space.names)
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

    def evaluate(genotypes: np.ndarray, to_first_gain: bool = False):
        """Count the rows in order and return their values; after the last row
        the budget allows, stop.  With ``to_first_gain``, stop after the first
        row that beats the best and return its index (None if none does)."""
        n = min(len(genotypes), budget - state["evals"])
        columns = space.decode_columns(genotypes[:n])
        sets = np.column_stack(list(columns.values()))
        keys = [row.tobytes() for row in sets]
        fresh: dict[bytes, int] = {}
        for i, key in enumerate(keys):
            if key not in memo:
                fresh.setdefault(key, i)
        if fresh and many is not None:
            rows = np.fromiter(fresh.values(), dtype=np.intp, count=len(fresh))
            values = np.asarray(many({name: column[rows] for name, column in columns.items()}))
            if values.shape != rows.shape:
                raise ValueError(f"objective.many returned shape {values.shape} for {len(rows)} sets")
            memo.update(zip(fresh, map(float, values)))
        for i, key in enumerate(keys):
            if key not in memo:  # no ``many``: scored when its turn comes
                memo[key] = float(objective(dict(zip(columns, sets[i].tolist()))))
            value = memo[key]
            state["evals"] += 1
            if value > state["best_rate"]:
                state["best_rate"] = value
                state["best_params"] = dict(zip(columns, sets[i].tolist()))
                state["best_geno"] = genotypes[i].copy()
                state["trace"].append((state["evals"], value))
                if to_first_gain:
                    return i
        if n < len(genotypes):
            raise _BudgetExhausted
        return None if to_first_gain else np.array([memo[key] for key in keys])

    pop = rng.random((population, dim))
    for slot, start in enumerate(warm_starts):
        if slot < population:
            pop[slot] = space.encode(start)

    def evolve(generation: int, fitness: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        sigma = max(0.25 * 0.93**generation, 0.02)
        order = np.argsort(-fitness)
        elites = [pop[order[0]], pop[order[1 % population]]]
        if state["best_geno"] is not None:
            elites[1] = state["best_geno"]
        picks, cross, blend, mutate, step = _breeding_draws(rng, population, dim, sigma)
        # tournament of three: the first of the fittest, for each parent
        best = np.argmax(fitness[picks], axis=2)[..., None]
        parents = pop[np.take_along_axis(picks, best, axis=2)[..., 0]]
        pa, pb = parents[:, 0], parents[:, 1]
        child = np.where(cross < _CROSSOVER_PROB, blend * pa + (1.0 - blend) * pb, pa)
        child = np.where(mutate < 1.5 / dim, child + step, child)
        new_pop = np.concatenate([np.stack(elites), np.clip(child, 0.0, 1.0)])
        return new_pop, evaluate(new_pop)

    moves = [(i, sign) for i in range(dim) for sign in (+1.0, -1.0)]

    def polish() -> None:
        # deterministic local refinement, re-run while it keeps helping; a batch
        # holds the symmetrized incumbent (once, first) and the pass's moves to come
        if state["best_geno"] is None:
            return
        sym = _symmetrized(state["best_params"])
        head = space.encode(sym)[None, :] if sym is not None else np.empty((0, dim))
        for step in (0.05, 0.01):
            done, improving = 0, False  # moves of the pass counted; any gain
            while done < len(moves) or improving:
                if done == len(moves):
                    done, improving = 0, False
                trials = np.repeat(state["best_geno"][None, :], len(moves) - done, axis=0)
                for trial, (i, sign) in zip(trials, moves[done:]):
                    trial[i] = min(max(trial[i] + sign * step, 0.0), 1.0)
                hit = evaluate(np.concatenate([head, trials]), to_first_gain=True)
                if hit is None:
                    done = len(moves)
                elif hit >= len(head):
                    done, improving = done + hit - len(head) + 1, True
                head = head[:0]

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
        state["best_params"] = {name: float(column[0])
                                for name, column in space.decode_columns(pop[:1]).items()}
        state["best_rate"] = -math.inf
    return OptimResult(
        best_params=state["best_params"],
        best_rate=state["best_rate"],
        eval_count=state["evals"],
        trace=state["trace"],
    )


def _breeding_draws(rng: np.random.Generator, population: int, dim: int, sigma: float):
    """Tournament picks, crossover, blend and mutation uniforms and mutation
    steps of a generation's bred children.  Per child, in the stream's order,
    the uniform and normal blocks draw what ``random``, ``uniform(-0.1, 1.1)``,
    ``random`` and ``normal(0.0, sigma)`` would; one draw across children
    would reorder the stream."""
    children = max(population - 2, 0)
    picks = np.empty((children, 2, 3), dtype=np.int64)
    uniform = np.empty((children, 3, dim))
    normal = np.empty((children, dim))
    for c in range(children):
        picks[c] = rng.integers(0, population, size=(2, 3))
        rng.random(out=uniform[c])
        rng.standard_normal(out=normal[c])
    cross, blend, mutate = uniform.transpose(1, 0, 2)
    return picks, cross, -0.1 + (1.1 - (-0.1)) * blend, mutate, 0.0 + sigma * normal


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
