import math

import numpy as np
import pytest

from amdiqkd import scenario
from amdiqkd.channel import ChannelLink, DetectorPair, SourceConfig
from amdiqkd.keyrate import ProtocolVariant, evaluate
from amdiqkd.optimizer import (
    SearchSpace,
    _breeding_draws,
    _symmetrized,
    async_search_space,
    optimize_link,
    repair_async_params,
)

from test_keyrate import decoded_rows

DET = DetectorPair(0.8, 0.1)
LINK = ChannelLink(
    25.0, 25.0, 0.16, clock_hz=4e9,
    phase_drift_rad_per_s=5900.0, laser_offset_hz=10.0,
    interference_error=0.04, phase_slices=16,
)


def rate_objective(params):
    return evaluate(params, LINK, DET, 1e12, 1e-10, 1.1, ProtocolVariant()).rate_per_pulse


def decode(space, genotype):
    """The parameter dict of one genotype, read from ``space.decode_columns``."""
    return decoded_rows(space, np.asarray(genotype)[None, :])[0]


def repair_one_row(params):
    """``repair_async_params`` on one candidate, passed and read back as one-row columns."""
    fixed = repair_async_params({name: np.array([value]) for name, value in params.items()})
    assert all(np.shape(column) == (1,) for column in fixed.values())
    return {name: float(column[0]) for name, column in fixed.items()}


BASE = dict(
    nu_a=0.03, p_mu_a=0.3, p_nu_a=0.15,
    nu_b=0.03, p_mu_b=0.3, p_nu_b=0.15, tc_bins=1e6,
)


class TestSearchSpace:
    def test_decode_respects_bounds_and_repair(self):
        space = async_search_space()
        rng = np.random.default_rng(1)
        for _ in range(200):
            params = decode(space, rng.random(len(space.names)))
            for side in ("a", "b"):
                assert params[f"mu_{side}"] > params[f"nu_{side}"]
                total = params[f"p_mu_{side}"] + params[f"p_nu_{side}"]
                assert total < 1.0
            assert 1e3 <= params["tc_bins"] <= 1e7

    def test_mirrored_parties(self):
        space = scenario._baseline_space("mdi-baseline")
        params = decode(space, np.full(len(space.names), 0.3))
        assert params["mu_a"] == params["mu_b"]
        assert params["p_nu_a"] == params["p_nu_b"]

    @pytest.mark.parametrize("start, message", [
        (dict(mu_a=0.8), r"missing keys \['nu_a', 'omega_a', 'p_mu_a', 'p_nu_a', 'p_omega_a'\]"),
        (dict(mu_a=0.8, omega_a=0.1, nu_a=0.02, p_mu_a=0.5, p_omega_a=0.15, p_nu_a=0.15,
              q_z=0.5), r"missing keys \[\], unread keys \['q_z'\]"),
    ], ids=["missing", "unread"])
    def test_encode_takes_exactly_the_searched_keys(self, start, message):
        # a missing key used to start at its box's lower bound, an unread one was dropped
        with pytest.raises(ValueError, match=message):
            scenario._baseline_space("mdi-baseline").encode(start)

    def test_encode_takes_a_symmetrized_mirrored_best(self):
        # polish encodes the symmetrized incumbent, which carries the mirror keys
        space = scenario._baseline_space("mdi-baseline")
        best = _symmetrized(decode(space, np.full(len(space.names), 0.3)))
        searched = {k: v for k, v in best.items() if k not in space.mirror}
        assert best.keys() > searched.keys()
        assert np.array_equal(space.encode(best), space.encode(searched))

    @pytest.mark.parametrize("four_intensity", [False, True])
    def test_decoded_sets_are_valid_sources(self, four_intensity):
        # the GA clips children to the cube, so genes sit exactly on 0 or 1
        space = async_search_space(four_intensity=four_intensity)
        rng = np.random.default_rng(5)
        choices = np.array([0.0, 1.0, np.nan])
        for _ in range(2000):
            geno = rng.choice(choices, size=len(space.names))
            geno = np.where(np.isnan(geno), rng.random(len(space.names)), geno)
            SourceConfig.from_params(decode(space, geno), four_intensity)

    def test_repair_keeps_floored_levels_apart(self):
        fixed = repair_one_row(
            dict(mu_a=1e-4, omega_a=1e-4, nu_a=1e-4, p_mu_a=0.3, p_omega_a=0.2, p_nu_a=0.2)
        )
        assert (fixed["mu_a"], fixed["omega_a"], fixed["nu_a"]) == (1e-4, 2e-5, 1e-5)

    def test_repair_sorts_intensities(self):
        fixed = repair_one_row(
            dict(mu_a=0.1, nu_a=0.5, p_mu_a=0.6, p_nu_a=0.5,
                 mu_b=0.3, nu_b=0.1, p_mu_b=0.2, p_nu_b=0.2)
        )
        assert fixed["mu_a"] > fixed["nu_a"]
        assert fixed["p_mu_a"] + fixed["p_nu_a"] <= 0.999 + 1e-12

    def test_repair_one_party(self):
        # the BB84 baseline searches side a only, with a decoy level omega
        fixed = repair_one_row(
            dict(mu_a=0.1, omega_a=0.3, nu_a=0.3, p_mu_a=0.6, p_omega_a=0.3, p_nu_a=0.3, q_z=0.4)
        )
        assert sorted(fixed) == ["mu_a", "nu_a", "omega_a", "p_mu_a", "p_nu_a", "p_omega_a", "q_z"]
        assert fixed["mu_a"] == 0.3
        assert fixed["omega_a"] == 0.3 - 1e-4
        assert fixed["nu_a"] == 0.1
        assert fixed["p_mu_a"] + fixed["p_omega_a"] + fixed["p_nu_a"] == pytest.approx(0.999, rel=1e-12)
        assert fixed["q_z"] == 0.4

    def test_invalid_spaces_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace(bounds={"x": (1.0, 1.0)})
        with pytest.raises(ValueError):
            SearchSpace(bounds={"x": (0.0, 1.0)}, log_scale=frozenset({"x"}))


class TestOptimizeLink:
    def test_matches_dense_grid_in_one_dimension(self):
        def objective(columns):
            fixed = {name: np.full(len(columns["mu_a"]), value)
                     for name, value in {**BASE, "mu_b": 0.55}.items()}
            return rate_objective(repair_async_params({**fixed, **columns}))

        objective.many = objective
        space = SearchSpace(bounds={"mu_a": (0.1, 1.0)})
        res = optimize_link(objective, space, budget=300, seed=1)
        grid = np.linspace(0.1, 1.0, 901)
        grid_rates = objective(space.decode_columns((grid[:, None] - 0.1) / 0.9))
        assert res.best_rate >= grid_rates.max() * (1.0 - 1e-3)

    def test_deterministic(self):
        space = async_search_space()
        a = optimize_link(rate_objective, space, budget=400, seed=9)
        b = optimize_link(rate_objective, space, budget=400, seed=9)
        assert a.best_rate == b.best_rate
        assert a.best_params == b.best_params
        assert a.trace == b.trace

    def test_budget_monotone(self):
        space = async_search_space()
        small = optimize_link(rate_objective, space, budget=300, seed=4)
        large = optimize_link(rate_objective, space, budget=600, seed=4)
        assert large.best_rate >= small.best_rate
        # the longer run replays the shorter run's trace exactly
        assert large.trace[: len(small.trace)] == small.trace

    def test_every_candidate_feasible(self):
        seen = []

        def checked(params):
            seen.append(params)
            for side in ("a", "b"):
                assert params[f"mu_{side}"] > params[f"nu_{side}"] > 0.0
                p_sum = params[f"p_mu_{side}"] + params[f"p_nu_{side}"]
                assert 0.0 < p_sum < 1.0
            return rate_objective(params)

        res = optimize_link(checked, async_search_space(), budget=250, seed=2)
        assert res.eval_count == 250
        # a parameter set is scored once; the copied elites reuse their value
        keys = [tuple(p.values()) for p in seen]
        assert len(keys) == len(set(keys)) < 250

    def test_warm_start_included(self):
        hand = dict(mu_a=0.55, mu_b=0.55, **BASE)
        baseline = rate_objective(hand)
        res = optimize_link(rate_objective, async_search_space(), budget=60, seed=0,
                            warm_starts=[hand])
        assert res.best_rate >= baseline * (1.0 - 1e-9)

    def test_symmetric_link_gives_symmetric_optimum(self):
        res = optimize_link(rate_objective, async_search_space(), budget=3000, seed=42)
        p = res.best_params
        assert abs(p["mu_a"] - p["mu_b"]) / p["mu_a"] <= 0.02

    def test_zero_everywhere_returns_zero(self):
        res = optimize_link(lambda p: 0.0, async_search_space(), budget=120, seed=0)
        assert res.best_rate == 0.0
        assert res.best_params

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            optimize_link(rate_objective, async_search_space(), budget=0, seed=0)


# ---------------------------------------------------------------------------
# batch scoring, the memo and the vectorized decode
# ---------------------------------------------------------------------------

def toy_objective(params):
    """Cheap stand-in for a rate: a peak, a zero plateau and a step."""
    x = params["mu_a"] - 0.5
    y = params["nu_b"] - 0.05
    z = math.log10(params["tc_bins"]) - 5.5
    bump = max(0.0, 0.3 - x * x - 4.0 * y * y - 0.01 * z * z)
    return bump + 1e-3 * params["p_mu_a"] * (params["mu_b"] > 0.4)


class Batched:
    """An objective with a ``many`` form (name -> (B,) columns) that records
    what it was given: the columns, and their rows as parameter dicts."""

    def __init__(self, fn):
        self.fn = fn
        self.scalar_calls = []
        self.columns = []
        self.batches = []

    def __call__(self, params):
        self.scalar_calls.append(params)
        return self.fn(params)

    def many(self, columns):
        self.columns.append(columns)
        rows = zip(*(column.tolist() for column in columns.values()))
        batch = [dict(zip(columns, row)) for row in rows]
        self.batches.append(batch)
        return np.array([self.fn(p) for p in batch])


WARM = [dict(mu_a=0.55, mu_b=0.55, **BASE), dict(mu_a=0.3, mu_b=0.45, **BASE)]


def result_tuple(res):
    return res.best_params, res.best_rate, res.eval_count, res.trace


class TestBatchScoring:
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("budget", [1, 49, 50, 51, 137, 3000])
    def test_same_result_as_single_calls(self, budget, warm):
        space = async_search_space()
        starts = WARM if warm else ()
        plain = optimize_link(toy_objective, space, budget=budget, seed=3, warm_starts=starts)
        batched = Batched(toy_objective)
        res = optimize_link(batched, space, budget=budget, seed=3, warm_starts=starts)
        assert result_tuple(res) == result_tuple(plain)
        # every new set went through ``many``, a lone one as a one-row batch
        assert not batched.scalar_calls
        assert batched.batches
        assert sum(len(b) for b in batched.batches) <= budget

    @pytest.mark.parametrize("name", ["async", "mdi-baseline"])
    def test_many_gets_float_columns(self, name):
        """Every call of ``many`` gets float64 (B,) columns, B >= 1, under the
        space's names and its mirror keys; a lone new set arrives as B = 1."""
        space = SPACES[name]
        for budget, last in ((600, None), (1, 1), (53, 1)):
            # at 53 the next generation's two elites are memoized, its first child new
            batched = Batched(lambda p: p["mu_a"] * p["p_mu_a"] + p["nu_b"])
            optimize_link(batched, space, budget=budget, seed=3)
            assert not batched.scalar_calls
            for columns in batched.columns:
                assert columns.keys() == set(space.names) | set(space.mirror)
                b = len(columns["mu_a"])
                assert b >= 1
                assert all(c.dtype == np.float64 and c.shape == (b,) for c in columns.values())
            if last is not None:
                assert len(batched.batches[-1]) == last

    def test_same_result_on_the_rate(self):
        """The scenario's pairing: ``evaluate`` one by one, and on columns for batches."""

        def objective(params):
            return rate_objective(params)

        objective.many = rate_objective
        space = async_search_space()
        plain = optimize_link(rate_objective, space, budget=600, seed=5, warm_starts=WARM)
        res = optimize_link(objective, space, budget=600, seed=5, warm_starts=WARM)
        assert result_tuple(res) == result_tuple(plain)

    def test_repeated_candidates_are_not_rescored(self):
        seen = []

        def counted(params):
            seen.append(np.array(list(params.values())).tobytes())
            return toy_objective(params)

        batched = Batched(counted)
        res = optimize_link(batched, async_search_space(), budget=3000, seed=7)
        assert res.eval_count == 3000
        # every scored set is new, and the copied elites and polish trials that
        # land back on the incumbent were not scored again
        assert len(seen) == len(set(seen)) < 3000
        plain = []
        optimize_link(lambda p: plain.append(p) or toy_objective(p), async_search_space(),
                      budget=3000, seed=7)
        # the batched run scores what the plain run scores, plus the polish
        # moves scored past a pass's first improvement
        assert {np.array(list(p.values())).tobytes() for p in plain} <= set(seen)
        assert len(seen) <= len(plain) + 0.05 * 3000
        # polish goes out as batches, not one set at a time
        assert not batched.scalar_calls
        assert sum(len(b) == 1 for b in batched.batches) <= 0.01 * 3000

    def test_plain_objective_is_scored_only_on_counted_sets(self):
        """Without ``many``, a set is scored when its turn to be counted comes:
        with every call beating the last, every call is on the trace.  With
        ``many``, the polish moves after a pass's first gain are scored too."""
        for batched in (False, True):
            calls = []

            def rising(params):
                calls.append(params)
                return float(len(calls))

            res = optimize_link(Batched(rising) if batched else rising, async_search_space(),
                                budget=1000, seed=7)
            values = [value for _, value in res.trace]
            if batched:
                assert len(values) < len(calls)
            else:
                assert values == [float(k) for k in range(1, len(calls) + 1)]

    @pytest.mark.parametrize("returned, shape", [
        (lambda columns: np.zeros(len(columns["mu_a"]) - 1), r"\(49,\)"),
        (lambda columns: 0.0, r"\(\)"),
    ], ids=["short", "scalar"])
    def test_many_must_return_one_value_per_set(self, returned, shape):
        # neither is filled in by plain calls; the first batch is the population
        def objective(params):
            raise AssertionError("a plain call beside ``many``")

        objective.many = returned
        with pytest.raises(ValueError, match=rf"objective.many returned shape {shape} "
                                             r"for 50 sets"):
            optimize_link(objective, async_search_space(), budget=120, seed=0)


def old_repair(params: dict) -> dict:
    """``repair_async_params`` as it was before decoding was vectorized."""
    out = dict(params)
    for side in ("a", "b"):
        if f"mu_{side}" not in out:
            continue
        labels = ["mu"] + (["omega"] if f"omega_{side}" in out else []) + ["nu"]
        values = sorted((out[f"{l}_{side}"] for l in labels), reverse=True)
        for i in range(1, len(values)):
            values[i] = min(values[i], values[i - 1] - 1e-4)
        values = [max(v, 1e-4 / 10.0) for v in values]
        for i in range(len(values) - 2, -1, -1):
            if values[i] <= values[i + 1]:
                values[i] = values[i + 1] + 1e-4 / 10.0
        for l, v in zip(labels, values):
            out[f"{l}_{side}"] = v
        prob_names = [f"p_{l}_{side}" for l in labels]
        total = 0.0  # left to right, as sum() adds floats before Python 3.12
        for p in prob_names:
            total += out[p]
        ceiling = 1.0 - 1e-3
        if total > ceiling:
            for p in prob_names:
                out[p] *= ceiling / total
    return out


def old_draws(rng, population: int, dim: int, sigma: float):
    """``evolve``'s breeding draws as they were before they went into blocks:
    five calls per child, stacked; None with no child to breed."""
    draws = [
        (rng.integers(0, population, size=(2, 3)), rng.random(dim), rng.uniform(-0.1, 1.1, size=dim),
         rng.random(dim), rng.normal(0.0, sigma, size=dim))
        for _ in range(population - 2)
    ]
    return tuple(map(np.stack, zip(*draws))) if draws else None


@pytest.mark.parametrize("budget", [1, 2, 3, 17, 3000])
def test_draw_blocks_are_the_five_call_stream(budget):
    population = min(50, budget)
    for seed in range(6):
        for dim in range(5, 14):
            for sigma in (0.25, 0.25 * 0.93**7, 0.02):
                old_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
                want = old_draws(old_rng, population, dim, sigma)
                got = _breeding_draws(rng, population, dim, sigma)
                if want is None:
                    assert all(block.size == 0 for block in got)
                else:
                    for w, g in zip(want, got):  # picks, cross, blend, mutate, step
                        assert (w.dtype, w.shape) == (g.dtype, g.shape)
                        assert w.tobytes() == g.tobytes()
                # the next generation starts from the same point of the stream
                assert rng.bit_generator.state == old_rng.bit_generator.state
    if budget <= 2:  # a run with no child to breed
        res = optimize_link(toy_objective, async_search_space(), budget=budget, seed=0)
        assert res.eval_count == budget


def old_decode(space: SearchSpace, genotype) -> dict:
    """``SearchSpace.decode`` as it was before it was vectorized."""
    params = {}
    for gene, name in zip(genotype, space.names):
        lo, hi = space.bounds[name]
        g = min(max(float(gene), 0.0), 1.0)
        if name in space.log_scale:
            params[name] = lo * (hi / lo) ** g
        else:
            params[name] = lo + (hi - lo) * g
    for dst, src in space.mirror.items():
        params[dst] = params[src]
    assert space.repair is repair_async_params
    return old_repair(params)


SPACES = {
    "async": async_search_space(),
    "async-four": async_search_space(four_intensity=True),
    "mdi-baseline": scenario._baseline_space("mdi-baseline"),
    "bb84-baseline": scenario._baseline_space("bb84-baseline"),
}


@pytest.mark.parametrize("name", sorted(SPACES))
def test_decode_is_bitwise_the_scalar_decode(name):
    space = SPACES[name]
    rng = np.random.default_rng(17)
    genes = rng.random((2000, len(space.names)))
    # the cube's faces, where clipped children sit, and points outside it
    faces = rng.random(genes.shape)
    genes[faces < 0.1] = 0.0
    genes[faces > 0.9] = 1.0
    genes[(faces > 0.45) & (faces < 0.47)] = 1.3
    for row, params in zip(genes, decoded_rows(space, genes)):
        want = old_decode(space, row)
        assert list(params) == list(want)
        assert np.array(list(params.values())).tobytes() == np.array(list(want.values())).tobytes()
