import numpy as np
import pytest

from amdiqkd import scenario
from amdiqkd.channel import ChannelLink, DetectorPair, SourceConfig
from amdiqkd.keyrate import ProtocolVariant, evaluate
from amdiqkd.optimizer import (
    SearchSpace,
    async_search_space,
    optimize_link,
    repair_async_params,
)

DET = DetectorPair(0.8, 0.1)
LINK = ChannelLink(
    25.0, 25.0, 0.16, clock_hz=4e9,
    phase_drift_rad_per_s=5900.0, laser_offset_hz=10.0,
    interference_error=0.04, phase_slices=16,
)


def rate_objective(params):
    return evaluate(params, LINK, DET, 1e12, 1e-10, 1.1, ProtocolVariant()).rate_per_pulse


BASE = dict(
    nu_a=0.03, p_mu_a=0.3, p_nu_a=0.15,
    nu_b=0.03, p_mu_b=0.3, p_nu_b=0.15, tc_bins=1e6,
)


class TestSearchSpace:
    def test_decode_respects_bounds_and_repair(self):
        space = async_search_space()
        rng = np.random.default_rng(1)
        for _ in range(200):
            params = space.decode(rng.random(len(space.names)))
            for side in ("a", "b"):
                assert params[f"mu_{side}"] > params[f"nu_{side}"]
                total = params[f"p_mu_{side}"] + params[f"p_nu_{side}"]
                assert total < 1.0
            assert 1e3 <= params["tc_bins"] <= 1e7

    def test_mirrored_parties(self):
        space = scenario._baseline_space("mdi-baseline")
        params = space.decode(np.full(len(space.names), 0.3))
        assert params["mu_a"] == params["mu_b"]
        assert params["p_nu_a"] == params["p_nu_b"]

    def test_frozen_overrides(self):
        space = SearchSpace(bounds={"mu_a": (0.1, 1.0)}, frozen={"tc_bins": 5e5})
        assert "tc_bins" not in space.names
        params = space.decode(np.full(len(space.names), 0.5))
        assert params["tc_bins"] == 5e5

    @pytest.mark.parametrize("four_intensity", [False, True])
    def test_decoded_sets_are_valid_sources(self, four_intensity):
        # the GA clips children to the cube, so genes sit exactly on 0 or 1
        space = async_search_space(four_intensity=four_intensity)
        rng = np.random.default_rng(5)
        choices = np.array([0.0, 1.0, np.nan])
        for _ in range(2000):
            geno = rng.choice(choices, size=len(space.names))
            geno = np.where(np.isnan(geno), rng.random(len(space.names)), geno)
            params = space.decode(geno)
            params.pop("tc_bins")
            SourceConfig.from_params(**params)

    def test_repair_keeps_floored_levels_apart(self):
        fixed = repair_async_params(
            dict(mu_a=1e-4, omega_a=1e-4, nu_a=1e-4, p_mu_a=0.3, p_omega_a=0.2, p_nu_a=0.2)
        )
        assert (fixed["mu_a"], fixed["omega_a"], fixed["nu_a"]) == (1e-4, 2e-5, 1e-5)

    def test_repair_sorts_intensities(self):
        fixed = repair_async_params(
            dict(mu_a=0.1, nu_a=0.5, p_mu_a=0.6, p_nu_a=0.5,
                 mu_b=0.3, nu_b=0.1, p_mu_b=0.2, p_nu_b=0.2)
        )
        assert fixed["mu_a"] > fixed["nu_a"]
        assert fixed["p_mu_a"] + fixed["p_nu_a"] <= 0.999 + 1e-12

    def test_repair_one_party(self):
        # the BB84 baseline searches side a only, with a decoy level omega
        fixed = repair_async_params(
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
        with pytest.raises(ValueError):
            SearchSpace(bounds={"x": (0.0, 1.0)}, frozen={"x": 0.5})


class TestOptimizeLink:
    def test_matches_dense_grid_in_one_dimension(self):
        space = SearchSpace(
            bounds={"mu_a": (0.1, 1.0)},
            frozen={**BASE, "mu_b": 0.55},
            repair=repair_async_params,
        )
        res = optimize_link(rate_objective, space, budget=300, seed=1)
        grid = np.linspace(0.1, 1.0, 901)
        grid_rates = [
            rate_objective(space.decode(np.array([(g - 0.1) / 0.9]))) for g in grid
        ]
        assert res.best_rate >= max(grid_rates) * (1.0 - 1e-3)

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
        assert res.eval_count == 250 == len(seen)

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
