import math

import numpy as np
import pytest

from amdiqkd.baselines import (
    Bb84Params,
    bb84_key_rate,
    bb84_observables,
    bb84_oracle,
    mdi_key_rate,
    mdi_observables,
)
from amdiqkd.channel import ChannelLink, DetectorPair, SourceConfig
from amdiqkd.stats import chernoff_expected, chernoff_observed

F = 4e9
PD = 0.1 / F

MDI_INTS = {"mu": 0.7, "omega": 0.1, "nu": 0.02, "o": 0.0}
MDI_PROBS = {"mu": 0.5, "omega": 0.2, "nu": 0.15, "o": 0.15}
BB84_INTS = {"mu": 0.6, "omega": 0.1, "nu": 0.05, "o": 0.0}
BB84_PROBS = {"mu": 0.5, "omega": 0.2, "nu": 0.15, "o": 0.15}


def link_and_det(l_a, l_b, dark_hz=0.1, misalignment=0.04):
    link = ChannelLink(l_a, l_b, 0.16, clock_hz=F, interference_error=misalignment)
    return link, DetectorPair(0.8, dark_hz)


def mdi_params(l_total=100.0, **kw):
    """(source, link, det) of the symmetric time-bin MDI baseline."""
    source = SourceConfig(MDI_INTS, MDI_PROBS, MDI_INTS, MDI_PROBS)
    return (source, *link_and_det(l_total / 2, l_total / 2, **kw))


def bb84_params(l=100.0, dark_hz=0.1, **kw):
    return Bb84Params(BB84_INTS, BB84_PROBS, *link_and_det(l, 0.0, dark_hz), **kw)


class TestMdiObservables:
    def test_vacuum_pair_without_darks_is_silent(self):
        params = mdi_params(dark_hz=0.0)
        obs = mdi_observables(*params, 1e12)
        assert obs.n_z[("o", "o")] == 0.0
        assert obs.m_z[("o", "o")] == 0.0

    def test_errors_never_exceed_counts(self):
        obs = mdi_observables(*mdi_params(), 1e12)
        for key in obs.n_z:
            assert obs.m_z[key] <= obs.n_z[key] + 1e-9
            assert obs.m_x[key] <= obs.n_x[key] + 1e-9

    def test_printed_formulas_reevaluated_at_100km(self):
        # spreadsheet-style second evaluation of the count model, scalar form
        params = mdi_params(100.0)
        obs = mdi_observables(*params, 2e14)
        ka = 0.7 * 0.8 * 10 ** (-0.16 * 50 / 10)
        kb = ka
        n_prime = 1e14
        w = n_prime * 0.5 * 0.5
        x = math.sqrt(ka * kb)
        half = math.exp(-(ka + kb) / 2)
        i0 = float(np.i0(x))
        interference = i0 - (1 - PD) * half
        split = (1 - (1 - PD) * math.exp(-ka / 2)) * (1 - (1 - PD) * math.exp(-kb / 2))
        assert obs.m_z[("mu", "mu")] == pytest.approx(
            w * PD * (1 - PD) ** 2 * half * interference, rel=1e-12
        )
        assert obs.n_z[("mu", "mu")] == pytest.approx(
            w * (1 - PD) ** 2 * half * (PD * interference + split), rel=1e-12
        )
        y = (1 - PD) * math.exp(-(ka + kb) / 4)
        n_x = w * y * y * (1 + 2 * y * y - 4 * y * float(np.i0(x / 2)) + i0)
        m_x = w * y * y * (1 + y * y - 2 * y * float(np.i0(x / 2)) + 0.04 * (i0 - 1))
        assert obs.n_x[("mu", "mu")] == pytest.approx(n_x, rel=1e-12)
        assert obs.m_x[("mu", "mu")] == pytest.approx(m_x, rel=1e-12)

    def test_needs_four_intensities(self):
        three = SourceConfig.from_params(mu_a=0.7, nu_a=0.02, p_mu_a=0.5, p_nu_a=0.3,
                                         mu_b=0.7, nu_b=0.02, p_mu_b=0.5, p_nu_b=0.3)
        with pytest.raises(ValueError, match="four intensities"):
            mdi_observables(three, *link_and_det(50.0, 50.0), 1e12)

    def test_z_qber_is_dark_limited(self):
        obs = mdi_observables(*mdi_params(60.0), 1e14)
        qber = obs.m_z[("mu", "mu")] / obs.n_z[("mu", "mu")]
        assert qber < 1e-6


class TestMdiKeyRate:
    def test_positive_rate_in_ideal_limit(self):
        res = mdi_key_rate(*mdi_params(40.0), 3.2e14, 1e-10)
        assert res["rate_per_pulse"] > 0.0
        assert res["qber_z"] < 1e-6

    def test_corner_scan_matches_dense_grid(self):
        for l_total in (40.0, 100.0, 160.0):
            params = mdi_params(l_total)
            corners = mdi_key_rate(*params, 3.2e14, 1e-10)
            grid = mdi_key_rate(*params, 3.2e14, 1e-10, scan_grid=50)
            assert corners["ell"] == pytest.approx(grid["ell"], rel=1e-9, abs=1e-6)

    def test_scan_never_beats_pessimistic_corner(self):
        params = mdi_params(80.0)
        scanned = mdi_key_rate(*params, 3.2e14, 1e-10)
        grid = mdi_key_rate(*params, 3.2e14, 1e-10, scan_grid=25)
        assert scanned["ell"] <= grid["ell"] + 1e-6

    def test_rate_vanishes_beyond_cutoff(self):
        res = mdi_key_rate(*mdi_params(500.0), 1e12, 1e-10)
        assert res["rate_per_pulse"] == 0.0


class TestBb84Observables:
    def test_silent_without_light_and_darks(self):
        params = bb84_params(dark_hz=0.0)
        obs = bb84_observables(params, 1e12)
        assert obs.n_z["o"] == 0.0
        assert obs.n_x["o"] == 0.0

    def test_error_free_limit(self):
        params = bb84_params(dark_hz=0.0, misalignment=0.0)
        obs = bb84_observables(params, 1e12)
        assert obs.m_z["mu"] == 0.0
        assert obs.n_z["mu"] > 0.0

    def test_printed_formulas_reevaluated_at_100km(self):
        params = bb84_params(100.0)
        obs = bb84_observables(params, 1e12)
        eta = 0.8 * 10 ** (-(0.16 * 100 + 2.0) / 10)
        k = 0.6
        weight = 1e12 * 0.5 / 2
        miss_z = (1 - PD) ** 2 * math.exp(-k * 0.5 * eta)
        miss_x = miss_z
        assert obs.n_z["mu"] == pytest.approx(weight * (1 - miss_z) * (1 + miss_x), rel=1e-12)
        m_manual = weight * (1 + miss_x) * (
            (0.5 - 0.02) * (1 - (1 - PD) ** 2) * math.exp(-k * 0.5 * eta)
            + 0.02 * (1 - miss_z)
        )
        assert obs.m_z["mu"] == pytest.approx(m_manual, rel=1e-12)

    def test_basis_probabilities_complementary(self):
        obs = bb84_observables(bb84_params(q_z=0.7), 1e12)
        assert obs.q_z + obs.q_x == pytest.approx(1.0)


class TestBb84Oracle:
    # photon-number-resolved Monte Carlo on two desk configurations
    CONFIGS = [
        bb84_params(5.0, dark_hz=4e5),
        bb84_params(15.0, dark_hz=4e4, q_z=0.65, misalignment=0.03),
    ]

    @pytest.mark.parametrize("cfg_idx", [0, 1])
    def test_counts_within_five_sigma(self, cfg_idx):
        params = self.CONFIGS[cfg_idx]
        n_pulses = 2_000_000
        run = bb84_oracle(params, n_pulses, seed=17 + cfg_idx)
        obs = bb84_observables(params, float(n_pulses))
        for lab in ("mu", "omega", "nu", "o"):
            for got, expected in (
                (run["n_z"][lab], obs.n_z[lab]),
                (run["m_z"][lab], obs.m_z[lab]),
                (run["n_x"][lab], obs.n_x[lab]),
                (run["m_x"][lab], obs.m_x[lab]),
            ):
                if expected >= 25.0:
                    assert abs(got - expected) <= 5.0 * math.sqrt(expected), (lab, got, expected)

    @pytest.mark.parametrize("cfg_idx", [0, 1])
    def test_single_photon_bound_sound(self, cfg_idx):
        # exact-statistics estimator chain must never beat the ground truth
        params = self.CONFIGS[cfg_idx]
        n_pulses = 2_000_000
        run = bb84_oracle(params, n_pulses, seed=29 + cfg_idx)
        ints, p = params.intensities, params.probs
        mu, nu, om = ints["mu"], ints["nu"], ints["omega"]

        def single_exact(counts, front):
            core = (
                math.exp(nu) * counts["nu"] / p["nu"]
                - (nu * nu) / (mu * mu) * math.exp(mu) * counts["mu"] / p["mu"]
                - (mu * mu - nu * nu) / (mu * mu) * counts["o"] / p["o"]
            )
            return max(front * mu / (mu * nu - nu * nu) * core, 0.0)

        n1z = single_exact(run["n_z"], p["mu"] * mu * math.exp(-mu) + p["nu"] * nu * math.exp(-nu))
        assert n1z <= run["single_z"] + 5.0 * math.sqrt(max(run["single_z"], 1))
        n1x = single_exact(run["n_x"], p["omega"] * om * math.exp(-om))
        assert n1x <= run["single_x"] + 5.0 * math.sqrt(max(run["single_x"], 1))
        n0z = (p["mu"] * math.exp(-mu) + p["nu"] * math.exp(-nu)) / p["o"] * run["n_z"]["o"]
        assert n0z <= run["vacuum_z"] + 5.0 * math.sqrt(max(run["vacuum_z"], 1))
        m0x = p["omega"] * math.exp(-om) / p["o"] * run["m_x"]["o"]
        t1x = max(run["m_x"]["omega"] - m0x, 0.0)
        assert t1x >= run["single_x_err"] - 5.0 * math.sqrt(max(run["single_x_err"], 1))

    def test_deterministic(self):
        a = bb84_oracle(self.CONFIGS[0], 200_000, seed=3)
        b = bb84_oracle(self.CONFIGS[0], 200_000, seed=3)
        assert a == b


class TestBb84KeyRate:
    def test_large_data_near_error_free(self):
        params = bb84_params(20.0, misalignment=0.0, dark_hz=0.0)
        res = bb84_key_rate(params, 1e15, 1e-10)
        # sanity scale: key comes from vacuum + single-photon events
        assert res["ell"] > 0.0
        assert res["rate_per_pulse"] < 1.0

    def test_mid_range_cross_check(self):
        # independent evaluation of the estimator chain in exact-statistics mode
        params = bb84_params(100.0)
        res = bb84_key_rate(params, 1e13, 1e-10)
        assert res["rate_per_pulse"] > 0.0
        assert res["ell"] <= 1e13
        # the vacuum estimate must not exceed the observed-count lower bound of
        # the vacuum-intensity Z count scaled to the signal and decoy levels;
        # at 0.1 Hz the vacuum pulses see 75 counts and the estimate is 0, so
        # 100 Hz darks give it a count large enough to check
        params = bb84_params(100.0, dark_hz=100.0)
        obs = bb84_observables(params, 1e13)
        res = bb84_key_rate(params, 1e13, 1e-10)
        n0_exact = (0.5 * math.exp(-0.6) + 0.15 * math.exp(-0.05)) / 0.15 * obs.n_z["o"]
        assert 0.0 < res["n0"] <= chernoff_observed(n0_exact, 1e-10)[0]

    def test_rate_decreases_with_distance(self):
        rates = [bb84_key_rate(bb84_params(l), 3.2e14, 1e-10)["rate_per_pulse"]
                 for l in (50.0, 120.0, 200.0)]
        assert rates[0] > rates[1] > rates[2] >= 0.0

    def test_infeasible_long_distance(self):
        res = bb84_key_rate(bb84_params(400.0), 1e11, 1e-10)
        assert res["rate_per_pulse"] == 0.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            bb84_params(q_z=0.0)
        with pytest.raises(ValueError):
            Bb84Params(
                {"mu": 0.1, "omega": 0.2, "nu": 0.05, "o": 0.0}, BB84_PROBS, *link_and_det(10.0, 0.0),
            )
        with pytest.raises(ValueError, match="omega"):
            Bb84Params({"mu": 0.6, "nu": 0.05, "o": 0.0}, {"mu": 0.5, "nu": 0.3, "o": 0.2},
                       *link_and_det(10.0, 0.0))
