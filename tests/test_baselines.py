import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amdiqkd import scenario
from amdiqkd.baselines import (
    Bb84Params,
    bb84_key_rate,
    bb84_observables,
    mdi_key_rate,
    mdi_observables,
)
from amdiqkd.channel import LABEL_ORDER, ChannelLink, DetectorPair, SourceConfig
from amdiqkd.stats import binary_entropy, chernoff_observed

from test_keyrate import check_against_scalar, decoded_rows, genotype_batches, link_draws

F = 4e9
PD = 0.1 / F

MDI_INTS = {"mu": 0.7, "omega": 0.1, "nu": 0.02, "o": 0.0}
MDI_PROBS = {"mu": 0.5, "omega": 0.2, "nu": 0.15, "o": 0.15}
BB84_INTS = {"mu": 0.6, "omega": 0.1, "nu": 0.05, "o": 0.0}
BB84_PROBS = {"mu": 0.5, "omega": 0.2, "nu": 0.15, "o": 0.15}


def bb84_oracle(params: Bb84Params, n_pulses: int, seed: int) -> dict:
    """Photon-number-resolved Monte Carlo of the BB84 receiver.

    Passive basis choice: each emitted photon independently enters the Z
    apparatus with probability q_z and is detected there with the channel
    efficiency; an apparatus click is photons-or-darks, and double-apparatus
    clicks are assigned to a basis by coin flip.  Dark-only clicks carry a
    random bit; photon clicks flip with the misalignment probability.
    Returns observed counts plus ground-truth single-photon tallies.
    """
    rng = np.random.default_rng(seed)
    labels = list(LABEL_ORDER)
    probs = np.array([params.probs[l] for l in labels])
    intensities = np.array([params.intensities[l] for l in labels])
    eta = params.eta
    p_d = params.dark_prob
    q_z = params.q_z

    which = rng.choice(len(labels), size=n_pulses, p=probs)
    photons = rng.poisson(intensities[which])
    detected_z = rng.binomial(photons, q_z * eta)
    detected_x = rng.binomial(photons - detected_z, (1.0 - q_z) * eta / (1.0 - q_z * eta))
    dark_z = rng.random(n_pulses) < 1.0 - (1.0 - p_d) ** 2
    dark_x = rng.random(n_pulses) < 1.0 - (1.0 - p_d) ** 2
    click_z = (detected_z > 0) | dark_z
    click_x = (detected_x > 0) | dark_x
    coin = rng.random(n_pulses) < 0.5
    counted_z = click_z & (~click_x | coin)
    counted_x = click_x & (~click_z | ~coin)
    err_draw = rng.random(n_pulses)
    error_z = np.where(detected_z > 0, err_draw < params.misalignment, err_draw < 0.5)
    error_x = np.where(detected_x > 0, err_draw < params.misalignment, err_draw < 0.5)

    out = {"n_z": {}, "m_z": {}, "n_x": {}, "m_x": {},
           "single_z": 0, "single_z_err": 0, "single_x": 0, "single_x_err": 0,
           "vacuum_z": 0}
    single = photons == 1
    for idx, lab in enumerate(labels):
        sel = which == idx
        out["n_z"][lab] = int(np.count_nonzero(sel & counted_z))
        out["m_z"][lab] = int(np.count_nonzero(sel & counted_z & error_z))
        out["n_x"][lab] = int(np.count_nonzero(sel & counted_x))
        out["m_x"][lab] = int(np.count_nonzero(sel & counted_x & error_x))
    signal = (which == 0) | (which == 2)  # mu and nu feed the Z-basis estimate
    out["single_z"] = int(np.count_nonzero(signal & single & counted_z))
    out["single_z_err"] = int(np.count_nonzero(signal & single & counted_z & error_z))
    omega_sel = which == 1
    out["single_x"] = int(np.count_nonzero(omega_sel & single & counted_x))
    out["single_x_err"] = int(np.count_nonzero(omega_sel & single & counted_x & error_x))
    out["vacuum_z"] = int(np.count_nonzero(signal & (photons == 0) & counted_z))
    return out


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
        three = SourceConfig.from_params(dict(mu_a=0.7, nu_a=0.02, p_mu_a=0.5, p_nu_a=0.3,
                                              mu_b=0.7, nu_b=0.02, p_mu_b=0.5, p_nu_b=0.3))
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

    @pytest.mark.parametrize("scan_grid", [0, 1])
    def test_rejects_grid_below_two(self, scan_grid):
        with pytest.raises(ValueError, match="scan_grid"):
            mdi_key_rate(*mdi_params(40.0), 3.2e14, 1e-10, scan_grid=scan_grid)

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

    def test_infeasible_result_has_the_feasible_keys(self):
        # an infeasible point once came back without qber_z and with leakage 0
        feasible = bb84_key_rate(bb84_params(100.0), 1e13, 1e-10)
        assert feasible["rate_per_pulse"] > 0.0
        params = bb84_params(400.0)
        res = bb84_key_rate(params, 1e11, 1e-10)
        assert res["rate_per_pulse"] == 0.0
        assert res.keys() == feasible.keys()
        assert res["phi_z"] == 0.5
        obs = bb84_observables(params, 1e11)
        n_ec = obs.n_z["mu"] + obs.n_z["nu"]
        qber = (obs.m_z["mu"] + obs.m_z["nu"]) / n_ec
        assert res["qber_z"] == pytest.approx(qber, rel=1e-12)
        assert res["leakage"] == pytest.approx(n_ec * 1.1 * binary_entropy(qber), rel=1e-12)
        assert res["leakage"] > 0.0

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


class TestBb84Columns:
    """``Bb84Params`` holding (B,) columns, checked by the float validators."""

    def test_q_z_out_of_range_names_the_candidate(self):
        link, det = link_and_det(50.0, 0.0)
        ints = {k: np.full(3, v) for k, v in BB84_INTS.items()}
        probs = {k: np.full(3, v) for k, v in BB84_PROBS.items()}
        with pytest.raises(ValueError, match=r"candidate 2: q_z must be in \(0, 1\)"):
            Bb84Params(ints, probs, link, det, q_z=np.array([0.5, 0.9, 1.0]))
        with pytest.raises(ValueError, match=r"candidate 1: intensities must be finite"):
            Bb84Params({**ints, "nu": np.array([0.05, 0.7, 0.05])}, probs, link, det)
        Bb84Params(ints, probs, link, det, q_z=np.array([0.5, 0.9, 0.1]))

    def test_from_params_matches_float_rows(self):
        # the vacuum probability is what mu, omega and nu leave, in that order
        link, det = link_and_det(50.0, 0.0)
        rng = np.random.default_rng(4)
        keys = ("mu_a", "omega_a", "nu_a", "p_mu_a", "p_omega_a", "p_nu_a", "q_z")
        rows = [dict(zip(keys, (0.8, 0.3, 0.05, *rng.uniform(0.05, 0.3, 3), rng.uniform(0.1, 0.9))))
                for _ in range(40)]
        columns = Bb84Params.from_params({k: np.array([r[k] for r in rows]) for k in keys},
                                         link, det)
        for i, row in enumerate(rows):
            prm = Bb84Params.from_params(row, link, det)
            want = 1.0 - (row["p_mu_a"] + row["p_omega_a"] + row["p_nu_a"])
            assert prm.probs["o"] == want == columns.probs["o"][i]
            assert (prm.q_z, prm.intensities["o"]) == (columns.q_z[i], 0.0)

    # BB84 reads side a and q_z only; a side-b level or a window is rejected
    @pytest.mark.parametrize("changes, named", [
        (dict(mu_b=0.5), r"unread keys \['mu_b'\]"),
        (dict(tc_bins=1e6), r"unread keys \['tc_bins'\]"),
        (dict(q_z=None), r"missing keys \['q_z'\]"),
    ], ids=["mu_b", "tc_bins", "no-q_z"])
    def test_from_params_takes_exactly_its_keys(self, changes, named):
        params = dict(mu_a=0.6, omega_a=0.1, nu_a=0.05, p_mu_a=0.5, p_omega_a=0.2, p_nu_a=0.15,
                      q_z=0.5)
        params = {k: v for k, v in {**params, **changes}.items() if v is not None}
        with pytest.raises(ValueError, match=named):
            Bb84Params.from_params(params, *link_and_det(50.0, 0.0))


def scalar_baseline(kind, params, link, det, n_pulses, preset):
    """The scalar reference, called as the sweep's baseline objective calls it."""
    if kind == "mdi-baseline":
        return mdi_key_rate(SourceConfig.from_params(params, True), link, det, n_pulses,
                            preset.eps, preset.error_correction_f)
    ints = {"mu": params["mu_a"], "omega": params["omega_a"], "nu": params["nu_a"], "o": 0.0}
    probs = {"mu": params["p_mu_a"], "omega": params["p_omega_a"], "nu": params["p_nu_a"]}
    probs["o"] = 1.0 - sum(probs.values())
    prm = Bb84Params(ints, probs, link, det, q_z=params["q_z"])
    return bb84_key_rate(prm, n_pulses, preset.eps, preset.error_correction_f)


class TestRateBatch:
    """``mdi_key_rate`` and ``bb84_key_rate`` on (B,) columns against one
    candidate at a time."""

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(scenario.BASELINE_VARIANTS), where=link_draws(), data=st.data())
    def test_matches_scalar(self, kind, where, data):
        dist, asym, log_n = where
        asym = min(asym, dist)
        preset = scenario.DEVICE_PRESETS["fig4"]
        link, det = preset.link((dist + asym) / 2.0, (dist - asym) / 2.0), preset.detector()
        space = scenario._baseline_space(kind)
        batch = decoded_rows(space, np.array(data.draw(genotype_batches(space))))
        n_pulses = 10.0 ** log_n
        columns = {k: np.array([p[k] for p in batch]) for k in batch[0]}
        if kind == "mdi-baseline":
            got = mdi_key_rate(SourceConfig.from_params(columns, True), link, det, n_pulses,
                               preset.eps, preset.error_correction_f)
        else:
            got = bb84_key_rate(Bb84Params.from_params(columns, link, det), n_pulses,
                                preset.eps, preset.error_correction_f)
        want = [scalar_baseline(kind, p, link, det, n_pulses, preset) for p in batch]
        # the baselines report no single-photon term; the vacuum term sets the scale
        check_against_scalar(got["rate_per_pulse"], [w["rate_per_pulse"] for w in want],
                             [w["n0"] / n_pulses for w in want])

    def test_rejects_what_the_scalar_form_rejects(self):
        link, det = link_and_det(50.0, 0.0)
        columns = {f"{k}_a": np.array([v, v]) for k, v in BB84_INTS.items() if k != "o"}
        columns.update({f"p_{k}_a": np.array([v, v]) for k, v in BB84_PROBS.items() if k != "o"})
        columns["q_z"] = np.array([0.5, 1.0])
        with pytest.raises(ValueError, match="q_z"):
            bb84_key_rate(Bb84Params.from_params(columns, link, det), 1e12, 1e-10)
        columns["q_z"] = np.array([0.5, 0.5])
        columns["omega_a"] = np.array([0.1, 0.9])  # omega above mu
        with pytest.raises(ValueError, match="candidate 1"):
            bb84_key_rate(Bb84Params.from_params(columns, link, det), 1e12, 1e-10)
