import dataclasses
import math
from functools import lru_cache

import numpy as np
import pytest

from amdiqkd import decoy
from amdiqkd.channel import SourceConfig, click_table, expected_observables
from amdiqkd.decoy import (
    X_KEY,
    double_scan,
    estimate,
    pairing_probs,
    xbasis_vacuum_errors_lower,
    z_key_groups,
)
from amdiqkd.stats import COLUMNS, FLOATS, chernoff_expected

from test_channel import DET, make_link, make_source


def zero_counts(source):
    return dict.fromkeys(source.layout.groups, 0.0)


def observables(source, l_a=50.0, l_b=50.0, n_pulses=1e12, **link_kw):
    link = make_link(l_a, l_b, **link_kw)
    return expected_observables(source, link, DET, n_pulses), link


class TestPairingProbs:
    def test_vacuum_group_single_split(self):
        src = make_source(click_filtering=False)
        probs = pairing_probs(src, phase_slices=16)
        p_oa = src.probabilities_a["o"]
        p_ob = src.probabilities_b["o"]
        assert probs[(("o", "o"), ("o", "o"))] == pytest.approx((p_oa * p_ob) ** 2, rel=1e-12)

    @pytest.mark.parametrize("four_intensity, click_filtering", [
        pytest.param(False, False, id="three-unfiltered"),
        pytest.param(False, True, id="three-filtered"),
        pytest.param(True, False, id="four-unfiltered"),
        pytest.param(True, True, id="four-filtered"),
    ])
    def test_brute_force_enumeration(self, four_intensity, click_filtering):
        # independent oracle: enumerate every (early, late) label assignment,
        # drop those with a filtered bin, and sift the matched-phase groups
        omega = {}
        if four_intensity:
            omega = dict(omega_a=0.15, p_omega_a=0.1, omega_b=0.2, p_omega_b=0.12)
        src = make_source(click_filtering=click_filtering, p_mu_a=0.5, p_nu_a=0.3,
                          p_mu_b=0.4, p_nu_b=0.35, **omega)
        m_slices = 16
        probs = pairing_probs(src, phase_slices=m_slices)
        labels = src.labels
        p_a, p_b = src.probabilities_a, src.probabilities_b

        def kept(la, lb):
            return not click_filtering or la == lb or "o" in (la, lb)

        p_s = sum(p_a[la] * p_b[lb] for la in labels for lb in labels if kept(la, lb))
        acc = {}
        for ae in labels:
            for al in labels:
                for be in labels:
                    for bl in labels:
                        if not (kept(ae, be) and kept(al, bl)):
                            continue
                        key = (
                            tuple(sorted((ae, al), key=labels.index)),
                            tuple(sorted((be, bl), key=labels.index)),
                        )
                        acc[key] = acc.get(key, 0.0) + (
                            p_a[ae] * p_b[be] * p_a[al] * p_b[bl] / p_s**2
                        )
        # every kept (early, late) assignment lands in exactly one group
        assert sum(acc.values()) == pytest.approx(1.0, rel=1e-12)
        key_mumu = (("mu", "mu"), ("mu", "mu"))
        assert acc[key_mumu] == pytest.approx((0.5 * 0.4 / p_s) ** 2, rel=1e-12)
        n_totals = len(labels) * (len(labels) + 1) // 2
        assert len(probs) == n_totals**2
        assert set(acc) <= set(probs)
        for key, p in probs.items():
            (a1, a2), (b1, b2) = key
            sifted = a1 == a2 == b1 == b2 != "o"
            expected = acc.get(key, 0.0) * (2.0 / m_slices if sifted else 1.0)
            assert p == pytest.approx(expected, rel=1e-12, abs=0.0), key

    def test_x_group_carries_phase_factor(self):
        src = make_source()
        probs = pairing_probs(src, phase_slices=16)
        p_s = src.survival_prob
        expected = (2.0 / 16) * (0.3 * 0.3 / p_s) ** 2
        assert probs[X_KEY] == pytest.approx(expected, rel=1e-12)

    def test_filtering_removes_cross_splits(self):
        src = make_source(click_filtering=True)
        probs = pairing_probs(src, phase_slices=16)
        # [mu_a, nu_b] can only arise from bins (mu|o) and (o|nu) once filtered
        p = probs[(("mu", "o"), ("nu", "o"))]
        p_s = src.survival_prob
        manual = 2.0 * (0.5 * 0.2 / p_s) * (0.2 * 0.3 / p_s)
        assert p == pytest.approx(manual, rel=1e-12)


class TestJointBound:
    def test_single_term_matches_chernoff(self):
        val = decoy._joint_bound(FLOATS, [(2.5, 1000.0)], "lower", 1e-10)
        lower, _ = chernoff_expected(1000.0, 1e-10)
        assert val == pytest.approx(2.5 * lower, rel=1e-12)

    def test_equal_coefficients_collapse_to_sum(self):
        terms = [(3.0, 100.0), (3.0, 400.0), (3.0, 900.0)]
        lower, upper = chernoff_expected(1400.0, 1e-10)
        lo = decoy._joint_bound(FLOATS, terms, "lower", 1e-10)
        assert lo == pytest.approx(3.0 * lower, rel=1e-12)
        up = decoy._joint_bound(FLOATS, terms, "upper", 1e-10)
        assert up == pytest.approx(3.0 * upper, rel=1e-12)

    def test_dominates_naive_on_random_instances(self):
        rng = np.random.default_rng(20240809)
        for _ in range(1000):
            terms = [
                (float(rng.uniform(0.1, 10.0)), float(rng.uniform(0.0, 1e5)))
                for _ in range(4)
            ]
            joint_lo = decoy._joint_bound(FLOATS, terms, "lower", 1e-10)
            naive_lo = sum(c * chernoff_expected(v, 1e-10)[0] for c, v in terms)
            assert joint_lo >= naive_lo - 1e-9
            joint_up = decoy._joint_bound(FLOATS, terms, "upper", 1e-10)
            naive_up = sum(c * chernoff_expected(v, 1e-10)[1] for c, v in terms)
            assert joint_up <= naive_up + 1e-9

    def test_rejects_bad_combos(self):
        with pytest.raises(ValueError):
            decoy._joint_bound(FLOATS, [(1.0, 1.0)], "sideways", 1e-10)


class TestZGroups:
    def test_filtering_forces_signal_group(self):
        assert z_key_groups(make_source(click_filtering=True)) == [(("mu", "o"), ("mu", "o"))]

    def test_no_filtering_gives_four_groups(self):
        assert len(z_key_groups(make_source(click_filtering=False))) == 4

    def test_signal_only_mode(self):
        groups = z_key_groups(make_source(click_filtering=False), mode="signal_only")
        assert groups == [(("mu", "o"), ("mu", "o"))]


class TestVacuumEvents:
    def test_all_zero_counts(self):
        src = make_source()
        probs = pairing_probs(src, 16)
        val = decoy._vacuum_events_lower(
            FLOATS, zero_counts(src), probs, src, z_key_groups(src), 1e-10)
        assert val == 0.0

    def test_symmetric_sides_agree(self):
        src = make_source()
        obs, link = observables(src)
        probs = pairing_probs(src, 16)
        (group,) = z_key_groups(src)
        ta, tb = group
        k = src.intensities_a["mu"]
        via_a = math.exp(-k) * probs[group] / probs[(("o", "o"), tb)] * obs.counts[(("o", "o"), tb)]
        via_b = math.exp(-k) * probs[group] / probs[(ta, ("o", "o"))] * obs.counts[(ta, ("o", "o"))]
        assert via_a == pytest.approx(via_b, rel=1e-9)

    def test_hand_evaluated_asymmetric_case(self):
        # spreadsheet-style evaluation on closed-form counts
        src = SourceConfig.from_params(dict(
            mu_a=0.6, nu_a=0.06, p_mu_a=0.45, p_nu_a=0.3,
            mu_b=0.4, nu_b=0.04, p_mu_b=0.55, p_nu_b=0.25,
        ), click_filtering=True)
        obs, link = observables(src, 70.0, 30.0)
        probs = pairing_probs(src, 16)
        got = decoy._vacuum_events_lower(FLOATS, obs.counts, probs, src, z_key_groups(src), None)
        group = (("mu", "o"), ("mu", "o"))
        oo = ("o", "o")
        by_hand = max(
            math.exp(-0.6) * probs[group] / probs[(oo, ("mu", "o"))] * obs.counts[(oo, ("mu", "o"))],
            math.exp(-0.4) * probs[group] / probs[(("mu", "o"), oo)] * obs.counts[(("mu", "o"), oo)],
        )
        assert got == pytest.approx(by_hand, rel=1e-12)


class TestSinglePhotonPairs:
    def test_all_zero_counts(self):
        src = make_source()
        probs = pairing_probs(src, 16)
        z_sum = decoy._zgroup_intensity_sum(FLOATS, probs, src, z_key_groups(src))
        val = decoy._single_photon_pairs_z_lower(FLOATS, zero_counts(src), probs, src, z_sum, 1e-10)
        assert val == 0.0

    def test_tie_case_branches_agree(self):
        # mu_a/mu_b == nu_a/nu_b: both primed-level selections coincide
        src_a = SourceConfig.from_params(dict(
            mu_a=0.5, nu_a=0.05, p_mu_a=0.5, p_nu_a=0.3,
            mu_b=0.25, nu_b=0.025, p_mu_b=0.5, p_nu_b=0.3,
        ))
        obs, _ = observables(src_a, 40.0, 60.0)
        probs = pairing_probs(src_a, 16)
        z_sum = decoy._zgroup_intensity_sum(FLOATS, probs, src_a, z_key_groups(src_a))
        from amdiqkd import decoy as decoy_mod

        original = decoy_mod._primed_levels
        try:
            decoy_mod._primed_levels = lambda ops, s, hi, lo: (s.intensities_a[hi], s.intensities_a[lo])
            via_a = decoy._single_photon_pairs_z_lower(
                FLOATS, obs.counts, probs, src_a, z_sum, None)
            decoy_mod._primed_levels = lambda ops, s, hi, lo: (s.intensities_b[hi], s.intensities_b[lo])
            via_b = decoy._single_photon_pairs_z_lower(
                FLOATS, obs.counts, probs, src_a, z_sum, None)
        finally:
            decoy_mod._primed_levels = original
        assert via_a == pytest.approx(via_b, rel=1e-9)

    def test_four_intensity_degenerate_matches_three(self):
        # with the extra level mirroring the signal level, the four-intensity
        # bound is the three-intensity formula under symbol substitution
        src3 = make_source()
        obs, _ = observables(src3)
        probs3 = pairing_probs(src3, 16)
        groups = z_key_groups(src3)
        z_sum3 = decoy._zgroup_intensity_sum(FLOATS, probs3, src3, groups)
        val3 = decoy._single_photon_pairs_z_lower(FLOATS, obs.counts, probs3, src3, z_sum3, None)

        src4 = make_source(omega_a=0.45, p_omega_a=0.05, omega_b=0.45, p_omega_b=0.05)
        probs4 = dict(pairing_probs(src4, 16))  # a copy to edit
        counts4 = zero_counts(src4)
        # copy the three-intensity table and mirror mu-entries into omega slots
        def promote(total):
            return tuple("omega" if l == "mu" else l for l in total)

        for (ta, tb), v in obs.counts.items():
            counts4[(ta, tb)] = v
            counts4[(promote(ta), promote(tb))] = v if promote(ta) != ta or promote(tb) != tb else v
        # make omega levels numerically equal to mu for the substitution check
        object.__setattr__(src4, "intensities_a", {**src4.intensities_a, "omega": 0.5})
        object.__setattr__(src4, "intensities_b", {**src4.intensities_b, "omega": 0.5})
        probs4.update(
            {
                (promote(ta), promote(tb)): probs3[(ta, tb)]
                for (ta, tb) in probs3
                if promote(ta) != ta or promote(tb) != tb
            }
        )
        for (ta, tb) in probs3:
            probs4[(ta, tb)] = probs3[(ta, tb)]
        z_sum4 = decoy._zgroup_intensity_sum(FLOATS, probs4, src4, groups)
        val4 = decoy._single_photon_pairs_z_lower(FLOATS, counts4, probs4, src4, z_sum4, None)
        assert val4 == pytest.approx(val3, rel=1e-9)


class TestRatioAndErrors:
    def test_ratio_invariant_under_count_rescaling(self):
        src = make_source()
        probs = pairing_probs(src, 16)
        z_sum = decoy._zgroup_intensity_sum(FLOATS, probs, src, z_key_groups(src))
        r1 = decoy._zx_count_ratio(FLOATS, probs, src, z_sum)
        assert r1 > 0.0
        # pure probability ratio: no counts involved
        assert decoy._zx_count_ratio(FLOATS, probs, src, z_sum) == r1

    def test_filtering_collapses_ratio_to_single_term(self):
        src = make_source(click_filtering=True)
        probs = pairing_probs(src, 16)
        z_sum = decoy._zgroup_intensity_sum(FLOATS, probs, src, z_key_groups(src))
        mu_a, mu_b = 0.5, 0.5
        nu_a, nu_b = 0.05, 0.05
        manual = (
            mu_a * mu_b * math.exp(-mu_a - mu_b) * probs[(("mu", "o"), ("mu", "o"))]
        ) / (4.0 * nu_a * nu_b * math.exp(-2 * nu_a - 2 * nu_b) * probs[X_KEY])
        assert decoy._zx_count_ratio(FLOATS, probs, src, z_sum) == pytest.approx(manual, rel=1e-12)

    def test_vacuum_error_bound_zero_counts(self):
        src = make_source()
        probs = pairing_probs(src, 16)
        assert xbasis_vacuum_errors_lower(zero_counts(src), probs, src, 1e-10) == 0.0

    def test_vacuum_error_bound_symmetric_terms(self):
        src = make_source()
        obs, _ = observables(src)
        probs = pairing_probs(src, 16)
        oo = ("o", "o")
        two_nu = ("nu", "nu")
        t1 = math.exp(-0.1) * probs[X_KEY] / (2 * probs[(oo, two_nu)]) * obs.counts[(oo, two_nu)]
        t2 = math.exp(-0.1) * probs[X_KEY] / (2 * probs[(two_nu, oo)]) * obs.counts[(two_nu, oo)]
        assert t1 == pytest.approx(t2, rel=1e-9)


class TestEstimate:
    def test_trivial_phase_error_edges(self):
        src = make_source()
        obs, link = observables(src)
        est = estimate(obs.counts, obs.m_x, src, 16, eps=1e-10, phase_error_method="direct")
        assert 0.0 <= est.phi11_z <= 0.5
        assert est.s11_z <= est.s11_z_star
        assert est.t11_x >= 0.0

    def test_infinite_statistics_sampling_equals_error_rate(self):
        src = make_source()
        obs, link = observables(src, n_pulses=1e16)
        est_rs = estimate(obs.counts, obs.m_x, src, 16, eps=1e-10, phase_error_method="random_sampling")
        est_exact = estimate(obs.counts, obs.m_x, src, 16, eps=None, phase_error_method="random_sampling")
        assert est_rs.phi11_z == pytest.approx(est_exact.e11_x, rel=0.05)

    def test_direct_scale_invariance(self):
        # scaling every count by the same factor leaves the exact-mode ratio alone
        src = make_source()
        obs, _ = observables(src)
        est1 = estimate(obs.counts, obs.m_x, src, 16, eps=None)
        scaled = {k: 10.0 * v for k, v in obs.counts.items()}
        est2 = estimate(scaled, 10.0 * obs.m_x, src, 16, eps=None)
        assert est1.phi11_z == pytest.approx(est2.phi11_z, rel=1e-9)

    def test_all_bounds_clamped(self):
        src = make_source()
        est = estimate(zero_counts(src), 0.0, src, 16, eps=1e-10)
        assert est.s0_z == 0.0
        assert est.s11_z == 0.0
        assert est.infeasible
        assert est.phi11_z == 0.5

    def test_monotone_in_statistics(self):
        src = make_source()
        obs_small, _ = observables(src, n_pulses=1e11)
        obs_big, _ = observables(src, n_pulses=1e12)
        est_small = estimate(obs_small.counts, obs_small.m_x, src, 16, eps=1e-10)
        est_big = estimate(obs_big.counts, obs_big.m_x, src, 16, eps=1e-10)
        assert est_big.s11_z / 1e12 >= est_small.s11_z / 1e11 - 1e-15


class TestDoubleScan:
    def test_degenerate_rectangle_single_evaluation(self):
        src = make_source()
        obs, _ = observables(src)
        probs = pairing_probs(src, 16)
        res = double_scan(obs.counts, obs.m_x, probs, src, eps=None)
        # without statistical slack the rectangle collapses to a point
        grid = double_scan(obs.counts, obs.m_x, probs, src, eps=None, grid=5)
        assert res.e11x_star == pytest.approx(grid.e11x_star, rel=1e-12)

    @pytest.mark.parametrize("dist", [(50.0, 50.0), (100.0, 60.0), (150.0, 150.0)])
    def test_corner_scan_matches_dense_grid(self, dist):
        src = make_source()
        obs, _ = observables(src, *dist, n_pulses=1e12)
        probs = pairing_probs(src, 16)
        corners = double_scan(obs.counts, obs.m_x, probs, src, eps=1e-10)
        grid = double_scan(obs.counts, obs.m_x, probs, src, eps=1e-10, grid=50)
        assert corners.e11x_star >= grid.e11x_star - 1e-9
        assert corners.e11x_star == pytest.approx(grid.e11x_star, rel=1e-9)

    # a dense grid needs two points a side: one would divide by zero
    @pytest.mark.parametrize("grid", [0, 1])
    def test_rejects_grid_below_two(self, grid):
        src = make_source()
        obs, _ = observables(src)
        probs = pairing_probs(src, 16)
        with pytest.raises(ValueError, match="scan_grid"):
            double_scan(obs.counts, obs.m_x, probs, src, eps=1e-10, grid=grid)


@lru_cache(maxsize=None)
def column_draws(four_intensity, click_filtering, rows=40):
    """``rows`` seeded parameter sets, each with its own link (0-500 km, 1e10-1e14
    pulses) and its closed-form observables, as float sources and counts plus
    the same values as a column ``SourceConfig`` and (rows,) count columns.  The last
    row's counts are all zero, like a batch row without pairs."""
    rng = np.random.default_rng(1410 + 2 * four_intensity + click_filtering)
    sources, tables, m_x, params = [], [], [], []
    for i in range(rows):
        p = {}
        for side in "ab":
            mu = rng.uniform(0.2, 0.8)
            p[f"mu_{side}"], p[f"nu_{side}"] = mu, mu * rng.uniform(0.02, 0.14)
            p[f"p_mu_{side}"], p[f"p_nu_{side}"] = rng.uniform(0.3, 0.55), rng.uniform(0.1, 0.3)
            if four_intensity:
                p[f"omega_{side}"] = rng.uniform(p[f"nu_{side}"], mu)
                p[f"p_omega_{side}"] = rng.uniform(0.05, 0.15)
        src = SourceConfig.from_params(p, four_intensity, click_filtering)
        dist = rng.uniform(0.0, 500.0)
        obs = expected_observables(src, make_link(dist / 2.0, dist / 2.0), DET,
                                   10.0 ** rng.uniform(10.0, 14.0))
        zero = i == rows - 1
        sources.append(src)
        tables.append({g: 0.0 if zero else v for g, v in obs.counts.items()})
        m_x.append(0.0 if zero else obs.m_x)
        params.append(p)
    batch = SourceConfig.from_params({k: np.array([p[k] for p in params]) for k in params[0]},
                                     four_intensity, click_filtering)
    counts = {g: np.array([t[g] for t in tables]) for g in tables[0]}
    return sources, tables, m_x, batch, counts, np.array(m_x)


VARIANTS = [
    pytest.param(False, True, id="three-filtered"),
    pytest.param(False, False, id="three-unfiltered"),
    pytest.param(True, True, id="four-filtered"),
]


class TestColumns:
    """The public functions and bodies on (B,) columns against the same ones
    on floats, row by row.  Both run the same operations in the same order, so
    every value agrees exactly."""

    @pytest.mark.parametrize("four_intensity, click_filtering", VARIANTS)
    def test_pairing_probs(self, four_intensity, click_filtering):
        sources, _, _, batch, _, m_x = column_draws(four_intensity, click_filtering)
        got = pairing_probs(batch, 16)
        # groups without a surviving split come back as the float 0.0
        assert (not click_filtering) or any(isinstance(v, float) for v in got.values())
        for i, src in enumerate(sources):
            for key, want in pairing_probs(src, 16).items():
                assert np.broadcast_to(got[key], m_x.shape)[i] == want, (i, key)

    @pytest.mark.parametrize("drift", [False, True], ids=["still", "drifting"])
    @pytest.mark.parametrize("four_intensity, click_filtering",
                             [*VARIANTS, pytest.param(True, False, id="four-unfiltered")])
    def test_observables(self, four_intensity, click_filtering, drift):
        # one link for the batch, each row with its own pairing window; the
        # drifting link shifts the late bin's phase, so sin and cos of a
        # nonzero angle run
        sources, _, _, batch, _, _ = column_draws(four_intensity, click_filtering)
        still = dict(phase_drift_rad_per_s=0.0, laser_offset_hz=0.0, interference_error=0.0)
        link = make_link(70.0, 40.0, **({} if drift else still))
        windows = 10.0 ** np.random.default_rng(5).uniform(0.0, 7.0, len(sources))
        table = click_table(batch, link, DET)
        got = expected_observables(dataclasses.replace(batch, pairing_window_bins=windows),
                                   link, DET, 1e13)
        for i, src in enumerate(sources):
            src = dataclasses.replace(src, pairing_window_bins=float(windows[i]))
            for pair, want in click_table(src, link, DET).items():
                assert table[pair][i] == want, (i, pair)
            want = expected_observables(src, link, DET, 1e13)
            assert want.n_pairs > 0.0
            for name in ("n_pairs", "t_mean_s", "q_tot", "m_x"):
                assert getattr(got, name)[i] == getattr(want, name), (i, name)
            for name in ("counts", "z_qber"):
                values = getattr(want, name)
                assert getattr(got, name).keys() == values.keys()
                for key, value in values.items():
                    assert getattr(got, name)[key][i] == value, (i, name, key)
            assert got.n_pulses == want.n_pulses
        if drift:
            assert link.drift_phase(got.t_mean_s.min()) > 0.0

    @pytest.mark.parametrize("eps", [None, 1e-10])
    @pytest.mark.parametrize("double_scanning", [False, True], ids=["corners-off", "scan"])
    @pytest.mark.parametrize("method", ["direct", "random_sampling"])
    @pytest.mark.parametrize("four_intensity, click_filtering", VARIANTS)
    def test_estimate(self, four_intensity, click_filtering, method, double_scanning, eps):
        sources, tables, m_x, batch, counts, m_x_col = column_draws(four_intensity, click_filtering)
        probs = pairing_probs(batch, 16)
        scan = double_scan(counts, m_x_col, probs, batch, eps) if double_scanning else None
        got = estimate(counts, m_x_col, batch, 16, eps, phase_error_method=method,
                       double_scanning=double_scanning)
        infeasible = 0
        for i, src in enumerate(sources):
            want = estimate(tables[i], m_x[i], src, 16, eps, phase_error_method=method,
                            double_scanning=double_scanning)
            for field in dataclasses.fields(want):
                assert getattr(got, field.name)[i] == getattr(want, field.name), (i, field.name)
            infeasible += want.infeasible
            if double_scanning:
                want_scan = double_scan(tables[i], m_x[i], pairing_probs(src, 16), src, eps)
                assert scan.e11x_star[i] == want_scan.e11x_star
                assert scan.s11x_star[i] == want_scan.s11x_star
                assert scan.t11x_star[i] == want_scan.t11x_star
                assert [tuple(v[i] for v in c) for c in scan.corners] == list(want_scan.corners)
        assert 0 < infeasible < len(sources)

    @pytest.mark.parametrize("eps", [None, 1e-10])
    @pytest.mark.parametrize("direction", ["lower", "upper"])
    def test_joint_bound(self, direction, eps):
        # coefficients from a small set, so rows hold ties and zero steps (a
        # zero coefficient first); the last term is plain floats on both sides
        rng = np.random.default_rng(77)
        for n_terms in range(1, 6):
            coefs = rng.choice([0.0, 0.5, 1.5, 1.5, 3.0], size=(n_terms, 300))
            counts = rng.uniform(0.0, 1e5, size=(n_terms, 300))
            counts[rng.uniform(size=counts.shape) < 0.1] = 0.0
            got = decoy._joint_bound(COLUMNS, [*zip(coefs, counts), (1.5, 0.0)], direction, eps)
            for i in range(coefs.shape[1]):
                terms = [(float(c), float(v)) for c, v in zip(coefs[:, i], counts[:, i])]
                want = decoy._joint_bound(FLOATS, [*terms, (1.5, 0.0)], direction, eps)
                assert got[i] == want, (n_terms, i)

    @pytest.mark.parametrize("eps", [None, 1e-10])
    @pytest.mark.parametrize("name", ["expected_lower", "expected_upper",
                                      "observed_lower", "observed_upper"])
    def test_bound_helpers(self, name, eps):
        # zero and negative placeholders; FLOATS rejects a negative observed
        # count once eps is given
        counts = np.array([0.0, -0.0, -3.5, 1e-300, 1e-9, 0.7, 2.0, 1e4, 1e12, 1e21])
        if name.startswith("expected") and eps is not None:
            counts = counts[~np.signbit(counts)]
        got = getattr(COLUMNS, name)(counts, eps)
        for i, v in enumerate(counts.tolist()):
            want = getattr(FLOATS, name)(v, eps)
            assert got[i] == want and np.signbit(got[i]) == np.signbit(want), (v, got[i], want)

    def test_sampling_correction(self):
        # the first row's log goes negative (g = -4e-21): no correction
        n, k, rate = np.array([[1e21, 1e21, 0.5], [1e6, 1e6, 0.1], [50.0, 80.0, 0.0],
                               [1e12, 1e4, 1.0], [3e9, 2e7, 0.02], [1.0, 1.0, 0.3]]).T
        got = COLUMNS.sampling_correction(n, k, rate, 1e-10)
        assert got[0] == 0.0
        for i in range(n.size):
            assert got[i] == FLOATS.sampling_correction(n[i], k[i], rate[i], 1e-10), i

    def test_entropy_and_no_click(self):
        x = np.array([0.0, 1.0, 1e-12, 0.11, 0.5, 0.999])
        h = COLUMNS.entropy(x)
        for i, v in enumerate(x.tolist()):
            assert h[i] == FLOATS.entropy(v), v
        mean = np.array([0.0, 1e-13, 0.3, 50.0, 800.0])
        y, click = COLUMNS.no_click(mean, 2.5e-11)
        for i, m in enumerate(mean.tolist()):
            assert (y[i], click[i]) == FLOATS.no_click(m, 2.5e-11), m

    def test_first_max_takes_the_first_of_equal_maxima(self):
        rows = [(np.array([1.0, 0.5, 2.0]), np.array([10.0, 11.0, 12.0])),
                (np.array([1.0, 0.7, 2.5]), np.array([20.0, 21.0, 22.0])),
                (np.array([0.5, 0.7, 2.5]), np.array([30.0, 31.0, 32.0]))]
        e, s = COLUMNS.first_max(rows)
        assert e.tolist() == [1.0, 0.7, 2.5] and s.tolist() == [10.0, 21.0, 22.0]
        for i in range(3):
            assert FLOATS.first_max([(float(a[i]), float(b[i])) for a, b in rows]) == (e[i], s[i])
