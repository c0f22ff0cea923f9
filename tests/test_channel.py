import dataclasses
import math
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amdiqkd
from amdiqkd import channel, scenario
from amdiqkd.channel import (
    ChannelLink,
    DetectorPair,
    SourceConfig,
    click_table,
    expected_observables,
    kept_click_prob,
    pair_gain,
    split_sums,
)
from amdiqkd.decoy import pairing_probs
from amdiqkd.stats import COLUMNS, FLOATS

from phase_model import pair_gain_phase

DET = DetectorPair(eta_d=0.8, dark_rate_hz=0.1)

# Uniform phase grid: the trapezoid rule is exact to round-off for the smooth
# periodic integrands of the click model.
THETAS = 2.0 * math.pi * np.arange(256) / 256


def make_link(l_a=50.0, l_b=50.0, clock_hz=1e9, **kw):
    defaults = dict(
        attenuation_db_per_km=0.16,
        phase_drift_rad_per_s=5900.0,
        laser_offset_hz=10.0,
        interference_error=0.04,
        phase_slices=16,
    )
    defaults.update(kw)
    return ChannelLink(l_a, l_b, clock_hz=clock_hz, **defaults)


def make_source(click_filtering=True, **kw):
    params = dict(
        mu_a=0.5, nu_a=0.05, p_mu_a=0.5, p_nu_a=0.3,
        mu_b=0.5, nu_b=0.05, p_mu_b=0.5, p_nu_b=0.3,
    )
    params.update(kw)
    return SourceConfig.from_params(params, "omega_a" in params, click_filtering)


def assert_observable_invariants(obs):
    """Counts are non-negative, fit in the pairs, and bound the X errors."""
    x_key = (("nu", "nu"), ("nu", "nu"))
    assert all(v >= 0.0 for v in obs.counts.values())
    assert sum(obs.counts.values()) <= obs.n_pairs * (1.0 + 1e-9)
    assert obs.m_x <= obs.counts[x_key] * (1.0 + 1e-9)


def table_and_q_tot(src, link, det=DET):
    table = click_table(src, link, det)
    return table, kept_click_prob(src, table)


def raw_counts(src, link, n_pairs, det=DET):
    """Coincidence counts before phase sifting: the plain split decomposition."""
    table, q_tot = table_and_q_tot(src, link, det)
    p_a, p_b = src.probabilities_a, src.probabilities_b
    fractions = {(la, lb): p_a[la] * p_b[lb] * table[(la, lb)] / q_tot for la, lb in src.layout.kept}
    return {key: n_pairs * acc for key, acc in split_sums(src.layout, fractions).items()}


class TestPairGain:
    def test_vacuum_dark_counts_only(self):
        link = make_link()
        p_d = DET.dark_prob(link.clock_hz)
        assert pair_gain(0.0, 0.0, link, DET) == pytest.approx(2.0 * p_d * (1.0 - p_d), rel=1e-12)

    def test_no_light_no_darks(self):
        det = DetectorPair(eta_d=0.8, dark_rate_hz=0.0)
        assert pair_gain(0.0, 0.0, make_link(), det) == 0.0

    def test_phase_average_matches_bessel_form(self):
        # the defining consistency check of the module
        link = make_link(50.0, 50.0)
        closed = pair_gain(0.1, 0.1, link, DET)
        averaged = np.mean(sum(pair_gain_phase(0.1, 0.1, THETAS, link, DET)))
        assert averaged == pytest.approx(closed, rel=1e-12)

    def test_phase_average_matches_bessel_asymmetric(self):
        link = make_link(80.0, 20.0)
        closed = pair_gain(0.4, 0.07, link, DET)
        averaged = np.mean(sum(pair_gain_phase(0.4, 0.07, THETAS, link, DET)))
        assert averaged == pytest.approx(closed, rel=1e-12)

    def test_balanced_at_quarter_period(self):
        q_l, q_r = pair_gain_phase(0.2, 0.3, math.pi / 2.0, make_link(), DET)
        assert q_l == pytest.approx(q_r, rel=1e-12)

    def test_vacuum_partner_is_phase_independent(self):
        link = make_link()
        thetas = np.linspace(0.0, 2.0 * math.pi, 17)
        q_l, q_r = pair_gain_phase(0.3, 0.0, thetas, link, DET)
        assert np.allclose(q_l, q_l[0], rtol=1e-13)
        assert np.allclose(q_r, q_r[0], rtol=1e-13)

    def test_perfect_anticorrelation_at_zero_phase(self):
        det = DetectorPair(eta_d=0.8, dark_rate_hz=0.0)
        q_l, q_r = pair_gain_phase(0.1, 0.1, 0.0, make_link(25.0, 25.0), det)
        assert q_r == 0.0
        assert q_l > 0.0

    def test_monotone_in_intensity_and_efficiency(self):
        # weak-coherent operating regime
        link = make_link(30.0, 40.0)
        ks = [0.0, 0.05, 0.2, 0.5, 1.0]
        for kb in ks:
            vals = [pair_gain(ka, kb, link, DET) for ka in ks]
            assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
        for eta in [0.2, 0.5, 0.8]:
            lo = pair_gain(0.4, 0.3, link, DetectorPair(eta, 0.1))
            hi = pair_gain(0.4, 0.3, link, DetectorPair(min(eta + 0.1, 1.0), 0.1))
            assert lo <= hi


class TestPairing:
    def test_every_click_pairs_in_wide_window(self):
        link, src = make_link(), make_source(tc_bins=1e9)
        q = 1e-3
        n_pairs, t_mean = channel._pairing_statistics(
            FLOATS, 1e12, q, src.pairing_window_bins, link.clock_hz
        )
        assert n_pairs == pytest.approx(1e12 * q / 2.0, rel=1e-6)
        assert t_mean == pytest.approx(1.0 / (link.clock_hz * q), rel=1e-6)

    def test_degenerate_no_clicks(self):
        link, src = make_link(), make_source()
        n_pairs, t_mean = channel._pairing_statistics(
            FLOATS, 1e12, 0.0, src.pairing_window_bins, link.clock_hz
        )
        assert n_pairs == 0.0
        assert math.isinf(t_mean)

    def test_pairing_bound(self):
        link, src = make_link(), make_source(tc_bins=2000.0)
        for q in [1e-5, 1e-4, 1e-3]:
            n_pairs, _ = channel._pairing_statistics(
                FLOATS, 1e10, q, src.pairing_window_bins, link.clock_hz
            )
            assert n_pairs <= 1e10 * q / 2.0 + 1.0


class TestClickFiltering:
    def test_filtering_removes_exactly_the_cross_terms(self):
        src_f = make_source(click_filtering=True)
        src_n = make_source(click_filtering=False)
        link = make_link()
        _, q_f = table_and_q_tot(src_f, link)
        _, q_n = table_and_q_tot(src_n, link)
        cross = (
            src_f.probabilities_a["mu"] * src_f.probabilities_b["nu"]
            * pair_gain(src_f.intensities_a["mu"], src_f.intensities_b["nu"], link, DET)
            + src_f.probabilities_a["nu"] * src_f.probabilities_b["mu"]
            * pair_gain(src_f.intensities_a["nu"], src_f.intensities_b["mu"], link, DET)
        )
        assert q_n - q_f == pytest.approx(cross, rel=1e-12)

    def test_survival_prob(self):
        src = make_source(click_filtering=True)
        assert src.survival_prob == pytest.approx(1.0 - 0.5 * 0.3 - 0.3 * 0.5, rel=1e-12)
        assert make_source(click_filtering=False).survival_prob == 1.0

    def test_survival_prob_independent_of_hash_seed(self):
        # the result must not depend on the string hash seed
        code = (
            "from amdiqkd.channel import SourceConfig\n"
            "from amdiqkd.decoy import pairing_probs\n"
            "src = SourceConfig.from_params(dict(mu_a=0.6, nu_a=0.05, p_mu_a=0.3, p_nu_a=0.2,"
            " omega_a=0.2, p_omega_a=0.17, mu_b=0.55, nu_b=0.04, p_mu_b=0.31, p_nu_b=0.21,"
            " omega_b=0.21, p_omega_b=0.13), four_intensity=True)\n"
            "print(repr(src.survival_prob), repr(pairing_probs(src, 16)))\n"
        )
        outputs = set()
        for hash_seed in ("0", "1", "2", "3"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed,
                   "PYTHONPATH": str(Path(amdiqkd.__file__).resolve().parents[1])}
            result = subprocess.run([sys.executable, "-c", code], env=env,
                                    capture_output=True, text=True, check=True)
            outputs.add(result.stdout)
        assert len(outputs) == 1

    def test_four_intensity_filtered_pairs(self):
        src = make_source(
            omega_a=0.15, p_omega_a=0.1, omega_b=0.15, p_omega_b=0.1, click_filtering=True
        )
        assert src.four_intensity
        assert len(src.layout.kept) == 16 - 6
        assert ("mu", "omega") not in src.layout.kept
        assert ("mu", "mu") in src.layout.kept


class TestCoincidenceCounts:
    def test_vacuum_group_zero_without_darks(self):
        det = DetectorPair(eta_d=0.8, dark_rate_hz=0.0)
        src = make_source()
        link = make_link()
        table, q_tot = table_and_q_tot(src, link, det)
        counts = channel._coincidence_counts(FLOATS, src, link, det, 1e6, q_tot, table)
        assert counts[(("o", "o"), ("o", "o"))] == 0.0

    def test_completeness_without_filtering(self):
        src = make_source(click_filtering=False)
        link = make_link(40.0, 60.0)
        n_pairs = 1e8
        counts = raw_counts(src, link, n_pairs)
        assert sum(counts.values()) == pytest.approx(n_pairs, rel=1e-9)

    def test_phase_sifting_suppresses_matched_group(self):
        src = make_source()
        link = make_link()
        table, q_tot = table_and_q_tot(src, link)
        raw = raw_counts(src, link, 1e8)
        sifted = channel._coincidence_counts(FLOATS, src, link, DET, 1e8, q_tot, table)
        key = (("nu", "nu"), ("nu", "nu"))
        # 2/M of the unsifted count, up to the phase-correlation factor
        assert sifted[key] < raw[key]
        assert sifted[key] == pytest.approx(raw[key] * 2.0 / link.phase_slices, rel=0.6)

    def test_sifted_count_matches_phase_average(self):
        # both bins of a matched-phase pair see the same phase
        src = make_source()
        link = make_link(25.0, 25.0)
        n_pairs, (table, q_tot) = 1e10, table_and_q_tot(src, link)
        counts = channel._coincidence_counts(FLOATS, src, link, DET, n_pairs, q_tot, table)
        for lab in ("mu", "nu"):
            weight = src.probabilities_a[lab] * src.probabilities_b[lab] / q_tot
            q_l, q_r = pair_gain_phase(
                src.intensities_a[lab], src.intensities_b[lab], THETAS, link, DET
            )
            averaged = (
                n_pairs * (2.0 / link.phase_slices) * np.mean((weight * (q_l + q_r)) ** 2)
            )
            assert counts[((lab, lab), (lab, lab))] == pytest.approx(averaged, rel=1e-12)

    def test_totals_enumeration(self):
        layout = make_source().layout
        assert len(layout.totals) == 6
        assert ("mu", "nu") in layout.totals
        assert len(layout.groups) == 36
        # a mixed total splits both ways; filtering drops the (mu|nu) bins
        splits = dict(zip(layout.groups, layout.splits))
        assert splits[(("mu", "nu"), ("o", "o"))] == (
            (("mu", "o"), ("nu", "o")), (("nu", "o"), ("mu", "o")),
        )
        assert splits[(("mu", "nu"), ("mu", "nu"))] == (
            (("mu", "mu"), ("nu", "nu")), (("nu", "nu"), ("mu", "mu")),
        )


class TestObservables:
    def test_full_set_consistency(self):
        src = make_source()
        link = make_link(60.0, 40.0)
        obs = expected_observables(src, link, DET, 1e12)
        assert_observable_invariants(obs)
        x_key = (("nu", "nu"), ("nu", "nu"))
        assert 0.0 < obs.m_x <= obs.counts[x_key]
        assert obs.n_pairs <= 1e12 * obs.q_tot / 2.0 + 1.0

    def test_xbasis_errors_grow_with_misalignment(self):
        src = make_source()
        base = expected_observables(src, make_link(interference_error=0.0,
                                                   phase_drift_rad_per_s=0.0,
                                                   laser_offset_hz=0.0), DET, 1e12)
        noisy = expected_observables(src, make_link(), DET, 1e12)
        assert base.m_x < noisy.m_x

    def test_xbasis_errors_match_phase_average(self):
        # the late bin runs ahead by the drift phase; misalignment swaps the verdict
        src = make_source()
        link = make_link(25.0, 25.0, phase_drift_rad_per_s=3e5)
        n_pairs, (_, q_tot) = 1e10, table_and_q_tot(src, link)
        t_mean = 2e-6
        delta = link.drift_phase(t_mean)
        assert 0.1 < delta % (2.0 * math.pi) < 2.0 * math.pi - 0.1
        nu_a, nu_b = src.intensities_a["nu"], src.intensities_b["nu"]
        q_l, q_r = pair_gain_phase(nu_a, nu_b, THETAS, link, DET)
        q_l_d, q_r_d = pair_gain_phase(nu_a, nu_b, THETAS + delta, link, DET)
        e_mis = link.interference_error
        mixed = (1.0 - e_mis) * (q_l * q_r_d + q_r * q_l_d) + e_mis * (q_l * q_l_d + q_r * q_r_d)
        weight = (src.probabilities_a["nu"] * src.probabilities_b["nu"] / q_tot) ** 2
        averaged = n_pairs * (2.0 / link.phase_slices) * weight * np.mean(mixed)
        closed = channel._xbasis_error_count(FLOATS, src, link, DET, n_pairs, t_mean, q_tot)
        assert closed == pytest.approx(averaged, rel=1e-12)

    def test_z_error_rates_between_zero_and_half(self):
        src = make_source(click_filtering=False)
        rates = channel._z_error_rates(FLOATS, src, click_table(src, make_link(100.0, 100.0), DET))
        assert len(rates) == 4
        for val in rates.values():
            assert 0.0 < val < 0.5

    def test_z_error_rate_increases_with_distance(self):
        src = make_source()
        key = (("mu", "o"), ("mu", "o"))
        near = channel._z_error_rates(
            FLOATS, src, click_table(src, make_link(10.0, 10.0), DET))[key]
        far = channel._z_error_rates(
            FLOATS, src, click_table(src, make_link(150.0, 150.0), DET))[key]
        assert near < far


@st.composite
def sources(draw):
    """A three- or four-intensity source, click filtering on or off."""
    four = draw(st.booleans())
    params = {}
    for side in "ab":
        mu = draw(st.floats(0.05, 1.0))
        nu = mu * draw(st.floats(0.01, 0.9))
        params.update({f"mu_{side}": mu, f"nu_{side}": nu,
                       f"p_mu_{side}": draw(st.floats(0.05, 0.55)),
                       f"p_nu_{side}": draw(st.floats(0.05, 0.3))})
        if four:
            params[f"omega_{side}"] = nu + (mu - nu) * draw(st.floats(0.1, 0.9))
            params[f"p_omega_{side}"] = draw(st.floats(0.05, 0.1))
    return SourceConfig.from_params(params, four, draw(st.booleans()))


class TestObservableInvariants:
    @settings(max_examples=200, deadline=None)
    @given(
        src=sources(),
        l_a=st.floats(0.0, 300.0),
        l_b=st.floats(0.0, 300.0),
        clock_hz=st.sampled_from([1e9, 4e9]),
        log_window=st.floats(3.0, 7.0),
        log_pulses=st.floats(9.0, 15.0),
    )
    def test_counts_bound_pairs_and_errors(self, src, l_a, l_b, clock_hz, log_window, log_pulses):
        link = make_link(l_a, l_b, clock_hz=clock_hz)
        src = dataclasses.replace(src, pairing_window_bins=10.0**log_window)
        assert_observable_invariants(expected_observables(src, link, DET, 10.0**log_pulses))


GOOD_INTS = {"mu": 0.5, "nu": 0.05, "o": 0.0}
GOOD_PROBS = {"mu": 0.5, "nu": 0.3, "o": 0.2}
# one party's levels and probabilities that break one rule each, as changes
# to the good ones; the bad probabilities of a range case still sum to 1
BAD_PARTIES = {
    "ordering": ({"nu": 0.6}, {}),
    "sum": ({}, {"o": 0.3}),
    "probability-above-1": ({}, {"mu": 1.1, "nu": 0.1, "o": -0.2}),
    "probability-zero": ({}, {"nu": 0.0, "o": 0.5}),
    "nan-level": ({"mu": math.nan}, {}),
    "inf-level": ({"mu": math.inf}, {}),
    "minus-inf-level": ({"nu": -math.inf}, {}),
}


def flat_rows(four_intensity, rows, seed):
    """``rows`` seeded flat parameter dicts of ``SourceConfig.from_params``."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(rows):
        p = {}
        for side in "ab":
            mu = rng.uniform(0.2, 0.8)
            p[f"mu_{side}"], p[f"nu_{side}"] = mu, mu * rng.uniform(0.01, 0.5)
            p[f"p_mu_{side}"], p[f"p_nu_{side}"] = rng.uniform(0.05, 0.5), rng.uniform(0.05, 0.3)
            if four_intensity:
                p[f"omega_{side}"] = rng.uniform(p[f"nu_{side}"], mu)
                p[f"p_omega_{side}"] = rng.uniform(0.05, 0.15)
        out.append(p)
    return out


class TestValidation:
    # one validator for floats and columns: a column source names its first
    # bad row, here the last of three
    @pytest.mark.parametrize("side", ["a", "b"])
    @pytest.mark.parametrize("case", list(BAD_PARTIES))
    def test_rejected_on_floats_and_columns(self, case, side):
        int_changes, prob_changes = BAD_PARTIES[case]
        bad = ({**GOOD_INTS, **int_changes}, {**GOOD_PROBS, **prob_changes})
        good = (GOOD_INTS, GOOD_PROBS)

        def source(party, other):
            a, b = (party, other) if side == "a" else (other, party)
            return SourceConfig(*a, *b)

        def rows(*parties):
            return tuple({l: np.array([p[i][l] for p in parties]) for l in GOOD_INTS}
                         for i in range(2))

        with pytest.raises(ValueError, match="intensities must be finite") as info:
            source(bad, good)
        assert "candidate" not in str(info.value)
        with pytest.raises(ValueError, match="candidate 2: intensities must be finite"):
            source(rows(good, good, bad), rows(good, good, good))
        source(rows(good, good, good), rows(good, good, good))

    @pytest.mark.parametrize("click_filtering", [False, True])
    @pytest.mark.parametrize("four_intensity", [False, True])
    def test_column_source_matches_float_rows(self, four_intensity, click_filtering):
        params = flat_rows(four_intensity, 60, seed=19 + four_intensity)
        columns = SourceConfig.from_params(
            {k: np.array([p[k] for p in params]) for k in params[0]},
            four_intensity, click_filtering,
        )
        assert columns.four_intensity == four_intensity
        # without filtering every click survives, and the column source's
        # survival probability is the float 1.0
        survival = np.broadcast_to(columns.survival_prob, (len(params),))
        for i, p in enumerate(params):
            src = SourceConfig.from_params(p, four_intensity, click_filtering)
            for side in "ab":
                # what mu, nu and omega leave, added left to right
                want = 1.0 - (p[f"p_mu_{side}"] + p[f"p_nu_{side}"] + p.get(f"p_omega_{side}", 0.0))
                assert getattr(src, f"probabilities_{side}")["o"] == want
                assert getattr(columns, f"probabilities_{side}")["o"][i] == want
            assert survival[i] == src.survival_prob
            assert columns.intensities_a["o"][i] == src.intensities_a["o"] == 0.0

    def test_intensity_ordering_enforced(self):
        with pytest.raises(ValueError):
            make_source(nu_a=0.6)

    def test_probability_sum_enforced(self):
        with pytest.raises(ValueError):
            make_source(p_mu_a=0.7, p_nu_a=0.4)

    def test_even_phase_slices(self):
        with pytest.raises(ValueError):
            make_link(phase_slices=15)

    # each was accepted: a gain above one, a NaN phase that rejects every
    # candidate in the oracle, an infinite rate per second
    @pytest.mark.parametrize("build, message", [
        pytest.param(partial(make_link, attenuation_db_per_km=-0.16), "attenuation_db_per_km",
                     id="gain"),
        pytest.param(partial(make_link, attenuation_db_per_km=math.nan), "attenuation_db_per_km",
                     id="nan-attenuation"),
        pytest.param(partial(make_link, attenuation_db_per_km=math.inf), "attenuation_db_per_km",
                     id="inf-attenuation"),
        pytest.param(partial(make_link, clock_hz=math.inf), "clock_hz", id="inf-clock"),
        pytest.param(partial(make_link, clock_hz=math.nan), "clock_hz", id="nan-clock"),
        pytest.param(partial(make_link, phase_drift_rad_per_s=math.nan), "phase_drift_rad_per_s",
                     id="nan-drift"),
        pytest.param(partial(make_link, laser_offset_hz=math.inf), "laser_offset_hz",
                     id="inf-offset"),
        pytest.param(partial(DetectorPair, eta_d=0.8, dark_rate_hz=math.nan), "dark_rate_hz",
                     id="nan-darks"),
        pytest.param(partial(DetectorPair, eta_d=0.8, dark_rate_hz=math.inf), "dark_rate_hz",
                     id="inf-darks"),
    ])
    def test_unphysical_device_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    # NaN fails every comparison, so the ordering check alone lets it through
    @pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["mu_a", "nu_b"])
    def test_non_finite_intensity_rejected(self, name, level):
        with pytest.raises(ValueError, match="finite"):
            make_source(**{name: level})

    @pytest.mark.parametrize("window", [math.nan, 0.5, math.inf])
    def test_pairing_window_finite_and_at_least_one_bin(self, window):
        with pytest.raises(ValueError, match="pairing_window_bins"):
            make_source(tc_bins=window)

    @pytest.mark.parametrize("n_pulses", [0.0, -1.0, math.nan, math.inf])
    def test_n_pulses_finite_and_positive(self, n_pulses):
        with pytest.raises(ValueError, match="n_pulses must be finite and positive"):
            expected_observables(make_source(), make_link(), DET, n_pulses)
        link, src = make_link(), make_source()
        with pytest.raises(ValueError, match="n_pulses must be finite and positive"):
            channel._pairing_statistics(
                FLOATS, n_pulses, 0.0, src.pairing_window_bins, link.clock_hz
            )


def variant_source(name, rows=None):
    """The source of the scenario variant ``name``: floats, or with ``rows``
    a column source of that many seeded rows."""
    var = scenario.VARIANTS[name]
    params = flat_rows(var.four_intensity, rows or 1, seed=31)
    if rows is None:
        return SourceConfig.from_params(params[0], var.four_intensity, var.click_filtering)
    return SourceConfig.from_params({k: np.array([p[k] for p in params]) for k in params[0]},
                                    var.four_intensity, var.click_filtering)


def eager_split_sums(layout, weight):
    """Every group's split sum, added in split order as ``split_sums`` does."""
    sums = {}
    for group, splits in zip(layout.groups, layout.splits):
        acc = 0.0
        for early, late in splits:
            acc += weight[early] * weight[late]
        sums[group] = acc
    return sums


def bits(value):
    return np.asarray(value).dtype, np.asarray(value).shape, np.asarray(value).tobytes()


class TestLazyGroups:
    """``pairing_probs`` and the coincidence counts work out a group on its
    first read; the mappings still hold every group, in layout order, with
    the values of the sums worked out all at once."""

    def check_mapping(self, got, want, groups):
        assert list(got) == list(got.keys()) == list(groups) == list(want)
        assert len(got) == len(want) == len(groups)
        for key, value in got.items():
            assert bits(value) == bits(want[key]), key
        for copy in (dict(got), {**got}):
            assert list(copy) == list(groups)
            assert all(bits(copy[key]) == bits(want[key]) for key in groups)
        assert got == dict(got) and dict(got) == got
        assert (("x", "x"), ("x", "x")) not in got
        with pytest.raises(KeyError):
            got[(("x", "x"), ("x", "x"))]

    @pytest.mark.parametrize("rows", [None, 3], ids=["floats", "columns"])
    @pytest.mark.parametrize("name", list(scenario.VARIANTS))
    def test_pairing_probs(self, name, rows):
        src = variant_source(name, rows)
        layout, p_a, p_b = src.layout, src.probabilities_a, src.probabilities_b
        p_s = src.survival_prob
        want = eager_split_sums(layout, {(la, lb): p_a[la] * p_b[lb] / p_s
                                         for la, lb in layout.kept})
        for key in layout.sifted:
            want[key] *= 2.0 / 16
        got = pairing_probs(src, 16)
        self.check_mapping(got, want, layout.groups)
        if rows is None:
            assert got == want and want == got

    @pytest.mark.parametrize("rows", [None, 3], ids=["floats", "columns"])
    @pytest.mark.parametrize("name", list(scenario.VARIANTS))
    def test_counts(self, name, rows):
        src = variant_source(name, rows)
        ops = FLOATS if rows is None else COLUMNS
        link = make_link(60.0, 45.0)
        obs = expected_observables(src, link, DET, 1e12)
        table, q_tot = table_and_q_tot(src, link)
        layout, p_a, p_b = src.layout, src.probabilities_a, src.probabilities_b
        want = eager_split_sums(layout, {(la, lb): p_a[la] * p_b[lb] * table[(la, lb)] / q_tot
                                         for la, lb in layout.kept})
        want = {key: obs.n_pairs * acc for key, acc in want.items()}
        for ta, tb in layout.sifted:
            weight = p_a[ta[0]] * p_b[tb[0]] / q_tot
            opposite, same = channel._click_correlations(
                ops, src.intensities_a[ta[0]], src.intensities_b[tb[0]], 0.0, link, DET)
            want[(ta, tb)] = obs.n_pairs * (2.0 / link.phase_slices) * weight * weight * (
                opposite + same)
        self.check_mapping(obs.counts, want, layout.groups)
        if rows is None:
            assert obs.counts == want and want == obs.counts

    def test_split_sums_reads_only_what_is_asked(self):
        src = make_source()
        reads = []

        class Weights(dict):
            def __getitem__(self, key):
                reads.append(key)
                return dict.__getitem__(self, key)

        sums = split_sums(src.layout, Weights.fromkeys(src.layout.kept, 0.5))
        assert reads == []
        key = (("mu", "o"), ("mu", "o"))
        splits = src.layout.splits_of[key]
        assert len(splits) == 4
        assert sums[key] == sums[key] == 4 * 0.25
        assert len(reads) == 2 * len(splits)  # once, on the first read


class TestTransmittance:
    def test_replaced_link_gets_its_own(self):
        link = make_link(50.0, 50.0)
        assert link.eta_a == link.eta_b == 10.0 ** (-0.16 * 50.0 / 10.0)
        longer = dataclasses.replace(link, length_a_km=80.0)
        assert longer.eta_a == 10.0 ** (-0.16 * 80.0 / 10.0) != link.eta_a
        assert longer.eta_b == link.eta_b
        shorter = dataclasses.replace(longer, length_b_km=10.0)
        assert shorter.eta_b == 10.0 ** (-0.16 * 10.0 / 10.0)
        assert pair_gain(0.5, 0.5, longer, DET) < pair_gain(0.5, 0.5, link, DET)
