import math

import pytest

from amdiqkd.channel import DetectorPair
from amdiqkd.keyrate import (
    KeyRateReport,
    ProtocolVariant,
    error_correction_leakage,
    evaluate,
    key_length,
    repeaterless_bound,
    total_failure_prob,
)
from amdiqkd.stats import binary_entropy

from test_channel import DET, make_link

EPS = 1e-10
PARAMS_50KM = dict(
    mu_a=0.5, nu_a=0.02, p_mu_a=0.4, p_nu_a=0.2,
    mu_b=0.5, nu_b=0.02, p_mu_b=0.4, p_nu_b=0.2,
)


class TestLeakage:
    def test_zero_error_costs_nothing(self):
        g = (("mu", "o"), ("mu", "o"))
        assert error_correction_leakage({g: 1e6}, {g: 0.0}, [g], 1.1) == 0.0

    def test_half_error_costs_full_entropy(self):
        g = (("mu", "o"), ("mu", "o"))
        assert error_correction_leakage({g: 1e6}, {g: 0.5}, [g], 1.1) == pytest.approx(1.1e6)

    def test_per_group_no_worse_than_pooled(self):
        import numpy as np

        rng = np.random.default_rng(11)
        for _ in range(200):
            groups = [(("mu", "o"), ("mu", "o")), (("nu", "o"), ("nu", "o"))]
            counts = {g: float(rng.uniform(10.0, 1e6)) for g in groups}
            qbers = {g: float(rng.uniform(0.0, 0.5)) for g in groups}
            split = error_correction_leakage(counts, qbers, groups, 1.1)
            n = sum(counts.values())
            pooled_e = sum(counts[g] * qbers[g] for g in groups) / n
            pooled = n * 1.1 * binary_entropy(pooled_e)
            assert split <= pooled + 1e-6


class TestKeyLength:
    def test_max_phase_error_no_singles_key(self):
        assert key_length(0.0, 1e6, 0.5, 0.0, EPS) == 0.0

    def test_epsilon_terms_alone_clamp_to_zero(self):
        assert key_length(0.0, 0.0, 0.0, 0.0, EPS) == 0.0

    def test_monotone_in_each_argument(self):
        base = key_length(1e3, 1e6, 0.05, 1e4, EPS)
        assert key_length(2e3, 1e6, 0.05, 1e4, EPS) >= base
        assert key_length(1e3, 2e6, 0.05, 1e4, EPS) >= base
        assert key_length(1e3, 1e6, 0.06, 1e4, EPS) <= base
        assert key_length(1e3, 1e6, 0.05, 2e4, EPS) <= base

    def test_total_failure_prob(self):
        assert total_failure_prob(1e-10) == pytest.approx(1.3e-9)


class TestRepeaterlessBound:
    def test_half_transmittance(self):
        assert repeaterless_bound(0.5) == 1.0

    def test_opaque_channel(self):
        assert repeaterless_bound(0.0) == 0.0

    def test_transparent_channel_sentinel(self):
        assert math.isinf(repeaterless_bound(1.0))

    def test_small_eta_asymptote(self):
        eta = 1e-8
        assert repeaterless_bound(eta) == pytest.approx(eta / math.log(2.0), rel=1e-6)

    def test_lower_estimate(self):
        for eta in (1e-6, 1e-3, 0.1, 0.9):
            assert repeaterless_bound(eta) >= eta * math.log2(math.e) * (1.0 - eta)

    def test_network_table_back_check(self):
        # 375 km of 0.16 dB/km fibre at a 4 GHz clock gives 5.77e3 bps
        eta = 10.0 ** (-0.16 * 375.0 / 10.0)
        assert repeaterless_bound(eta) * 4e9 == pytest.approx(5.77e3, rel=2e-3)


class TestEvaluate:
    def test_reasonable_rate_at_50km(self):
        link = make_link(25.0, 25.0, clock_hz=4e9)
        rep = evaluate(PARAMS_50KM, link, DET, 1e12, EPS, 1.1, ProtocolVariant())
        assert 2e6 < rep.rate_per_second < 2e7
        assert rep.ell == rep.rate_per_pulse * 1e12
        assert rep.estimate is not None and not rep.estimate.infeasible

    def test_rate_decreases_with_distance(self):
        rates = []
        for dist in (50.0, 150.0, 250.0):
            link = make_link(dist / 2, dist / 2, clock_hz=4e9)
            rep = evaluate(PARAMS_50KM, link, DET, 1e13, EPS, 1.1, ProtocolVariant())
            rates.append(rep.rate_per_second)
        assert rates[0] > rates[1] > rates[2]

    def test_direct_beats_sampling_at_long_distance(self):
        link = make_link(150.0, 150.0)
        params = dict(PARAMS_50KM, p_mu_a=0.5, p_mu_b=0.5)
        direct = evaluate(params, link, DET, 1e13, EPS, 1.1,
                          ProtocolVariant(phase_error_method="direct"))
        sampling = evaluate(params, link, DET, 1e13, EPS, 1.1,
                            ProtocolVariant(phase_error_method="random_sampling"))
        assert direct.rate_per_pulse >= sampling.rate_per_pulse

    def test_tc_override_changes_pairing(self):
        link = make_link(100.0, 100.0)
        wide = evaluate(dict(PARAMS_50KM, tc_bins=1e6), link, DET, 1e13, EPS, 1.1)
        narrow = evaluate(dict(PARAMS_50KM, tc_bins=1e3), link, DET, 1e13, EPS, 1.1)
        assert wide.observables.n_pairs > narrow.observables.n_pairs

    def test_infeasible_returns_zero_not_raise(self):
        link = make_link(400.0, 400.0)
        rep = evaluate(PARAMS_50KM, link, DET, 1e9, EPS, 1.1)
        assert rep.rate_per_pulse == 0.0

    def test_duty_cycle_scales_per_second_rate(self):
        link = make_link(25.0, 25.0, clock_hz=4e9)
        full = evaluate(PARAMS_50KM, link, DET, 1e12, EPS, 1.1, duty_cycle=1.0)
        half = evaluate(PARAMS_50KM, link, DET, 1e12, EPS, 1.1, duty_cycle=0.5)
        assert half.rate_per_second == pytest.approx(full.rate_per_second / 2.0)
        assert half.rate_per_pulse == pytest.approx(full.rate_per_pulse)

    def test_skc0_conventions(self):
        link = make_link(100.0, 100.0)
        fibre = evaluate(PARAMS_50KM, link, DET, 1e12, EPS, 1.1)
        # the fibre-only bound: detector efficiency is not folded in
        assert fibre.skc0_per_pulse == repeaterless_bound(link.eta_a * link.eta_b)
        assert repeaterless_bound(link.eta_a * link.eta_b * DET.eta_d) < fibre.skc0_per_pulse

    def test_variant_labels(self):
        assert ProtocolVariant().label == "filtering-direct"
        assert ProtocolVariant(click_filtering=False).label == "nofilter-direct"
        assert (
            ProtocolVariant(click_filtering=False, z_group_mode="signal_only").label
            == "nofilter-signal-only-direct"
        )
        assert ProtocolVariant(four_intensity=True).label == "filtering-4int-direct"

    def test_four_intensity_requires_filtering(self):
        with pytest.raises(ValueError):
            ProtocolVariant(click_filtering=False, four_intensity=True)
