import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amdiqkd import scenario
from amdiqkd.channel import DetectorPair
from amdiqkd.keyrate import (
    ProtocolVariant,
    _leakage,
    evaluate,
    key_length,
    repeaterless_bound,
    total_failure_prob,
)
from amdiqkd.optimizer import async_search_space
from amdiqkd.stats import FLOATS, binary_entropy

from test_channel import DET, make_link

EPS = 1e-10
PARAMS_50KM = dict(
    mu_a=0.5, nu_a=0.02, p_mu_a=0.4, p_nu_a=0.2,
    mu_b=0.5, nu_b=0.02, p_mu_b=0.4, p_nu_b=0.2,
)


class TestLeakage:
    def test_zero_error_costs_nothing(self):
        g = (("mu", "o"), ("mu", "o"))
        assert _leakage(FLOATS, {g: 1e6}, {g: 0.0}, [g], 1.1) == 0.0

    def test_half_error_costs_full_entropy(self):
        g = (("mu", "o"), ("mu", "o"))
        assert _leakage(FLOATS, {g: 1e6}, {g: 0.5}, [g], 1.1) == pytest.approx(1.1e6)

    def test_per_group_no_worse_than_pooled(self):
        import numpy as np

        rng = np.random.default_rng(11)
        for _ in range(200):
            groups = [(("mu", "o"), ("mu", "o")), (("nu", "o"), ("nu", "o"))]
            counts = {g: float(rng.uniform(10.0, 1e6)) for g in groups}
            qbers = {g: float(rng.uniform(0.0, 0.5)) for g in groups}
            split = _leakage(FLOATS, counts, qbers, groups, 1.1)
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

    def test_skc0_conventions(self):
        link = make_link(100.0, 100.0)
        fibre = evaluate(PARAMS_50KM, link, DET, 1e12, EPS, 1.1)
        # the fibre-only bound: detector efficiency is not folded in
        assert fibre.skc0_per_pulse == repeaterless_bound(link.eta_a * link.eta_b)
        assert repeaterless_bound(link.eta_a * link.eta_b * DET.eta_d) < fibre.skc0_per_pulse

    def test_four_intensity_requires_filtering(self):
        with pytest.raises(ValueError):
            ProtocolVariant(click_filtering=False, four_intensity=True)

    @pytest.mark.parametrize("variant", sorted(scenario.VARIANTS))
    def test_reaches_each_traced_layer(self, monkeypatch, variant):
        # the benchmark's tracer wraps these functions wherever a module of
        # the package binds them; one evaluate must still reach each of them
        from amdiqkd import channel, decoy

        var = scenario.VARIANTS[variant]
        calls = {}
        package = [m for key, m in sys.modules.items() if key.startswith("amdiqkd")]
        for module, name in ((channel, "expected_observables"), (channel, "pair_gain"),
                             (decoy, "estimate")):
            original = getattr(module, name)

            def counted(*args, _name=name, _fn=original, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            for holder in package:
                if getattr(holder, name, None) is original:
                    monkeypatch.setattr(holder, name, counted)
        params = dict(PARAMS_50KM)
        if var.four_intensity:
            params.update(omega_a=0.1, p_omega_a=0.1, omega_b=0.1, p_omega_b=0.1)
        rep = evaluate(params, make_link(25.0, 25.0), DET, 1e12, EPS, 1.1, var)
        assert rep.rate_per_pulse > 0.0
        labels = 4 if var.four_intensity else 3
        assert calls == {"expected_observables": 1, "pair_gain": labels ** 2, "estimate": 1}

    # groups one evaluate works out: (pairing probabilities, counts) of the
    # 36 groups (100 with four intensities); the decoy chain and the leakage
    # read these, so a step that walks a whole mapping shows up here
    GROUPS_READ = {
        "filtering": (10, 9), "filtering-rs": (10, 9), "nofilter-signal-only": (10, 9),
        "nofilter-4group": (12, 11), "double-scan": (13, 13), "four-intensity": (13, 12),
    }

    @pytest.mark.parametrize("variant", sorted(scenario.VARIANTS))
    def test_works_out_only_the_groups_read(self, monkeypatch, variant):
        from amdiqkd import channel, decoy

        worked_out = {}
        for module, name in ((decoy, "probs"), (channel, "counts")):
            def counting(layout, weight, finish, _name=name, _split_sums=module.split_sums):
                def counted(key, acc):
                    worked_out[_name] = worked_out.get(_name, 0) + 1
                    return finish(key, acc)
                return _split_sums(layout, weight, counted)

            monkeypatch.setattr(module, "split_sums", counting)
        var = scenario.VARIANTS[variant]
        params = dict(PARAMS_50KM)
        if var.four_intensity:
            params.update(omega_a=0.1, p_omega_a=0.1, omega_b=0.1, p_omega_b=0.1)
        rep = evaluate(params, make_link(25.0, 25.0), DET, 1e12, EPS, 1.1, var)
        assert rep.rate_per_pulse > 0.0
        assert (worked_out["probs"], worked_out["counts"]) == self.GROUPS_READ[variant]
        # the report's counts still hold every group
        assert len(dict(rep.observables.counts)) == (100 if var.four_intensity else 36)

    @pytest.mark.parametrize("rows", [None, 3], ids=["floats", "columns"])
    def test_uses_the_link_it_is_given(self, monkeypatch, rows):
        # the pairing window rides on the source, so evaluate builds no link
        from amdiqkd.channel import ChannelLink

        link = make_link(25.0, 25.0)
        built = []
        post_init = ChannelLink.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(ChannelLink, "__post_init__", counted)
        params = dict(PARAMS_50KM, tc_bins=1e5)
        if rows is not None:
            params = {k: np.full(rows, v) for k, v in params.items()}
        rep = evaluate(params, link, DET, 1e12, EPS, 1.1)
        assert np.all(rep.rate_per_pulse > 0.0)
        assert built == []

    # a level the variant does not use would be dropped while the report's
    # params still showed it, so it is rejected like a missing one
    @pytest.mark.parametrize("rows", [None, 3], ids=["floats", "columns"])
    @pytest.mark.parametrize("changes, named", [
        (dict(omega_a=0.9, p_omega_a=0.5, bogus=3.0),
         r"unread keys \['bogus', 'omega_a', 'p_omega_a'\]"),
        (dict(nu_b=None), r"missing keys \['nu_b'\]"),
    ], ids=["unread", "missing"])
    def test_takes_exactly_the_variant_keys(self, rows, changes, named):
        params = {k: v for k, v in {**PARAMS_50KM, **changes}.items() if v is not None}
        if rows is not None:
            params = {k: np.full(rows, v) for k, v in params.items()}
        with pytest.raises(ValueError, match=named):
            evaluate(params, make_link(25.0, 25.0), DET, 1e12, EPS, 1.1, ProtocolVariant())

    @pytest.mark.parametrize("eps", [0.0, 1.0, -1e-10, math.nan])
    def test_bad_eps_raises_after_a_good_one(self, eps):
        link = make_link(25.0, 25.0)
        assert evaluate(PARAMS_50KM, link, DET, 1e12, EPS, 1.1).rate_per_pulse > 0.0
        for _ in range(2):
            with pytest.raises(ValueError, match="failure probability"):
                evaluate(PARAMS_50KM, link, DET, 1e12, eps, 1.1)


def genotype_batches(space, anchors=()):
    """1-8 genotypes of ``space``: free points, with the cube's faces (where the
    GA's clipped children sit) as likely as the interior, and points within
    0.05 of the encoded ``anchors``, where rates are mostly positive."""
    dim = len(space.names)
    gene = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
    points = st.lists(gene, min_size=dim, max_size=dim)
    if anchors:
        centres = [space.encode(a) for a in anchors]
        jitter = st.lists(st.floats(-0.05, 0.05), min_size=dim, max_size=dim)
        points = st.one_of(points, st.tuples(st.sampled_from(centres), jitter).map(
            lambda t: np.clip(t[0] + np.array(t[1]), 0.0, 1.0).tolist()))
    return st.lists(points, min_size=1, max_size=8)


def as_columns(batch):
    """A list of parameter dicts with one key set as name -> (B,) arrays."""
    return {k: np.array([params[k] for params in batch]) for k in batch[0]}


def decoded_rows(space, genotypes):
    """The parameter dicts of the rows of an (n, dim) genotype stack, read
    from ``space.decode_columns``."""
    columns = space.decode_columns(genotypes)
    return [dict(zip(columns, row)) for row in zip(*(c.tolist() for c in columns.values()))]


def link_draws():
    """(total km, asymmetry km, log10 pulses) over 0-600 km, 0-100 km, 1e11-1e15."""
    return st.tuples(st.floats(0.0, 600.0), st.floats(0.0, 100.0), st.floats(11.0, 15.0))


def check_against_scalar(batch_rates, scalar_rates, scales):
    """Batch rates within 1e-12 of the one-candidate ones on the rate's own
    scale, with the same zero/positive verdict.

    A batch runs the same operations in the same order and calls the same C
    library functions, so it agrees bit for bit wherever the float path's
    sum() adds left to right; from Python 3.12 on, sum() rounds a float sum
    once, which may move the last bit.
    """
    for got, want, scale in zip(batch_rates, scalar_rates, scales):
        assert abs(got - want) <= 1e-12 * max(abs(want), scale)
        assert (got > 0.0) == (want > 0.0)


class TestRateBatch:
    """``evaluate`` on (B,) columns against ``evaluate`` one candidate at a time."""

    @settings(max_examples=150, deadline=None)
    @given(variant=st.sampled_from(sorted(scenario.VARIANTS)), where=link_draws(), data=st.data())
    def test_matches_evaluate(self, variant, where, data):
        dist, asym, log_n = where
        asym = min(asym, dist)
        var = scenario.VARIANTS[variant]
        preset = scenario.DEVICE_PRESETS["fig4"]
        link, det = preset.link((dist + asym) / 2.0, (dist - asym) / 2.0), preset.detector()
        space = async_search_space(four_intensity=var.four_intensity)
        anchors = scenario._canonical_warm_starts(var.four_intensity)
        batch = decoded_rows(space, np.array(data.draw(genotype_batches(space, anchors))))
        n_pulses = 10.0 ** log_n
        args = (link, det, n_pulses, preset.eps, preset.error_correction_f, var)
        reports = [evaluate(p, *args) for p in batch]
        scales = [(r.estimate.s0_z + r.estimate.s11_z) / n_pulses for r in reports]
        check_against_scalar(evaluate(as_columns(batch), *args).rate_per_pulse,
                             [r.rate_per_pulse for r in reports], scales)

    def test_rejects_what_evaluate_rejects(self):
        link = make_link(25.0, 25.0)
        columns = {k: np.array([v, v]) for k, v in PARAMS_50KM.items()}
        columns["nu_b"] = np.array([0.02, 0.7])  # nu above mu on the second row
        with pytest.raises(ValueError, match="candidate 1"):
            evaluate(columns, link, DET, 1e12, EPS, 1.1)
        with pytest.raises(ValueError):
            evaluate({k: float(v[1]) for k, v in columns.items()}, link, DET, 1e12, EPS, 1.1)

    @pytest.mark.parametrize("level", [math.nan, math.inf])
    def test_rejects_non_finite_levels(self, level):
        columns = {k: np.array([v, v]) for k, v in PARAMS_50KM.items()}
        columns["mu_a"] = np.array([0.5, level])
        with pytest.raises(ValueError, match="candidate 1: intensities must be finite"):
            evaluate(columns, make_link(25.0, 25.0), DET, 1e12, EPS, 1.1)

    @pytest.mark.parametrize("window", [math.nan, 0.5, math.inf])
    def test_rejects_bad_pairing_window(self, window):
        columns = {k: np.array([v, v]) for k, v in PARAMS_50KM.items()}
        columns["tc_bins"] = np.array([1e5, window])
        with pytest.raises(ValueError,
                           match="candidate 1: pairing_window_bins must be finite and >= 1"):
            evaluate(columns, make_link(25.0, 25.0), DET, 1e12, EPS, 1.1)
        with pytest.raises(ValueError, match="pairing_window_bins must be finite and >= 1"):
            evaluate(dict(PARAMS_50KM, tc_bins=window), make_link(25.0, 25.0), DET, 1e12, EPS, 1.1)

    @pytest.mark.parametrize("n_pulses", [0.0, -1.0, math.nan])
    def test_rejects_bad_n_pulses(self, n_pulses):
        columns = {k: np.array([v, v]) for k, v in PARAMS_50KM.items()}
        with pytest.raises(ValueError, match="n_pulses must be finite and positive"):
            evaluate(columns, make_link(25.0, 25.0), DET, n_pulses, EPS, 1.1)

    @pytest.mark.parametrize("variant", sorted(scenario.VARIANTS))
    def test_rows_without_pairs_score_zero(self, variant):
        # no light arrives and no detector fires in the dark: no kept click
        # and no pair on any row; the chain still runs, on zero counts, and
        # finds no vacuum or single-photon events, the phase error at 0.5
        # and nothing to correct
        var = scenario.VARIANTS[variant]
        link, det = make_link(30000.0, 30000.0), DetectorPair(eta_d=0.8, dark_rate_hz=0.0)
        space = async_search_space(four_intensity=var.four_intensity)
        rng = np.random.default_rng(8)
        batch = decoded_rows(space, rng.uniform(size=(20, len(space.names))))
        got = evaluate(as_columns(batch), link, det, 1e12, EPS, 1.1, var)
        assert got.rate_per_pulse.tolist() == [0.0] * 20
        for i, p in enumerate(batch):
            rep = evaluate(p, link, det, 1e12, EPS, 1.1, var)
            assert (rep.observables.n_pairs, rep.rate_per_pulse, rep.ell) == (0.0, 0.0, 0.0)
            assert (rep.estimate.s0_z, rep.estimate.s11_z, rep.estimate.phi11_z) == (0.0, 0.0, 0.5)
            assert rep.leakage == 0.0
            for name in ("ell", "rate_per_pulse", "rate_per_second", "leakage",
                         "skc0_per_pulse", "skc0_per_second", "eps_tot"):
                assert np.broadcast_to(getattr(got, name), (20,))[i] == getattr(rep, name), name
            for field in dataclasses.fields(rep.estimate):
                assert (np.broadcast_to(getattr(got.estimate, field.name), (20,))[i]
                        == getattr(rep.estimate, field.name)), field.name
            for key, value in rep.observables.counts.items():
                assert got.observables.counts[key][i] == value == 0.0, key
            assert got.observables.m_x[i] == rep.observables.m_x == 0.0
