"""Closed-form click models against 50-digit mpmath evaluations of the same
modified-Bessel expressions, on the fig4 device from 0 to 600 km, and the
production bodies run unchanged at 50 digits.

The long links and the vacuum groups are dominated by dark counts
(p_d = 2.5e-11 at 4 GHz), where an expanded float form loses most of its
digits to cancellation; each closed form must hold 1e-12 relative there.
The numerics helpers are pinned to their formulas at 50 digits; the whole
key-rate chain of every variant and of both reference protocols is then run
on ``MP``, the base operations at 50 digits, and the float results must hold
1e-12 relative to it.
"""

import math
from types import SimpleNamespace

import pytest

mpmath = pytest.importorskip("mpmath")

from amdiqkd import channel, decoy, keyrate  # noqa: E402
from amdiqkd.baselines import (  # noqa: E402
    Bb84Params,
    MdiObservables,
    _bb84_key,
    _bb84_observables,
    _mdi_device,
    _mdi_key,
    _mdi_pair_counts,
    bb84_key_rate,
    bb84_observables,
    mdi_key_rate,
    mdi_observables,
)
from amdiqkd.channel import (  # noqa: E402
    SourceConfig,
    click_table,
    pair_gain,
)
from amdiqkd.scenario import DEVICE_PRESETS, VARIANTS  # noqa: E402
from amdiqkd.stats import (  # noqa: E402
    COLUMNS,
    FLOATS,
    binary_entropy,
    chernoff_expected,
    chernoff_observed,
    i0m1,
    sampling_correction,
    with_helpers,
)

# The base operations at 50 digits (the working precision the fixture below
# sets); with_helpers binds the bound, sampling and entropy bodies to them.
MP = with_helpers(SimpleNamespace(
    exp=mpmath.exp, expm1=mpmath.expm1, log=mpmath.log, log1p=mpmath.log1p,
    log2=lambda x: mpmath.log(x, 2), sin=mpmath.sin, cos=mpmath.cos, sqrt=mpmath.sqrt,
    square=FLOATS.square, maximum=max, minimum=min, where=FLOATS.where,
    count=mpmath.mpf, beta=lambda eps: -mpmath.log(eps), i0m1=lambda x: mpmath.besseli(0, x) - 1,
    min_over=FLOATS.min_over, sort_terms=FLOATS.sort_terms, first_max=FLOATS.first_max,
))


def test_fifty_digits_bind_the_same_operations():
    # the 50-digit chain runs every body the float and column paths run
    assert set(vars(MP)) == set(vars(FLOATS)) == set(vars(COLUMNS))


REL = 1e-12
DISTANCES_KM = [0.0, 100.0, 300.0, 450.0, 600.0]
PRESET = DEVICE_PRESETS["fig4"]
DET = PRESET.detector()
P_D = DET.dark_prob(PRESET.clock_hz)

SOURCE = SourceConfig.from_params(dict(
    mu_a=0.6, nu_a=0.03, p_mu_a=0.6, p_nu_a=0.25,
    mu_b=0.5, nu_b=0.04, p_mu_b=0.55, p_nu_b=0.3,
    omega_a=0.15, p_omega_a=0.1, omega_b=0.12, p_omega_b=0.1,
), four_intensity=True)
MDI_INTS = {"mu": 0.7, "omega": 0.1, "nu": 0.02, "o": 0.0}
MDI_PROBS = {"mu": 0.5, "omega": 0.2, "nu": 0.15, "o": 0.15}


def rel_err(value, exact):
    return abs(mpmath.mpf(value) - exact) / abs(exact)


def i0(x):
    return mpmath.besseli(0, x)


def mp_pair_terms(k_a, k_b, link):
    """y, c of one detector at 50 digits, from the float inputs taken as exact."""
    eta_d, p_d = mpmath.mpf(DET.eta_d), mpmath.mpf(P_D)
    t_a = mpmath.mpf(link.eta_a) * mpmath.mpf(k_a)
    t_b = mpmath.mpf(link.eta_b) * mpmath.mpf(k_b)
    y = (1 - p_d) * mpmath.exp(-eta_d * (t_a + t_b) / 2)
    return y, eta_d * mpmath.sqrt(t_a * t_b)


@pytest.fixture(autouse=True)
def fifty_digits():
    with mpmath.workdps(50):
        yield


@pytest.mark.parametrize("x", [0.0, 1e-12, 3e-7, 1e-3, 0.1, 0.8, 1.6, 5.0, 20.0])
def test_i0m1(x):
    if x == 0.0:
        assert i0m1(x) == 0.0
    else:
        assert rel_err(i0m1(x), i0(x) - 1) <= 1e-15


@pytest.mark.parametrize("mean", [0.0, 1e-13, 2e-7, 0.05, 3.0])
def test_no_click(mean):
    y, click = FLOATS.no_click(mean, P_D)
    exact = (1 - mpmath.mpf(P_D)) * mpmath.exp(-mpmath.mpf(mean))
    assert rel_err(y, exact) <= 1e-15
    assert rel_err(click, 1 - exact) <= 1e-15


@pytest.mark.parametrize("total_km", DISTANCES_KM)
class TestChannel:
    def test_pair_gain(self, total_km):
        link = PRESET.link(total_km / 2.0, total_km / 2.0)
        for la in SOURCE.labels:
            for lb in SOURCE.labels:
                k_a, k_b = SOURCE.intensities_a[la], SOURCE.intensities_b[lb]
                y, c = mp_pair_terms(k_a, k_b, link)
                exact = 2 * y * i0(c) - 2 * y * y
                assert rel_err(pair_gain(k_a, k_b, link, DET), exact) <= REL, (la, lb)

    def test_sifted_coincidence_count(self, total_km):
        link = PRESET.link(total_km / 2.0, total_km / 2.0)
        n_pairs, q_tot = 1e10, 1e-6
        table = click_table(SOURCE, link, DET)
        counts = channel._coincidence_counts(FLOATS, SOURCE, link, DET, n_pairs, q_tot, table)
        for lab in ("mu", "omega", "nu"):
            y, c = mp_pair_terms(SOURCE.intensities_a[lab], SOURCE.intensities_b[lab], link)
            weight = (
                mpmath.mpf(SOURCE.probabilities_a[lab]) * mpmath.mpf(SOURCE.probabilities_b[lab])
                / mpmath.mpf(q_tot)
            )
            # <(q_L + q_R)^2> with q_L + q_R = 2y cosh(c cos theta) - 2y^2
            square = 4 * y * y * ((1 + i0(2 * c)) / 2 - 2 * y * i0(c) + y * y)
            exact = mpmath.mpf(n_pairs) * 2 / link.phase_slices * weight**2 * square
            assert rel_err(counts[((lab, lab), (lab, lab))], exact) <= REL, lab

    def test_xbasis_error_count(self, total_km):
        link = PRESET.link(total_km / 2.0, total_km / 2.0)
        assert link.interference_error > 0.0
        n_pairs, q_tot, t_mean = 1e10, 1e-6, 1e-4
        delta = link.drift_phase(t_mean)
        assert 0.1 < delta < math.pi
        y, c = mp_pair_terms(SOURCE.intensities_a["nu"], SOURCE.intensities_b["nu"], link)
        d = mpmath.mpf(delta)
        common = -2 * y * i0(c) + y * y
        wrong = 2 * y * y * (i0(2 * c * mpmath.sin(d / 2)) + common)
        right = 2 * y * y * (i0(2 * c * mpmath.cos(d / 2)) + common)
        e_mis = mpmath.mpf(link.interference_error)
        weight = (
            mpmath.mpf(SOURCE.probabilities_a["nu"]) * mpmath.mpf(SOURCE.probabilities_b["nu"])
            / mpmath.mpf(q_tot)
        ) ** 2
        exact = (
            mpmath.mpf(n_pairs) * 2 / link.phase_slices * weight
            * ((1 - e_mis) * wrong + e_mis * right)
        )
        closed = channel._xbasis_error_count(FLOATS, SOURCE, link, DET, n_pairs, t_mean, q_tot)
        assert rel_err(closed, exact) <= REL


@pytest.mark.parametrize("total_km", DISTANCES_KM)
def test_mdi_observables(total_km):
    source = SourceConfig(MDI_INTS, MDI_PROBS, MDI_INTS, MDI_PROBS)
    link = PRESET.link(total_km / 2.0, total_km / 2.0)
    n_pulses = 3.168e14
    obs = mdi_observables(source, link, DET, n_pulses)
    p_d, e_mis = mpmath.mpf(P_D), mpmath.mpf(link.interference_error)
    for la in MDI_INTS:
        for lb in MDI_INTS:
            ka = mpmath.mpf(MDI_INTS[la]) * mpmath.mpf(DET.eta_d) * mpmath.mpf(link.eta_a)
            kb = mpmath.mpf(MDI_INTS[lb]) * mpmath.mpf(DET.eta_d) * mpmath.mpf(link.eta_b)
            w = mpmath.mpf(n_pulses) / 2 * mpmath.mpf(MDI_PROBS[la]) * mpmath.mpf(MDI_PROBS[lb])
            x = mpmath.sqrt(ka * kb)
            half = mpmath.exp(-(ka + kb) / 2)
            scale = (1 - p_d) ** 2 * half
            interference = i0(x) - (1 - p_d) * half
            split = (1 - (1 - p_d) * mpmath.exp(-ka / 2)) * (1 - (1 - p_d) * mpmath.exp(-kb / 2))
            y = (1 - p_d) * mpmath.exp(-(ka + kb) / 4)
            exact = {
                "n_z": w * scale * (p_d * interference + split),
                "m_z": w * scale * p_d * interference,
                "n_x": w * y * y * (1 + 2 * y * y - 4 * y * i0(x / 2) + i0(x)),
                "m_x": w * y * y * (1 + y * y - 2 * y * i0(x / 2) + e_mis * (i0(x) - 1)),
            }
            for name, value in exact.items():
                assert rel_err(getattr(obs, name)[(la, lb)], value) <= REL, (name, la, lb)


@pytest.mark.parametrize("total_km", [0.0, 100.0, 300.0, 480.0])
def test_bb84_observables(total_km):
    params = Bb84Params(MDI_INTS, MDI_PROBS, PRESET.link(total_km, 0.0), DET, q_z=0.7)
    n_pulses = 3.168e14
    obs = bb84_observables(params, n_pulses)
    p_d, e_m, eta = mpmath.mpf(P_D), mpmath.mpf(params.misalignment), mpmath.mpf(params.eta)
    q_z = mpmath.mpf(params.q_z)
    q_x = 1 - q_z
    for lab in MDI_INTS:
        k = mpmath.mpf(MDI_INTS[lab])
        w = mpmath.mpf(n_pulses) * mpmath.mpf(MDI_PROBS[lab]) / 2
        pass_z, pass_x = mpmath.exp(-k * q_z * eta), mpmath.exp(-k * q_x * eta)
        miss_z, miss_x = (1 - p_d) ** 2 * pass_z, (1 - p_d) ** 2 * pass_x
        dark = 1 - (1 - p_d) ** 2
        half = mpmath.mpf(1) / 2
        exact = {
            "n_z": w * (1 - miss_z) * (1 + miss_x),
            "m_z": w * (1 + miss_x) * ((half - e_m) * dark * pass_z + e_m * (1 - miss_z)),
            "n_x": w * (1 - miss_x) * (1 + miss_z),
            "m_x": w * (1 + miss_z) * ((half - e_m) * dark * pass_x + e_m * (1 - miss_x)),
        }
        for name, value in exact.items():
            assert rel_err(getattr(obs, name)[lab], value) <= REL, (name, lab)


def close(value, exact, rel=REL, scale=None):
    """|value - exact| <= rel * scale, with scale |exact| unless given."""
    scale = abs(exact) if scale is None else scale
    return abs(mpmath.mpf(value) - exact) <= rel * scale


EPS = 1e-10


@pytest.mark.parametrize("x", [0.0, 1e-9, 0.3, 17.0, 2.5e4, 3e9, 1e15])
def test_chernoff_maps(x):
    beta, v = -mpmath.log(EPS), mpmath.mpf(x)
    observed = (max(v - mpmath.sqrt(2 * beta * v), 0),
                v + beta / 2 + mpmath.sqrt(2 * beta * v + beta**2 / 4))
    expected = (max(v - beta / 2 - mpmath.sqrt(2 * beta * v + beta**2 / 4), 0),
                v + beta + mpmath.sqrt(2 * beta * v + beta**2))
    for got, want in [*zip(chernoff_observed(x, EPS), observed),
                      *zip(chernoff_expected(x, EPS), expected)]:
        # a clamped lower end is 0 on both sides; else a few ulp of the largest term
        assert close(got, want, 1e-15, v + beta), (got, want)
    assert (FLOATS.observed_lower(x, EPS), FLOATS.observed_upper(x, EPS)) == (
        chernoff_observed(x, EPS) if x > 0.0 else (0.0, 0.0))
    assert (FLOATS.expected_lower(x, EPS), FLOATS.expected_upper(x, EPS)) == chernoff_expected(x, EPS)


@pytest.mark.parametrize("n, k, rate", [(1e6, 1e6, 0.1), (3e9, 2e7, 0.02), (50.0, 80.0, 0.0),
                                        (1e12, 1e4, 0.4), (1e21, 1e21, 0.5)])
def test_sampling_correction(n, k, rate):
    n_, k_, lam = mpmath.mpf(n), mpmath.mpf(k), min(max(mpmath.mpf(rate), 1e-12), 1 - 1e-12)
    g = (n_ + k_) / (n_ * k_) * mpmath.log(
        (n_ + k_) / (2 * mpmath.mpf(math.pi) * n_ * k_ * lam * (1 - lam) * mpmath.mpf(EPS) ** 2))
    a = max(n_, k_) * g / (n_ + k_)
    exact = 0 if g < 0 else ((1 - 2 * lam) * a + mpmath.sqrt(a * a + 4 * lam * (1 - lam) * g)) / (
        2 + 2 * max(n_, k_) * a / (n_ + k_))
    assert close(sampling_correction(n, k, rate, EPS), exact, 1e-13)


@pytest.mark.parametrize("x", [
    0.0, 0.11, 0.5, 1.0 - 2.0**-40, 1.0,
    # 1e-12 is about the dark-count-only error rate of a key group
    1e-300, 1e-12,
])
def test_binary_entropy(x):
    v = mpmath.mpf(x)
    exact = 0 if x in (0.0, 1.0) else -(v * mpmath.log(v) + (1 - v) * mpmath.log1p(-v)) / mpmath.log(2)
    assert close(binary_entropy(x), exact, 1e-15)


# One parameter set per protocol, held fixed over the links: the fig4
# optima at 480 km (async) and 420 km (reference protocols), so the far links
# still have key.
ASYNC_PARAMS = dict(
    mu_a=0.437805063322, nu_a=0.0212032217884, p_mu_a=0.249206500814, p_nu_a=0.206253317187,
    mu_b=0.436414906024, nu_b=0.0211434005997, p_mu_b=0.250535369014, p_nu_b=0.20580628618,
    omega_a=0.15, p_omega_a=0.1, omega_b=0.14, p_omega_b=0.1, tc_bins=6493098.76835,
)
MDI_LEVELS = ({"mu": 1.0, "omega": 0.378630023993, "nu": 0.0825323794621},
              {"mu": 0.359406447325, "omega": 0.107640624455, "nu": 0.40892648692})
BB84_LEVELS = ({"mu": 0.569589306182, "omega": 0.281675602502, "nu": 0.0665430920329},
               {"mu": 0.868203455324, "omega": 0.051954933064, "nu": 0.0521583419939})
N_PULSES = 3.168e14
F_EC = PRESET.error_correction_f
# (l_a, l_b) in km: symmetric and 80 km asymmetric splits of 0-600 km totals
CHAIN_LINKS = [(0.0, 0.0), (50.0, 0.0)] + [
    (split, total - split) for total in (120.0, 300.0, 480.0, 540.0, 600.0)
    for split in (total / 2.0, total / 2.0 + 40.0)
]


def mp_dict(values):
    return {key: mpmath.mpf(v) for key, v in values.items()}


def mp_source(src):
    return SourceConfig(mp_dict(src.intensities_a), mp_dict(src.probabilities_a),
                        mp_dict(src.intensities_b), mp_dict(src.probabilities_b),
                        click_filtering=src.click_filtering,
                        pairing_window_bins=src.pairing_window_bins)


def with_vacuum(levels):
    ints, probs = levels
    return {**ints, "o": 0.0}, {**probs, "o": 1.0 - (probs["mu"] + probs["omega"] + probs["nu"])}


@pytest.mark.parametrize("variant_name", list(VARIANTS))
def test_async_chain_at_fifty_digits(variant_name):
    variant = VARIANTS[variant_name]
    params = {k: v for k, v in ASYNC_PARAMS.items()
              if variant.four_intensity or "omega" not in k}
    far_key = False
    for l_a, l_b in CHAIN_LINKS:
        link = PRESET.link(l_a, l_b)
        report = keyrate.evaluate(params, link, DET, N_PULSES, EPS, F_EC, variant)
        src = mp_source(SourceConfig.from_params(params, variant.four_intensity,
                                                 variant.click_filtering))
        table = {(la, lb): channel._pair_gain(MP, src.intensities_a[la], src.intensities_b[lb],
                                              link, DET)
                 for la in src.labels for lb in src.labels}
        obs = channel._observables(MP, src, link, DET, N_PULSES, table)
        probs = decoy.pairing_probs(src, link.phase_slices)
        groups = decoy.z_key_groups(src, variant.z_group_mode)
        scan = (decoy._double_scan(MP, obs.counts, obs.m_x, probs, src, EPS)
                if variant.double_scanning else None)
        est = decoy._estimate(MP, obs.counts, obs.m_x, probs, src, groups, EPS,
                              variant.phase_error_method, scan)
        leakage = keyrate._leakage(MP, obs.counts, obs.z_qber, groups, F_EC)
        ell = keyrate._key_length(MP, est.s0_z, est.s11_z, est.phi11_z, leakage,
                                  keyrate._composition(MP, EPS))
        got = report.estimate
        where = (l_a, l_b)
        assert close(got.s0_z, est.s0_z), where
        assert close(got.s11_z, est.s11_z), where
        assert close(got.phi11_z, est.phi11_z), where
        assert close(report.ell, ell, scale=max(abs(ell), est.s0_z + est.s11_z)), where
        far_key |= l_a + l_b >= 540.0 and ell > 0
    # the pin reaches links where dark counts dominate and key is left
    assert far_key


def test_mdi_chain_at_fifty_digits():
    ints, probs = with_vacuum(MDI_LEVELS)
    source = SourceConfig(ints, probs, ints, probs)
    src = mp_source(source)
    for l_a, l_b in CHAIN_LINKS:
        link = PRESET.link(l_a, l_b)
        want = mdi_key_rate(source, link, DET, N_PULSES, EPS, F_EC)
        device = _mdi_device(link, DET, N_PULSES)
        tables = {(la, lb): _mdi_pair_counts(MP, src.intensities_a[la], src.intensities_b[lb],
                                             src.probabilities_a[la], src.probabilities_b[lb],
                                             device)
                  for la in src.labels for lb in src.labels}
        obs = MdiObservables(*({key: t[i] for key, t in tables.items()} for i in range(4)),
                             n_pairs=device[0])
        got = _mdi_key(MP, obs, src, N_PULSES, EPS, F_EC)
        where = (l_a, l_b)
        for name in ("n0", "qber_z"):
            assert close(want[name], got[name]), (where, name)
        assert close(want["ell"], got["ell"], scale=max(abs(got["ell"]), got["n0"] + got["leakage"])), where


def test_bb84_chain_at_fifty_digits():
    ints, probs = with_vacuum(BB84_LEVELS)
    for total in sorted({l_a + l_b for l_a, l_b in CHAIN_LINKS}):
        params = Bb84Params(ints, probs, PRESET.link(total, 0.0), DET, q_z=0.8)
        want = bb84_key_rate(params, N_PULSES, EPS, F_EC)
        mp_ints, mp_probs = mp_dict(ints), mp_dict(probs)
        obs = _bb84_observables(MP, mp_ints, mp_probs, mpmath.mpf(params.q_z), params.eta,
                                params.dark_prob, params.misalignment, N_PULSES)
        got = _bb84_key(MP, obs, mp_ints, mp_probs, N_PULSES, EPS, F_EC)
        for name in ("n0", "qber_z", "phi_z"):
            assert close(want[name], got[name]), (total, name)
        assert close(want["ell"], got["ell"], scale=max(abs(got["ell"]), got["n0"] + got["leakage"])), total
