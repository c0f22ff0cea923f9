"""Closed-form click models against 50-digit mpmath evaluations of the same
modified-Bessel expressions, on the fig4 device from 0 to 600 km.

The long links and the vacuum groups are dominated by dark counts
(p_d = 2.5e-11 at 4 GHz), where an expanded float form loses most of its
digits to cancellation; each closed form must hold 1e-12 relative there.
"""

import math

import pytest

mpmath = pytest.importorskip("mpmath")

from amdiqkd.baselines import Bb84Params, bb84_observables, mdi_observables  # noqa: E402
from amdiqkd.channel import (  # noqa: E402
    SourceConfig,
    click_table,
    coincidence_counts,
    pair_gain,
    xbasis_error_count,
)
from amdiqkd.scenario import DEVICE_PRESETS  # noqa: E402
from amdiqkd.stats import i0m1, no_click  # noqa: E402

REL = 1e-12
DISTANCES_KM = [0.0, 100.0, 300.0, 450.0, 600.0]
PRESET = DEVICE_PRESETS["fig4"]
DET = PRESET.detector()
P_D = DET.dark_prob(PRESET.clock_hz)

SOURCE = SourceConfig.from_params(
    mu_a=0.6, nu_a=0.03, p_mu_a=0.6, p_nu_a=0.25,
    mu_b=0.5, nu_b=0.04, p_mu_b=0.55, p_nu_b=0.3,
    omega_a=0.15, p_omega_a=0.1, omega_b=0.12, p_omega_b=0.1,
)
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
    y, click = no_click(mean, P_D)
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
        counts = coincidence_counts(SOURCE, link, DET, n_pairs, q_tot, table)
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
        closed = xbasis_error_count(SOURCE, link, DET, n_pairs, t_mean, q_tot)
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
