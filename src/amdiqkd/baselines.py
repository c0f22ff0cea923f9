"""Reference protocols for the rate comparison: four-intensity time-bin
MDI-QKD with double scanning, and four-intensity decoy-state BB84.

Both are evaluated from closed-form expected counts (no pairing stage) with
the same Chernoff machinery as the main protocol, on the same device model:
the ``ChannelLink`` and ``DetectorPair`` that
:func:`amdiqkd.channel.expected_observables` takes, and for MDI also its
``SourceConfig``.  The count models fold the detector efficiency into each
arm's transmittance, matching the form of the printed formulas.

Each protocol is written once.  Its bodies take an operations namespace as
their first argument: :data:`amdiqkd.stats.FLOATS` runs them on plain
numbers, and ``amdiqkd.batch.COLUMNS`` on numpy columns, one row per
parameter set, as for the protocol's own decoy chain.  So a body never
branches on a value: ``where``, ``maximum`` and ``minimum`` stand for the
branches, and a branch that the result does not use is worked out on
placeholder values.
``mdi_key_rate``, ``bb84_key_rate`` and the observables run the bodies on
floats.  ``mdi_rate_batch`` and ``bb84_rate_batch`` give the rate per pulse of
many parameter sets at once; they live in :mod:`amdiqkd.batch`, which loads
on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .channel import ChannelLink, DetectorPair, SourceConfig, validate_party
from .stats import FLOATS, no_click

__all__ = [
    "MdiObservables",
    "Bb84Params",
    "Bb84Observables",
    "mdi_observables",
    "mdi_key_rate",
    "bb84_observables",
    "bb84_key_rate",
    "mdi_rate_batch",
    "bb84_rate_batch",
]

LEVELS = ("mu", "omega", "nu", "o")


# ---------------------------------------------------------------------------
# time-bin MDI-QKD
# ---------------------------------------------------------------------------

@dataclass
class MdiObservables:
    """Expected Z/X counts and errors per intensity pair; n_pairs = N/2."""

    n_z: dict
    m_z: dict
    n_x: dict
    m_x: dict
    n_pairs: float


def _mdi_device(link: ChannelLink, det: DetectorPair, n_pulses: float) -> tuple:
    """What the count model reads of the devices: the pulse pairs n_pulses/2,
    each arm's transmittance with the detector efficiency folded in, the
    dark-count probability per bin and the interference error."""
    return (n_pulses / 2.0, det.eta_d * link.eta_a, det.eta_d * link.eta_b,
            det.dark_prob(link.clock_hz), link.interference_error)


def _mdi_pair_counts(ops, k_a, k_b, p_a, p_b, device: tuple) -> tuple:
    """Expected (n_z, m_z, n_x, m_x) of the pairs sent at intensities k_a, k_b
    with probabilities p_a, p_b; ``device`` is what ``_mdi_device`` returns."""
    n_prime, eta_a, eta_b, p_d, e_mis = device
    ka = k_a * eta_a
    kb = k_b * eta_b
    weight = n_prime * p_a * p_b
    x = ops.sqrt(ka * kb)
    bessel_m1 = ops.i0m1(x)

    # errors: both bright pulses land in one bin (interference term); the
    # empty partner bin then clicks on a dark count.  Correct events put one
    # pulse per bin, no dark needed.
    y_both, click_both = ops.no_click((ka + kb) / 2.0, p_d)
    scale = (1.0 - p_d) * y_both
    interference = bessel_m1 + click_both
    split = ops.no_click(ka / 2.0, p_d)[1] * ops.no_click(kb / 2.0, p_d)[1]

    y, click = ops.no_click((ka + kb) / 4.0, p_d)
    half_m1 = ops.i0m1(x / 2.0)
    return (
        weight * scale * (p_d * interference + split),
        weight * scale * p_d * interference,
        weight * y * y * (2.0 * click * click + bessel_m1 - 4.0 * y * half_m1),
        weight * y * y * (click * click - 2.0 * y * half_m1 + e_mis * bessel_m1),
    )


def mdi_observables(
    source: SourceConfig, link: ChannelLink, det: DetectorPair, n_pulses: float
) -> MdiObservables:
    """Closed-form detection model; detector dead time keeps one Bell state."""
    if not source.four_intensity:
        raise ValueError("the time-bin MDI baseline needs four intensities")
    device = _mdi_device(link, det, n_pulses)
    n_z, m_z, n_x, m_x = {}, {}, {}, {}
    for ka_lab in LEVELS:
        for kb_lab in LEVELS:
            key = (ka_lab, kb_lab)
            n_z[key], m_z[key], n_x[key], m_x[key] = _mdi_pair_counts(
                FLOATS, source.intensities_a[ka_lab], source.intensities_b[kb_lab],
                source.probabilities_a[ka_lab], source.probabilities_b[kb_lab], device,
            )
    return MdiObservables(n_z=n_z, m_z=m_z, n_x=n_x, m_x=m_x, n_pairs=device[0])


def mdi_key_rate(
    source: SourceConfig,
    link: ChannelLink,
    det: DetectorPair,
    n_pulses: float,
    eps: float,
    error_correction_f: float = 1.1,
    scan_grid: int | None = None,
) -> dict:
    """Secure key for the time-bin MDI baseline, minimized over the scan box.

    The two aggregates built from the decoy-level X data are bracketed with
    joint/Chernoff bounds and the rate is minimized over their rectangle
    (corner evaluation, optional dense grid of ``scan_grid`` >= 2 points a side).
    """
    if scan_grid is not None and scan_grid < 2:
        raise ValueError(f"scan_grid must be >= 2, got {scan_grid!r}")
    obs = mdi_observables(source, link, det, n_pulses)
    return _mdi_key(FLOATS, obs, source, n_pulses, eps, error_correction_f, scan_grid)


def _mdi_key(ops, obs: MdiObservables, source, n_pulses: float, eps: float,
             error_correction_f: float, scan_grid: int | None = None) -> dict:
    """``mdi_key_rate`` from the observables ``obs`` of ``source``."""
    exp, maximum, minimum, where = ops.exp, ops.maximum, ops.minimum, ops.where
    expected_lower, expected_upper = ops.expected_lower, ops.expected_upper
    ia, ib = source.intensities_a, source.intensities_b
    pa, pb = source.probabilities_a, source.probabilities_b
    mu_a, mu_b = ia["mu"], ib["mu"]
    om_a, om_b = ia["omega"], ib["omega"]
    nu_a, nu_b = ia["nu"], ib["nu"]
    a_side = om_a / om_b <= nu_a / nu_b
    om_p, nu_p = where(a_side, om_a, om_b), where(a_side, nu_a, nu_b)

    n0_star = maximum(
        exp(-mu_a) * pa["mu"] / pa["o"] * expected_lower(obs.n_z[("o", "mu")], eps),
        exp(-mu_b) * pb["mu"] / pb["o"] * expected_lower(obs.n_z[("mu", "o")], eps),
    )
    n0_obs = ops.observed_lower(n0_star, eps)

    c_om = om_a * om_b * om_p
    c_nu = nu_a * nu_b * nu_p
    plus = (
        c_om * exp(nu_a + nu_b) / (pa["nu"] * pb["nu"])
        * expected_lower(maximum(obs.n_x[("nu", "nu")] - obs.m_x[("nu", "nu")], 0.0), eps)
        + c_nu * exp(om_a) / (pa["omega"] * pb["o"]) * expected_lower(obs.n_x[("omega", "o")], eps)
        + c_nu * exp(om_b) / (pa["o"] * pb["omega"]) * expected_lower(obs.n_x[("o", "omega")], eps)
    )
    minus = (
        c_nu * exp(om_a + om_b) / (pa["omega"] * pb["omega"])
        * expected_upper(obs.n_x[("omega", "omega")], eps)
        + c_nu / (pa["o"] * pb["o"]) * expected_upper(obs.n_x[("o", "o")], eps)
    )

    h_coef = c_om
    h_pos = (
        exp(nu_b) / (pa["o"] * pb["nu"]),
        exp(nu_a) / (pa["nu"] * pb["o"]),
    )
    h_lo = h_coef * maximum(
        h_pos[0] * expected_lower(obs.n_x[("o", "nu")], eps)
        + h_pos[1] * expected_lower(obs.n_x[("nu", "o")], eps)
        - expected_upper(obs.n_x[("o", "o")], eps) / (pa["o"] * pb["o"]),
        0.0,
    )
    h_hi = maximum(
        h_coef
        * (
            h_pos[0] * expected_upper(obs.n_x[("o", "nu")], eps)
            + h_pos[1] * expected_upper(obs.n_x[("nu", "o")], eps)
            - expected_lower(obs.n_x[("o", "o")], eps) / (pa["o"] * pb["o"])
        ),
        h_lo,
    )
    m_coef = c_om * exp(nu_a + nu_b) / (pa["nu"] * pb["nu"])
    m_lo = m_coef * expected_lower(obs.m_x[("nu", "nu")], eps)
    m_hi = m_coef * expected_upper(obs.m_x[("nu", "nu")], eps)

    pref_11 = mu_a * mu_b * exp(-mu_a - mu_b) * pa["mu"] * pb["mu"] / (
        nu_a * nu_b * om_a * om_b * (om_p - nu_p)
    )
    ratio_zx = (mu_a * mu_b * exp(-mu_a - mu_b) * pa["mu"] * pb["mu"]) / (
        nu_a * nu_b * exp(-nu_a - nu_b) * pa["nu"] * pb["nu"]
    )

    n_z_signal = obs.n_z[("mu", "mu")]
    counted = n_z_signal > 0.0
    qber = where(counted, obs.m_z[("mu", "mu")] / where(counted, n_z_signal, 1.0), 0.5)
    leakage = n_z_signal * error_correction_f * ops.entropy(minimum(qber, 0.5))
    eps_terms = (
        math.log2(2.0 / eps) + 2.0 * math.log2(2.0 / (eps * eps)) + 2.0 * math.log2(1.0 / (2.0 * eps))
    )

    def key_at(h, m):
        n11 = ops.observed_lower(pref_11 * (plus - minus + m - h), eps)
        feasible = n11 > 0.0
        # back to a raw count: the aggregates carry 1/(p_nu_a p_nu_b)
        t11x_star = (
            pa["nu"] * pb["nu"] * (m - h / 2.0)
            / (om_a * om_b * om_p * exp(nu_a + nu_b))
        )
        t11z = ops.observed_upper(ratio_zx * maximum(t11x_star, 0.0), eps)
        phi = minimum(maximum(t11z / where(feasible, n11, 1.0), 0.0), 0.5)
        ell = n0_obs + n11 * (1.0 - ops.entropy(phi)) - leakage - eps_terms
        return where(feasible, maximum(ell, 0.0), 0.0)

    if scan_grid:
        points = [
            (h_lo + (h_hi - h_lo) * i / (scan_grid - 1), m_lo + (m_hi - m_lo) * j / (scan_grid - 1))
            for i in range(scan_grid)
            for j in range(scan_grid)
        ]
    else:
        points = [(h_lo, m_lo), (h_lo, m_hi), (h_hi, m_lo), (h_hi, m_hi)]
    ell = ops.min_over(key_at, points)
    return {
        "ell": ell,
        "rate_per_pulse": ell / n_pulses,
        "leakage": leakage,
        "n0": n0_obs,
        "qber_z": qber,
    }


# ---------------------------------------------------------------------------
# decoy-state BB84
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bb84Params:
    """Four-intensity decoy-state BB84 over the whole fibre of ``link``
    (``link.total_km``) into a lossy receiver with the detectors ``det``."""

    intensities: Mapping[str, float]
    probs: Mapping[str, float]
    link: ChannelLink
    det: DetectorPair
    insert_loss_db: float = 2.0
    misalignment: float = 0.02
    q_z: float = 0.5

    def __post_init__(self) -> None:
        validate_party(self.intensities, self.probs)
        if "omega" not in self.intensities:
            raise ValueError("decoy-state BB84 needs an 'omega' level")
        if not 0.0 < self.q_z < 1.0:
            raise ValueError("q_z must be in (0, 1)")

    @property
    def eta(self) -> float:
        return _receiver_eta(self.link, self.det, self.insert_loss_db)

    @property
    def dark_prob(self) -> float:
        return self.det.dark_prob(self.link.clock_hz)


def _receiver_eta(link: ChannelLink, det: DetectorPair, insert_loss_db: float) -> float:
    loss_db = link.attenuation_db_per_km * link.total_km + insert_loss_db
    return det.eta_d * 10.0 ** (-loss_db / 10.0)


@dataclass
class Bb84Observables:
    n_z: dict
    m_z: dict
    n_x: dict
    m_x: dict
    q_z: float
    q_x: float


def bb84_observables(params: Bb84Params, n_pulses: float) -> Bb84Observables:
    """Closed-form counts per intensity for both measurement bases."""
    return _bb84_observables(FLOATS, params.intensities, params.probs, params.q_z, params.eta,
                             params.dark_prob, params.misalignment, n_pulses)


def _bb84_observables(ops, intensities, probs, q_z, eta: float, p_d: float, e_m: float,
                      n_pulses: float) -> Bb84Observables:
    """``bb84_observables`` of the levels ``intensities`` sent with ``probs``,
    basis probability ``q_z``, receiver transmittance ``eta``, dark-count
    probability ``p_d`` and misalignment ``e_m``."""
    e_0 = 0.5
    q_x = 1.0 - q_z
    # an apparatus is two detectors; the second one's dark counts act as an
    # extra mean -log(1 - p_d) on a single no_click detector
    dark_mean = -math.log1p(-p_d)
    dark_click = no_click(dark_mean, p_d)[1]
    n_z, m_z, n_x, m_x = {}, {}, {}, {}
    for lab in LEVELS:
        k = intensities[lab]
        weight = n_pulses * probs[lab] / 2.0
        miss_z, click_z = ops.no_click(k * q_z * eta + dark_mean, p_d)
        miss_x, click_x = ops.no_click(k * q_x * eta + dark_mean, p_d)
        n_z[lab] = weight * click_z * (1.0 + miss_x)
        m_z[lab] = weight * (1.0 + miss_x) * (
            (e_0 - e_m) * dark_click * ops.exp(-k * q_z * eta) + e_m * click_z
        )
        n_x[lab] = weight * click_x * (1.0 + miss_z)
        m_x[lab] = weight * (1.0 + miss_z) * (
            (e_0 - e_m) * dark_click * ops.exp(-k * q_x * eta) + e_m * click_x
        )
    return Bb84Observables(n_z=n_z, m_z=m_z, n_x=n_x, m_x=m_x, q_z=q_z, q_x=q_x)


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
    labels = list(LEVELS)
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


def bb84_key_rate(params: Bb84Params, n_pulses: float, eps: float,
                  error_correction_f: float = 1.1) -> dict:
    """Finite-size decoy-state BB84 key, vacuum+single-photon estimator chain."""
    obs = bb84_observables(params, n_pulses)
    return _bb84_key(FLOATS, obs, params.intensities, params.probs, n_pulses, eps,
                     error_correction_f)


def _bb84_key(ops, obs: Bb84Observables, intensities, probs, n_pulses: float, eps: float,
              error_correction_f: float) -> dict:
    """``bb84_key_rate`` from the observables ``obs`` of the levels
    ``intensities`` sent with ``probs``."""
    exp, maximum, minimum, where = ops.exp, ops.maximum, ops.minimum, ops.where
    expected_lower, expected_upper, observed_lower = (
        ops.expected_lower, ops.expected_upper, ops.observed_lower
    )
    mu, nu, om = intensities["mu"], intensities["nu"], intensities["omega"]
    p = probs

    n0_star = (p["mu"] * exp(-mu) + p["nu"] * exp(-nu)) / p["o"] * expected_lower(
        obs.n_z["o"], eps
    )
    n0_obs = observed_lower(n0_star, eps)

    def single_star(counts, front):
        core = (
            exp(nu) * expected_lower(counts["nu"], eps) / p["nu"]
            - (nu * nu) / (mu * mu) * exp(mu) * expected_upper(counts["mu"], eps) / p["mu"]
            - (mu * mu - nu * nu) / (mu * mu) * expected_upper(counts["o"], eps) / p["o"]
        )
        return maximum(front * mu / (mu * nu - nu * nu) * core, 0.0)

    n1z_star = single_star(obs.n_z, p["mu"] * mu * exp(-mu) + p["nu"] * nu * exp(-nu))
    n1x_star = single_star(obs.n_x, p["omega"] * om * exp(-om))
    n1z = observed_lower(n1z_star, eps)
    n1x = observed_lower(n1x_star, eps)

    m0x_star = p["omega"] * exp(-om) / p["o"] * expected_lower(obs.m_x["o"], eps)
    t1x = maximum(obs.m_x["omega"] - observed_lower(m0x_star, eps), 0.0)

    # without single-photon events in both bases there is no key; the phase
    # error is then worked out on placeholder counts and reported as 0.5
    feasible = (n1z > 0.0) & (n1x > 0.0)
    n1z_safe, n1x_safe = where(feasible, n1z, 1.0), where(feasible, n1x, 1.0)
    e1x = minimum(t1x / n1x_safe, 1.0)
    phi = minimum(
        e1x + ops.sampling_correction(n1z_safe, n1x_safe, minimum(e1x, 1.0), eps), 0.5
    )

    n_ec = obs.n_z["mu"] + obs.n_z["nu"]
    counted = n_ec > 0.0
    qber = where(counted, (obs.m_z["mu"] + obs.m_z["nu"]) / where(counted, n_ec, 1.0), 0.5)
    leakage = n_ec * error_correction_f * ops.entropy(minimum(qber, 0.5))
    ell = (
        n0_obs
        + n1z * (1.0 - ops.entropy(phi))
        - leakage
        - 6.0 * math.log2(23.0 / eps)
        - 2.0 * math.log2(2.0 / eps)
    )
    ell = where(feasible, maximum(ell, 0.0), 0.0)
    return {
        "ell": ell,
        "rate_per_pulse": ell / n_pulses,
        "phi_z": where(feasible, phi, 0.5),
        "leakage": leakage,
        "n0": n0_obs,
        "qber_z": qber,
    }


def __getattr__(name: str):
    # the batch forms compile on first use, not when amdiqkd is imported
    if name in ("mdi_rate_batch", "bb84_rate_batch"):
        from . import batch

        return getattr(batch, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
