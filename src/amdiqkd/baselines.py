"""Reference protocols for the rate comparison: four-intensity time-bin
MDI-QKD with double scanning, and four-intensity decoy-state BB84.

Both are evaluated from closed-form expected counts (no pairing stage) with
the same Chernoff machinery as the main protocol, on the same device model:
the ``ChannelLink`` and ``DetectorPair`` that
:func:`amdiqkd.channel.expected_observables` takes, and for MDI also its
``SourceConfig``.  The count models fold the detector efficiency into each
arm's transmittance, matching the form of the printed formulas.

Each protocol is written once, as bodies on an operations namespace (see
:mod:`amdiqkd.stats`).  ``mdi_key_rate``, ``bb84_key_rate`` and their
observables are the one entry per protocol: a ``SourceConfig`` or
``Bb84Params`` of floats scores one candidate, and one of (B,) columns a
batch.  The MDI counts of a batch come from (B, 4, 4) tables over all level
pairs at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .channel import (LABEL_ORDER, ChannelLink, DetectorPair, SourceConfig, _read_sides,
                      _require, validate_party)
from .decoy import _primed_levels, _scan_points
from .keyrate import _bb84_composition, _composition, _key_length
from .stats import FLOATS, by_pair, ops_for, stacked

__all__ = [
    "MdiObservables",
    "Bb84Params",
    "Bb84Observables",
    "mdi_observables",
    "mdi_key_rate",
    "bb84_observables",
    "bb84_key_rate",
]

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
    """Closed-form detection model; detector dead time keeps one Bell state.

    A column source gets the counts of all 4 x 4 level pairs at once, from
    (B, 4, 4) tables.
    """
    if not source.four_intensity:
        raise ValueError("the time-bin MDI baseline needs four intensities")
    device = _mdi_device(link, det, n_pulses)
    ints_a, ints_b = source.intensities_a, source.intensities_b
    probs_a, probs_b = source.probabilities_a, source.probabilities_b
    ops = ops_for(ints_a["mu"])
    if ops is FLOATS:
        n_z, m_z, n_x, m_x = {}, {}, {}, {}
        for ka_lab in LABEL_ORDER:
            for kb_lab in LABEL_ORDER:
                key = (ka_lab, kb_lab)
                n_z[key], m_z[key], n_x[key], m_x[key] = _mdi_pair_counts(
                    FLOATS, ints_a[ka_lab], ints_b[kb_lab], probs_a[ka_lab], probs_b[kb_lab],
                    device,
                )
        return MdiObservables(n_z=n_z, m_z=m_z, n_x=n_x, m_x=m_x, n_pairs=device[0])
    k_a, k_b = stacked(ints_a, LABEL_ORDER), stacked(ints_b, LABEL_ORDER)
    p_a, p_b = stacked(probs_a, LABEL_ORDER), stacked(probs_b, LABEL_ORDER)
    tables = _mdi_pair_counts(ops, k_a[:, :, None], k_b[:, None, :], p_a[:, :, None],
                              p_b[:, None, :], device)
    return MdiObservables(*(by_pair(table, LABEL_ORDER) for table in tables), n_pairs=device[0])


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
    (corner evaluation, or a dense grid of ``scan_grid`` points a side, at
    least 2).  A column source gives every value as a (B,) column.
    """
    obs = mdi_observables(source, link, det, n_pulses)
    return _mdi_key(ops_for(source.intensities_a["mu"]), obs, source, n_pulses, eps,
                    error_correction_f, scan_grid)


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
    om_p, nu_p = _primed_levels(ops, source, "omega", "nu")

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

    qber, leakage = _pooled_leakage(ops, obs.n_z[("mu", "mu")], obs.m_z[("mu", "mu")],
                                    error_correction_f)
    composition = _composition(ops, eps)

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
        return where(feasible, _key_length(ops, n0_obs, n11, phi, leakage, composition), 0.0)

    ell = ops.min_over(key_at, _scan_points(h_lo, h_hi, m_lo, m_hi, scan_grid))
    return {
        "ell": ell,
        "rate_per_pulse": ell / n_pulses,
        "leakage": leakage,
        "n0": n0_obs,
        "qber_z": qber,
    }


def _pooled_leakage(ops, n, m, efficiency: float) -> tuple:
    """(qber, leakage) of the key counts ``n`` with ``m`` errors corrected as
    one pool: qber = m/n (0.5 without counts), leakage n f h(min(qber, 0.5))."""
    counted = n > 0.0
    qber = ops.where(counted, m / ops.where(counted, n, 1.0), 0.5)
    return qber, n * efficiency * ops.entropy(ops.minimum(qber, 0.5))


# ---------------------------------------------------------------------------
# decoy-state BB84
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bb84Params:
    """Four-intensity decoy-state BB84 over the whole fibre of ``link``
    (``link.total_km``) into a lossy receiver with the detectors ``det``.

    The levels, probabilities and ``q_z`` are floats (one candidate) or (B,)
    columns (a batch), checked as ``SourceConfig`` checks its own.
    """

    intensities: Mapping[str, float]
    probs: Mapping[str, float]
    link: ChannelLink
    det: DetectorPair
    misalignment: float = 0.02
    q_z: float = 0.5

    def __post_init__(self) -> None:
        validate_party(self.intensities, self.probs)
        if "omega" not in self.intensities:
            raise ValueError("decoy-state BB84 needs an 'omega' level")
        _require((self.q_z > 0.0) & (self.q_z < 1.0), "q_z must be in (0, 1)",
                 {"q_z": self.q_z})

    @classmethod
    def from_params(cls, params: Mapping[str, float], link: ChannelLink,
                    det: DetectorPair) -> "Bb84Params":
        """The side-a levels mu, omega, nu of ``params`` as ``_read_sides``
        reads them, and ``q_z``; floats or (B,) columns."""
        ints, probs = _read_sides(params, ("mu", "omega", "nu"), "a", required=("q_z",))
        return cls(ints, probs, link, det, q_z=params["q_z"])

    @property
    def eta(self) -> float:
        """Receiver transmittance: fibre, a 2 dB insertion loss and detector efficiency."""
        loss_db = self.link.attenuation_db_per_km * self.link.total_km + 2.0
        return self.det.eta_d * 10.0 ** (-loss_db / 10.0)

    @property
    def dark_prob(self) -> float:
        return self.det.dark_prob(self.link.clock_hz)


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
    return _bb84_observables(ops_for(params.intensities["mu"]), params.intensities, params.probs,
                             params.q_z, params.eta, params.dark_prob, params.misalignment,
                             n_pulses)


def _bb84_observables(ops, intensities, probs, q_z, eta: float, p_d: float, e_m: float,
                      n_pulses: float) -> Bb84Observables:
    """``bb84_observables`` of the levels ``intensities`` sent with ``probs``,
    basis probability ``q_z``, receiver transmittance ``eta``, dark-count
    probability ``p_d`` and misalignment ``e_m``."""
    e_0 = 0.5
    q_x = 1.0 - q_z
    # an apparatus is two detectors; the second one's dark counts act as an
    # extra mean -log(1 - p_d) on a single no_click detector
    dark_mean = -ops.log1p(-p_d)
    dark_click = ops.no_click(dark_mean, p_d)[1]
    n_z, m_z, n_x, m_x = {}, {}, {}, {}
    for lab in LABEL_ORDER:
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


def bb84_key_rate(params: Bb84Params, n_pulses: float, eps: float,
                  error_correction_f: float = 1.1) -> dict:
    """Finite-size decoy-state BB84 key, vacuum+single-photon estimator chain;
    ``params`` of (B,) columns gives every value as a (B,) column."""
    obs = bb84_observables(params, n_pulses)
    return _bb84_key(ops_for(params.intensities["mu"]), obs, params.intensities, params.probs,
                     n_pulses, eps, error_correction_f)


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

    qber, leakage = _pooled_leakage(ops, obs.n_z["mu"] + obs.n_z["nu"],
                                    obs.m_z["mu"] + obs.m_z["nu"], error_correction_f)
    ell = where(feasible, _key_length(ops, n0_obs, n1z, phi, leakage,
                                      _bb84_composition(ops, eps)), 0.0)
    return {
        "ell": ell,
        "rate_per_pulse": ell / n_pulses,
        "phi_z": where(feasible, phi, 0.5),
        "leakage": leakage,
        "n0": n0_obs,
        "qber_z": qber,
    }

