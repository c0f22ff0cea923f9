"""Finite-key decoy-state estimation for the asynchronous protocol.

From the coincidence table this module bounds, in order: the vacuum events in
the key groups, the single-photon pairs in the Z basis (three- and
four-intensity variants, tightened by joint constraints on coefficient-sorted
partial sums), the matching X-basis quantities through the fixed
intensity-setting ratio, the vacuum-origin X errors, and finally the
phase-error rate by either of two routes: the random-sampling correction or
the direct conversion of the X-error count into the Z basis.

Bound-direction bookkeeping: quantities marked ``*`` live in the
expected-value domain (obtained from observed counts via
``chernoff_expected``); final key-length ingredients are converted back to
the observed domain via ``chernoff_observed``.  Both maps return a plain
(lower, upper) tuple, and the chain reads one side through the ``stats``
helpers ``expected_lower/upper`` and ``observed_lower/upper``.  Passing
``eps=None`` runs the whole chain without statistical slack, which is how the
soundness tests compare against Monte Carlo ground truth.  Group
probabilities and count tables are plain dicts keyed by (total_a, total_b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .channel import CountKey, SourceConfig, split_sums
from .stats import expected_lower, expected_upper, observed_lower, observed_upper
from .stats import sampling_correction

__all__ = [
    "DecoyEstimate",
    "pairing_probs",
    "joint_bound",
    "z_key_groups",
    "vacuum_events_lower",
    "single_photon_pairs_z_lower",
    "zx_count_ratio",
    "xbasis_vacuum_errors_lower",
    "double_scan",
    "estimate",
]

X_KEY: CountKey = (("nu", "nu"), ("nu", "nu"))


def pairing_probs(source: SourceConfig, phase_slices: int) -> dict[CountKey, float]:
    """Conditional probability of each coincidence group, given a coincidence.

    Each kept bin carries label pair (la, lb) with probability
    p_a(la) p_b(lb) / p_s; a group probability sums the products over the
    early/late splits that survive filtering.  Matched-phase groups carry the
    extra 2/M factor for the phase-sifting condition.
    """
    layout = source.layout
    p_a, p_b = source.probabilities_a, source.probabilities_b
    p_s = source.survival_prob
    weights = {(la, lb): p_a[la] * p_b[lb] / p_s for la, lb in layout.kept}
    probs = split_sums(layout, weights)
    for key in layout.sifted:
        probs[key] *= 2.0 / phase_slices
    return probs


# ---------------------------------------------------------------------------
# joint constraints
# ---------------------------------------------------------------------------

def joint_bound(
    terms: Iterable[tuple[float, float]],
    direction: str,
    eps: float | None,
) -> float:
    """Bound the expected value of a positive linear combination of counts.

    ``terms`` are (coefficient, observed count) pairs.  Sorts coefficients
    ascending and telescopes over partial sums, bounding each partial-sum
    observable once; always at least as tight as bounding every term
    separately.
    """
    if direction not in ("lower", "upper"):
        raise ValueError(f"direction must be 'lower' or 'upper', got {direction!r}")
    ordered = sorted(terms, key=lambda t: t[0])
    bound_fn = expected_lower if direction == "lower" else expected_upper
    total = 0.0
    prev_coef = 0.0
    for j, (coef, _) in enumerate(ordered):
        step = coef - prev_coef
        if step > 0.0:
            tail = sum(v for _, v in ordered[j:])
            total += step * bound_fn(tail, eps)
        prev_coef = coef
    return total


# ---------------------------------------------------------------------------
# estimation chain
# ---------------------------------------------------------------------------

def z_key_groups(source: SourceConfig, mode: str = "auto") -> list[CountKey]:
    """Coincidence groups used for key generation.

    With click filtering only the signal-signal group carries key; without it
    the four bright-bright combinations do, unless ``mode='signal_only'``
    restricts to the signal-signal group.
    """
    if mode not in ("auto", "signal_only"):
        raise ValueError(f"unknown z-group mode {mode!r}")
    if source.click_filtering or mode == "signal_only":
        return [(("mu", "o"), ("mu", "o"))]
    return [
        ((ka, "o"), (kb, "o"))
        for ka in ("mu", "nu")
        for kb in ("mu", "nu")
    ]


def vacuum_events_lower(
    counts: Mapping[CountKey, float],
    probs: Mapping[CountKey, float],
    source: SourceConfig,
    groups: Sequence[CountKey],
    eps: float | None,
) -> float:
    """Expected-value lower bound on vacuum events inside the key groups.

    For each group the better of the two one-sided estimates is used: the
    count with that party sending vacuum in both bins, rescaled by the
    no-emission probability and the group-probability ratio.
    """
    ints_a, ints_b = source.intensities_a, source.intensities_b
    total = 0.0
    for (ta, tb) in groups:
        k_a = ints_a[ta[0]] + ints_a[ta[1]]
        k_b = ints_b[tb[0]] + ints_b[tb[1]]
        p_g = probs[(ta, tb)]
        via_a = (
            math.exp(-k_a) * p_g / probs[(("o", "o"), tb)]
            * expected_lower(counts[(("o", "o"), tb)], eps)
        )
        via_b = (
            math.exp(-k_b) * p_g / probs[(ta, ("o", "o"))]
            * expected_lower(counts[(ta, ("o", "o"))], eps)
        )
        total += max(via_a, via_b)
    return total


def _decoy_pair(source: SourceConfig) -> tuple[str, str]:
    """Bright levels used as the decoy pair in the single-photon bound."""
    return ("omega", "nu") if source.four_intensity else ("mu", "nu")


def _primed_levels(source: SourceConfig, hi: str, lo: str) -> tuple[float, float]:
    """Pick the primed intensities from the party with the smaller hi/lo ratio."""
    hi_a, hi_b = source.intensities_a[hi], source.intensities_b[hi]
    lo_a, lo_b = source.intensities_a[lo], source.intensities_b[lo]
    if hi_a / hi_b <= lo_a / lo_b:
        return hi_a, lo_a
    return hi_b, lo_b


def _zgroup_intensity_sum(
    probs: Mapping[CountKey, float], source: SourceConfig, groups: Sequence[CountKey]
) -> float:
    """Sum over key groups of k_a k_b exp(-k_a - k_b) p_group."""
    acc = 0.0
    for (ta, tb) in groups:
        k_a = source.intensities_a[ta[0]] + source.intensities_a[ta[1]]
        k_b = source.intensities_b[tb[0]] + source.intensities_b[tb[1]]
        acc += k_a * k_b * math.exp(-k_a - k_b) * probs[(ta, tb)]
    return acc


def single_photon_pairs_z_lower(
    counts: Mapping[CountKey, float],
    probs: Mapping[CountKey, float],
    source: SourceConfig,
    groups: Sequence[CountKey],
    eps: float | None,
) -> float:
    """Expected-value lower bound on single-photon pairs in the key groups.

    Decoy-state difference of the two bright levels below the signal, split
    into one positively- and one negatively-signed aggregate; each aggregate
    is bounded as a whole through the joint-constraints telescope.
    """
    hi, lo = _decoy_pair(source)
    hi_a, hi_b = source.intensities_a[hi], source.intensities_b[hi]
    lo_a, lo_b = source.intensities_a[lo], source.intensities_b[lo]
    hi_p, lo_p = _primed_levels(source, hi, lo)
    oo = ("o", "o")

    c_hi = hi_a * hi_b * hi_p      # weight of the low-level bracket
    c_lo = lo_a * lo_b * lo_p      # weight of the high-level bracket

    plus_terms = (
        (c_hi * math.exp(lo_a + lo_b) / probs[((lo, "o"), (lo, "o"))], counts[((lo, "o"), (lo, "o"))]),
        (c_lo * math.exp(hi_b) / probs[(oo, (hi, "o"))], counts[(oo, (hi, "o"))]),
        (c_lo * math.exp(hi_a) / probs[((hi, "o"), oo)], counts[((hi, "o"), oo)]),
        ((c_hi - c_lo) / probs[(oo, oo)], counts[(oo, oo)]),
    )
    minus_terms = (
        (c_lo * math.exp(hi_a + hi_b) / probs[((hi, "o"), (hi, "o"))], counts[((hi, "o"), (hi, "o"))]),
        (c_hi * math.exp(lo_b) / probs[(oo, (lo, "o"))], counts[(oo, (lo, "o"))]),
        (c_hi * math.exp(lo_a) / probs[((lo, "o"), oo)], counts[((lo, "o"), oo)]),
    )
    plus = joint_bound(plus_terms, "lower", eps)
    minus = joint_bound(minus_terms, "upper", eps)

    prefactor = _zgroup_intensity_sum(probs, source, groups) / (
        lo_a * lo_b * hi_a * hi_b * (hi_p - lo_p)
    )
    return max(prefactor * (plus - minus), 0.0)


def zx_count_ratio(
    probs: Mapping[CountKey, float], source: SourceConfig, groups: Sequence[CountKey]
) -> float:
    """Expected ratio of Z-group to X-group single-photon pair counts."""
    nu_a = source.intensities_a["nu"]
    nu_b = source.intensities_b["nu"]
    x_weight = 4.0 * nu_a * nu_b * math.exp(-2.0 * nu_a - 2.0 * nu_b) * probs[X_KEY]
    return _zgroup_intensity_sum(probs, source, groups) / x_weight


def xbasis_vacuum_errors_lower(
    counts: Mapping[CountKey, float],
    probs: Mapping[CountKey, float],
    source: SourceConfig,
    eps: float | None,
) -> float:
    """Expected-value lower bound on X-basis errors with a vacuum origin.

    Events where at least one party emitted nothing err half the time; the
    two one-sided vacuum estimates are jointly lower-bounded and the doubly
    counted both-vacuum part is subtracted at its upper bound.
    """
    nu_a = source.intensities_a["nu"]
    nu_b = source.intensities_b["nu"]
    oo = ("o", "o")
    two_nu_a = ("nu", "nu")
    p_x = probs[X_KEY]
    plus_terms = (
        (math.exp(-2.0 * nu_a) * p_x / (2.0 * probs[(oo, two_nu_a)]), counts[(oo, two_nu_a)]),
        (math.exp(-2.0 * nu_b) * p_x / (2.0 * probs[(two_nu_a, oo)]), counts[(two_nu_a, oo)]),
    )
    minus_term = (
        math.exp(-2.0 * nu_a - 2.0 * nu_b) * p_x / (2.0 * probs[(oo, oo)]),
        counts[(oo, oo)],
    )
    plus = joint_bound(plus_terms, "lower", eps)
    minus = minus_term[0] * expected_upper(minus_term[1], eps)
    return max(plus - minus, 0.0)


# ---------------------------------------------------------------------------
# double scanning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DoubleScanResult:
    e11x_star: float
    s11x_star: float
    t11x_star: float
    corners: tuple[tuple[float, float, float], ...]  # (e, s, t) per grid point


def double_scan(
    counts: Mapping[CountKey, float],
    m_x: float,
    probs: Mapping[CountKey, float],
    source: SourceConfig,
    eps: float | None,
    grid: int | None = None,
) -> DoubleScanResult:
    """Worst-case X-basis single-photon error rate over the (H, M) rectangle.

    H aggregates the vacuum-flank observables and M the X-error count; the
    remaining aggregates are fixed at their joint-constraint bounds.  The
    objective is a ratio of functions affine in (H, M), hence monotone along
    each edge: the four corners suffice.  ``grid`` switches on a dense scan
    for debugging/validation.
    """
    mu_a, mu_b = source.intensities_a["mu"], source.intensities_b["mu"]
    nu_a, nu_b = source.intensities_a["nu"], source.intensities_b["nu"]
    if mu_a / mu_b <= nu_a / nu_b:
        mu_t, nu_t = 2.0 * mu_a, 2.0 * nu_a
    else:
        mu_t, nu_t = 2.0 * mu_b, 2.0 * nu_b

    oo = ("o", "o")
    two_nu, two_mu = ("nu", "nu"), ("mu", "mu")
    c_mu = mu_a * mu_b * mu_t
    c_nu = nu_a * nu_b * nu_t

    plus_terms = (
        (c_mu * math.exp(2.0 * nu_a + 2.0 * nu_b) / probs[X_KEY], max(counts[X_KEY] - m_x, 0.0)),
        (c_nu * math.exp(2.0 * mu_b) / probs[(oo, two_mu)], counts[(oo, two_mu)]),
        (c_nu * math.exp(2.0 * mu_a) / probs[(two_mu, oo)], counts[(two_mu, oo)]),
    )
    minus_terms = (
        (c_nu * math.exp(2.0 * mu_a + 2.0 * mu_b) / probs[(two_mu, two_mu)], counts[(two_mu, two_mu)]),
        (c_nu / probs[(oo, oo)], counts[(oo, oo)]),
    )
    s_plus = joint_bound(plus_terms, "lower", eps)
    s_minus = joint_bound(minus_terms, "upper", eps)

    h_terms = (
        (c_mu * math.exp(2.0 * nu_b) / probs[(oo, two_nu)], counts[(oo, two_nu)]),
        (c_mu * math.exp(2.0 * nu_a) / probs[(two_nu, oo)], counts[(two_nu, oo)]),
    )
    h_minus = (c_mu / probs[(oo, oo)], counts[(oo, oo)])
    h_lo = max(joint_bound(h_terms, "lower", eps) - h_minus[0] * expected_upper(h_minus[1], eps), 0.0)
    h_hi = max(joint_bound(h_terms, "upper", eps) - h_minus[0] * expected_lower(h_minus[1], eps), h_lo)

    m_coef = c_mu * math.exp(2.0 * nu_a + 2.0 * nu_b) / probs[X_KEY]
    m_lo = m_coef * expected_lower(m_x, eps)
    m_hi = m_coef * expected_upper(m_x, eps)

    x_factor = math.exp(-2.0 * nu_a - 2.0 * nu_b) * probs[X_KEY]

    def rate_at(h: float, m: float) -> tuple[float, float, float]:
        s11x = x_factor * (s_plus - s_minus + m - h) / (mu_a * mu_b * (mu_t - nu_t))
        t11x = x_factor * (m - h / 2.0) / (mu_a * mu_b * mu_t)
        if s11x <= 0.0:
            return 1.0, 0.0, max(t11x, 0.0)  # infeasible corner: no-key sentinel
        return max(t11x, 0.0) / s11x, s11x, max(t11x, 0.0)

    if grid:
        points = [
            (h_lo + (h_hi - h_lo) * i / (grid - 1), m_lo + (m_hi - m_lo) * j / (grid - 1))
            for i in range(grid)
            for j in range(grid)
        ]
    else:
        points = [(h_lo, m_lo), (h_lo, m_hi), (h_hi, m_lo), (h_hi, m_hi)]

    scanned = [rate_at(h, m) for h, m in points]
    e, s, t = max(scanned, key=lambda est: est[0])  # the first of equal maxima
    return DoubleScanResult(
        e11x_star=min(e, 1.0), s11x_star=s, t11x_star=t,
        corners=tuple((min(e, 1.0), s, t) for e, s, t in scanned),
    )


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

@dataclass
class DecoyEstimate:
    """All estimated quantities, in both domains where applicable."""

    s0_z_star: float
    s0_z: float
    s11_z_star: float
    s11_z: float
    s11_x_star: float
    s11_x: float
    m0_x_star: float
    t11_x_star: float
    t11_x: float
    e11_x: float
    phi11_z: float
    infeasible: bool = False


def estimate(
    counts: Mapping[CountKey, float],
    m_x: float,
    source: SourceConfig,
    phase_slices: int,
    eps: float | None,
    z_group_mode: str = "auto",
    phase_error_method: str = "direct",
    double_scanning: bool = False,
) -> DecoyEstimate:
    """Run the full estimation chain on one observable set."""
    if phase_error_method not in ("direct", "random_sampling"):
        raise ValueError(f"unknown phase error method {phase_error_method!r}")
    probs = pairing_probs(source, phase_slices)
    groups = z_key_groups(source, z_group_mode)

    s0_star = vacuum_events_lower(counts, probs, source, groups, eps)
    s0_obs = observed_lower(s0_star, eps)

    s11z_star = single_photon_pairs_z_lower(counts, probs, source, groups, eps)
    s11z_obs = observed_lower(s11z_star, eps)

    ratio = zx_count_ratio(probs, source, groups)

    m0_star = xbasis_vacuum_errors_lower(counts, probs, source, eps)

    scan = double_scan(counts, m_x, probs, source, eps) if double_scanning else None
    if scan is not None:
        s11x_star = max(scan.s11x_star, 0.0)
        t11x_star = scan.t11x_star
        e11x = scan.e11x_star
    else:
        s11x_star = s11z_star / ratio
        t11x_star = max(expected_upper(m_x, eps) - m0_star, 0.0)
        e11x = 1.0
    s11x_obs = observed_lower(s11x_star, eps)
    t11x_obs = max(m_x - observed_lower(m0_star, eps), 0.0)
    if scan is None and s11x_obs > 0.0:
        e11x = min(t11x_obs / s11x_obs, 1.0)

    infeasible = s11z_obs <= 0.0 or s11x_obs <= 0.0

    def phase_error(e_corner: float, s_star: float, t_star: float) -> float:
        if phase_error_method == "random_sampling":
            s_obs = observed_lower(s_star, eps)
            if s_obs <= 0.0:
                return 0.5
            if eps is None:
                return e_corner
            return e_corner + sampling_correction(s11z_obs, s_obs, min(e_corner, 1.0), eps)
        return observed_upper(ratio * t_star, eps) / s11z_obs

    if infeasible:
        phi = 0.5
    elif scan is not None:
        # worst case of the final bound over the scan rectangle's corners
        phi = max(phase_error(e, s, t) for e, s, t in scan.corners)
    else:
        phi = phase_error(e11x, s11x_star, t11x_star)
    phi = min(max(phi, 0.0), 0.5)

    return DecoyEstimate(
        s0_z_star=s0_star,
        s0_z=s0_obs,
        s11_z_star=s11z_star,
        s11_z=s11z_obs,
        s11_x_star=s11x_star,
        s11_x=s11x_obs,
        m0_x_star=m0_star,
        t11_x_star=t11x_star,
        t11_x=t11x_obs,
        e11_x=e11x,
        phi11_z=phi,
        infeasible=infeasible,
    )
