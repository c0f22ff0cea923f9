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

Each step is written once.  Its body takes an operations namespace as its
first argument: :data:`amdiqkd.stats.FLOATS` runs it on plain numbers, and
``amdiqkd.batch.COLUMNS`` on numpy columns, one row per parameter set, for
``keyrate.rate_batch``.  So a body never branches on a value: ``where``,
``maximum`` and ``minimum`` stand for the branches, and a branch that the
result does not use is worked out on placeholder values, never on a zero
divisor.  The public functions run the bodies on floats; ``pairing_probs``
and ``z_key_groups`` need no namespace and take either source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .channel import CountKey, SourceConfig, split_sums
from .stats import FLOATS

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
    return _joint_bound(FLOATS, terms, direction, eps)


def _joint_bound(ops, terms, direction: str, eps: float | None):
    if direction not in ("lower", "upper"):
        raise ValueError(f"direction must be 'lower' or 'upper', got {direction!r}")
    ordered = ops.sort_terms(terms)
    bound_fn = ops.expected_lower if direction == "lower" else ops.expected_upper
    maximum = ops.maximum
    total = 0.0
    prev_coef = 0.0
    for j, (coef, _) in enumerate(ordered):
        # a step that does not rise (tied coefficients) adds nothing
        tail = sum(v for _, v in ordered[j:])
        total += maximum(coef - prev_coef, 0.0) * bound_fn(tail, eps)
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
    return _vacuum_events_lower(FLOATS, counts, probs, source, groups, eps)


def _vacuum_events_lower(ops, counts, probs, source, groups, eps):
    exp, expected_lower = ops.exp, ops.expected_lower
    ints_a, ints_b = source.intensities_a, source.intensities_b
    total = 0.0
    for (ta, tb) in groups:
        k_a = ints_a[ta[0]] + ints_a[ta[1]]
        k_b = ints_b[tb[0]] + ints_b[tb[1]]
        p_g = probs[(ta, tb)]
        via_a = (
            exp(-k_a) * p_g / probs[(("o", "o"), tb)]
            * expected_lower(counts[(("o", "o"), tb)], eps)
        )
        via_b = (
            exp(-k_b) * p_g / probs[(ta, ("o", "o"))]
            * expected_lower(counts[(ta, ("o", "o"))], eps)
        )
        total += ops.maximum(via_a, via_b)
    return total


def _decoy_pair(source: SourceConfig) -> tuple[str, str]:
    """Bright levels used as the decoy pair in the single-photon bound."""
    return ("omega", "nu") if source.four_intensity else ("mu", "nu")


def _primed_levels(ops, source: SourceConfig, hi: str, lo: str) -> tuple:
    """Pick the primed intensities from the party with the smaller hi/lo ratio."""
    hi_a, hi_b = source.intensities_a[hi], source.intensities_b[hi]
    lo_a, lo_b = source.intensities_a[lo], source.intensities_b[lo]
    a_side = hi_a / hi_b <= lo_a / lo_b
    return ops.where(a_side, hi_a, hi_b), ops.where(a_side, lo_a, lo_b)


def _zgroup_intensity_sum(ops, probs, source, groups):
    """Sum over key groups of k_a k_b exp(-k_a - k_b) p_group."""
    acc = 0.0
    for (ta, tb) in groups:
        k_a = source.intensities_a[ta[0]] + source.intensities_a[ta[1]]
        k_b = source.intensities_b[tb[0]] + source.intensities_b[tb[1]]
        acc += k_a * k_b * ops.exp(-k_a - k_b) * probs[(ta, tb)]
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
    return _single_photon_pairs_z_lower(FLOATS, counts, probs, source, groups, eps)


def _single_photon_pairs_z_lower(ops, counts, probs, source, groups, eps):
    exp = ops.exp
    hi, lo = _decoy_pair(source)
    hi_a, hi_b = source.intensities_a[hi], source.intensities_b[hi]
    lo_a, lo_b = source.intensities_a[lo], source.intensities_b[lo]
    hi_p, lo_p = _primed_levels(ops, source, hi, lo)
    oo = ("o", "o")

    c_hi = hi_a * hi_b * hi_p      # weight of the low-level bracket
    c_lo = lo_a * lo_b * lo_p      # weight of the high-level bracket

    plus_terms = (
        (c_hi * exp(lo_a + lo_b) / probs[((lo, "o"), (lo, "o"))], counts[((lo, "o"), (lo, "o"))]),
        (c_lo * exp(hi_b) / probs[(oo, (hi, "o"))], counts[(oo, (hi, "o"))]),
        (c_lo * exp(hi_a) / probs[((hi, "o"), oo)], counts[((hi, "o"), oo)]),
        ((c_hi - c_lo) / probs[(oo, oo)], counts[(oo, oo)]),
    )
    minus_terms = (
        (c_lo * exp(hi_a + hi_b) / probs[((hi, "o"), (hi, "o"))], counts[((hi, "o"), (hi, "o"))]),
        (c_hi * exp(lo_b) / probs[(oo, (lo, "o"))], counts[(oo, (lo, "o"))]),
        (c_hi * exp(lo_a) / probs[((lo, "o"), oo)], counts[((lo, "o"), oo)]),
    )
    plus = _joint_bound(ops, plus_terms, "lower", eps)
    minus = _joint_bound(ops, minus_terms, "upper", eps)

    prefactor = _zgroup_intensity_sum(ops, probs, source, groups) / (
        lo_a * lo_b * hi_a * hi_b * (hi_p - lo_p)
    )
    return ops.maximum(prefactor * (plus - minus), 0.0)


def zx_count_ratio(
    probs: Mapping[CountKey, float], source: SourceConfig, groups: Sequence[CountKey]
) -> float:
    """Expected ratio of Z-group to X-group single-photon pair counts."""
    return _zx_count_ratio(FLOATS, probs, source, groups)


def _zx_count_ratio(ops, probs, source, groups):
    nu_a = source.intensities_a["nu"]
    nu_b = source.intensities_b["nu"]
    x_weight = 4.0 * nu_a * nu_b * ops.exp(-2.0 * nu_a - 2.0 * nu_b) * probs[X_KEY]
    return _zgroup_intensity_sum(ops, probs, source, groups) / x_weight


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
    return _xbasis_vacuum_errors_lower(FLOATS, counts, probs, source, eps)


def _xbasis_vacuum_errors_lower(ops, counts, probs, source, eps):
    exp = ops.exp
    nu_a = source.intensities_a["nu"]
    nu_b = source.intensities_b["nu"]
    oo = ("o", "o")
    two_nu_a = ("nu", "nu")
    p_x = probs[X_KEY]
    plus_terms = (
        (exp(-2.0 * nu_a) * p_x / (2.0 * probs[(oo, two_nu_a)]), counts[(oo, two_nu_a)]),
        (exp(-2.0 * nu_b) * p_x / (2.0 * probs[(two_nu_a, oo)]), counts[(two_nu_a, oo)]),
    )
    minus_term = (
        exp(-2.0 * nu_a - 2.0 * nu_b) * p_x / (2.0 * probs[(oo, oo)]),
        counts[(oo, oo)],
    )
    plus = _joint_bound(ops, plus_terms, "lower", eps)
    minus = minus_term[0] * ops.expected_upper(minus_term[1], eps)
    return ops.maximum(plus - minus, 0.0)


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
    return _double_scan(FLOATS, counts, m_x, probs, source, eps, grid)


def _double_scan(ops, counts, m_x, probs, source, eps, grid=None):
    exp, maximum, where = ops.exp, ops.maximum, ops.where
    expected_lower, expected_upper = ops.expected_lower, ops.expected_upper
    mu_a, mu_b = source.intensities_a["mu"], source.intensities_b["mu"]
    nu_a, nu_b = source.intensities_a["nu"], source.intensities_b["nu"]
    a_side = mu_a / mu_b <= nu_a / nu_b
    mu_t = where(a_side, 2.0 * mu_a, 2.0 * mu_b)
    nu_t = where(a_side, 2.0 * nu_a, 2.0 * nu_b)

    oo = ("o", "o")
    two_nu, two_mu = ("nu", "nu"), ("mu", "mu")
    c_mu = mu_a * mu_b * mu_t
    c_nu = nu_a * nu_b * nu_t

    plus_terms = (
        (c_mu * exp(2.0 * nu_a + 2.0 * nu_b) / probs[X_KEY], maximum(counts[X_KEY] - m_x, 0.0)),
        (c_nu * exp(2.0 * mu_b) / probs[(oo, two_mu)], counts[(oo, two_mu)]),
        (c_nu * exp(2.0 * mu_a) / probs[(two_mu, oo)], counts[(two_mu, oo)]),
    )
    minus_terms = (
        (c_nu * exp(2.0 * mu_a + 2.0 * mu_b) / probs[(two_mu, two_mu)], counts[(two_mu, two_mu)]),
        (c_nu / probs[(oo, oo)], counts[(oo, oo)]),
    )
    s_plus = _joint_bound(ops, plus_terms, "lower", eps)
    s_minus = _joint_bound(ops, minus_terms, "upper", eps)

    h_terms = (
        (c_mu * exp(2.0 * nu_b) / probs[(oo, two_nu)], counts[(oo, two_nu)]),
        (c_mu * exp(2.0 * nu_a) / probs[(two_nu, oo)], counts[(two_nu, oo)]),
    )
    h_minus = (c_mu / probs[(oo, oo)], counts[(oo, oo)])
    h_lo = maximum(_joint_bound(ops, h_terms, "lower", eps)
                   - h_minus[0] * expected_upper(h_minus[1], eps), 0.0)
    h_hi = maximum(_joint_bound(ops, h_terms, "upper", eps)
                   - h_minus[0] * expected_lower(h_minus[1], eps), h_lo)

    m_coef = c_mu * exp(2.0 * nu_a + 2.0 * nu_b) / probs[X_KEY]
    m_lo = m_coef * expected_lower(m_x, eps)
    m_hi = m_coef * expected_upper(m_x, eps)

    x_factor = exp(-2.0 * nu_a - 2.0 * nu_b) * probs[X_KEY]

    def rate_at(h, m):
        s11x = x_factor * (s_plus - s_minus + m - h) / (mu_a * mu_b * (mu_t - nu_t))
        t11x = maximum(x_factor * (m - h / 2.0) / (mu_a * mu_b * mu_t), 0.0)
        feasible = s11x > 0.0  # an infeasible corner gets the no-key sentinel
        e11x = where(feasible, t11x / where(feasible, s11x, 1.0), 1.0)
        return e11x, where(feasible, s11x, 0.0), t11x

    if grid:
        points = [
            (h_lo + (h_hi - h_lo) * i / (grid - 1), m_lo + (m_hi - m_lo) * j / (grid - 1))
            for i in range(grid)
            for j in range(grid)
        ]
    else:
        points = [(h_lo, m_lo), (h_lo, m_hi), (h_hi, m_lo), (h_hi, m_hi)]

    scanned = [rate_at(h, m) for h, m in points]
    e, s, t = ops.first_max(scanned)
    return DoubleScanResult(
        e11x_star=ops.minimum(e, 1.0), s11x_star=s, t11x_star=t,
        corners=tuple((ops.minimum(e, 1.0), s, t) for e, s, t in scanned),
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
    scan = double_scan(counts, m_x, probs, source, eps) if double_scanning else None
    return _estimate(FLOATS, counts, m_x, probs, source, groups, eps, phase_error_method, scan)


def _estimate(ops, counts, m_x, probs, source, groups, eps, phase_error_method: str,
              scan: DoubleScanResult | None) -> DecoyEstimate:
    """``estimate`` from the pairing probabilities ``probs``, the key groups
    and the double scan's result (None without double scanning)."""
    maximum, minimum, where = ops.maximum, ops.minimum, ops.where
    observed_lower = ops.observed_lower

    s0_star = _vacuum_events_lower(ops, counts, probs, source, groups, eps)
    s0_obs = observed_lower(s0_star, eps)

    s11z_star = _single_photon_pairs_z_lower(ops, counts, probs, source, groups, eps)
    s11z_obs = observed_lower(s11z_star, eps)

    ratio = _zx_count_ratio(ops, probs, source, groups)

    m0_star = _xbasis_vacuum_errors_lower(ops, counts, probs, source, eps)

    if scan is not None:
        s11x_star = maximum(scan.s11x_star, 0.0)
        t11x_star = scan.t11x_star
        e11x = scan.e11x_star
    else:
        s11x_star = s11z_star / ratio
        t11x_star = maximum(ops.expected_upper(m_x, eps) - m0_star, 0.0)
    s11x_obs = observed_lower(s11x_star, eps)
    t11x_obs = maximum(m_x - observed_lower(m0_star, eps), 0.0)
    if scan is None:
        counted = s11x_obs > 0.0
        e11x = where(counted, minimum(t11x_obs / where(counted, s11x_obs, 1.0), 1.0), 1.0)

    # without single-photon pairs in both bases there is no key; the phase
    # error is then worked out on a placeholder count and reported as 0.5
    infeasible = (s11z_obs <= 0.0) | (s11x_obs <= 0.0)
    s11z_div = where(infeasible, 1.0, s11z_obs)

    def phase_error(e_corner, s_star, t_star):
        if phase_error_method == "direct":
            return ops.observed_upper(ratio * t_star, eps) / s11z_div
        s_obs = observed_lower(s_star, eps)
        if eps is not None:
            s_div = where(s_obs > 0.0, s_obs, 1.0)
            e_corner = e_corner + ops.sampling_correction(
                s11z_div, s_div, minimum(e_corner, 1.0), eps
            )
        return where(s_obs <= 0.0, 0.5, e_corner)

    if scan is not None:
        # worst case of the final bound over the scan rectangle's corners
        phi = phase_error(*scan.corners[0])
        for corner in scan.corners[1:]:
            phi = maximum(phi, phase_error(*corner))
    else:
        phi = phase_error(e11x, s11x_star, t11x_star)
    phi = minimum(maximum(where(infeasible, 0.5, phi), 0.0), 0.5)

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
