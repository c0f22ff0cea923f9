"""Batch forms of the key-rate chain: many parameter sets on one link at once.

The optimizer scores its initial population and each generation as one batch
(see :mod:`amdiqkd.optimizer`); these are the numpy forms it calls.
``rate_batch`` gives ``keyrate.evaluate(...).rate_per_pulse``, and
``mdi_rate_batch`` and ``bb84_rate_batch`` give the reference protocols' rates
per pulse, for every row of a set of (B,) parameter columns.

The sections up to the key rate mirror one scalar module each and repeat its
operation order: left-to-right sums, the same grouping of products and
quotients, and the C library's exp, log and pow (through
:func:`amdiqkd.stats.each`) where numpy's own may round differently.  So a
batch rate equals the scalar rate to rounding, and bit for bit wherever the
scalar forms' ``sum()`` adds left to right (before Python 3.12).  The scalar
forms stay the reference and the single-call path.  The reference protocols
are not copied here: ``COLUMNS`` is the column namespace that their bodies in
:mod:`amdiqkd.baselines` run on, and the two batch entry points only build the
columns.

A row that the scalar form rejects raises ValueError here too.  Other argument
checks are skipped: a row that the scalar form returns early on (no pairs, an
infeasible bound) gets placeholder values that are masked out, so numpy's
divide and invalid warnings are silenced on those paths.

``keyrate.rate_batch``, ``baselines.mdi_rate_batch`` and
``baselines.bb84_rate_batch`` load this module on first use, so a process that
never scores a batch does not compile it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace
from typing import Mapping, Sequence

import numpy as np

from . import baselines
from .baselines import Bb84Params
from .channel import LABEL_ORDER, ChannelLink, CountKey, DetectorPair, GroupLayout, _group_layout
from .decoy import X_KEY, _decoy_pair, z_key_groups
from .keyrate import ProtocolVariant
from .stats import RATE_FLOOR, _beta, each

__all__ = [
    "SourceBatch",
    "ObservableBatch",
    "expected_observables_batch",
    "estimate_batch",
    "rate_batch",
    "mdi_rate_batch",
    "bb84_rate_batch",
]


# ---------------------------------------------------------------------------
# numerical primitives (stats)
# ---------------------------------------------------------------------------

def exp_batch(x: np.ndarray) -> np.ndarray:
    return each(math.exp, x)


def binary_entropy_batch(x: np.ndarray) -> np.ndarray:
    inner = (x > 0.0) & (x < 1.0)
    x = np.where(inner, x, 0.5)
    h = -x * each(math.log2, x) - (1.0 - x) * each(math.log2, 1.0 - x)
    return np.where(inner, h, 0.0)


def expected_lower_batch(observed: np.ndarray, eps: float | None) -> np.ndarray:
    if eps is None:
        return observed
    beta = _beta(eps)
    return np.maximum(observed - beta / 2.0 - np.sqrt(2.0 * beta * observed + beta * beta / 4.0), 0.0)


def expected_upper_batch(observed: np.ndarray, eps: float | None) -> np.ndarray:
    if eps is None:
        return observed
    beta = _beta(eps)
    return observed + beta + np.sqrt(2.0 * beta * observed + beta * beta)


def observed_lower_batch(expected: np.ndarray, eps: float | None) -> np.ndarray:
    positive = expected > 0.0
    if eps is None:
        return np.where(positive, expected, 0.0)
    expected = np.where(positive, expected, 0.0)
    beta = _beta(eps)
    return np.where(positive, np.maximum(expected - np.sqrt(2.0 * beta * expected), 0.0), 0.0)


def observed_upper_batch(expected: np.ndarray, eps: float | None) -> np.ndarray:
    positive = expected > 0.0
    if eps is None:
        return np.where(positive, expected, 0.0)
    expected = np.where(positive, expected, 0.0)
    beta = _beta(eps)
    upper = expected + beta / 2.0 + np.sqrt(2.0 * beta * expected + beta * beta / 4.0)
    return np.where(positive, upper, 0.0)


def sampling_correction_batch(n: np.ndarray, k: np.ndarray, rate: np.ndarray, eps: float) -> np.ndarray:
    """``sampling_correction`` per element; needs n, k > 0 and rate in [0, 1]."""
    lam = np.minimum(np.maximum(rate, RATE_FLOOR), 1.0 - RATE_FLOOR)
    total = n + k
    a_max = np.maximum(n, k)
    g = (total / (n * k)) * each(math.log, total / (2.0 * math.pi * n * k * lam * (1.0 - lam) * eps * eps))
    ag = a_max * g / total
    num = (1.0 - 2.0 * lam) * ag + np.sqrt(np.maximum(ag * ag + 4.0 * lam * (1.0 - lam) * g, 0.0))
    den = 2.0 + 2.0 * a_max * ag / total
    return np.where(g < 0.0, 0.0, num / den)


def i0m1_batch(x: np.ndarray) -> np.ndarray:
    """``i0m1`` per element: each element's series stops where its scalar one does."""
    q = 0.25 * x * x
    term = q
    total = q.copy()
    k = 1
    going = term > 1e-17 * total
    while going.any():
        k += 1
        term = np.where(going, term * (q / (k * k)), term)
        total = np.where(going, total + term, total)
        going &= term > 1e-17 * total
    return total


def no_click_batch(mean: np.ndarray, p_d: float) -> tuple[np.ndarray, np.ndarray]:
    log_y = math.log1p(-p_d) - mean
    return each(math.exp, log_y), -each(math.expm1, log_y)


# ---------------------------------------------------------------------------
# source settings and observables (channel)
# ---------------------------------------------------------------------------

def validate_party_batch(intensities: Mapping[str, np.ndarray],
                          probabilities: Mapping[str, np.ndarray]) -> None:
    """``validate_party`` on columns: raise unless every candidate passes."""
    ordered = [intensities[l] for l in LABEL_ORDER if l in intensities]
    ok = np.ones(ordered[0].shape, dtype=bool)
    for hi, lo in zip(ordered, ordered[1:]):
        ok &= hi > lo
    total = 0.0
    for p in probabilities.values():
        ok &= (p > 0.0) & (p < 1.0)
        total = total + p
    ok &= np.abs(total - 1.0) <= 1e-9
    if not ok.all():
        bad = int(np.argmin(ok))
        raise ValueError(
            f"candidate {bad}: intensities must be strictly decreasing mu > (omega >) nu > o "
            f"and probabilities in (0, 1) must sum to 1, got "
            f"{ {l: float(v[bad]) for l, v in intensities.items()} }, "
            f"{ {l: float(v[bad]) for l, v in probabilities.items()} }"
        )


@dataclass(frozen=True)
class SourceBatch:
    """B source settings on one label set: per party, label -> (B,) arrays.

    The batch counterpart of :class:`amdiqkd.channel.SourceConfig`, with the
    same attribute names, so code that only reads those works on either.
    """

    intensities_a: Mapping[str, np.ndarray]
    probabilities_a: Mapping[str, np.ndarray]
    intensities_b: Mapping[str, np.ndarray]
    probabilities_b: Mapping[str, np.ndarray]
    click_filtering: bool = True

    @classmethod
    def from_columns(cls, columns: Mapping[str, np.ndarray], four_intensity: bool,
                     click_filtering: bool = True) -> "SourceBatch":
        """``SourceConfig.from_params`` on columns of the same flat keys."""

        def party(side):
            names = ["mu", "nu"] + (["omega"] if four_intensity else [])
            ints = {l: np.asarray(columns[f"{l}_{side}"], dtype=float) for l in names}
            probs = {l: np.asarray(columns[f"p_{l}_{side}"], dtype=float) for l in names}
            total = 0.0
            for p in probs.values():
                total = total + p
            ints["o"] = np.zeros_like(ints["mu"])
            probs["o"] = 1.0 - total
            validate_party_batch(ints, probs)
            return ints, probs

        ia, pa = party("a")
        ib, pb = party("b")
        return cls(ia, pa, ib, pb, click_filtering=click_filtering)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(l for l in LABEL_ORDER if l in self.intensities_a)

    @cached_property
    def four_intensity(self) -> bool:
        return "omega" in self.intensities_a

    @cached_property
    def layout(self) -> GroupLayout:
        return _group_layout(self.labels, self.click_filtering)

    @cached_property
    def survival_prob(self) -> np.ndarray:
        p_s = np.ones_like(self.probabilities_a["mu"])
        for la in self.labels:
            for lb in self.labels:
                if (la, lb) not in self.layout.kept:
                    p_s = p_s - self.probabilities_a[la] * self.probabilities_b[lb]
        return p_s

    def stacked(self, values_a: Mapping[str, np.ndarray], values_b: Mapping[str, np.ndarray]
                ) -> tuple[np.ndarray, np.ndarray]:
        """Both parties' label columns as (B, L) arrays in ``labels`` order."""
        return (np.stack([values_a[l] for l in self.labels], axis=-1),
                np.stack([values_b[l] for l in self.labels], axis=-1))

    def kept_weights(self) -> np.ndarray:
        """p_a(la) p_b(lb) of every kept pair, (B, K)."""
        p_a, p_b = self.stacked(self.probabilities_a, self.probabilities_b)
        ia, ib = self.layout.kept_index
        return p_a[:, ia] * p_b[:, ib]


def split_sums_batch(layout: GroupLayout, weight: np.ndarray) -> np.ndarray:
    """``split_sums`` on (B, K) kept-pair weights: (B, G) group sums."""
    padded = np.concatenate([weight, np.zeros_like(weight[:, :1])], axis=1)
    early, late = layout.split_index
    acc = padded[:, early[:, 0]] * padded[:, late[:, 0]]
    for s in range(1, early.shape[1]):
        acc = acc + padded[:, early[:, s]] * padded[:, late[:, s]]
    return acc


def _pair_terms_batch(k_a, k_b, link: ChannelLink, det: DetectorPair):
    t_a, t_b = link.eta_a * k_a, link.eta_b * k_b
    y, click = no_click_batch(0.5 * det.eta_d * (t_a + t_b), det.dark_prob(link.clock_hz))
    return y, click, det.eta_d * np.sqrt(t_a * t_b)


def _click_correlations_batch(k_a, k_b, delta, link: ChannelLink, det: DetectorPair):
    y, click, c = _pair_terms_batch(k_a, k_b, link, det)
    common = click * click - 2.0 * y * i0m1_batch(c)
    scale = 2.0 * y * y
    opposite = scale * (i0m1_batch(2.0 * c * each(math.sin, 0.5 * delta)) + common)
    same = scale * (i0m1_batch(2.0 * c * each(math.cos, 0.5 * delta)) + common)
    return opposite, same


@dataclass
class ObservableBatch:
    """The batch counterpart of :class:`amdiqkd.channel.ObservableSet`.

    ``counts`` is (B, G) in ``layout.groups`` order, ``z_qber`` maps each key
    group to a (B,) array and the rest are (B,) arrays.  Rows without pairs
    (``n_pairs == 0``) hold placeholders, not the scalar form's values.
    """

    n_pairs: np.ndarray
    counts: np.ndarray
    m_x: np.ndarray
    z_qber: dict[CountKey, np.ndarray]


def expected_observables_batch(
    source: SourceBatch, link: ChannelLink, det: DetectorPair, n_pulses: float,
    window: np.ndarray | float,
) -> ObservableBatch:
    """``expected_observables`` for every row of ``source``, with pairing
    window ``window`` (bins, per row or shared) in place of the link's."""
    layout = source.layout
    k_a, k_b = source.stacked(source.intensities_a, source.intensities_b)
    y, click, c = _pair_terms_batch(k_a[:, :, None], k_b[:, None, :], link, det)
    table = 2.0 * y * (i0m1_batch(c) + click)  # (B, L, L): pair_gain

    ia, ib = layout.kept_index
    kept_gain = source.kept_weights() * table[:, ia, ib]
    q_tot = np.add.accumulate(kept_gain, axis=1)[:, -1]  # left to right, as kept_click_prob adds
    if not ((q_tot >= 0.0) & (q_tot < 1.0)).all():
        raise ValueError(f"q_tot must be in [0, 1), got {q_tot.max()!r}")

    # pairing_statistics, with placeholder rows where no click survives
    live = q_tot > 0.0
    q = np.where(live, q_tot, 0.5)
    q_window = -each(math.expm1, window * each(math.log1p, -q))
    n_pairs = np.where(live, n_pulses * q / (1.0 + 1.0 / q_window), 0.0)
    t_mean = (1.0 - window * q * (1.0 / q_window - 1.0)) / (link.clock_hz * q)

    counts = n_pairs[:, None] * split_sums_batch(layout, kept_gain / q[:, None])
    pos = {l: i for i, l in enumerate(source.labels)}
    p_a, p_b = source.probabilities_a, source.probabilities_b
    for ta, tb in layout.sifted:
        l = ta[0]
        weight = p_a[l] * p_b[l] / q
        opposite, same = _click_correlations_batch(
            source.intensities_a[l], source.intensities_b[l], 0.0, link, det
        )
        counts[:, layout.group_pos[(ta, tb)]] = (
            n_pairs * (2.0 / link.phase_slices) * weight * weight * (opposite + same)
        )

    # xbasis_error_count
    delta = link.drift_phase(np.where(live, t_mean, 0.0))
    weight = each(lambda v: v ** 2, p_a["nu"] * p_b["nu"] / q)
    e_mis = link.interference_error
    wrong, right = _click_correlations_batch(
        source.intensities_a["nu"], source.intensities_b["nu"], delta, link, det
    )
    m_x = n_pairs * (2.0 / link.phase_slices) * weight * ((1.0 - e_mis) * wrong + e_mis * right)

    # z_error_rates
    z_qber = {}
    o = pos["o"]
    bright = [l for l in source.labels if l != "o"]
    for ka in bright:
        for kb in bright:
            i, j = pos[ka], pos[kb]
            same = table[:, i, j] * table[:, o, o] if (ka, kb) in layout.kept else 0.0
            diff = table[:, i, o] * table[:, o, j]
            total = same + diff
            z_qber[((ka, "o"), (kb, "o"))] = np.where(
                total > 0.0, same / np.where(total > 0.0, total, 1.0), 0.0
            )
    return ObservableBatch(n_pairs=n_pairs, counts=counts, m_x=m_x, z_qber=z_qber)


# ---------------------------------------------------------------------------
# decoy-state estimation (decoy)
# ---------------------------------------------------------------------------

def pairing_probs_batch(source: SourceBatch, phase_slices: int) -> np.ndarray:
    """``pairing_probs`` per row: (B, G) in ``layout.groups`` order."""
    layout = source.layout
    probs = split_sums_batch(layout, source.kept_weights() / source.survival_prob[:, None])
    for key in layout.sifted:
        g = layout.group_pos[key]
        probs[:, g] = probs[:, g] * (2.0 / phase_slices)
    return probs


def joint_bound_batch(coefs: Sequence[np.ndarray], counts: Sequence[np.ndarray],
                      direction: str, eps: float | None) -> np.ndarray:
    """``joint_bound`` per row, for terms given as parallel lists of (B,) arrays."""
    if direction not in ("lower", "upper"):
        raise ValueError(f"direction must be 'lower' or 'upper', got {direction!r}")
    bound_fn = expected_lower_batch if direction == "lower" else expected_upper_batch
    coefs, counts = np.stack(coefs, axis=1), np.stack(counts, axis=1)
    order = np.argsort(coefs, axis=1, kind="stable")  # sorted() is stable too
    coefs = np.take_along_axis(coefs, order, axis=1)
    counts = np.take_along_axis(counts, order, axis=1)
    n_terms = coefs.shape[1]
    total = 0.0
    prev_coef = 0.0
    for j in range(n_terms):
        step = coefs[:, j] - prev_coef
        tail = counts[:, j]
        for k in range(j + 1, n_terms):
            tail = tail + counts[:, k]
        total = total + np.where(step > 0.0, step * bound_fn(tail, eps), 0.0)
        prev_coef = coefs[:, j]
    return total


def _zgroup_intensity_sum_batch(probs, source: SourceBatch, groups) -> np.ndarray:
    ia, ib, pos = source.intensities_a, source.intensities_b, source.layout.group_pos
    acc = 0.0
    for (ta, tb) in groups:
        k_a = ia[ta[0]] + ia[ta[1]]
        k_b = ib[tb[0]] + ib[tb[1]]
        acc = acc + k_a * k_b * exp_batch(-k_a - k_b) * probs[:, pos[(ta, tb)]]
    return acc


def estimate_batch(
    counts: np.ndarray,
    m_x: np.ndarray,
    source: SourceBatch,
    phase_slices: int,
    eps: float | None,
    z_group_mode: str = "auto",
    phase_error_method: str = "direct",
    double_scanning: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``estimate`` per row of a (B, G) count table: the key-length inputs
    (s0_z, s11_z, phi11_z) as (B,) arrays."""
    if phase_error_method not in ("direct", "random_sampling"):
        raise ValueError(f"unknown phase error method {phase_error_method!r}")
    pos = source.layout.group_pos
    probs_table = pairing_probs_batch(source, phase_slices)
    groups = z_key_groups(source, z_group_mode)
    ia, ib = source.intensities_a, source.intensities_b
    exp = exp_batch

    def n(key):
        return counts[:, pos[key]]

    def p(key):
        return probs_table[:, pos[key]]

    oo = ("o", "o")

    # vacuum_events_lower
    s0_star = 0.0
    for (ta, tb) in groups:
        k_a = ia[ta[0]] + ia[ta[1]]
        k_b = ib[tb[0]] + ib[tb[1]]
        p_g = p((ta, tb))
        via_a = exp(-k_a) * p_g / p((oo, tb)) * expected_lower_batch(n((oo, tb)), eps)
        via_b = exp(-k_b) * p_g / p((ta, oo)) * expected_lower_batch(n((ta, oo)), eps)
        s0_star = s0_star + np.maximum(via_a, via_b)
    s0_obs = observed_lower_batch(s0_star, eps)

    # single_photon_pairs_z_lower
    hi, lo = _decoy_pair(source)
    hi_a, hi_b, lo_a, lo_b = ia[hi], ib[hi], ia[lo], ib[lo]
    a_side = hi_a / hi_b <= lo_a / lo_b
    hi_p, lo_p = np.where(a_side, hi_a, hi_b), np.where(a_side, lo_a, lo_b)
    c_hi = hi_a * hi_b * hi_p
    c_lo = lo_a * lo_b * lo_p
    plus = joint_bound_batch(
        (c_hi * exp(lo_a + lo_b) / p(((lo, "o"), (lo, "o"))),
         c_lo * exp(hi_b) / p((oo, (hi, "o"))),
         c_lo * exp(hi_a) / p(((hi, "o"), oo)),
         (c_hi - c_lo) / p((oo, oo))),
        (n(((lo, "o"), (lo, "o"))), n((oo, (hi, "o"))), n(((hi, "o"), oo)), n((oo, oo))),
        "lower", eps,
    )
    minus = joint_bound_batch(
        (c_lo * exp(hi_a + hi_b) / p(((hi, "o"), (hi, "o"))),
         c_hi * exp(lo_b) / p((oo, (lo, "o"))),
         c_hi * exp(lo_a) / p(((lo, "o"), oo))),
        (n(((hi, "o"), (hi, "o"))), n((oo, (lo, "o"))), n(((lo, "o"), oo))),
        "upper", eps,
    )
    z_sum = _zgroup_intensity_sum_batch(probs_table, source, groups)
    prefactor = z_sum / (lo_a * lo_b * hi_a * hi_b * (hi_p - lo_p))
    s11z_star = np.maximum(prefactor * (plus - minus), 0.0)
    s11z_obs = observed_lower_batch(s11z_star, eps)

    # zx_count_ratio
    nu_a, nu_b = ia["nu"], ib["nu"]
    p_x = p(X_KEY)
    ratio = z_sum / (4.0 * nu_a * nu_b * exp(-2.0 * nu_a - 2.0 * nu_b) * p_x)

    # xbasis_vacuum_errors_lower
    two_nu = ("nu", "nu")
    m0_plus = joint_bound_batch(
        (exp(-2.0 * nu_a) * p_x / (2.0 * p((oo, two_nu))),
         exp(-2.0 * nu_b) * p_x / (2.0 * p((two_nu, oo)))),
        (n((oo, two_nu)), n((two_nu, oo))),
        "lower", eps,
    )
    m0_minus = exp(-2.0 * nu_a - 2.0 * nu_b) * p_x / (2.0 * p((oo, oo)))
    m0_star = np.maximum(m0_plus - m0_minus * expected_upper_batch(n((oo, oo)), eps), 0.0)

    if double_scanning:
        e_c, s_c, t_c = _double_scan_batch(n, p, m_x, source, eps)
        best = np.argmax(e_c, axis=1)[:, None]  # the first of equal maxima
        s11x_star = np.maximum(np.take_along_axis(s_c, best, axis=1)[:, 0], 0.0)
        corners = (np.minimum(e_c, 1.0), s_c, t_c)
    else:
        s11x_star = s11z_star / ratio
        t11x_star = np.maximum(expected_upper_batch(m_x, eps) - m0_star, 0.0)
    s11x_obs = observed_lower_batch(s11x_star, eps)
    t11x_obs = np.maximum(m_x - observed_lower_batch(m0_star, eps), 0.0)
    infeasible = (s11z_obs <= 0.0) | (s11x_obs <= 0.0)
    s11z_div = np.where(infeasible, 1.0, s11z_obs)

    def phase_error(e_corner, s_star, t_star, n_obs, ratio):
        if phase_error_method == "random_sampling":
            s_obs = observed_lower_batch(s_star, eps)
            if eps is None:
                return np.where(s_obs <= 0.0, 0.5, e_corner)
            usable = (s_obs > 0.0) & (n_obs > 0.0)
            correction = sampling_correction_batch(
                np.where(usable, n_obs, 1.0), np.where(usable, s_obs, 1.0),
                np.minimum(e_corner, 1.0), eps,
            )
            return np.where(s_obs <= 0.0, 0.5, e_corner + correction)
        return observed_upper_batch(ratio * t_star, eps) / n_obs

    if double_scanning:
        phi = phase_error(*corners, s11z_div[:, None], ratio[:, None]).max(axis=1)
    else:
        e11x = np.minimum(t11x_obs / np.where(s11x_obs > 0.0, s11x_obs, 1.0), 1.0)
        e11x = np.where(s11x_obs > 0.0, e11x, 1.0)
        phi = phase_error(e11x, s11x_star, t11x_star, s11z_div, ratio)
    phi = np.minimum(np.maximum(np.where(infeasible, 0.5, phi), 0.0), 0.5)
    return s0_obs, s11z_obs, phi


def _double_scan_batch(n, p, m_x, source: SourceBatch, eps):
    """``double_scan``'s four corners per row: (e, s, t), each (B, 4), with e
    not yet capped at 1."""
    ia, ib = source.intensities_a, source.intensities_b
    exp = exp_batch
    mu_a, mu_b = ia["mu"], ib["mu"]
    nu_a, nu_b = ia["nu"], ib["nu"]
    a_side = mu_a / mu_b <= nu_a / nu_b
    mu_t = np.where(a_side, 2.0 * mu_a, 2.0 * mu_b)
    nu_t = np.where(a_side, 2.0 * nu_a, 2.0 * nu_b)

    oo = ("o", "o")
    two_nu, two_mu = ("nu", "nu"), ("mu", "mu")
    c_mu = mu_a * mu_b * mu_t
    c_nu = nu_a * nu_b * nu_t

    s_plus = joint_bound_batch(
        (c_mu * exp(2.0 * nu_a + 2.0 * nu_b) / p(X_KEY),
         c_nu * exp(2.0 * mu_b) / p((oo, two_mu)),
         c_nu * exp(2.0 * mu_a) / p((two_mu, oo))),
        (np.maximum(n(X_KEY) - m_x, 0.0), n((oo, two_mu)), n((two_mu, oo))),
        "lower", eps,
    )
    s_minus = joint_bound_batch(
        (c_nu * exp(2.0 * mu_a + 2.0 * mu_b) / p((two_mu, two_mu)), c_nu / p((oo, oo))),
        (n((two_mu, two_mu)), n((oo, oo))),
        "upper", eps,
    )
    h_coefs = (c_mu * exp(2.0 * nu_b) / p((oo, two_nu)), c_mu * exp(2.0 * nu_a) / p((two_nu, oo)))
    h_counts = (n((oo, two_nu)), n((two_nu, oo)))
    h_minus = c_mu / p((oo, oo))
    h_lo = np.maximum(joint_bound_batch(h_coefs, h_counts, "lower", eps)
                      - h_minus * expected_upper_batch(n((oo, oo)), eps), 0.0)
    h_hi = np.maximum(joint_bound_batch(h_coefs, h_counts, "upper", eps)
                      - h_minus * expected_lower_batch(n((oo, oo)), eps), h_lo)

    m_coef = c_mu * exp(2.0 * nu_a + 2.0 * nu_b) / p(X_KEY)
    m_lo = m_coef * expected_lower_batch(m_x, eps)
    m_hi = m_coef * expected_upper_batch(m_x, eps)

    x_factor = (exp(-2.0 * nu_a - 2.0 * nu_b) * p(X_KEY))[:, None]
    h = np.stack([h_lo, h_lo, h_hi, h_hi], axis=1)
    m = np.stack([m_lo, m_hi, m_lo, m_hi], axis=1)
    col = lambda v: v[:, None]  # noqa: E731
    s_plus, s_minus, mu_a, mu_b, mu_t, nu_t = map(col, (s_plus, s_minus, mu_a, mu_b, mu_t, nu_t))
    s11x = x_factor * (s_plus - s_minus + m - h) / (mu_a * mu_b * (mu_t - nu_t))
    t11x = np.maximum(x_factor * (m - h / 2.0) / (mu_a * mu_b * mu_t), 0.0)
    feasible = s11x > 0.0
    e = np.where(feasible, t11x / np.where(feasible, s11x, 1.0), 1.0)
    return e, np.where(feasible, s11x, 0.0), t11x


# ---------------------------------------------------------------------------
# key rate (keyrate)
# ---------------------------------------------------------------------------

def rate_batch(
    columns: Mapping[str, np.ndarray],
    link: ChannelLink,
    det: DetectorPair,
    n_pulses: float,
    eps: float,
    error_correction_f: float,
    variant: ProtocolVariant = ProtocolVariant(),
) -> np.ndarray:
    """``evaluate(...).rate_per_pulse`` for every row of ``columns``.

    ``columns`` maps each parameter name ``evaluate`` reads (``tc_bins``
    optional) to a (B,) array.  A row that ``evaluate`` would reject raises
    ValueError here too.
    """
    source = SourceBatch.from_columns(columns, variant.four_intensity, variant.click_filtering)
    window = link.pairing_window_bins
    if "tc_bins" in columns:
        window = np.asarray(columns["tc_bins"], dtype=float)
        if not (window >= 1.0).all():
            raise ValueError("pairing_window_bins must be >= 1")
    with np.errstate(divide="ignore", invalid="ignore"):  # rows evaluate returns early on
        obs = expected_observables_batch(source, link, det, n_pulses, window)
        s0, s11, phi = estimate_batch(
            obs.counts, obs.m_x, source, link.phase_slices, eps,
            z_group_mode=variant.z_group_mode,
            phase_error_method=variant.phase_error_method,
            double_scanning=variant.double_scanning,
        )
    leakage = 0.0
    for g in z_key_groups(source, variant.z_group_mode):
        n = obs.counts[:, source.layout.group_pos[g]]
        qber = np.minimum(np.maximum(obs.z_qber[g], 0.0), 1.0)
        leakage = leakage + np.where(n > 0.0, n * error_correction_f * binary_entropy_batch(qber), 0.0)
    ell = (
        s0
        + s11 * (1.0 - binary_entropy_batch(phi))
        - leakage
        - math.log2(2.0 / eps)
        - 2.0 * math.log2(2.0 / (eps * eps))
        - 2.0 * math.log2(1.0 / (2.0 * eps))
    )
    ell = np.where(obs.n_pairs > 0.0, np.maximum(ell, 0.0), 0.0)
    return ell / n_pulses


# ---------------------------------------------------------------------------
# reference protocols (baselines)
# ---------------------------------------------------------------------------

def _min_over(fn, points):
    """The least of ``fn(*point)`` over ``points`` per row, with all points in
    one call: each argument stacked to (P, B)."""
    return fn(*(np.stack(column) for column in zip(*points))).min(axis=0)


# the operations that the reference protocols' bodies in amdiqkd.baselines
# run on, applied to (B,) columns
COLUMNS = SimpleNamespace(
    exp=exp_batch, sqrt=np.sqrt, maximum=np.maximum, minimum=np.minimum, where=np.where,
    i0m1=i0m1_batch, no_click=no_click_batch, entropy=binary_entropy_batch,
    expected_lower=expected_lower_batch, expected_upper=expected_upper_batch,
    observed_lower=observed_lower_batch, observed_upper=observed_upper_batch,
    sampling_correction=sampling_correction_batch, min_over=_min_over,
)


def mdi_rate_batch(
    columns: Mapping[str, np.ndarray],
    link: ChannelLink,
    det: DetectorPair,
    n_pulses: float,
    eps: float,
    error_correction_f: float = 1.1,
) -> np.ndarray:
    """``mdi_key_rate(...)["rate_per_pulse"]`` for every row of ``columns``,
    the flat four-intensity keys of ``SourceConfig.from_params``."""
    source = SourceBatch.from_columns(columns, four_intensity=True)
    device = baselines._mdi_device(link, det, n_pulses)
    # the level-pair counts of all 4 x 4 pairs at once, as (B, 4, 4) tables
    int_a, int_b = source.stacked(source.intensities_a, source.intensities_b)
    prob_a, prob_b = source.stacked(source.probabilities_a, source.probabilities_b)
    tables = baselines._mdi_pair_counts(
        COLUMNS, int_a[:, :, None], int_b[:, None, :], prob_a[:, :, None], prob_b[:, None, :],
        device,
    )
    pairs = {(la, lb): (i, j) for i, la in enumerate(source.labels)
             for j, lb in enumerate(source.labels)}
    obs = baselines.MdiObservables(
        *({key: table[:, i, j] for key, (i, j) in pairs.items()} for table in tables),
        n_pairs=device[0],
    )
    return baselines._mdi_key(COLUMNS, obs, source, n_pulses, eps,
                              error_correction_f)["rate_per_pulse"]


def bb84_rate_batch(
    columns: Mapping[str, np.ndarray],
    link: ChannelLink,
    det: DetectorPair,
    n_pulses: float,
    eps: float,
    error_correction_f: float = 1.1,
    insert_loss_db: float = Bb84Params.insert_loss_db,
    misalignment: float = Bb84Params.misalignment,
) -> np.ndarray:
    """``bb84_key_rate(...)["rate_per_pulse"]`` for every row of ``columns``:
    side-a levels ``mu_a, omega_a, nu_a``, their ``p_*_a`` and ``q_z``; the
    vacuum probability is what the three send probabilities leave."""
    ints = {l: np.asarray(columns[f"{l}_a"], dtype=float) for l in ("mu", "omega", "nu")}
    probs = {l: np.asarray(columns[f"p_{l}_a"], dtype=float) for l in ("mu", "omega", "nu")}
    ints["o"] = np.zeros_like(ints["mu"])
    probs["o"] = 1.0 - (probs["mu"] + probs["omega"] + probs["nu"])
    validate_party_batch(ints, probs)
    q_z = np.asarray(columns["q_z"], dtype=float)
    if not ((q_z > 0.0) & (q_z < 1.0)).all():
        raise ValueError("q_z must be in (0, 1)")
    obs = baselines._bb84_observables(
        COLUMNS, ints, probs, q_z, baselines._receiver_eta(link, det, insert_loss_db),
        det.dark_prob(link.clock_hz), misalignment, n_pulses,
    )
    return baselines._bb84_key(COLUMNS, obs, ints, probs, n_pulses, eps,
                               error_correction_f)["rate_per_pulse"]
