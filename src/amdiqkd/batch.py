"""Batch forms of the key-rate chain: many parameter sets on one link at once.

The optimizer scores its initial population and each generation as one batch
(see :mod:`amdiqkd.optimizer`); these are the numpy forms it calls.
``rate_batch`` gives ``keyrate.evaluate(...).rate_per_pulse``, and
``mdi_rate_batch`` and ``bb84_rate_batch`` give the reference protocols' rates
per pulse, for every row of a set of (B,) parameter columns.

``COLUMNS`` is the operations namespace of the estimation bodies in
:mod:`amdiqkd.decoy`, :mod:`amdiqkd.keyrate` and :mod:`amdiqkd.baselines` on
(B,) columns, the counterpart of :data:`amdiqkd.stats.FLOATS`.  Its
primitives repeat the scalar ones' operation order and call the C library's
exp, log and pow (through :func:`amdiqkd.stats.each`) where numpy's own may
round differently.  The entry points build the columns and run those bodies.
Only the observables are numpy code of their own (``expected_observables_batch``
on (B, L, L) click tables); they repeat :mod:`amdiqkd.channel`'s operation
order.  So a batch rate equals the scalar rate to rounding, and bit for bit
wherever the scalar forms' ``sum()`` adds left to right (before Python 3.12).

A row that the scalar form rejects raises ValueError here too.  Other argument
checks are skipped: a row that the scalar form returns early on (no pairs, an
infeasible bound) gets placeholder values that are masked out.

``keyrate.rate_batch``, ``baselines.mdi_rate_batch`` and
``baselines.bb84_rate_batch`` load this module on first use, so a process that
never scores a batch does not compile it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace
from typing import Mapping

import numpy as np

from . import baselines, decoy, keyrate
from .baselines import Bb84Params
from .channel import LABEL_ORDER, ChannelLink, CountKey, DetectorPair, GroupLayout, _group_layout
from .keyrate import ProtocolVariant
from .stats import RATE_FLOOR, _beta, each

__all__ = [
    "SourceBatch",
    "ObservableBatch",
    "expected_observables_batch",
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


def _min_over(fn, points):
    """The least of ``fn(*point)`` over ``points`` per row, with all points in
    one call: each argument stacked to (P, B)."""
    return fn(*(np.stack(column) for column in zip(*points))).min(axis=0)


def _sort_terms(terms):
    """``sorted(terms)`` by coefficient in every row, stable as sorted() is:
    the (coefficient, count) columns of each rank in turn."""
    columns = np.broadcast_arrays(*(v for term in terms for v in term))
    coefs, counts = np.stack(columns[0::2]), np.stack(columns[1::2])
    order = np.argsort(coefs, axis=0, kind="stable")
    return list(zip(np.take_along_axis(coefs, order, axis=0),
                    np.take_along_axis(counts, order, axis=0)))


def _first_max(candidates):
    """The first of ``candidates`` with the largest first element, per row:
    the candidates are tuples of columns, and so is the result."""
    stacked = [np.stack(np.broadcast_arrays(*column)) for column in zip(*candidates)]
    best = np.argmax(stacked[0], axis=0)[None]  # the first of equal maxima
    return tuple(np.take_along_axis(column, best, axis=0)[0] for column in stacked)


# the operations of the estimation bodies in amdiqkd.decoy, amdiqkd.keyrate
# and amdiqkd.baselines, applied to (B,) columns: stats.FLOATS on numpy
COLUMNS = SimpleNamespace(
    exp=exp_batch, sqrt=np.sqrt, maximum=np.maximum, minimum=np.minimum, where=np.where,
    i0m1=i0m1_batch, no_click=no_click_batch, entropy=binary_entropy_batch,
    expected_lower=expected_lower_batch, expected_upper=expected_upper_batch,
    observed_lower=observed_lower_batch, observed_upper=observed_upper_batch,
    sampling_correction=sampling_correction_batch, min_over=_min_over,
    sort_terms=_sort_terms, first_max=_first_max,
)


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
    obs = expected_observables_batch(source, link, det, n_pulses, window)
    counts = dict(zip(source.layout.groups, obs.counts.T))
    probs = decoy.pairing_probs(source, link.phase_slices)
    groups = decoy.z_key_groups(source, variant.z_group_mode)
    scan = None
    if variant.double_scanning:
        scan = decoy._double_scan(COLUMNS, counts, obs.m_x, probs, source, eps)
    est = decoy._estimate(COLUMNS, counts, obs.m_x, probs, source, groups, eps,
                          variant.phase_error_method, scan)
    leakage = keyrate._leakage(COLUMNS, counts, obs.z_qber, groups, error_correction_f)
    ell = keyrate._key_length(COLUMNS, est.s0_z, est.s11_z, est.phi11_z, leakage, eps)
    return np.where(obs.n_pairs > 0.0, ell, 0.0) / n_pulses


# ---------------------------------------------------------------------------
# reference protocols (baselines)
# ---------------------------------------------------------------------------

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
