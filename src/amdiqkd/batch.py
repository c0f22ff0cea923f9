"""Batch forms of the key-rate chain: many parameter sets on one link at once.

The optimizer scores its initial population and each generation as one batch
(see :mod:`amdiqkd.optimizer`); these are the numpy forms it calls.
``rate_batch`` gives ``keyrate.evaluate(...).rate_per_pulse``, and
``mdi_rate_batch`` and ``bb84_rate_batch`` give the reference protocols' rates
per pulse, for every row of a set of (B,) parameter columns.

``COLUMNS`` is the operations namespace of the bodies in
:mod:`amdiqkd.channel`, :mod:`amdiqkd.decoy`, :mod:`amdiqkd.keyrate` and
:mod:`amdiqkd.baselines` on numpy columns, the counterpart of
:data:`amdiqkd.stats.FLOATS`.  It lists base operations only, which call the
C library's exp, log, sin, cos and pow (through :func:`amdiqkd.stats.each`)
where numpy's own may round differently, and the column forms of ``i0m1``,
``min_over``, ``sort_terms`` and ``first_max``; the bound, sampling, entropy
and click bodies of :mod:`amdiqkd.stats` are bound to them by
``with_helpers``.  The entry points build the columns and run those bodies.
So a batch rate equals the scalar rate to rounding, and bit for bit wherever
the scalar forms' ``sum()`` adds left to right (before Python 3.12).

A row that the scalar form rejects raises ValueError here too.  Other argument
checks are skipped: a row that the scalar form returns early on (no pairs, an
infeasible bound) gets placeholder values that are masked out.

``keyrate.rate_batch``, ``baselines.mdi_rate_batch`` and
``baselines.bb84_rate_batch`` load this module on first use, so a process that
never scores a batch does not compile it.
"""

from __future__ import annotations

import math
from functools import partial
from types import SimpleNamespace
from typing import Mapping

import numpy as np

from . import baselines, channel, decoy, keyrate
from .baselines import Bb84Params
from .channel import LABEL_ORDER, ChannelLink, DetectorPair, SourceConfig
from .keyrate import ProtocolVariant
from .stats import FLOATS, _beta, each, with_helpers

__all__ = [
    "SourceBatch",
    "rate_batch",
    "mdi_rate_batch",
    "bb84_rate_batch",
]


# ---------------------------------------------------------------------------
# column operations
# ---------------------------------------------------------------------------

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


# the base operations of stats.FLOATS on numpy columns, with the bodies of
# amdiqkd.stats bound to them: the operations of the bodies in
# amdiqkd.channel, amdiqkd.decoy, amdiqkd.keyrate and amdiqkd.baselines
COLUMNS = with_helpers(SimpleNamespace(
    exp=partial(each, math.exp), expm1=partial(each, math.expm1), log=partial(each, math.log),
    log1p=partial(each, math.log1p), log2=partial(each, math.log2), sin=partial(each, math.sin),
    cos=partial(each, math.cos), sqrt=np.sqrt, square=partial(each, FLOATS.square),
    maximum=np.maximum, minimum=np.minimum, all=np.all, where=np.where, count=np.asarray,
    beta=_beta,
    i0m1=i0m1_batch, min_over=_min_over, sort_terms=_sort_terms, first_max=_first_max,
))


# ---------------------------------------------------------------------------
# source settings (channel)
# ---------------------------------------------------------------------------

def validate_party_batch(intensities: Mapping[str, np.ndarray],
                          probabilities: Mapping[str, np.ndarray]) -> None:
    """``validate_party`` on columns: raise unless every candidate passes."""
    ordered = [intensities[l] for l in LABEL_ORDER if l in intensities]
    ok = np.ones(ordered[0].shape, dtype=bool)
    for hi, lo in zip(ordered, ordered[1:]):
        ok &= (hi > lo) & (hi < math.inf)
    total = 0.0
    for p in probabilities.values():
        ok &= (p > 0.0) & (p < 1.0)
        total = total + p
    ok &= np.abs(total - 1.0) <= 1e-9
    if not ok.all():
        bad = int(np.argmin(ok))
        raise ValueError(
            f"candidate {bad}: intensities must be finite and strictly decreasing "
            f"mu > (omega >) nu > o and probabilities in (0, 1) must sum to 1, got "
            f"{ {l: float(v[bad]) for l, v in intensities.items()} }, "
            f"{ {l: float(v[bad]) for l, v in probabilities.items()} }"
        )


class SourceBatch(SourceConfig):
    """B source settings on one label set: per party, label -> (B,) arrays.

    A :class:`amdiqkd.channel.SourceConfig` whose levels and probabilities are
    columns; only the validation differs.
    """

    def __post_init__(self) -> None:
        validate_party_batch(self.intensities_a, self.probabilities_a)
        validate_party_batch(self.intensities_b, self.probabilities_b)

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
            return ints, probs

        ia, pa = party("a")
        ib, pb = party("b")
        return cls(ia, pa, ib, pb, click_filtering=click_filtering)

    def stacked(self, values_a: Mapping[str, np.ndarray], values_b: Mapping[str, np.ndarray]
                ) -> tuple[np.ndarray, np.ndarray]:
        """Both parties' label columns as (B, L) arrays in ``labels`` order."""
        return (np.stack([values_a[l] for l in self.labels], axis=-1),
                np.stack([values_b[l] for l in self.labels], axis=-1))


def _click_table(source: SourceBatch, link: ChannelLink, det: DetectorPair) -> dict:
    """``channel.click_table`` on columns: the pair gain of all L x L label
    pairs at once, as (B, L, L) tables, sliced into a {label pair: column} dict."""
    k_a, k_b = source.stacked(source.intensities_a, source.intensities_b)
    gains = channel._pair_gain(COLUMNS, k_a[:, :, None], k_b[:, None, :], link, det)
    return {(la, lb): gains[:, i, j] for i, la in enumerate(source.labels)
            for j, lb in enumerate(source.labels)}


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
        if not ((window >= 1.0) & (window < math.inf)).all():
            raise ValueError("pairing_window_bins must be finite and >= 1")
    table = _click_table(source, link, det)
    obs = channel._observables(COLUMNS, source, link, det, n_pulses, window, table)
    probs = decoy.pairing_probs(source, link.phase_slices)
    groups = decoy.z_key_groups(source, variant.z_group_mode)
    scan = None
    if variant.double_scanning:
        scan = decoy._double_scan(COLUMNS, obs.counts, obs.m_x, probs, source, eps)
    est = decoy._estimate(COLUMNS, obs.counts, obs.m_x, probs, source, groups, eps,
                          variant.phase_error_method, scan)
    leakage = keyrate._leakage(COLUMNS, obs.counts, obs.z_qber, groups, error_correction_f)
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
