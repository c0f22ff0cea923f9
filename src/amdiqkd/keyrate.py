"""Final key length, rates and the repeaterless benchmark.

Puts the pieces together: closed-form observables -> decoy estimation ->
error-correction leakage -> extractable key length, for a configurable
protocol variant.  ``evaluate`` is the one entry: it takes the source
settings and the pairing window as a flat parameter dict (the keys the
optimizer decodes to) and reports rates per pulse and per second at the link
clock; the source sends on every clock tick, so a run of ``T`` seconds is
``clock_hz * T`` pulses.  The values of the dict are floats (one candidate)
or (B,) columns (a batch, the optimizer's generations);
``SourceConfig.from_params`` reads either, and every number of the report is
then a float or a (B,) column.  The link is used as given: it holds only the
fibre and timing constants, which every candidate shares.  The leakage
and the key length are written once, as bodies on an operations namespace
(see :mod:`amdiqkd.stats`), so each row of a batch equals the report of that
candidate alone, to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from . import decoy
from .channel import ChannelLink, DetectorPair, ObservableSet, SourceConfig, expected_observables
from .stats import FLOATS, ops_for

__all__ = [
    "ProtocolVariant",
    "KeyRateReport",
    "key_length",
    "repeaterless_bound",
    "total_failure_prob",
    "evaluate",
]


@dataclass(frozen=True)
class ProtocolVariant:
    """Protocol switches: filtering, intensity count, estimation route."""

    click_filtering: bool = True
    four_intensity: bool = False
    phase_error_method: str = "direct"  # "direct" | "random_sampling"
    double_scanning: bool = False
    z_group_mode: str = "auto"  # "auto" | "signal_only"

    def __post_init__(self) -> None:
        if self.phase_error_method not in ("direct", "random_sampling"):
            raise ValueError(f"unknown phase error method {self.phase_error_method!r}")
        if self.z_group_mode not in ("auto", "signal_only"):
            raise ValueError(f"unknown z-group mode {self.z_group_mode!r}")
        if self.four_intensity and not self.click_filtering:
            raise ValueError("the four-intensity variant is defined with click filtering on")


def _leakage(ops, counts, qbers, groups, efficiency: float):
    """Bits disclosed during error correction, summed per key group.

    Correcting each intensity group separately never costs more than pooling,
    by concavity of the entropy.
    """
    total = 0.0
    for g in groups:
        n = counts[g]
        qber = ops.minimum(ops.maximum(qbers[g], 0.0), 1.0)
        total += ops.where(n > 0.0, n * efficiency * ops.entropy(qber), 0.0)
    return total


def key_length(
    vacuum_events: float,
    single_photon_pairs: float,
    phase_error_rate: float,
    leakage: float,
    eps: float,
) -> float:
    """Extractable secure key length in bits (clamped at zero).

    Composition terms: one verification hash, two smoothing terms and the
    privacy-amplification term, all at the same failure probability.
    """
    return _key_length(FLOATS, vacuum_events, single_photon_pairs, phase_error_rate, leakage,
                       _composition(FLOATS, eps))


def _key_length(ops, s0, s11, phi, leakage, composition):
    """max(s0 + s11 (1 - h(phi)) - leakage - composition, 0), for every protocol."""
    return ops.maximum(s0 + s11 * (1.0 - ops.entropy(phi)) - leakage - composition, 0.0)


def _composition(ops, eps: float):
    """The asynchronous and time-bin MDI composition term at failure probability eps."""
    return (ops.log2(2.0 / eps) + 2.0 * ops.log2(2.0 / (eps * eps))
            + 2.0 * ops.log2(1.0 / (2.0 * eps)))


def _bb84_composition(ops, eps: float):
    """The decoy-state BB84 composition term: 6 log2(23/eps) + 2 log2(2/eps)."""
    return 6.0 * ops.log2(23.0 / eps) + 2.0 * ops.log2(2.0 / eps)


def total_failure_prob(eps: float) -> float:
    """Diagnostic composition of the individual failure probabilities.

    2(eps' + 2 eps_e + eps_hat) + eps_0 + eps_1 + eps_beta + eps_PA + eps_cor
    with every term set to the same eps.
    """
    return 13.0 * eps


def repeaterless_bound(eta: float) -> float:
    """Secret-key capacity of a repeaterless link, in bits per pulse."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmittance must be in [0, 1], got {eta!r}")
    if eta == 1.0:
        return math.inf
    return -math.log2(1.0 - eta)


@dataclass
class KeyRateReport:
    """One evaluated link configuration."""

    ell: float
    rate_per_pulse: float
    rate_per_second: float
    leakage: float
    skc0_per_pulse: float
    skc0_per_second: float
    eps_tot: float
    estimate: decoy.DecoyEstimate
    observables: ObservableSet
    params: dict = field(default_factory=dict)


def evaluate(
    params: Mapping[str, float],
    link: ChannelLink,
    det: DetectorPair,
    n_pulses: float,
    eps: float,
    error_correction_f: float,
    variant: ProtocolVariant = ProtocolVariant(),
) -> KeyRateReport:
    """Evaluate the secure key rate of one link configuration, or of each row
    of a batch whose ``params`` values are (B,) columns.

    ``params`` holds exactly the variant's levels, their send probabilities
    and optionally ``tc_bins``; ``SourceConfig.from_params`` raises
    ValueError on a missing or unread key.  A configuration without key, pairs
    included, comes back with zero rate rather than raising, so optimizers can
    probe freely; a row that breaks a source or window check raises
    ValueError.  skc0 is the repeaterless bound of the fibre alone (detectors
    excluded).
    """
    params = dict(params)
    source = SourceConfig.from_params(params, variant.four_intensity, variant.click_filtering)
    ops = ops_for(source.intensities_a["mu"])
    skc0_pulse = repeaterless_bound(link.eta_a * link.eta_b)

    obs = expected_observables(source, link, det, n_pulses)
    groups = decoy.z_key_groups(source, variant.z_group_mode)
    est = decoy.estimate(
        obs.counts,
        obs.m_x,
        source,
        link.phase_slices,
        eps,
        z_group_mode=variant.z_group_mode,
        phase_error_method=variant.phase_error_method,
        double_scanning=variant.double_scanning,
    )
    leakage = _leakage(ops, obs.counts, obs.z_qber, groups, error_correction_f)
    ell = _key_length(ops, est.s0_z, est.s11_z, est.phi11_z, leakage, _composition(ops, eps))
    ell = ops.where(obs.n_pairs > 0.0, ell, 0.0)

    rate_pulse = ell / n_pulses
    return KeyRateReport(
        ell=ell,
        rate_per_pulse=rate_pulse,
        rate_per_second=rate_pulse * link.clock_hz,
        leakage=leakage,
        skc0_per_pulse=skc0_pulse,
        skc0_per_second=skc0_pulse * link.clock_hz,
        eps_tot=total_failure_prob(eps),
        estimate=est,
        observables=obs,
        params=params,
    )
