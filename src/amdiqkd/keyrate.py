"""Final key length, rates and the repeaterless benchmark.

Puts the pieces together: closed-form observables -> decoy estimation ->
error-correction leakage -> extractable key length, for a configurable
protocol variant.  ``evaluate`` is the reference and the single-call entry
point: it takes the source settings as a flat parameter dict (the keys the
optimizer decodes to) and reports rates per pulse and per second at the link
clock; the source sends on every clock tick, so a run of ``T`` seconds is
``clock_hz * T`` pulses.  ``rate_batch`` scores many parameter sets at once
(the optimizer's generations) and returns only the rate per pulse.  The
leakage and the key length are written once, as bodies that take an
operations namespace first (see :mod:`amdiqkd.decoy`): ``evaluate`` runs them
on :data:`amdiqkd.stats.FLOATS`, and ``rate_batch`` together with the decoy
chain on numpy columns, so each of its rates equals the one ``evaluate``
gives to rounding.  It lives in :mod:`amdiqkd.batch` and loads it on first
use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping

from . import decoy
from .channel import ChannelLink, DetectorPair, ObservableSet, SourceConfig, expected_observables
from .stats import FLOATS

__all__ = [
    "ProtocolVariant",
    "KeyRateReport",
    "error_correction_leakage",
    "key_length",
    "repeaterless_bound",
    "total_failure_prob",
    "evaluate",
    "rate_batch",
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


def error_correction_leakage(
    counts: Mapping[decoy.CountKey, float],
    qbers: Mapping[decoy.CountKey, float],
    groups: list[decoy.CountKey],
    efficiency: float,
) -> float:
    """Bits disclosed during error correction, summed per key group.

    Correcting each intensity group separately never costs more than pooling,
    by concavity of the entropy.
    """
    return _leakage(FLOATS, counts, qbers, groups, efficiency)


def _leakage(ops, counts, qbers, groups, efficiency: float):
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
    return _key_length(FLOATS, vacuum_events, single_photon_pairs, phase_error_rate, leakage, eps)


def _key_length(ops, vacuum_events, single_photon_pairs, phase_error_rate, leakage, eps: float):
    ell = (
        vacuum_events
        + single_photon_pairs * (1.0 - ops.entropy(phase_error_rate))
        - leakage
        - math.log2(2.0 / eps)
        - 2.0 * math.log2(2.0 / (eps * eps))
        - 2.0 * math.log2(1.0 / (2.0 * eps))
    )
    return ops.maximum(ell, 0.0)


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
    estimate: decoy.DecoyEstimate | None = None
    observables: ObservableSet | None = None
    params: dict = field(default_factory=dict)


def _source_from_params(params: Mapping[str, float], variant: ProtocolVariant) -> SourceConfig:
    kwargs = dict(
        mu_a=params["mu_a"], nu_a=params["nu_a"],
        p_mu_a=params["p_mu_a"], p_nu_a=params["p_nu_a"],
        mu_b=params["mu_b"], nu_b=params["nu_b"],
        p_mu_b=params["p_mu_b"], p_nu_b=params["p_nu_b"],
        click_filtering=variant.click_filtering,
    )
    if variant.four_intensity:
        kwargs.update(
            omega_a=params["omega_a"], p_omega_a=params["p_omega_a"],
            omega_b=params["omega_b"], p_omega_b=params["p_omega_b"],
        )
    return SourceConfig.from_params(**kwargs)


def evaluate(
    params: Mapping[str, float],
    link: ChannelLink,
    det: DetectorPair,
    n_pulses: float,
    eps: float,
    error_correction_f: float,
    variant: ProtocolVariant = ProtocolVariant(),
) -> KeyRateReport:
    """Evaluate the secure key rate of one link configuration.

    ``params`` may carry ``tc_bins`` to override the pairing window.  Any
    infeasible configuration comes back with zero rate rather than raising,
    so optimizers can probe freely.  skc0 is the repeaterless bound of the
    fibre alone (detectors excluded).
    """
    params = dict(params)
    source = _source_from_params(params, variant)
    if "tc_bins" in params:
        link = replace(link, pairing_window_bins=params["tc_bins"])
    skc0_pulse = repeaterless_bound(link.eta_a * link.eta_b)

    obs = expected_observables(source, link, det, n_pulses)
    groups = decoy.z_key_groups(source, variant.z_group_mode)

    if obs.n_pairs <= 0.0:
        est = None
        ell = 0.0
        leakage = 0.0
    else:
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
        leakage = error_correction_leakage(obs.counts, obs.z_qber, groups, error_correction_f)
        ell = key_length(est.s0_z, est.s11_z, est.phi11_z, leakage, eps)

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


def __getattr__(name: str):
    # the batch forms compile on first use, not when amdiqkd is imported
    if name == "rate_batch":
        from . import batch

        return getattr(batch, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
