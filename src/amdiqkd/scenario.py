"""Reproduction drivers: distance sweeps, protocol comparisons and the
multi-user star network.

Every point kind (an optimized async variant, a BB84 or time-bin MDI
baseline, a row of an external rate table) becomes one flat row dict with the
fixed column set ``CSV_COLUMNS`` through the same row builder: per-second
columns are per-pulse values times the preset clock, and skc0 is the
repeaterless bound of the total fibre length.  A transmission time ``T``
(``NetworkSpec.duration_s``) is ``clock_hz * T`` pulses.  Drivers are
deterministic given (spec, seed): per-point seeds are derived from the
scenario seed and the point index, and sweep points warm-start from canonical
source settings plus the previous point's optimum.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from . import baselines
from .channel import ChannelLink, DetectorPair, SourceConfig
from .keyrate import KeyRateReport, ProtocolVariant, evaluate, repeaterless_bound
from .optimizer import SearchSpace, async_search_space, optimize_link, repair_async_params

__all__ = [
    "DevicePreset",
    "DEVICE_PRESETS",
    "VARIANTS",
    "SweepSpec",
    "NetworkSpec",
    "run_sweep",
    "run_network",
    "solve_arm_from_skc0",
    "CSV_COLUMNS",
    "point_seed",
]


@dataclass(frozen=True)
class DevicePreset:
    """Device/channel parameter set used by a scenario."""

    eta_d: float = 0.8
    dark_rate_hz: float = 0.1
    attenuation_db_per_km: float = 0.16
    clock_hz: float = 1e9
    phase_drift_rad_per_s: float = 5.9e3
    laser_offset_hz: float = 10.0
    interference_error: float = 0.04
    phase_slices: int = 16
    pairing_window_bins: float = 1e6
    error_correction_f: float = 1.1
    eps: float = 1e-10

    def detector(self) -> DetectorPair:
        return DetectorPair(self.eta_d, self.dark_rate_hz)

    def link(self, l_a_km: float, l_b_km: float) -> ChannelLink:
        return ChannelLink(
            length_a_km=l_a_km,
            length_b_km=l_b_km,
            attenuation_db_per_km=self.attenuation_db_per_km,
            clock_hz=self.clock_hz,
            phase_drift_rad_per_s=self.phase_drift_rad_per_s,
            laser_offset_hz=self.laser_offset_hz,
            interference_error=self.interference_error,
            pairing_window_bins=self.pairing_window_bins,
            phase_slices=self.phase_slices,
        )


# The 1 GHz presets drive the method and filtering comparisons; the 4 GHz
# preset drives the network and the protocol-comparison figure/tables.
DEVICE_PRESETS: dict[str, DevicePreset] = {
    "fig1": DevicePreset(clock_hz=1e9),
    "fig2": DevicePreset(clock_hz=1e9),
    "fig4": DevicePreset(clock_hz=4e9),
    "table3": DevicePreset(clock_hz=4e9),
    "table4": DevicePreset(clock_hz=4e9),
}

VARIANTS: dict[str, ProtocolVariant] = {
    "filtering": ProtocolVariant(),
    "filtering-rs": ProtocolVariant(phase_error_method="random_sampling"),
    "nofilter-4group": ProtocolVariant(click_filtering=False),
    "nofilter-signal-only": ProtocolVariant(click_filtering=False, z_group_mode="signal_only"),
    "four-intensity": ProtocolVariant(four_intensity=True),
    "double-scan": ProtocolVariant(double_scanning=True),
}
BASELINE_VARIANTS = ("mdi-baseline", "bb84-baseline")

CSV_COLUMNS = [
    "distance_km", "l_a_km", "l_b_km", "variant", "link",
    "n_pulses", "clock_hz",
    "rate_bits_per_pulse", "rate_bps", "skc0_bits_per_pulse", "skc0_bps",
    "delta_vs_first", "phi11z", "s11z", "s0z", "lambda_ec", "eps_tot",
    "mu_a", "omega_a", "nu_a", "p_mu_a", "p_omega_a", "p_nu_a",
    "mu_b", "omega_b", "nu_b", "p_mu_b", "p_omega_b", "p_nu_b",
    "tc_bins", "q_z", "budget", "seed", "note",
]


def point_seed(base_seed: int, index: int) -> int:
    """Stable per-point seed derived from the scenario seed and point index."""
    return (base_seed * 1_000_003 + 7919 * index + 1) % (2**63)


# canonical starting points; symmetric, scaled over the weak-coherent regime,
# with both a saturated and a drift-limited pairing window
def _canonical_warm_starts(four_intensity: bool) -> list[dict]:
    starts = []
    for mu in (0.45, 0.6):
        for nu in (0.02, 0.05):
            for tc in (1e6, 1e5):
                s = dict(
                    mu_a=mu, nu_a=nu, p_mu_a=0.3, p_nu_a=0.15,
                    mu_b=mu, nu_b=nu, p_mu_b=0.3, p_nu_b=0.15,
                    tc_bins=tc,
                )
                if four_intensity:
                    s.update(omega_a=0.2, p_omega_a=0.1, omega_b=0.2, p_omega_b=0.1)
                starts.append(s)
    return starts


@dataclass
class SweepSpec:
    """Distance sweep over one or more protocol variants.

    ``external_rates`` maps a display name to a CSV file with columns
    ``distance_km,rate_bps``; those rows are merged into the output for
    protocols whose rate engines live outside this package.
    """

    preset: str = "fig4"
    distances_km: Sequence[float] = field(default_factory=lambda: [100.0, 200.0, 300.0])
    variants: Sequence[str] = field(default_factory=lambda: ["filtering"])
    n_pulses: float | Sequence[float] = 1e13
    delta_km: float = 0.0  # l_a - l_b
    budget: int = 3000
    seed: int = 1
    optimize_pairing_window: bool = True
    external_rates: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.preset not in DEVICE_PRESETS:
            raise ValueError(f"unknown device preset {self.preset!r}")
        if not self.variants:
            raise ValueError("variant list must not be empty")
        for v in self.variants:
            if v not in VARIANTS and v not in BASELINE_VARIANTS:
                raise ValueError(f"unknown variant {v!r}")
        if not self.distances_km:
            raise ValueError("distance list must not be empty")
        if any(self.delta_km > d for d in self.distances_km):
            raise ValueError("asymmetry delta exceeds a total distance")
        if not isinstance(self.n_pulses, (int, float)):
            if len(self.n_pulses) != len(self.distances_km):
                raise ValueError("per-point n_pulses must match the distance list")

    def pulses_at(self, index: int) -> float:
        if isinstance(self.n_pulses, (int, float)):
            return float(self.n_pulses)
        return float(self.n_pulses[index])


def _row(preset: DevicePreset, dist: float, variant: str, rate_per_pulse: float,
         params: Mapping[str, float], **columns) -> dict:
    """One CSV row: the columns every point kind shares, the ``params`` keys
    that are CSV columns, then ``columns`` as given.

    skc0 is the repeaterless bound of ``dist`` km of fibre (detectors
    excluded), so it is the same for every protocol at one distance.
    """
    skc0 = repeaterless_bound(10.0 ** (-preset.attenuation_db_per_km * dist / 10.0))
    row = {c: "" for c in CSV_COLUMNS}
    row.update(
        distance_km=dist, variant=variant, clock_hz=preset.clock_hz,
        rate_bits_per_pulse=rate_per_pulse, rate_bps=rate_per_pulse * preset.clock_hz,
        skc0_bits_per_pulse=skc0, skc0_bps=skc0 * preset.clock_hz,
    )
    row.update((k, v) for k, v in params.items() if k in CSV_COLUMNS)
    row.update(columns)
    return row


def _report_row(preset: DevicePreset, report: KeyRateReport, dist: float, variant: str,
                **columns) -> dict:
    """``_row`` for an evaluated async point, plus its estimate columns."""
    row = _row(preset, dist, variant, report.rate_per_pulse, report.params,
               lambda_ec=report.leakage, eps_tot=report.eps_tot, **columns)
    if report.estimate is not None:
        row.update(
            phi11z=report.estimate.phi11_z,
            s11z=report.estimate.s11_z,
            s0z=report.estimate.s0_z,
        )
    return row


def _optimize_async_point(
    preset: DevicePreset,
    l_a: float,
    l_b: float,
    n_pulses: float,
    variant: ProtocolVariant,
    budget: int,
    seed: int,
    warm_starts: list[dict],
    optimize_pairing_window: bool,
) -> tuple[KeyRateReport, dict]:
    link = preset.link(l_a, l_b)
    det = preset.detector()

    def objective(params: dict) -> float:
        return evaluate(
            params, link, det, n_pulses, preset.eps, preset.error_correction_f, variant,
        ).rate_per_pulse

    space = async_search_space(
        four_intensity=variant.four_intensity,
        optimize_pairing_window=optimize_pairing_window,
    )
    starts = _canonical_warm_starts(variant.four_intensity) + warm_starts
    result = optimize_link(objective, space, budget=budget, seed=seed, warm_starts=starts)
    report = evaluate(
        result.best_params, link, det, n_pulses, preset.eps, preset.error_correction_f, variant,
    )
    return report, result.best_params


# ---------------------------------------------------------------------------
# baseline evaluation glue
# ---------------------------------------------------------------------------

def _baseline_space(kind: str) -> SearchSpace:
    bounds = {
        "mu_a": (1e-3, 1.0), "omega_a": (1e-3, 1.0), "nu_a": (1e-3, 1.0),
        "p_mu_a": (1e-3, 0.99), "p_omega_a": (1e-3, 0.99), "p_nu_a": (1e-3, 0.99),
    }
    mirror = {}
    if kind == "mdi-baseline":
        mirror = {
            "mu_b": "mu_a", "omega_b": "omega_a", "nu_b": "nu_a",
            "p_mu_b": "p_mu_a", "p_omega_b": "p_omega_a", "p_nu_b": "p_nu_a",
        }
    else:
        bounds["q_z"] = (0.1, 0.9)
    return SearchSpace(bounds=bounds, mirror=mirror, repair=repair_async_params)


def _evaluate_baseline(
    kind: str, preset: DevicePreset, l_a: float, l_b: float, n_pulses: float,
    budget: int, seed: int,
) -> tuple[float, dict]:
    """Optimized ``(rate_per_pulse, best_params)`` of one reference protocol."""
    link, det = preset.link(l_a, l_b), preset.detector()

    if kind == "mdi-baseline":
        def objective(params: dict) -> float:
            return baselines.mdi_key_rate(SourceConfig.from_params(**params), link, det, n_pulses,
                                          preset.eps, preset.error_correction_f)["rate_per_pulse"]
    else:
        def objective(params: dict) -> float:
            ints = {"mu": params["mu_a"], "omega": params["omega_a"], "nu": params["nu_a"], "o": 0.0}
            probs = {"mu": params["p_mu_a"], "omega": params["p_omega_a"], "nu": params["p_nu_a"]}
            probs["o"] = 1.0 - sum(probs.values())
            prm = baselines.Bb84Params(ints, probs, link, det, q_z=params["q_z"])
            return baselines.bb84_key_rate(prm, n_pulses, preset.eps,
                                           preset.error_correction_f)["rate_per_pulse"]

    warm = [
        dict(mu_a=0.8, omega_a=0.1, nu_a=0.02, p_mu_a=0.5, p_omega_a=0.15, p_nu_a=0.15,
             q_z=0.5),
        dict(mu_a=0.5, omega_a=0.08, nu_a=0.01, p_mu_a=0.35, p_omega_a=0.2, p_nu_a=0.2,
             q_z=0.5),
    ]
    result = optimize_link(objective, _baseline_space(kind), budget=budget, seed=seed,
                           warm_starts=warm)
    return max(result.best_rate, 0.0), result.best_params


def run_sweep(spec: SweepSpec) -> list[dict]:
    """Optimize and evaluate every (distance, variant) point of a sweep.

    Rows are ordered by distance then by the spec's variant order; the
    ``delta_vs_first`` column holds the relative rate difference against the
    first variant at the same distance.
    """
    preset = DEVICE_PRESETS[spec.preset]
    rows: list[dict] = []
    previous_best: dict[str, dict] = {}
    order = sorted(range(len(spec.distances_km)), key=lambda i: spec.distances_km[i])
    for rank, idx in enumerate(order):
        dist = float(spec.distances_km[idx])
        l_a = (dist + spec.delta_km) / 2.0
        l_b = (dist - spec.delta_km) / 2.0
        n_pulses = spec.pulses_at(idx)
        at_point: list[dict] = []
        for v_idx, name in enumerate(spec.variants):
            seed = point_seed(spec.seed, rank * len(spec.variants) + v_idx)
            columns = dict(l_a_km=l_a, l_b_km=l_b, n_pulses=n_pulses, budget=spec.budget, seed=seed)
            if name in BASELINE_VARIANTS:
                rate, params = _evaluate_baseline(name, preset, l_a, l_b, n_pulses,
                                                  spec.budget, seed)
                at_point.append(_row(preset, dist, name, rate, params, **columns))
            else:
                warm = [previous_best[name]] if name in previous_best else []
                report, best = _optimize_async_point(
                    preset, l_a, l_b, n_pulses, VARIANTS[name], spec.budget, seed,
                    warm, spec.optimize_pairing_window,
                )
                if report.rate_per_pulse > 0.0:
                    previous_best[name] = best
                at_point.append(_report_row(preset, report, dist, name, **columns))
        first = at_point[0]["rate_bps"]
        if first != 0.0:
            for row in at_point:
                row["delta_vs_first"] = (row["rate_bps"] - first) / first
        rows.extend(at_point)
    rows.extend(_external_rows(spec, preset))
    return rows


def _external_rows(spec: SweepSpec, preset: DevicePreset) -> list[dict]:
    """Rows for externally supplied rate tables (per-second rates by distance)."""
    rows: list[dict] = []
    for name, path in spec.external_rates.items():
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not {"distance_km", "rate_bps"} <= set(reader.fieldnames):
                raise ValueError(f"external table {path!r} needs distance_km,rate_bps columns")
            for record in reader:
                rate = float(record["rate_bps"])
                rows.append(_row(preset, float(record["distance_km"]), name,
                                 rate / preset.clock_hz, {}, rate_bps=rate, note="external"))
    rows.sort(key=lambda r: (r["distance_km"], r["variant"]))
    return rows


@dataclass
class NetworkSpec:
    """Star network of users around one untrusted relay."""

    users: Sequence[tuple[str, float]]
    preset: str = "table3"
    duration_s: float = 22.0 * 3600.0
    variants: Sequence[str] = ("filtering",)
    budget: int = 3000
    seed: int = 1
    optimize_pairing_window: bool = True

    def __post_init__(self) -> None:
        if self.preset not in DEVICE_PRESETS:
            raise ValueError(f"unknown device preset {self.preset!r}")
        names = [n for n, _ in self.users]
        if len(set(names)) != len(names):
            raise ValueError("duplicate user names")
        if any(arm < 0.0 for _, arm in self.users):
            raise ValueError("arm lengths must be >= 0")
        for v in self.variants:
            if v not in VARIANTS:
                raise ValueError(f"unknown variant {v!r}")

    @property
    def n_pulses(self) -> float:
        return DEVICE_PRESETS[self.preset].clock_hz * self.duration_s


def run_network(spec: NetworkSpec) -> list[dict]:
    """Optimize every unordered user pair through the shared relay."""
    preset = DEVICE_PRESETS[spec.preset]
    rows: list[dict] = []
    users = list(spec.users)
    pair_index = 0
    for i in range(len(users)):
        for j in range(i + 1, len(users)):
            name_a, arm_a = users[i]
            name_b, arm_b = users[j]
            for v_idx, vname in enumerate(spec.variants):
                seed = point_seed(spec.seed, pair_index * len(spec.variants) + v_idx)
                report, _best = _optimize_async_point(
                    preset, arm_a, arm_b, spec.n_pulses, VARIANTS[vname],
                    spec.budget, seed, [], spec.optimize_pairing_window,
                )
                rows.append(_report_row(
                    preset, report, arm_a + arm_b, vname, l_a_km=arm_a, l_b_km=arm_b,
                    link=f"{name_a}-{name_b}", n_pulses=spec.n_pulses,
                    budget=spec.budget, seed=seed,
                ))
            pair_index += 1
    return rows


def solve_arm_from_skc0(skc0_bps: float, clock_hz: float, attenuation_db_per_km: float) -> float:
    """Total fibre length whose repeaterless bound equals ``skc0_bps``.

    Inverts skc0 = -log2(1 - eta) * F with fibre-only transmittance; used to
    recover unpublished network geometry from published capacity columns.
    """
    eta = 1.0 - 2.0 ** (-skc0_bps / clock_hz)
    return -10.0 * math.log10(eta) / attenuation_db_per_km
