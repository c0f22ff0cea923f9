"""Reproduction drivers: distance sweeps, protocol comparisons and the
multi-user star network.

Every optimized point, of an async variant or of a BB84 or time-bin MDI
baseline, goes through one search (``_search_point``), which differs by
variant only in its objective, search space and canonical starts.  Every
point kind, a row of an external rate table too, becomes one flat row dict
with the fixed column set ``CSV_COLUMNS`` through the same row builder:
per-second columns are per-pulse values times the preset clock, and skc0 is
the repeaterless bound of the total fibre length.  A transmission time ``T``
(``NetworkSpec.duration_s``) is ``clock_hz * T`` pulses.  Drivers are
deterministic given (spec, seed): per-point seeds are derived from the
scenario seed and the point index, and sweep points warm-start from canonical
source settings plus the previous point's optimum.

Sweeps and networks run their independent searches in worker processes, one
per CPU this process may use: one task per async variant's chain of sweep
distances (its warm starts run in order), per (distance, baseline) and per
(user pair, variant).  The rows do not depend on that count, and there is no
setting for it.  Workers are forked where the platform can fork, so a caller
must not run a sweep or a network from a process with live threads (Python
3.12 and later warn about such a fork; see the README).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Container, Mapping, Sequence

from . import baselines, oracle
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


def _check_variants(variants: Sequence[str], known: Container[str]) -> None:
    """ValueError unless ``variants`` lists known names, each once."""
    if not variants:
        raise ValueError("variant list must not be empty")
    for i, v in enumerate(variants):
        if v not in known:
            raise ValueError(f"unknown variant {v!r}")
        if v in variants[:i]:
            raise ValueError(f"variant {v!r} listed twice")


def _check_budget_and_seed(budget: int, seed: int) -> None:
    """ValueError unless both are integers (a bool is not) and ``budget`` is >= 1."""
    for name, value in (("budget", budget), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if not budget >= 1:
        raise ValueError(f"budget must be >= 1, got {budget!r}")


@dataclass
class SweepSpec:
    """Distance sweep over one or more protocol variants.

    ``external_rates`` maps a display name to a CSV file with columns
    ``distance_km,rate_bps``; those rows are merged into the output for
    protocols whose rate engines live outside this package.  Each table is
    read and checked when the spec is built, before any optimization.
    """

    preset: str = "fig4"
    distances_km: Sequence[float] = field(default_factory=lambda: [100.0, 200.0, 300.0])
    variants: Sequence[str] = field(default_factory=lambda: ["filtering"])
    n_pulses: float | Sequence[float] = 1e13
    delta_km: float = 0.0  # l_a - l_b
    budget: int = 3000
    seed: int = 1
    external_rates: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.preset not in DEVICE_PRESETS:
            raise ValueError(f"unknown device preset {self.preset!r}")
        _check_variants(self.variants, (*VARIANTS, *BASELINE_VARIANTS))
        if not self.distances_km:
            raise ValueError("distance list must not be empty")
        if not all(0.0 <= d < math.inf for d in self.distances_km):
            raise ValueError(f"distances must be finite and >= 0, got {self.distances_km!r}")
        if not all(abs(self.delta_km) <= d for d in self.distances_km):
            raise ValueError(f"asymmetry delta {self.delta_km!r} exceeds a total distance")
        _check_budget_and_seed(self.budget, self.seed)
        pulses = self.n_pulses
        if isinstance(pulses, (int, float)):
            pulses = [pulses]
        elif len(pulses) != len(self.distances_km):
            raise ValueError("per-point n_pulses must match the distance list")
        if not all(0.0 < n < math.inf for n in pulses):
            raise ValueError(f"n_pulses must be finite and positive, got {self.n_pulses!r}")
        for path in self.external_rates.values():
            _external_table(path)

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
    est = report.estimate
    return _row(preset, dist, variant, report.rate_per_pulse, report.params,
                lambda_ec=report.leakage, eps_tot=report.eps_tot, phi11z=est.phi11_z,
                s11z=est.s11_z, s0z=est.s0_z, **columns)


# canonical starting points of the reference protocols (one party: the MDI
# search mirrors it onto Bob, and BB84 adds its basis bias q_z)
_BASELINE_STARTS = (
    dict(mu_a=0.8, omega_a=0.1, nu_a=0.02, p_mu_a=0.5, p_omega_a=0.15, p_nu_a=0.15),
    dict(mu_a=0.5, omega_a=0.08, nu_a=0.01, p_mu_a=0.35, p_omega_a=0.2, p_nu_a=0.2),
)


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


def _search_point(preset: DevicePreset, variant: str, dist: float, columns: Mapping,
                  warm_starts: Sequence[Mapping[str, float]]) -> tuple[dict, dict]:
    """Optimized ``(row, best_params)`` of one point of ``variant``, an async
    variant or a reference protocol.

    ``columns`` holds the point's arms, pulses, budget and seed (and any other
    CSV column).  The search starts from the variant's canonical settings and
    then ``warm_starts``; the objective takes floats or (B,) columns.  The
    row's numbers come from one float call on the best parameters.
    """
    link, det = preset.link(columns["l_a_km"], columns["l_b_km"]), preset.detector()
    n_pulses, eps, f_ec = columns["n_pulses"], preset.eps, preset.error_correction_f
    protocol = VARIANTS.get(variant)
    if protocol is not None:
        def objective(params: dict) -> float:
            return evaluate(params, link, det, n_pulses, eps, f_ec, protocol).rate_per_pulse

        space = async_search_space(four_intensity=protocol.four_intensity)
        starts = _canonical_warm_starts(protocol.four_intensity)
    elif variant == "mdi-baseline":
        def objective(params: dict) -> float:
            return baselines.mdi_key_rate(SourceConfig.from_params(params, True), link, det,
                                          n_pulses, eps, f_ec)["rate_per_pulse"]

        space, starts = _baseline_space(variant), _BASELINE_STARTS
    else:
        def objective(params: dict) -> float:
            prm = baselines.Bb84Params.from_params(params, link, det)
            return baselines.bb84_key_rate(prm, n_pulses, eps, f_ec)["rate_per_pulse"]

        space, starts = _baseline_space(variant), [dict(s, q_z=0.5) for s in _BASELINE_STARTS]
    objective.many = objective
    best = optimize_link(objective, space, budget=columns["budget"], seed=columns["seed"],
                         warm_starts=[*starts, *warm_starts]).best_params
    if protocol is None:
        return _row(preset, dist, variant, max(objective(best), 0.0), best, **columns), best
    report = evaluate(best, link, det, n_pulses, eps, f_ec, protocol)
    return _report_row(preset, report, dist, variant, **columns), best


def _search_points(preset: DevicePreset, variant: str,
                   points: list[tuple[float, dict]]) -> list[dict]:
    """Rows of one variant's ``(distance, columns)`` points, searched in order;
    each point warm-starts from the optimum of the last earlier point whose
    rate was positive."""
    rows: list[dict] = []
    warm: list[dict] = []
    for dist, columns in points:
        row, best = _search_point(preset, variant, dist, columns, warm)
        if row["rate_bits_per_pulse"] > 0.0:
            warm = [best]
        rows.append(row)
    return rows


def _run_searches(preset: DevicePreset, tasks: list[tuple[str, list]]) -> list[list[dict]]:
    """``_search_points`` of each ``(variant, points)`` task, in task order.

    Each task runs in a worker process, one worker per CPU this process may
    use and no more than there are tasks; tasks with more points are
    submitted first.  A task's exception is raised here, and the tasks not
    yet started are cancelled.
    """
    if not tasks:
        return []
    # imported here, not with the module, so that the CLI starts without them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    pool = ProcessPoolExecutor(min(len(tasks), oracle._cpus()),
                               mp_context=multiprocessing.get_context(method))
    try:
        order = sorted(range(len(tasks)), key=lambda i: -len(tasks[i][1]))
        futures = {i: pool.submit(_search_points, preset, *tasks[i]) for i in order}
        return [futures[i].result() for i in range(len(tasks))]
    finally:
        pool.shutdown(cancel_futures=True)


def run_sweep(spec: SweepSpec) -> list[dict]:
    """Optimize and evaluate every (distance, variant) point of a sweep.

    Rows are ordered by distance then by the spec's variant order; the
    ``delta_vs_first`` column holds the relative rate difference against the
    first variant at the same distance.  An async variant's distances, in
    increasing order, are one search task; each baseline point is its own.
    """
    preset = DEVICE_PRESETS[spec.preset]
    order = sorted(range(len(spec.distances_km)), key=lambda i: spec.distances_km[i])
    tasks: list[tuple[str, list]] = []
    for v_idx, name in enumerate(spec.variants):
        points = []
        for rank, idx in enumerate(order):
            dist = float(spec.distances_km[idx])
            seed = point_seed(spec.seed, rank * len(spec.variants) + v_idx)
            points.append((dist, dict(
                l_a_km=(dist + spec.delta_km) / 2.0, l_b_km=(dist - spec.delta_km) / 2.0,
                n_pulses=spec.pulses_at(idx), budget=spec.budget, seed=seed,
            )))
        tasks += [(name, [p]) for p in points] if name in BASELINE_VARIANTS else [(name, points)]
    by_variant: dict[str, list[dict]] = {name: [] for name in spec.variants}
    for (name, _), found in zip(tasks, _run_searches(preset, tasks)):
        by_variant[name] += found
    rows: list[dict] = []
    for at_point in zip(*by_variant.values()):
        first = at_point[0]["rate_bps"]
        if first != 0.0:
            for row in at_point:
                row["delta_vs_first"] = (row["rate_bps"] - first) / first
        rows.extend(at_point)
    rows.extend(_external_rows(spec, preset))
    return rows


def _external_table(path: str) -> list[tuple[float, float]]:
    """(distance_km, rate_bps) records of an external rate table; ValueError
    if the file cannot be read, lacks those columns or has a row whose two
    values are not finite numbers >= 0."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not {"distance_km", "rate_bps"} <= set(reader.fieldnames):
                raise ValueError(f"external table {path!r} needs distance_km,rate_bps columns")
            records = []
            for r in reader:
                try:
                    record = float(r["distance_km"]), float(r["rate_bps"])
                except (TypeError, ValueError):  # a missing or non-numeric field
                    record = (math.nan, math.nan)
                if not all(0.0 <= x < math.inf for x in record):
                    raise ValueError(f"external table {path!r} line {reader.line_num}: distance_km "
                                     f"and rate_bps must be finite numbers >= 0, got {r!r}")
                records.append(record)
            return records
    except OSError as exc:
        raise ValueError(f"cannot read external table {path!r}: {exc.strerror}") from None


def _external_rows(spec: SweepSpec, preset: DevicePreset) -> list[dict]:
    """Rows for externally supplied rate tables (per-second rates by distance)."""
    rows: list[dict] = []
    for name, path in spec.external_rates.items():
        for dist, rate in _external_table(path):
            rows.append(_row(preset, dist, name, rate / preset.clock_hz, {},
                             rate_bps=rate, note="external"))
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

    def __post_init__(self) -> None:
        if self.preset not in DEVICE_PRESETS:
            raise ValueError(f"unknown device preset {self.preset!r}")
        names = [n for n, _ in self.users]
        if len(set(names)) != len(names):
            raise ValueError("duplicate user names")
        if not all(0.0 <= arm < math.inf for _, arm in self.users):
            raise ValueError("arm lengths must be finite and >= 0")
        _check_budget_and_seed(self.budget, self.seed)
        if not 0.0 < self.duration_s < math.inf:
            raise ValueError(f"duration_s must be finite and positive, got {self.duration_s!r}")
        _check_variants(self.variants, VARIANTS)

    @property
    def n_pulses(self) -> float:
        return DEVICE_PRESETS[self.preset].clock_hz * self.duration_s


def run_network(spec: NetworkSpec) -> list[dict]:
    """Optimize every unordered user pair through the shared relay; each
    (pair, variant) is one search task."""
    tasks: list[tuple[str, list]] = []
    for pair_index, ((name_a, arm_a), (name_b, arm_b)) in enumerate(combinations(spec.users, 2)):
        for v_idx, vname in enumerate(spec.variants):
            seed = point_seed(spec.seed, pair_index * len(spec.variants) + v_idx)
            tasks.append((vname, [(arm_a + arm_b, dict(
                l_a_km=arm_a, l_b_km=arm_b, link=f"{name_a}-{name_b}",
                n_pulses=spec.n_pulses, budget=spec.budget, seed=seed,
            ))]))
    return [row for rows in _run_searches(DEVICE_PRESETS[spec.preset], tasks) for row in rows]
