"""Configuration-driven command line interface.

Scenario files are YAML with strictly validated keys; every run writes
``results.csv`` (fixed column order, documented in the README) and a
``summary.txt`` next to it.  Outputs carry no timestamps, so identical
configurations and seeds produce byte-identical files.

Exit codes: 0 success, 1 configuration error, 2 infeasible scenario or
failed validation.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import sys
from importlib import resources
from pathlib import Path

import yaml

from . import scenario as sc
from .channel import ChannelLink, DetectorPair, SourceConfig, expected_observables
from .decoy import estimate, z_key_groups
from .keyrate import ProtocolVariant, evaluate
from .oracle import simulate

__all__ = ["main"]


class ConfigError(Exception):
    pass


_SWEEP_KEYS = {f.name for f in dataclasses.fields(sc.SweepSpec)}
_NETWORK_KEYS = {f.name for f in dataclasses.fields(sc.NetworkSpec)}
_EVALUATE_KEYS = {"preset", "l_a_km", "l_b_km", "n_pulses", "variant", "params", "seed"}
_OPTIMIZE_KEYS = {"preset", "l_a_km", "l_b_km", "n_pulses", "variant", "budget", "seed"}


def _yaml(text: str, what: str):
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{what} is not valid YAML: {exc}") from None


def _load_scenario(args) -> dict:
    if args.scenario and args.preset:
        raise ConfigError("give either --scenario or --preset, not both")
    if args.scenario:
        path = Path(args.scenario)
        if not path.exists():
            raise ConfigError(f"scenario file not found: {path}")
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read scenario file {path}: {exc.strerror}") from None
    elif args.preset:
        ref = resources.files("amdiqkd").joinpath("presets", f"{args.preset}.yaml")
        try:
            text = ref.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise ConfigError(f"unknown preset scenario {args.preset!r}") from None
    else:
        raise ConfigError("a scenario is required: use --scenario FILE or --preset NAME")
    data = _yaml(text, "scenario")
    if not isinstance(data, dict):
        raise ConfigError("scenario must be a mapping")
    return data


def _apply_overrides(data: dict, overrides: list[str]) -> dict:
    out = dict(data)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, raw = item.split("=", 1)
        out[key.strip()] = _yaml(raw, f"override {item!r}")
    return out


def _check_keys(data: dict, allowed: set[str], context: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown {context} fields: {sorted(unknown)}")


def _number(data: dict, key: str, default):
    """``float(data[key])``, or ``default`` if absent; a bad value is a configuration error."""
    try:
        return float(data.get(key, default))
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {data[key]!r}") from None


def _fmt(value) -> str:
    if value == "":
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return f"{value:.12g}"
    return str(value)


def _write_outputs(rows: list[dict], out_dir: Path, header_lines: list[str]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "results.csv"
    with csv_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(sc.CSV_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row.get(c, "")) for c in sc.CSV_COLUMNS])
    summary = out_dir / "summary.txt"
    lines = list(header_lines)
    lines.append(f"points: {len(rows)}")
    for row in rows:
        label = row.get("link") or f"{row.get('distance_km', '')} km"
        lines.append(
            f"  {label:>14}  {str(row.get('variant', '')):<24}"
            f" rate={_fmt(row.get('rate_bps', ''))} bps"
            f"  skc0={_fmt(row.get('skc0_bps', ''))} bps"
        )
    summary.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _finish(rows: list[dict], out_dir: Path, header: str) -> int:
    """Write the outputs; exit 2 if there are rows and every rate is zero."""
    _write_outputs(rows, out_dir, [header])
    return 2 if rows and not any(r["rate_bps"] for r in rows) else 0


def _variant_from_name(name: str) -> ProtocolVariant:
    if name not in sc.VARIANTS:
        raise ConfigError(f"unknown variant {name!r}")
    return sc.VARIANTS[name]


def _cmd_sweep(data: dict, out_dir: Path) -> int:
    _check_keys(data, _SWEEP_KEYS, "sweep")
    try:
        spec = sc.SweepSpec(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    return _finish(sc.run_sweep(spec), out_dir, f"sweep preset={spec.preset} seed={spec.seed}")


def _cmd_network(data: dict, out_dir: Path) -> int:
    _check_keys(data, _NETWORK_KEYS, "network")
    users = data.pop("users", None)
    if not isinstance(users, (list, tuple)) or any(
            not isinstance(u, (list, tuple)) or len(u) != 2 for u in users):
        raise ConfigError("users must be a list of [name, arm_km] pairs")
    try:
        spec = sc.NetworkSpec(users=[(str(n), float(a)) for n, a in users], **data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    return _finish(sc.run_network(spec), out_dir,
                   f"network preset={spec.preset} seed={spec.seed}")


def _cmd_evaluate(data: dict, out_dir: Path) -> int:
    _check_keys(data, _EVALUATE_KEYS, "evaluate")
    preset_name = data.get("preset", "fig4")
    if preset_name not in sc.DEVICE_PRESETS:
        raise ConfigError(f"unknown device preset {preset_name!r}")
    preset = sc.DEVICE_PRESETS[preset_name]
    params = data.get("params")
    if not isinstance(params, dict):
        raise ConfigError("evaluate needs a 'params' mapping with pinned source settings")
    variant = _variant_from_name(data.get("variant", "filtering"))
    params = {key: _number(params, key, None) for key in params}
    l_a = _number(data, "l_a_km", 0.0)
    l_b = _number(data, "l_b_km", 0.0)
    n_pulses = _number(data, "n_pulses", 1e12)
    seed = data.get("seed", 0)
    try:
        sc._check_budget_and_seed(1, seed)  # evaluate runs no search, so only the seed counts
        report = evaluate(
            params, preset.link(l_a, l_b), preset.detector(), n_pulses,
            preset.eps, preset.error_correction_f, variant,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    row = sc._report_row(preset, report, l_a + l_b, data.get("variant", "filtering"),
                         l_a_km=l_a, l_b_km=l_b, n_pulses=n_pulses, budget=0, seed=seed)
    return _finish([row], out_dir, f"evaluate preset={preset_name}")


def _cmd_optimize(data: dict, out_dir: Path) -> int:
    _check_keys(data, _OPTIMIZE_KEYS, "optimize")
    try:
        spec = sc.SweepSpec(
            preset=data.get("preset", "fig4"),
            distances_km=[float(data.get("l_a_km", 0.0)) + float(data.get("l_b_km", 0.0))],
            variants=[data.get("variant", "filtering")],
            n_pulses=float(data.get("n_pulses", 1e12)),
            delta_km=float(data.get("l_a_km", 0.0)) - float(data.get("l_b_km", 0.0)),
            budget=data.get("budget", 3000),
            seed=data.get("seed", 1),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    return _finish(sc.run_sweep(spec), out_dir, f"optimize preset={spec.preset} seed={spec.seed}")


_ORACLE_CONFIGS: list[dict] = [
    # short, bright, filtering on, elevated darks
    dict(l_a=10.0, l_b=15.0, dark_rate_hz=1e5, phase_slices=8, click_filtering=True,
         mu=0.5, nu=0.15, p_mu=0.35, p_nu=0.35),
    # asymmetric, no filtering
    dict(l_a=30.0, l_b=10.0, dark_rate_hz=0.1, phase_slices=8, click_filtering=False,
         mu=0.6, nu=0.2, p_mu=0.3, p_nu=0.4),
    # four-intensity, filtering on
    dict(l_a=15.0, l_b=15.0, dark_rate_hz=10.0, phase_slices=8, click_filtering=True,
         mu=0.6, nu=0.12, p_mu=0.3, p_nu=0.3, omega=0.3, p_omega=0.15),
]


_DEVICE_FIELDS = {f.name for f in dataclasses.fields(sc.DevicePreset)}


def _oracle_setup(cfg: dict) -> tuple[SourceConfig, ChannelLink, DetectorPair]:
    """(source, link, detector) of an oracle configuration: a
    :class:`~amdiqkd.scenario.DevicePreset` with the config's device fields,
    and both parties sending the same levels."""
    device = sc.DevicePreset(**{k: v for k, v in cfg.items() if k in _DEVICE_FIELDS})
    levels = [k for k in ("mu", "nu", "omega", "p_mu", "p_nu", "p_omega") if k in cfg]
    params = {f"{k}_{side}": cfg[k] for k in levels for side in "ab"} | {"tc_bins": 2000.0}
    src = SourceConfig.from_params(params, "omega" in cfg, cfg["click_filtering"])
    return src, device.link(cfg["l_a"], cfg["l_b"]), device.detector()


_SIGMAS = 5.0


def _delta_sd(fn, counts: dict, m_x: float) -> tuple[list[float], list[float]]:
    """Values of ``fn(counts, m_x)`` and their delta-method standard
    deviations under independent Poisson counts, by finite differences."""
    base = fn(counts, m_x)
    var = [0.0] * len(base)
    for key in [*counts, None]:
        n = m_x if key is None else counts[key]
        h = max(1e-3 * n, 1e-2)
        bumped = fn(counts, m_x + h) if key is None else fn({**counts, key: n + h}, m_x)
        for i, (b, v) in enumerate(zip(base, bumped)):
            var[i] += ((v - b) / h) ** 2 * max(n, 1.0)
    return base, [math.sqrt(v) for v in var]


def _oracle_checks(src, link, det, run, n_bins: int) -> list[tuple[str, float, bool]]:
    """Judge the oracle run ``run`` of ``n_bins`` bins against the closed forms
    and the decoy bounds: (name, z, ok) per check.

    Observed counts must land within 5 sigma of the closed forms (two-sided).
    Each asymptotic bound may pass its oracle truth by at most 5 sigma, where
    sigma combines the Poisson scatter of the truth with the delta-method
    scatter of the estimate itself: the estimates are linear combinations
    of many counts with large coefficients and scatter several times wider
    than the truth.
    """
    obs = expected_observables(src, link, det, float(n_bins))
    checks = []

    def observed(name, got, expected):
        z = (got - expected) / math.sqrt(max(expected, 1.0))
        checks.append((name, z, abs(z) <= _SIGMAS))

    observed("pairs", run.n_pairs, obs.n_pairs)
    for key, expected in obs.counts.items():
        if expected >= 25.0:
            observed(f"count{key}", run.counts[key], expected)
    if obs.m_x >= 25.0:
        observed("m_x", run.m_x, obs.m_x)

    def bounds(counts, m_x):
        est = estimate(counts, m_x, src, link.phase_slices, eps=None)
        return [est.s0_z_star, est.s11_z_star, est.t11_x, est.m0_x_star]

    counts = {k: float(v) for k, v in run.counts.items()}
    (s0, s11, t11x, m0), sds = _delta_sd(bounds, counts, float(run.m_x))
    groups = z_key_groups(src)
    truths = [
        sum(max(run.z_truth[g].a_vacuum, run.z_truth[g].b_vacuum) for g in groups),
        sum(run.z_truth[g].single_photon_pairs for g in groups),
        run.x_truth.single_photon_errors,
        run.x_vacuum_errors,
    ]
    # signed distance past the truth, on the side each bound must not cross
    excess = [s0 - truths[0], s11 - truths[1], truths[2] - t11x, m0 - truths[3]]
    for name, d, truth, sd in zip(
        ("s0_sound", "s11_sound", "t11x_sound", "m0_sound"), excess, truths, sds
    ):
        z = d / math.sqrt(max(truth, 1) + sd * sd)
        checks.append((name, z, z <= _SIGMAS))
    return checks


def _cmd_validate_oracle(bins: float, seed: int, out_dir: Path) -> int:
    """Check the closed forms and the decoy bounds against the oracle, as
    :func:`_oracle_checks` judges them, on each of the oracle configurations."""
    if not (1.0 <= bins < math.inf and float(bins).is_integer()):
        raise ConfigError(f"--bins must be a whole number >= 1, got {bins!r}")
    if seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed!r}")
    n_bins = int(bins)
    lines = []
    all_ok = True
    for idx, cfg in enumerate(_ORACLE_CONFIGS):
        src, link, det = _oracle_setup(cfg)
        run = simulate(src, link, det, n_bins, seed=seed + idx)
        checks = _oracle_checks(src, link, det, run, n_bins)
        bad = [name for name, _, ok in checks if not ok]
        all_ok &= not bad
        lines.append(
            f"config {idx}: {len(checks)} checks, "
            + ("all within 5 sigma" if not bad else f"FAILED: {bad}")
        )
        lines.extend(f"  {name}: z = {z:+.2f}" for name, z, _ in checks)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = out_dir / "oracle_report.txt"
    report.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    return 0 if all_ok else 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="amdiqkd",
        description="Asynchronous MDI-QKD simulation, estimation and optimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("evaluate", "optimize", "sweep", "network"):
        p = sub.add_parser(name)
        p.add_argument("--scenario", help="path to a YAML scenario file")
        p.add_argument("--preset", help="name of a packaged scenario preset")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, help="override the scenario seed")
        p.add_argument("--budget", type=int, help="override the optimizer budget")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a scenario field")
    p = sub.add_parser("validate-oracle")
    p.add_argument("--bins", type=float, default=1e7)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", default="out")

    args = parser.parse_args(argv)
    try:
        if args.command == "validate-oracle":
            return _cmd_validate_oracle(args.bins, args.seed, Path(args.out))
        data = _load_scenario(args)
        data = _apply_overrides(data, args.overrides)
        if args.seed is not None:
            data["seed"] = args.seed
        if args.budget is not None:
            data["budget"] = args.budget
        declared = data.pop("command", args.command)
        if declared != args.command:
            raise ConfigError(
                f"scenario declares command {declared!r} but {args.command!r} was invoked"
            )
        out_dir = Path(args.out)
        handler = {
            "sweep": _cmd_sweep,
            "network": _cmd_network,
            "evaluate": _cmd_evaluate,
            "optimize": _cmd_optimize,
        }[args.command]
        return handler(data, out_dir)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
