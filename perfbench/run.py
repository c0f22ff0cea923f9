#!/usr/bin/env python3
"""amdiqkd benchmark: end-to-end metrics, correctness gate and traced layers.

Run from the root of a source checkout (no install needed; ``src/`` is put
on the path):

    python3 perfbench/run.py --workload evaluate-grid --seed 1 --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

* ``evaluate-grid``   independent ``keyrate.evaluate`` calls on seeded draws
                      from a fixed pool with stored reference rates;
* ``sweep-fig4``      ``amdiqkd sweep --preset fig4`` at budget 3000 on two
                      of the preset's distances, in this process;
* ``oracle-validate`` ``amdiqkd validate-oracle`` in a fresh process per call;
* ``all``             every workload above, one process each, one table.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the public
functions of each amdiqkd layer (``tracer.py``) and prints the per-layer
metrics plus the tracing overhead.  Human-readable lines come first; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record with provenance and the sample
count of every metric is written to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import os

# one single-threaded process: pin BLAS/OpenMP pools before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("evaluate-grid", "sweep-fig4", "oracle-validate")
SETUP_PROBES = 5

# evaluate-grid: the pool is a pure function of POOL_SEED (Python's random(),
# whose stream is stable across versions), so its reference rates can be
# stored; --seed picks the order in which a run walks the pool.
POOL_SEED = 2302_14349
POOL_SIZE = 16384
GRID_BLOCK = 200
GRID_WARMUP = 20
GRID_TRACE_DRAWS = 2000
GRID_VARIANTS = ("filtering", "filtering-rs", "nofilter-4group",
                 "nofilter-signal-only", "four-intensity", "double-scan")
GRID_PRESETS = ("fig1", "fig4")  # 1 GHz and 4 GHz devices
# |rate - ref| <= GRID_RTOL * max(ref, (s0 + s11) / n_pulses): tight against a
# wrong closed form, loose for last-digit changes that cancel inside ell.
GRID_RTOL = 1e-6

SWEEP_BUDGET = 3000
SWEEP_DISTANCES = (120.0, 170.0)
SWEEP_VARIANTS = ("filtering", "bb84-baseline", "mdi-baseline")
SWEEP_RTOL = 0.02  # optimized rates move < 0.5% between optimizer seeds

ORACLE_BINS = 10_000_000  # the CLI default
SOUNDNESS_CHECKS = ("s0_sound", "s11_sound", "t11x_sound", "m0_sound")
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The checkout cannot be benchmarked (missing sources or stale reference)."""


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_amdiqkd() -> None:
    if not (SRC / "amdiqkd" / "__init__.py").is_file():
        raise BenchError(f"no amdiqkd sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import amdiqkd

    if Path(amdiqkd.__file__).resolve().parent != (SRC / "amdiqkd").resolve():
        raise BenchError(f"amdiqkd imported from {amdiqkd.__file__}, not from {SRC}")


def derived_seed(seed: int, k: int) -> int:
    return 1 + (seed * 1_000_003 + k * 7919) % (2**31 - 2)


def peak_rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(probes: int = SETUP_PROBES) -> list[float]:
    """Wall time of fresh processes that import amdiqkd and load the preset."""
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "child.py"), "setup"], env=child_env(),
                       check=True, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return times


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# evaluate-grid
# ---------------------------------------------------------------------------

def _draw(r: random.Random) -> tuple:
    """One pinned parameter set inside the validated domain (mu > omega > nu)."""
    u = r.random
    variant = GRID_VARIANTS[int(u() * len(GRID_VARIANTS))]
    preset = GRID_PRESETS[int(u() * len(GRID_PRESETS))]
    dist = 600.0 * u()
    delta = min(100.0, dist) * u()
    params = {}
    for side in "ab":
        mu = 0.2 + 0.6 * u()
        nu = mu * (0.02 + 0.12 * u())
        p_mu = 0.3 + 0.35 * u()
        p_nu = 0.1 + 0.3 * u()
        probs = [p_mu, p_nu]
        if variant == "four-intensity":
            params[f"omega_{side}"] = nu + (mu - nu) * (0.1 + 0.8 * u())
            probs.append(0.05 + 0.2 * u())
        total = sum(probs)
        if total > 0.95:
            probs = [p * 0.95 / total for p in probs]
        params[f"mu_{side}"] = mu
        params[f"nu_{side}"] = nu
        params[f"p_mu_{side}"] = probs[0]
        params[f"p_nu_{side}"] = probs[1]
        if variant == "four-intensity":
            params[f"p_omega_{side}"] = probs[2]
    params["tc_bins"] = 10.0 ** (4.0 + 3.0 * u())
    n_pulses = 10.0 ** (11.0 + 4.0 * u())
    return (variant, preset, (dist + delta) / 2.0, (dist - delta) / 2.0, n_pulses,
            tuple(sorted(params.items())))


def grid_pool() -> tuple[list[tuple], str]:
    r = random.Random(POOL_SEED)
    pool = [_draw(r) for _ in range(POOL_SIZE)]
    return pool, hashlib.sha256(repr(pool).encode()).hexdigest()


def grid_order(seed: int, size: int) -> list[int]:
    """Seeded Fisher-Yates permutation built on random() only."""
    r = random.Random(seed)
    order = list(range(size))
    for i in range(size - 1, 0, -1):
        j = int(r.random() * (i + 1))
        order[i], order[j] = order[j], order[i]
    return order


def grid_pass(pool, order, start, stop_after, sc, keyrate, block=GRID_BLOCK):
    """Evaluate pool entries in ``order`` from ``start`` in blocks of ``block``.

    ``stop_after`` is a draw count (int) or a time limit in seconds (float).
    ``keyrate.evaluate`` is looked up per call so that a tracer installed
    between passes sees the calls.  Returns (results as (pool index, rate),
    block times, next position).
    """
    results, blocks = [], []
    pos = start
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for _ in range(block):
            i = order[pos % len(order)]
            pos += 1
            variant, preset_name, l_a, l_b, n_pulses, params = pool[i]
            preset = sc.DEVICE_PRESETS[preset_name]
            report = keyrate.evaluate(dict(params), preset.link(l_a, l_b), preset.detector(),
                                      n_pulses, preset.eps, preset.error_correction_f,
                                      sc.VARIANTS[variant])
            results.append((i, report.rate_per_pulse))
        blocks.append(time.perf_counter() - t0)
        if isinstance(stop_after, int):
            if pos - start >= stop_after:
                break
        elif time.perf_counter() - begin >= stop_after:
            break
    return results, blocks, pos


def grid_failures(results, reference: dict) -> int:
    rates, scales = reference["rate_per_pulse"], reference["scale_per_pulse"]
    failed = 0
    for i, rate in results:
        tol = GRID_RTOL * max(abs(rates[i]), scales[i])
        if not abs(rate - rates[i]) <= tol:  # also catches NaN
            failed += 1
    return failed


def run_evaluate_grid(seed: int, seconds: float, trace: bool, reference: dict,
                      trace_draws: int = GRID_TRACE_DRAWS) -> dict:
    from amdiqkd import keyrate, scenario as sc

    missing = set(GRID_VARIANTS) - set(sc.VARIANTS) | set(GRID_PRESETS) - set(sc.DEVICE_PRESETS)
    if missing:
        raise BenchError(f"variants or presets gone from amdiqkd: {sorted(missing)}")
    pool, digest = grid_pool()
    if digest != reference["inputs_sha256"]:
        raise BenchError("evaluate-grid pool differs from the one behind the stored reference")
    order = grid_order(seed, len(pool))

    warm, _, pos = grid_pass(pool, order, 0, GRID_WARMUP, sc, keyrate, block=GRID_WARMUP)
    if not trace:
        results, blocks, _ = grid_pass(pool, order, pos, float(seconds), sc, keyrate)
        results += warm
        out = {"blocks": blocks}
    else:
        # untraced and traced passes over the same blocks of draws, in
        # alternating order, so machine drift cancels out of the overhead
        from tracer import Tracer

        tracer = Tracer()
        results, blocks, traced_blocks = list(warm), [], []
        for b in range(max(1, trace_draws // GRID_BLOCK)):
            first = pos + b * GRID_BLOCK
            for traced in ((False, True) if b % 2 == 0 else (True, False)):
                if traced:
                    tracer.install()
                res, times, _ = grid_pass(pool, order, first, GRID_BLOCK, sc, keyrate)
                if traced:
                    tracer.uninstall()
                results += res
                (traced_blocks if traced else blocks).extend(times)
        out = {"blocks": blocks, "traced_blocks": traced_blocks, "tracer": tracer}
    positive = sum(rate > 0.0 for _, rate in results)
    out.update(
        attempted=len(results),
        failed=grid_failures(results, reference),
        work=GRID_BLOCK,
        work_unit="evaluations",
        peak_rss_mb=peak_rss_self_mb(),
        details={"positive_share": positive / len(results), "pool_size": len(pool),
                 "block": GRID_BLOCK, "rtol": GRID_RTOL},
    )
    return out


# ---------------------------------------------------------------------------
# sweep-fig4
# ---------------------------------------------------------------------------

def sweep_argv(seed: int, out_dir: Path, budget: int, distances) -> list[str]:
    dist = "[" + ", ".join(f"{d:g}" for d in distances) + "]"
    return ["sweep", "--preset", "fig4", "--budget", str(budget), "--seed", str(seed),
            "--out", str(out_dir), "--set", f"distances_km={dist}"]


def sweep_once(cli, seed: int, out_dir: Path, budget: int, distances) -> tuple[float, int, list[dict]]:
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = sweep_argv(seed, out_dir, budget, distances)
    start = time.perf_counter()
    rc = cli.main(argv)
    wall = time.perf_counter() - start
    rows = []
    csv_path = out_dir / "results.csv"
    if csv_path.is_file():
        with csv_path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    return wall, rc, rows


def sweep_key(distance, variant: str) -> str:
    return f"{float(distance):g}|{variant}"


def sweep_failures(rc: int, rows: list[dict], reference: dict) -> tuple[int, int]:
    """(attempted, failed) over the reference points of one sweep."""
    expected = reference["rate_bps"]
    got = {sweep_key(r["distance_km"], r["variant"]): r for r in rows}
    failed = 0
    for key, ref in expected.items():
        row = got.get(key)
        if rc != 0 or row is None or row.get("note", "").startswith("failed:"):
            failed += 1
            continue
        try:
            rate = float(row["rate_bps"])
        except ValueError:
            failed += 1
            continue
        if not abs(rate - ref) <= SWEEP_RTOL * ref:
            failed += 1
    return len(expected), failed


def run_sweep_fig4(seed: int, seconds: float, trace: bool, reference: dict,
                   budget: int = SWEEP_BUDGET, distances=SWEEP_DISTANCES) -> dict:
    import amdiqkd.cli as cli

    out_dir = WORK / "out-sweep-fig4"
    walls, attempted, failed = [], 0, 0
    begin = time.perf_counter()
    k = 0
    while True:
        wall, rc, rows = sweep_once(cli, derived_seed(seed, k), out_dir, budget, distances)
        n, bad = sweep_failures(rc, rows, reference)
        walls.append(wall)
        attempted += n
        failed += bad
        k += 1
        if trace or time.perf_counter() - begin >= seconds:
            break
    out = {"blocks": walls}
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        wall, rc, rows = sweep_once(cli, derived_seed(seed, 0), out_dir, budget, distances)
        n, bad = sweep_failures(rc, rows, reference)
        attempted += n
        failed += bad
        out.update(traced_blocks=[wall], tracer=tracer)
    out.update(
        attempted=attempted,
        failed=failed,
        work=budget * len(reference["rate_bps"]),
        work_unit="objective evaluations (budget x points)",
        peak_rss_mb=peak_rss_self_mb(),
        details={"budget": budget, "distances_km": list(distances),
                 "variants": list(SWEEP_VARIANTS), "rtol": SWEEP_RTOL, "sweeps": k},
    )
    return out


# ---------------------------------------------------------------------------
# oracle-validate
# ---------------------------------------------------------------------------

def parse_oracle_report(text: str) -> list[tuple[int, list[str]]]:
    """(checks, names of failed checks) per config from ``oracle_report.txt``."""
    configs = []
    for line in text.splitlines():
        head, _, tail = line.partition(": ")
        if not head.startswith("config "):
            continue
        n_checks = int(tail.split(" checks", 1)[0])
        names = tail.split("FAILED:", 1)[1].split("'")[1::2] if "FAILED:" in tail else []
        configs.append((n_checks, names))
    return configs


def oracle_once(seed: int, bins: int, out_dir: Path, trace_file: Path | None = None) -> dict:
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "child.py"), "oracle", "--bins", str(bins),
           "--seed", str(seed), "--out", str(out_dir)]
    if trace_file is not None:
        cmd += ["--trace", str(trace_file)]
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"validate-oracle child failed:\n{proc.stderr}")
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    report = out_dir / "oracle_report.txt"
    info["configs"] = parse_oracle_report(report.read_text(encoding="utf-8")) if report.is_file() else []
    return info


def oracle_failures(info: dict, reference: dict) -> tuple[int, int]:
    """(attempted, failed) checks; a check that did not run counts as failed.

    The pairs, count and ``m_x`` checks keep the verdict of ``validate-oracle``.
    The soundness checks are judged by ``child.py`` with the estimates' own
    spread, since the 5 sqrt(truth) window of ``validate-oracle`` fails on
    correct outputs; a config without that judgement fails all of them.
    The four truth tallies of each config are checked as well, one op each.
    """
    ref = reference["checks_per_config"]
    got = info["configs"] if info["rc"] in (0, 2) else []
    judged = info.get("soundness", [])
    truths = info.get("truth", [])
    attempted = failed = 0
    for i, ref_checks in enumerate(ref):
        checks, bad = got[i] if i < len(got) else (0, [])
        sound = judged[i] if i < len(judged) else {}
        attempted += max(checks, ref_checks)
        failed += max(ref_checks - checks, 0)
        failed += sum(name not in SOUNDNESS_CHECKS for name in bad)
        failed += sum(not sound.get(name, {}).get("ok", False) for name in SOUNDNESS_CHECKS)
        # each truth tally against its reference mean, within 5 Poisson
        # sigma of one run plus the spread of that mean
        means = reference["truth_mean"][i]
        truth = truths[i] if i < len(truths) else {}
        for name, mean in means.items():
            attempted += 1
            window = 5.0 * math.sqrt(max(mean, 1.0) * (1.0 + 1.0 / reference["truth_runs"]))
            failed += not abs(truth.get(name, math.nan) - mean) <= window
    return attempted, failed


def run_oracle_validate(seed: int, seconds: float, trace: bool, reference: dict,
                        bins: int = ORACLE_BINS) -> dict:
    out_dir = WORK / "out-oracle-validate"
    walls, rss, attempted, failed, n_configs = [], [], 0, 0, 0
    window_failed, z_scores = 0, []

    def tally(info: dict) -> None:
        nonlocal attempted, failed, window_failed
        n, bad = oracle_failures(info, reference)
        attempted += n
        failed += bad
        window_failed += sum(name in SOUNDNESS_CHECKS for _, names in info["configs"] for name in names)
        z_scores.extend(c["z"] for config in info["soundness"] for c in config.values())
        rss.append(info["peak_rss_mb"])

    begin = time.perf_counter()
    k = 0
    while True:
        info = oracle_once(derived_seed(seed, k), bins, out_dir)
        tally(info)
        walls.append(info["wall_s"])
        n_configs = max(n_configs, len(info["configs"]))
        k += 1
        if trace or time.perf_counter() - begin >= seconds:
            break
    out = {"blocks": walls}
    if trace:
        from tracer import Tracer

        trace_file = WORK / "oracle-child-trace.json"
        info = oracle_once(derived_seed(seed, 0), bins, out_dir, trace_file)
        tally(info)
        tracer = Tracer()
        tracer.merge(json.loads(trace_file.read_text(encoding="utf-8")))
        trace_file.unlink()
        out.update(traced_blocks=[info["wall_s"]], tracer=tracer)
    out.update(
        attempted=attempted,
        failed=failed,
        work=bins * max(n_configs, 1),
        work_unit="simulated bins (bins x configs)",
        peak_rss_mb=max(rss),
        details={"bins": bins, "configs": n_configs, "invocations": k,
                 # soundness checks that validate-oracle's own 5 sqrt(truth)
                 # window failed, and the largest z of the re-judged ones
                 "soundness_failed_by_cli_window": window_failed,
                 "soundness_z_max": max(z_scores, default=None)},
    )
    return out


RUNNERS = {
    "evaluate-grid": run_evaluate_grid,
    "sweep-fig4": run_sweep_fig4,
    "oracle-validate": run_oracle_validate,
}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def provenance() -> dict:
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "amdiqkd").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    import numpy

    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def end_to_end_metrics(out: dict, setup_times: list[float]) -> dict:
    wall = statistics.median(out["blocks"])
    n = len(out["blocks"])
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "wall_s": (wall, "s", n),
        "work_per_s": (out["work"] / wall, "1/s", n),
        "peak_rss_mb": (out["peak_rss_mb"], "MB", 1),
    }


def per_layer_metrics(out: dict) -> dict:
    layers = {name: (value, unit, 1) for name, (value, unit) in out["tracer"].layer_metrics().items()}
    overhead = statistics.median(out["traced_blocks"]) - statistics.median(out["blocks"])
    layers["trace.overhead_s"] = (overhead, "s", min(len(out["blocks"]), len(out["traced_blocks"])))
    return layers


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    reference = load_reference()
    import_amdiqkd()
    setup_times = [] if trace else measure_setup()
    out = RUNNERS[workload](seed, seconds, trace, reference[workload.replace("-", "_")])
    metrics = per_layer_metrics(out) if trace else end_to_end_metrics(out, setup_times)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": v, "unit": u, "samples": n} for name, (v, u, n) in metrics.items()},
        "work_per_unit": out["work"],
        "work_unit": out["work_unit"],
        "details": out["details"],
        "unit_times_s": out["blocks"],
        "traced_unit_times_s": out.get("traced_blocks", []),
        "provenance": provenance(),
    }
    if trace:
        from tracer import write

        record["trace_missing"] = out["tracer"].missing
        write(WORK / f"trace-{workload}-seed{seed}.json", out["tracer"].dump())
    WORK.mkdir(parents=True, exist_ok=True)
    (WORK / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def print_table(records: list[dict]) -> None:
    for rec in records:
        print(f"# {rec['workload']}  seed={rec['seed']}  trace={rec['trace']}  "
              f"ops={rec['attempted']}  ops_failed={rec['failed']}  "
              f"work/unit={rec['work_per_unit']:g} {rec['work_unit']}")
        print(f"  details: {json.dumps(rec['details'])}")
        for name, m in rec["metrics"].items():
            print(f"  {name:<38} {m['value']:>16.6g} {m['unit']:<6} n={m['samples']}")


def result_line(records: list[dict], prefix: bool) -> str:
    metrics = {}
    for rec in records:
        for name, m in rec["metrics"].items():
            key = f"{rec['workload']}.{name}" if prefix else name
            metrics[key] = {"value": m["value"], "unit": m["unit"]}
    return json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    })


def run_all(seed: int, seconds: float, trace: bool) -> list[dict]:
    """Each workload in its own process, so peak memory is per workload."""
    records = []
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                               "--seed", str(seed), "--seconds", f"{seconds:g}",
                               "--trace", str(int(trace))],
                              capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            raise BenchError(f"{workload} failed:\n{proc.stderr}")
        records.append(json.loads(
            (WORK / f"result-{workload}-seed{seed}-trace{int(trace)}.json").read_text(encoding="utf-8")))
    return records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            records = run_all(args.seed, args.seconds, bool(args.trace))
        else:
            records = [run_workload(args.workload, args.seed, args.seconds, bool(args.trace))]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_table(records)
    print(result_line(records, prefix=args.workload == "all"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
