#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size (about half a minute):

    python3 perfbench/selftest.py

Runs each workload small, traced and untraced, and checks that the
correctness gate counts a deliberately corrupted reference in ``failed``.
It also checks that ``run.py`` refuses a directory without the sources.
Exits non-zero on the first broken expectation.
"""

from __future__ import annotations

import copy
import shutil
import subprocess
import sys

import run

TINY_BUDGET = 30
TINY_BINS = 100_000
SEED = 3


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def check_evaluate_grid(reference: dict) -> None:
    out = run.run_evaluate_grid(SEED, 0.0, False, reference)
    expect(out["failed"] == 0 and out["attempted"] == run.GRID_WARMUP + run.GRID_BLOCK,
           f"evaluate-grid matches the stored reference on {out['attempted']} draws")
    first = run.grid_order(SEED, run.POOL_SIZE)[0]
    bad = copy.deepcopy(reference)
    bad["rate_per_pulse"][first] = bad["rate_per_pulse"][first] * 1.01 or 1e-9
    out = run.run_evaluate_grid(SEED, 0.0, False, bad)
    expect(out["failed"] == 1, "evaluate-grid counts one corrupted reference rate")
    out = run.run_evaluate_grid(SEED, 0.0, True, reference, trace_draws=run.GRID_BLOCK)
    out["tracer"].uninstall()
    layers = out["tracer"].layer_metrics()
    expect(out["failed"] == 0 and layers["keyrate.evaluate.calls"][0] == run.GRID_BLOCK,
           "traced evaluate-grid records one keyrate.evaluate span per draw")


def check_sweep(distances=run.SWEEP_DISTANCES) -> None:
    import amdiqkd.cli as cli

    _, rc, rows = run.sweep_once(cli, run.derived_seed(SEED, 0), run.WORK / "selftest-sweep",
                                 TINY_BUDGET, distances)
    expect(rc == 0 and len(rows) == len(distances) * len(run.SWEEP_VARIANTS),
           "tiny fig4 sweep writes one row per point")
    reference = {"rate_bps": {run.sweep_key(r["distance_km"], r["variant"]): float(r["rate_bps"])
                              for r in rows}}
    out = run.run_sweep_fig4(SEED, 0.0, False, reference, budget=TINY_BUDGET, distances=distances)
    expect(out["failed"] == 0, "sweep-fig4 matches its own reference")
    bad = copy.deepcopy(reference)
    key = next(iter(bad["rate_bps"]))
    bad["rate_bps"][key] *= 1.1
    out = run.run_sweep_fig4(SEED, 0.0, False, bad, budget=TINY_BUDGET, distances=distances)
    expect(out["failed"] == 1, "sweep-fig4 counts one corrupted reference rate")
    failed_row = dict(rows[0], note="failed: injected")
    _, n_failed = run.sweep_failures(0, [failed_row] + rows[1:], reference)
    expect(n_failed == 1, "sweep-fig4 counts a row noted 'failed:'")
    out = run.run_sweep_fig4(SEED, 0.0, True, reference, budget=TINY_BUDGET, distances=distances)
    out["tracer"].uninstall()
    layers = out["tracer"].layer_metrics()
    expect(out["failed"] == 0 and layers["optimizer.optimize_link.calls"][0] == len(rows),
           "traced sweep-fig4 records one optimize_link span per point")


def check_oracle() -> None:
    info = run.oracle_once(run.derived_seed(SEED, 0), TINY_BINS, run.WORK / "selftest-oracle")
    expect(info["rc"] == 0 and len(info["configs"]) > 0, "tiny validate-oracle passes its checks")
    expect(len(info["soundness"]) == len(info["configs"])
           and all(set(c) == set(run.SOUNDNESS_CHECKS) for c in info["soundness"]),
           "child judges the four soundness checks of every config")
    reference = {"checks_per_config": [n for n, _ in info["configs"]],
                 "truth_runs": 1, "truth_mean": info["truth"]}
    out = run.run_oracle_validate(SEED, 0.0, False, reference, bins=TINY_BINS)
    expect(out["failed"] == 0, "oracle-validate matches its own check counts")
    bad = copy.deepcopy(reference)
    bad["checks_per_config"][0] += 1
    out = run.run_oracle_validate(SEED, 0.0, False, bad, bins=TINY_BINS)
    expect(out["failed"] == 1, "oracle-validate counts a check that did not run")
    bad = copy.deepcopy(reference)
    bad["truth_mean"][0]["z_single_photon_pairs"] *= 3.0
    out = run.run_oracle_validate(SEED, 0.0, False, bad, bins=TINY_BINS)
    expect(out["failed"] == 1, "oracle-validate counts a truth tally far from its reference mean")
    expect(run.parse_oracle_report("config 0: 27 checks, FAILED: ['pairs', 'm_x']")
           == [(27, ["pairs", "m_x"])], "oracle-validate reads the names of failed checks")
    n = reference["checks_per_config"][0]
    sound = {name: {"ok": True, "z": 0.0} for name in run.SOUNDNESS_CHECKS}
    truth = reference["truth_mean"][:1]
    one = {"checks_per_config": [n], "truth_runs": 1, "truth_mean": truth}

    def failed(names, judged):
        info = {"rc": 2, "configs": [(n, names)], "soundness": judged, "truth": truth}
        return run.oracle_failures(info, one)[1]

    expect(failed(["pairs", "m_x"], [sound]) == 2,
           "oracle-validate counts each non-soundness check reported outside 5 sigma")
    expect(failed(["s11_sound"], [sound]) == 0,
           "a soundness check inside the estimate's own 5 sigma is not counted")
    expect(failed([], [dict(sound, s11_sound={"ok": False, "z": 6.0})]) == 1,
           "a soundness check outside the estimate's own 5 sigma is counted")
    expect(failed([], []) == len(run.SOUNDNESS_CHECKS),
           "a config without judged soundness checks fails all four")
    out = run.run_oracle_validate(SEED, 0.0, True, reference, bins=TINY_BINS)
    out["tracer"].uninstall()
    layers = out["tracer"].layer_metrics()
    expect(layers["oracle.simulate.calls"][0] == len(info["configs"]) and layers["oracle.clicks"][0] > 0,
           "traced oracle-validate records simulate spans and click counts")


def check_bare_directory() -> None:
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload", "evaluate-grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "run.py exits non-zero without a result where the sources are missing")


def main() -> int:
    run.import_amdiqkd()
    reference = run.load_reference()
    check_evaluate_grid(reference["evaluate_grid"])
    check_sweep()
    check_oracle()
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
