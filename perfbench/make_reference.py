#!/usr/bin/env python3
"""Regenerate ``perfbench/reference.json`` from the current sources.

    python3 perfbench/make_reference.py

Run this only on a commit whose outputs are trusted: the benchmark counts
every later output that strays from these values as a failed operation.
It takes a few minutes (16384 evaluations, one fig4 sweep at budget 3000
and eight ``validate-oracle`` calls).

* ``evaluate_grid``: rate and key-term scale of every pool entry, plus the
  SHA-256 of the pool inputs, so a changed input generator is refused.
* ``sweep_fig4``: optimized ``rate_bps`` per (distance, variant) at the
  fig4 preset's own seed; other optimizer seeds land within 0.5%.
* ``oracle_validate``: the number of 5-sigma checks per config at the
  benchmark's bin count (fixed by the closed forms, not by the seed), and
  the mean of each oracle truth tally per config over eight seeds.
"""

from __future__ import annotations

import json
import sys

import run

ORACLE_SEEDS = (7, 101, 102, 103, 104, 105, 106, 107)  # 7 is Criterion 8's


def main() -> int:
    run.import_amdiqkd()
    import amdiqkd.cli as cli
    from amdiqkd import scenario as sc
    from amdiqkd.keyrate import evaluate

    pool, digest = run.grid_pool()
    rates, scales = [], []
    for variant, preset_name, l_a, l_b, n_pulses, params in pool:
        preset = sc.DEVICE_PRESETS[preset_name]
        report = evaluate(dict(params), preset.link(l_a, l_b), preset.detector(), n_pulses,
                          preset.eps, preset.error_correction_f, sc.VARIANTS[variant])
        est = report.estimate
        # 12 digits keep the rate far inside the 1e-6 tolerance; the scale
        # only sets that tolerance, so 4 digits do
        rates.append(float(f"{report.rate_per_pulse:.12g}"))
        scale = (est.s0_z + est.s11_z) / n_pulses if est is not None else 0.0
        scales.append(float(f"{scale:.4g}"))
    print(f"evaluate-grid: {len(pool)} entries, "
          f"{sum(r > 0 for r in rates) / len(rates):.1%} positive", file=sys.stderr)

    out_dir = run.WORK / "reference-sweep"
    _, rc, rows = run.sweep_once(cli, 104, out_dir, run.SWEEP_BUDGET, run.SWEEP_DISTANCES)
    if rc != 0:
        raise SystemExit(f"fig4 sweep exited with {rc}")
    sweep = {run.sweep_key(r["distance_km"], r["variant"]): float(r["rate_bps"]) for r in rows}

    infos = [run.oracle_once(seed, run.ORACLE_BINS, run.WORK / "reference-oracle")
             for seed in ORACLE_SEEDS]
    oracle = {
        "bins": run.ORACLE_BINS,
        "checks_per_config": [n for n, _ in infos[0]["configs"]],
        "truth_runs": len(infos),
        "truth_mean": [{name: sum(info["truth"][i][name] for info in infos) / len(infos)
                        for name in infos[0]["truth"][i]}
                       for i in range(len(infos[0]["truth"]))],
    }
    for seed, info in zip(ORACLE_SEEDS, infos):
        _, bad = run.oracle_failures(info, oracle)
        if bad:
            raise SystemExit(f"validate-oracle failed {bad} checks at seed {seed}: {info}")

    reference = {
        "evaluate_grid": {"inputs_sha256": digest, "rate_per_pulse": rates, "scale_per_pulse": scales},
        "sweep_fig4": {"budget": run.SWEEP_BUDGET, "seed": 104, "rate_bps": sweep},
        "oracle_validate": oracle,
    }
    run.REFERENCE.write_text(json.dumps(reference, separators=(",", ":")) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
