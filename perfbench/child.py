"""Fresh-process side of the benchmark; started by ``run.py``, not by hand.

``child.py setup`` imports amdiqkd and loads the fig4 preset, which is what
every ``amdiqkd`` command does before it starts working; the parent times
the whole process to get ``setup_s``.

``child.py oracle --bins N --seed S --out DIR [--trace FILE]`` runs
``amdiqkd validate-oracle`` in this process, so the cold occupancy tables
are built again as in any invocation.  It prints one JSON line with the exit
code, the time of the call and the peak resident set of this process; with
``--trace`` it also writes the spans of the call to FILE.

The JSON line also carries the four soundness checks of each config
(``s0_sound``, ``s11_sound``, ``t11x_sound``, ``m0_sound``), judged again
once the timed call is over.  ``validate-oracle`` allows each estimate
5 sqrt(truth) above (or below) the oracle truth, i.e. only the Poisson
scatter of the truth.  The asymptotic estimates are linear combinations of
many counts with large coefficients and scatter several times wider (about
6 sqrt(truth) for ``s11*`` on config 2), so that window fails on correct
outputs.  Here the window is 5 sqrt(truth + var), where var is the
delta-method variance of the estimate under independent Poisson counts,
taken by finite differences of the package's own estimator.  That wider
window alone would let the oracle's truth tallies drift by several percent,
so the line also carries them: ``run.py`` checks each against its mean over
several seeds in ``reference.json``, within 5 Poisson sigma.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import time
from pathlib import Path

import yaml
from importlib import resources

import amdiqkd.cli as cli
from amdiqkd import scenario


def load_preset() -> scenario.DevicePreset:
    """Read the fig4 scenario the way the CLI does and look up its devices."""
    text = resources.files("amdiqkd").joinpath("presets", "fig4.yaml").read_text(encoding="utf-8")
    return scenario.DEVICE_PRESETS[yaml.safe_load(text)["preset"]]


SIGMAS = 5.0
# oracle truth behind each soundness check: Z-basis vacuum events and
# single-photon pairs, X-basis single-photon errors and vacuum errors
TRUTH_TALLIES = ("z_vacuum", "z_single_photon_pairs", "x_single_photon_errors", "x_vacuum_errors")


def delta_sd(fn, counts: dict, m_x: float) -> tuple[list[float], list[float]]:
    """Values of ``fn(counts, m_x)`` and their delta-method standard deviations."""
    base = fn(counts, m_x)
    var = [0.0] * len(base)
    for key in [*counts, None]:
        n = m_x if key is None else counts[key]
        h = max(1e-3 * n, 1e-2)
        if key is None:
            bumped = fn(counts, m_x + h)
        else:
            bumped = fn({**counts, key: n + h}, m_x)
        for i, (b, v) in enumerate(zip(base, bumped)):
            var[i] += ((v - b) / h) ** 2 * max(n, 1.0)
    return base, [math.sqrt(v) for v in var]


def soundness(src, link, run) -> tuple[dict, dict]:
    """The four soundness checks of ``validate-oracle`` with the estimates' own
    spread, and the oracle truth tallies they compare against."""
    from amdiqkd.decoy import estimate, pairing_probs, xbasis_vacuum_errors_lower, z_key_groups

    probs = pairing_probs(src, link.phase_slices)

    def estimates(counts, m_x):
        est = estimate(counts, m_x, src, link.phase_slices, eps=None)
        m0 = xbasis_vacuum_errors_lower(counts, probs, src, None)
        return [est.s0_z_star, est.s11_z_star, est.t11_x, m0]

    counts = {k: float(v) for k, v in run.counts.items()}
    (s0, s11, t11x, m0), sd = delta_sd(estimates, counts, float(run.m_x))
    groups = z_key_groups(src)
    truth = [sum(max(run.z_truth[g].a_vacuum, run.z_truth[g].b_vacuum) for g in groups),
             sum(run.z_truth[g].single_photon_pairs for g in groups),
             run.x_truth.single_photon_errors, run.x_vacuum_errors]
    # signed distance past the truth, in the side each bound must not cross
    excess = [s0 - truth[0], s11 - truth[1], truth[2] - t11x, m0 - truth[3]]
    checks = {}
    for name, d, t, s in zip(("s0_sound", "s11_sound", "t11x_sound", "m0_sound"), excess, truth, sd):
        z = d / math.sqrt(max(t, 1) + s * s)
        checks[name] = {"ok": z <= SIGMAS, "z": z}
    return checks, dict(zip(TRUTH_TALLIES, truth))


def record_simulations(cli) -> list:
    """Keep (source, link, result) of every ``simulate`` call that ``cli`` makes."""
    calls = []
    inner = cli.simulate

    def recorder(src, link, *args, **kwargs):
        run = inner(src, link, *args, **kwargs)
        calls.append((src, link, run))
        return run

    cli.simulate = recorder
    return calls


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("setup")
    p = sub.add_parser("oracle")
    p.add_argument("--bins", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace")
    args = parser.parse_args()
    load_preset()
    if args.mode == "setup":
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer, write

        tracer = Tracer()
        tracer.install()
    simulations = record_simulations(cli)
    argv = ["validate-oracle", "--bins", str(args.bins), "--seed", str(args.seed),
            "--out", args.out]
    start = time.perf_counter()
    rc = cli.main(argv)
    wall = time.perf_counter() - start
    if tracer is not None:
        write(Path(args.trace), tracer.dump())
        tracer.uninstall()
    rss = peak_rss_mb()
    judged = [soundness(src, link, run) for src, link, run in simulations]
    print(json.dumps({"rc": rc, "wall_s": wall, "peak_rss_mb": rss,
                      "soundness": [c for c, _ in judged], "truth": [t for _, t in judged]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
