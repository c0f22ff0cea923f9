"""Rewrite the golden rate files of the pinned runs from this checkout.

    PYTHONPATH=src python tests/make_golden.py [RUN ...]

It reads the run table, ``golden_rates.RUNS``: each name is one CLI run and
one ``golden/<name>.csv``.  With no argument it rewrites every run.  Run it
only for a change that is meant to move the rates, and report the new/old
ratios that the failing tests printed.
"""

import sys
import tempfile
from pathlib import Path

from amdiqkd.cli import main

from golden_rates import RUNS, write_golden


def regenerate(runs: list[str]) -> None:
    unknown = [run for run in runs if run not in RUNS]
    if unknown:
        raise SystemExit(f"unknown run(s) {unknown}; known: {sorted(RUNS)}")
    for run in runs:
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            argv = [*RUNS[run], "--out", str(out)]
            code = main(argv)
            if code not in (0, 2):
                raise SystemExit(f"{run}: amdiqkd {' '.join(argv)} exited {code}")
            print(write_golden(out / "results.csv", run))


if __name__ == "__main__":
    regenerate(sys.argv[1:] or list(RUNS))
