"""Rewrite the golden rate files of the sweep presets from this checkout.

    PYTHONPATH=src python tests/make_golden.py [PRESET ...]

With no argument it rewrites every preset that has a golden file.  Run it
only for a change that is meant to move the rates, and report the new/old
ratios that the failing tests printed.
"""

import sys
import tempfile
from pathlib import Path

from amdiqkd.cli import main

from golden_rates import GOLDEN, write_golden


def regenerate(presets: list[str]) -> None:
    for preset in presets:
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            if main(["sweep", "--preset", preset, "--out", str(out)]) not in (0, 2):
                raise SystemExit(f"sweep --preset {preset} failed")
            print(write_golden(out / "results.csv", preset))


if __name__ == "__main__":
    regenerate(sys.argv[1:] or sorted(p.stem for p in GOLDEN.glob("*.csv")))
