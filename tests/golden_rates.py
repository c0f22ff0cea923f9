"""Golden rate files: the identifying columns and ``rate_bps`` of every row
of a pinned run, one ``golden/<run>.csv`` per entry of ``RUNS``, rewritten by
``make_golden.py``.  They pin this program's rates (a regression reference,
not the paper's figures); parameter columns stay unpinned, since they wander
along flat directions of the search."""

import csv
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
KEY_COLUMNS = ("distance_km", "l_a_km", "l_b_km", "variant", "link")
COLUMNS = (*KEY_COLUMNS, "rate_bps")
REL = 1e-9

# The pinned runs, by golden file name: the CLI argv of each, ``--out`` aside.
# Every preset is one; ``every_variant`` takes each variant through a sweep,
# four-intensity and double-scan included, which no preset runs.
RUNS: dict[str, list[str]] = {
    **{name: ["sweep", "--preset", name] for name in ("table4", "fig1", "fig2", "fig2b", "fig4")},
    "network_table3": ["network", "--preset", "network_table3"],
    "evaluate_300km": ["evaluate", "--preset", "evaluate_300km"],
    "every_variant": [
        "sweep", "--preset", "fig4", "--set", "distances_km=[100, 200]",
        "--set", "variants=[filtering, filtering-rs, nofilter-4group, nofilter-signal-only,"
                 " four-intensity, double-scan, mdi-baseline, bb84-baseline]",
        "--set", "n_pulses=1.0e+13", "--budget", "200", "--seed", "5",
    ],
}


def read_rates(path: Path) -> dict[tuple[str, ...], float]:
    """``rate_bps`` of each row of a results or golden CSV, by its key columns."""
    with path.open(newline="", encoding="utf-8") as fh:
        return {tuple(row[c] for c in KEY_COLUMNS): float(row["rate_bps"])
                for row in csv.DictReader(fh)}


def write_golden(results_csv: Path, run: str) -> Path:
    """Copy the pinned columns of a run's ``results.csv``, as written, into
    the run's golden file."""
    with results_csv.open(newline="", encoding="utf-8") as fh:
        rows = [[row[c] for c in COLUMNS] for row in csv.DictReader(fh)]
    path = GOLDEN / f"{run}.csv"
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([COLUMNS, *rows])
    return path


def assert_rates_match(results_csv: Path, run: str) -> None:
    """Every row of the run keeps its golden rate to ``REL``; on a miss, the
    failure lists each row's new/old ratio."""
    got, want = read_rates(results_csv), read_rates(GOLDEN / f"{run}.csv")
    assert got.keys() == want.keys(), f"{run}: rows differ from the golden file"
    if all(got[k] == pytest.approx(rate, rel=REL) for k, rate in want.items()):
        return
    lines = [
        f"  {' '.join(filter(None, k))}: new {got[k]!r} / old {rate!r} = "
        + (f"{got[k] / rate:.12g}" if rate else "n/a")
        + ("" if got[k] == pytest.approx(rate, rel=REL) else "  <- off")
        for k, rate in want.items()
    ]
    pytest.fail(f"{run}: rates moved past {REL:g} relative\n" + "\n".join(lines))
