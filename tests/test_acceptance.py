"""Acceptance gate: every criterion below runs at its stated tolerance and
prints one PASS/FAIL line (run with ``pytest -s`` to see them live).

Criterion 1 compares optimized rates against the published six-point table at
the printed data sizes.  It fails by a flat factor of about 1.28 over
50-300 km; docs/criterion1.md records the analysis.
"""

import time

import numpy as np
import pytest

from amdiqkd import decoy
from amdiqkd.cli import _ORACLE_CONFIGS, _oracle_checks, _oracle_setup
from amdiqkd.keyrate import ProtocolVariant, evaluate
from amdiqkd.oracle import simulate
from amdiqkd.scenario import DEVICE_PRESETS, VARIANTS, _search_point
from amdiqkd.stats import FLOATS, chernoff_expected, chernoff_observed

FIG4 = DEVICE_PRESETS["fig4"]
FIG1 = DEVICE_PRESETS["fig1"]
N_22H = 3.168e14


def report(criterion: int, label: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion} [{label}]: {'PASS' if ok else 'FAIL'} - {detail}")


def optimize_point(preset, dist, n_pulses, variant, seed, budget=3000, delta_km=0.0,
                   warm=()):
    l_a = (dist + delta_km) / 2.0
    l_b = (dist - delta_km) / 2.0
    name = next(k for k, v in VARIANTS.items() if v == variant)
    columns = dict(l_a_km=l_a, l_b_km=l_b, n_pulses=n_pulses, budget=budget, seed=seed)
    _, best = _search_point(preset, name, dist, columns, warm)
    rep = evaluate(best, preset.link(l_a, l_b), preset.detector(), n_pulses, preset.eps,
                   preset.error_correction_f, variant)
    return rep, best


class TestCriterion1TableReproduction:
    TARGETS = [
        (50.0, 1e12, 6.02e6),
        (100.0, 5e12, 2.29e6),
        (150.0, 1e13, 855.40e3),
        (200.0, 1e13, 305.05e3),
        (250.0, 5e13, 129.60e3),
        (300.0, 5e13, 46.671e3),
    ]

    def test_published_rate_table(self):
        got = []
        worst = 0.0
        for idx, (dist, n_pulses, target) in enumerate(self.TARGETS):
            start = time.time()
            rep, _ = optimize_point(FIG4, dist, n_pulses, ProtocolVariant(), seed=41 + idx)
            elapsed = time.time() - start
            assert elapsed < 600.0, f"runtime target exceeded at {dist} km"
            rate = rep.rate_per_second
            got.append((dist, rate, target))
            worst = max(worst, abs(rate - target) / target)
        detail = "; ".join(
            f"{d:.0f}km {r / 1e3:.1f}/{t / 1e3:.1f}kbps" for d, r, t in got
        )
        ok = worst <= 0.15
        report(1, "published rate table +-15%", ok, f"worst dev {worst:.1%}; {detail}")
        assert ok, (
            f"worst deviation {worst:.1%} exceeds 15% ({detail}). The ratio to the "
            "published table is flat over 50-300 km, which points to a scale factor "
            "rather than the shape of the model; see docs/criterion1.md for the "
            "one-change probes and what is not pinned."
        )


class TestCriterion2MethodGap:
    def test_direct_vs_sampling_at_600km(self):
        rates = {}
        for method in ("direct", "random_sampling"):
            rep, _ = optimize_point(
                FIG1, 600.0, 1e14, ProtocolVariant(phase_error_method=method),
                seed=3, budget=3500,
            )
            rates[method] = rep.rate_per_pulse
        assert rates["random_sampling"] > 0.0, "no key at 600 km"
        ratio = rates["direct"] / rates["random_sampling"]
        ok = abs(ratio - 1.49) <= 0.15
        report(2, "600 km method ratio 1.49+-0.15", ok, f"ratio {ratio:.3f}")
        assert ok, f"direct/random-sampling ratio {ratio:.3f} outside 1.49 +- 0.15"


class TestCriterion3FilteringGaps:
    def test_filtering_ratios_at_300km(self):
        preset = DEVICE_PRESETS["fig2"]
        rates = {}
        variants = {
            "filtering": ProtocolVariant(),
            "four-group": ProtocolVariant(click_filtering=False),
            "signal-only": ProtocolVariant(click_filtering=False, z_group_mode="signal_only"),
        }
        for idx, (name, var) in enumerate(variants.items()):
            rep, _ = optimize_point(preset, 300.0, 1e13, var, seed=11 + idx)
            rates[name] = rep.rate_per_pulse
        r4 = rates["filtering"] / rates["four-group"]
        r1 = rates["filtering"] / rates["signal-only"]
        ok = abs(r4 - 1.11) <= 0.10 and abs(r1 - 1.29) <= 0.10
        report(3, "300 km filtering gaps", ok, f"vs 4-group {r4:.3f} (1.11+-0.10), vs signal-only {r1:.3f} (1.29+-0.10)")
        assert abs(r4 - 1.11) <= 0.10, f"filtering/4-group ratio {r4:.3f}"
        assert abs(r1 - 1.29) <= 0.10, f"filtering/signal-only ratio {r1:.3f}"


class TestCriterion4RepeaterlessCrossing:
    def test_crossing_window(self):
        distances = [280.0, 300.0, 310.0, 320.0, 330.0, 340.0, 360.0]
        crossing = None
        rows = []
        for idx, dist in enumerate(distances):
            rep, _ = optimize_point(FIG4, dist, N_22H, ProtocolVariant(), seed=21 + idx)
            rows.append((dist, rep.rate_per_second, rep.skc0_per_second))
            if crossing is None and rep.rate_per_second > rep.skc0_per_second:
                crossing = dist
        detail = ", ".join(f"{d:.0f}km {'+' if r > s else '-'}" for d, r, s in rows)
        ok = crossing is not None and 300.0 <= crossing <= 360.0
        report(4, "repeaterless-bound crossing in [300,360] km", ok,
               f"first exceed at {crossing} km ({detail})")
        assert ok, f"crossing at {crossing} ({detail})"


class TestCriterion5FourIntensityParity:
    @pytest.mark.parametrize("dist", [200.0, 400.0])
    def test_parity(self, dist):
        rep3, best3 = optimize_point(FIG4, dist, N_22H, ProtocolVariant(), seed=31)
        warm4 = dict(best3)
        warm4.update(
            omega_a=best3["mu_a"] * 0.5, p_omega_a=0.05,
            omega_b=best3["mu_b"] * 0.5, p_omega_b=0.05,
        )
        rep4, _ = optimize_point(
            FIG4, dist, N_22H, ProtocolVariant(four_intensity=True), seed=32,
            budget=4000, warm=[warm4],
        )
        rel = abs(rep4.rate_per_pulse - rep3.rate_per_pulse) / rep3.rate_per_pulse
        ok = rel <= 0.05
        report(5, f"four-intensity parity at {dist:.0f} km", ok,
               f"three {rep3.rate_per_second:.4g} bps vs four {rep4.rate_per_second:.4g} bps ({rel:.1%})")
        assert ok, f"four-intensity deviates {rel:.1%} at {dist} km"


class TestCriterion6DoubleScanNullResult:
    @pytest.mark.parametrize("dist", [150.0, 250.0, 350.0])
    def test_scan_changes_nothing(self, dist):
        rep_base, best = optimize_point(FIG4, dist, N_22H, ProtocolVariant(), seed=51)
        rep_scan, _ = optimize_point(
            FIG4, dist, N_22H, ProtocolVariant(double_scanning=True), seed=51,
            warm=[best],
        )
        rel = (rep_scan.rate_per_pulse - rep_base.rate_per_pulse) / rep_base.rate_per_pulse
        ok = abs(rel) <= 0.02
        report(6, f"double scanning null result at {dist:.0f} km", ok, f"relative change {rel:+.2%}")
        assert ok, f"double scanning changed the rate by {rel:+.2%} at {dist} km"


class TestCriterion7DecoyBb84Crossover:
    def test_crossover_distance(self):
        crossover = None
        rows = []
        for idx, dist in enumerate(np.arange(120.0, 221.0, 10.0)):
            rep, _ = optimize_point(FIG4, float(dist), N_22H, ProtocolVariant(),
                                    seed=61 + idx, budget=2500)
            bb84_row, _ = _search_point(
                FIG4, "bb84-baseline", float(dist),
                dict(l_a_km=dist / 2.0, l_b_km=dist / 2.0, n_pulses=N_22H, budget=2000,
                     seed=71 + idx), [],
            )
            bb84 = bb84_row["rate_bits_per_pulse"] * FIG4.clock_hz
            rows.append((dist, rep.rate_per_second, bb84))
            if crossover is None and rep.rate_per_second > bb84:
                crossover = float(dist)
        detail = ", ".join(f"{d:.0f}:{'A' if a > b else 'B'}" for d, a, b in rows)
        ok = crossover is not None and 140.0 <= crossover <= 200.0
        report(7, "overtakes decoy BB84 at 170+-30 km", ok,
               f"crossover at {crossover} km ({detail})")
        assert ok, f"crossover at {crossover} km ({detail})"


def _oracle_failures(tag, cfg, seed):
    """Checks (a) and (b) of Criterion 8 on one oracle run of 3e7 bins, judged
    as validate-oracle judges them: (a) the closed forms hold within five
    standard errors, (b) no decoy bound (exact-statistics mode) beats its
    ground truth by more than 5 sigma.  The names of the failed checks, each
    prefixed with ``tag``."""
    src, link, det = _oracle_setup(cfg)
    run = simulate(src, link, det, 30_000_000, seed=seed)
    checks = _oracle_checks(src, link, det, run, 30_000_000)
    return [f"{tag} {name}" for name, _, ok in checks if not ok]


class TestCriterion8OracleSoundness:
    def test_suite(self):
        failures = []
        for idx, cfg in enumerate(_ORACLE_CONFIGS):
            failures += _oracle_failures(f"cfg{idx}", cfg, seed=7 + idx)

        # (c) joint constraints dominate naive bounds on random combinations
        rng = np.random.default_rng(88)
        for _ in range(1000):
            terms = [(float(rng.uniform(0.1, 10.0)), float(rng.uniform(0.0, 1e5)))
                     for _ in range(rng.integers(1, 6))]
            naive_lo = sum(c * chernoff_expected(v, 1e-10)[0] for c, v in terms)
            naive_up = sum(c * chernoff_expected(v, 1e-10)[1] for c, v in terms)
            if decoy._joint_bound(FLOATS, terms, "lower", 1e-10) < naive_lo - 1e-9:
                failures.append("joint lower")
                break
            if decoy._joint_bound(FLOATS, terms, "upper", 1e-10) > naive_up + 1e-9:
                failures.append("joint upper")
                break

        # (d) empirical Chernoff coverage at eps = 1e-3
        eps = 1e-3
        rng = np.random.default_rng(99)
        for mean in (50.0, 500.0):
            lower, upper = chernoff_observed(mean, eps)
            draws = rng.poisson(mean, size=100_000)
            coverage = np.mean((draws >= lower) & (draws <= upper))
            if coverage < 1.0 - 2.0 * eps:
                failures.append(f"coverage@{mean}")

        ok = not failures
        report(8, "oracle soundness suite (3 cfg x 3e7 bins)", ok,
               "all checks passed" if ok else f"failed: {failures}")
        assert ok, failures


# links Criterion 8 leaves out: a fast phase drift with a 100 Hz laser
# offset, a 5/45 km split, and 60+60 km with 1e4 Hz darks
MORE_ORACLE_CONFIGS = [
    dict(l_a=20.0, l_b=20.0, dark_rate_hz=10.0, phase_slices=8, click_filtering=True,
         mu=0.5, nu=0.15, p_mu=0.35, p_nu=0.35,
         phase_drift_rad_per_s=5.9e4, laser_offset_hz=100.0),
    dict(l_a=5.0, l_b=45.0, dark_rate_hz=10.0, phase_slices=8, click_filtering=False,
         mu=0.6, nu=0.2, p_mu=0.3, p_nu=0.4),
    dict(l_a=60.0, l_b=60.0, dark_rate_hz=1e4, phase_slices=8, click_filtering=True,
         mu=0.5, nu=0.15, p_mu=0.35, p_nu=0.35),
]


class TestOracleSoundnessMoreLinks:
    def test_suite(self):
        failures = []
        for idx, cfg in enumerate(MORE_ORACLE_CONFIGS):
            failures += _oracle_failures(f"cfg{idx}", cfg, seed=7 + idx)
        ok = not failures
        report(8, "oracle soundness on more links (3 cfg x 3e7 bins)", ok,
               "all checks passed" if ok else f"failed: {failures}")
        assert ok, failures


class TestCriterion9Determinism:
    def test_byte_identical_csv(self, tmp_path):
        from amdiqkd.cli import main

        scenario = tmp_path / "mini.yaml"
        scenario.write_text(
            "command: sweep\npreset: fig2\ndistances_km: [70.0, 90.0]\n"
            "variants: [filtering, nofilter-4group]\nn_pulses: 1.0e+12\n"
            "budget: 150\nseed: 5\n",
            encoding="utf-8",
        )
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["sweep", "--scenario", str(scenario), "--out", str(out1)]) == 0
        assert main(["sweep", "--scenario", str(scenario), "--out", str(out2)]) == 0
        same = (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
        report(9, "byte-identical outputs for equal seeds", same, "results.csv compared")
        assert same
