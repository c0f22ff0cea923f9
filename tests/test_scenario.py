import math

import pytest

from amdiqkd import oracle, scenario
from amdiqkd.cli import main
from amdiqkd.scenario import (
    CSV_COLUMNS,
    DEVICE_PRESETS,
    VARIANTS,
    NetworkSpec,
    SweepSpec,
    point_seed,
    run_network,
    run_sweep,
)


def solve_arm_from_skc0(skc0_bps: float, clock_hz: float, attenuation_db_per_km: float) -> float:
    """Total fibre length whose repeaterless bound equals ``skc0_bps``.

    Inverts skc0 = -log2(1 - eta) * F with fibre-only transmittance; used to
    recover unpublished network geometry from published capacity columns.
    """
    eta = 1.0 - 2.0 ** (-skc0_bps / clock_hz)
    return -10.0 * math.log10(eta) / attenuation_db_per_km


class TestSpecs:
    def test_presets_exist(self):
        for name in ("fig1", "fig2", "fig4", "table3", "table4"):
            assert name in DEVICE_PRESETS
        assert DEVICE_PRESETS["fig1"].clock_hz == 1e9
        assert DEVICE_PRESETS["fig4"].clock_hz == 4e9

    def test_empty_variants_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(variants=[])

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(variants=["teleportation"])

    @pytest.mark.parametrize("spec", [SweepSpec, lambda variants: NetworkSpec(
        users=[("A", 10.0), ("B", 20.0)], variants=variants)], ids=["sweep", "network"])
    def test_variant_listed_twice_rejected(self, spec):
        # a second entry wrote indistinguishable rows, warm-started from the first's optimum
        with pytest.raises(ValueError, match="variant 'filtering' listed twice"):
            spec(variants=["filtering", "filtering"])

    def test_delta_bounded_by_distance(self):
        with pytest.raises(ValueError):
            SweepSpec(distances_km=[50.0], delta_km=60.0)

    def test_per_point_pulses_length_checked(self):
        with pytest.raises(ValueError):
            SweepSpec(distances_km=[100.0, 200.0], n_pulses=[1e12])

    @pytest.mark.parametrize("n_pulses", [0, -1.0, math.nan, math.inf, [1e12, 0.0]])
    def test_pulses_finite_and_positive(self, n_pulses):
        with pytest.raises(ValueError, match="n_pulses must be finite and positive"):
            SweepSpec(distances_km=[100.0, 200.0], n_pulses=n_pulses)

    def test_point_seed_is_stable(self):
        assert point_seed(5, 0) == point_seed(5, 0)
        assert point_seed(5, 0) != point_seed(5, 1)
        assert point_seed(5, 0) != point_seed(6, 0)


class TestSweep:
    def test_rows_sorted_and_delta_column(self):
        spec = SweepSpec(
            preset="fig2",
            distances_km=[120.0, 60.0],
            variants=["filtering", "nofilter-4group"],
            n_pulses=1e12,
            budget=120,
            seed=3,
        )
        rows = run_sweep(spec)
        assert len(rows) == 4
        assert [r["distance_km"] for r in rows] == [60.0, 60.0, 120.0, 120.0]
        assert rows[0]["delta_vs_first"] == 0.0
        assert isinstance(rows[1]["delta_vs_first"], float)
        assert set(rows[0]) == set(CSV_COLUMNS)

    def test_asymmetric_arms(self):
        spec = SweepSpec(
            preset="fig2", distances_km=[150.0], variants=["filtering"],
            n_pulses=1e12, delta_km=100.0, budget=60, seed=2,
        )
        (row,) = run_sweep(spec)
        assert row["l_a_km"] == 125.0
        assert row["l_b_km"] == 25.0

    def test_skc0_column_protocol_independent(self):
        spec = SweepSpec(
            preset="fig2", distances_km=[80.0],
            variants=["filtering", "nofilter-4group"],
            n_pulses=1e12, budget=60, seed=4,
        )
        rows = run_sweep(spec)
        assert rows[0]["skc0_bps"] == rows[1]["skc0_bps"]
        eta = 10.0 ** (-0.16 * 80.0 / 10.0)
        assert rows[0]["skc0_bits_per_pulse"] == pytest.approx(-math.log2(1.0 - eta))

    def test_rate_nonincreasing_in_distance(self):
        spec = SweepSpec(
            preset="fig2", distances_km=[60.0, 90.0, 120.0], variants=["filtering"],
            n_pulses=1e12, budget=500, seed=8,
        )
        rows = run_sweep(spec)
        rates = [r["rate_bps"] for r in rows]
        for near, far in zip(rates, rates[1:]):
            assert far <= near * 1.05

    def test_baseline_rows_present(self):
        spec = SweepSpec(
            preset="fig4", distances_km=[60.0], variants=["bb84-baseline"],
            n_pulses=1e13, budget=400, seed=5,
        )
        (row,) = run_sweep(spec)
        assert row["variant"] == "bb84-baseline"
        assert row["rate_bps"] > 0.0
        assert row["q_z"] != ""


POOL_SWEEP = SweepSpec(
    preset="fig4", distances_km=[150.0, 90.0], variants=["filtering", "bb84-baseline", "mdi-baseline"],
    n_pulses=1e12, budget=120, seed=7,  # the 150 km point's warm start moves its optimum
)
POOL_NETWORK = NetworkSpec(
    users=[("A", 20.0), ("B", 45.0), ("C", 30.0)], preset="table3", duration_s=3600.0,
    variants=("filtering", "double-scan"), budget=60, seed=4,
)


def one_call_at_a_time_sweep(spec):
    """The rows of ``run_sweep(spec)``, each point searched in this process, in
    distance then variant order; an async point warm-starts from the optimum of
    the variant's last point with a positive rate."""
    preset = DEVICE_PRESETS[spec.preset]
    rows, previous_best = [], {}
    for rank, dist in enumerate(sorted(spec.distances_km)):
        l_a, l_b = (dist + spec.delta_km) / 2.0, (dist - spec.delta_km) / 2.0
        at_point = []
        for v_idx, name in enumerate(spec.variants):
            seed = point_seed(spec.seed, rank * len(spec.variants) + v_idx)
            columns = dict(l_a_km=l_a, l_b_km=l_b, n_pulses=spec.n_pulses, budget=spec.budget,
                           seed=seed)
            warm = [previous_best[name]] if name in previous_best else []
            row, best = scenario._search_point(preset, name, dist, columns, warm)
            if name in VARIANTS and row["rate_bits_per_pulse"] > 0.0:
                previous_best[name] = best
            at_point.append(row)
        first = at_point[0]["rate_bps"]
        for row in at_point:
            row["delta_vs_first"] = (row["rate_bps"] - first) / first
        rows += at_point
    return rows


def one_call_at_a_time_network(spec):
    preset = DEVICE_PRESETS[spec.preset]
    rows, index = [], 0
    for i, (name_a, arm_a) in enumerate(spec.users):
        for name_b, arm_b in spec.users[i + 1:]:
            for v_idx, name in enumerate(spec.variants):
                seed = point_seed(spec.seed, index * len(spec.variants) + v_idx)
                row, _ = scenario._search_point(
                    preset, name, arm_a + arm_b, dict(
                        l_a_km=arm_a, l_b_km=arm_b, link=f"{name_a}-{name_b}",
                        n_pulses=spec.n_pulses, budget=spec.budget, seed=seed), [])
                rows.append(row)
            index += 1
    return rows


class TestWorkerPool:
    @pytest.mark.parametrize("run, spec, reference", [
        (run_sweep, POOL_SWEEP, one_call_at_a_time_sweep),
        (run_network, POOL_NETWORK, one_call_at_a_time_network),
    ], ids=["sweep", "network"])
    def test_rows_do_not_depend_on_the_worker_count(self, monkeypatch, run, spec, reference):
        runs = []
        for workers in (1, 3):
            monkeypatch.setattr(oracle, "_cpus", lambda: workers)
            runs.append(run(spec))
        assert runs[0] == runs[1]
        assert runs[0] == reference(spec)
        assert all(row["rate_bps"] > 0.0 for row in runs[0])

    def test_task_error_reaches_the_caller(self, monkeypatch, tmp_path):
        def broken(*args):
            raise RuntimeError("baseline search failed")

        monkeypatch.setattr(scenario, "_search_point", broken)
        with pytest.raises(RuntimeError, match="baseline search failed"):
            run_sweep(POOL_SWEEP)
        out = tmp_path / "o"
        with pytest.raises(RuntimeError, match="baseline search failed"):
            main(["sweep", "--preset", "fig4", "--budget", "30", "--set", "distances_km=[100]",
                  "--out", str(out)])
        assert not out.exists()


class TestExternalRates:
    def test_external_rows_merged(self, tmp_path):
        table = tmp_path / "tf.csv"
        table.write_text("distance_km,rate_bps\n100.0,5.0e4\n200.0,1.0e4\n", encoding="utf-8")
        spec = SweepSpec(
            preset="fig4", distances_km=[100.0], variants=["filtering"],
            n_pulses=1e12, budget=60, seed=1,
            external_rates={"tf-reference": str(table)},
        )
        rows = run_sweep(spec)
        external = [r for r in rows if r["variant"] == "tf-reference"]
        assert len(external) == 2
        assert external[0]["note"] == "external"
        assert external[0]["rate_bits_per_pulse"] == pytest.approx(5.0e4 / 4e9)
        assert external[0]["skc0_bps"] > 0.0

    def test_bad_external_table_rejected(self, tmp_path):
        # the table is checked when the spec is built, before any optimization
        table = tmp_path / "bad.csv"
        table.write_text("km,bps\n1,2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="distance_km,rate_bps"):
            SweepSpec(
                preset="fig4", distances_km=[100.0], variants=["filtering"],
                n_pulses=1e12, budget=60, seed=1, external_rates={"x": str(table)},
            )
        with pytest.raises(ValueError, match="cannot read"):
            SweepSpec(external_rates={"x": str(tmp_path / "missing.csv")})
        for row in ("-10,5", "100,-5", "200,inf", "300,nan", "100", "x,5"):
            table.write_text(f"distance_km,rate_bps\n50,1\n{row}\n", encoding="utf-8")
            with pytest.raises(ValueError, match=r"bad.csv' line 3: .* finite numbers >= 0"):
                SweepSpec(external_rates={"x": str(table)})


class TestNetwork:
    def test_single_user_empty(self):
        spec = NetworkSpec(users=[("A", 100.0)], budget=50, seed=1)
        assert run_network(spec) == []

    def test_pairs_enumerated(self):
        spec = NetworkSpec(
            users=[("A", 20.0), ("B", 25.0), ("C", 30.0)],
            preset="table3", duration_s=1.0, budget=60, seed=2,
        )
        rows = run_network(spec)
        assert [r["link"] for r in rows] == ["A-B", "A-C", "B-C"]
        assert rows[0]["l_a_km"] == 20.0
        assert rows[0]["l_b_km"] == 25.0

    def test_identical_arms_give_identical_rates(self):
        spec = NetworkSpec(
            users=[("A", 30.0), ("B", 40.0), ("E", 40.0)],
            preset="table3", duration_s=0.01, budget=500, seed=9,
        )
        rows = {r["link"]: r for r in run_network(spec)}
        # A-B and A-E share the same arm pair, hence the same optimization
        assert rows["A-B"]["rate_bps"] == pytest.approx(rows["A-E"]["rate_bps"], rel=1e-12)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            NetworkSpec(users=[("A", 10.0), ("A", 20.0)])

    def test_empty_variants_rejected(self):
        # as SweepSpec does; an empty list used to optimize nothing and exit 0
        with pytest.raises(ValueError, match="variant list must not be empty"):
            NetworkSpec(users=[("A", 10.0), ("B", 20.0)], variants=[])

    @pytest.mark.parametrize("duration_s", [0.0, -1.0, math.nan, math.inf])
    def test_duration_finite_and_positive(self, duration_s):
        with pytest.raises(ValueError, match="duration_s must be finite and positive"):
            NetworkSpec(users=[("A", 10.0), ("B", 20.0)], duration_s=duration_s)


class TestArmRecovery:
    def test_round_trip(self):
        from amdiqkd.keyrate import repeaterless_bound

        for dist in (325.0, 350.0, 375.0, 400.0):
            eta = 10.0 ** (-0.16 * dist / 10.0)
            skc0 = repeaterless_bound(eta) * 4e9
            assert solve_arm_from_skc0(skc0, 4e9, 0.16) == pytest.approx(dist, rel=1e-9)

    def test_published_capacity_column(self):
        # the seven published per-link capacities invert to round geometries
        published = {
            5.77e3: 375.0, 4.80e3: 380.0, 1.45e4: 350.0, 2.30e3: 400.0,
            1.21e4: 355.0, 3.64e4: 325.0, 3.03e4: 330.0,
        }
        for skc0, dist in published.items():
            got = solve_arm_from_skc0(skc0, 4e9, 0.16)
            assert got == pytest.approx(dist, abs=0.35)
