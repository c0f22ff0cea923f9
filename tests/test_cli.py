import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import amdiqkd
from amdiqkd import stats
from amdiqkd.cli import main

from golden_rates import GOLDEN, RUNS, assert_rates_match, read_rates

FIXTURE_SWEEP = """
command: sweep
preset: fig2
distances_km: [60.0]
variants: [filtering]
n_pulses: 1.0e+12
budget: 80
seed: 11
"""


def write_scenario(tmp_path, text, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestEvaluate:
    def test_fixture_runs_and_is_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["evaluate", "--preset", "evaluate_300km", "--out", str(out1)]) == 0
        assert main(["evaluate", "--preset", "evaluate_300km", "--out", str(out2)]) == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
        assert (out1 / "summary.txt").read_bytes() == (out2 / "summary.txt").read_bytes()

    def test_missing_params_is_config_error(self, tmp_path):
        scn = write_scenario(
            tmp_path,
            "command: evaluate\npreset: fig4\nl_a_km: 10\nl_b_km: 10\nn_pulses: 1.0e+12\n",
        )
        assert main(["evaluate", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == 1


EVALUATE_PARAMS = dict(mu_a=0.43, nu_a=0.021, p_mu_a=0.27, p_nu_a=0.16,
                       mu_b=0.43, nu_b=0.021, p_mu_b=0.27, p_nu_b=0.16)


def params_override(**changes):
    params = {k: v for k, v in {**EVALUATE_PARAMS, **changes}.items() if v is not None}
    return "params={" + ", ".join(f"{k}: {v}" for k, v in params.items()) + "}"


class TestConfigErrors:
    # each of these ended in a traceback instead of exit code 1
    @pytest.mark.parametrize("override", ["variant=bogus", "preset=nope", "l_a_km=abc"])
    def test_bad_optimize_field(self, tmp_path, capsys, override):
        scn = write_scenario(tmp_path, "command: optimize\nl_a_km: 10\nl_b_km: 10\nbudget: 20\n")
        argv = ["optimize", "--scenario", str(scn), "--set", override, "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        pytest.param(params_override(nu_a=None), id="missing-nu_a"),
        pytest.param(params_override(mu_a="abc"), id="text-mu_a"),
        "l_a_km=abc",
        pytest.param("seed=1.5", id="fractional-seed"),
        pytest.param("seed=true", id="bool-seed"),
    ])
    def test_bad_evaluate_field(self, tmp_path, capsys, override):
        argv = ["evaluate", "--preset", "evaluate_300km", "--set", override,
                "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert "configuration error" in capsys.readouterr().err

    # a level the variant does not use was read as nothing, and results.csv
    # showed it; the four-intensity variant takes the omega levels and every
    # variant runs without the optional pairing window
    FOUR_LEVELS = dict(omega_a=0.2, p_omega_a=0.1, omega_b=0.2, p_omega_b=0.1)

    @pytest.mark.parametrize("variant, changes, code", [
        pytest.param("filtering", dict(omega_a=0.9, p_omega_a=0.5, omega_b=0.1, p_omega_b=0.5,
                                       tc_bins="1.0e+6"), 1, id="omega-on-three-levels"),
        pytest.param("double-scan", dict(omega_a=0.2), 1, id="one-omega-on-three-levels"),
        pytest.param("four-intensity", dict(FOUR_LEVELS, q_z=0.5), 1, id="q_z"),
        pytest.param("four-intensity", dict(FOUR_LEVELS, omega_b=None), 1, id="missing-omega_b"),
        pytest.param("four-intensity", FOUR_LEVELS, 0, id="four-levels"),
        pytest.param("filtering", {}, 0, id="no-window"),
    ])
    def test_evaluate_takes_the_variant_keys(self, tmp_path, capsys, variant, changes, code):
        out = tmp_path / "o"
        argv = ["evaluate", "--preset", "evaluate_300km", "--set", f"variant={variant}",
                "--set", params_override(**changes), "--out", str(out)]
        assert main(argv) == code
        if code:
            assert "configuration error" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert (out / "results.csv").is_file()

    # a pulse count that is not finite and positive is rejected before any
    # output, in the scalar and the per-point form; YAML reads 1e12 as text,
    # which evaluate converts and a sweep blamed on the distance list
    @pytest.mark.parametrize("command, n_pulses", [
        *(("evaluate", n) for n in ("-1", "0", ".nan")),
        *(("sweep", n) for n in ("-1", "0", ".nan", "[0]", "1e12")),
    ])
    def test_bad_n_pulses(self, tmp_path, capsys, command, n_pulses):
        source = ["--preset", "evaluate_300km"] if command == "evaluate" else [
            "--scenario", str(write_scenario(tmp_path, FIXTURE_SWEEP))]
        out = tmp_path / "o"
        assert main([command, *source, "--set", f"n_pulses={n_pulses}", "--out", str(out)]) == 1
        assert "configuration error: n_pulses must be finite and positive" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    # bad geometry, budgets and seeds, rejected before any output; each of
    # these ended in a traceback, or (an infinite distance) in rows and exit code 2
    @pytest.mark.parametrize("command, extra", [
        ("sweep", ["--set", "distances_km=[100]", "--set", "delta_km=-300"]),
        ("sweep", ["--set", "delta_km=.nan"]),
        ("sweep", ["--set", "distances_km=[.inf]"]),
        ("sweep", ["--set", "distances_km=[-20]"]),
        ("sweep", ["--budget", "0"]),
        ("optimize", ["--set", "l_a_km=-5"]),
        ("network", ["--set", "users=[[A, .nan], [B, 25.0]]"]),
        ("network", ["--set", "users=[[A, .inf], [B, 25.0]]"]),
        ("network", ["--budget", "0"]),
        ("evaluate", ["--set", "l_a_km=.nan"]),
        ("sweep", ["--set", "budget=60.5"]),
        ("network", ["--set", "budget=true"]),
        ("sweep", ["--set", "seed=1.5"]),
        ("network", ["--set", 'seed="x"']),
        ("optimize", ["--set", "budget=20.5"]),
        # a bool was read as 1, and the run went ahead
        ("sweep", ["--set", "n_pulses=true"]),
        ("sweep", ["--set", "distances_km=[true]"]),
        ("sweep", ["--set", "delta_km=true"]),
        ("network", ["--set", "duration_s=true"]),
        ("network", ["--set", "users=[[A, true], [B, 10]]"]),
        ("evaluate", ["--set", "l_a_km=true"]),
        ("optimize", ["--set", "l_a_km=true"]),
        # a network without a pair wrote an empty results.csv and exited 0
        ("network", ["--set", "users=[[A, 10.0]]"]),
        ("network", ["--set", "users=[]"]),
    ], ids=["delta-beyond-distance", "nan-delta", "inf-distance", "negative-distance",
            "sweep-budget-0", "negative-arm", "nan-user-arm", "inf-user-arm",
            "network-budget-0", "nan-length", "fractional-budget", "bool-budget",
            "fractional-seed", "text-seed", "optimize-fractional-budget",
            "bool-n-pulses", "bool-distance", "bool-delta", "bool-duration", "bool-user-arm",
            "bool-length", "optimize-bool-length", "one-user", "no-users"])
    def test_bad_geometry_or_budget(self, tmp_path, capsys, command, extra):
        text = {"sweep": FIXTURE_SWEEP, "optimize": FIXTURE_OPTIMIZE,
                "network": FIXTURE_NETWORK}.get(command)
        source = ["--preset", "evaluate_300km"] if text is None else [
            "--scenario", str(write_scenario(tmp_path, text))]
        out = tmp_path / "o"
        assert main([command, *source, *extra, "--out", str(out)]) == 1
        assert "configuration error" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    # each of these ended in a traceback, with exit code 1 only because Python
    # exits 1 on an uncaught exception
    @pytest.mark.parametrize("case, message", [
        ("yaml-file", "scenario is not valid YAML"),
        ("yaml-override", "override 'distances_km=[1' is not valid YAML"),
        ("directory", "cannot read scenario file"),
        ("user-not-pair", "users must be a list of [name, arm_km] pairs"),
        ("negative-oracle-seed", "--seed must be >= 0"),
        # ran 1000 bins without a word
        ("fractional-oracle-bins", "--bins must be a whole number >= 1, got 1000.5"),
        ("sweep-variant-twice", "variant 'filtering' listed twice"),
        ("network-variant-twice", "variant 'filtering' listed twice"),
    ])
    def test_bad_input_is_config_error(self, tmp_path, capsys, case, message):
        sweep = ["sweep", "--scenario", str(write_scenario(tmp_path, FIXTURE_SWEEP))]
        argv = {
            "yaml-file": ["sweep", "--scenario",
                          str(write_scenario(tmp_path, "command: sweep\ndistances_km: [100\n",
                                             "bad.yaml"))],
            "yaml-override": [*sweep, "--set", "distances_km=[1"],
            "directory": ["sweep", "--scenario", str(tmp_path)],
            "user-not-pair": ["network", "--scenario",
                              str(write_scenario(tmp_path, FIXTURE_NETWORK, "network.yaml")),
                              "--set", "users=[5, 6]"],
            "negative-oracle-seed": ["validate-oracle", "--seed", "-1", "--bins", "1e3"],
            "fractional-oracle-bins": ["validate-oracle", "--bins", "1000.5"],
            "sweep-variant-twice": [*sweep, "--set", "variants=[filtering, filtering]"],
            "network-variant-twice": ["network", "--scenario",
                                      str(write_scenario(tmp_path, FIXTURE_NETWORK, "network.yaml")),
                                      "--set", "variants=[filtering, filtering]"],
        }[case]
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 1
        assert f"configuration error: {message}" in capsys.readouterr().err
        assert not out.exists()


FIXTURE_NETWORK = """
command: network
preset: table3
users: [[A, 20.0], [B, 25.0]]
duration_s: 1.0
budget: 60
seed: 2
"""

FIXTURE_OPTIMIZE = "command: optimize\nl_a_km: 10\nl_b_km: 10\nbudget: 20\n"


class TestStrictConfig:
    def test_unknown_field_rejected(self, tmp_path):
        scn = write_scenario(tmp_path, FIXTURE_SWEEP + "unknown_knob: 3\n")
        assert main(["sweep", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == 1

    # a run of T seconds is clock_hz * T pulses; there is no duty-cycle setting,
    # and the optimizer always searches the pairing window
    @pytest.mark.parametrize("command, text, key", [
        ("sweep", FIXTURE_SWEEP, "duty_cycle"),
        ("network", FIXTURE_NETWORK, "duty_cycle"),
        ("evaluate", None, "duty_cycle"),
        ("optimize", FIXTURE_OPTIMIZE, "duty_cycle"),
        ("network", FIXTURE_NETWORK, "unknown_knob"),
        ("sweep", FIXTURE_SWEEP, "optimize_pairing_window"),
        ("network", FIXTURE_NETWORK, "optimize_pairing_window"),
        ("optimize", FIXTURE_OPTIMIZE, "optimize_pairing_window"),
    ], ids=["sweep-duty_cycle", "network-duty_cycle", "evaluate-duty_cycle",
            "optimize-duty_cycle", "network-unknown_knob", "sweep-pairing_window_knob",
            "network-pairing_window_knob", "optimize-pairing_window_knob"])
    def test_unknown_field_is_config_error(self, tmp_path, capsys, command, text, key):
        source = ["--preset", "evaluate_300km"] if text is None else [
            "--scenario", str(write_scenario(tmp_path, text))]
        argv = [command, *source, "--set", f"{key}=0.5", "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert f"configuration error: unknown {command} fields: ['{key}']" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_wrong_command_rejected(self, tmp_path):
        scn = write_scenario(tmp_path, FIXTURE_SWEEP)
        assert main(["network", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == 1

    def test_missing_scenario_rejected(self, tmp_path):
        assert main(["sweep", "--out", str(tmp_path / "o")]) == 1
        assert main(["sweep", "--scenario", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path / "o")]) == 1

    def test_unknown_preset_rejected(self, tmp_path):
        assert main(["sweep", "--preset", "figure99", "--out", str(tmp_path / "o")]) == 1

    def test_bad_override_rejected(self, tmp_path):
        scn = write_scenario(tmp_path, FIXTURE_SWEEP)
        assert main(["sweep", "--scenario", str(scn), "--set", "seed",
                     "--out", str(tmp_path / "o")]) == 1


class TestSweepCommand:
    def test_sweep_outputs_and_determinism(self, tmp_path):
        scn = write_scenario(tmp_path, FIXTURE_SWEEP)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["sweep", "--scenario", str(scn), "--out", str(out1)]) == 0
        assert main(["sweep", "--scenario", str(scn), "--out", str(out2)]) == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
        header = (out1 / "results.csv").read_text().splitlines()[0]
        assert header.startswith("distance_km,l_a_km,l_b_km,variant,link,n_pulses")

    def test_seed_override_changes_output(self, tmp_path):
        scn = write_scenario(tmp_path, FIXTURE_SWEEP)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["sweep", "--scenario", str(scn), "--out", str(out1)]) == 0
        assert main(["sweep", "--scenario", str(scn), "--seed", "99",
                     "--out", str(out2)]) == 0
        assert (out1 / "results.csv").read_bytes() != (out2 / "results.csv").read_bytes()

    @pytest.mark.parametrize("table", [
        None, "km,bps\n100,5\n", "distance_km,rate_bps\n-10,5\n", "distance_km,rate_bps\n100,-5\n",
        "distance_km,rate_bps\n200,inf\n", "distance_km,rate_bps\n300,nan\n",
    ], ids=["missing", "no-columns", "negative-distance", "negative-rate", "infinite-rate",
            "nan-rate"])
    def test_bad_external_table_is_config_error(self, tmp_path, capsys, table):
        """A missing or malformed external rate table is a configuration error,
        reported before any point is optimized (the output is never written)."""
        path = tmp_path / "external.csv"
        if table is not None:
            path.write_text(table, encoding="utf-8")
        scn = write_scenario(tmp_path, FIXTURE_SWEEP)
        out = tmp_path / "o"
        argv = ["sweep", "--scenario", str(scn), "--set", f"external_rates={{x: {path}}}",
                "--out", str(out)]
        assert main(argv) == 1
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    def test_infeasible_scenario_exit_code(self, tmp_path):
        scn = write_scenario(
            tmp_path,
            "command: sweep\npreset: fig2\ndistances_km: [800.0]\n"
            "variants: [filtering]\nn_pulses: 1.0e+9\nbudget: 60\nseed: 1\n",
        )
        assert main(["sweep", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == 2


@pytest.fixture(scope="module")
def pinned_results(tmp_path_factory):
    """``results.csv`` of a pinned run by name; each run runs once per module."""
    done = {}

    def results(run):
        if run not in done:
            out = tmp_path_factory.mktemp(run) / "o"
            assert main([*RUNS[run], "--out", str(out)]) == 0
            done[run] = out / "results.csv"
        return done[run]
    return results


class TestPinnedRuns:
    @pytest.mark.parametrize("run", RUNS)
    def test_rates_match_golden(self, pinned_results, run):
        """Every row of the run keeps its rate in ``golden/<run>.csv`` to 1e-9
        relative (a regression pin, not the paper's figures)."""
        assert_rates_match(pinned_results(run), run)

    def test_every_preset_and_golden_file_is_a_run(self):
        presets = {p.stem for p in (Path(amdiqkd.__file__).parent / "presets").glob("*.yaml")}
        golden = {p.stem for p in GOLDEN.glob("*.csv")}
        assert presets - RUNS.keys() == set(), "presets without a pinned run"
        assert golden ^ RUNS.keys() == set(), "runs and golden files differ"

    def test_async_beats_time_bin_mdi(self, pinned_results):
        """The abstract's ordering: async MDI with click filtering has more key
        than time-bin MDI at every distance of fig4, and still has key at 480 km."""
        rates = {(d, v): rate for (d, _, _, v, _), rate
                 in read_rates(pinned_results("fig4")).items()}
        for dist in {d for d, _ in rates}:
            assert rates[(dist, "filtering")] > rates[(dist, "mdi-baseline")], dist
        assert rates[("480", "filtering")] > 0.0


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        # the child finds the package under test whether or not it is installed
        env = {**os.environ, "PYTHONPATH": str(Path(amdiqkd.__file__).resolve().parents[1])}
        result = subprocess.run(
            [sys.executable, "-m", "amdiqkd.cli", "evaluate",
             "--preset", "evaluate_300km", "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0
        assert (tmp_path / "o" / "results.csv").exists()


    def test_cli_import_leaves_batch_unloaded(self):
        # the oracle's thread pool and the scenario's process pool load on
        # first use, so a run that needs neither (and the benchmark's setup
        # time) does not pay for them; mpmath serves the tests only
        env = {**os.environ, "PYTHONPATH": str(Path(amdiqkd.__file__).resolve().parents[1])}
        code = ("import sys, amdiqkd.cli; print([m in sys.modules for m in "
                "('concurrent.futures', 'concurrent.futures.process', "
                "'multiprocessing', 'mpmath')])")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[False, False, False, False]"

    def test_evaluate_run_leaves_batch_unloaded(self, tmp_path, monkeypatch):
        # one candidate runs on floats: the column namespace is never read
        class Untouchable:
            def __getattr__(self, name):
                raise AssertionError(f"a one-candidate run read COLUMNS.{name}")

        monkeypatch.setattr(stats, "COLUMNS", Untouchable())
        out = tmp_path / "o"
        assert main(["evaluate", "--preset", "evaluate_300km", "--out", str(out)]) == 0
        assert (out / "results.csv").exists()


class TestExports:
    def test_every_exported_name_exists(self):
        modules = [amdiqkd] + [
            importlib.import_module(f"amdiqkd.{info.name}")
            for info in pkgutil.iter_modules(amdiqkd.__path__)
        ]
        assert len(modules) > 1
        stale = [f"{module.__name__}.{name}" for module in modules
                 for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not stale, stale


class TestValidateOracle:
    def test_small_run_passes(self, tmp_path):
        assert main(["validate-oracle", "--bins", "3e5", "--seed", "7",
                     "--out", str(tmp_path / "o")]) == 0
        report = (tmp_path / "o" / "oracle_report.txt").read_text()
        assert "config 0" in report and "FAILED" not in report

    @pytest.mark.parametrize("bins", ["0", "0.5", "-3", "nan", "inf"])
    def test_bad_bin_count_is_config_error(self, tmp_path, capsys, bins):
        assert main(["validate-oracle", "--bins", bins, "--out", str(tmp_path / "o")]) == 1
        assert "--bins" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_report_gives_z_per_check(self, tmp_path):
        main(["validate-oracle", "--bins", "3e5", "--seed", "7", "--out", str(tmp_path / "o")])
        lines = (tmp_path / "o" / "oracle_report.txt").read_text().splitlines()
        heads = [i for i, line in enumerate(lines) if line.startswith("config ")]
        assert len(heads) == 3
        for start, end in zip(heads, heads[1:] + [len(lines)]):
            n_checks = int(lines[start].split(": ")[1].split(" checks")[0])
            z_lines = lines[start + 1:end]
            assert len(z_lines) == n_checks
            assert all(line.startswith("  ") and ": z = " in line for line in z_lines)
            names = [line.split(": z = ")[0].strip() for line in z_lines]
            assert names[0] == "pairs"
            assert names[-4:] == ["s0_sound", "s11_sound", "t11x_sound", "m0_sound"]
