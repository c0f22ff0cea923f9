import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

import amdiqkd
from amdiqkd.cli import main

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
    ])
    def test_bad_evaluate_field(self, tmp_path, capsys, override):
        argv = ["evaluate", "--preset", "evaluate_300km", "--set", override,
                "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert "configuration error" in capsys.readouterr().err


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

    # a run of T seconds is clock_hz * T pulses; there is no duty-cycle setting
    @pytest.mark.parametrize("command, text, key", [
        ("sweep", FIXTURE_SWEEP, "duty_cycle"),
        ("network", FIXTURE_NETWORK, "duty_cycle"),
        ("evaluate", None, "duty_cycle"),
        ("optimize", FIXTURE_OPTIMIZE, "duty_cycle"),
        ("network", FIXTURE_NETWORK, "unknown_knob"),
    ], ids=["sweep-duty_cycle", "network-duty_cycle", "evaluate-duty_cycle",
            "optimize-duty_cycle", "network-unknown_knob"])
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

    def test_infeasible_scenario_exit_code(self, tmp_path):
        scn = write_scenario(
            tmp_path,
            "command: sweep\npreset: fig2\ndistances_km: [800.0]\n"
            "variants: [filtering]\nn_pulses: 1.0e+9\nbudget: 60\nseed: 1\n",
        )
        assert main(["sweep", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == 2


# rate_bps of each link of ``amdiqkd network --preset network_table3``, as
# this program computed them when the preset was pinned (4 GHz, 22 h, seed
# 106, budget 3000).  They are a regression reference for this code, not the
# published network table, whose rates are not in this repository.
NETWORK_TABLE3_RATES = {
    "A-B": 14668.1253529, "A-C": 23474.1375222, "A-D": 40397.2006355,
    "A-E": 14668.2393747, "B-C": 13541.0940795, "B-D": 20544.653856,
    "B-E": 9457.7370367, "C-D": 35562.5306847, "C-E": 13560.2214779,
    "D-E": 20527.0130192,
}


class TestNetworkCommand:
    def test_preset_rates_pinned(self, tmp_path):
        """The ten links of the network preset keep this program's pinned
        rates to 1e-9 relative (a regression pin, not the paper's table)."""
        out = tmp_path / "o"
        assert main(["network", "--preset", "network_table3", "--out", str(out)]) == 0
        with (out / "results.csv").open(newline="", encoding="utf-8") as fh:
            rates = {r["link"]: float(r["rate_bps"]) for r in csv.DictReader(fh)}
        assert rates.keys() == NETWORK_TABLE3_RATES.keys()
        for link, pinned in NETWORK_TABLE3_RATES.items():
            assert rates[link] == pytest.approx(pinned, rel=1e-9), link


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
