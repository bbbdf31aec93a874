import json
import subprocess
import sys

import numpy as np
import pytest

from infodyn.cli import main
from infodyn.eca import eca_step, rule_table

REF_BITS = "00001000101000011100100011001000"


def run_cli(args, cli_env, input_bytes=None):
    return subprocess.run(
        [sys.executable, "-m", "infodyn", *args],
        capture_output=True,
        env=cli_env,
        input=input_bytes,
        timeout=600,
    )


class TestMeasureCommand:
    def test_reference_file(self, tmp_path, cli_env):
        path = tmp_path / "bits.txt"
        path.write_text(REF_BITS)
        proc = run_cli(["measure", str(path)], cli_env)
        assert proc.returncode == 0
        lines = proc.stdout.decode().splitlines()
        assert lines[0] == "scale,I_b,E,S,C"
        i_b = {int(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
        assert i_b[1] == pytest.approx(0.89603821, abs=1e-6)
        assert i_b[2] == pytest.approx(0.8246987, abs=1e-6)
        assert i_b[4] == pytest.approx(0.5389098, abs=1e-6)
        assert i_b[8] == pytest.approx(0.1875, abs=1e-9)

    def test_constant_sequence(self, tmp_path, cli_env):
        path = tmp_path / "ones.txt"
        path.write_text("1111")
        proc = run_cli(["measure", str(path), "--scales", "1"], cli_env)
        assert proc.returncode == 0
        assert proc.stdout.decode().splitlines()[1] == "1,0,0,1,0"

    def test_empty_file_exits_2(self, tmp_path, cli_env):
        path = tmp_path / "empty.txt"
        path.write_text("")
        proc = run_cli(["measure", str(path)], cli_env)
        assert proc.returncode == 2
        assert b"error" in proc.stderr

    def test_missing_file_exits_2(self, cli_env):
        proc = run_cli(["measure", "/nonexistent/path.txt"], cli_env)
        assert proc.returncode == 2

    def test_invalid_characters_exit_2(self, tmp_path, cli_env):
        path = tmp_path / "bad.txt"
        path.write_text("0123")
        proc = run_cli(["measure", str(path)], cli_env)
        assert proc.returncode == 2

    def test_too_short_scale_is_null_with_warning(self, tmp_path, cli_env):
        path = tmp_path / "short.txt"
        path.write_text("0101")
        proc = run_cli(["measure", str(path), "--scales", "1,8"], cli_env)
        assert proc.returncode == 0
        lines = proc.stdout.decode().splitlines()
        assert lines[2] == "8,,,,"
        assert b"warning" in proc.stderr

    def test_scale_out_of_range_exits_2(self, tmp_path, cli_env):
        # 63-bit symbols do not fit int64: rejected, not reported as "too short"
        path = tmp_path / "short.txt"
        path.write_text("0101")
        proc = run_cli(["measure", str(path), "--scales", "63"], cli_env)
        assert proc.returncode == 2
        assert b"scale must be in 1..62" in proc.stderr
        assert proc.stdout == b""

    def test_stdin_and_raw_format(self, cli_env):
        # 0xF0 unpacks MSB-first to 11110000
        proc = run_cli(
            ["measure", "-", "--input-format", "raw", "--scales", "1,4"],
            cli_env,
            input_bytes=bytes([0xF0]),
        )
        assert proc.returncode == 0
        lines = proc.stdout.decode().splitlines()
        assert lines[1] == "1,1,1,0,0"
        assert lines[2] == "4,0.25,0.25,0.75,0.75"  # symbols 15, 0

    def test_csv_input_format(self, tmp_path, cli_env):
        path = tmp_path / "bits.csv"
        path.write_text("0,1,0,1\n0,0")
        proc = run_cli(
            ["measure", str(path), "--input-format", "csv", "--scales", "1"], cli_env
        )
        assert proc.returncode == 0
        assert proc.stdout.decode().splitlines()[1].startswith("1,0.918")

    def test_json_format(self, tmp_path, cli_env):
        path = tmp_path / "bits.txt"
        path.write_text(REF_BITS)
        proc = run_cli(["measure", str(path), "--format", "json", "--scales", "8"], cli_env)
        rows = json.loads(proc.stdout)
        assert rows[0]["scale"] == 8
        assert rows[0]["I_b"] == pytest.approx(0.1875)


class TestRbnCommand:
    def test_deterministic_output_bytes(self, cli_env):
        args = ["rbn", "--n", "40", "--k", "2", "--transient", "32", "--window", "64",
                "--seed", "1", "--scales", "1,2"]
        first = run_cli(args, cli_env)
        second = run_cli(args, cli_env)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_table_budget_exits_2(self, cli_env):
        # 100 nodes with 2^35 table entries each: refused before any table exists
        proc = run_cli(["rbn", "--k", "35"], cli_env)
        assert proc.returncode == 2
        assert b"= 3,435,973,836,800 bytes of lookup tables" in proc.stderr

    def test_zero_k_frozen(self, cli_env):
        proc = run_cli(
            ["rbn", "--n", "30", "--k", "0", "--transient", "4", "--window", "32",
             "--scales", "1"],
            cli_env,
        )
        assert proc.stdout.decode().splitlines()[1] == "1,0,1,0,1"

    def test_chaotic_h_near_half(self, cli_env):
        proc = run_cli(
            ["rbn", "--n", "100", "--k", "5", "--transient", "256", "--window", "256",
             "--scales", "1", "--seed", "0"],
            cli_env,
        )
        h = float(proc.stdout.decode().splitlines()[1].split(",")[4])
        assert abs(h - 0.5) < 0.1

    def test_dump_network_parses(self, tmp_path, cli_env):
        dump = tmp_path / "net.txt"
        proc = run_cli(
            ["rbn", "--n", "12", "--k", "1.5", "--transient", "2", "--window", "8",
             "--dump-network", str(dump)],
            cli_env,
        )
        assert proc.returncode == 0
        from infodyn.rbn import parse_network

        net = parse_network(dump.read_text())
        assert net.n == 12

    def test_dump_trajectory_csv(self, tmp_path, cli_env):
        dump = tmp_path / "traj.csv"
        run_cli(
            ["rbn", "--n", "5", "--k", "1", "--transient", "2", "--window", "6",
             "--dump-trajectory", str(dump)],
            cli_env,
        )
        rows = dump.read_text().splitlines()
        assert len(rows) == 6
        assert all(len(r.split(",")) == 5 for r in rows)


class TestEcaCommand:
    def test_rule_zero(self, cli_env):
        proc = run_cli(
            ["eca", "--rule", "0", "--n", "32", "--transient", "8", "--window", "32"],
            cli_env,
        )
        lines = proc.stdout.decode().splitlines()
        assert lines[1:] == ["1,0,1,0,1", "2,0,1,0,1", "4,0,1,0,1", "8,0,1,0,1"]

    def test_rule_204_h_is_one(self, cli_env):
        proc = run_cli(
            ["eca", "--rule", "204", "--n", "16", "--transient", "0", "--window", "16",
             "--scales", "1"],
            cli_env,
        )
        h = proc.stdout.decode().splitlines()[1].split(",")[4]
        assert h == "1"

    def test_invalid_rule_exits_2(self, cli_env):
        proc = run_cli(["eca", "--rule", "300", "--n", "8", "--window", "8"], cli_env)
        assert proc.returncode == 2

    def test_scale_out_of_range_exits_2(self, cli_env):
        proc = run_cli(["eca", "--rule", "30", "--scales", "63"], cli_env)
        assert proc.returncode == 2
        assert b"scale must be in 1..62" in proc.stderr
        assert b"internal error" not in proc.stderr

    def test_wide_scales_sit_at_or_below_the_plug_in_ceiling(self, cli_env):
        # 2**40 and 2**62 symbols over 102 and 66 groups: no alphabet-sized
        # count table, and E can at most reach log2(groups) / b
        proc = run_cli(["eca", "--rule", "30", "--n", "64", "--window", "4096",
                        "--scales", "40,62", "--format", "json"], cli_env)
        assert proc.returncode == 0, proc.stderr.decode()
        rows = json.loads(proc.stdout)
        assert [row["scale"] for row in rows] == [40, 62]
        for row in rows:
            ceiling = np.log2(4096 // row["scale"]) / row["scale"]
            # the report rounds to 9 digits, which keeps E <= ceiling
            assert row["E"] <= float(format(ceiling, ".9g")) + 1e-12

    def test_bitmap_matches_hand_evolution(self, tmp_path, cli_env):
        dump = tmp_path / "traj.pbm"
        proc = run_cli(
            ["eca", "--rule", "110", "--n", "11", "--init", "single_cell",
             "--transient", "0", "--window", "6", "--scales", "1",
             "--dump-bitmap", str(dump)],
            cli_env,
        )
        assert proc.returncode == 0
        lines = dump.read_text().splitlines()
        assert lines[0] == "P1"
        assert lines[1] == "11 6"
        bitmap_rows = [
            np.array([int(tok) for tok in line.split()], dtype=np.uint8)
            for line in lines[2:]
        ]
        state = np.zeros(11, dtype=np.uint8)
        state[5] = 1
        rule = rule_table(110)
        for row in bitmap_rows:
            assert np.array_equal(row, state)
            state = eca_step(state, rule)


class TestAscii01RoundTrip:
    def test_parse_then_serialize_is_canonical(self, tmp_path):
        from infodyn.cli import _read_input
        from infodyn.measures import SymbolSequence

        path = tmp_path / "scattered.txt"
        path.write_text(" 0 1\n0 1 ")
        seq = _read_input(str(path), "ascii01")
        assert seq.to_bitstring() == "0101"
        # canonical form parses back to the identical sequence
        assert SymbolSequence.from_bits(seq.to_bitstring()) == seq


class TestSweepCommand:
    def test_small_sweep_files_and_determinism_across_threads(self, tmp_path, cli_env):
        common = ["sweep", "rbn", "--preset", "desk", "--seed", "42",
                  "--instances", "4", "--window", "64", "--transient", "32",
                  "--n", "16", "--k-grid", "1,3", "--scales", "1,2"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        first = run_cli([*common, "--output-dir", str(out1), "--threads", "1"], cli_env)
        second = run_cli([*common, "--output-dir", str(out2), "--threads", "4"], cli_env)
        assert first.returncode == second.returncode == 0
        for name in (
            "rbn_sweep_instances.csv",
            "rbn_sweep_aggregate.csv",
            "rbn_sweep_instances.json",
            "rbn_sweep_aggregate.json",
        ):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_full_desk_eca_survey_row_counts(self, tmp_path, cli_env):
        out = tmp_path / "desk_eca"
        proc = run_cli(
            ["sweep", "eca", "--preset", "desk", "--seed", "0",
             "--output-dir", str(out)],
            cli_env,
        )
        assert proc.returncode == 0
        agg = (out / "eca_survey_aggregate.csv").read_text().splitlines()
        assert len(agg) == 1 + 19 * 4 * 6  # rules x scales x stats
        mean_rows = [line for line in agg[1:] if line.split(",")[3] == "mean"]
        assert len(mean_rows) == 19 * 4
        inst = (out / "eca_survey_instances.csv").read_text().splitlines()
        assert len(inst) == 1 + 19 * 4 * 50

    def test_env_var_thread_control(self, tmp_path, cli_env):
        env = dict(cli_env)
        env["INFODYN_THREADS"] = "3"
        out = tmp_path / "env"
        proc = run_cli(
            ["sweep", "eca", "--rules", "0", "--instances", "2", "--window", "16",
             "--transient", "4", "--n", "8", "--scales", "1",
             "--output-dir", str(out)],
            env,
        )
        assert proc.returncode == 0
        assert (out / "eca_survey_instances.csv").exists()

    def test_profile_writes_baseline_and_plot(self, tmp_path, cli_env):
        out = tmp_path / "profile"
        proc = run_cli(
            ["sweep", "profile", "--rules", "0", "--instances", "1", "--window", "16",
             "--transient", "4", "--n", "8", "--scales", "1,2", "--plot-script",
             "--output-dir", str(out)],
            cli_env,
        )
        assert proc.returncode == 0
        assert (out / "eca_profiles_h_baseline.csv").read_text() == (
            "scale,h_baseline\n1,0.5\n2,0.25\n"
        )
        script = (out / "plot_eca_profiles.py").read_text()
        compile(script, "plot_eca_profiles.py", "exec")

    def test_profile_at_wide_scale(self, tmp_path, cli_env):
        out = tmp_path / "wide"
        proc = run_cli(
            ["sweep", "profile", "--rules", "30", "--instances", "2", "--window", "256",
             "--transient", "16", "--n", "32", "--scales", "24", "--output-dir", str(out)],
            cli_env,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        rows = (out / "eca_profiles_instances.csv").read_text().splitlines()
        assert len(rows) == 3 and rows[1].startswith("eca_profiles,30,24,")

    def test_legacy_baseline_flag(self, tmp_path, cli_env):
        out = tmp_path / "inv2b"
        run_cli(
            ["sweep", "profile", "--rules", "0", "--instances", "1", "--window", "16",
             "--transient", "4", "--n", "8", "--scales", "4", "--h-baseline", "inv2b",
             "--output-dir", str(out)],
            cli_env,
        )
        assert (out / "eca_profiles_h_baseline.csv").read_text() == (
            "scale,h_baseline\n4,0.125\n"
        )

    def test_plot_scripts_render(self, tmp_path, cli_env):
        pytest.importorskip("matplotlib")
        for what, experiment in (("rbn", "rbn_sweep"), ("eca", "eca_survey"),
                                 ("profile", "eca_profiles")):
            out = tmp_path / what
            args = ["sweep", what, "--instances", "2", "--window", "32",
                    "--transient", "8", "--n", "16", "--scales", "1,2",
                    "--plot-script", "--output-dir", str(out)]
            if what == "rbn":
                args += ["--k-grid", "1,2"]
            else:
                args += ["--rules", "0,30"]
            assert run_cli(args, cli_env).returncode == 0
            render = subprocess.run(
                [sys.executable, str(out / f"plot_{experiment}.py")],
                capture_output=True, env=cli_env, timeout=300,
            )
            assert render.returncode == 0, render.stderr.decode()
            assert list(out.glob("*.png")), f"no images rendered for {what}"

    def test_scale_out_of_range_exits_2(self, tmp_path, cli_env):
        out = tmp_path / "none"
        proc = run_cli(["sweep", "eca", "--rules", "0", "--scales", "1,63",
                        "--output-dir", str(out)], cli_env)
        assert proc.returncode == 2
        assert b"scale must be in 1..62" in proc.stderr
        assert not out.exists()

    def test_table_budget_exits_2(self, tmp_path, cli_env):
        out = tmp_path / "none"
        proc = run_cli(["sweep", "rbn", "--k-grid", "1,35", "--output-dir", str(out)],
                       cli_env)
        assert proc.returncode == 2
        assert b"lookup tables per network" in proc.stderr
        assert not out.exists()

    def test_unwritable_output_dir_exits_2(self, cli_env):
        proc = run_cli(
            ["sweep", "eca", "--rules", "0", "--instances", "1", "--window", "16",
             "--transient", "4", "--n", "8", "--scales", "1",
             "--output-dir", "/proc/definitely/not/writable"],
            cli_env,
        )
        assert proc.returncode == 2


class TestMainEntry:
    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2

    def test_usage_error_from_argparse(self, cli_env):
        proc = run_cli(["eca"], cli_env)  # --rule is required
        assert proc.returncode == 2
