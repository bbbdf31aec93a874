import hashlib
import importlib.util
import inspect
import io
import json
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from infodyn import cli, rbn
from infodyn.cli import main
from infodyn.eca import EcaConfig, eca_step, rule_table
from infodyn.experiments import DEFAULT_K_GRID
from infodyn.measures import SymbolSequence, rescale, simplified_measures
from infodyn.rbn import RbnConfig
from infodyn.trajectory import Trajectory

REF_BITS = "00001000101000011100100011001000"
ROOT = Path(__file__).resolve().parents[1]


def exit_code(argv):
    """``main``'s exit code, also when argparse exits on a bad flag value."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def stub_sweep(monkeypatch, what):
    """Replace the library sweep behind ``sweep <what>``; returns the keyword
    arguments of each call, and the real sweep."""
    calls = []
    sweep, experiment, desk = cli.SWEEPS[what]
    monkeypatch.setitem(cli.SWEEPS, what, (lambda **kw: calls.append(kw) or [], experiment, desk))
    monkeypatch.delenv("INFODYN_THREADS", raising=False)
    return calls, sweep


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

    def test_node_budget_exits_2_before_anything_is_drawn(self, monkeypatch, capsys):
        # 2^27 nodes of in-degree 1 fit the table and record budgets, not the node budget
        monkeypatch.setattr(rbn, "_draw", lambda *args: pytest.fail("a network was drawn"))
        assert main(["rbn", "--n", "134217728", "--k", "1", "--transient", "0",
                     "--window", "2"]) == 2
        assert capsys.readouterr().err == (
            "error: 134,217,728 nodes of in-degree up to 1 need about 10,737,418,240 bytes"
            " to draw, check and look up, over the 1,073,741,824-byte limit\n")

    def test_a_huge_k_exits_2_before_any_table_is_sized(self, monkeypatch, capsys):
        # n << ceil(k) would build a 10^17-bit integer (a MemoryError, so exit
        # 1); ceil(k) is bounded first, so the refusal allocates nothing
        monkeypatch.setattr(rbn, "_draw", lambda *args: pytest.fail("a network was drawn"))
        assert main(["rbn", "--n", "1000000000000000000", "--k", "1e17", "--transient", "0",
                     "--window", "2"]) == 2
        assert capsys.readouterr().err == (
            "error: k=1e+17 needs n * 2^ceil(k) = 1,000,000,000,000,000,000"
            " * 2^100,000,000,000,000,000 bytes of lookup tables per network,"
            " over the 268,435,456-byte limit\n")

    def test_nan_k_exits_2_with_the_value(self, capsys):
        # nan passes every comparison-based check, so it used to reach the
        # table estimate's math.ceil
        assert main(["rbn", "--k", "nan"]) == 2
        assert "error: k must be >= 0 (got nan)" in capsys.readouterr().err

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

    def test_too_short_horizontal_warning_names_the_row(self, cli_env):
        # a horizontal series is one n-cell time slice, whatever the window
        proc = run_cli(["eca", "--rule", "30", "--n", "8", "--window", "100",
                        "--orientation", "horizontal", "--scales", "8"], cli_env)
        assert proc.returncode == 0
        assert proc.stdout.decode().splitlines()[1] == "8,,,,"
        assert b"scale 8: 8-cell row too short" in proc.stderr

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

    @pytest.mark.parametrize("redirect", [">", ">>"])
    @pytest.mark.parametrize("target", ["/dev/stdout", "/proc/self/fd/1"])
    def test_output_to_the_shells_file_keeps_its_lines(
        self, tmp_path, cli_env, redirect, target
    ):
        args = ["eca", "--rule", "30", "--n", "16", "--window", "8", "--transient", "0",
                "--scales", "1"]
        report = run_cli(args, cli_env).stdout.decode()
        log = tmp_path / "log"
        log.write_text("before\n")
        command = shlex.join([sys.executable, "-m", "infodyn", *args, "--output", target])
        script = f"(echo keep; {command}; echo after) {redirect} {shlex.quote(str(log))}"
        proc = subprocess.run(["sh", "-c", script], env=cli_env, capture_output=True,
                              timeout=600)
        assert proc.returncode == 0, proc.stderr.decode()
        before = "before\n" if redirect == ">>" else ""
        assert log.read_text() == before + "keep\n" + report + "after\n"

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
    def test_parse_then_serialize_is_canonical(self, tmp_path, monkeypatch):
        path = tmp_path / "scattered.txt"
        path.write_text(" 0 1\n0 1 ")
        # whitespace on both sides of every block boundary
        monkeypatch.setattr(cli, "_BLOCK", 3)
        with open(path) as fh:
            seq = SymbolSequence(np.concatenate(list(cli._bit_blocks(fh, "ascii01"))), 1)
        assert seq.to_bitstring() == "0101"
        # canonical form parses back to the identical sequence
        assert SymbolSequence.from_bits(seq.to_bitstring()) == seq


def markov_bits(size, seed):
    """Bits that flip with probability 0.3, so every scale sees many symbols."""
    flips = np.random.default_rng(seed).random(size) < 0.3
    return (np.cumsum(flips) & 1).astype(np.uint8)


def encode(bits, fmt, seed):
    """``bits`` in an input format, with whitespace and separators drawn at
    random, so they fall across block boundaries."""
    rng = np.random.default_rng(seed)
    if fmt == "raw":
        return np.packbits(bits).tobytes()
    if fmt == "ascii01":
        gaps = rng.choice(["", "", " ", "\n", "\t", "\r\n"], size=bits.size)
        return "".join(f"{b}{g}" for b, g in zip(bits, gaps)).encode()
    seps = rng.choice([",", ", ", "\n", " ,\t", ",\n"], size=bits.size)
    return (" " + "".join(f"{b}{s}" for b, s in zip(bits, seps))).encode()


def measure_in_process(monkeypatch, tmp_path, data, fmt, via, scales, extra=()):
    """``infodyn measure`` run through ``main``: (exit code, report rows as
    passed to the writer, or None when no report was written)."""
    captured = []
    monkeypatch.setattr(cli, "_emit_report", lambda rows, args: captured.append(rows))
    if via == "stdin":
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        source = "-"
    else:
        source = tmp_path / "input"
        source.write_bytes(data)
    code = main(["measure", str(source), "--input-format", fmt,
                 "--scales", ",".join(map(str, scales)), *extra])
    return code, captured[0] if captured else None


STREAM_SCALES = (1, 2, 4, 8, 12, 16)


class TestStreamedInput:
    @pytest.mark.parametrize("block", [1, 3, 7])
    @pytest.mark.parametrize("via", ["file", "stdin"])
    @pytest.mark.parametrize("fmt", ["raw", "ascii01", "csv"])
    def test_every_format_matches_the_in_memory_measure(
        self, tmp_path, monkeypatch, fmt, via, block
    ):
        bits = markov_bits(296 if fmt == "raw" else 301, seed=block)
        monkeypatch.setattr(cli, "_BLOCK", block)
        code, rows = measure_in_process(
            monkeypatch, tmp_path, encode(bits, fmt, seed=block), fmt, via, STREAM_SCALES
        )
        assert code == 0
        expected = []
        for b in STREAM_SCALES:
            ms = simplified_measures(rescale(SymbolSequence(bits, 1), b))
            expected.append({"scale": b, "I_b": ms.emergence, "E": ms.emergence,
                             "S": ms.self_organization, "C": ms.complexity})
        assert rows == expected

    def test_raw_groups_straddle_blocks(self, tmp_path, monkeypatch):
        # 5-byte blocks are 40 bits, so some 12- and 16-bit groups span two
        # blocks, and each scale carries a tail of its source scale's symbols
        bits = markov_bits(8 * 61, seed=3)
        scales = (16, 1, 12, 4, 8, 2)
        monkeypatch.setattr(cli, "_BLOCK", 5)
        code, rows = measure_in_process(
            monkeypatch, tmp_path, encode(bits, "raw", seed=0), "raw", "file", scales
        )
        assert code == 0
        expected = []
        for b in scales:
            ms = simplified_measures(rescale(SymbolSequence(bits, 1), b))
            expected.append({"scale": b, "I_b": ms.emergence, "E": ms.emergence,
                             "S": ms.self_organization, "C": ms.complexity})
        assert rows == expected

    def test_csv_token_split_across_chunks_is_not_a_bit(self, tmp_path, monkeypatch, capsys):
        # "0,1" | "0,1": the carried "1" and the next "0" are one token, 10
        monkeypatch.setattr(cli, "_BLOCK", 3)
        code, rows = measure_in_process(monkeypatch, tmp_path, b"0,10,1", "csv", "file", [1])
        assert (code, rows) == (2, None)
        assert "symbol CSV must contain only bits (0 or 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("block", [1, 2, 3, 1 << 17])
    @pytest.mark.parametrize("token", ["00", "01", "+1", "-0", "1_0", "\u0661", "0x1", "2", "/",
                                       "\u200b", "\U0001d7ce"])
    def test_a_csv_token_other_than_0_or_1_exits_2(self, monkeypatch, capsys, token, block):
        # blocks of 1 to 3 characters split the token and its neighbours
        monkeypatch.setattr(cli, "_BLOCK", block)
        monkeypatch.setattr(sys, "stdin", io.StringIO(f"1, {token}\n0"))
        assert main(["measure", "-", "--input-format", "csv", "--scales", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: symbol CSV must contain only bits (0 or 1)\n"

    @pytest.mark.parametrize("block", [1, 1 << 17])
    def test_an_endless_csv_token_is_refused_before_a_fourth_read(self, monkeypatch, block):
        # only one bool is carried between chunks, so a token longer than
        # one character is refused by the chunk that lengthens it
        class EndlessZeros:
            reads = 0

            def read(self, size):
                self.reads += 1
                if self.reads == 4:
                    pytest.fail("the csv reader asked for a 4th chunk of one token")
                return "0" * size

        monkeypatch.setattr(cli, "_BLOCK", block)
        with pytest.raises(ValueError, match=re.escape("symbol CSV must contain only bits")):
            list(cli._bit_blocks(EndlessZeros(), "csv"))

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_non_ascii_whitespace_separates_csv_tokens(self, monkeypatch, block):
        monkeypatch.setattr(cli, "_BLOCK", block)
        text = "1\x850\u20031\u3000\u3000,0\x85"
        bits = np.concatenate(list(cli._bit_blocks(io.StringIO(text), "csv")))
        assert bits.tolist() == [1, 0, 1, 0]

    @pytest.mark.parametrize("fmt, data", [
        ("ascii01", b"0101" * 50 + b"2"),
        ("csv", b"0,1," * 50 + b"2"),
        ("csv", b"0,1," * 50 + b"x"),
    ], ids=["ascii01-non-bit", "csv-non-bit", "csv-non-integer"])
    def test_an_error_in_a_late_block_writes_no_report(
        self, tmp_path, monkeypatch, capsys, fmt, data
    ):
        path, out = tmp_path / "input", tmp_path / "report.csv"
        path.write_bytes(data)
        monkeypatch.setattr(cli, "_BLOCK", 7)
        for output in ([], ["--output", str(out)]):
            assert main(["measure", str(path), "--input-format", fmt, *output]) == 2
            assert capsys.readouterr().out == ""
            assert not out.exists()

    @pytest.mark.parametrize("fmt, data", [
        ("ascii01", b" \n\t \r\n "), ("csv", b" ,\n, ,"), ("raw", b""),
    ], ids=["ascii01", "csv", "raw"])
    def test_empty_input_is_found_after_the_last_block(
        self, tmp_path, monkeypatch, capsys, fmt, data
    ):
        monkeypatch.setattr(cli, "_BLOCK", 1)
        code, rows = measure_in_process(monkeypatch, tmp_path, data, fmt, "stdin", [1])
        assert (code, rows) == (2, None)
        assert "empty input sequence" in capsys.readouterr().err

    def test_a_scale_longer_than_the_input_is_null(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_BLOCK", 1)
        code, rows = measure_in_process(monkeypatch, tmp_path, b"01\n01", "ascii01", "file",
                                        [1, 4, 8])
        assert code == 0
        assert [row["E"] is None for row in rows] == [False, False, True]
        assert "warning: scale 8: sequence too short" in capsys.readouterr().err

    def test_peak_memory_does_not_grow_with_input_length(self, tmp_path, capsys):
        # uniform bytes show every 12- and 16-bit symbol at both lengths, so
        # the running counts are as large as they get at these scales
        rng = np.random.default_rng(5)
        peaks = {}
        for mib in (8, 32):
            path = tmp_path / f"{mib}.bin"
            path.write_bytes(rng.bytes(mib << 20))
            tracemalloc.start()
            try:
                assert main(["measure", str(path), "--input-format", "raw",
                             "--scales", ",".join(map(str, STREAM_SCALES))]) == 0
                _, peaks[mib] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            path.unlink()
            capsys.readouterr()
        assert abs(peaks[32] - peaks[8]) <= max(0.1 * peaks[8], 1 << 20), peaks
        assert max(peaks.values()) < 16 << 20, peaks


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

    def test_profile_writes_baseline(self, tmp_path, cli_env):
        out = tmp_path / "profile"
        proc = run_cli(
            ["sweep", "profile", "--rules", "0", "--instances", "1", "--window", "16",
             "--transient", "4", "--n", "8", "--scales", "1,2", "--output-dir", str(out)],
            cli_env,
        )
        assert proc.returncode == 0
        assert (out / "eca_profiles_h_baseline.csv").read_text() == (
            "scale,h_baseline\n1,0.5\n2,0.25\n"
        )

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

    def test_k_grid_range_never_passes_its_stop(self, tmp_path, capsys):
        assert cli._parse_k_grid("1:2:0.6") == (1.0, 1.6)
        exact = cli._parse_k_grid("1:5:0.2")
        assert len(exact) == 21 and exact[-1] == 5.0 and exact == DEFAULT_K_GRID
        with pytest.raises(ValueError, match="bad K grid"):
            cli._parse_k_grid("1:inf:1")  # used to exit 1 on an OverflowError
        out = tmp_path / "grid"
        assert main(["sweep", "rbn", "--k-grid", "1:2:0.6", "--n", "6", "--instances", "1",
                     "--transient", "1", "--window", "4", "--scales", "1",
                     "--output-dir", str(out)]) == 0
        rows = (out / "rbn_sweep_instances.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["1", "1.6"]

    @pytest.mark.parametrize("what, flag, value, sweeps", [
        ("rbn", "--rules", "5", "sweep eca and sweep profile"),
        ("eca", "--k-grid", "1,2", "sweep rbn"),
        ("profile", "--k-grid", "1,2", "sweep rbn"),
        ("rbn", "--h-baseline", "inv2b", "sweep profile"),
        ("eca", "--h-baseline", "exact", "sweep profile"),
    ])
    def test_a_flag_of_another_sweep_exits_2(self, tmp_path, capsys, what, flag, value, sweeps):
        out = tmp_path / "none"
        assert main(["sweep", what, flag, value, "--output-dir", str(out)]) == 2
        assert f"error: {flag} applies only to {sweeps}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("what", ["rbn", "eca", "profile"])
    def test_the_paper_preset_passes_no_size(self, tmp_path, monkeypatch, what):
        calls, _ = stub_sweep(monkeypatch, what)
        argv = ["sweep", what, "--preset", "paper", "--seed", "3", "--output-dir", str(tmp_path)]
        assert main(argv) == 0
        assert calls == [{"master_seed": 3, "threads": 1}]

    @pytest.mark.parametrize("workload", ["rbn_desk", "eca_desk"])
    def test_the_desk_preset_is_the_benchmark_size(self, tmp_path, monkeypatch, workload):
        # the benchmark spells its sweep sizes out as flags and says they are
        # the desk preset's: resolve the preset against the library defaults
        spec = importlib.util.spec_from_file_location(
            "workloads", ROOT / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        job = workloads.WORKLOADS[workload].job
        calls, sweep = stub_sweep(monkeypatch, job.what)
        assert main(["sweep", job.what, "--preset", "desk", "--output-dir", str(tmp_path)]) == 0
        defaults = {name: p.default for name, p in inspect.signature(sweep).parameters.items()}
        sizes = {**defaults, **calls[0]}
        grid = sizes["k_grid" if job.what == "rbn" else "rules"]
        assert (sizes["n"], sizes["instances"], sizes["transient"], sizes["window"]) == (
            job.n, job.instances, job.transient, job.window)
        assert (tuple(sizes["scales"]), tuple(grid)) == (job.scales, job.grid)
        assert cli.SWEEPS[job.what][1] == job.experiment

    def test_h_baseline_reaches_the_profile_only_when_given(self, tmp_path, monkeypatch):
        calls, _ = stub_sweep(monkeypatch, "profile")
        for extra in ([], ["--h-baseline", "inv2b"]):
            assert main(["sweep", "profile", "--output-dir", str(tmp_path), *extra]) == 0
        assert [call.get("baseline_form") for call in calls] == [None, "inv2b"]

    @pytest.mark.parametrize("command", [
        ["sweep", "eca", "--rules", "0", "--instances", "1000000000000000"],
        ["sweep", "rbn", "--k-grid", "0:1e15:1"],
    ])
    def test_an_oversized_sweep_exits_2_before_its_grid_or_seeds(self, tmp_path, capsys, command):
        out = tmp_path / "none"
        assert main([*command, "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert re.search(r"error: [\d,]+ instance rows \(.+\), over the [\d,]+-row limit", err)
        assert not out.exists()

    @pytest.mark.parametrize("flag, env", [(["--threads", "0"], None), ([], "0"),
                                           (["--threads", "-2"], "4")])
    def test_threads_below_1_exit_2(self, tmp_path, monkeypatch, capsys, flag, env):
        if env is None:
            monkeypatch.delenv("INFODYN_THREADS", raising=False)
        else:
            monkeypatch.setenv("INFODYN_THREADS", env)
        out = tmp_path / "none"
        assert main(["sweep", "eca", "--rules", "0", "--instances", "1", "--n", "8",
                     "--transient", "0", "--window", "4", "--scales", "1", *flag,
                     "--output-dir", str(out)]) == 2
        assert "error: threads must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_scale_out_of_range_exits_2(self, tmp_path, cli_env):
        out = tmp_path / "none"
        proc = run_cli(["sweep", "eca", "--rules", "0", "--scales", "1,63",
                        "--output-dir", str(out)], cli_env)
        assert proc.returncode == 2
        assert b"scale must be in 1..62" in proc.stderr
        assert not out.exists()

    def test_window_too_short_for_a_scale_exits_2(self, tmp_path, cli_env):
        out = tmp_path / "none"
        proc = run_cli(["sweep", "rbn", "--window", "4", "--scales", "1,4",
                        "--output-dir", str(out)], cli_env)
        assert proc.returncode == 2
        assert b"window too short for scale 4" in proc.stderr
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


class TestSeedsAndRunSizes:
    @pytest.mark.parametrize("seed, message", [
        ("-1", "error: seed must be a 64-bit unsigned integer"),
        ("18446744073709551616", "error: seed must be a 64-bit unsigned integer"),
        ("2.5", "argument --seed: invalid int value: '2.5'"),
    ])
    @pytest.mark.parametrize("command", [
        ["rbn", "--n", "8", "--transient", "0", "--window", "4", "--scales", "1", "--output"],
        ["eca", "--rule", "30", "--n", "8", "--transient", "0", "--window", "4", "--scales", "1",
         "--output"],
        ["sweep", "eca", "--rules", "30", "--n", "8", "--instances", "1", "--transient", "0",
         "--window", "4", "--scales", "1", "--output-dir"],
    ], ids=["rbn", "eca", "sweep"])
    def test_a_seed_outside_64_bits_exits_2(self, tmp_path, capsys, command, seed, message):
        out = tmp_path / "none"
        assert exit_code([*command, str(out), "--seed", seed]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["rbn", "--window", "1000000000000000"],
        ["eca", "--rule", "30", "--n", "1000000000000"],
        ["eca", "--rule", "30", "--window", "3000000000", "--transient", "0"],
    ])
    def test_an_oversized_run_exits_2_with_its_estimate(self, capsys, command):
        assert main(command) == 2
        err = capsys.readouterr().err
        assert re.search(r"error: recording .+ needs [\d,]+ bytes, over the [\d,]+-byte limit", err)


class TestRepeatedListValues:
    SIZES = ["--n", "8", "--transient", "2", "--window", "16"]

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "rbn", "--k-grid", "1,1.0000000001"],
         "two grid values give the one cell rbn_sweep/k=1"),
        (["sweep", "rbn", "--k-grid", "2,2"], "two grid values give the one cell rbn_sweep/k=2"),
        (["sweep", "rbn", "--scales", "1,1"], "scales list '1,1' repeats 1"),
        (["sweep", "eca", "--rules", "30,30"], "rules list '30,30' repeats 30"),
        (["sweep", "profile", "--rules", "0,1,0"], "rules list '0,1,0' repeats 0"),
        (["sweep", "eca", "--scales", "2,1,2"], "scales list '2,1,2' repeats 2"),
        (["sweep", "rbn", "--k-grid", "0,-0.0"],
         "two grid values give the one cell rbn_sweep/k=0"),
    ])
    def test_a_sweep_exits_2_before_it_writes(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        argv = [*argv, *self.SIZES, "--instances", "2", "--output-dir", str(out)]
        assert exit_code(argv) == 2
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_a_negative_zero_k_is_written_as_k_0(self, tmp_path):
        out = tmp_path / "out"
        assert exit_code(["sweep", "rbn", "--k-grid=-0.0", *self.SIZES, "--instances", "2",
                          "--scales", "1", "--output-dir", str(out)]) == 0
        rows = (out / "rbn_sweep_instances.csv").read_text().splitlines()[1:]
        assert rows and all(row.split(",")[1] == "0" for row in rows)

    @pytest.mark.parametrize("command", [["measure"], ["rbn"], ["eca", "--rule", "30"]])
    def test_a_report_exits_2_before_it_writes(self, tmp_path, capsys, command):
        bits, out = tmp_path / "bits.txt", tmp_path / "report.csv"
        bits.write_text(REF_BITS)
        argv = [*command, *([str(bits)] if command == ["measure"] else self.SIZES)]
        assert exit_code([*argv, "--scales", "1,1", "--output", str(out)]) == 2
        assert "error: scales list '1,1' repeats 1\n" in capsys.readouterr().err
        assert not out.exists()


class TestSingleRunFlags:
    @pytest.mark.parametrize("argv, runner, config", [
        (["rbn"], "run_rbn", RbnConfig()),
        (["eca", "--rule", "110"], "run_eca", EcaConfig(rule=110)),
    ], ids=["rbn", "eca"])
    def test_no_size_flag_builds_the_default_config(self, monkeypatch, capsys, argv, runner,
                                                    config):
        built = []
        traj = Trajectory(np.zeros((8, 3), dtype=np.uint8))
        monkeypatch.setattr(cli, runner, lambda config: built.append(config) or traj)
        assert main([*argv, "--scales", "1"]) == 0
        assert built == [config]

    @pytest.mark.parametrize("argv, digest", [
        (["rbn"], "a457e71c5f7f74b0729d1893c2ccf786c8b84db7c808981d48731a7a500c4a63"),
        (["eca", "--rule", "110"],
         "311e5ec82b50b77d5e9f47c57e5cda7bd040c17fc879ceac0b63b2c11f53ce6c"),
    ], ids=["rbn", "eca"])
    def test_default_sizes_print_the_pinned_report(self, capsys, argv, digest):
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv", [
        ["measure", "--seed", "1"], ["rbn", "--threads", "2"],
        ["eca", "--rule", "30", "--threads", "2"],
    ], ids=["measure-seed", "rbn-threads", "eca-threads"])
    def test_a_flag_the_command_would_ignore_exits_2(self, capsys, argv):
        assert exit_code(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "measure"])
    def test_the_threads_help_claims_no_speed_limit(self, capsys, command):
        # threads did shorten a desk ECA sweep on 2 cores, so the help no
        # longer says they do not
        assert exit_code([command, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "they never change results" in text
        assert "do not shorten a sweep yet" not in text

    def test_measure_still_accepts_threads(self, tmp_path, capsys):
        path = tmp_path / "bits.txt"
        path.write_text(REF_BITS)
        assert main(["measure", str(path), "--threads", "1"]) == 0

    @pytest.mark.parametrize("flag, env", [(["--threads", "0"], None), ([], "0"),
                                           (["--threads", "-5"], "4")])
    def test_measure_threads_below_1_exit_2(self, tmp_path, monkeypatch, capsys, flag, env):
        if env is None:
            monkeypatch.delenv("INFODYN_THREADS", raising=False)
        else:
            monkeypatch.setenv("INFODYN_THREADS", env)
        path = tmp_path / "bits.txt"
        path.write_text(REF_BITS)
        assert main(["measure", str(path), *flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        got = flag[1] if flag else env
        assert f"error: threads must be >= 1 (got {got})" in captured.err


class TestMainEntry:
    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2

    def test_usage_error_from_argparse(self, cli_env):
        proc = run_cli(["eca"], cli_env)  # --rule is required
        assert proc.returncode == 2
