import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from kakimizu.cli import main
from kakimizu.twobridge import DEFAULT_MAX_BANDS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExpand:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "expand", "28/61")
        assert code == 0
        assert out.strip() == "[2,-6,-2,2]"

    def test_normalises_first(self, capsys):
        code, out, _ = run(capsys, "expand", "33/73")
        assert code == 0
        assert out.strip() == "[-2,-6,-4,-2]"

    def test_shifted_form_accepted(self, capsys):
        code, out, _ = run(capsys, "expand", "--", "-40/73")
        assert code == 0
        assert out.strip() == "[-2,-6,-4,-2]"

    def test_bad_fraction(self, capsys):
        code, _, err = run(capsys, "expand", "2/4")
        assert code == 2
        assert "error" in err


class TestTwoBridge:
    def test_summary(self, capsys):
        code, out, _ = run(capsys, "two-bridge", "33/73")
        assert code == 0
        assert "simplex(1)" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "two-bridge", "[-8,-4]", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["vertices"] == ["(0)", "(1)"]

    def test_dot(self, capsys):
        code, out, _ = run(capsys, "two-bridge", "28/61", "--dot")
        assert code == 0
        assert out.startswith("graph kakimizu {")

    def test_max_bands(self, capsys):
        code, _, err = run(capsys, "--max-bands", "2", "two-bridge", "[2,-6,-2,2]")
        assert code == 2
        assert "limit" in err


class TestTheta:
    def test_fixture(self, capsys, data_dir):
        code, out, _ = run(capsys, "theta", str(data_dir / "theta_11_94.txt"))
        assert code == 0
        assert "simplex(1)" in out

    def test_explicit_weights(self, capsys, data_dir):
        code, out, _ = run(capsys, "theta", str(data_dir / "theta_11_237.txt"),
                           "--weights", "0,1,0", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["vertices"] == ["(0,0,1)", "(0,1,0)", "(1,0,0)"]

    def test_non_ascii_digit_edge_id(self, tmp_path):
        # '²' passes str.isdigit() but int() rejects it
        path = tmp_path / "g.txt"
        path.write_text("vertex a\nvertex b\nedge \u00b2 a b\nedge 1 a b\n"
                        "rot a \u00b2 1\nrot b 1 \u00b2\n", encoding="utf-8")
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run([sys.executable, "-m", "kakimizu.cli", "theta", str(path)],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=60)
        assert "Traceback" not in proc.stderr
        assert proc.returncode in (0, 1, 2)

    def test_wrong_weight_count(self, capsys, data_dir):
        code, _, err = run(capsys, "theta", str(data_dir / "theta_11_94.txt"),
                           "--weights", "1,0,0")
        assert code == 2
        assert "expected 2 weights" in err


class TestFibred:
    def test_not_fibred(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("v=2; edges=(0,1)(0,1)(0,1)")
        code, out, _ = run(capsys, "fibred", "--graph", str(path))
        assert code == 0
        assert out.strip() == "not fibred"

    def test_fibred_with_certificate(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("v=1; edges=(0,0)(0,0)")
        code, out, _ = run(capsys, "fibred", "--graph", str(path), "--certificate")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "fibred"
        assert len(lines) == 3

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "fibred", "--graph", "nope.txt")
        assert code == 2

    def test_bouquet_deeper_than_recursion_limit(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("v=1; edges=" + "(0,0)" * 1500)
        code, out, _ = run(capsys, "fibred", "--graph", str(path))
        assert code == 0
        assert out.strip() == "fibred"

    def test_oversized_vertex_count(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("v=1000000000; edges=(0,0)")
        code, _, err = run(capsys, "fibred", "--graph", str(path))
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err


class TestBatch:
    def test_shipped_table_exits_zero(self, capsys, data_dir, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "batch", str(data_dir / "knots11.csv"),
                           "--out", str(out_path))
        assert code == 0
        assert out_path.exists()
        payload = json.loads(out_path.read_text())
        assert payload["totals"]["mismatched"] == 0

    def test_mismatch_exits_one(self, capsys, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text("name,class,params,expected\nk,two_bridge,28/61,path(3)\n")
        code, out, _ = run(capsys, "batch", str(table))
        assert code == 1
        assert "NO" in out

    def test_row_error_exits_one(self, capsys, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text("name,class,params,expected\nk,two_bridge,5/3,point\n")
        code, out, _ = run(capsys, "batch", str(table))
        assert code == 1
        assert "ERR" in out

    def test_chain_over_default_cap_refused_at_once(self, capsys, tmp_path):
        # an 11-band alternating chain would take minutes to build
        bands = ",".join(["-2", "-4"] * 5 + ["-2"])
        table = tmp_path / "t.csv"
        table.write_text(f'name,class,params,expected\nk,two_bridge,"[{bands}]",point\n')
        began = time.perf_counter()
        code, out, _ = run(capsys, "batch", str(table))
        assert time.perf_counter() - began < 5
        assert code == 1
        assert f"chain has 11 bands, limit is {DEFAULT_MAX_BANDS}" in out

    def test_malformed_table_exits_two(self, capsys, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text("name,class,params,expected\nk,fibred,-\n")
        code, _, err = run(capsys, "batch", str(table))
        assert code == 2
        assert "error" in err


@pytest.mark.parametrize("command", [["fibred", "--graph"], ["theta"], ["batch"]])
def test_non_utf8_file_exits_two(capsys, tmp_path, command):
    path = tmp_path / "input.txt"
    path.write_bytes(b"\xff\xfe\x00")
    code, _, err = run(capsys, *command, str(path))
    assert code == 2
    assert err.startswith("error:")


def test_module_entry_point_subprocess():
    proc = subprocess.run([sys.executable, "-m", "kakimizu.cli", "expand", "28/61"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "[2,-6,-2,2]"
