import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kakimizu import fibred
from kakimizu.cli import MAX_EXPAND_ENTRIES, main
from kakimizu.errors import InputError
from kakimizu.pipeline import load_table, load_theta_file, run_batch
from kakimizu.thetagraph import Edge, PlanarMultigraph
from kakimizu.twobridge import DEFAULT_MAX_BANDS

from randgraphs import cycle_text, necklace_text

SRC = Path(__file__).resolve().parent.parent / "src"


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

    def test_fraction_too_long_to_read(self, capsys):
        code, _, err = run(capsys, "expand", "1/" + "1" * 5000)
        assert code == 2
        assert err.startswith("error:")

    def test_long_expansion_refused_at_once(self):
        # 1/999999999999 expands to about 10^12 entries
        began = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "kakimizu", "expand", "1/999999999999"],
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=60)
        assert time.perf_counter() - began < 5
        assert proc.returncode == 2
        assert f"more than {MAX_EXPAND_ENTRIES} bands" in proc.stderr
        assert "Traceback" not in proc.stderr


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

    def test_long_expansion_refused_at_once(self, capsys):
        # 1/q expands into q - 1 bands; the expansion stops past the cap
        began = time.perf_counter()
        code, _, err = run(capsys, "two-bridge", "1/999999999999")
        assert time.perf_counter() - began < 5
        assert code == 2
        assert f"limit is {DEFAULT_MAX_BANDS}" in err


class TestTheta:
    def test_fixture(self, capsys, data_dir):
        code, out, _ = run(capsys, "theta", str(data_dir / "theta_11_94.txt"))
        assert code == 0
        assert "simplex(1)" in out

    def test_explicit_weights(self, capsys, data_dir):
        # the build starts from the theta graph's own weights
        code, out, _ = run(capsys, "theta", str(data_dir / "theta_11_237.txt"), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["vertices"] == ["(0,0,1)", "(0,1,0)", "(1,0,0)"]

    def test_weighted_file_refused(self, capsys, tmp_path):
        # a graph file is a Seifert graph, one edge per crossing; a file of
        # weights 0,0 once passed as a theta graph and printed a point
        for weights, eid in (((0, 0), 1), ((1, 0, 0), 2)):
            ids = [str(k) for k in range(1, len(weights) + 1)]
            path = tmp_path / "weighted.txt"
            path.write_text("vertex u\nvertex v\n" + "".join(
                f"edge {k} u v weight={w}\n" for k, w in zip(ids, weights))
                + f"rot u {' '.join(ids)}\nrot v {' '.join(reversed(ids))}\n", encoding="utf-8")
            message = f"Seifert graph edge {eid} has weight 0: weights must be 1"
            code, out, err = run(capsys, "theta", str(path))
            assert (code, out, err) == (2, "", f"error: {message}\n")
            table = tmp_path / "t.csv"
            table.write_text("name,class,params,expected\n"
                             "k1,fibred,,point\nk2,special_alternating,weighted.txt,point\n",
                             encoding="utf-8")
            code, out, _ = run(capsys, "batch", str(table))
            rows = {line.split()[0]: line for line in out.splitlines()[1:]}
            assert code == 1 and "yes" in rows["k1"]
            assert "ERR" in rows["k2"] and message in rows["k2"]

    @pytest.mark.parametrize("weight", ["0", "2", "-1", "+1", "01", "1_0", "abc", "\u0663",
                                        "-\u0663", "\uff11", pytest.param("", id="empty")])
    def test_weight_other_than_one_refused(self, capsys, tmp_path, weight):
        # the reader takes weight=1 or refuses the text with one message,
        # where -1, +1 and abc once failed in three other ways and 01 read as 1
        text = ("vertex u\nvertex v\nedge 1 u v\n"
                f"edge 2 u v weight={weight}\nrot u 1 2\nrot v 2 1\n")
        message = f"Seifert graph edge 2 has weight {weight}: weights must be 1"
        with pytest.raises(InputError) as exc:
            PlanarMultigraph.from_text(text)
        assert str(exc.value) == message
        (tmp_path / "g.txt").write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "theta", str(tmp_path / "g.txt"))
        assert (code, out, err) == (2, "", f"error: {message}\n")
        table = tmp_path / "t.csv"
        table.write_text("name,class,params,expected\nk1,special_alternating,g.txt,point\n",
                         encoding="utf-8")
        code, out, _ = run(capsys, "batch", str(table))
        row = out.splitlines()[1]
        assert code == 1 and "ERR" in row and message in row

    def test_start_weights_are_no_option(self, data_dir):
        # a start that is no surface of the knot gives a wrong complex, so
        # the build has no option to choose its start
        proc = subprocess.run([sys.executable, "-m", "kakimizu", "theta",
                               str(data_dir / "theta_11_94.txt"), "--weights", "0,0"],
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "error: unrecognized arguments: --weights 0,0" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_non_ascii_digit_edge_id(self, tmp_path):
        # '²' passes str.isdigit() but int() rejects it
        path = tmp_path / "g.txt"
        path.write_text("vertex a\nvertex b\nedge \u00b2 a b\nedge 1 a b\n"
                        "rot a \u00b2 1\nrot b 1 \u00b2\n", encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "kakimizu.cli", "theta", str(path)],
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=60)
        assert "Traceback" not in proc.stderr
        assert proc.returncode in (0, 1, 2)

    def test_edge_id_too_long_for_int(self, tmp_path):
        # int() refuses decimal strings of more than 4 300 digits
        big = "7" * 5000
        path = tmp_path / "g.txt"
        path.write_text(f"vertex a\nvertex b\nedge {big} a b\nedge 1 a b\n"
                        f"rot a {big} 1\nrot b 1 {big}\n")
        proc = subprocess.run([sys.executable, "-m", "kakimizu.cli", "theta", str(path)],
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=60)
        assert "Traceback" not in proc.stderr
        assert proc.returncode in (0, 1, 2)

    def test_long_cycle_refused_at_once(self, tmp_path):
        # searching its two faces of 4 000 sides pair by pair took 7.9 s
        path = tmp_path / "cycle.txt"
        path.write_text(cycle_text(4000))
        began = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "kakimizu", "theta", str(path)],
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=60)
        assert time.perf_counter() - began < 5
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "unique surface" in proc.stderr

    @pytest.mark.parametrize("attrs", [
        pytest.param("dir=", id=""), pytest.param("dir=+-", id="+-"),
        pytest.param("weight=1 weight=5", id="weight_twice"),
        pytest.param("dir=+ dir=-", id="dir_twice")])
    def test_direction_is_one_sign(self, capsys, tmp_path, attrs):
        # a substring test once read dir= and dir=+- as dir=-, and a
        # repeated attribute was once read as its last value
        text = (f"vertex a\nvertex b\nedge 1 a b\nedge 2 a b {attrs}\n"
                "rot a 1 2\nrot b 2 1\n")
        with pytest.raises(InputError, match="bad edge attributes on 2"):
            PlanarMultigraph.from_text(text)
        path = tmp_path / "g.txt"
        path.write_text(text)
        code, _, err = run(capsys, "theta", str(path))
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("text", [
        "vertex u\nvertex v\nedge a:1 u v\nedge 1 u v\nrot u a:1 1\nrot v 1 a:1\n",
        "vertex u\nvertex v\nedge a u v\nedge a:1 u v\nrot u a a:1\nrot v a:1 a\n",
    ], ids=["colon_id", "colon_id_beside_its_prefix"])
    def test_edge_id_with_colon_parses(self, tmp_path, text):
        # an end is its edge id, so ':' is an ordinary character in an id:
        # the file runs like the same file with a:1 renamed to b
        g = PlanarMultigraph.from_text(text)
        assert ("a:1", 0) in g.rotation["u"] and ("a:1", 1) in g.rotation["v"]
        outcomes = []
        for name, body in (("colon", text), ("plain", text.replace("a:1", "b"))):
            path = tmp_path / f"{name}.txt"
            path.write_text(body, encoding="utf-8")
            proc = subprocess.run([sys.executable, "-m", "kakimizu", "theta", str(path)],
                                  env=dict(os.environ, PYTHONPATH=str(SRC)),
                                  capture_output=True, text=True, timeout=60)
            assert "Traceback" not in proc.stderr
            outcomes.append((proc.returncode, proc.stdout, proc.stderr))
        assert outcomes[0] == outcomes[1]

    def test_loop_refused_at_every_entry_point(self, tmp_path):
        # a crossing joins two different Seifert circles, so every way in
        # refuses a loop with one message that names it
        message = "edge l is a loop: a crossing joins two different Seifert circles"
        text = "vertex u\nvertex v\nedge 1 u v\nedge 2 u v\nedge l u u\nrot u 1 l l 2\nrot v 2 1\n"
        edges = {"1": Edge("u", "v", 1, 1), "2": Edge("u", "v", 1, 1), "l": Edge("u", "u", 1, 1)}
        rotation = {"u": [("1", 0), ("l", 0), ("l", 1), ("2", 0)], "v": [("2", 1), ("1", 1)]}
        (tmp_path / "looped.txt").write_text(text, encoding="utf-8")
        for build in (lambda: PlanarMultigraph.from_text(text),
                      lambda: PlanarMultigraph(["u", "v"], edges, rotation),
                      lambda: load_theta_file(tmp_path / "looped.txt")):
            with pytest.raises(InputError) as err:
                build()
            assert str(err.value) == message
        for flags in ([], ["-O"]):
            proc = subprocess.run([sys.executable, *flags, "-m", "kakimizu", "theta",
                                   str(tmp_path / "looped.txt")],
                                  env=dict(os.environ, PYTHONPATH=str(SRC)),
                                  capture_output=True, text=True, timeout=60)
            assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")
        table = tmp_path / "table.csv"
        table.write_text("name,class,params,expected\nlooped,special_alternating,looped.txt,point\n",
                         encoding="utf-8")
        (row,) = run_batch(load_table(table))
        assert row.error == message

    def test_connected_sum_refused(self, capsys, tmp_path):
        # a path of three double edges: a cut vertex, so not prime
        path = tmp_path / "sum.txt"
        path.write_text(necklace_text([2, 2, 2]))
        code, _, err = run(capsys, "theta", str(path))
        assert code == 2
        assert "cut vertex" in err


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

    @pytest.mark.parametrize("text", ["v=1; edges=(0,0)(0,0)",
                                      "v=3; edges=(0,1)(0,1)(1,2)(1,2)"])
    def test_certificate_replayed_before_report(self, capsys, tmp_path, monkeypatch, text):
        path = tmp_path / "g.txt"
        path.write_text(text)
        search = fibred.reduction_certificate
        monkeypatch.setattr(fibred, "reduction_certificate", lambda g: search(g)[:-1])
        code, out, err = run(capsys, "fibred", "--graph", str(path), "--certificate")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "fibred", "--graph", "nope.txt")
        assert code == 2

    def test_bouquet_deeper_than_recursion_limit(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("v=1; edges=" + "(0,0)" * 1500)
        code, out, _ = run(capsys, "fibred", "--graph", str(path))
        assert code == 0
        assert out.strip() == "fibred"

    def test_number_too_long_to_read(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("v=" + "1" * 5000 + "; edges=(0,0)")
        code, _, err = run(capsys, "fibred", "--graph", str(path))
        assert code == 2
        assert err.startswith("error:")

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

    def test_unreadable_graph_file_is_a_row_error(self, capsys, data_dir, tmp_path):
        # the row naming a non-UTF-8 graph file fails alone; the rows around
        # it are computed and reported
        (tmp_path / "bad.txt").write_bytes(b"vertex a\xff\n")
        table = tmp_path / "t.csv"
        table.write_text("name,class,params,expected\n"
                         "k1,fibred,,point\n"
                         "k2,special_alternating,bad.txt,\n"
                         f"k3,special_alternating,{data_dir / 'theta_11_94.txt'},simplex(1)\n")
        report = tmp_path / "report.json"
        code, out, _ = run(capsys, "batch", str(table), "--out", str(report))
        assert code == 1
        rows = {line.split()[0]: line for line in out.splitlines()[1:]}
        assert set(rows) == {"k1", "k2", "k3"}
        assert "ERR" in rows["k2"] and "cannot read graph file" in rows["k2"]
        assert "yes" in rows["k1"] and "yes" in rows["k3"]
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert payload["totals"] == {"records": 3, "errors": 1, "matched": 2, "mismatched": 0}

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

    def test_oversized_shape_literal_refused_at_once(self, tmp_path):
        # the representative of simplex(100000000) would need 10^8 labels
        table = tmp_path / "t.csv"
        table.write_text("name,class,params,expected\nk,table_expected,simplex(100000000),\n")
        began = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "kakimizu", "batch", str(table)],
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=60)
        assert time.perf_counter() - began < 2
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "ERR" in proc.stdout
        # the summary line carries the whole message, reason included
        assert "'simplex(100000000)' has more than 1000 vertices" in proc.stdout

    def test_field_over_csv_limit_exits_two(self, tmp_path):
        # csv refuses a field over 131 072 characters, a band list of about
        # 65 000 entries; the limit is process-wide, so it stays as it is
        table = tmp_path / "t.csv"
        table.write_text(f'name,class,params,expected\nk,two_bridge,"{"2" * 200_000}",point\n')
        proc = subprocess.run([sys.executable, "-m", "kakimizu", "batch", str(table)],
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error: {table}:2: field larger than field limit")

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
    what = "table" if command == ["batch"] else "graph file"
    assert err.startswith(f"error: cannot read {what} {path}:")
    assert "Traceback" not in err


class TestByteOrderMark:
    """A file may start with a UTF-8 byte-order mark and reads as the same
    file without it; a U+FEFF anywhere else, a second one at the start
    included, stays an error."""

    @staticmethod
    def outcomes(capsys, tmp_path, text, argv, report=False):
        """(exit code, stdout, stderr, report bytes or None where none was
        written) of `argv` on `text` after each prefix: none, one mark, two
        marks."""
        found = []
        for i, prefix in enumerate(("", "\ufeff", "\ufeff\ufeff")):
            path = tmp_path / str(i) / "input.txt"
            path.parent.mkdir()
            path.write_text(prefix + text, encoding="utf-8")
            out_path = path.parent / "report.json"
            extra = ["--out", str(out_path)] if report else []
            code, out, err = run(capsys, *argv, str(path), *extra)
            found.append((code, out, err, out_path.read_bytes() if out_path.exists() else None))
        return found

    def test_table(self, capsys, data_dir, tmp_path):
        text = (data_dir / "knots11.csv").read_text(encoding="utf-8")
        plain, marked, doubled = self.outcomes(capsys, tmp_path, text, ["batch"], report=True)
        assert plain[0] == 0
        # the summary lines carry timings, so only the report is compared
        assert marked[0] == plain[0] and marked[3] == plain[3]
        assert doubled[0] == 2 and doubled[3] is None
        assert "unknown shape literal 'expected'" in doubled[2]
        mid = tmp_path / "mid.csv"
        mid.write_text("name,class,params,expected\nk,fibred,,\ufeffpoint\n", encoding="utf-8")
        code, _, err = run(capsys, "batch", str(mid))
        assert code == 2 and "unknown shape literal '\\ufeffpoint'" in err

    def test_graph_file(self, capsys, data_dir, tmp_path):
        text = (data_dir / "theta_11_94.txt").read_text(encoding="utf-8")
        plain, marked, doubled = self.outcomes(capsys, tmp_path, text, ["theta", "--json"])
        assert plain[0] == 0 and marked == plain
        assert doubled[0] == 2 and "unknown directive '\\ufeff" in doubled[2]
        mid = tmp_path / "mid.txt"
        mid.write_text(text.replace("\nvertex", "\n\ufeffvertex", 1), encoding="utf-8")
        code, _, err = run(capsys, "theta", str(mid))
        assert code == 2 and "unknown directive '\\ufeffvertex'" in err

    def test_reduction_graph(self, capsys, tmp_path):
        text = "v=3; edges=(0,1)(0,1)(1,2)(1,2)\n"
        plain, marked, doubled = self.outcomes(capsys, tmp_path, text,
                                               ["fibred", "--certificate", "--graph"])
        assert plain[0] == 0 and plain[1].startswith("fibred\n") and marked == plain
        assert doubled[0] == 2 and "cannot parse graph literal '\\ufeffv=3" in doubled[2]
        mid = tmp_path / "mid.txt"
        mid.write_text(text.replace("edges", "\ufeffedges"), encoding="utf-8")
        code, _, err = run(capsys, "fibred", "--graph", str(mid))
        assert code == 2 and err.startswith("error: cannot parse graph literal")


@pytest.mark.parametrize("option", ["--max-bands", "--max-vertices"])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_cap_below_one_is_a_usage_error(capsys, data_dir, option, value):
    with pytest.raises(SystemExit) as exc:
        main([option, value, "theta", str(data_dir / "theta_11_94.txt")])
    assert exc.value.code == 2
    assert f"argument {option}: must be at least 1, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1_0", "+1", "\u0661", "\uff11"])
def test_option_numbers_are_ascii_digits(capsys, data_dir, value):
    # int() reads every one of these
    fixture = str(data_dir / "theta_11_94.txt")
    for option in ("--max-bands", "--max-vertices"):
        with pytest.raises(SystemExit) as exc:
            main([option, value, "theta", fixture])
        assert exc.value.code == 2
        assert f"argument {option}: invalid int value: {value!r}" in capsys.readouterr().err


def test_module_entry_point_subprocess():
    proc = subprocess.run([sys.executable, "-m", "kakimizu.cli", "expand", "28/61"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "[2,-6,-2,2]"


def test_package_runs_as_module():
    proc = subprocess.run([sys.executable, "-m", "kakimizu", "expand", "28/61"],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[2,-6,-2,2]"


def test_every_file_is_read_and_written_as_utf8(tmp_path, data_dir):
    # an open() that falls back on the locale's encoding raises here: a
    # table with graph files beside it, a graph file, and a reduction
    # graph whose certificate, one move per loop, is printed in full
    report = tmp_path / "report.json"
    bouquet = tmp_path / "bouquet.txt"
    bouquet.write_text("v=1; edges=" + "(0,0)" * 5000, encoding="utf-8")
    outputs = []
    for argv in (["batch", str(data_dir / "knots11_mixed.csv"), "--out", str(report)],
                 ["theta", str(data_dir / "theta_11_94.txt"), "--json"],
                 ["fibred", "--graph", str(bouquet), "--certificate"]):
        proc = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                               "-W", "error::EncodingWarning", "-m", "kakimizu", *argv],
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, ""), argv
        outputs.append(proc.stdout)
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "f67e27683230cdc1ed58c5137c181184d53a507354ab56374ed26fe02f6dc565")
    assert json.loads(outputs[1])["maximal_simplices"]
    assert outputs[2].startswith("fibred\n") and len(outputs[2].splitlines()) == 5001


# ------------------------------------------------------------------ fuzz
# Draws stay small: denominators of at most four digits (the expansion of
# 1/q has q - 1 bands), band chains under a --max-bands of 4, theta searches
# under a --max-vertices of 50.

_short_text = st.text(alphabet="0123456789/-[],() =;:vedgsx\n", max_size=6)
_fraction = st.one_of(
    st.integers(0, 2000).flatmap(
        lambda q: st.builds("{}/{}".format, st.integers(-q - 1, q + 1), st.just(q))),
    _short_text)
_band_list = st.builds(lambda es: "[" + ",".join(map(str, es)) + "]",
                       st.lists(st.integers(-6, 6), max_size=6))


@st.composite
def _graph_literal(draw):
    # a spanning tree plus extra edges, sometimes one label past the range
    n = draw(st.integers(1, 5))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    label = st.integers(0, n - 1) | st.integers(0, n)
    pairs += draw(st.lists(st.tuples(label, label), max_size=6))
    return f"v={n}; edges=" + "".join(f"({a},{b})" for a, b in pairs)


@st.composite
def _theta_file(draw):
    # mostly Seifert graphs: weight 1, oriented from {a, c} to {b, d}
    edges = draw(st.lists(st.tuples(st.sampled_from("ac"), st.sampled_from("bd"),
                                    st.sampled_from(["1"] * 5 + ["0", "2", "-1", "+1", "abc"]),
                                    st.sampled_from("++-")),
                          min_size=1, max_size=5))
    names = sorted({end for u, v, _, _ in edges for end in (u, v)})
    lines = [f"vertex {v}" for v in names]
    darts = {v: [] for v in names}
    for k, (u, v, weight, sign) in enumerate(edges, start=1):
        lines.append(f"edge {k} {u} {v} weight={weight} dir={sign}")
        darts[u].append(str(k))
        darts[v].append(str(k))
    for v in names:
        lines.append(" ".join(["rot", v] + draw(st.permutations(darts[v]))))
    return "\n".join(lines) + "\n"


# bundles of parallel edges in a path: cut vertices and bridges
_necklace_file = st.lists(st.integers(1, 3), min_size=1, max_size=4).map(necklace_text)

_table = st.builds(
    lambda rows: "name,class,params,expected\n" + "".join(
        f"k{i},{klass},\"{params}\",{expected}\n" for i, (klass, params, expected) in enumerate(rows)),
    st.lists(st.tuples(
        st.sampled_from(["fibred", "two_bridge", "table_expected", "unique_base_plus_fibred",
                         "plumbing_unique_pair", "special_alternating", "nope"]),
        st.one_of(_fraction, _band_list, st.sampled_from(
            ["-", "point", "base_unique=1;fibred_summands=2", "A1=1;A1p=0;A2=1;A2p=1",
             "missing.txt"])),
        st.sampled_from(["", "point", "path(2)", "simplex(1)", "blob"])), max_size=3))

_invocation = st.one_of(
    st.tuples(st.just(["expand", "--"]), _fraction),
    st.tuples(st.sampled_from([["--max-bands", "4", "two-bridge", "--"],
                               ["--max-bands", "4", "two-bridge", "--json", "--"],
                               ["--max-bands", "4", "two-bridge", "--dot", "--"]]),
              st.one_of(_fraction, _band_list)),
    st.tuples(st.sampled_from([["fibred", "--graph"], ["fibred", "--certificate", "--graph"]]),
              st.one_of(_graph_literal(), _short_text).map(lambda text: ("file", text))),
    st.tuples(st.sampled_from([["--max-vertices", "50", "theta"],
                               ["--max-vertices", "50", "theta", "--json"]]),
              st.one_of(_theta_file(), _short_text, _necklace_file)
              .map(lambda text: ("file", text))),
    st.tuples(st.just(["--max-bands", "4", "batch"]),
              _table.map(lambda text: ("file", text))),
    st.tuples(st.sampled_from([["fibred", "--graph"], ["theta"], ["batch"]]),
              st.just(("dir", None))),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_invocation)
def test_cli_never_prints_a_traceback(invocation):
    prefix, arg = invocation
    with tempfile.TemporaryDirectory() as tmp:
        if isinstance(arg, tuple):
            kind, text = arg
            if kind == "file":
                arg = os.path.join(tmp, "input.txt")
                Path(arg).write_text(text)
            else:
                arg = tmp
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(prefix + [arg])
            except SystemExit as exc:   # argparse refuses the command line
                code = exc.code
    assert code in (0, 1, 2), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
