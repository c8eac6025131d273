import hashlib
import json
import time
from pathlib import Path

import pytest

from kakimizu import complexes, pipeline, thetagraph
from kakimizu.complexes import ComplexShape, recognize
from kakimizu.errors import InputError
from kakimizu.pipeline import (KnotRecord, classify_and_compute,
                               load_table, load_theta_file, plumbing_theorem_complex,
                               report_payload, run_batch, strip_fibred_summands,
                               summary_table, write_report)


class TestMarkingFlags:
    def test_parse(self):
        c = plumbing_theorem_complex("A1=1;A1p=0;A2=0;A2p=0")
        assert str(recognize(c)) == "path(3)"

    @pytest.mark.parametrize("bad", ["A1=2", "B1=0", "A1"])
    def test_rejects(self, bad):
        with pytest.raises(InputError):
            plumbing_theorem_complex(bad)


class TestRules:
    def test_no_disks_gives_edge(self):
        for params in ("A1=0;A1p=0;A2=0;A2p=0", ""):
            c = plumbing_theorem_complex(params)
            assert str(recognize(c)) == "simplex(1)"
            assert c.vertices == {"[S]", "[S^c]"}

    def test_disk_at_first_marking_gives_path(self):
        c = plumbing_theorem_complex("A1=1")
        assert str(recognize(c)) == "path(3)"
        assert c.vertices == {"[S^c]", "[S]", "[T^c]"}

    @pytest.mark.parametrize("flags", [("A2",), ("A1", "A2"), ("A1p",)])
    def test_other_combinations_rejected(self, flags):
        # the refusal names the flagged disks
        with pytest.raises(InputError, match=f"product disks at {', '.join(flags)}$"):
            plumbing_theorem_complex(";".join(f"{key}=1" for key in flags))

    def test_strip_summands(self):
        c = strip_fibred_summands("base_unique=1;fibred_summands=2")
        assert str(recognize(c)) == "point"

    def test_strip_no_summands(self):
        c = strip_fibred_summands("base_unique=1;fibred_summands=0")
        assert str(recognize(c)) == "point"

    def test_strip_needs_unique_base(self):
        with pytest.raises(InputError, match="unique surface"):
            strip_fibred_summands("base_unique=0;fibred_summands=1")

    @pytest.mark.parametrize("bad", ["base_unique=2;fibred_summands=1", "fibred_summands=1",
                                     "base_unique=1", "base_unique=1;fibred_summands=x",
                                     "base_unique=1;fibred_summands=-1",
                                     "base_unique=1;fibred_summands=1;extra=1"])
    def test_strip_rejects(self, bad):
        with pytest.raises(InputError):
            strip_fibred_summands(bad)

    @pytest.mark.parametrize("count", ["1_000", "+1", "\u0661", " 1", "1 0", ""])
    def test_summand_count_is_ascii_digits(self, count):
        # int() reads all but the last two of these
        with pytest.raises(InputError, match="^fibred_summands must be an integer$"):
            strip_fibred_summands(f"base_unique=1;fibred_summands={count}")

    def test_summand_count_too_long_to_read(self):
        # int() refuses more than 4 300 digits with a ValueError, which a
        # batch row used to pass on as a traceback
        with pytest.raises(InputError, match="^fibred_summands must be an integer$"):
            strip_fibred_summands("base_unique=1;fibred_summands=" + "1" * 5000)

    def test_summand_count_in_ascii_digits_accepted(self):
        for count in ("0", "7", "1000", "007"):
            c = strip_fibred_summands(f"base_unique=1;fibred_summands={count}")
            assert str(recognize(c)) == "point"

    @pytest.mark.parametrize("params, key", [
        ("A1=1;A1=0", "A1"), ("A1=0;A2=0;A1=0", "A1"), ("A2p=1; A2p=1", "A2p")])
    def test_repeated_flag_refused(self, params, key):
        # the last value used to win: A1=1;A1=0 gave the edge
        with pytest.raises(InputError, match=f"field '{key}' given twice"):
            plumbing_theorem_complex(params)

    @pytest.mark.parametrize("params, key", [
        ("base_unique=0;base_unique=1;fibred_summands=1", "base_unique"),
        ("base_unique=1;fibred_summands=1;fibred_summands=2", "fibred_summands")])
    def test_repeated_field_refused(self, params, key):
        # the last value used to win: the first row passed the unique-base check
        with pytest.raises(InputError, match=f"field '{key}' given twice"):
            strip_fibred_summands(params)


class TestDispatch:
    def test_fibred_point(self):
        c = classify_and_compute(KnotRecord("11_3", "fibred", "-"))
        assert str(recognize(c)) == "point"

    def test_two_bridge_fraction(self):
        c = classify_and_compute(KnotRecord("11_13", "two_bridge", "28/61"))
        assert str(recognize(c)) == "point"

    def test_two_bridge_literal_chain(self):
        c = classify_and_compute(KnotRecord("x", "two_bridge", "[-4,-2,-2,-2,-4,-2]"))
        assert str(recognize(c)) == "path(5)"

    def test_special_alternating(self, data_dir):
        rec = KnotRecord("11_237", "special_alternating", "theta_11_237.txt",
                         base_dir=data_dir)
        c = classify_and_compute(rec)
        assert str(recognize(c)) == "simplex(2)"

    def test_table_expected(self):
        c = classify_and_compute(KnotRecord("11_103", "table_expected", "path(2)"))
        assert str(recognize(c)) == "simplex(1)"

    def test_unknown_class_rejected(self):
        with pytest.raises(InputError):
            KnotRecord("x", "mystery", "-")

    def test_bad_params(self):
        with pytest.raises(InputError):
            classify_and_compute(KnotRecord("x", "two_bridge", "5/3"))


class TestThetaFileLoading:
    def test_seifert_file_walked_twice(self, data_dir, monkeypatch):
        # the faces are walked once as the file is read and once for the
        # theta subgraph; the stages in between derive theirs
        walks = []
        walk_faces = thetagraph._walk_faces
        monkeypatch.setattr(thetagraph, "_walk_faces", lambda succ: walks.append(1) or walk_faces(succ))
        for path in [data_dir / name for name in
                     ("theta_11_94.txt", "theta_11_237.txt", "theta_11_340.txt")] + [
                         Path(__file__).resolve().parent / "route_bundles.txt"]:
            walks.clear()
            load_theta_file(path)
            assert len(walks) == 2, path

    def test_missing_file(self):
        with pytest.raises(InputError):
            load_theta_file("no_such_file.txt")


class TestLoadTable:
    def test_shipped_table(self, data_dir):
        records = load_table(data_dir / "knots11.csv")
        assert len(records) == 27
        assert records[0].name == "11_13"
        assert all(r.klass == "two_bridge" for r in records)

    def test_duplicate_names_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("name,class,params,expected\n"
                        "11_3,fibred,-,point\n11_3,fibred,-,point\n")
        with pytest.raises(InputError) as err:
            load_table(path)
        assert ":3:" in str(err.value)

    def test_bad_class_carries_line_number(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("name,class,params,expected\nk,mystery,-,point\n")
        with pytest.raises(InputError) as err:
            load_table(path)
        assert ":2:" in str(err.value)

    def test_quoted_line_break_stays_in_its_field(self, tmp_path):
        # csv splits the rows, so "x<newline>y" is not read as "xy"; a row
        # error names the line the row ends on
        path = tmp_path / "t.csv"
        rows = 'name,class,params,expected\n"x\ny",fibred,-,point\n"xy",fibred,-,point\n'
        path.write_text(rows, encoding="utf-8")
        assert [r.name for r in load_table(path)] == ["x\ny", "xy"]
        path.write_text(rows + "k,mystery,-,point\n", encoding="utf-8")
        with pytest.raises(InputError) as err:
            load_table(path)
        assert ":5:" in str(err.value)

    def test_unicode_line_breaks_are_field_text(self, tmp_path):
        # str.splitlines() would split at each of these three
        path = tmp_path / "t.csv"
        path.write_text("name,class,params,expected\na\u2028b,fibred,-,point\n"
                        "c\x85d,fibred,-,point\ne\x0cf,fibred,-,point\n", encoding="utf-8")
        assert [r.name for r in load_table(path)] == ["a\u2028b", "c\x85d", "e\x0cf"]

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("name,class,params,expected\nk,fibred,-\n")
        with pytest.raises(InputError):
            load_table(path)

    def test_comment_and_blank_rows_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("name,class,params,expected\n# a note,x\n\nk,fibred,-,point\n",
                        encoding="utf-8")
        assert [r.name for r in load_table(path)] == ["k"]

    def test_empty_table(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("name,class,params,expected\n")
        assert load_table(path) == []


class TestRunBatch:
    def test_bad_row_does_not_poison_batch(self):
        records = [
            KnotRecord("good", "two_bridge", "28/61", ComplexShape.point()),
            KnotRecord("bad", "two_bridge", "5/3"),
            KnotRecord("also_good", "fibred", "-", ComplexShape.point()),
        ]
        results = run_batch(records)
        by_name = {r.name: r for r in results}
        assert by_name["bad"].error is not None
        assert by_name["good"].matched_expected is True
        assert by_name["also_good"].matched_expected is True

    def test_both_odd_fraction_normalises_and_runs(self):
        # 1/3 is the trefoil: shifts to -2/3, expands to two Hopf bands
        results = run_batch([KnotRecord("trefoil", "two_bridge", "1/3")])
        assert results[0].error is None
        assert str(results[0].shape) == "point"

    def test_mismatch_reported(self):
        records = [KnotRecord("k", "two_bridge", "28/61", ComplexShape.path(3))]
        results = run_batch(records)
        assert results[0].matched_expected is False

    def test_no_expected_no_verdict(self):
        results = run_batch([KnotRecord("k", "fibred", "-")])
        assert results[0].matched_expected is None

    def test_each_record_checked_once(self, data_dir, monkeypatch):
        # every complex is made and checked by the one assembler, which
        # from_maximal and both builds end in; every record makes exactly
        # one, its result
        calls = []
        assemble = complexes.assemble

        def counting(masks, labels):
            calls.append(assemble(masks, labels))
            return calls[-1]

        monkeypatch.setattr(complexes, "assemble", counting)
        records = load_table(data_dir / "knots11_mixed.csv")
        classes = set()
        for rec in records:
            calls.clear()
            (result,) = run_batch([rec])
            assert result.error is None, rec.name
            assert len(calls) == 1 and calls[0] is result.computed, rec.name
            classes.add(rec.klass)
        assert classes == set(pipeline.KNOT_CLASSES)

    def test_huge_summand_count_is_a_point_at_once(self):
        # deplumbing is one bijection whatever the count: nothing per summand
        rec = KnotRecord("k", "unique_base_plus_fibred",
                         f"base_unique=1;fibred_summands={10**12}", ComplexShape.point())
        began = time.perf_counter()
        (result,) = run_batch([rec])
        assert time.perf_counter() - began < 2
        assert result.error is None and result.matched_expected is True


class TestReport:
    def test_report_is_deterministic(self, tmp_path):
        records = [KnotRecord("b", "fibred", "-", ComplexShape.point()),
                   KnotRecord("a", "two_bridge", "27/31", ComplexShape.simplex(1))]
        first, second = tmp_path / "r1.json", tmp_path / "r2.json"
        write_report(run_batch(records), first)
        write_report(run_batch(records), second)
        assert first.read_bytes() == second.read_bytes()
        payload = json.loads(first.read_text())
        assert [row["name"] for row in payload["results"]] == ["a", "b"]
        assert payload["totals"]["matched"] == 2
        assert "runtime" not in json.dumps(payload)

    def test_errors_counted(self):
        payload = report_payload(run_batch([KnotRecord("bad", "two_bridge", "5/3")]))
        assert payload["totals"]["errors"] == 1
        assert payload["results"][0]["error"]

    def test_summary_lines(self):
        text = summary_table(run_batch([KnotRecord("k", "fibred", "-", ComplexShape.point())]))
        assert "k" in text and "yes" in text


class TestShippedTables:
    def test_knots11_all_match(self, data_dir):
        results = run_batch(load_table(data_dir / "knots11.csv"))
        assert all(r.error is None for r in results)
        assert all(r.matched_expected is True for r in results)

    def test_mixed_classes_all_match(self, data_dir):
        results = run_batch(load_table(data_dir / "knots11_mixed.csv"))
        assert all(r.matched_expected is True for r in results), summary_table(results)

    @pytest.mark.parametrize("table, digest", [
        ("knots11.csv", "d2e51e67933decd0e14cf5b48ec9fec82ed993ec4df04a9d4d8d6af35644486b"),
        ("knots11_lists.csv", "4100125591aad6940e95edb178d3f11095b27e18ade07c99311ae1d4032b0367"),
        ("knots11_mixed.csv", "f67e27683230cdc1ed58c5137c181184d53a507354ab56374ed26fe02f6dc565"),
    ])
    def test_report_bytes_pinned(self, data_dir, tmp_path, table, digest):
        out = tmp_path / "report.json"
        write_report(run_batch(load_table(data_dir / table)), out)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_catalogued_lists_all_match(self, data_dir):
        results = run_batch(load_table(data_dir / "knots11_lists.csv"))
        assert len(results) == 324
        assert all(r.matched_expected is True for r in results)
