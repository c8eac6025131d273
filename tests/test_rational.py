import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kakimizu.complexes import ComplexShape
from kakimizu.errors import InputError, SizeLimitError
from kakimizu.fibred import ReductionGraph
from kakimizu.rational import (evaluate_cfe, even_cfe, expand_index, format_fraction,
                               normalize_two_bridge, parse_cfe, parse_fraction, parse_int)

from catalog import ROWS


class TestParsing:
    def test_roundtrip(self):
        assert parse_fraction("33/73") == Fraction(33, 73)
        assert parse_fraction("-40/73") == Fraction(-40, 73)
        assert format_fraction(Fraction(-40, 73)) == "-40/73"

    @pytest.mark.parametrize("bad", ["", "1.5", "3", "1/0", "2/4", "a/b", "1/-3"])
    def test_rejects(self, bad):
        with pytest.raises(InputError):
            parse_fraction(bad)

    def test_parse_cfe(self):
        assert parse_cfe("[-4,-2,-2,-2,-4,-2]") == (-4, -2, -2, -2, -4, -2)
        with pytest.raises(InputError):
            parse_cfe("[1,2]")
        with pytest.raises(InputError):
            parse_cfe("[]")


class TestNumberRule:
    """Every reader of numbers takes ASCII digits after at most a minus
    sign; int() also reads "+1", "1_0", surrounding spaces and other
    scripts' digits."""

    @pytest.mark.parametrize("text, value", [("0", 0), ("007", 7), ("-12", -12), ("-0", 0)])
    def test_reads(self, text, value):
        assert parse_int(text) == value

    @pytest.mark.parametrize("text", ["1_0", "+1", "\u0661", "\uff11", "-\u0661", " 1", "1 ",
                                      "", "-", "--1", "1.0", "1" * 5000])
    def test_refuses(self, text):
        with pytest.raises(ValueError):
            parse_int(text)

    @pytest.mark.parametrize("read, text, message", [
        (parse_cfe, "[2_0,4]", "^bad bracket list"),
        (parse_cfe, "[\u0662,4]", "^bad bracket list"),
        (parse_fraction, "\u0662\u0668/\u0666\u0661", "^expected a fraction like"),
        (parse_fraction, "28/6\uff11", "^expected a fraction like"),
        (ComplexShape.parse, "path(3_0)", "^bad shape literal"),
        (ComplexShape.parse, "simplex(+2)", "^bad shape literal"),
        (ReductionGraph.from_text, "v=\u0662; edges=(0,1)", "^cannot parse graph literal"),
        (ReductionGraph.from_text, "v=2; edges=(0,\u0661)", "^cannot parse graph literal"),
    ])
    def test_text_formats_refuse(self, read, text, message):
        with pytest.raises(InputError, match=message):
            read(text)

    def test_text_formats_read_ascii_digits_as_before(self):
        assert parse_cfe("[ -2 , 4 ]") == (-2, 4)
        assert parse_fraction("28/61") == Fraction(28, 61)
        assert ComplexShape.parse("path( 3 )") == ComplexShape.path(3)
        assert ReductionGraph.from_text("v=2; edges=(0, 1)").edges == ((0, 1),)


class TestNormalize:
    def test_both_odd_shifts(self):
        assert normalize_two_bridge(Fraction(33, 73)) == Fraction(-40, 73)

    def test_even_entry_fixed(self):
        assert normalize_two_bridge(Fraction(18, 47)) == Fraction(18, 47)
        assert normalize_two_bridge(Fraction(1, 2)) == Fraction(1, 2)

    @pytest.mark.parametrize("num,den", [(0, 1), (3, 2), (5, 5)])
    def test_out_of_range(self, num, den):
        with pytest.raises(InputError):
            normalize_two_bridge(Fraction(num, den))

    def test_result_has_even_entry_and_is_small(self):
        for q in range(2, 60):
            for p in range(1, q):
                if math.gcd(p, q) != 1:
                    continue
                f = normalize_two_bridge(Fraction(p, q))
                assert -1 < f < 1 and f != 0
                assert f.numerator % 2 == 0 or f.denominator % 2 == 0


class TestEvenCfe:
    def test_worked_example(self):
        assert even_cfe(Fraction(28, 61)) == (2, -6, -2, 2)

    def test_negative_example(self):
        assert even_cfe(Fraction(-4, 31)) == (-8, -4)

    def test_single_entry(self):
        assert even_cfe(Fraction(1, 2)) == (2,)

    def test_both_odd_rejected(self):
        with pytest.raises(InputError):
            even_cfe(Fraction(1, 3))

    @pytest.mark.parametrize("f", [Fraction(0), Fraction(3, 2), Fraction(-1), Fraction(1)])
    def test_domain(self, f):
        with pytest.raises(InputError):
            even_cfe(f)

    def test_negative_fraction_leading_negative_entry(self):
        cfe = even_cfe(Fraction(-40, 73))
        assert cfe == (-2, -6, -4, -2)
        assert cfe[0] < 0

    def test_deterministic(self):
        f = Fraction(22, 83)
        assert even_cfe(f) == even_cfe(f)

    def test_expand_index_accepts_both_printed_forms(self):
        assert expand_index(Fraction(33, 73)) == (-2, -6, -4, -2)
        assert expand_index(Fraction(-40, 73)) == (-2, -6, -4, -2)
        with pytest.raises(InputError):
            expand_index(Fraction(-1, 3))  # shifted form must have an even entry

    def test_max_entries_stops_the_expansion(self):
        # 1/q expands into q - 1 entries for odd q
        assert len(expand_index(Fraction(1, 11))) == 10
        assert expand_index(Fraction(1, 11), 10) == expand_index(Fraction(1, 11))
        with pytest.raises(SizeLimitError, match="limit is 9"):
            expand_index(Fraction(1, 11), 9)
        with pytest.raises(SizeLimitError, match="limit is 9"):
            expand_index(Fraction(1, 999999999999), 9)


class TestEvaluate:
    def test_worked_example(self):
        assert evaluate_cfe((2, -6, -2, 2)) == Fraction(28, 61)

    def test_derived_example(self):
        assert evaluate_cfe((-6, -2, -2, -4)) == Fraction(-10, 53)

    def test_single(self):
        assert evaluate_cfe((2,)) == Fraction(1, 2)

    @pytest.mark.parametrize("bad", [(), (3,), (0,), (2, 5)])
    def test_rejects(self, bad):
        with pytest.raises(InputError):
            evaluate_cfe(bad)

    def test_catalog_rows_roundtrip(self):
        for row in ROWS:
            value = evaluate_cfe(row.cfe)
            assert even_cfe(value) == row.cfe


class TestRoundtrip:
    def test_exhaustive_small(self):
        for q in range(2, 81):
            for p in range(1, q):
                if math.gcd(p, q) != 1 or (p * q) % 2 == 1:
                    continue
                f = Fraction(p, q)
                cfe = even_cfe(f)
                assert all(e % 2 == 0 and e != 0 for e in cfe)
                assert evaluate_cfe(cfe) == f

    # seeded: a draw near (q - 1)/q expands to about q entries, and one at
    # q ~ 10^6 took seconds; the example keeps a 10^4-entry expansion covered
    @given(p=st.integers(1, 10**6), q=st.integers(2, 10**6))
    @example(p=9998, q=9999)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_random_large(self, p, q):
        g = math.gcd(p, q)
        p, q = p // g, q // g
        if p == 0 or p >= q or (p * q) % 2 == 1:
            return
        f = Fraction(p, q)
        assert evaluate_cfe(even_cfe(f)) == f

    @given(st.lists(st.sampled_from([-8, -6, -4, -2, 2, 4, 6, 8]), min_size=1, max_size=9))
    @settings(max_examples=300, deadline=None)
    def test_evaluate_then_expand(self, entries):
        value = evaluate_cfe(tuple(entries))
        assert -1 < value < 1 and value != 0
        # the nearest-even expansion is the unique all-even one
        assert even_cfe(value) == tuple(entries)
