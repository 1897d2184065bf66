import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clutters import SetFamily
from clutters.familyio import (
    ParseError,
    format_families,
    format_family,
    parse_families,
    parse_family,
)

from conftest import families, family

DOC = """\
# the triangle clutter
t: 3
{1,2}
{1,3}
{2,3}
"""


def test_parse_brace_form():
    parsed = parse_family(DOC)
    assert parsed.t == 3
    assert not parsed.down_closure
    assert parsed.family() == family(3, [[1, 2], [1, 3], [2, 3]])


def test_parse_bare_form_and_empty_set():
    parsed = parse_family("t: 4\n1 3\n{}\n  2   4  \n")
    assert parsed.family() == family(4, [[1, 3], [], [2, 4]])


def test_parse_braces_with_spaces():
    parsed = parse_family("t: 5\n{ 1 , 4 }\n")
    assert parsed.family() == family(5, [[1, 4]])


def test_parse_closure_flag():
    parsed = parse_family("t: 4\nclosure: down\n{2,3,4}\n")
    assert parsed.down_closure


def test_parse_empty_family():
    parsed = parse_family("t: 3\n")
    assert parsed.family() == SetFamily(3, ())


def test_parse_multiple_families():
    docs = parse_families("t: 2\n{1}\n---\nt: 3\n{2,3}\n---\n")
    assert [p.t for p in docs] == [2, 3]


def test_parse_errors_carry_line_numbers():
    cases = [
        ("{1,2}\n", 1, "header"),
        ("t: 3\nt: 4\n", 2, "duplicate"),
        ("t: x\n", 1, "bad ground set size"),
        ("t: 3\n{1,2\n", 2, "unterminated"),
        ("t: 3\n{1,b}\n", 2, "bad element"),
        ("t: 3\n{4}\n", 2, "outside ground set"),
        ("t: 3\n0 1\n", 2, "outside ground set"),
        ("---\nt: 3\n", 1, "separator"),
        ("t: 0\n", 1, "positive"),
        ("t: 63\n", 1, "at most 62"),
        # rejected at the header, before any element becomes a 2^(e-1) mask
        ("t: 100000000\n" + "{100000000}\n" * 8, 1, "at most 62"),
        ("t: 3\nclosure: up\n", 2, "closure"),
        ("# nothing\n", 2, "no family"),
    ]
    for text, line_no, fragment in cases:
        with pytest.raises(ParseError) as err:
            parse_families(text)
        assert err.value.line_no == line_no
        assert fragment in str(err.value)


def test_parse_family_reports_first_separator():
    with pytest.raises(ParseError) as err:
        parse_family("# two\nt: 2\n{1}\n\n  ---\nt: 3\n{2,3}\n---\nt: 1\n")
    assert err.value.line_no == 5
    assert str(err.value) == "line 5: expected one family, found 3"


def test_format_is_canonical_and_roundtrips():
    f = SetFamily.from_sets(3, [[2, 3], [1, 2], []])
    text = format_family(f)
    assert text == "t: 3\n{}\n{1,2}\n{2,3}\n"
    assert parse_family(text).family() == f


@settings(max_examples=100, deadline=None)
@given(st.lists(families(), min_size=1, max_size=4))
def test_format_families_roundtrip(tms):
    fams = [SetFamily(*tm) for tm in tms]
    docs = parse_families(format_families(fams))
    assert [p.family() for p in docs] == fams


def test_roundtrip_idempotence():
    text = format_family(family(6, [[1, 2, 3], [4], [5, 6]]))
    assert format_family(parse_family(text).family()) == text


@settings(max_examples=150, deadline=None)
@given(families())
def test_format_parse_round_trip(tm):
    f = SetFamily(*tm)
    assert parse_family(format_family(f)).family() == f
