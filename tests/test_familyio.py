import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from clutters import GroundSetTooLarge, SetFamily, random_star_selfdual
from clutters.enumeration import MAX_ENUM_T
from clutters.familyio import (
    ParseError,
    format_families,
    format_family,
    parse_families,
    parse_family,
    write_members_json,
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


def test_parse_noncanonical_brace_lines():
    # duplicates, spaces, leading zeros, `_` and non-ASCII digits are read
    # as int() reads them, whatever path a line takes
    text = "t: 12\n{1,1}\n{ 1 , 4 }\n{01}\n{1_0}\n{\u0661}\n{1,2,1}\n1 5 7\n{}\n  {2,3}  \n"
    assert parse_family(text).masks == (1, 9, 1, 512, 1, 3, 81, 0, 6)


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
        # brace lines the token table does not read fall back to the element
        # parser, with its messages
        ("t: 4\n{,}\n", 2, "bad element ''"),
        ("t: 4\n{1,}\n", 2, "bad element ''"),
        ("t: 4\n{1,,2}\n", 2, "bad element ''"),
        ("t: 16\n{1,17}\n", 2, "element 17 outside ground set 1..16"),
        ("t: 16\n" + "{1,2}\n" * 29998 + "{17}\n", 30000, "element 17 outside"),
        ("t: 4\n{1,2\n", 2, "unterminated"),
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
@given(st.lists(families(), min_size=1, max_size=4), families())
def test_format_families_roundtrip(tms, tm):
    # one document on two ground sets, with a family holding {}: the
    # member-by-member oracle writes it and the parser reads it back
    t, members = tm
    other = t % 8 + 1
    tms = tms + [(t, tuple(sorted({0, *members}))), (other, members[:1]), (t, members)]
    tms = [(s, tuple(m for m in ms if m >> s == 0)) for s, ms in tms]
    fams = [SetFamily(*tm) for tm in tms]
    docs = parse_families("---\n".join(oracles.format_family(s, ms) for s, ms in tms))
    assert [p.family() for p in docs] == fams
    # format_families writes the families of one ground set at a time
    for s in {s for s, _ in tms}:
        keys = [ms for u, ms in tms if u == s]
        if s > MAX_ENUM_T:
            with pytest.raises(GroundSetTooLarge):
                format_families(keys, s)
            continue
        text = format_families(keys, s)
        assert text == "---\n".join(oracles.format_family(s, ms) for ms in keys)
        assert [p.family() for p in parse_families(text)] == [SetFamily(s, ms) for ms in keys]


def test_roundtrip_idempotence():
    text = format_family(family(6, [[1, 2, 3], [4], [5, 6]]))
    assert format_family(parse_family(text).family()) == text


@settings(max_examples=150, deadline=None)
@given(families(max_t=20))
def test_format_parse_round_trip(tm):
    f = SetFamily(*tm)
    assert parse_family(format_family(f)).family() == f


def _json(obj, f):
    out = io.StringIO()
    write_members_json(obj, f, out)
    return out.getvalue()


@settings(max_examples=150, deadline=None)
@given(families(max_t=20), st.booleans())
# the edges of the runs, the members that share their high t - t//2 bits
@example((1, (1,)), True)  # t // 2 = 0: every mask is a run of its own
@example((1, (1,)), False)
@example((9, tuple(range(1, 16, 3))), True)  # every member below 2^(t//2)
@example((9, tuple(range(1, 16, 3))), False)
@example((12, tuple(h << 6 | h for h in range(64))), True)  # one member per run
@example((12, tuple(h << 6 | 63 for h in range(1, 64))), False)
@example((20, ()), True)  # {∅} alone
@example((20, (1 << 19,)), True)  # ∅ and one member
@example((3, (1,)), True)  # ... where format_families runs too
@example((20, ()), False)  # the empty family
@example((2, ()), False)
def test_writers_match_member_loops(tm, with_empty_set):
    t, members = tm
    if with_empty_set:
        members = tuple(sorted(set(members) | {0}))
    f = SetFamily(t, members)
    assert format_family(f) == oracles.format_family(t, members)
    keys = [f.members, f.members[::2]]
    if t <= MAX_ENUM_T:
        assert format_families(keys, t) == "---\n".join(
            [oracles.format_family(t, members), oracles.format_family(t, members[::2])]
        )
    else:  # format_families writes the lines of all 2^t masks
        with pytest.raises(GroundSetTooLarge):
            format_families(keys, t)
    assert _json({"t": t}, f) == oracles.members_json({"t": t}, members)
    head = {"t": t, "count": len(members), "f": [1, 0, 2]}
    assert _json(head, f) == oracles.members_json(head, members)


def test_writers_across_runs():
    # 65,536 members at t = 17, the empty set among them, in all 512 runs
    # of the high 9 bits
    f = random_star_selfdual(17, 3).family
    f = SetFamily(17, f.members[1:] + (0,))
    assert len({m >> 8 for m in f.members}) == 512
    assert format_family(f) == oracles.format_family(17, f.members)
    assert _json({"t": 17}, f) == oracles.members_json({"t": 17}, f.members)
