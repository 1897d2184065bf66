"""Text format for families of sets.

    # optional comments
    t: 5
    {1,2,3,4}
    1 5
    {}

A file starts with a `t: <int>` header, optionally followed by
`closure: down` (the listed sets are facets to be closed downward).
Each following line is one set, either brace form `{i,j,...}` (the empty
set is `{}`) or bare whitespace-separated elements. Elements are 1-based
and must not exceed t. A line of `---` separates multiple families in
one file. Serialization is always canonical: ascending mask order, brace
form, no comments.

A family with F* = F on E_t has 2^(t-1) members, so on dense families the
text is the bulk of a command's work. Neither direction loops over the
elements of a member in Python. A canonical brace line is read through a
table from token to bit. Members are written one run at a time: the
ascending members that share the high t - t//2 bits of their masks, at
most 2^(t//2) of them. A run is one `str.join` over a string table of the
low bits' elements, with the high bits' elements in the separator, so a
member costs one table lookup and nothing is rewritten afterwards.
`format_families` (the `enumerate --out` document, written a chunk of
thousands of small families on one ground set per call) writes the line
of every mask below 2^t once, by the same writer, so each family is its
header and one join; it takes t <= MAX_ENUM_T = 7 only.
`write_members_json` writes the `--json` form of a family, exactly the
bytes of `json.dumps(obj, indent=2)` and a newline, one run at a time. At
t = 20, `upset --list --json` on a 524,288-member up-family (58 MiB)
takes about 0.25 s at 42 MB peak RSS, and `upset --list` about 0.26 s at
67 MB (2-vCPU VM, CPython 3.11).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import groupby
from typing import Iterator, Sequence, TextIO

from .enumeration import MAX_ENUM_T
from .errors import GroundSetTooLarge
from .sets import MAX_T, SetFamily, mask_of


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class ParsedFamily:
    t: int
    masks: tuple[int, ...]
    down_closure: bool

    def family(self) -> SetFamily:
        return SetFamily(self.t, self.masks)


def _parse_elements(line: str, line_no: int, t: int) -> int:
    if line.startswith("{"):
        if not line.endswith("}"):
            raise ParseError(line_no, f"unterminated set literal {line!r}")
        body = line[1:-1].strip()
        tokens = [tok.strip() for tok in body.split(",")] if body else []
    else:
        tokens = line.split()
    elements = []
    for tok in tokens:
        try:
            e = int(tok)
        except ValueError:
            raise ParseError(line_no, f"bad element {tok!r}") from None
        if not 1 <= e <= t:
            raise ParseError(line_no, f"element {e} outside ground set 1..{t}")
        elements.append(e)
    return mask_of(elements, t)


def parse_families(text: str) -> list[ParsedFamily]:
    """Parse a (possibly multi-family) document."""
    families: list[ParsedFamily] = []
    t: int | None = None
    bit: dict[str, int] = {}  # token -> mask of one element of E_t
    down = False
    masks: list[int] = []
    started = False

    def flush(line_no: int) -> None:
        nonlocal t, bit, down, masks, started
        if not started:
            return
        if t is None:
            raise ParseError(line_no, "missing `t: <int>` header")
        families.append(ParsedFamily(t, tuple(masks), down))
        t, bit, down, masks, started = None, {}, False, [], False

    line_no = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        # canonical `{i,j,...}` once t is known; anything else (spaces, `{}`,
        # `01`, duplicates, elements outside E_t) takes _parse_elements
        if bit and raw[:1] == "{" and raw[-1] == "}":
            tokens = raw[1:-1].split(",")
            try:
                mask = sum(map(bit.__getitem__, tokens))
            except KeyError:
                pass
            else:
                if mask.bit_count() == len(tokens):
                    masks.append(mask)
                    continue
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "---":
            if not started:
                raise ParseError(line_no, "separator before any family")
            flush(line_no)
            continue
        started = True
        if line.lower().startswith("t:"):
            if t is not None:
                raise ParseError(line_no, "duplicate `t:` header")
            try:
                t = int(line[2:].strip())
            except ValueError:
                raise ParseError(line_no, f"bad ground set size {line[2:].strip()!r}") from None
            # reject before any element becomes a 2^(e-1) mask
            if not 1 <= t <= MAX_T:
                raise ParseError(
                    line_no, f"ground set size must be positive and at most {MAX_T}, got {t}"
                )
            bit = {str(e + 1): 1 << e for e in range(t)}
            continue
        if line.lower().startswith("closure:"):
            value = line.split(":", 1)[1].strip().lower()
            if value != "down":
                raise ParseError(line_no, f"unknown closure mode {value!r}")
            down = True
            continue
        if t is None:
            raise ParseError(line_no, "sets listed before the `t: <int>` header")
        masks.append(_parse_elements(line, line_no, t))
    flush(line_no + 1)
    if not families:
        raise ParseError(line_no + 1, "no family found")
    return families


def parse_family(text: str) -> ParsedFamily:
    """Parse a document that must contain exactly one family."""
    families = parse_families(text)
    if len(families) != 1:
        # more than one family means at least one `---` separator
        line_no = next(
            n for n, raw in enumerate(text.splitlines(), start=1) if raw.strip() == "---"
        )
        raise ParseError(line_no, f"expected one family, found {len(families)}")
    return families[0]


class _Elements(dict):
    """Table from the bits of one half-word to its elements, ascending,
    numbered from `offset` + 1: `sep` between two elements and `end` after
    each. Entries are made on first use, each from the entry without its
    top bit."""

    def __init__(self, offset: int, sep: str = "", end: str = ""):
        super().__init__({0: ""})
        self.offset, self.sep, self.end = offset, sep, end

    def __missing__(self, key: int) -> str:
        top = key.bit_length() - 1
        rest = key ^ 1 << top
        text = self[rest] + (self.sep if rest else "") + str(self.offset + top + 1) + self.end
        self[key] = text
        return text


class _Style:
    """A member is written as `open`, its elements separated by `sep`, then
    `close`, and the empty set as `empty`; members are joined by `between`.
    (A plain class: a dataclass would cost about 1 ms at import.)"""

    def __init__(self, open: str, sep: str, close: str, between: str, empty: str):
        self.open, self.sep, self.close = open, sep, close
        self.between, self.empty = between, empty


_TEXT = _Style("{", ",", "}\n", "", "{}\n")
# the "members" array of json.dumps(..., indent=2): [\n      1,\n      2\n    ]
_JSON = _Style("[\n      ", ",\n      ", "\n    ]", ",\n    ", "[]")


def _member_runs(members: Sequence[int], t: int, style: _Style) -> Iterator[str]:
    """The ascending `members` written in `style` and joined by
    `style.between`, in pieces of at most one run. A run is the members
    that share the high t - t//2 bits h of their masks, at most 2^(t//2) of
    them, and it is one join: of `lo`, the low bits' elements each followed
    by `sep`, with `hi[h] + close + between + open` between them, where
    `hi[h]` is the high bits' elements. The run h = 0 is joined from
    `alone`, the low bits' elements with no `sep` after the last, and the
    empty set, which can only come first, is `style.empty`. The three
    tables are made for this call."""
    half = t // 2
    low = ((1 << half) - 1).__and__
    lo = _Elements(0, end=style.sep).__getitem__
    alone, hi = _Elements(0, style.sep).__getitem__, _Elements(half, style.sep)
    link = style.close + style.between + style.open
    lead = style.open
    masks = iter(members)
    if members and members[0] == 0:
        next(masks)
        yield style.empty
        lead = style.between + style.open
    h = None
    for h, run in groupby(masks, half.__rrshift__):
        yield lead
        if h:
            lead = hi[h] + link
            yield lead.join(map(lo, map(low, run)))
        else:
            lead = link
            yield link.join(map(alone, run))
    if h is not None:
        yield hi[h] + style.close


def format_family(f: SetFamily) -> str:
    """Canonical serialization: header plus one brace-form set per line."""
    return "".join([f"t: {f.t}\n", *_member_runs(f.members, f.t, _TEXT)])


def format_families(keys: Sequence[Sequence[int]], t: int) -> str:
    """format_family of each family on E_t, given as its ascending member
    masks (such as an enumeration key), joined by `---` lines. Every mask
    is below 2^t, so the line of each of the 2^t masks is written once per
    call, by `_member_runs`, and each family is its header and one join.
    That table is why t must be at most MAX_ENUM_T (GroundSetTooLarge
    otherwise): it suits `enumerate --out`, thousands of small families
    per call, and format_family writes a family at any t."""
    if t > MAX_ENUM_T:
        raise GroundSetTooLarge(f"format_families writes 2^t lines, so t <= {MAX_ENUM_T}, got {t}")
    lines = "".join(_member_runs(range(1 << t), t, _TEXT)).splitlines(keepends=True)
    head = f"t: {t}\n"
    return "---\n".join([head + "".join(map(lines.__getitem__, members)) for members in keys])


def write_members_json(obj: dict, f: SetFamily, out: TextIO) -> None:
    """Write `json.dumps({**obj, "members": M}, indent=2)` and a newline to
    `out`, where M lists f's members as lists of elements, ascending.

    The members are written a run at a time (see `_member_runs`), never as
    one list or string. `obj` must not hold the key "members", which comes
    last."""
    head = json.dumps({**obj, "members": []}, indent=2)
    if not f.members:
        out.write(head + "\n")
        return
    out.write(head[: -len("]\n}")] + "\n    ")
    out.writelines(_member_runs(f.members, f.t, _JSON))
    out.write("\n  ]\n}\n")


def load_family(path: str) -> ParsedFamily:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_family(fh.read())
