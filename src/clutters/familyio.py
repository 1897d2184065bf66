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
"""

from __future__ import annotations

from dataclasses import dataclass

from .sets import MAX_T, SetFamily, elements_of, mask_of


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
    down = False
    masks: list[int] = []
    started = False

    def flush(line_no: int) -> None:
        nonlocal t, down, masks, started
        if not started:
            return
        if t is None:
            raise ParseError(line_no, "missing `t: <int>` header")
        families.append(ParsedFamily(t, tuple(masks), down))
        t, down, masks, started = None, False, [], False

    line_no = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
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


def format_family(f: SetFamily) -> str:
    """Canonical serialization: header plus one brace-form set per line."""
    lines = [f"t: {f.t}"]
    for m in f.members:
        lines.append("{" + ",".join(map(str, elements_of(m))) + "}")
    return "\n".join(lines) + "\n"


def format_families(fams: list[SetFamily]) -> str:
    return "---\n".join(format_family(f) for f in fams)


def load_family(path: str) -> ParsedFamily:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_family(fh.read())
