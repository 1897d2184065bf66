"""Exhaustive enumeration of self-dual clutters on small ground sets.

A clutter A is self-dual (A = B(A)) iff its up-family F = A^v satisfies
F* = F, i.e. F holds exactly one set of each complementary pair. Split F
into the members without element t (F0, an up-family on E_(t-1)) and the
members with it. F* = F forces the second part to be {S+{t} : S in
star(F0)}, and F0 must hold no complementary pair of E_(t-1): otherwise
S and E_(t-1) - S in F0 would put both S and E_t - S in F. Conversely
every pair-free up-family F0 lies inside star(F0), so F0 plus the lifted
star(F0) is up-closed and self-dual. The self-dual clutters on E_t are
therefore the minimal members of exactly these families, one per
pair-free up-family F0 on E_(t-1).

There is no search tree. Split a pair-free up-family F0 on E_(t-1) on
element t-1 into G (its members without t-1) and H (its members with
t-1, t-1 removed), both families on E_(t-2). F0 is up-closed iff G and H
are and G <= H. F0 holds a complementary pair iff some S in G has
E_(t-2) - S in H, so it is pair-free iff H <= star(G). The hits are
therefore exactly the pairs G <= H <= star(G) of up-families on
E_(t-2), and F0 = G | H << q with q = 2^(t-2). Distinct pairs (G, H)
give distinct F0, which give distinct clutters, so each clutter is
emitted once. The up-families on E_(t-2) are built by halves (7,581 at
t = 7), with one bit column per subset S of E_(t-2) marking the
families that hold S; the H that fit one G are one AND of columns. Since
star(F0) = star(H) | star(G) << q on E_(t-1), a hit's block on 2^[t] is
G | star(G) << 3q, made once per G, OR'd with H << q | star(H) << 2q,
made once per H. Everything is built per call; t = 1 (no E_(t-2)) has
the one hit F0 = {}.

No hit is an object. The blocks are read CHUNK at a time, each chunk
packed as one bitmap (see `sets`), so `sets.minimal_bitmap` takes t
shift-or passes over the whole chunk. Each hit's minimal members
become one `bytes` key, its member masks ascending, built from one table
per byte position of a block, filled on first use. Every mask is below
2^t <= 128, so byte order is member-tuple order and sorting the keys
gives the canonical order. Self-duality is certified in one place, the
`EnumerationResult` constructor, from keys alone, so search hits and
clutters from elsewhere pass one test that trusts no search bitmap: a
chunk of keys is re-encoded into a fresh packed bitmap, closed upward,
and every block of it is tested for B(A)^v = (A^v)* = A^v by one
`sets.star_invariant` call; only when that fails are the blocks tested
one by one, to name the clutter. The certified up-sets stay packed, and
every reader walks them through `EnumerationResult.chunks`, which pairs
each packed int with its chunk's keys, so a block count comes from the
keys and never from CHUNK. At t = 7 (1,422,564 hits), the hits take
about 0.4 s in process, and `enumerate --verify` took 6.4-8.7 s at
130 MB peak RSS (2-vCPU VM, CPython 3.11).
"""

from __future__ import annotations

import sys
from collections import Counter
from functools import cached_property, reduce
from itertools import chain, compress, islice, repeat
from typing import Iterator

from . import sets  # sets.star_invariant is read at call time
from .complexes import Complex
from .errors import GroundSetTooLarge, NotSelfDual
from .identities import appendix_report
from .kks import lemma2_table, theorem3_table, verify_against
from .sets import (
    Clutter,
    SetFamily,
    block_bytes,
    block_layer_counts,
    complement_bitmap,
    minimal_bitmap,
    star_bitmap,
    up_bitmap,
)
from .vectors import FVector, binom

MAX_ENUM_T = 7
# hits per packed bitmap: the tiled masks are t ints as long as the packed
# one, and with all hits in one int `enumerate --t 7 --verify` peaked at
# 559 MB, against 131 MB in chunks of 2^14
CHUNK = 1 << 14
# ASCII "0" and "1" to the bytes 0 and 1
_BIT_BYTE = bytes.maketrans(b"01", b"\x00\x01")


class EnumerationResult:
    """Self-dual clutters on E_t, 1 <= t <= MAX_ENUM_T, certified when made.

    Each clutter is its key, the bytes of its member masks ascending, and
    `upsets` packs their up-sets `chunk` blocks per int in key order. The
    constructor certifies them with `_certified`, so every reader gets
    certified clutters wherever they came from. `enumerate_self_dual`
    passes its sorted keys; `EnumerationResult(t, clutters)` takes
    Clutters on E_t (ValueError otherwise) in their given order. `items`
    builds the Clutters from the keys on first read.
    """

    def __init__(self, t: int, items: tuple[Clutter, ...] = (), keys: list[bytes] | None = None):
        _check_enum_t(t)
        if keys is None:
            items = tuple(items)
            # a certificate reads up-sets, and a non-antichain such as
            # {{1}, {1,2}} can have a star-invariant one
            if not all(isinstance(cl, Clutter) and cl.t == t for cl in items):
                raise ValueError(f"enumeration result is not on E_{t}")
            keys = [bytes(cl.members) for cl in items]
        self.t, self.keys, self.chunk = t, keys, CHUNK
        self.upsets = [_certified(t, keys[i:i + CHUNK]) for i in range(0, len(keys), CHUNK)]

    def chunks(self) -> Iterator[tuple[list[bytes], int]]:
        """Each chunk's keys, sliced from `keys` only when reached, with its
        certified packed up-set: one block per key, in order."""
        for i, up in enumerate(self.upsets):
            yield self.keys[i * self.chunk:(i + 1) * self.chunk], up

    @cached_property
    def items(self) -> tuple[Clutter, ...]:
        return tuple(Clutter._antichain(self.t, key) for key in self.keys)

    @property
    def count(self) -> int:
        return len(self.keys)


def _check_enum_t(t: int) -> None:
    if not 1 <= t <= MAX_ENUM_T:
        raise GroundSetTooLarge(f"full enumeration supported for 1 <= t <= {MAX_ENUM_T}, got {t}")


class _KeyBytes(dict):
    """Table from byte j of a block to the masks of its set bits, as
    bytes, ascending; entries are made on first use."""

    def __init__(self, j: int):
        super().__init__()
        self.base = j << 3

    def __missing__(self, byte: int) -> bytes:
        key = self[byte] = bytes(self.base + i for i in range(8) if byte >> i & 1)
        return key


def _blocks(bm: int, t: int, n: int) -> Iterator[int]:
    """The n blocks of a packed bitmap, each as its own bitmap on 2^[t]."""
    b = block_bytes(t)
    raw = bm.to_bytes(n * b, "little")
    return (int.from_bytes(raw[i:i + b], "little") for i in range(0, n * b, b))


def _certified(t: int, keys: list[bytes]) -> int:
    """The up-sets of the clutters with these keys, packed, from the keys
    alone; NotSelfDual names the first whose up-set is not star-invariant."""
    b = block_bytes(t)
    bit = [1 << m for m in range(1 << t)]
    packed = b"".join(sum(map(bit.__getitem__, key)).to_bytes(b, "little") for key in keys)
    up = up_bitmap(int.from_bytes(packed, "little"), t)
    if not sets.star_invariant(up, t, len(keys)):
        for key, block in zip(keys, _blocks(up, t, len(keys))):
            if not sets.star_invariant(block, t):
                raise NotSelfDual(f"{Clutter._antichain(t, key)!r} failed blocker certification")
        raise NotSelfDual(f"a chunk of {len(keys)} clutters failed blocker certification")
    return up


def _up_families(r: int) -> list[int]:
    """Bitmaps of all up-families on E_r, r >= 0 (2, 3, 6, 20, 168, 7581
    for r = 0..5), built by halves: a family is up-closed iff its members
    without element j + 1 (lo) and those with it, it removed (hi), are
    up-families on E_j with lo inside hi."""
    ups = [0, 1]
    for j in range(r):
        ups = [lo | hi << (1 << j) for hi in ups for lo in ups if lo & ~hi == 0]
    return ups


def _selectors(x: int, n: int) -> bytes:
    """The n low binary digits of x, most significant first, as bytes 0
    and 1: the selectors of `compress`."""
    return format(x, f"0{n}b").encode().translate(_BIT_BYTE)


def _hit_blocks(t: int) -> Iterator[int]:
    """The up-set block on 2^[t] of each pair-free up-family F0 on E_(t-1),
    in no fixed order: G | H << q | star(H) << 2q | star(G) << 3q for
    the pairs G <= H <= star(G) of up-families on E_(t-2), q = 2^(t-2).

    Written as n binary digits, most significant first, col[S] has its
    j-th digit set iff ups[j] holds S, so the H that fit one G are the set
    digits of the AND over S in G of col[S] and not col[E_(t-2) - S],
    read by `compress`. Every table is built per call."""
    if t == 1:
        return iter((0b10,))  # F0 = {} on E_0: star(F0) = {{}} lifts to {{1}}
    r = t - 2
    q, full = 1 << r, (1 << r) - 1
    ups = _up_families(r)
    stars = [star_bitmap(u, r) for u in ups]
    n = len(ups)
    rows = "".join([format(u, f"0{q}b") for u in ups])
    col = [int(rows[q - 1 - s::q], 2) for s in range(q)]
    # need[q-1-S]: the H that hold S and not E_(t-2) - S, in the order of
    # the digits of a family, so those of G select their entries
    need = [col[s] & ~col[full ^ s] for s in reversed(range(q))]
    hs = [u << q | su << 2 * q for u, su in zip(ups, stars)]

    def per_g() -> Iterator[Iterator[int]]:
        for g, sg in zip(ups, stars):
            if g & ~sg:
                continue  # G holds a complementary pair, so no H fits
            fit = reduce(int.__and__, compress(need, _selectors(g, q)), (1 << n) - 1)
            if fit:
                yield map((g | sg << 3 * q).__or__, compress(hs, _selectors(fit, n)))

    return chain.from_iterable(per_g())


def enumerate_self_dual(t: int) -> EnumerationResult:
    """All self-dual clutters on E_t, each exactly once, ascending by members.

    Supported for 1 <= t <= 7 (counts 1, 2, 4, 12, 81, 2646, 1422564;
    OEIS A001206). Each clutter comes from one up-family F0 on E_(t-1)
    without a complementary pair, as the minimal members of F0 plus
    {S+{t} : S in star(F0)}; the empty F0 gives {{t}}. The F0 are the
    pairs (G, H) of `_hit_blocks`, read CHUNK at a time, each chunk's
    blocks packed into one int for `minimal_bitmap`. The result holds keys
    and packed up-sets; no Clutter is built until `items` is read.
    """
    _check_enum_t(t)
    b = block_bytes(t)
    tables = [_KeyBytes(j) for j in range(b)]
    blocks = _hit_blocks(t)
    keys: list[bytes] = []
    while packed := b"".join(map(int.to_bytes, islice(blocks, CHUNK), repeat(b), repeat("little"))):
        raw = minimal_bitmap(int.from_bytes(packed, "little"), t).to_bytes(len(packed), "little")
        columns = [map(tab.__getitem__, raw[j::b]) for j, tab in enumerate(tables)]
        keys.extend(map(b"".join, zip(*columns)))
    keys.sort()
    return EnumerationResult(t, keys=keys)


def complement_complex(u: SetFamily) -> Complex:
    """The complex 2^[t] - F for an increasing family F with F* = F."""
    return Complex(SetFamily.from_bitmap(u.t, complement_bitmap(u.bitmap, u.t)))


def verify_universe(res: EnumerationResult) -> dict:
    """Run the full verification harness over every clutter of a result.

    A result is certified when it is made, so this reads only the
    f-vector of each A^v, tallied chunk by chunk over one block per key
    as the 8-byte records of `sets.block_layer_counts`. Each distinct
    record is decoded once (2,646 clutters at t = 6 have 7 f-vectors),
    and the checks run once per f-vector, counted with its
    multiplicity: theorem3 bounds, lemma2 bounds on the complement
    complex 2^[t] - A^v (f-vector C(t,k) - f_k) and the appendix
    identities, at every t. Failures are report content, not errors.
    """
    t = res.t
    tally: Counter[int] = Counter()
    for keys, up in res.chunks():
        tally.update(memoryview(block_layer_counts(up, t, len(keys))).cast("Q"))
    t3, l2 = theorem3_table(t), lemma2_table(t)
    passed = dict.fromkeys(("theorem3", "lemma2", "appendix"), 0)
    for record, n in tally.items():
        f = tuple(record.to_bytes(8, sys.byteorder)[:t + 1])
        fv = FVector(t, f)
        rest = FVector(t, tuple(binom(t, k) - fk for k, fk in enumerate(f)))
        passed["theorem3"] += n * verify_against(t3, fv)["pass"]
        passed["lemma2"] += n * verify_against(l2, rest)["pass"]
        passed["appendix"] += n * appendix_report(fv)["pass"]
    report: dict = {"t": t, "count": res.count}
    for name, ok in passed.items():
        report[name] = {"passed": ok, "failed": res.count - ok}
    report["pass"] = all(ok == res.count for ok in passed.values())
    return report
