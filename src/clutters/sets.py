"""Subsets and set families on a fixed ground set E_t = {1, ..., t}.

Conventions used throughout the package:

  * a subset of E_t is an int mask: element i is bit i-1, the empty set is 0;
  * masks must fit one machine word (t <= 62).

A family has two representations, one per job:

  * sparse: a duplicate-free tuple of masks in ascending numeric order, so
    equality of families is structural (SetFamily.members). Generators,
    clutters and blockers are built from it; it works for any t <= 62.
  * dense: one Python int of 2^t bits whose bit S is set iff subset S is a
    member (SetFamily.bitmap). Operations that range over all 2^t subsets
    (up- and down-closure, star, complements, minimal members of an
    up-set, f-vectors of an up-family, the dense blocker) work on it with
    word-parallel shift-or passes and need t <= 28; a bitmap costs
    2^t / 8 bytes, 32 MiB at t = 28.

A SetFamily holds the representation it was built from and derives the
other once, on first read: `SetFamily(t, masks)` its bitmap, and
`SetFamily.from_bitmap` (so `up_closure` and `star`) its members. Length,
membership and f-vectors read whichever is held, so a dense family's
members are decoded only when they are iterated, printed, compared or
hashed.

Minimal members take `_minimalize` on masks (the `Clutter` antichain
test, `min_elements`, Berge) and `minimal_bitmap` on bitmaps (the dense
blocker, `Complex.facets`). `minimal_bitmap` and `up_bitmap` also take
many families on one cube, packed one per block of one int, as the
enumeration holds its hits; `star_invariant` certifies and
`block_layer_counts` counts every block of such an int at once.
`up_closure` takes any family, whose up-closure is that of its minimal
members.

Subset inclusion is mask containment: a <= b as sets iff a & ~b == 0, which
also implies a <= b numerically; canonical order is therefore compatible
with inclusion (subsets never sort after supersets).
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator

from .errors import GroundSetTooLarge, TrivialClutter

MAX_T = 62
DENSE_MAX_T = 28


def check_ground_set(t: int) -> None:
    if not 1 <= t <= MAX_T:
        raise GroundSetTooLarge(f"ground set size must be in 1..{MAX_T}, got {t}")


def check_dense(t: int) -> None:
    check_ground_set(t)
    if t > DENSE_MAX_T:
        raise GroundSetTooLarge(
            f"operation enumerates all 2^t subsets and needs t <= {DENSE_MAX_T}, got {t}"
        )


def full_mask(t: int) -> int:
    return (1 << t) - 1


def mask_of(elements: Iterable[int], t: int) -> int:
    """Mask of a subset given by 1-based elements."""
    m = 0
    for e in elements:
        if not 1 <= e <= t:
            raise ValueError(f"element {e} outside ground set 1..{t}")
        m |= 1 << (e - 1)
    return m


def elements_of(mask: int) -> tuple[int, ...]:
    """1-based elements of a mask, ascending."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def iter_bits(mask: int) -> Iterator[int]:
    """Bit positions set in mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ------------------------------------------------------------- dense kernel
#
# Bit S of a dense bitmap stands for subset S. Element i+1 pairs bit S with
# bit S + 2^i, so one pass over element i is a shift by 2^i restricted to
# the positions low_i that lack the element. Up to _CACHE_T the t masks
# low_i and the t+1 size-layer masks are cached per t (about 2 (t+1) 2^t
# bits, 1.2 MiB at t = 18). A larger cube is split into the halves without
# and with element t, each a cube on E_(t-1), so no table of t 2^t bits is
# ever built; memory stays a small multiple of one bitmap. At t = 20-22
# the split was as fast as cached masks for the whole cube, or faster.

_CACHE_T = 18

# byte b -> positions of its set bits, and its bit-reversal; built by
# doubling over the bits. Star within one byte reverses the complement,
# and b ^ 0xFF = 255 - b.
_BYTE_BITS: list[tuple[int, ...]] = [()]
_REV_BYTE = [0]
for _j in range(8):
    _BYTE_BITS += [bits + (_j,) for bits in _BYTE_BITS]
    _REV_BYTE += [r | 0x80 >> _j for r in _REV_BYTE]
del _j
_STAR_BYTE = bytes(_REV_BYTE[::-1])
_POPCOUNT = bytes(map(len, _BYTE_BITS))
_NONZERO_RUN = re.compile(rb"[^\x00]+")


@lru_cache(maxsize=None)
def _low_masks(t: int) -> tuple[int, ...]:
    """low[i] has bit S set iff element i+1 is not in S; built by
    shift-doubling, since big-int division is quadratic."""
    n = 1 << t
    out = []
    for i in range(t):
        step = 1 << i
        x = (1 << step) - 1
        period = step << 1
        while period < n:
            x |= x << period
            period <<= 1
        out.append(x)
    return tuple(out)


@lru_cache(maxsize=None)
def _layer_masks(t: int) -> tuple[int, ...]:
    """layer[k] has bit S set iff |S| = k."""
    lay = [1]
    for j in range(t):
        shift = 1 << j
        lay = [
            (lay[k] if k <= j else 0) | (lay[k - 1] << shift if k else 0)
            for k in range(j + 2)
        ]
    return tuple(lay)


def _halves(bm: int, t: int) -> tuple[int, int, int]:
    """Bitmaps on E_(t-1) of the members without / with element t."""
    half = 1 << (t - 1)
    return bm & ((1 << half) - 1), bm >> half, half


def block_bytes(t: int) -> int:
    """Bytes of a bitmap on 2^[t]: 2^t / 8, and one below t = 3."""
    return max(1, 1 << t >> 3)


def bitmap_of(masks: Iterable[int], t: int) -> int:
    """Dense bitmap of a family given by masks in 0..2^t - 1."""
    buf = bytearray(block_bytes(t))
    for m in masks:
        buf[m >> 3] |= 1 << (m & 7)
    return int.from_bytes(buf, "little")


def members_of(bm: int, t: int) -> tuple[int, ...]:
    """Members of a dense bitmap, ascending; zero bytes are skipped in C."""
    raw = bm.to_bytes(block_bytes(t), "little")
    bits = _BYTE_BITS
    out: list[int] = []
    for run in _NONZERO_RUN.finditer(raw):
        base = run.start() << 3
        for byte in run.group():
            out += [base | j for j in bits[byte]]
            base += 8
    return tuple(out)


# Many families on one small cube can travel as one packed int: family h
# in bytes [h B, (h+1) B), B = block_bytes(t), so a cube of 2^t < 8 bits
# is padded to its byte. A pass over element i moves bit S to S + 2^i <
# 2^t, never out of its block, so up_bitmap and minimal_bitmap act on all
# the families at once, with each low_i repeated in every block: t ints
# as long as the packed one, built per call, for cubes up to _CACHE_T.
# star_bitmap, star_invariant and block_layer_counts take the number of
# blocks from the caller, since an empty trailing block leaves no bit in
# the int.


def _tiled(masks: tuple[int, ...], t: int, n: int) -> tuple[int, ...] | list[int]:
    """Masks on one cube 2^[t], each repeated in n packed blocks."""
    if n <= 1:
        return masks
    b = block_bytes(t)
    return [int.from_bytes(m.to_bytes(b, "little") * n, "little") for m in masks]


def _lows(bm: int, t: int) -> tuple[int, ...] | list[int]:
    """_low_masks(t), tiled over the blocks of bm if it has more than one."""
    return _tiled(_low_masks(t), t, -(-bm.bit_length() // (block_bytes(t) << 3)))


def up_bitmap(bm: int, t: int) -> int:
    """Up-closure within 2^[t]: t shift-or passes (a zeta transform), on
    every packed family of bm up to _CACHE_T and on one cube above."""
    if t > _CACHE_T:
        lo, hi, half = _halves(bm, t)
        lo = up_bitmap(lo, t - 1)
        hi = up_bitmap(hi, t - 1) | lo
        return lo | hi << half
    for i, low in enumerate(_lows(bm, t)):
        bm |= (bm & low) << (1 << i)
    return bm


def down_bitmap(bm: int, t: int) -> int:
    """Down-closure of one cube 2^[t], the mirror image of up_bitmap."""
    if t > _CACHE_T:
        lo, hi, half = _halves(bm, t)
        hi = down_bitmap(hi, t - 1)
        lo = down_bitmap(lo, t - 1) | hi
        return lo | hi << half
    for i, low in enumerate(_low_masks(t)):
        bm |= (bm >> (1 << i)) & low
    return bm


def minimal_bitmap(bm: int, t: int) -> int:
    """Members S with no member S - {e}: for an up-set, its minimal
    members; on packed families and cubes as up_bitmap."""
    if t > _CACHE_T:
        lo, hi, half = _halves(bm, t)
        hi = minimal_bitmap(hi, t - 1) & ~lo
        return minimal_bitmap(lo, t - 1) | hi << half
    above = 0
    for i, low in enumerate(_lows(bm, t)):
        above |= (bm & low) << (1 << i)
    return bm & ~above


def complement_bitmap(bm: int, t: int) -> int:
    """The family 2^[t] - F."""
    return bm ^ ((1 << (1 << t)) - 1)


def _words(raw: bytes, b: int) -> array:
    """raw as an array of its words of min(b, 8) bytes."""
    return array({1: "B", 2: "H", 4: "I"}.get(b, "Q"), raw)


def star_bitmap(bm: int, t: int, n: int = 1) -> int:
    """F* = {E_t - G : G not in F}: NOT, then reverse the 2^t bits; of
    each of the n families packed in bm, one by default.

    Each byte is complemented and bit-reversed by one table; reading the
    bytes back big-endian reverses their order. Packed, the bytes of
    every block are reversed at once, by swapping them within words and
    the words within blocks."""
    size = 1 << t
    if n == 1:
        if size < 8:
            return _STAR_BYTE[bm] >> (8 - size)
        return int.from_bytes(bm.to_bytes(size >> 3, "little").translate(_STAR_BYTE), "big")
    b = block_bytes(t)
    table = _STAR_BYTE if size >= 8 else bytes(x >> (8 - size) for x in _STAR_BYTE)
    words = _words(bm.to_bytes(n * b, "little").translate(table), b)
    words.byteswap()
    w = b // words.itemsize
    for j in range(w >> 1):
        words[j::w], words[w - 1 - j::w] = words[w - 1 - j::w], words[j::w]
    return int.from_bytes(words.tobytes(), "little")


def star_invariant(bm: int, t: int, n: int = 1) -> bool:
    """F* = F for each of the n families packed in bm, one by default:
    each holds exactly one set of each complementary pair. For an
    up-family A^v this is A = B(A), since B(A)^v = (A^v)*.

    n comes from the caller: an empty block (its star is 2^[t]) fails even
    at the end of bm, where it leaves no bit, and so does a bit past the
    n blocks."""
    if bm < 0 or bm >> (n * block_bytes(t) << 3):
        return False
    return star_bitmap(bm, t, n) == bm


def layer_counts(bm: int, t: int) -> list[int]:
    """Long f-vector of a bitmap: popcount of each size layer."""
    if t > _CACHE_T:
        lo, hi, _ = _halves(bm, t)
        counts = layer_counts(lo, t - 1) + [0]
        for k, c in enumerate(layer_counts(hi, t - 1)):
            counts[k + 1] += c
        return counts
    return [(bm & lay).bit_count() for lay in _layer_masks(t)]


def block_layer_counts(bm: int, t: int, n: int) -> bytearray:
    """Long f-vector of each of the n families packed in bm, t <= 7: one
    8-byte record per block, byte k holding f_k (C(7, 3) = 35 fits a
    byte). Per size layer, one AND with the tiled layer mask; each byte
    is popcounted by `translate`, the b bytes of each block are folded
    into its first by log2(b) shifted adds (no byte passes 8b <= 128, so
    none carries), and one strided slice moves the first bytes into
    the records."""
    if t > 7:
        raise ValueError(f"layer count records need t <= 7, got {t}")
    b = block_bytes(t)
    records = bytearray(8 * n)
    for k, lay in enumerate(_tiled(_layer_masks(t), t, n)):
        counts = int.from_bytes((bm & lay).to_bytes(n * b, "little").translate(_POPCOUNT), "little")
        w = b
        while w > 1:
            w >>= 1
            counts += counts >> (w << 3)
        records[k::8] = counts.to_bytes(n * b, "little")[::b]
    return records


def _minimalize(masks: Iterable[int]) -> list[int]:
    """Inclusion-minimal masks in ascending (size, mask) order. Distinct
    masks of one size never contain each other, so a mask is compared
    only with `below`, the masks kept before its size began."""
    kept: list[int] = []
    below, size = kept, -1
    for m in sorted(sorted(set(masks)), key=int.bit_count):
        if m.bit_count() > size:
            size, below = m.bit_count(), kept[:]
        for r in below:
            if r & ~m == 0:
                break
        else:
            kept.append(m)
    return kept


@dataclass(frozen=True, eq=False)
class SetFamily:
    """A canonically ordered, duplicate-free family of subsets of E_t."""

    t: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        check_ground_set(self.t)
        canon = tuple(sorted(set(self.members)))
        if canon and (canon[0] < 0 or canon[-1] > full_mask(self.t)):
            raise ValueError(f"member mask outside 2^[{self.t}]")
        object.__setattr__(self, "members", canon)

    @classmethod
    def from_sets(cls, t: int, sets: Iterable[Iterable[int]]) -> "SetFamily":
        return cls(t, tuple(mask_of(s, t) for s in sets))

    @staticmethod
    def from_bitmap(t: int, bm: int) -> "SetFamily":
        """Family of a dense bitmap in 0..2^(2^t) - 1, which it keeps as
        its `bitmap`; `members` is decoded from it on first read. Always
        a SetFamily, so no subclass invariant is skipped.
        """
        check_ground_set(t)
        if bm < 0 or bm >> (1 << t):
            raise ValueError(f"member mask outside 2^[{t}]")
        fam = object.__new__(SetFamily)
        object.__setattr__(fam, "t", t)
        fam.__dict__["bitmap"] = bm
        return fam

    def __getattr__(self, name: str):
        # only reached when `members` is not set: a family from from_bitmap
        if name != "members" or "bitmap" not in self.__dict__:
            raise AttributeError(name)
        members = self.__dict__["members"] = members_of(self.bitmap, self.t)
        return members

    @cached_property
    def bitmap(self) -> int:
        """Dense form: bit S is set iff S is a member (t <= 28)."""
        check_dense(self.t)
        return bitmap_of(self.members, self.t)

    @cached_property
    def upset_bitmap(self) -> int:
        """Bitmap of the up-closure F^v, once, from the members (t <= 28)."""
        check_dense(self.t)
        return up_bitmap(bitmap_of(self.members, self.t), self.t)

    def sets(self) -> tuple[tuple[int, ...], ...]:
        """Members as tuples of 1-based elements (for display)."""
        return tuple(elements_of(m) for m in self.members)

    def vertex_mask(self) -> int:
        """Union of all members, V(F)."""
        v = 0
        for m in self.members:
            v |= m
        return v

    def __len__(self) -> int:
        if "members" in self.__dict__:
            return len(self.members)
        return self.bitmap.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, mask: int) -> bool:
        if "members" in self.__dict__:
            return mask in self._member_set
        return mask >= 0 and bool(self.bitmap >> mask & 1)

    @cached_property
    def _member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def __eq__(self, other: object) -> bool:
        # Clutter and SetFamily with identical contents compare equal.
        if not isinstance(other, SetFamily):
            return NotImplemented
        return self.t == other.t and self.members == other.members

    def __hash__(self) -> int:
        return hash((self.t, self.members))

    def __repr__(self) -> str:
        shown = ",".join("{" + ",".join(map(str, s)) + "}" for s in self.sets())
        return f"{type(self).__name__}(t={self.t}, {{{shown}}})"


@dataclass(frozen=True, eq=False, repr=False)
class Clutter(SetFamily):
    """A SetFamily that is an antichain under inclusion."""

    def __post_init__(self) -> None:
        super().__post_init__()
        ms = self.members
        kept = set(_minimalize(ms))
        if len(kept) < len(ms):
            # the first member above another, and the first member below it
            above = next(m for m in ms if m not in kept)
            below = next(m for m in ms if m & ~above == 0)
            raise ValueError(f"not an antichain: {elements_of(below)} is contained"
                             f" in {elements_of(above)}")

    @classmethod
    def _antichain(cls, t: int, masks: Iterable[int]) -> "Clutter":
        """Clutter of distinct masks in 0..2^t - 1, in any order, that the
        package built as an antichain (`_minimalize` or `minimal_bitmap`
        output, or an enumeration key); the antichain test runs only on
        masks from outside."""
        cl = object.__new__(cls)
        object.__setattr__(cl, "t", t)
        object.__setattr__(cl, "members", tuple(sorted(masks)))
        return cl

    @property
    def nontrivial(self) -> bool:
        return self.members not in ((), (0,))

    @cached_property
    def self_dual(self) -> bool:
        """A = B(A), decided once per clutter. Where `blocker` takes the
        bitmap kernel this is (A^v)* = A^v on `upset_bitmap`, recomputed
        from the members; elsewhere it is Berge's blocker equality."""
        if _dense_blocker(self):
            return star_invariant(self.upset_bitmap, self.t)
        return blocker_berge(self) == self


def require_nontrivial(a: Clutter) -> None:
    if not a.nontrivial:
        raise TrivialClutter("operation requires a nontrivial clutter")


def star(f: SetFamily) -> SetFamily:
    """The family F* = {complement of G : G not in F}.

    #F* + #F = 2^t, and star is an involution. Requires t <= 28.
    """
    return SetFamily.from_bitmap(f.t, star_bitmap(f.bitmap, f.t))


def min_elements(f: SetFamily) -> Clutter:
    """Antichain of inclusion-minimal members; idempotent."""
    return Clutter._antichain(f.t, _minimalize(f.members))


def up_closure(f: SetFamily) -> SetFamily:
    """The increasing family f^v generated by any family f (that of its
    minimal members), held as the bitmap `f.upset_bitmap` (t <= 28;
    GroundSetTooLarge otherwise). Its members are decoded only when read."""
    return SetFamily.from_bitmap(f.t, f.upset_bitmap)


def blocker_dense(a: Clutter) -> Clutter:
    """Blocker on bitmaps: B(a) = min((a^v)*), since B(a)^v = (a^v)*.
    Requires t <= 28."""
    bm = minimal_bitmap(star_bitmap(a.upset_bitmap, a.t), a.t)
    return Clutter._antichain(a.t, members_of(bm, a.t))


def blocker_berge(a: Clutter) -> Clutter:
    """Blocker by Berge multiplication: distribute the singletons of each
    member over the partial transversals, minimalizing after every member.

    Members are processed in ascending (size, mask) order to keep the
    intermediate families small. Works for any t <= 62.
    """
    trans: list[int] = [0]
    for e in sorted(a.members, key=lambda x: (x.bit_count(), x)):
        new: set[int] = set()
        for tr in trans:
            if tr & e:
                new.add(tr)
            else:
                for i in iter_bits(e):
                    new.add(tr | (1 << i))
        trans = _minimalize(new)
    return Clutter._antichain(a.t, trans)


def blocker(a: Clutter) -> Clutter:
    """The blocker B(a): all inclusion-minimal blocking sets of a.

    Conventions for trivial inputs: blocker of the empty clutter is {0}
    (the empty set blocks vacuously) and blocker of {0} is the empty
    clutter (nothing meets the empty set). Both backends agree on these.

    Takes the bitmap kernel (`blocker_dense`) for t <= 28 unless a has at
    most t - 12 members, and Berge (`blocker_berge`) otherwise; call either
    directly to pick the backend. The bitmap kernel costs about
    2^t / 2^20 * 5 ms whatever the input; Berge grows with the members and
    the blocker. On random clutters with members of 3-7 elements, Berge
    was the faster one up to about 8 members at t = 20, 12 at t = 24 and
    16 at t = 28 (0.4 ms against 1.4 s for 4 members at t = 28).
    """
    return blocker_dense(a) if _dense_blocker(a) else blocker_berge(a)


def _dense_blocker(a: Clutter) -> bool:
    """`blocker`'s backend rule: the bitmap kernel for t <= 28 unless a
    has at most t - 12 members."""
    return a.t <= DENSE_MAX_T and len(a) > a.t - 12


def is_self_dual(a: Clutter) -> bool:
    """True iff B(a) = a: the verdict `Clutter.self_dual`, decided once
    per clutter as (a^v)* = a^v on bitmaps, or by Berge where `blocker`
    would take Berge. No blocker is built on the bitmap side."""
    require_nontrivial(a)
    return a.self_dual


def self_dual_criterion(a: Clutter) -> bool:
    """Cardinality test: #a^v = 2^(t-1).

    This is implied by self-duality but does not imply it: the clutter
    {{1,2},{2,3},{3,4}} on E_4 has an 8-member up-closure while its blocker
    is {{1,3},{2,3},{2,4}}. Use is_self_dual for the certified check.
    """
    require_nontrivial(a)
    return len(up_closure(a)) == 1 << (a.t - 1)
