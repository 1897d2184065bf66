"""Differential and property tests for the dense bitmap kernel in sets.py.

Every kernel operation is checked against the tuple loops in oracles.py,
the blocker backends against each other and against brute force, and the
split path (cubes above the mask-cache limit) against the cached path.
"""

import contextlib
import math
import random
import time
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from clutters import (
    Clutter,
    Complex,
    NotStarSelfDual,
    SetFamily,
    StarSelfDualFamily,
    alexander_dual,
    blocker,
    blocker_berge,
    blocker_dense,
    check_appendix,
    complement_complex,
    down_closure,
    f_vector,
    min_elements,
    random_star_selfdual,
    star,
    up_closure,
)
from clutters import sets
from clutters.sets import (
    DENSE_MAX_T,
    bitmap_of,
    block_layer_counts,
    complement_bitmap,
    down_bitmap,
    full_mask,
    layer_counts,
    members_of,
    minimal_bitmap,
    star_bitmap,
    star_invariant,
    up_bitmap,
)

from conftest import families

SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def clutters(draw, max_t=8, nontrivial=False):
    t, members = draw(families(max_t))
    cl = min_elements(SetFamily(t, members))
    if nontrivial:
        assume(cl.nontrivial)
    return cl


@contextlib.contextmanager
def cache_limit(limit):
    """Run with masks cached only up to `limit`, so larger cubes split."""
    saved = sets._CACHE_T
    sets._CACHE_T = limit
    try:
        yield
    finally:
        sets._CACHE_T = saved


# --- encode / decode ---------------------------------------------------------

@SETTINGS
@given(families())
def test_encode_decode_round_trip(tf):
    t, members = tf
    bm = bitmap_of(members, t)
    assert bm == sum(1 << m for m in members)
    assert members_of(bm, t) == members
    fam = SetFamily.from_bitmap(t, bm)
    assert fam == SetFamily(t, members)
    assert SetFamily(t, members).bitmap == bm


@SETTINGS
@given(st.integers(1, 8).flatmap(
    lambda t: st.tuples(st.just(t), st.integers(0, (1 << (1 << t)) - 1))))
def test_from_bitmap_is_the_family_of_its_bits(tb):
    t, bm = tb
    fam = SetFamily.from_bitmap(t, bm)
    want = SetFamily(t, [m for m in range(1 << t) if bm >> m & 1])
    masks = range(-1, (1 << t) + 1)
    assert len(fam) == len(want)
    assert [m in fam for m in masks] == [m in want for m in masks]
    assert "members" not in fam.__dict__
    assert fam == want and hash(fam) == hash(want)
    assert "members" in fam.__dict__
    assert [m in fam for m in masks] == [m in want for m in masks]


def test_dense_families_decode_members_only_when_read():
    # F* = F families at t = 20 and 16; counting and certifying read the bitmap
    tri = up_closure(Clutter.from_sets(20, [[1, 2], [1, 3], [2, 3]]))
    rnd = random_star_selfdual(16, 5).family
    for fam in (tri, rnd, star(rnd)):
        t = fam.t
        assert len(fam) == 1 << (t - 1)
        assert (0 in fam) != (full_mask(t) in fam)
        assert -1 not in fam and 1 << t not in fam
        assert f_vector(fam).total() == len(fam)
        assert star_invariant(fam.bitmap, t)
        StarSelfDualFamily(fam)
        assert check_appendix(fam)["pass"]
        assert "members" not in fam.__dict__
        assert list(fam) == list(members_of(fam.bitmap, t))
    assert star(rnd) == rnd


def test_from_bitmap_checks_what_it_does_not_trust():
    with pytest.raises(ValueError, match="outside"):
        SetFamily.from_bitmap(2, 1 << 4)
    # a bitmap outside 0..2^(2^t) - 1 is rejected input at every t
    for t in range(1, 7):
        for bm in (1 << (1 << t), -1):
            for cls in (SetFamily, Clutter):
                with pytest.raises(ValueError, match=rf"member mask outside 2\^\[{t}\]"):
                    cls.from_bitmap(t, bm)
    # a bitmap is never taken as a clutter unchecked: called on Clutter,
    # from_bitmap still builds a plain family, and a clutter of its
    # members takes the antichain test like any input
    bm = bitmap_of((1, 3), 3)
    assert type(Clutter.from_bitmap(3, bm)) is SetFamily
    with pytest.raises(ValueError, match="not an antichain"):
        Clutter(3, members_of(bm, 3))
    assert Clutter(3, members_of(bitmap_of((3, 4), 3), 3)).members == (3, 4)


@SETTINGS
@given(families())
def test_minimal_members_of_an_up_set_are_an_antichain(tf):
    t, members = tf
    bm = minimal_bitmap(up_bitmap(bitmap_of(members, t), t), t)
    assert oracles.is_antichain(members_of(bm, t))
    # the unchecked constructor agrees with the checked one
    assert Clutter._antichain(t, members_of(bm, t)) == Clutter(t, members_of(bm, t))


@SETTINGS
@given(families())
def test_minimalize_output_is_an_antichain(tf):
    t, members = tf
    kept = sets._minimalize(members)
    assert oracles.is_antichain(kept)
    assert sorted(kept) == [m for m in members if not any(r != m and r & ~m == 0 for r in members)]
    # the unchecked constructor agrees with the checked one
    assert Clutter._antichain(t, kept) == Clutter(t, kept)


masks_up_to_t9 = st.integers(1, 9).flatmap(
    lambda t: st.tuples(st.just(t), st.lists(st.integers(0, (1 << t) - 1), max_size=80)))


@SETTINGS
@given(masks_up_to_t9)
def test_minimalize_matches_the_all_pairs_reference(tm):
    _, masks = tm
    assert sets._minimalize(masks) == oracles.minimalize(masks)


@SETTINGS
@given(masks_up_to_t9)
def test_antichain_error_names_the_first_contained_pair(tm):
    t, masks = tm
    pair = oracles.first_contained_pair(masks)
    if pair is None:
        assert Clutter(t, masks).members == tuple(sorted(set(masks)))
    else:
        i, j = (sets.elements_of(m) for m in pair)
        with pytest.raises(ValueError) as err:
            Clutter(t, masks)
        assert str(err.value) == f"not an antichain: {i} is contained in {j}"


def test_decode_skips_long_zero_runs():
    t = 16
    members = (0, 7, 8, 4095, 40000, (1 << t) - 1)
    assert members_of(bitmap_of(members, t), t) == members
    assert members_of(0, t) == ()


# --- kernel operations against the tuple loops ---------------------------------

@SETTINGS
@given(families())
def test_kernel_matches_tuple_loops(tf):
    t, members = tf
    bm = bitmap_of(members, t)
    up = up_bitmap(bm, t)
    assert members_of(up, t) == oracles.up_family(members, t)
    assert members_of(down_bitmap(bm, t), t) == oracles.down_family(members)
    assert members_of(minimal_bitmap(bm, t), t) == oracles.minimal_members(members)
    assert members_of(minimal_bitmap(up, t), t) == min_elements(SetFamily(t, members)).members
    assert layer_counts(bm, t) == oracles.f_counts(members, t)
    assert members_of(complement_bitmap(bm, t), t) == oracles.rest_family(members, t)


@SETTINGS
@given(families())
def test_star_matches_definition_and_involutes(tf):
    t, members = tf
    bm = bitmap_of(members, t)
    s = star_bitmap(bm, t)
    assert members_of(s, t) == oracles.star(members, t)
    assert star_bitmap(s, t) == bm
    assert s.bit_count() + bm.bit_count() == 1 << t


@SETTINGS
@given(families())
def test_split_path_matches_cached_path(tf):
    t, members = tf
    bm = bitmap_of(members, t)
    up = up_bitmap(bm, t)
    want = (up, down_bitmap(bm, t), minimal_bitmap(bm, t), minimal_bitmap(up, t),
            layer_counts(bm, t))
    with cache_limit(1):
        got = (up_bitmap(bm, t), down_bitmap(bm, t), minimal_bitmap(bm, t),
               minimal_bitmap(up, t), layer_counts(bm, t))
    assert got == want


@st.composite
def generator_lists(draw):
    """(t, gens): 1-40 generator tuples on E_t, t = 1..7, among them ()
    (the empty up-family) and (0,) (the full cube) with fair odds."""
    t = draw(st.integers(1, 7))
    gens = st.one_of(
        st.just(()), st.just((0,)),
        st.lists(st.integers(0, (1 << t) - 1), max_size=6, unique=True).map(sorted).map(tuple),
    )
    return t, draw(st.lists(gens, min_size=1, max_size=40))


def pack(bitmaps, t):
    """Bitmaps of one cube packed one per block: max(8, 2^t) bits each, so
    a cube of 2^t < 8 bits is padded to its byte."""
    width = max(8, 1 << t)
    return sum(bm << h * width for h, bm in enumerate(bitmaps))


def unpack(bm, t, n):
    """The first n blocks of a packed bitmap."""
    width = max(8, 1 << t)
    return [bm >> h * width & ((1 << width) - 1) for h in range(n)]


@SETTINGS
@given(generator_lists())
@example((1, [(), (0,), (1,)]))
@example((2, [(0,), (), (3,), (1, 2)]))
@example((7, [(0,)] * 3 + [()]))
def test_packed_kernels_act_on_each_block(tg):
    # up_bitmap and minimal_bitmap on a packed int tile the masks over the
    # blocks; a single family takes the cached masks, and the tuple oracles
    # share no code with either. A cube at t <= 2 is narrower than its
    # byte; no bit may leave its block
    t, gens = tg
    n = len(gens)
    width = max(8, 1 << t)
    raw = [bitmap_of(g, t) for g in gens]
    ups = [bitmap_of(oracles.up_family(g, t), t) for g in gens]
    packed = pack(raw, t)
    assert unpack(packed, t, n) == raw
    closed = unpack(up_bitmap(packed, t), t, n)
    assert closed == [up_bitmap(bm, t) for bm in raw] == ups
    mins = minimal_bitmap(pack(ups, t), t)
    assert mins >> n * width == 0
    assert unpack(mins, t, n) == [minimal_bitmap(u, t) for u in ups]
    assert [members_of(m, t) for m in unpack(mins, t, n)] == [
        oracles.minimal_members(oracles.up_family(g, t)) for g in gens
    ]
    # re-encoded from its minimal members, each block closes to the same up-family
    hits = [members_of(m, t) for m in unpack(mins, t, n)]
    again = up_bitmap(pack([bitmap_of(h, t) for h in hits], t), t)
    assert again >> n * width == 0
    assert unpack(again, t, n) == ups
    # every block starred, certified and counted at once, against the tuple oracles
    stars = [oracles.star(oracles.up_family(g, t), t) for g in gens]
    assert unpack(star_bitmap(again, t, n), t, n) == [bitmap_of(s, t) for s in stars]
    fixed = [s == oracles.up_family(g, t) for s, g in zip(stars, gens)]
    assert star_invariant(again, t, n) == all(fixed)
    # one 8-byte record per block, byte k holding f_k, the bytes past f_t zero
    records = block_layer_counts(again, t, n)
    assert [tuple(records[8 * h:8 * h + 8]) for h in range(n)] == [
        tuple(oracles.f_counts(oracles.up_family(g, t), t)) + (0,) * (7 - t) for g in gens
    ]


@pytest.mark.parametrize("n", [1, 2, 7])
@pytest.mark.parametrize("t", range(1, 8))
def test_layer_count_records_match_layer_counts(t, n):
    # the empty block and the full cube (f_k = C(t, k), 35 at t = 7 and
    # k = 3) among random ones; every block's record is its layer_counts
    full = (1 << (1 << t)) - 1
    rng = random.Random(t * 10 + n)
    blocks = ([0, full] + [rng.getrandbits(1 << t) for _ in range(n)])[:n]
    records = block_layer_counts(pack(blocks, t), t, n)
    assert len(records) == 8 * n
    for h, bm in enumerate(blocks):
        assert list(records[8 * h:8 * h + t + 1]) == layer_counts(bm, t)
        assert not any(records[8 * h + t + 1:8 * h + 8])
    with pytest.raises(ValueError, match="t <= 7"):
        block_layer_counts(0, 8, 1)


@pytest.mark.parametrize("t", range(1, 8))
def test_packed_star_invariant_tests_every_block(t):
    # the principal up-sets of {1} and {t} are self-dual; the star of the
    # empty family is 2^[t], so an empty block fails, also at the end,
    # where it leaves no bit
    ok = [up_bitmap(1 << m, t) for m in (1, 1 << (t - 1))]
    assert star_invariant(pack(ok, t), t, 2)
    assert star_invariant(pack(ok * 3, t), t, 6)
    assert not star_invariant(pack(ok, t), t, 3)
    assert not star_invariant(pack([ok[0], 0, ok[1]], t), t, 3)
    # a block past the n counted ones, or any one bit flipped, padding too
    assert not star_invariant(pack(ok * 2, t), t, 3)
    width = max(8, 1 << t)
    for bit in range(2 * width):
        assert not star_invariant(pack(ok, t) ^ 1 << bit, t, 2)
# --- blocker ---------------------------------------------------------------------

@SETTINGS
@given(clutters())
def test_blocker_backends_agree_with_brute_force(cl):
    want = oracles.blocker_brute(cl.members, cl.t)
    assert oracles.blocker_sweep(cl.members, cl.t) == want
    assert blocker_dense(cl).members == want
    assert blocker_berge(cl).members == want
    assert blocker(cl).members == want


@SETTINGS
@given(clutters(nontrivial=True))
def test_blocker_is_an_involution(cl):
    for backend in (blocker_dense, blocker_berge):
        assert backend(backend(cl)) == cl


@SETTINGS
@given(clutters())
def test_blocker_up_closure_is_star_of_up_closure(cl):
    b = blocker_dense(cl)
    assert up_closure(b).bitmap == star_bitmap(up_closure(cl).bitmap, cl.t)
    assert up_closure(b).members == oracles.star(
        oracles.up_family(cl.members, cl.t), cl.t)


# --- complexes and star-self-dual families ---------------------------------------------

@SETTINGS
@given(families(max_t=7))
def test_complex_operations_match_tuple_loops(tf):
    t, members = tf
    assume(members)
    c = down_closure(SetFamily(t, members))
    assert c.family.members == oracles.down_family(members)
    if c.vertex_mask:
        d = alexander_dual(c)
        assert d.family.members == oracles.alexander_dual(c.family.members, c.vertex_mask)
    if oracles.is_down_closed(members):
        assert Complex(SetFamily(t, members)).family.members == members
    else:
        with pytest.raises(ValueError, match="not downward closed"):
            Complex(SetFamily(t, members))


@SETTINGS
@given(families())
def test_facets_are_the_maximal_faces(tf):
    t, members = tf
    assume(members)
    c = down_closure(SetFamily(t, members))
    assert c.facets.members == oracles.maximal_members(c.family.members)
    assert c.facets.members == oracles.maximal_members(members)


@SETTINGS
@given(clutters(max_t=7))
def test_complement_complex_matches_tuple_loop(cl):
    up = up_closure(cl)
    assume(len(up) < 1 << cl.t)
    cx = complement_complex(up)
    assert cx.family.members == oracles.rest_family(up.members, cl.t)


@SETTINGS
@given(families(max_t=6))
def test_star_self_dual_family_pair_check(tf):
    t, members = tf
    fam = SetFamily(t, members)
    if oracles.star(members, t) == members:
        assert StarSelfDualFamily(fam).family == fam
    else:
        with pytest.raises(NotStarSelfDual):
            StarSelfDualFamily(fam)


# --- one large cube ------------------------------------------------------------------

def test_t24_blocker_and_f_vector_of_a_small_clutter():
    t = 24
    assert t <= DENSE_MAX_T
    a = Clutter.from_sets(t, [[1, 2, 3], [3, 4, 5, 6], [7, 8], [2, 9, 24]])
    assert blocker_dense(a) == blocker_berge(a)
    # inclusion-exclusion over the members: the k-sets containing all of a
    # union U number C(t - |U|, k - |U|), and all of them 2^(t - |U|)
    f = [0] * (t + 1)
    total = 0
    for r in range(1, len(a) + 1):
        for group in combinations(a.members, r):
            u = 0
            for g in group:
                u |= g
            size, sign = u.bit_count(), (-1) ** (r + 1)
            total += sign * 2 ** (t - size)
            for k in range(size, t + 1):
                f[k] += sign * math.comb(t - size, k - size)
    fv = f_vector(up_closure(a))
    assert fv.counts == tuple(f)
    assert fv.total() == total == len(up_closure(a))


def test_t16_middle_layer_takes_no_pair_loop():
    # the 12,870 8-sets of E_16: an antichain of one size, whose blocker is
    # the 11,440 9-sets; a loop over member pairs would take seconds here
    t = 16
    layer = [m for m in range(1 << t) if m.bit_count() == 8]
    start = time.perf_counter()
    a = Clutter(t, layer)
    assert len(a) == 12870
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    assert min_elements(a) == a
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    b = blocker(a)
    assert len(b) == 11440 and all(m.bit_count() == 9 for m in b)
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    assert len(up_closure(a)) == 39203
    assert time.perf_counter() - start < 1.0


def test_t18_facets_read_the_bitmap():
    # faces meeting {1,2,3} at most once: facets E_18 - {i, j} for i < j <= 3
    c = complement_complex(up_closure(Clutter.from_sets(18, [[1, 2], [1, 3], [2, 3]])))
    start = time.perf_counter()
    facets = c.facets
    assert time.perf_counter() - start < 0.05
    full = full_mask(18)
    assert facets.members == tuple(sorted(full ^ m for m in (3, 5, 6)))
