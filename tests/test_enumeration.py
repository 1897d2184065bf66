import re
from itertools import permutations

import pytest
from hypothesis import given, settings

import oracles
from clutters import (
    Clutter,
    EnumerationResult,
    GroundSetTooLarge,
    NotSelfDual,
    blocker_berge,
    blocker_dense,
    check_appendix,
    complement_complex,
    enumerate_self_dual,
    family_report,
    is_self_dual,
    self_dual_criterion,
    up_closure,
    verify_lemma2,
    verify_theorem3,
    verify_universe,
)
from clutters import enumeration
from clutters.cli import main
from clutters.sets import SetFamily, bitmap_of, star_invariant, up_bitmap

from oracles import pruned_self_dual_search

from conftest import (
    FANO, TRIANGLE, clutter, not_applicable, self_dual_clutters,
)


def brute_force_self_dual(t):
    """Oracle: walk every antichain of 2^[t] (no pruning) and keep those
    whose Berge blocker equals the antichain itself."""
    out = []

    def rec(start, chosen):
        if chosen:
            cl = Clutter(t, tuple(chosen))
            if blocker_berge(cl) == cl:
                out.append(cl)
        for m in range(start, 1 << t):
            if any(c & ~m == 0 or m & ~c == 0 for c in chosen):
                continue
            chosen.append(m)
            rec(m + 1, chosen)
            chosen.pop()

    rec(1, [])
    return out


def relabel(cl, perm):
    """Apply a permutation of E_t (perm[i] is the image of element i+1)."""
    out = []
    for m in cl.members:
        x = 0
        for i in range(cl.t):
            if m >> i & 1:
                x |= 1 << (perm[i] - 1)
        out.append(x)
    return Clutter(cl.t, tuple(out))


def test_t3_exact_universe():
    res = enumerate_self_dual(3)
    assert res.count == 4
    assert set(res.items) == {
        clutter(3, [[1]]),
        clutter(3, [[2]]),
        clutter(3, [[3]]),
        clutter(3, TRIANGLE),
    }


def test_degenerate_ground_sets():
    assert enumerate_self_dual(1).count == 1
    assert enumerate_self_dual(2).count == 2


def test_matches_brute_force_oracle_t3_t4(enum4):
    for t, result in ((3, enumerate_self_dual(3)), (4, enum4)):
        oracle = brute_force_self_dual(t)
        assert result.count == len(oracle)
        assert set(result.items) == set(oracle)


def test_count_t5_against_brute_force(enum5):
    assert enum5.count == 81
    oracle = brute_force_self_dual(5)
    assert len(oracle) == 81
    assert set(enum5.items) == set(oracle)


def test_count_t6(enum6):
    assert enum6.count == 2646


def test_no_duplicates_and_certified(enum5):
    assert len(set(enum5.items)) == enum5.count
    for cl in enum5.items:
        assert blocker_dense(cl) == cl
        assert len(up_closure(cl)) == 16
        assert cl.upset_bitmap == up_bitmap(bitmap_of(cl.members, 5), 5)


def test_closed_under_relabeling(enum5):
    for t, items in ((4, enumerate_self_dual(4).items), (5, enum5.items)):
        universe = set(items)
        for perm in permutations(range(1, t + 1)):
            assert {relabel(cl, perm) for cl in universe} == universe


@pytest.fixture(scope="module")
def universes(enum4, enum5, enum6):
    """enumerate_self_dual(t) for t = 1..6."""
    return [enumerate_self_dual(t) for t in (1, 2, 3)] + [enum4, enum5, enum6]


def test_items_strictly_ascending_by_members(universes):
    for res in universes:
        members = [cl.members for cl in res.items]
        assert all(a < b for a, b in zip(members, members[1:]))


@pytest.fixture(scope="module")
def pruned_hits():
    """pruned_self_dual_search(t) for t = 1..6, by t."""
    return {t: pruned_self_dual_search(t) for t in range(1, 7)}


def test_matches_pruned_direct_search(universes, pruned_hits):
    for res in universes:
        oracle = pruned_hits[res.t]
        assert len(oracle) == len(set(oracle)) == res.count
        assert {cl.members for cl in res.items} == set(oracle)


def test_out_file_is_the_oracle_text(pruned_hits, tmp_path, capsys):
    # the oracle search and member-by-member writer share no code with
    # the enumeration or format_families
    for t, hits in pruned_hits.items():
        path = tmp_path / f"u{t}.fam"
        assert main(["enumerate", "--t", str(t), "--out", str(path)]) == 0
        assert capsys.readouterr().out == f"t={t} count={len(hits)}\n"
        want = "---\n".join(oracles.format_family(t, m) for m in sorted(hits))
        assert path.read_bytes() == want.encode()


def test_count_oracle(universes):
    # a sum over pairs of up-families on E_(t-2): the enumeration's own
    # decomposition, so it checks the code, not the argument; the
    # literal 1422564 (OEIS A001206), pruned_self_dual_search (t <= 6)
    # and brute_force_self_dual (t <= 5) are the independent checks
    for res in universes:
        assert oracles.self_dual_count(res.t) == res.count
    assert oracles.self_dual_count(7) == 1422564


def test_up_families_by_halves():
    for r, count in enumerate((2, 3, 6, 20, 168, 7581)):
        ups = enumeration._up_families(r)
        assert len(ups) == len(set(ups)) == count
        assert set(ups) == set(oracles.up_families(r))


def pair_free_blocks(t):
    """The block F0 | star(F0) << 2^(t-1) on 2^[t] of each pair-free
    up-family F0 on E_(t-1), sorted, from the oracle's up-families."""
    s = t - 1
    full, half = (1 << s) - 1, 1 << s
    blocks = []
    for f0 in oracles.up_families(s):
        members = [m for m in range(half) if f0 >> m & 1]
        if not any(f0 >> (full ^ m) & 1 for m in members):
            blocks.append(f0 | sum(1 << (half + m) for m in oracles.star(members, s)))
    return sorted(blocks)


@pytest.mark.parametrize("t", range(1, 7))
def test_each_pair_free_up_family_is_one_hit(t):
    # t = 1 has no E_(t-2): F0 = {} gives {{1}}; at t = 2 (E_0) and t =
    # 3, 4 the families G and H are narrower than a byte
    assert sorted(enumeration._hit_blocks(t)) == pair_free_blocks(t)
    if t == 1:
        assert enumerate_self_dual(1).items == (clutter(1, [[1]]),)


def test_rejects_large_t():
    for t in (-1, 0, 8):
        message = f"^full enumeration supported for 1 <= t <= 7, got {t}$"
        with pytest.raises(GroundSetTooLarge, match=message):
            enumerate_self_dual(t)


def test_complement_complex_roundtrip(enum4):
    for cl in enum4.items:
        up = up_closure(cl)
        cx = complement_complex(up)
        assert len(cx.family) + len(up) == 16
        assert not set(cx.family.members) & set(up.members)


def test_verify_universe_t3():
    report = verify_universe(enumerate_self_dual(3))
    assert report["pass"]
    assert report["count"] == 4
    assert report["theorem3"] == {"passed": 4, "failed": 0}
    assert report["lemma2"] == {"passed": 4, "failed": 0}
    assert report["appendix"] == {"passed": 4, "failed": 0}


def test_verify_universe_t2():
    # the bound tables hold at every t, so t = 2 runs the same checks as t = 4
    report = verify_universe(enumerate_self_dual(2))
    assert report["pass"]
    assert report["count"] == 2
    assert report["theorem3"] == {"passed": 2, "failed": 0}
    assert report["lemma2"] == {"passed": 2, "failed": 0}
    assert set(report) == {"t", "count", "theorem3", "lemma2", "appendix", "pass"}


def test_verify_universe_t4(enum4):
    report = verify_universe(enum4)
    assert report["pass"]
    assert report["theorem3"] == {"passed": 12, "failed": 0}
    assert report["lemma2"] == {"passed": 12, "failed": 0}
    assert report["appendix"] == {"passed": 12, "failed": 0}


@pytest.fixture(scope="module")
def reference_reports(universes):
    """oracles.verify_universe for t = 1..6, clutter by clutter, by t."""
    return {res.t: oracles.verify_universe(res.t, res) for res in universes}


def test_verify_universe_matches_per_clutter_reference(universes, reference_reports):
    for res in universes:
        assert verify_universe(res) == reference_reports[res.t]


@pytest.mark.parametrize("t, sets", [
    (4, [[1, 2], [2, 3], [3, 4]]),  # #A^v = 8 = 2^3, yet B(A) != A
    (3, [[1, 2]]),
    (5, [[1, 2], [3, 4, 5]]),
])
def test_verify_universe_certifies_every_clutter(t, sets):
    cl = clutter(t, sets)
    assert not is_self_dual(cl)
    with pytest.raises(NotSelfDual):
        verify_universe(EnumerationResult(t, (cl,)))


@settings(max_examples=40, deadline=None)
@given(self_dual_clutters())
def test_random_self_dual_clutters_beyond_t6(cl):
    t = cl.t
    assert blocker_dense(cl) == blocker_berge(cl) == cl
    assert is_self_dual(cl)
    # dropping a member leaves an antichain whose up-family is too small
    if len(cl) > 1:
        part = Clutter(t, cl.members[1:])
        assert not is_self_dual(part) and blocker_berge(part) != part
    assert verify_theorem3(cl)["pass"]
    assert verify_lemma2(complement_complex(up_closure(cl)))["pass"]
    checks = check_appendix(up_closure(cl))["checks"]
    assert {k for k, v in checks.items() if v == "n/a"} == not_applicable(t)
    assert all(v in ("pass", "n/a") for v in checks.values()), checks
    assert all(family_report(cl)["identities"].values())


def test_low_layers_intersect_on_enumerations(enum4, enum5, enum6):
    # the reason the bound tables hold at every t: below the middle, each
    # layer of A^v is an intersecting family (Erdos-Ko-Rado applies)
    results = {4: enum4, 5: enum5, 6: enum6}
    for t in range(1, 7):
        for cl in (results.get(t) or enumerate_self_dual(t)).items:
            assert oracles.low_layers_intersect(oracles.up_family(cl.members, t), t)
    # {1} and {2} are disjoint 1-sets of the up-family of {{1}, {2}} on E_5
    assert not oracles.low_layers_intersect(oracles.up_family((1, 2), 5), 5)


@settings(max_examples=40, deadline=None)
@given(self_dual_clutters())
def test_low_layers_intersect_beyond_t6(cl):
    assert oracles.low_layers_intersect(oracles.up_family(cl.members, cl.t), cl.t)


def test_criterion_agrees_on_enumerated(enum5):
    for cl in enum5.items:
        assert is_self_dual(cl) and self_dual_criterion(cl)


def test_certification_failure_raises_package_error(monkeypatch):
    # a certificate that disagrees with the search must stop the
    # enumeration with NotSelfDual, also under python -O
    monkeypatch.setattr("clutters.sets.star_invariant", lambda bm, t, n=1: False)
    with pytest.raises(NotSelfDual, match="certification"):
        enumerate_self_dual(3)


def test_each_hit_is_certified_once(monkeypatch):
    blocks = []  # blocks certified per call, whether one or many packed ones

    def counted(bm, t, n=1):
        blocks.append(n)
        return star_invariant(bm, t, n)

    monkeypatch.setattr("clutters.sets.star_invariant", counted)
    res = enumerate_self_dual(6)
    assert sum(blocks) == res.count == 2646
    assert verify_universe(res)["pass"]
    assert sum(blocks) == 2646  # verify_universe reads the search's certified up-sets
    # clutters built elsewhere are certified when their result is made, once
    foreign = EnumerationResult(6, tuple(Clutter(6, cl.members) for cl in res.items[:10]))
    assert verify_universe(foreign)["pass"]
    assert verify_universe(foreign)["pass"]
    assert sum(blocks) == 2656


def tallied_blocks(monkeypatch):
    """The n of every block_layer_counts call that verify_universe makes."""
    ns = []
    real = enumeration.block_layer_counts

    def counted(bm, t, n):
        ns.append(n)
        return real(bm, t, n)

    monkeypatch.setattr(enumeration, "block_layer_counts", counted)
    return ns


def test_verify_universe_tallies_each_clutter_once(monkeypatch, universes):
    # each chunk is tallied with its own block count, the last one too
    ns = tallied_blocks(monkeypatch)
    for res in universes:
        ns.clear()
        verify_universe(res)
        assert sum(ns) == res.count and len(ns) == len(res.upsets)


def test_verify_universe_reads_t_and_count_from_the_result(enum4, enum5):
    # the result is the one argument, so its ground set and count cannot
    # disagree with a second copy of either
    assert verify_universe(enum5)["t"] == 5
    report = verify_universe(EnumerationResult(4, enum4.items[:5]))
    assert report["t"] == 4 and report["count"] == 5 and report["pass"]
    assert report["theorem3"] == {"passed": 5, "failed": 0}


@pytest.mark.parametrize("t, items", [
    (6, lambda enum4, enum5: enum5.items),
    (5, lambda enum4, enum5: enum5.items + enum4.items[:1]),
    # not Clutters: a certificate that reads up-sets cannot tell them apart,
    # since the non-antichain {{1}, {1,2}} has a star-invariant up-set
    (2, lambda enum4, enum5: (SetFamily(2, (1, 3)),)),
    (4, lambda enum4, enum5: (SetFamily(4, enum4.items[0].members),)),
    (5, lambda enum4, enum5: enum5.items[:3] + (up_closure(enum5.items[3]),)),
])
def test_result_holds_only_clutters_on_its_ground_set(t, items, enum4, enum5):
    with pytest.raises(ValueError, match=f"not on E_{t}"):
        EnumerationResult(t, items(enum4, enum5))


def test_result_certifies_at_construction(enum4, enum5):
    for t in (0, 8):
        with pytest.raises(GroundSetTooLarge):
            EnumerationResult(t, ())
    path = clutter(5, [[1, 2], [2, 3], [3, 4]])
    for bad in (path, clutter(5, [[1, 2, 3, 4, 5]])):
        # the first clutter that fails is named, wherever it is
        with pytest.raises(NotSelfDual, match=re.escape(repr(bad))):
            EnumerationResult(5, enum5.items[:40] + (bad, path) + enum5.items[40:])
    # items keep their given order, and so do the keys and packed up-sets
    given = enum5.items[::-1]
    res = EnumerationResult(5, given)
    assert res.items == given and res.count == 81
    assert res.keys == enum5.keys[::-1]
    assert res.upsets == [sum(cl.upset_bitmap << 32 * h for h, cl in enumerate(given))]
    assert EnumerationResult(4, (), keys=enum4.keys).items == enum4.items


@pytest.mark.parametrize("chunk", [1, 2, 7])
def test_chunk_seams(chunk, monkeypatch, tmp_path, capsys, pruned_hits, reference_reports):
    # t <= 6 fits one CHUNK, so the seams between packed chunks are tested
    # with small ones: every hit is certified once, in its own block
    blocks = []

    def counted(bm, t, n=1):
        blocks.append(n)
        return star_invariant(bm, t, n)

    monkeypatch.setattr(enumeration, "CHUNK", chunk)
    monkeypatch.setattr("clutters.sets.star_invariant", counted)
    ns = tallied_blocks(monkeypatch)
    for t in (4, 5, 6):
        path = tmp_path / f"u{t}.fam"
        assert main(["enumerate", "--t", str(t), "--verify", "--out", str(path)]) == 0
        assert capsys.readouterr().out == f"t={t} count={len(pruned_hits[t])} verified=pass\n"
        want = "---\n".join(oracles.format_family(t, m) for m in sorted(pruned_hits[t]))
        assert path.read_bytes() == want.encode()
        blocks.clear()
        res = enumerate_self_dual(t)
        assert len(res.upsets) == -(-res.count // chunk) > 1
        assert sum(blocks) == res.count
        ns.clear()
        assert verify_universe(res) == reference_reports[t]
        assert sum(ns) == res.count and len(ns) == len(res.upsets)
        # clutters from outside, in another order, are certified across chunks
        given = EnumerationResult(t, res.items[::-1])
        assert sum(blocks) == 2 * res.count
        assert given.keys == res.keys[::-1]
        assert verify_universe(given) == reference_reports[t]
        bad = clutter(t, [[1, 2], [2, 3], [3, 4]])
        with pytest.raises(NotSelfDual, match=re.escape(repr(bad))):
            EnumerationResult(t, res.items[:-1] + (bad,) + res.items[-1:])


def few_self_dual_keys(t):
    """Keys of a few self-dual clutters on E_t, sorted: the singletons,
    the triangle and, at t = 7, the Fano plane."""
    clutters = [clutter(t, [[i]]) for i in range(1, t + 1)]
    if t >= 3:
        clutters.append(clutter(t, TRIANGLE))
    if t == 7:
        clutters.append(clutter(t, FANO))
    return sorted(bytes(cl.members) for cl in clutters)


@pytest.mark.parametrize("t", range(1, 8))
def test_a_flipped_bit_in_the_certified_up_sets_names_its_hit(t, monkeypatch):
    # certification reads the up-sets closed from the keys; one bit flipped
    # anywhere in one block (a cube at t <= 2 is padded to its byte) must
    # stop the run and name that block's clutter
    keys = few_self_dual_keys(t)
    width = max(8, 1 << t)
    real = enumeration.up_bitmap
    res = enumerate_self_dual(t) if t <= 6 else None
    assert enumeration._certified(t, keys) == real(
        sum(bitmap_of(key, t) << h * width for h, key in enumerate(keys)), t)
    for h in (0, len(keys) - 1):
        name = re.escape(repr(Clutter(t, tuple(keys[h]))))
        for bit in range(h * width, (h + 1) * width):
            monkeypatch.setattr(enumeration, "up_bitmap", lambda bm, u: real(bm, u) ^ 1 << bit)
            with pytest.raises(NotSelfDual, match=name):
                enumeration._certified(t, keys)
    if res is not None:
        # and through the search, which builds its blocks without
        # up_bitmap: the last hit's block is the last of the last chunk
        flip = (res.count - 1) % enumeration.CHUNK * width
        monkeypatch.setattr(
            enumeration, "up_bitmap", lambda bm, u: real(bm, u) ^ (1 << flip if u == t else 0))
        with pytest.raises(NotSelfDual, match=re.escape(repr(res.items[-1]))):
            enumerate_self_dual(t)


def test_enumeration_builds_no_clutter_until_items_are_read(monkeypatch, tmp_path, capsys):
    built = []
    antichain = Clutter._antichain.__func__

    def counted(cls, t, masks):
        built.append(t)
        return antichain(cls, t, masks)

    monkeypatch.setattr(Clutter, "_antichain", classmethod(counted))
    path = tmp_path / "u6.fam"
    assert main(["enumerate", "--t", "6", "--verify", "--out", str(path)]) == 0
    assert capsys.readouterr().out == "t=6 count=2646 verified=pass\n"
    assert built == []
    res = enumerate_self_dual(5)
    assert res.count == 81 and verify_universe(res)["pass"]
    assert "items" not in res.__dict__ and built == []
    assert len(res.items) == 81 and len(built) == 81
