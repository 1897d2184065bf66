import ast
import random
from pathlib import Path

import pytest

import clutters
from clutters import (
    Clutter,
    GroundSetTooLarge,
    SetFamily,
    TrivialClutter,
    blocker,
    blocker_berge,
    blocker_dense,
    is_self_dual,
    min_elements,
    self_dual_criterion,
    star,
    up_closure,
)
from clutters.sets import elements_of, full_mask, mask_of

from conftest import CONE5, CONE5_UPSET, SINGLETON2, TRIANGLE, clutter, family
from oracles import blocker_brute as oracle_blocker
from oracles import star as oracle_star


# --- independent oracles -------------------------------------------------

def all_antichains(t):
    """Every antichain of 2^[t] (including the empty one and {0})."""
    masks = list(range(1 << t))
    out = []

    def rec(i, chosen):
        out.append(tuple(chosen))
        for j in range(i, len(masks)):
            m = masks[j]
            if any(c & ~m == 0 or m & ~c == 0 for c in chosen):
                continue
            chosen.append(m)
            rec(j + 1, chosen)
            chosen.pop()

    rec(0, [])
    return out


def random_clutter(rng, t):
    while True:
        n = rng.randint(1, 2 * t)
        fam = SetFamily(t, tuple(rng.randrange(1, 1 << t) for _ in range(n)))
        cl = min_elements(fam)
        if cl.nontrivial:
            return cl


# --- masks and families ---------------------------------------------------

def test_mask_roundtrip():
    assert mask_of([1, 3], 3) == 0b101
    assert elements_of(0b101) == (1, 3)
    assert mask_of([], 5) == 0
    with pytest.raises(ValueError):
        mask_of([4], 3)


def test_family_canonicalization():
    f = SetFamily(3, (5, 1, 5, 3))
    assert f.members == (1, 3, 5)
    assert len(f) == 3
    assert 3 in f and 2 not in f


def test_family_equality_across_types():
    assert Clutter(3, (1, 2)) == SetFamily(3, (2, 1))
    assert SetFamily(3, (1,)) != SetFamily(4, (1,))


def test_clutter_rejects_nested_members():
    with pytest.raises(ValueError):
        Clutter.from_sets(3, [[1], [1, 2]])


def test_ground_set_limits():
    with pytest.raises(GroundSetTooLarge):
        SetFamily(63, ())
    with pytest.raises(GroundSetTooLarge):
        star(SetFamily(29, (1,)))


# --- star ------------------------------------------------------------------

def test_star_triangle_upset_fixed_point():
    up = family(3, [[1, 2], [1, 3], [2, 3], [1, 2, 3]])
    assert star(up) == up


def test_star_trivial_cases():
    assert star(SetFamily(2, ())) == SetFamily(2, (0, 1, 2, 3))
    assert star(SetFamily(3, tuple(range(8)))) == SetFamily(3, ())


def test_star_matches_oracle_and_involutes():
    rng = random.Random(2)
    for _ in range(300):
        t = rng.randint(1, 8)
        memb = tuple(sorted(rng.sample(range(1 << t), rng.randint(0, 1 << t))))
        f = SetFamily(t, memb)
        s = star(f)
        assert s.members == oracle_star(memb, t)
        assert len(s) + len(f) == 1 << t
        assert star(s) == f


# --- up-closures -----------------------------------------------------------

def test_principal_upset_of_empty_set_is_power_set():
    up = up_closure(Clutter(3, (0,)))
    assert up == SetFamily(3, tuple(range(8)))


def test_principal_upset_of_ground_set_is_itself():
    up = up_closure(Clutter(4, (full_mask(4),)))
    assert up == SetFamily(4, (full_mask(4),))


def test_principal_upset_singleton_t4():
    up = up_closure(Clutter(4, (mask_of([2], 4),)))
    assert len(up) == 8
    counts = [0] * 5
    for m in up:
        counts[m.bit_count()] += 1
    assert counts == [0, 1, 3, 3, 1]


def test_up_closure_triangle_t3_and_t4():
    assert up_closure(clutter(3, TRIANGLE)) == family(
        3, [[1, 2], [1, 3], [2, 3], [1, 2, 3]]
    )
    assert up_closure(clutter(4, TRIANGLE)) == family(
        4,
        [[1, 2], [1, 3], [2, 3], [1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4],
         [1, 2, 3, 4]],
    )


def test_up_closure_cone5_matches_listing():
    assert up_closure(clutter(5, CONE5)) == family(5, CONE5_UPSET)


def test_upset_membership_reads_the_bitmap():
    up = up_closure(clutter(20, [[1, 2], [3]]))
    assert mask_of([1, 2, 7], 20) in up
    assert mask_of([3, 19], 20) in up
    assert mask_of([1, 7], 20) not in up


# --- minimal members ----------------------------------------------------

def test_min_elements_examples():
    assert min_elements(family(3, [[1], [1, 2], [2, 3]])) == clutter(3, [[1], [2, 3]])
    anti = clutter(3, TRIANGLE)
    assert min_elements(anti) == anti
    assert min_elements(SetFamily(4, tuple(range(16)))) == Clutter(4, (0,))


# --- blockers ----------------------------------------------------------------

def test_blocker_known_fixed_points():
    tri = clutter(3, TRIANGLE)
    assert blocker(tri) == tri
    assert blocker(clutter(4, [[1, 2]])) == clutter(4, [[1], [2]])
    cone = clutter(5, CONE5)
    assert blocker(cone) == cone


def test_blocker_trivial_conventions():
    assert blocker(Clutter(3, ())) == Clutter(3, (0,))
    assert blocker(Clutter(3, (0,))) == Clutter(3, ())
    assert blocker_berge(Clutter(3, ())) == Clutter(3, (0,))
    assert blocker_berge(Clutter(3, (0,))) == Clutter(3, ())


def test_blocker_methods_agree_exhaustively_small_t():
    for t in (2, 3):
        for chosen in all_antichains(t):
            cl = Clutter(t, chosen)
            d = blocker_dense(cl)
            assert d == blocker_berge(cl)
            assert d.members == oracle_blocker(chosen, t)


def test_blocker_methods_agree_random():
    rng = random.Random(3)
    for _ in range(300):
        cl = random_clutter(rng, rng.randint(4, 9))
        assert blocker_dense(cl) == blocker_berge(cl)


def test_blocker_involution_exhaustive_t4():
    for t in (3, 4):
        for chosen in all_antichains(t):
            if chosen in ((), (0,)):
                continue
            cl = Clutter(t, chosen)
            assert blocker(blocker(cl)) == cl


def test_blocker_star_identity_exhaustive_t4():
    for t in (3, 4):
        for chosen in all_antichains(t):
            if chosen in ((), (0,)):
                continue
            cl = Clutter(t, chosen)
            assert up_closure(blocker(cl)) == star(up_closure(cl))


def test_blocker_star_identity_random():
    rng = random.Random(4)
    for _ in range(200):
        cl = random_clutter(rng, rng.randint(5, 9))
        assert up_closure(blocker(cl)) == star(up_closure(cl))


def test_blocker_berge_large_ground_set():
    # dense sweep impossible at t = 40; Berge handles it
    cl = clutter(40, [[1, 2], [2, 3], [39, 40]])
    b = blocker_berge(cl)
    assert b == clutter(40, [[1, 3, 39], [1, 3, 40], [2, 39], [2, 40]])
    assert blocker_berge(b) == cl


# --- self-duality -------------------------------------------------------------

def test_is_self_dual_examples():
    assert is_self_dual(clutter(3, SINGLETON2))
    assert not is_self_dual(clutter(3, [[1, 2]]))
    assert blocker(clutter(3, [[1, 2]])) == clutter(3, [[1], [2]])
    assert is_self_dual(clutter(5, CONE5))


def test_is_self_dual_rejects_trivial():
    with pytest.raises(TrivialClutter):
        is_self_dual(Clutter(3, ()))
    with pytest.raises(TrivialClutter):
        is_self_dual(Clutter(3, (0,)))
    with pytest.raises(TrivialClutter):
        self_dual_criterion(Clutter(3, (0,)))


def berge_verdict(cl):
    """Self-duality by the definition: the Berge blocker equals cl."""
    return blocker_berge(cl) == cl


def test_is_self_dual_agrees_with_berge_on_random_clutters():
    rng = random.Random(9)
    seen = set()
    for _ in range(400):
        t = rng.randint(1, 8)
        size = rng.randint(1, t)
        cl = min_elements(family(t, [rng.sample(range(1, t + 1), rng.randint(1, size))
                                     for _ in range(rng.randint(1, 6))]))
        verdict = is_self_dual(cl)
        assert verdict == berge_verdict(cl), cl
        seen.add(verdict)
    assert seen == {True, False}


def test_is_self_dual_on_the_berge_side():
    # the E_4 path passes the count yet is not self-dual, on both sides
    path = clutter(4, [[1, 2], [2, 3], [3, 4]])
    assert not is_self_dual(path) and not berge_verdict(path)
    # t = 30 is beyond the bitmap kernel, so the verdict is Berge's
    for sets, verdict in ((TRIANGLE, True), (SINGLETON2, True), ([[1, 2]], False),
                          ([[1, 2], [2, 3], [3, 4]], False)):
        cl = clutter(30, sets)
        assert is_self_dual(cl) == berge_verdict(cl) == verdict
        assert "upset_bitmap" not in cl.__dict__
    # a few members at t = 20 take Berge too, as `blocker` would
    cl = clutter(20, TRIANGLE)
    assert is_self_dual(cl) and "upset_bitmap" not in cl.__dict__


def test_self_dual_criterion_examples():
    assert self_dual_criterion(clutter(4, SINGLETON2))
    assert self_dual_criterion(clutter(4, TRIANGLE))
    assert not self_dual_criterion(clutter(3, [[1, 2, 3]]))


def test_criterion_is_necessary_not_sufficient():
    # self-duality always forces the half count ...
    for t in (3, 4):
        for chosen in all_antichains(t):
            if chosen in ((), (0,)):
                continue
            cl = Clutter(t, chosen)
            if is_self_dual(cl):
                assert self_dual_criterion(cl)
    # ... but the converse fails: the 4-path generates a half-size
    # up-family without being self-dual
    path = clutter(4, [[1, 2], [2, 3], [3, 4]])
    assert self_dual_criterion(path)
    assert not is_self_dual(path)
    assert blocker(path) == clutter(4, [[1, 3], [2, 3], [2, 4]])


def test_modules_import_no_private_name_from_a_sibling():
    # a private helper stays private to its module; what a sibling needs
    # gets a public name there
    found = []
    for path in sorted(Path(clutters.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level >= 1:
                found += [f"{path.name}:{node.lineno} {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert found == []
