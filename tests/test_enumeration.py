from itertools import permutations

import pytest
from hypothesis import given, settings

import oracles
from clutters import (
    Clutter,
    EnumerationResult,
    GroundSetTooLarge,
    NotSelfDual,
    NotStarSelfDual,
    blocker_berge,
    blocker_dense,
    check_appendix,
    complement_complex,
    enumerate_self_dual,
    enumerate_star_selfdual_complexes,
    family_report,
    is_self_dual,
    is_star_self_dual,
    self_dual_criterion,
    up_closure,
    verify_lemma2,
    verify_theorem3,
    verify_universe,
)
from clutters import enumeration
from clutters.sets import SetFamily

from oracles import pruned_self_dual_search

from conftest import (
    COMPLEX_T4, SIMPLEX_T4, TRIANGLE, clutter, family, not_applicable, self_dual_clutters,
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
        assert up_closure(cl).size() == 16


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


def test_matches_pruned_direct_search(universes):
    for res in universes:
        oracle = pruned_self_dual_search(res.t)
        assert len(oracle) == len(set(oracle)) == res.count
        assert {cl.members for cl in res.items} == set(oracle)


def test_rejects_large_t():
    with pytest.raises(GroundSetTooLarge):
        enumerate_self_dual(7)


def test_complex_enumeration_t3_t4(enum4):
    res3 = enumerate_star_selfdual_complexes(3)
    assert res3.count == 4
    res4 = enumerate_star_selfdual_complexes(4)
    assert res4.count == enum4.count == 12
    families = {c.family for c in res4.items}
    assert family(4, COMPLEX_T4) in families
    assert family(4, SIMPLEX_T4) in families
    for c in res4.items:
        assert is_star_self_dual(c)


def test_complement_complex_roundtrip(enum4):
    for cl in enum4.items:
        up = up_closure(cl).family()
        cx = complement_complex(up)
        assert len(cx.family) + len(up) == 16
        assert not set(cx.family.members) & set(up.members)


def test_verify_universe_t3():
    report = verify_universe(3)
    assert report["pass"]
    assert report["count"] == 4
    assert report["criterion_equivalence"] == {"passed": 4, "failed": 0}
    assert report["appendix"] == {"passed": 4, "failed": 0}


def test_verify_universe_t2_skips_the_undefined_bound_tables():
    # the bound tables need even t >= 4; t = 2 runs the odd-t checks
    report = verify_universe(2)
    assert report["pass"]
    assert report["count"] == 2
    assert report["criterion_equivalence"] == {"passed": 2, "failed": 0}
    assert "theorem3" not in report


def test_verify_universe_t4(enum4):
    report = verify_universe(4, result=enum4)
    assert report["pass"]
    assert report["theorem3"] == {"passed": 12, "failed": 0}
    assert report["lemma2"] == {"passed": 12, "failed": 0}
    assert report["appendix"] == {"passed": 12, "failed": 0}


def test_verify_universe_matches_per_clutter_reference(enum4, enum5, enum6):
    results = {4: enum4, 5: enum5, 6: enum6}
    for t in range(1, 7):
        res = results.get(t) or enumerate_self_dual(t)
        assert verify_universe(t, result=res) == oracles.verify_universe(t, res)


@pytest.mark.parametrize("t, sets", [
    (4, [[1, 2], [2, 3], [3, 4]]),  # #A^v = 8 = 2^3, yet B(A) != A
    (3, [[1, 2]]),
    (5, [[1, 2], [3, 4, 5]]),
])
def test_verify_universe_certifies_every_clutter(t, sets):
    cl = clutter(t, sets)
    assert not is_self_dual(cl)
    with pytest.raises(NotSelfDual):
        verify_universe(t, result=EnumerationResult(t, 1, (cl,)))


@settings(max_examples=40, deadline=None)
@given(self_dual_clutters())
def test_random_self_dual_clutters_beyond_t6(cl):
    t = cl.t
    assert blocker_dense(cl) == blocker_berge(cl) == cl
    if t % 2 == 0:
        assert verify_theorem3(cl)["pass"]
        assert verify_lemma2(complement_complex(up_closure(cl)))["pass"]
    checks = check_appendix(up_closure(cl).family())["checks"]
    assert {k for k, v in checks.items() if v == "n/a"} == not_applicable(t)
    assert all(v in ("pass", "n/a") for v in checks.values()), checks
    assert all(family_report(cl)["identities"].values())


def test_criterion_agrees_on_enumerated(enum5):
    for cl in enum5.items:
        assert is_self_dual(cl) and self_dual_criterion(cl)


def test_certification_failure_raises_package_error(monkeypatch):
    # a blocker that disagrees with the search must stop the enumeration
    # with NotSelfDual, also under python -O
    monkeypatch.setattr(enumeration, "blocker", lambda cl: Clutter(cl.t, ()))
    with pytest.raises(NotSelfDual, match="certification"):
        enumerate_self_dual(3)


def test_star_check_failure_raises_package_error(monkeypatch):
    monkeypatch.setattr(enumeration, "is_star_self_dual", lambda cx: False)
    with pytest.raises(NotStarSelfDual, match="star check"):
        enumerate_star_selfdual_complexes(3)
