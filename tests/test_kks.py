import math
import random
from itertools import combinations

import pytest

from clutters import (
    Clutter,
    Complex,
    InvalidLevel,
    NotSelfDual,
    NotStarSelfDual,
    SetFamily,
    cascade,
    lemma2_table,
    shadow_lower_bound,
    shadow_upper_bound,
    theorem3_table,
    verify_lemma2,
    verify_theorem3,
)
from clutters.vectors import binom

from conftest import COMPLEX_T4, FANO, SINGLETON2, TRIANGLE, clutter, family


def lower_shadow_size(masks):
    """|{(k-1)-sets below some member}| by direct expansion."""
    shadow = set()
    for m in masks:
        x = m
        while x:
            low = x & -x
            shadow.add(m ^ low)
            x ^= low
    return len(shadow)


def upper_degree_count(masks, n):
    """Number of (k+1)-sets on n points all of whose k-subsets are in masks."""
    memb = set(masks)
    k1 = next(iter(masks)).bit_count() + 1 if masks else 1
    count = 0
    for cand in combinations(range(n), k1):
        m = 0
        for i in cand:
            m |= 1 << i
        if all((m ^ (1 << i)) in memb for i in cand):
            count += 1
    return count


def colex_initial(n, k, m):
    """First m masks of popcount k in ascending numeric (= colex) order."""
    pool = [mask for mask in range(1 << n) if mask.bit_count() == k]
    assert len(pool) >= m
    return pool[:m]


# --- cascade ---------------------------------------------------------------

def test_cascade_examples():
    assert cascade(10, 3).terms == ((5, 3),)
    assert cascade(0, 4).terms == ()
    assert cascade(7, 3).terms == ((4, 3), (3, 2))


def test_cascade_rejects_bad_arguments():
    with pytest.raises(InvalidLevel):
        cascade(5, 0)
    with pytest.raises(ValueError):
        cascade(-1, 2)


def test_cascade_roundtrip_and_shape():
    for k in range(1, 13):
        for m in list(range(0, 2000)) + [10**5, 123456]:
            exp = cascade(m, k)
            assert exp.value() == m
            levels = [i for _, i in exp.terms]
            assert levels == sorted(levels, reverse=True)
            assert len(set(levels)) == len(levels)
            coeffs = [a for a, _ in exp.terms]
            assert all(a > b for a, b in zip(coeffs, coeffs[1:]))
            assert all(a >= i >= 1 for a, i in exp.terms)


def test_cascade_roundtrip_near_level12_ceiling():
    top = math.comb(24, 12)
    rng = random.Random(31)
    for m in [0, 1, top - 1, top, top + 1] + [rng.randrange(top) for _ in range(2000)]:
        for k in (11, 12):
            exp = cascade(m, k)
            assert exp.value() == m
            coeffs = [a for a, _ in exp.terms]
            assert all(a > b for a, b in zip(coeffs, coeffs[1:]))
            assert all(a >= i >= 1 for a, i in exp.terms)


def test_cascade_single_term_at_middle_binomial():
    # C(t-1, t/2) expands as the single term (t-1, t/2)
    for t in (4, 6, 8, 10, 12):
        exp = cascade(binom(t - 1, t // 2), t // 2)
        assert exp.terms == ((t - 1, t // 2),)


# --- shadow bounds ------------------------------------------------------------

def test_shadow_lower_bound_examples():
    assert shadow_lower_bound(10, 3) == binom(5, 2) == 10
    assert shadow_lower_bound(1, 3) == 3
    assert shadow_lower_bound(7, 3) == binom(4, 2) + binom(3, 1) == 9
    assert shadow_lower_bound(0, 5) == 0


def test_shadow_upper_bound_examples():
    assert shadow_upper_bound(10, 3) == binom(5, 4) == 5
    assert shadow_upper_bound(0, 7) == 0
    assert shadow_upper_bound(7, 3) == binom(4, 4) + binom(3, 3) == 2


def test_shadow_lower_bound_brute_force_minimum_small():
    # every 7-subset of the 3-sets on 5 points has at least 9 2-sets below,
    # and some attains it
    best = None
    all3 = [m for m in range(1 << 5) if m.bit_count() == 3]
    for chosen in combinations(all3, 7):
        s = lower_shadow_size(chosen)
        best = s if best is None else min(best, s)
    assert best == shadow_lower_bound(7, 3) == 9


def test_shadow_upper_bound_brute_force_maximum_small():
    all3 = [m for m in range(1 << 5) if m.bit_count() == 3]
    best = 0
    for chosen in combinations(all3, 7):
        best = max(best, upper_degree_count(chosen, 5))
    assert best == shadow_upper_bound(7, 3) == 2


def test_colex_initial_segments_attain_lower_bound():
    for n in range(2, 8):
        for k in range(1, n + 1):
            for m in range(0, math.comb(n, k) + 1):
                seg = colex_initial(n, k, m)
                assert lower_shadow_size(seg) == shadow_lower_bound(m, k)


def test_bounds_hold_for_random_uniform_families():
    rng = random.Random(30)
    for _ in range(400):
        n = rng.randint(3, 7)
        k = rng.randint(1, n)
        pool = [m for m in range(1 << n) if m.bit_count() == k]
        m = rng.randint(0, len(pool))
        chosen = rng.sample(pool, m)
        assert lower_shadow_size(chosen) >= shadow_lower_bound(m, k)
        assert upper_degree_count(chosen, n) <= shadow_upper_bound(m, k)


# --- bound tables ---------------------------------------------------------------

def test_lemma2_table_t4():
    table = lemma2_table(4)
    assert table.rows[2].exact == 3
    assert table.rows[1].kind == "lower" and table.rows[1].lower == 3
    assert table.rows[3].kind == "upper" and table.rows[3].upper == 1
    assert table.rows[0].exact == 1 and table.rows[4].exact == 0
    assert table.pair_sums == ((1, 4),)


def test_lemma2_table_t6():
    table = lemma2_table(6)
    assert table.rows[3].exact == 10
    assert table.rows[2].lower == 10
    assert table.rows[4].upper == 5
    assert table.rows[1].lower == 5
    assert table.rows[5].upper == 1
    assert dict(table.pair_sums) == {1: binom(6, 2), 2: binom(6, 1)}


def test_theorem3_table_t4():
    table = theorem3_table(4)
    assert table.rows[2].exact == 3
    assert table.rows[1].kind == "upper" and table.rows[1].upper == 1
    assert table.rows[3].kind == "lower" and table.rows[3].lower == 3
    assert table.rows[0].exact == 0 and table.rows[4].exact == 1
    assert table.pair_sums == ((1, 4),)


def test_tables_reject_bad_t():
    for fn in (lemma2_table, theorem3_table):
        for t in (0, 29, -3):
            message = f"^bound tables defined for 1 <= t <= 28, got {t}$"
            with pytest.raises(ValueError, match=message):
                fn(t)


def rows_of(table):
    return [(r.k, r.kind, r.exact, r.lower, r.upper) for r in table.rows]


def test_tables_at_small_and_odd_t():
    # one rule at every t: exact at k = 0, t and 2k = t; the middle pair
    # f_((t-1)/2) + f_((t+1)/2) is offset 1 at odd t
    x, lo, up = "exact", "lower", "upper"
    assert rows_of(theorem3_table(1)) == [(0, x, 0, 0, 0), (1, x, 1, 1, 1)]
    assert rows_of(lemma2_table(1)) == [(0, x, 1, 1, 1), (1, x, 0, 0, 0)]
    assert rows_of(theorem3_table(2)) == [(0, x, 0, 0, 0), (1, x, 1, 1, 1), (2, x, 1, 1, 1)]
    assert rows_of(lemma2_table(2)) == [(0, x, 1, 1, 1), (1, x, 1, 1, 1), (2, x, 0, 0, 0)]
    assert theorem3_table(1).pair_sums == theorem3_table(2).pair_sums == ()
    assert rows_of(theorem3_table(3)) == [
        (0, x, 0, 0, 0), (1, up, None, 0, 1), (2, lo, None, 2, 3), (3, x, 1, 1, 1)]
    assert rows_of(lemma2_table(3)) == [
        (0, x, 1, 1, 1), (1, lo, None, 2, 3), (2, up, None, 0, 1), (3, x, 0, 0, 0)]
    assert theorem3_table(3).pair_sums == lemma2_table(3).pair_sums == ((1, 3),)
    assert rows_of(theorem3_table(7)) == [
        (0, x, 0, 0, 0), (1, up, None, 0, 1), (2, up, None, 0, 6), (3, up, None, 0, 15),
        (4, lo, None, 20, 35), (5, lo, None, 15, 21), (6, lo, None, 6, 7), (7, x, 1, 1, 1)]
    assert rows_of(lemma2_table(7)) == [
        (0, x, 1, 1, 1), (1, lo, None, 6, 7), (2, lo, None, 15, 21), (3, lo, None, 20, 35),
        (4, up, None, 0, 15), (5, up, None, 0, 6), (6, up, None, 0, 1), (7, x, 0, 0, 0)]
    assert theorem3_table(7).pair_sums == ((1, 35), (2, 21), (3, 7))


def test_verifiers_at_odd_t():
    report = verify_theorem3(clutter(7, FANO))
    assert report["pass"] and report["f"] == [0, 0, 0, 7, 28, 21, 7, 1]
    assert [(p["offset"], p["actual"]) for p in report["pair_sums"]] == [(1, 35), (2, 21), (3, 7)]
    # {{t}} attains every bound, and so does its complement complex, the
    # simplex on E_(t-1)
    for t in (3, 5, 7):
        assert all(row["slack"] == 0 for row in verify_theorem3(clutter(t, [[t]]))["rows"])
        simplex = Complex(SetFamily(t, tuple(range(1 << (t - 1)))))
        report = verify_lemma2(simplex)
        assert report["pass"] and all(row["slack"] == 0 for row in report["rows"])


def test_table_rows_bracket_and_pin_ends():
    for t in (4, 6, 8, 10):
        for table in (lemma2_table(t), theorem3_table(t)):
            for row in table.rows:
                assert row.lower <= row.upper
            for k in (0, t // 2, t):
                assert table.rows[k].kind == "exact"


def test_tables_are_complementary():
    # theorem3 bound at k is C(t,k) minus the lemma2 bound at k, with the
    # constraint direction flipped
    flip = {"lower": "upper", "upper": "lower", "exact": "exact"}
    for t in (4, 6, 8, 10):
        l2, t3 = lemma2_table(t), theorem3_table(t)
        for k in range(t + 1):
            a, b = l2.rows[k], t3.rows[k]
            assert b.kind == flip[a.kind]
            bound_a = a.exact if a.kind == "exact" else (
                a.lower if a.kind == "lower" else a.upper)
            bound_b = b.exact if b.kind == "exact" else (
                b.lower if b.kind == "lower" else b.upper)
            assert bound_b == binom(t, k) - bound_a
        assert l2.pair_sums == t3.pair_sums


# --- verifiers --------------------------------------------------------------------

def test_verify_theorem3_tight_witness():
    report = verify_theorem3(clutter(4, SINGLETON2))
    assert report["pass"]
    assert all(row["slack"] == 0 for row in report["rows"])


def test_verify_theorem3_triangle_slack():
    report = verify_theorem3(clutter(4, TRIANGLE))
    assert report["pass"]
    slack = {row["k"]: row["slack"] for row in report["rows"]}
    assert slack == {0: 0, 1: 1, 2: 0, 3: 1, 4: 0}


def test_verify_theorem3_rejects():
    with pytest.raises(NotSelfDual):
        verify_theorem3(clutter(5, [[1, 2], [3, 4, 5]]))
    with pytest.raises(NotSelfDual):
        verify_theorem3(clutter(4, [[1, 2], [2, 3], [3, 4]]))


def test_verify_theorem3_all_selfdual_t4(enum4):
    for cl in enum4.items:
        assert verify_theorem3(cl)["pass"]


def test_verify_lemma2_examples():
    assert verify_lemma2(Complex(family(4, COMPLEX_T4)))["pass"]

    # simplex with facet E_6 - {6}: every inequality tight
    sets = [[]]
    for e in range(1, 6):
        sets += [s + [e] for s in sets]
    report = verify_lemma2(Complex(SetFamily.from_sets(6, sets)))
    assert report["pass"]
    assert all(row["slack"] == 0 for row in report["rows"])


def test_verify_lemma2_rejects():
    with pytest.raises(NotStarSelfDual):
        verify_lemma2(Complex(SetFamily(4, tuple(range(16)))))
    with pytest.raises(NotStarSelfDual):
        verify_lemma2(Complex(SetFamily(5, tuple(range(32)))))
