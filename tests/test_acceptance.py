"""Acceptance suite: one test per criterion, exact tolerances, with a
printed PASS line per criterion (run pytest -s to see them inline)."""

import random
import time
from itertools import combinations

import pytest

from clutters import (
    Clutter,
    SetFamily,
    blocker,
    cascade,
    check_appendix,
    complement_complex,
    f_from_h,
    f_vector,
    family_report,
    h_from_f,
    is_self_dual,
    min_elements,
    random_star_selfdual,
    self_dual_criterion,
    shadow_lower_bound,
    star,
    up_closure,
    verify_lemma2,
    verify_theorem3,
)
from clutters.cli import main
from clutters.complexes import Complex
from clutters.vectors import binom

from conftest import CONE5, SINGLETON2, TRIANGLE, clutter, family


def _stamp(n, label, t0):
    print(f"ACCEPTANCE {n}: PASS  {label}  ({time.time() - t0:.1f}s)")


def _run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return out


def _simplex_sets(t, a):
    sets = [[]]
    for e in range(1, t + 1):
        if e != a:
            sets += [s + [e] for s in sets]
    return sets


def test_criterion_1_golden_vectors(capsys, tmp_path):
    t0 = time.time()
    upset_cases = [
        ("t: 3\n{1,2}\n{1,3}\n{2,3}\n", "0 0 3 1", "0 0 3 -2"),
        ("t: 4\n{1,2}\n{1,3}\n{2,3}\n", "0 0 3 4 1", "0 0 3 -2 0"),
        ("t: 3\n{2}\n", "0 1 2 1", "0 1 0 0"),
        ("t: 4\n{2}\n", "0 1 3 3 1", "0 1 0 0 0"),
        (
            "t: 5\n{1,2,3,4}\n{1,5}\n{2,5}\n{3,5}\n{4,5}\n",
            "0 0 4 6 5 1",
            "0 0 4 -6 5 -2",
        ),
    ]
    plain_cases = [
        (
            "t: 4\n{}\n{1}\n{2}\n{3}\n{4}\n{1,2}\n{1,3}\n{2,3}\n",
            "1 4 3 0 0",
            "1 0 -3 2 0",
        ),
        (
            "t: 4\nclosure: down\n{2,3,4}\n",
            "1 3 3 1 0",
            "1 -1 0 0 0",
        ),
        (
            "t: 4\nclosure: down\n{1,2,3}\n",
            "1 3 3 1 0",
            "1 -1 0 0 0",
        ),
        (
            "t: 6\nclosure: down\n{1,2,3,4,5}\n",
            "1 5 10 10 5 1 0",
            "1 -1 0 0 0 0 0",
        ),
    ]
    checked = 0
    for i, (doc, fexp, hexp) in enumerate(upset_cases):
        path = tmp_path / f"up{i}.fam"
        path.write_text(doc)
        assert _run_cli(capsys, "fvector", "--upset", str(path)) == fexp + "\n"
        assert _run_cli(capsys, "hvector", "--upset", str(path)) == hexp + "\n"
        checked += 1
    for i, (doc, fexp, hexp) in enumerate(plain_cases):
        path = tmp_path / f"pl{i}.fam"
        path.write_text(doc)
        assert _run_cli(capsys, "fvector", str(path)) == fexp + "\n"
        assert _run_cli(capsys, "hvector", str(path)) == hexp + "\n"
        checked += 1
    assert checked == 9
    assert time.time() - t0 < 1.0
    _stamp(1, "nine golden f/h pairs reproduced exactly via the CLI", t0)


def test_criterion_2_self_duality_certification(capsys, tmp_path):
    t0 = time.time()
    for sets, t in ((TRIANGLE, 3), (SINGLETON2, 3), (CONE5, 5)):
        cl = clutter(t, sets)
        assert blocker(cl) == cl
        assert len(up_closure(cl)) == 1 << (t - 1)
        sd, crit = is_self_dual(cl), self_dual_criterion(cl)
        assert sd and crit and sd == crit
    assert time.time() - t0 < 1.0
    _stamp(2, "blocker fixed points and half-count agree on all three clutters", t0)


def test_criterion_3_blocker_laws():
    t0 = time.time()

    def laws(cl):
        b = blocker(cl)
        assert blocker(b) == cl
        assert up_closure(b) == star(up_closure(cl))

    # exhaustive for t <= 4
    exhaustive = 0
    for t in (2, 3, 4):
        def rec(start, chosen):
            nonlocal exhaustive
            if chosen:
                laws(Clutter(t, tuple(chosen)))
                exhaustive += 1
            for m in range(start, 1 << t):
                if any(c & ~m == 0 or m & ~c == 0 for c in chosen):
                    continue
                chosen.append(m)
                rec(m + 1, chosen)
                chosen.pop()

        rec(1, [])
    # 10^4 random nontrivial clutters on 5 <= t <= 10
    rng = random.Random(20260811)
    for i in range(10_000):
        t = 5 + i % 6
        while True:
            fam = SetFamily(
                t, tuple(rng.randrange(1, 1 << t) for _ in range(rng.randint(1, 2 * t)))
            )
            cl = min_elements(fam)
            if cl.nontrivial:
                break
        laws(cl)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _stamp(3, f"involution + blocker/star identity on {exhaustive} exhaustive"
              " and 10000 random clutters", t0)


def test_criterion_4_transforms():
    t0 = time.time()
    rng = random.Random(47)
    for _ in range(10_000):
        t = rng.randint(3, 12)
        fam = SetFamily(t, tuple(rng.sample(range(1 << t), rng.randint(0, 1 << t))))
        fv = f_vector(fam)
        assert f_from_h(h_from_f(fv)) == fv
        rep = family_report(fam)["identities"]
        assert rep["eq19"] and rep["star_count"]
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _stamp(4, "roundtrip, eq19 and star count on 10000 random families", t0)


def test_criterion_5_theorem3_at_scale(enum4, enum6):
    t0 = time.time()
    assert enum4.count == 12
    assert enum6.count == 2646
    for res in (enum4, enum6):
        for cl in res.items:
            assert verify_theorem3(cl)["pass"]
    for t in (4, 6):
        for a in range(1, t + 1):
            report = verify_theorem3(Clutter.from_sets(t, [[a]]))
            assert report["pass"]
            assert all(row["slack"] == 0 for row in report["rows"])
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _stamp(5, "bounds hold for all 12 + 2646 self-dual clutters;"
              " singleton witnesses tight", t0)


def test_criterion_6_lemma2_at_scale(enum4, enum6):
    t0 = time.time()
    for res, expected in ((enum4, 12), (enum6, 2646)):
        passed = 0
        for cl in res.items:
            cx = complement_complex(up_closure(cl))
            if verify_lemma2(cx)["pass"]:
                passed += 1
        assert passed == expected
    for t in (4, 6, 8):
        report = verify_lemma2(Complex(SetFamily.from_sets(t, _simplex_sets(t, t))))
        assert report["pass"]
        assert all(row["slack"] == 0 for row in report["rows"])
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _stamp(6, "complement images pass 12/12 and 2646/2646; facet-deletion"
              " simplex tight at t=4,6,8", t0)


def test_criterion_7_appendix_suite(enum5):
    t0 = time.time()
    for t in (3, 4, 5, 6, 8):
        for i in range(1000):
            report = check_appendix(random_star_selfdual(t, 1000 * t + i))
            assert report["pass"], (t, i, report["checks"])
    assert enum5.count == 81
    for cl in enum5.items:
        assert check_appendix(up_closure(cl))["pass"]
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _stamp(7, "appendix checks pass on 5000 random families and all 81"
              " enumerated up-families at t=5", t0)


def test_criterion_8_kks_sanity():
    t0 = time.time()
    for k in range(2, 11):
        for m in range(100_001):
            assert cascade(m, k).value() == m
    # lower bound never exceeds the true minimum shadow on <= 7 points
    rng = random.Random(8)
    cases = 0
    for n in (5, 6, 7):
        for k in (2, 3, 4):
            pool = [m for m in range(1 << n) if m.bit_count() == k]
            for m in range(len(pool) + 1):
                bound = shadow_lower_bound(m, k)
                total = _ncomb(len(pool), m)
                if total <= 100_000:
                    best = min(
                        (_shadow_size(ch) for ch in combinations(pool, m)),
                        default=0,
                    )
                else:
                    best = min(_shadow_size(rng.sample(pool, m)) for _ in range(150))
                assert bound <= best
                # colex-initial members attain it exactly
                assert _shadow_size(pool[:m]) == bound
                cases += 1
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _stamp(8, f"9x10^5 cascade roundtrips; shadow bound <= brute minimum in"
              f" {cases} (n,k,m) settings", t0)


def _ncomb(n, m):
    return binom(n, m) if n <= 62 else 10**18


def _shadow_size(masks):
    shadow = set()
    for m in masks:
        x = m
        while x:
            low = x & -x
            shadow.add(m ^ low)
            x ^= low
    return len(shadow)
