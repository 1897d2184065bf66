import random

import pytest

import oracles
from clutters import (
    GroundSetTooLarge,
    NotStarSelfDual,
    SetFamily,
    StarSelfDualFamily,
    check_appendix,
    h_vector,
    random_star_selfdual,
    star,
    up_closure,
)
from clutters.identities import APPENDIX, CHECK, REGISTRY, counts, star_fixed, verdict
from clutters.vectors import binom, f_vector

from conftest import SINGLETON2, TRIANGLE, clutter, not_applicable


def test_construction_validates_pairing():
    with pytest.raises(NotStarSelfDual):
        StarSelfDualFamily(SetFamily(3, (0, 7, 1, 6)))  # two both-sided pairs
    with pytest.raises(NotStarSelfDual):
        StarSelfDualFamily(SetFamily(3, (0, 1, 2)))  # wrong count
    StarSelfDualFamily(SetFamily(3, (0, 1, 2, 3)))  # low half of each pair
    StarSelfDualFamily(SetFamily(1, (0,)))
    StarSelfDualFamily(SetFamily(1, (1,)))


def test_generator_is_star_fixed_and_deterministic():
    for t in (1, 2, 3, 5, 8):
        for seed in (0, 1, 42, 999):
            fam = random_star_selfdual(t, seed).family
            assert star(fam) == fam
            assert len(fam) == 1 << (t - 1)
            again = random_star_selfdual(t, seed).family
            assert again == fam


def test_generator_regression_t3_seed42():
    fam = random_star_selfdual(3, 42).family
    assert fam.members == (0, 3, 5, 6)


def test_generator_matches_per_pair_loop():
    # t = 18 draws two blocks of 2^16 pairs
    for t in range(1, 19):
        for seed in (0, 1, 42):
            want = oracles.random_star_selfdual(t, seed)
            assert random_star_selfdual(t, seed).family.members == want


def test_bulk_draw_equals_single_bit_draws():
    # what the generator relies on: getrandbits(32 n) holds, little-endian,
    # the n words whose top bits n calls getrandbits(1) return, and it
    # leaves the generator in the same state
    for seed in range(5):
        bulk, single = random.Random(seed), random.Random(seed)
        raw = bulk.getrandbits(32 * 1000).to_bytes(4 * 1000, "little")
        assert [b >> 7 for b in raw[3::4]] == [single.getrandbits(1) for _ in range(1000)]
        assert bulk.getstate() == single.getstate()


def test_generator_t4_middle_count():
    for seed in range(10):
        fv = f_vector(random_star_selfdual(4, seed).family)
        assert fv[2] == 3 == binom(4, 2) // 2


def test_generator_t1():
    for seed in range(8):
        fam = random_star_selfdual(1, seed).family
        assert fam.members in ((0,), (1,))


def test_generator_rejects_large_t():
    with pytest.raises(GroundSetTooLarge):
        random_star_selfdual(29, 0)


def test_check_appendix_rejects_non_star_family():
    with pytest.raises(NotStarSelfDual):
        check_appendix(SetFamily(3, (0, 1)))


def test_appendix_singleton_upset_t3():
    fam = up_closure(clutter(3, SINGLETON2)).family()
    assert h_vector(fam).values == (0, 1, 0, 0)
    report = check_appendix(fam)
    assert report["pass"]
    checks = report["checks"]
    assert checks["odd_t_block"] == "pass"
    assert checks["odd_h_relation"] == "pass"  # 2 h_2 + 3 h_3 = 0
    assert checks["eq24"] == "n/a"
    assert checks["eq27_block"] == "n/a"


def test_appendix_triangle_upset_t4():
    fam = up_closure(clutter(4, TRIANGLE)).family()
    hv = h_vector(fam)
    assert hv.values == (0, 0, 3, -2, 0)
    assert hv[4] == 0
    assert sum(k * hv[k] for k in range(2, 4)) == 0
    report = check_appendix(fam)
    assert report["pass"]
    checks = report["checks"]
    assert checks["eq24"] == "pass"
    assert checks["weighted_h_sum"] == "pass"
    assert checks["eq27_block"] == "pass"  # t = 4: middle index is even
    assert checks["odd_t_block"] == "n/a"


def test_middle_relations_not_applicable_at_t6():
    # at t = 2 mod 4 the middle-index relations genuinely fail, so the
    # suite must not apply them: h = (0,0,3,-2,0,0,0) gives
    # h_3 + (1/2) sum C(k,3) h_k = -2, not 0
    fam = up_closure(clutter(6, TRIANGLE)).family()
    hv = h_vector(fam)
    assert hv.values == (0, 0, 3, -2, 0, 0, 0)
    lhs2 = 2 * hv[3] + sum(binom(k, 3) * hv[k] for k in range(4, 6))
    assert lhs2 == -4  # the relation would demand 0
    report = check_appendix(fam)
    assert report["pass"]
    assert report["checks"]["eq27_block"] == "n/a"
    assert report["checks"]["eq27_eq9_block"] == "n/a"
    assert report["checks"]["eq9_block"] == "pass"  # parity-robust


def test_middle_relations_applicable_at_t4_and_t8():
    for t, seed in ((4, 5), (8, 5)):
        report = check_appendix(random_star_selfdual(t, seed))
        assert report["checks"]["eq27_block"] == "pass"
        assert report["checks"]["eq27_eq9_block"] == "pass"


def test_appendix_random_sweep_all_parities():
    for t in (3, 4, 5, 6, 8):
        for seed in range(100):
            report = check_appendix(random_star_selfdual(t, seed))
            assert report["pass"], (t, seed, report["checks"])


def test_appendix_named_check_applicability():
    odd = check_appendix(random_star_selfdual(5, 0))["checks"]
    even = check_appendix(random_star_selfdual(6, 0))["checks"]
    mod4 = check_appendix(random_star_selfdual(8, 0))["checks"]
    always = {"eq28", "h_pair_sum", "h_complement_form", "eq21", "eq14",
              "f_delta", "eq23", "eq25", "weighted_h_sum"}
    for name in always:
        assert odd[name] == even[name] == mod4[name] == "pass"
    assert odd["eq24"] == "n/a" and even["eq24"] == "pass"
    assert odd["odd_t_block"] == "pass" and even["odd_t_block"] == "n/a"
    assert odd["eq29"] == "n/a" and even["eq29"] == "pass"
    assert even["eq27_block"] == "n/a" and mod4["eq27_block"] == "pass"


def test_ht_vanishes_for_selfdual_upfamilies_even_t(enum4):
    for cl in enum4.items:
        fam = up_closure(cl).family()
        assert h_vector(fam)[4] == 0
        assert check_appendix(fam)["pass"]


def test_odd_sign_correction_matters_at_t3():
    # the t = 3 instances only pass with the (-1)^((t-1)/2) factor
    fam = up_closure(clutter(3, SINGLETON2)).family()
    fv = f_vector(fam)
    hv = h_vector(fam)
    lo = fv[0] - fv[1]
    assert hv[3] != binom(2, 1) - 2 * lo  # unsigned form fails
    assert hv[3] == -binom(2, 1) - 2 * lo  # signed form holds


def _one_entry_changes(v):
    """Counts that differ from v by one in one entry of f, h, s, sh or ch."""
    for field in ("f", "h", "s", "sh", "ch"):
        vec = getattr(v, field)
        for i in range(len(vec)):
            yield v._replace(**{field: vec[:i] + (vec[i] + 1,) + vec[i + 1:]})


def test_every_label_fails_when_one_entry_changes():
    # a predicate that compared a value with itself would survive every change
    rng = random.Random(16)
    star_fixed_cases = [counts(random_star_selfdual(t, t).family) for t in (3, 4, 6, 7, 8)]
    any_family_cases = [
        counts(SetFamily(t, tuple(rng.sample(range(1 << t), rng.randint(0, 1 << t)))))
        for t in (3, 6, 8)
    ]
    for label, entry in REGISTRY.items():
        cases = star_fixed_cases + (any_family_cases if label in CHECK else [])
        cases = [v for v in cases if entry.applies(v.t)]
        assert cases, label
        for v in cases:
            assert verdict(label, v) == "pass", (label, v)
            assert any(verdict(label, w) != "pass" for w in _one_entry_changes(v)), (label, v)


def test_applicability_follows_the_parity_guards():
    for t in range(1, 13):
        for seed in (0, 1):
            checks = check_appendix(random_star_selfdual(t, seed))["checks"]
            assert list(checks) == list(APPENDIX[t % 2])
            assert {k for k, v in checks.items() if v == "n/a"} == not_applicable(t)
            assert set(checks.values()) <= {"pass", "n/a"}
        assert all(REGISTRY[label].applies(t) for label in CHECK)


def test_report_key_order():
    # the order `check --json` and `identities` print their labels in
    assert CHECK == ("eq22", "remark_iii", "remark_iv", "eq19", "h0", "h1", "h_penult",
                     "h_last", "h_sum", "star_count", "star_f", "eq19_delta", "ht_sign")
    head = ("eq28", "h_pair_sum", "h_complement_form", "eq21", "eq14", "f_delta", "eq23",
            "eq25", "eq24", "eq29")
    assert APPENDIX[0] == head + ("weighted_h_sum", "eq9_block", "odd_t_block",
                                  "odd_h_relation", "eq27_block", "eq27_eq9_block")
    assert APPENDIX[1] == head + ("eq9_block", "eq27_block", "eq27_eq9_block",
                                  "weighted_h_sum", "odd_t_block", "odd_h_relation")
    assert set(CHECK) | set(APPENDIX[0]) == set(APPENDIX[1]) | set(CHECK) == set(REGISTRY)


def test_appendix_failure_names_the_first_failing_index():
    v = star_fixed(f_vector(random_star_selfdual(6, 0).family))
    f = list(v.f)
    f[4] += 1
    bad = v._replace(f=tuple(f))
    # f_2(F*) + f_4(F) = C(6,2) is the first instance to break
    assert verdict("eq28", bad) == "fail (l=2)"
    assert verdict("eq29", bad) == "pass"
    assert verdict("eq24", v._replace(h=v.h[:6] + (1,))) == "fail"
    assert verdict("eq24", star_fixed(f_vector(random_star_selfdual(5, 0).family))) == "n/a"
