import math
import random

import pytest
from hypothesis import given, settings

import oracles
from clutters import (
    Clutter,
    FVector,
    HVector,
    NotAnFVector,
    SetFamily,
    binom,
    f_from_h,
    f_vector,
    family_report,
    h_from_f,
    h_vector,
    star,
    up_closure,
)
from clutters import vectors
from clutters.sets import layer_counts

from conftest import (
    COMPLEX_T4, CONE5, SIMPLEX_T4, SINGLETON2, TRIANGLE, clutter, families, family,
)


def oracle_h_by_expansion(counts, t):
    """h from the defining relation: expand sum f_i (x-1)^(t-i) and read
    the coefficient of x^(t-l)."""
    coeff = [0] * (t + 1)  # coeff[p] of x^p
    for i, fi in enumerate(counts):
        n = t - i
        for j in range(n + 1):
            coeff[j] += fi * math.comb(n, j) * (-1) ** (n - j)
    return tuple(coeff[t - l] for l in range(t + 1))


def random_family(rng, t):
    n = rng.randint(0, 1 << t)
    return SetFamily(t, tuple(rng.sample(range(1 << t), n)))


def upfam(t, sets):
    return up_closure(clutter(t, sets)).family()


def test_binom_against_math_comb():
    for n in range(63):
        for k in range(n + 2):
            assert binom(n, k) == math.comb(n, k)
    assert binom(5, -1) == 0
    with pytest.raises(ValueError):
        binom(63, 1)


def test_binomials_fit_a_machine_word():
    assert binom(62, 31) < 2**63


GOLDEN = [
    # (family, f, h)
    (upfam(3, TRIANGLE), (0, 0, 3, 1), (0, 0, 3, -2)),
    (upfam(4, TRIANGLE), (0, 0, 3, 4, 1), (0, 0, 3, -2, 0)),
    (upfam(3, SINGLETON2), (0, 1, 2, 1), (0, 1, 0, 0)),
    (upfam(4, SINGLETON2), (0, 1, 3, 3, 1), (0, 1, 0, 0, 0)),
    (upfam(5, CONE5), (0, 0, 4, 6, 5, 1), (0, 0, 4, -6, 5, -2)),
    (family(4, COMPLEX_T4), (1, 4, 3, 0, 0), (1, 0, -3, 2, 0)),
    (family(4, SIMPLEX_T4), (1, 3, 3, 1, 0), (1, -1, 0, 0, 0)),
]


def test_golden_vectors():
    for fam, fexp, hexp in GOLDEN:
        fv = f_vector(fam)
        assert fv.counts == fexp
        assert h_from_f(fv).values == hexp


def test_facet_deletion_simplex_vectors():
    # simplex with facet E_t - {a}: f = (C(t-1,0), ..., C(t-1,t-1), 0),
    # h = (1, -1, 0, ..., 0)
    for t, a in ((4, 4), (6, 6), (8, 3)):
        facet = [e for e in range(1, t + 1) if e != a]
        faces = SetFamily.from_sets(t, _subsets(facet))
        fv = f_vector(faces)
        assert fv.counts == tuple(binom(t - 1, k) for k in range(t)) + (0,)
        assert h_from_f(fv).values == (1, -1) + (0,) * (t - 1)


def _subsets(elems):
    out = [[]]
    for e in elems:
        out += [s + [e] for s in out]
    return out


def test_principal_singleton_upset_vectors():
    # {{a}}^v has f = (0, C(t-1,0), ..., C(t-1,t-1)) and h = (0,1,0,...,0)
    for t in (3, 4, 6, 7):
        fam = up_closure(Clutter.from_sets(t, [[2]])).family()
        fv = f_vector(fam)
        assert fv.counts == (0,) + tuple(binom(t - 1, k - 1) for k in range(1, t + 1))
        assert h_from_f(fv).values == (0, 1) + (0,) * (t - 1)


def test_f_vector_counts_a_held_bitmap_by_layers(monkeypatch):
    layered = []
    monkeypatch.setattr(vectors, "layer_counts",
                        lambda bm, t: layered.append(t) or layer_counts(bm, t))
    rng = random.Random(17)
    for t in (1, 5, 12, 20):
        masks = tuple(sorted(rng.sample(range(1 << t), min(1 << t, 300))))
        want = tuple(oracles.f_counts(masks, t))
        assert f_vector(SetFamily(t, masks)).counts == want
        assert layered == []
        held = SetFamily.from_bitmap(t, SetFamily(t, masks).bitmap)
        assert f_vector(held).counts == want
        assert layered == [t]
        layered.clear()
    # a sparse family beyond the dense limit needs no bitmap
    assert f_vector(SetFamily(40, (0, 3, 1 << 39))).counts == (1, 1, 1) + (0,) * 38


def test_f_vector_empty_family():
    assert f_vector(SetFamily(3, ())).counts == (0, 0, 0, 0)


def test_h_matches_polynomial_expansion():
    rng = random.Random(10)
    for _ in range(300):
        t = rng.randint(1, 10)
        fam = random_family(rng, t)
        fv = f_vector(fam)
        assert h_from_f(fv).values == oracle_h_by_expansion(fv.counts, t)


def test_f_from_h_examples():
    assert f_from_h(HVector(3, (0, 1, 0, 0))).counts == (0, 1, 2, 1)
    assert f_from_h(HVector(4, (1, 0, 0, 0, 0))).counts == (1, 4, 6, 4, 1)
    assert f_from_h(HVector(3, (0, 0, 3, -2))).counts == (0, 0, 3, 1)


def test_f_from_h_rejects_non_f_vectors():
    with pytest.raises(NotAnFVector):
        f_from_h(HVector(3, (0, -1, 0, 0)))  # forces f_1 < 0
    with pytest.raises(NotAnFVector):
        f_from_h(HVector(3, (2, 0, 0, 0)))  # forces f_0 = 2 > C(3,0)


def test_fvector_validates_range():
    with pytest.raises(NotAnFVector):
        FVector(3, (0, 4, 0, 0))
    with pytest.raises(ValueError):
        FVector(3, (0, 0, 0))


def test_roundtrip_exact():
    rng = random.Random(11)
    for _ in range(500):
        t = rng.randint(1, 12)
        fv = f_vector(random_family(rng, t))
        assert f_from_h(h_from_f(fv)) == fv


@settings(max_examples=150, deadline=None)
@given(families())
def test_roundtrip_exact_on_hypothesis_families(tm):
    # sparse families down to t = 1 and the empty family, shrunk on failure
    fv = f_vector(SetFamily(*tm))
    assert f_from_h(h_from_f(fv)) == fv


def test_h_linearity_on_disjoint_union():
    rng = random.Random(12)
    for _ in range(100):
        t = rng.randint(2, 9)
        masks = list(range(1 << t))
        rng.shuffle(masks)
        cut = rng.randint(0, len(masks))
        n1 = rng.randint(0, cut)
        f1 = SetFamily(t, tuple(masks[:n1]))
        f2 = SetFamily(t, tuple(masks[cut : cut + rng.randint(0, len(masks) - cut)]))
        union = SetFamily(t, f1.members + f2.members)
        h1, h2, hu = h_vector(f1), h_vector(f2), h_vector(union)
        assert hu.values == tuple(a + b for a, b in zip(h1.values, h2.values))


def identities(fam):
    return family_report(fam)["identities"]


def test_check_h_identities_examples():
    rep = identities(up_closure(clutter(5, CONE5)).family())
    assert all(rep.values())
    full = SetFamily(4, tuple(range(16)))
    assert h_vector(full).values == (1, 0, 0, 0, 0)
    assert all(identities(full).values())


def test_check_h_identities_random():
    rng = random.Random(13)
    for _ in range(300):
        t = rng.randint(3, 10)
        assert all(identities(random_family(rng, t)).values())


def test_check_star_relations_selfdual_family():
    fam = up_closure(clutter(3, SINGLETON2)).family()
    assert star(fam) == fam
    assert all(identities(fam).values())


def test_check_star_relations_empty_family():
    rep = identities(SetFamily(3, ()))
    assert all(rep.values())
    assert f_vector(star(SetFamily(3, ()))).counts == (1, 3, 3, 1)


def test_check_star_relations_random():
    rng = random.Random(14)
    for _ in range(300):
        t = rng.randint(3, 10)
        assert all(identities(random_family(rng, t)).values())


def test_eq19_delta_instance_is_separately_checked():
    rng = random.Random(15)
    for _ in range(50):
        fam = random_family(rng, 6)
        rep = identities(fam)
        hs = h_vector(star(fam))
        assert rep["eq19_delta"] == (hs[0] + sum(h_vector(fam).values) == 1)


def test_family_report_shape():
    rep = family_report(up_closure(clutter(3, TRIANGLE)).family())
    assert rep["t"] == 3
    assert rep["f"] == [0, 0, 3, 1]
    assert rep["h"] == [0, 0, 3, -2]
    for key in ("eq22", "remark_iii", "remark_iv", "eq19"):
        assert rep["identities"][key] is True
