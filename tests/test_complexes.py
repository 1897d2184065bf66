import random

import pytest

from clutters import (
    Clutter,
    Complex,
    EmptyVertexSet,
    InconsistentResult,
    NotStarSelfDual,
    SetFamily,
    alexander_dual,
    check_appendix,
    complement_complex,
    down_closure,
    f_vector,
    is_alexander_self_dual,
    is_star_self_dual,
    min_elements,
    star,
    up_closure,
)
from clutters import complexes
from clutters.complexes import AlexanderDual
from clutters.sets import full_mask, mask_of

from conftest import COMPLEX_T4, SIMPLEX_T4, TRIANGLE, clutter, family


def complex_of(t, sets):
    return Complex(SetFamily.from_sets(t, sets))


def simplex_without(t, a):
    sets = [[]]
    for e in range(1, t + 1):
        if e != a:
            sets += [s + [e] for s in sets]
    return complex_of(t, sets)


def test_complex_validates_downward_closure():
    with pytest.raises(ValueError):
        complex_of(3, [[], [1, 2]])
    with pytest.raises(ValueError):
        Complex(SetFamily(3, ()))


def test_down_closure_examples():
    assert down_closure(family(4, [[2, 3, 4]])).family == family(4, SIMPLEX_T4)
    assert down_closure(family(3, [[]])).family == SetFamily(3, (0,))
    assert down_closure(family(4, [[1, 2], [1, 3], [2, 3], [4]])).family == family(
        4, COMPLEX_T4
    )


def test_down_closure_idempotent_and_membership():
    rng = random.Random(20)
    for _ in range(100):
        t = rng.randint(1, 7)
        gens = SetFamily(t, tuple(rng.randrange(1 << t) for _ in range(rng.randint(1, 6))))
        c = down_closure(gens)
        assert down_closure(c.family).family == c.family
        memb = c.family._member_set
        for s in range(1 << t):
            assert (s in memb) == any(s & ~g == 0 for g in gens)


def test_facets_examples():
    assert complex_of(4, COMPLEX_T4).facets == clutter(4, [[1, 2], [1, 3], [2, 3], [4]])
    assert complex_of(4, SIMPLEX_T4).facets == clutter(4, [[2, 3, 4]])
    assert Complex(SetFamily(3, (0,))).facets == Clutter(3, (0,))


def test_facets_of_down_closures():
    assert down_closure(family(3, [[1], [1, 2], [2, 3]])).facets == clutter(3, [[1, 2], [2, 3]])
    assert down_closure(SetFamily(4, tuple(range(16)))).facets == Clutter(4, (full_mask(4),))


def test_facets_roundtrip():
    rng = random.Random(21)
    for _ in range(100):
        t = rng.randint(1, 7)
        gens = SetFamily(t, tuple(rng.randrange(1 << t) for _ in range(rng.randint(1, 6))))
        c = down_closure(gens)
        assert down_closure(SetFamily(t, c.facets.members)).family == c.family


def test_dim_and_vertex_cache():
    c = complex_of(4, COMPLEX_T4)
    assert c.vertex_mask == full_mask(4)
    assert c.dim_size == 2
    assert Complex(SetFamily(3, (0,))).dim_size == 0


def test_vertices_and_dimension_read_the_bitmap():
    # the complement complex of the triangle's up-family at t = 16
    # (faces meeting {1,2,3} at most once), which is its own Alexander dual
    c = complement_complex(up_closure(clutter(16, TRIANGLE)))
    d = alexander_dual(c)
    assert c.vertex_mask == full_mask(16) and c.dim_size == 14
    assert not d.vertex_mismatch and d.family.bitmap == c.family.bitmap
    for fam in (c.family, d.family):
        assert "members" not in fam.__dict__


def test_alexander_dual_self_dual_example():
    c = complex_of(4, COMPLEX_T4)
    d = alexander_dual(c)
    assert not d.vertex_mismatch
    assert d.family == c.family
    assert is_alexander_self_dual(c)


def test_alexander_dual_of_full_simplex_is_empty_and_flagged():
    c = complex_of(2, [[], [1], [2], [1, 2]])
    d = alexander_dual(c)
    assert d.family.members == ()
    assert d.vertex_mismatch
    with pytest.raises(ValueError):
        d.as_complex()


def test_alexander_dual_segment_boundary_flagged():
    c = complex_of(2, [[], [1], [2]])
    d = alexander_dual(c)
    assert d.family == SetFamily(2, (0,))
    assert d.vertex_mismatch


def test_alexander_dual_rejects_point_complex():
    with pytest.raises(EmptyVertexSet):
        alexander_dual(Complex(SetFamily(3, (0,))))


def test_alexander_dual_is_involutive_when_vertices_match():
    rng = random.Random(22)
    seen = 0
    for _ in range(600):
        t = rng.randint(2, 6)
        gens = SetFamily(t, tuple(rng.randrange(1 << t) for _ in range(rng.randint(1, 5))))
        c = down_closure(gens)
        if c.vertex_mask == 0:
            continue
        d = alexander_dual(c)
        if d.vertex_mismatch:
            continue
        seen += 1
        dd = alexander_dual(d.as_complex())
        assert not dd.vertex_mismatch
        assert dd.family == c.family
    assert seen > 50


def test_alexander_self_dual_examples():
    assert is_alexander_self_dual(complex_of(4, COMPLEX_T4))
    # 8 faces but only 3 vertices: 8 != 2^2
    assert not is_alexander_self_dual(complex_of(4, SIMPLEX_T4))
    assert not is_alexander_self_dual(complex_of(1, [[], [1]]))


def test_alexander_cardinality_test_is_necessary_not_sufficient():
    # half of 2^V faces without being self-dual
    c = complex_of(4, [[], [1], [2], [3], [4], [1, 3], [1, 4], [2, 4]])
    assert len(c.family) == 1 << (c.vertex_mask.bit_count() - 1)
    assert not is_alexander_self_dual(c)


def test_alexander_equivalence_direction_exhaustive_t3():
    # structural self-duality always forces the cardinality count
    for comb in range(1 << 7):  # subsets of the 7 nonempty masks of E_3
        members = (0,) + tuple(m for m in range(1, 8) if comb >> (m - 1) & 1)
        fam = SetFamily(3, members)
        memb = set(members)
        if any((m & ~(1 << i)) not in memb for m in members for i in range(3) if m >> i & 1):
            continue  # not downward closed
        c = Complex(fam)
        if c.vertex_mask == 0:
            continue
        if is_alexander_self_dual(c):
            assert len(fam) == 1 << (c.vertex_mask.bit_count() - 1)


def test_is_star_self_dual_examples():
    assert is_star_self_dual(complex_of(4, COMPLEX_T4))
    assert is_star_self_dual(complex_of(4, SIMPLEX_T4))
    assert not is_star_self_dual(Complex(SetFamily(3, tuple(range(8)))))


def test_star_selfdual_facts_examples():
    # star(D) = D forces f_l + f_(t-l) = C(t,l) (eq28) and, at even t,
    # f_(t/2) = C(t,t/2) / 2 (eq29): appendix verdicts of D's own family
    examples = (complex_of(4, COMPLEX_T4), complex_of(4, SIMPLEX_T4), simplex_without(6, 1))
    for c in examples:
        rep = check_appendix(c.family)
        assert rep["pass"]
        assert rep["checks"]["eq28"] == rep["checks"]["eq29"] == "pass"
    f = [f_vector(c.family).counts for c in examples]
    assert f[0][2] == 3
    assert f[1][0] + f[1][4] == 1
    assert f[2] == (1, 5, 10, 10, 5, 1, 0)


def test_star_selfdual_facts_rejects_others():
    with pytest.raises(NotStarSelfDual):
        check_appendix(Complex(SetFamily(3, tuple(range(8)))).family)


def test_star_selfdual_forces_empty_and_full_slots():
    # f_0 = 1 and f_t = 0 for every star-self-dual complex
    rng = random.Random(23)
    found = 0
    for _ in range(2000):
        t = rng.randint(2, 5)
        memb = [0]
        for pair in range(1 << (t - 1)):
            memb.append(pair if rng.random() < 0.5 else pair ^ full_mask(t))
        fam = SetFamily(t, tuple(set(memb)))
        try:
            c = Complex(fam)
        except ValueError:
            continue
        if not is_star_self_dual(c):
            continue
        found += 1
        assert 0 in fam and full_mask(t) not in fam
    assert found > 0


def test_complex_side_bijection_with_clutters(enum4):
    # complement of each self-dual up-family is a star-self-dual complex
    for cl in enum4.items:
        up = up_closure(cl)
        rest = SetFamily(4, tuple(m for m in range(16) if m not in up))
        c = Complex(rest)
        assert is_star_self_dual(c)
        # the complement is star-closed too, and the up-family side
        # recovers its generating clutter
        assert star(rest) == rest
        assert min_elements(up) == cl


def test_face_count_implication_raises_package_error(monkeypatch):
    # a dual that claims D = dual(D) for a complex with 8 != 2^(3-1) faces
    # must raise InconsistentResult, also under python -O
    c = complex_of(4, SIMPLEX_T4)
    monkeypatch.setattr(complexes, "alexander_dual", lambda cx: AlexanderDual(cx.family, False))
    with pytest.raises(InconsistentResult, match="face count"):
        is_alexander_self_dual(c)
