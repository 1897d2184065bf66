"""Abstract simplicial complexes on E_t and their dualities.

A complex is a downward-closed, nonempty family of faces. Two distinct
notions of self-duality appear here:

  * star self-duality, star(D) = D, taken relative to the full ground set;
  * Alexander self-duality, D = dual(D), taken relative to the vertex set
    V(D) only.

Complexes are dense objects: validation, closure and both duals run on
the family's 2^t-bit bitmap, so every complex needs t <= 28.

The Alexander dual is {V - F : F subset of V, F not a face}. The defining
condition presumes V(dual) = V(D); when that fails (including the case of
an empty dual) the result carries an explicit vertex_mismatch flag rather
than a silently reinterpreted complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import EmptyVertexSet, InconsistentResult, NotStarSelfDual
from .sets import (
    Clutter,
    SetFamily,
    down_bitmap,
    iter_bits,
    max_elements,
    star_bitmap,
)
from .identities import star_fixed, verdict
from .vectors import f_vector


@dataclass(frozen=True)
class Complex:
    """Downward-closed nonempty family of faces on E_t."""

    family: SetFamily

    def __post_init__(self) -> None:
        f = self.family
        if not f.members:
            raise ValueError("a complex has at least the empty face")
        if down_bitmap(f.bitmap, f.t) != f.bitmap:
            # name the first face, in canonical order, that lacks a subset
            faces = f._member_set
            m, s = next((m, m ^ 1 << i) for m in f.members for i in iter_bits(m)
                        if m ^ 1 << i not in faces)
            raise ValueError(f"not downward closed: face {m:b} lacks subset {s:b}")

    @property
    def t(self) -> int:
        return self.family.t

    @cached_property
    def vertex_mask(self) -> int:
        """V(D): union of all faces."""
        return self.family.vertex_mask()

    @cached_property
    def facets(self) -> Clutter:
        """Inclusion-maximal faces."""
        return max_elements(self.family)

    @cached_property
    def dim_size(self) -> int:
        """d(D): largest face size (0 for the complex {0})."""
        return max(m.bit_count() for m in self.family.members)

    def __len__(self) -> int:
        return len(self.family)


def down_closure(f: SetFamily) -> Complex:
    """Smallest complex containing every member of f (t <= 28)."""
    if not f.members:
        raise ValueError("cannot build a complex from an empty family")
    return Complex(SetFamily.from_bitmap(f.t, down_bitmap(f.bitmap, f.t)))


def facets(c: Complex) -> Clutter:
    return c.facets


@dataclass(frozen=True)
class AlexanderDual:
    """Result of Alexander dualization.

    family is the dual face family (possibly empty); vertex_mismatch is
    True when V(dual) differs from V(D), the case the duality's defining
    condition excludes.
    """

    family: SetFamily
    vertex_mismatch: bool

    def as_complex(self) -> Complex:
        if not self.family.members:
            raise ValueError("dual family is empty, not a complex")
        return Complex(self.family)


def alexander_dual(c: Complex) -> AlexanderDual:
    """Dual {V - F : F in 2^V - D} computed relative to V = V(D).

    With W = E_t - V, the map F -> F + W sends D into the sets containing
    W, and V - F = E_t - (F + W); so the dual is the part of
    star({F + W : F in D}) inside 2^V. Adding W is a shift of the bitmap.
    """
    t = c.t
    v = c.vertex_mask
    if v == 0:
        raise EmptyVertexSet("the complex {0} has no vertices to dualize over")
    w = v ^ ((1 << t) - 1)
    dual = star_bitmap(c.family.bitmap << w, t) & down_bitmap(1 << v, t)
    fam = SetFamily.from_bitmap(t, dual)
    return AlexanderDual(fam, fam.vertex_mask() != v)


def is_alexander_self_dual(c: Complex) -> bool:
    """D = dual(D), evaluated structurally.

    The cardinality test #D = 2^(|V|-1) is evaluated alongside; equality
    of D and its dual forces it, and InconsistentResult is raised if that
    direction fails. The converse is false: {0,1,2,3,4,13,14,24} on
    V = E_4 has 8 = 2^3 faces but differs from its dual.
    """
    d = alexander_dual(c)
    structural = not d.vertex_mismatch and d.family == c.family
    by_count = len(c.family) == 1 << (c.vertex_mask.bit_count() - 1)
    if structural and not by_count:
        raise InconsistentResult("Alexander self-dual complex with a wrong face count")
    return structural


def is_star_self_dual(c: Complex) -> bool:
    """star(D) = D relative to the full ground set E_t (t <= 28)."""
    bm = c.family.bitmap
    return star_bitmap(bm, c.t) == bm


def check_star_selfdual_facts(c: Complex) -> dict:
    """Enumerative facts forced by star(D) = D, read from the identity
    registry with D* = D:

      count   #D = 2^(t-1)                        (star_count)
      eq17    f_l + f_{t-l} = C(t,l) for all l    (eq28)
      middle  f_{t/2} = C(t,t/2) / 2              (eq29; even t only, else None)
    """
    if not is_star_self_dual(c):
        raise NotStarSelfDual("facts apply only when star(D) = D")
    v = star_fixed(f_vector(c.family))
    report: dict = {"t": c.t, "f": list(v.f)}
    for key, label in (("count", "star_count"), ("eq17", "eq28"), ("middle", "eq29")):
        got = verdict(label, v)
        report[key] = None if got == "n/a" else got == "pass"
    report["pass"] = False not in (report["count"], report["eq17"], report["middle"])
    return report
