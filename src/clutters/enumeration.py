"""Exhaustive enumeration of self-dual clutters on small ground sets.

A clutter A is self-dual (A = B(A)) iff its up-family F = A^v satisfies
F* = F, i.e. F holds exactly one set of each complementary pair. Split F
into the members without element t (F0, an up-family on E_(t-1)) and the
members with it. F* = F forces the second part to be {S+{t} : S in
star(F0)}, and F0 must hold no complementary pair of E_(t-1): otherwise
S and E_(t-1) - S in F0 would put both S and E_t - S in F. Conversely
every pair-free up-family F0 lies inside star(F0), so F0 plus the lifted
star(F0) is up-closed and self-dual. The self-dual clutters on E_t are
therefore the minimal members of exactly these families, one per
pair-free up-family F0 on E_(t-1).

The search walks antichains on E_(t-1) depth-first, adding candidate
generators in ascending (size, mask) order and tracking the up-family as
a bitmap over 2^(t-1) subsets. Adding c keeps the family pair-free iff
the new bitmap lacks E_(t-1) - c, a one-bit test. It is sound because
every new member contains c: a new pair (X, E_(t-1) - X) with X
containing c puts E_(t-1) - c, a subset of E_(t-1) - X, in the
up-family. A rejected node has no pair-free descendants, since
generators only add members, so every visited node is a hit. Each
antichain is reached only by choosing its members in candidate order, so
each clutter is emitted once. Every hit is still certified with an
actual blocker computation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .complexes import Complex, is_star_self_dual
from .errors import GroundSetTooLarge, NotSelfDual, NotStarSelfDual
from .identities import appendix_report, star_fixed, verdict
from .kks import _verify_against, lemma2_table, theorem3_table
from .sets import (
    Clutter,
    SetFamily,
    UpFamily,
    blocker,
    check_ground_set,
    complement_bitmap,
    layer_counts,
    minimal_bitmap,
    star_bitmap,
    up_bitmap,
    up_closure,
)
from .vectors import FVector, binom

MAX_ENUM_T = 6


@dataclass(frozen=True)
class EnumerationResult:
    t: int
    count: int
    items: tuple


def enumerate_self_dual(t: int) -> EnumerationResult:
    """All self-dual clutters on E_t, each exactly once, ascending by members.

    Supported for 1 <= t <= 6 (counts 1, 2, 4, 12, 81, 2646; OEIS
    A001206). At t = 7 there are 1,422,564, more than this function
    holds as objects. Each clutter comes from one up-family F0 on E_(t-1) without
    a complementary pair, as the minimal members of F0 plus
    {S+{t} : S in star(F0)}; the empty F0 gives {{t}}.
    """
    check_ground_set(t)
    if t > MAX_ENUM_T:
        raise GroundSetTooLarge(f"full enumeration supported for t <= {MAX_ENUM_T}")
    s = t - 1
    full = (1 << s) - 1
    cands = sorted(range(1, 1 << s), key=lambda m: (m.bit_count(), m))
    ups = [up_bitmap(1 << c, s) for c in cands]
    upsets: list[int] = []

    def rec(start: int, bm: int) -> None:
        upsets.append(bm)
        for j in range(start, len(cands)):
            c = cands[j]
            if bm >> c & 1:
                continue  # c contains an already chosen generator
            nb = bm | ups[j]
            if not nb >> (full ^ c) & 1:
                rec(j + 1, nb)

    rec(0, 0)
    clutters = []
    for bm in upsets:
        up = bm | star_bitmap(bm, s) << (1 << s)
        cl = Clutter._from_minimal_bitmap(t, minimal_bitmap(up, t))
        if blocker(cl) != cl:
            raise NotSelfDual(f"search hit {cl!r} failed blocker certification")
        clutters.append(cl)
    clutters.sort(key=lambda cl: cl.members)
    return EnumerationResult(t, len(clutters), tuple(clutters))


def complement_complex(u: SetFamily | UpFamily) -> Complex:
    """The complex 2^[t] - F for an increasing family F with F* = F."""
    return Complex(SetFamily.from_bitmap(u.t, complement_bitmap(u.bitmap, u.t)))


def enumerate_star_selfdual_complexes(t: int) -> EnumerationResult:
    """Images of the self-dual clutters under A -> 2^[t] - A^v; every
    output is independently re-verified to satisfy star(D) = D."""
    res = enumerate_self_dual(t)
    complexes = []
    for cl in res.items:
        cx = complement_complex(up_closure(cl))
        if not is_star_self_dual(cx):
            raise NotStarSelfDual(f"bijection image of {cl!r} failed the star check")
        complexes.append(cx)
    return EnumerationResult(t, len(complexes), tuple(complexes))


def verify_universe(t: int, result: EnumerationResult | None = None) -> dict:
    """Run the full verification harness over every enumerated clutter.

    Each clutter A is certified once, on its up-set bitmap ((A^v)* = A^v
    iff A = B(A); NotSelfDual otherwise). The rest reads only the
    f-vector of A^v, so it runs once per distinct f-vector (2,646
    clutters at t = 6 have 7), counted with its multiplicity. Even
    t >= 4: theorem3 bounds, lemma2 bounds on the complement complex
    2^[t] - A^v (f-vector C(t,k) - f_k) and the appendix identities. Odd
    t and t = 2, where the bound tables are undefined: agreement of the
    blocker test with the cardinality criterion #A^v = 2^(t-1), plus the
    appendix identities. Failures are report content, not errors. A
    precomputed enumeration may be passed to avoid repeating the search.
    """
    res = result if result is not None else enumerate_self_dual(t)
    tally: Counter[tuple[int, ...]] = Counter()
    for cl in res.items:
        up = cl.upset_bitmap
        if star_bitmap(up, t) != up:
            raise NotSelfDual(f"enumerated {cl!r} does not equal its blocker")
        tally[tuple(layer_counts(up, t))] += 1
    bounds = t % 2 == 0 and t >= 4
    names = ("theorem3", "lemma2") if bounds else ("criterion_equivalence",)
    passed = dict.fromkeys(names + ("appendix",), 0)
    for f, n in tally.items():
        fv = FVector(t, f)
        if bounds:
            rest = FVector(t, tuple(binom(t, k) - fk for k, fk in enumerate(f)))
            passed["theorem3"] += n * _verify_against(theorem3_table(t), fv)["pass"]
            passed["lemma2"] += n * _verify_against(lemma2_table(t), rest)["pass"]
        else:
            ok = verdict("star_count", star_fixed(fv)) == "pass"
            passed["criterion_equivalence"] += n * ok
        passed["appendix"] += n * appendix_report(fv)["pass"]
    report: dict = {"t": t, "count": res.count}
    for name, ok in passed.items():
        report[name] = {"passed": ok, "failed": res.count - ok}
    report["pass"] = all(ok == res.count for ok in passed.values())
    return report
