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

from dataclasses import dataclass

from .complexes import Complex, is_star_self_dual
from .errors import GroundSetTooLarge, NotSelfDual, NotStarSelfDual
from .identities import check_appendix
from .kks import verify_lemma2, verify_theorem3
from .sets import (
    Clutter,
    SetFamily,
    UpFamily,
    blocker,
    check_ground_set,
    complement_bitmap,
    is_self_dual,
    minimal_bitmap,
    self_dual_criterion,
    star_bitmap,
    up_bitmap,
    up_closure,
)

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
    """Run the full verification harness over every enumerated object.

    Even t >= 4: theorem3 bounds on each up-family, lemma2 bounds on each
    complement complex, appendix identities on each up-family. Odd t and
    t = 2, where the bound tables are undefined: agreement of the blocker
    test with the cardinality criterion, plus the appendix identities.
    Failures are report content, not errors. A precomputed enumeration
    may be passed to avoid repeating the search.
    """
    res = result if result is not None else enumerate_self_dual(t)
    report: dict = {"t": t, "count": res.count}
    failures = 0
    if t % 2 == 0 and t >= 4:
        t3 = l2 = app = 0
        for cl in res.items:
            up = up_closure(cl)
            if verify_theorem3(cl)["pass"]:
                t3 += 1
            if verify_lemma2(complement_complex(up))["pass"]:
                l2 += 1
            if check_appendix(up.family())["pass"]:
                app += 1
        failures = 3 * res.count - t3 - l2 - app
        report["theorem3"] = {"passed": t3, "failed": res.count - t3}
        report["lemma2"] = {"passed": l2, "failed": res.count - l2}
        report["appendix"] = {"passed": app, "failed": res.count - app}
    else:
        eq = app = 0
        for cl in res.items:
            if is_self_dual(cl) == self_dual_criterion(cl):
                eq += 1
            if check_appendix(up_closure(cl).family())["pass"]:
                app += 1
        failures = 2 * res.count - eq - app
        report["criterion_equivalence"] = {"passed": eq, "failed": res.count - eq}
        report["appendix"] = {"passed": app, "failed": res.count - app}
    report["pass"] = failures == 0
    return report
