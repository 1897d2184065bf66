"""Exhaustive enumeration of self-dual clutters on small ground sets.

The search walks antichains depth-first, adding candidate generators in
ascending (size, mask) order and tracking the generated up-family as a
bitmap over all 2^t subsets. Branches are cut when the up-family exceeds
2^(t-1) members (self-dual clutters generate exactly that many) or when
the remaining candidates cannot reach that count. Cardinality alone does
not certify self-duality (see self_dual_criterion), so every hit is
filtered by the one-member-per-complementary-pair test star(F) = F on
its up-family bitmap and then certified with an actual blocker computation.

Each self-dual clutter is emitted exactly once: an antichain is reached
only by choosing its members in candidate order, and distinct antichains
generate distinct up-families.
"""

from __future__ import annotations

import multiprocessing
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


def _candidates(t: int) -> list[int]:
    return sorted(range(1, 1 << t), key=lambda m: (m.bit_count(), m))


def _tables(t: int):
    """Per-candidate superset bitmaps and suffix unions."""
    cands = _candidates(t)
    up = {c: up_bitmap(1 << c, t) for c in cands}
    suffix = [0] * (len(cands) + 1)
    for j in range(len(cands) - 1, -1, -1):
        suffix[j] = suffix[j + 1] | up[cands[j]]
    return cands, up, suffix


def _subtree(args: tuple[int, int]) -> list[tuple[int, ...]]:
    """All accepted antichains whose first generator is candidate j0."""
    t, j0 = args
    cands, up, suffix = _tables(t)
    half = 1 << (t - 1)
    n = len(cands)
    out: list[tuple[int, ...]] = []

    def rec(i: int, chosen: tuple[int, ...], bm: int) -> None:
        for j in range(i, n):
            c = cands[j]
            if bm >> c & 1:
                continue  # c contains an already chosen generator
            nb = bm | up[c]
            ns = nb.bit_count()
            if ns > half:
                continue
            if ns == half:
                if star_bitmap(nb, t) == nb:
                    out.append(chosen + (c,))
            elif (nb | suffix[j + 1]).bit_count() >= half:
                rec(j + 1, chosen + (c,), nb)

    c0 = cands[j0]
    bm0 = up[c0]
    if bm0.bit_count() == half:
        if star_bitmap(bm0, t) == bm0:
            out.append((c0,))
    elif (bm0 | suffix[j0 + 1]).bit_count() >= half:
        rec(j0 + 1, (c0,), bm0)
    return out


def enumerate_self_dual(t: int, workers: int = 1) -> EnumerationResult:
    """All self-dual clutters on E_t, each exactly once, search order.

    Supported for 1 <= t <= 6 (counts 1, 2, 4, 12, 81, 2646); the t = 7
    universe is astronomically larger and out of scope. With workers > 1
    the search forest is split at depth one (choice of first generator)
    and the per-subtree results are concatenated in candidate order, so
    output is identical for any worker count.
    """
    check_ground_set(t)
    if t > MAX_ENUM_T:
        raise GroundSetTooLarge(f"full enumeration supported for t <= {MAX_ENUM_T}")
    n = len(_candidates(t))
    jobs = [(t, j0) for j0 in range(n)]
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            chunks = pool.map(_subtree, jobs)
    else:
        chunks = [_subtree(job) for job in jobs]
    clutters = []
    for chunk in chunks:
        for masks in chunk:
            cl = Clutter(t, masks)
            if blocker(cl) != cl:
                raise NotSelfDual(f"search hit {cl!r} failed blocker certification")
            clutters.append(cl)
    return EnumerationResult(t, len(clutters), tuple(clutters))


def complement_complex(u: SetFamily | UpFamily) -> Complex:
    """The complex 2^[t] - F for an increasing family F with F* = F."""
    return Complex(SetFamily.from_bitmap(u.t, complement_bitmap(u.bitmap, u.t)))


def enumerate_star_selfdual_complexes(t: int, workers: int = 1) -> EnumerationResult:
    """Images of the self-dual clutters under A -> 2^[t] - A^v; every
    output is independently re-verified to satisfy star(D) = D."""
    res = enumerate_self_dual(t, workers=workers)
    complexes = []
    for cl in res.items:
        cx = complement_complex(up_closure(cl))
        if not is_star_self_dual(cx):
            raise NotStarSelfDual(f"bijection image of {cl!r} failed the star check")
        complexes.append(cx)
    return EnumerationResult(t, len(complexes), tuple(complexes))


def verify_universe(
    t: int, workers: int = 1, result: EnumerationResult | None = None
) -> dict:
    """Run the full verification harness over every enumerated object.

    Even t: theorem3 bounds on each up-family, lemma2 bounds on each
    complement complex, appendix identities on each up-family. Odd t:
    agreement of the blocker test with the cardinality criterion, plus
    the appendix identities. Failures are report content, not errors.
    A precomputed enumeration may be passed to avoid repeating the search.
    """
    res = result if result is not None else enumerate_self_dual(t, workers=workers)
    report: dict = {"t": t, "count": res.count}
    failures = 0
    if t % 2 == 0:
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
