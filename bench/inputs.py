"""Seeded input generators for the benchmark.

Everything here is a pure function of its seed and uses no `clutters`
code, so the same seed gives byte-identical input files.
"""

from __future__ import annotations

import random

import oracle


def random_clutter(t: int, n: int, rng: random.Random, sizes=(3, 7)) -> list[int]:
    """Inclusion-minimal members of n distinct random sets whose sizes are
    drawn uniformly from `sizes` (inclusive)."""
    drawn: set[int] = set()
    while len(drawn) < n:
        k = rng.randint(*sizes)
        drawn.add(sum(1 << e for e in rng.sample(range(t), k)))
    kept: list[int] = []
    for m in sorted(drawn, key=lambda x: (x.bit_count(), x)):
        if not any(r & ~m == 0 for r in kept):
            kept.append(m)
    return sorted(kept)


def relabel(masks, perm: list[int]) -> list[int]:
    """Image of each mask under the element map i -> perm[i] (0-based)."""
    return sorted(sum(1 << perm[i] for i in range(len(perm)) if m >> i & 1) for m in masks)


def compose(a, ta: int, e: int, b, tb: int) -> tuple[list[int], int]:
    """Substitute clutter b (on tb fresh elements) for element e of a.

    Members of a without e are kept; each member S with e becomes
    (S - e) + T for every T in b. Blockers compose the same way, so the
    composition of self-dual clutters is self-dual. The ground set is
    renumbered: a's other elements first, then b's.
    """
    keep = [i for i in range(ta) if i != e]

    def ra(m: int) -> int:
        return sum(1 << j for j, i in enumerate(keep) if m >> i & 1)

    out: list[int] = []
    for s in a:
        if s >> e & 1:
            base = ra(s)
            out.extend(base | (m << (ta - 1)) for m in b)
        else:
            out.append(ra(s))
    return sorted(out), ta - 1 + tb


def full_support_pools(universes: dict[int, list]) -> dict[int, list]:
    """Self-dual clutters that use every element of their ground set."""
    pools = {}
    for t, clutters in universes.items():
        full = (1 << t) - 1
        pools[t] = [c for c in clutters if _union(c) == full]
    return pools


def _union(masks) -> int:
    v = 0
    for m in masks:
        v |= m
    return v


def composed_self_dual(target: int, pools: dict[int, list], rng: random.Random):
    """A self-dual clutter on E_target, composed from random full-support
    parts on 3..6 elements. Each part replaces a random element among
    those in the fewest members, which keeps the member count from
    multiplying."""
    sizes = sorted(pools)
    t = rng.choice([s for s in sizes if s <= target and target - s != 1])
    masks = list(rng.choice(pools[t]))
    while t < target:
        room = target - t
        s = rng.choice([s for s in sizes if s - 1 <= room and room - (s - 1) != 1])
        degree = [sum(m >> i & 1 for m in masks) for i in range(t)]
        e = rng.choice([i for i in range(t) if degree[i] == min(degree)])
        masks, t = compose(masks, t, e, rng.choice(pools[s]), s)
    perm = list(range(t))
    rng.shuffle(perm)
    return relabel(masks, perm)


def star_self_dual(t: int, rng: random.Random) -> list[int]:
    """One member of each complementary pair, chosen by the RNG."""
    full = (1 << t) - 1
    return sorted(g if rng.getrandbits(1) else full ^ g for g in range(1 << (t - 1)))


def write_family(path: str, t: int, masks) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(oracle.format_family(t, masks))
