"""Naive oracles for the dense bitmap kernel, the self-dual search, the
text and JSON writers and the universe verification.

These are the loops over all 2^t subsets that the package used before
its dense operations moved to 2^t-bit bitmaps, the direct antichain
search on E_t that the enumeration used before it went through E_(t-1),
and the member-at-a-time loops that wrote families before `familyio`
wrote them from half-word tables; the all-pairs minimalization and
antichain test that `sets` used before it compared a mask only with
smaller sizes; `low_layers_intersect`, the fact
behind the bound tables at every t, tested on masks; and
`self_dual_count`, the number of self-dual clutters as a sum over pairs
of up-families, the enumeration's own decomposition written again. They
work on plain mask tuples and ints, share no code with `clutters`, and
are meant for small t only.

The exception is `verify_universe`: the clutter-by-clutter universe
check, built from the package's self-certifying per-family verifiers,
against which the per-f-vector `clutters.verify_universe` is compared.
"""

import json
import random

from clutters import (
    check_appendix,
    complement_complex,
    up_closure,
    verify_lemma2,
    verify_theorem3,
)


def iter_supersets(mask, t):
    """All supersets of mask within E_t."""
    rest = ((1 << t) - 1) ^ mask
    s = rest
    while True:
        yield mask | s
        if s == 0:
            return
        s = (s - 1) & rest


def iter_subsets(mask):
    """All subsets of mask, including 0 and mask itself."""
    s = mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask


def elements(mask):
    """1-based elements of a mask, ascending."""
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def is_antichain(members):
    """No member contains another, by a check of every pair."""
    return not any(a != b and a & ~b == 0 for a in members for b in members)


def minimalize(masks):
    """Inclusion-minimal masks in ascending (size, mask) order, each mask
    compared with every mask kept before it."""
    kept = []
    for m in sorted(set(masks), key=lambda x: (x.bit_count(), x)):
        if not any(r & ~m == 0 for r in kept):
            kept.append(m)
    return kept


def first_contained_pair(masks):
    """(i, j) for the first j, in ascending order of the distinct masks,
    that contains an earlier mask i, and the first such i; None for an
    antichain. Every pair is checked."""
    ms = sorted(set(masks))
    for j in range(len(ms)):
        for i in range(j):
            if ms[i] & ~ms[j] == 0:
                return ms[i], ms[j]
    return None


def maximal_members(members):
    """Members contained in no other member, by a check of every pair."""
    return tuple(sorted(
        m for m in set(members) if not any(m != o and m & ~o == 0 for o in members)
    ))


def format_family(t, members):
    """Text form of a family: header, then one brace line per member."""
    lines = [f"t: {t}"]
    for m in members:
        lines.append("{" + ",".join(map(str, elements(m))) + "}")
    return "\n".join(lines) + "\n"


def members_json(obj, members):
    """`--json` output of a family: its member lists under "members",
    after the keys of obj, by json.dumps, and print's newline."""
    return json.dumps({**obj, "members": [elements(m) for m in members]}, indent=2) + "\n"


def up_family(members, t):
    """Up-closure within 2^[t], member by member."""
    out = set()
    for g in members:
        out.update(iter_supersets(g, t))
    return tuple(sorted(out))


def down_family(members):
    """Down-closure, member by member."""
    out = set()
    for m in members:
        out.update(iter_subsets(m))
    return tuple(sorted(out))


def is_down_closed(members):
    """Every face minus one element is a face."""
    faces = set(members)
    return all(m ^ (1 << i) in faces for m in faces for i in range(m.bit_length()) if m >> i & 1)


def minimal_members(members):
    """Members S with no member S - {e} (the minimal members of an up-set)."""
    memb = set(members)
    return tuple(sorted(
        m for m in memb
        if not any(m >> i & 1 and m ^ (1 << i) in memb for i in range(m.bit_length()))
    ))


def f_counts(members, t):
    counts = [0] * (t + 1)
    for m in members:
        counts[m.bit_count()] += 1
    return counts


def rest_family(members, t):
    """2^[t] - F by a scan of all subsets."""
    memb = set(members)
    return tuple(g for g in range(1 << t) if g not in memb)


def star(members, t):
    """Star by definition: complements of the non-members."""
    full = (1 << t) - 1
    memb = set(members)
    return tuple(sorted(full ^ g for g in range(1 << t) if g not in memb))


def blocker_sweep(members, t):
    """Blocker by a sweep of all subsets: every blocking set, then the ones
    that stay blocking under no single-element removal."""
    blocking = [b for b in range(1 << t) if all(b & m for m in members)]
    bset = set(blocking)
    return tuple(
        b for b in blocking
        if not any(b >> i & 1 and b ^ (1 << i) in bset for i in range(t))
    )


def blocker_brute(members, t):
    """Blocking sets by full scan; minimality by scanning all proper subsets."""
    blocking = [b for b in range(1 << t) if all(b & a for a in members)]
    bset = set(blocking)
    minimal = []
    for b in blocking:
        proper = [s for s in range(1 << t) if s & ~b == 0 and s != b]
        if not any(s in bset for s in proper):
            minimal.append(b)
    return tuple(sorted(minimal))


def alexander_dual(faces, v):
    """{V - F : F subset of V, F not a face}, by a scan of 2^V."""
    memb = set(faces)
    return tuple(sorted(v ^ s for s in iter_subsets(v) if s not in memb))


def pruned_self_dual_search(t):
    """Antichains A on E_t whose up-family F has 2^(t-1) members and F* = F.

    Depth-first over antichains with generators in ascending (size, mask)
    order. A branch is cut when F exceeds 2^(t-1) members or when F plus
    the up-sets of all remaining candidates stays below 2^(t-1). Returns
    each hit's members as an ascending mask tuple, in search order.
    """
    n = 1 << t
    half = n >> 1
    cands = sorted(range(1, n), key=lambda m: (m.bit_count(), m))
    up = [sum(1 << s for s in iter_supersets(c, t)) for c in cands]
    suffix = [0] * (len(cands) + 1)
    for j in range(len(cands) - 1, -1, -1):
        suffix[j] = suffix[j + 1] | up[j]
    everything = (1 << n) - 1
    out = []

    def is_star_fixed(bm):
        # bit E_t - G of F* is set iff bit G of F is clear: reverse ~F
        return bm == int(format(everything ^ bm, f"0{n}b")[::-1], 2)

    def rec(i, chosen, bm):
        for j in range(i, len(cands)):
            c = cands[j]
            if bm >> c & 1:
                continue
            nb = bm | up[j]
            size = nb.bit_count()
            if size > half:
                continue
            if size == half:
                if is_star_fixed(nb):
                    out.append(tuple(sorted(chosen + (c,))))
            elif (nb | suffix[j + 1]).bit_count() >= half:
                rec(j + 1, chosen + (c,), nb)

    rec(0, (), 0)
    return out


def random_star_selfdual(t, seed):
    """One getrandbits(1) per complementary pair, ascending by the smaller
    mask g: g on a 1, E_t - g on a 0. Returns the ascending member tuple."""
    rng = random.Random(seed)
    full = (1 << t) - 1
    members = [g if rng.getrandbits(1) else full ^ g for g in range(1 << (t - 1))]
    return tuple(sorted(members))


def low_layers_intersect(members, t):
    """Every k-layer of the family with 0 < 2k < t is pairwise
    intersecting. meets[i] has bit j set iff the j-th set of the layer
    holds element i, so the sets meeting S are the OR of meets[i] over
    i in S, and the layer is intersecting iff that is all of it for
    every S."""
    for k in range(1, (t + 1) // 2):
        layer = [m for m in members if m.bit_count() == k]
        meets = [sum(1 << j for j, m in enumerate(layer) if m >> i & 1) for i in range(t)]
        everyone = (1 << len(layer)) - 1
        for s in layer:
            hit = 0
            for i in elements(s):
                hit |= meets[i - 1]
            if hit != everyone:
                return False
    return True


def verify_universe(t, result):
    """Theorem3, lemma2 on the complement complex and the appendix, per
    clutter."""
    checks = {
        "theorem3": lambda cl: verify_theorem3(cl)["pass"],
        "lemma2": lambda cl: verify_lemma2(complement_complex(up_closure(cl)))["pass"],
        "appendix": lambda cl: check_appendix(up_closure(cl))["pass"],
    }
    report = {"t": t, "count": result.count}
    for name, check in checks.items():
        passed = sum(1 for cl in result.items if check(cl))
        report[name] = {"passed": passed, "failed": result.count - passed}
    report["pass"] = all(report[name]["failed"] == 0 for name in checks)
    return report


def up_families(n):
    """Bitmaps of all up-families on E_n (the Dedekind numbers 2, 3, 6,
    20, 168, 7581 for n = 0..5). Bit S stands for subset S. A family is
    up-closed iff its members without element n (the low half) and its
    members with n, n removed (the high half), are up-closed and the low
    half lies inside the high half."""
    if n == 0:
        return [0, 1]
    shift = 1 << (n - 1)
    below = up_families(n - 1)
    return [lo | hi << shift for hi in below for lo in below if lo & ~hi == 0]


def self_dual_count(t):
    """Number of self-dual clutters on E_t, without a search: the sum over
    up-families G on E_(t-2) of #{up-family H : G <= H <= star(G)}.

    A self-dual clutter on E_t is one pair-free up-family F0 on E_(t-1);
    split F0 on element t-1 into G (members without it) and H (members
    with it, it removed): F0 is up-closed iff G <= H, and pair-free iff
    H <= star(G). has[S] has bit j set iff subset S is in the j-th
    up-family, so the H that fit one G are the AND of has[S] over S in G
    and of its complement over S outside star(G).

    `clutters.enumeration` lists its hits by this same decomposition, so
    this count is a second implementation of the argument, not a check
    of it. The checks independent of the enumeration are
    `pruned_self_dual_search` (t <= 6), the brute force over antichains
    in the tests (t <= 5) and the known count 1422564 at t = 7 (OEIS
    A001206)."""
    if t == 1:
        return 1
    n = t - 2
    ups = up_families(n)
    everyone = (1 << len(ups)) - 1
    has = [sum(1 << j for j, h in enumerate(ups) if h >> s & 1) for s in range(1 << n)]
    full = (1 << n) - 1
    total = 0
    for g in ups:
        star_g = {full ^ s for s in range(1 << n) if not g >> s & 1}
        fit = everyone
        for s in range(1 << n):
            if g >> s & 1:
                fit &= has[s]
            if s not in star_g:
                fit &= ~has[s]
        total += fit.bit_count()
    return total
