"""The identity registry, and families with F* = F.

Each relation the package checks between a family's long f- and
h-vectors is one entry of REGISTRY: a label, a predicate over the
family's `Counts` (the vectors of F, of F* and of 2^[t] - F) and a
parity guard on t. A predicate evaluates its two sides by independent
code, and a relation that several labels name is written once. The
views select labels: CHECK for `family_report` (`check`, any family),
and APPENDIX for `appendix_report`, which `check_appendix`
(`identities`) and `enumeration.verify_universe` read.

F* = F holds exactly when each complementary pair {G, E_t - G}
contributes exactly one member, so #F = 2^(t-1). Once that is certified,
F*'s vectors are F's own and the APPENDIX labels read the f-vector alone
(`appendix_report`); so `verify_universe` certifies each enumerated
clutter once, on its up-set bitmap, and evaluates the registry once per
distinct f-vector.

A label reports "n/a" where its parity guard excludes t:

  * odd t only: odd_t_block, and odd_h_relation for t >= 3 (it is eq25
    at l = t-1);
  * even t only: eq24, eq29, eq9_block;
  * t % 4 == 0: eq27_block, eq27_eq9_block (these instantiate the
    even-index relation eq25 at l = t/2, so t/2 itself must be even;
    at t = 2 mod 4 they genuinely fail, e.g. h = (0,0,3,-2,0,0,0)).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import NotStarSelfDual
from .sets import SetFamily, check_dense, complement_bitmap, layer_counts
from .sets import star_bitmap, star_invariant
from .vectors import FVector, binom as C, f_vector, h_from_f

_DRAW = 1 << 16  # pairs per getrandbits call: 256 KiB of RNG output


class Counts(NamedTuple):
    """What the registry reads of a family F on E_t: the long f- and
    h-vectors of F (f, h) and of F* (s, sh), and the h-vector of
    2^[t] - F (ch)."""

    t: int
    f: tuple[int, ...]
    h: tuple[int, ...]
    s: tuple[int, ...]
    sh: tuple[int, ...]
    ch: tuple[int, ...] = ()


def counts(f: SetFamily) -> Counts:
    """Counts of any family (t <= 28). The vectors of F* and 2^[t] - F
    are counted on their own bitmaps, not derived from F's."""
    t = f.t
    fv = f_vector(f)  # before f.bitmap exists, so a sparse family is counted by members
    bm = f.bitmap
    sv = FVector(t, layer_counts(star_bitmap(bm, t), t))
    ch = h_from_f(FVector(t, layer_counts(complement_bitmap(bm, t), t))).values
    return Counts(t, fv.counts, h_from_f(fv).values, sv.counts, h_from_f(sv).values, ch)


def star_fixed(fv: FVector) -> Counts:
    """Counts of a family with F* = F, from its f-vector alone."""
    h = h_from_f(fv).values
    return Counts(fv.t, fv.counts, h, fv.counts, h)


# Predicates that several labels read, or too long for one expression;
# the rest are written inline in REGISTRY.


def _mirror(v: Counts, l: int) -> bool:
    """f_l(F*) + f_(t-l)(F) = C(t,l) (star_f); with F* = F, eq28 and eq29."""
    return v.s[l] + v.f[v.t - l] == C(v.t, l)


def _eq19(v: Counts, l: int) -> bool:
    """h_l(F*) + (-1)^l sum_(k>=l) C(k,l) h_k(F) = [l = 0]; with F* = F, eq23."""
    return (v.sh[l] + (-1) ** l * sum(C(k, l) * v.h[k] for k in range(l, v.t + 1))
            == (1 if l == 0 else 0))


def _ht_sign(v: Counts) -> bool:
    """h_t(F*) = (-1)^(t+1) h_t(F); with F* = F at even t, eq24: h_t = 0."""
    return v.sh[v.t] == (-1) ** (v.t + 1) * v.h[v.t]


def _f_tail(v: Counts, l: int) -> int:
    """(-1)^(t-l) sum_(j>=t-l) (-1)^j C(j,t-l) f_j, read by eq21 and f_delta."""
    n = v.t - l
    return (-1) ** n * sum((-1) ** j * C(j, n) * v.f[j] for j in range(n, v.t + 1))


def _eq25(v: Counts, l: int) -> bool:
    """eq25 and its two rearrangements at an even index l >= 2."""
    t, h = v.t, v.h
    s0 = sum(C(k, l - 1) * h[k] for k in range(l, t + 1))
    s1 = l * h[l] + sum(C(k, l - 1) * h[k] for k in range(l + 1, t + 1))
    s2 = 2 * h[l] + sum(C(k, l) * h[k] for k in range(l + 1, t + 1))
    return s0 == s1 == s2 == 0


def _mid_sums(v: Counts) -> tuple[int, int, int]:
    """At m = t/2: sum_(k<=m) C(t-k,m) h_k, the same over k < m, and
    sum_(m<k<t) C(k,m) h_k."""
    t, h, m = v.t, v.h, v.t // 2
    s_full = sum(C(t - k, m) * h[k] for k in range(m + 1))
    s_low = sum(C(t - k, m) * h[k] for k in range(m))
    return s_full, s_low, sum(C(k, m) * h[k] for k in range(m + 1, t))


def _eq9_block(v: Counts) -> bool:
    """Both displayed equalities of eq9, eq29, and the mid-index instance
    of eq14: 2 sum_(j<=t/2) C(t-j,t/2) h_j = C(t,t/2)."""
    m = v.t // 2
    s_full, s_low, _ = _mid_sums(v)
    return (s_full == v.f[m] and v.h[m] + s_low == v.f[m] and _mirror(v, m)
            and 2 * s_full == C(v.t, m))


def _eq27_block(v: Counts) -> bool:
    t, h, m = v.t, v.h, v.t // 2
    return (m * h[m] + sum(C(k, m - 1) * h[k] for k in range(m + 1, t)) == 0
            and 2 * h[m] + _mid_sums(v)[2] == 0)  # eq27, cleared of the 1/2


def _eq27_eq9_block(v: Counts) -> bool:
    """Consequences of eq27 and eq9, cleared of denominators."""
    m = v.t // 2
    _, s_low, s_mid = _mid_sums(v)
    return (2 * s_low - s_mid == C(v.t, m)
            and 4 * v.h[m] == C(v.t, m) - 2 * s_low - s_mid)


def _odd_t_block(v: Counts) -> bool:
    t, f, m = v.t, v.f, (v.t - 1) // 2
    sgn = (-1) ** m  # the alternating row sum carries (-1)^((t-1)/2)
    lo = sum((-1) ** k * f[k] for k in range(m + 1))
    hi = sum((-1) ** j * f[j] for j in range((t + 1) // 2, t + 1))
    return (v.h[t] == sgn * C(t - 1, m) - 2 * lo
            and v.h[t] == -sgn * C(t - 1, m) - 2 * hi
            and lo == sgn * C(t - 1, m) + hi)


def _every_l(t: int) -> range:
    return range(t + 1)


class Identity(NamedTuple):
    """A registry entry: the predicate, the indices l where it must hold
    (None for a scalar relation), and the parity guard on t."""

    holds: Callable[..., bool]
    indices: Callable[[int], range] | None = None
    applies: Callable[[int], bool] = lambda t: True


REGISTRY: dict[str, Identity] = {
    # any family F, its star F* and its complement 2^[t] - F
    "eq22": Identity(lambda v: all(
        REGISTRY[k].holds(v) for k in ("h0", "h1", "h_penult", "h_last", "h_sum"))),
    "remark_iii": Identity(
        lambda v: sum((1 << (v.t - k)) * hk for k, hk in enumerate(v.h)) == sum(v.f)),
    "remark_iv": Identity(
        lambda v: tuple(a + b for a, b in zip(v.h, v.ch)) == (1,) + (0,) * v.t),
    "eq19": Identity(_eq19, _every_l),
    "h0": Identity(lambda v: v.h[0] == v.f[0]),
    "h1": Identity(lambda v: v.h[1] == v.f[1] - v.t * v.f[0]),
    "h_penult": Identity(lambda v: v.h[v.t - 1] == (-1) ** (v.t - 1) * sum(
        (-1) ** k * (v.t - k) * v.f[k] for k in range(v.t))),
    "h_last": Identity(
        lambda v: v.h[v.t] == (-1) ** v.t * sum((-1) ** k * fk for k, fk in enumerate(v.f))),
    "h_sum": Identity(lambda v: sum(v.h) == v.f[v.t]),
    # #F* + #F = 2^t; with F* = F, #F = 2^(t-1)
    "star_count": Identity(lambda v: sum(v.s) + sum(v.f) == 1 << v.t),
    "star_f": Identity(_mirror, _every_l),
    # the l = 0 instance of eq19, evaluated by separate code
    "eq19_delta": Identity(lambda v: v.sh[0] + sum(v.h) == 1),
    "ht_sign": Identity(_ht_sign),
    # families with F* = F, whose star's vectors are their own
    "eq28": Identity(_mirror, _every_l),
    "h_pair_sum": Identity(lambda v, l: (
        sum(C(v.t - k, v.t - l) * v.h[k] for k in range(l + 1))
        + sum(C(v.t - j, l) * v.h[j] for j in range(v.t - l + 1)) == C(v.t, l)), _every_l),
    "h_complement_form": Identity(lambda v, l: v.h[l] == (-1) ** l * sum(
        (-1) ** k * C(v.t - k, v.t - l) * (C(v.t, k) - v.f[v.t - k]) for k in range(l + 1)),
        _every_l),
    "eq21": Identity(lambda v, l: v.h[l] == (1 if l == 0 else 0) - _f_tail(v, l), _every_l),
    "eq14": Identity(lambda v, l: v.f[l] == C(v.t, l) - sum(
        C(v.t - j, l) * v.h[j] for j in range(v.t - l + 1)), _every_l),
    "f_delta": Identity(lambda v, l: (-1) ** l * sum(
        (-1) ** k * C(v.t - k, v.t - l) * v.f[k] for k in range(l + 1))
        + _f_tail(v, l) == (1 if l == 0 else 0), _every_l),
    "eq23": Identity(_eq19, _every_l),
    "eq25": Identity(_eq25, lambda t: range(2, t + 1, 2)),
    "eq24": Identity(_ht_sign, applies=lambda t: t % 2 == 0),
    "eq29": Identity(lambda v: _mirror(v, v.t // 2), applies=lambda t: t % 2 == 0),
    # at even t the sum stops below t, where eq24 puts h_t = 0
    "weighted_h_sum": Identity(
        lambda v: sum(k * v.h[k] for k in range(2, v.t + v.t % 2)) == 0),
    "eq9_block": Identity(_eq9_block, applies=lambda t: t % 2 == 0),
    "odd_t_block": Identity(_odd_t_block, applies=lambda t: t % 2 == 1),
    "odd_h_relation": Identity(lambda v: (
        (v.t - 1) * v.h[v.t - 1] + C(v.t, 2) * v.h[v.t] == 0
        and 2 * v.h[v.t - 1] + v.t * v.h[v.t] == 0), applies=lambda t: t % 2 == 1 and t >= 3),
    "eq27_block": Identity(_eq27_block, applies=lambda t: t % 4 == 0),
    "eq27_eq9_block": Identity(_eq27_eq9_block, applies=lambda t: t % 4 == 0),
}

# The labels `check` and `identities` read, in report order: CHECK, then
# APPENDIX by the parity of t (odd t has always listed its own labels last).
_LABELS = tuple(REGISTRY)
CHECK = _LABELS[: _LABELS.index("eq28")]
APPENDIX = {
    0: _LABELS[len(CHECK):],
    1: _LABELS[len(CHECK): _LABELS.index("weighted_h_sum")] + (
        "eq9_block", "eq27_block", "eq27_eq9_block", "weighted_h_sum", "odd_t_block",
        "odd_h_relation"),
}


def verdict(label: str, v: Counts) -> str:
    """"n/a" where the label's guard excludes t, else "pass", or "fail"
    ("fail (l=...)" at the first failing index)."""
    holds, indices, applies = REGISTRY[label]
    if not applies(v.t):
        return "n/a"
    if indices is None:
        return "pass" if holds(v) else "fail"
    bad = next((l for l in indices(v.t) if not holds(v, l)), None)
    return "pass" if bad is None else f"fail (l={bad})"


def family_report(f: SetFamily) -> dict:
    """JSON-shaped report for one family (t <= 28): its vectors and a
    bool per CHECK label."""
    v = counts(f)
    identities = {label: verdict(label, v) == "pass" for label in CHECK}
    return {"t": v.t, "f": list(v.f), "h": list(v.h), "identities": identities}


@dataclass(frozen=True)
class StarSelfDualFamily:
    """A SetFamily verified to satisfy star(F) = F at construction."""

    family: SetFamily

    def __post_init__(self) -> None:
        f = self.family
        # the count rejects most families before any 2^t-bit work
        if len(f) != 1 << (f.t - 1) or not star_invariant(f.bitmap, f.t):
            raise NotStarSelfDual(
                "family must contain exactly one set of each complementary pair"
            )

    @property
    def t(self) -> int:
        return self.family.t


def random_star_selfdual(t: int, seed: int) -> StarSelfDualFamily:
    """Pick one member per complementary pair with a seeded RNG.

    Deterministic: pairs are visited in ascending order of their smaller
    mask g < 2^(t-1), one `getrandbits(1)` each (g is kept on a 1, E_t - g
    on a 0), so a given (t, seed) always yields the same family, and
    star(result) = result by construction.

    The bits are drawn as one `getrandbits(32 n)` per block of n pairs:
    that int holds, little-endian, the same n 32-bit words that n calls
    `getrandbits(1)` consume, and each of those calls returns its word's
    top bit. The kept g form the low half of the bitmap; the members
    E_t - g with element t form the high half, star(low half) on E_(t-1).
    """
    check_dense(t)
    rng = random.Random(seed)
    pairs = 1 << (t - 1)
    blocks = []
    for start in range(0, pairs, _DRAW):
        n = min(_DRAW, pairs - start)
        tops = rng.getrandbits(32 * n).to_bytes(4 * n, "little")[3::4]
        high = int.from_bytes(b"\x80" * len(tops), "little")
        # choice 8k + j is the top bit of tops[8k + j]: move it to bit j of byte k
        bits = 0
        for j in range(8):
            bits |= (int.from_bytes(tops[j::8], "little") & high) >> (7 - j)
        blocks.append(bits.to_bytes(max(1, n >> 3), "little"))
    low = int.from_bytes(b"".join(blocks), "little")
    bm = low | star_bitmap(low, t - 1) << pairs
    return StarSelfDualFamily(SetFamily.from_bitmap(t, bm))


def appendix_report(fv: FVector) -> dict:
    """The APPENDIX verdicts of a family with F* = F, from its f-vector.

    Returns {"t": ..., "checks": {name: "pass"|"fail..."|"n/a"}, "pass": bool};
    "pass" ignores "n/a" entries.
    """
    v = star_fixed(fv)
    checks = {label: verdict(label, v) for label in APPENDIX[fv.t % 2]}
    return {"t": fv.t, "checks": checks,
            "pass": all(got in ("pass", "n/a") for got in checks.values())}


def check_appendix(f: StarSelfDualFamily | SetFamily) -> dict:
    """`appendix_report` of a family with F* = F. Raises NotStarSelfDual
    when the input family does not satisfy F* = F (re-verified here)."""
    if isinstance(f, SetFamily):
        f = StarSelfDualFamily(f)
    return appendix_report(f_vector(f.family))
