"""Families with F* = F and the identity suite their vectors satisfy.

F* = F holds exactly when each complementary pair {G, E_t - G} contributes
exactly one member, so #F = 2^(t-1). The checks below verify every
displayed relation from the identity registry on a concrete family,
evaluating both sides by independent code paths. Some relations are
parity-conditioned:

  * odd t only:  odd_t_block, odd_h_relation;
  * even t only: eq24, eq29, eq9_block;
  * t % 4 == 0:  eq27_block, eq27_eq9_block (these instantiate the
    even-index relation eq25 at l = t/2, so t/2 itself must be even;
    at t = 2 mod 4 they genuinely fail, e.g. h = (0,0,3,-2,0,0,0)).

Checks that do not apply to the input's parity report "n/a".
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import NotStarSelfDual
from .sets import SetFamily, check_dense, star_bitmap
from .vectors import binom, f_vector, h_from_f

_DRAW = 1 << 16  # pairs per getrandbits call: 256 KiB of RNG output


@dataclass(frozen=True)
class StarSelfDualFamily:
    """A SetFamily verified to satisfy star(F) = F at construction."""

    family: SetFamily

    def __post_init__(self) -> None:
        f = self.family
        # the count rejects most families before any 2^t-bit work
        if len(f) != 1 << (f.t - 1) or star_bitmap(f.bitmap, f.t) != f.bitmap:
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


def _all(t: int, pred) -> str:
    for l in range(t + 1):
        if not pred(l):
            return f"fail (l={l})"
    return "pass"


def check_appendix(f: StarSelfDualFamily | SetFamily) -> dict:
    """Run every named identity check on a family with F* = F.

    Returns {"t": ..., "checks": {name: "pass"|"fail..."|"n/a"}, "pass": bool};
    "pass" ignores "n/a" entries. Raises NotStarSelfDual when the input
    family does not satisfy F* = F (re-verified here).
    """
    if isinstance(f, SetFamily):
        f = StarSelfDualFamily(f)
    fam = f.family
    t = fam.t
    fv = f_vector(fam)
    hv = h_from_f(fv)
    fc, hc = fv.counts, hv.values
    C = binom
    checks: dict[str, str] = {}

    checks["eq28"] = _all(t, lambda l: fc[l] + fc[t - l] == C(t, l))
    checks["h_pair_sum"] = _all(
        t,
        lambda l: sum(C(t - k, t - l) * hc[k] for k in range(l + 1))
        + sum(C(t - j, l) * hc[j] for j in range(t - l + 1))
        == C(t, l),
    )
    checks["h_complement_form"] = _all(
        t,
        lambda l: hc[l]
        == (-1) ** l
        * sum((-1) ** k * C(t - k, t - l) * (C(t, k) - fc[t - k]) for k in range(l + 1)),
    )
    checks["eq21"] = _all(
        t,
        lambda l: hc[l]
        == (1 if l == 0 else 0)
        - (-1) ** (t - l)
        * sum((-1) ** j * C(j, t - l) * fc[j] for j in range(t - l, t + 1)),
    )
    checks["eq14"] = _all(
        t,
        lambda l: fc[l] == C(t, l) - sum(C(t - j, l) * hc[j] for j in range(t - l + 1)),
    )
    checks["f_delta"] = _all(
        t,
        lambda l: (-1) ** l * sum((-1) ** k * C(t - k, t - l) * fc[k] for k in range(l + 1))
        + (-1) ** (t - l)
        * sum((-1) ** j * C(j, t - l) * fc[j] for j in range(t - l, t + 1))
        == (1 if l == 0 else 0),
    )
    checks["eq23"] = _all(
        t,
        lambda l: hc[l]
        == (1 if l == 0 else 0)
        + (-1) ** (l + 1) * sum(C(k, l) * hc[k] for k in range(l, t + 1)),
    )

    # eq25 and its two rearrangements, for even indices l >= 2 (any t)
    eq25 = "pass"
    for l in range(2, t + 1, 2):
        s0 = sum(C(k, l - 1) * hc[k] for k in range(l, t + 1))
        s1 = l * hc[l] + sum(C(k, l - 1) * hc[k] for k in range(l + 1, t + 1))
        s2 = 2 * hc[l] + sum(C(k, l) * hc[k] for k in range(l + 1, t + 1))
        if not s0 == s1 == s2 == 0:
            eq25 = f"fail (l={l})"
            break
    checks["eq25"] = eq25

    if t % 2 == 0:
        checks["eq24"] = "pass" if hc[t] == 0 else "fail"
        checks["eq29"] = "pass" if 2 * fc[t // 2] == C(t, t // 2) else "fail"
        checks["weighted_h_sum"] = (
            "pass" if sum(k * hc[k] for k in range(2, t)) == 0 else "fail"
        )
        m = t // 2
        # eq9 chain: both displayed equalities, plus the mid-index
        # instance of eq14 (2 sum_{j<=t/2} C(t-j,t/2) h_j = C(t,t/2))
        s_full = sum(C(t - k, m) * hc[k] for k in range(m + 1))
        s_low = sum(C(t - k, m) * hc[k] for k in range(m))
        eq9_ok = (
            s_full == fc[m]
            and hc[m] + s_low == fc[m]
            and 2 * fc[m] == C(t, m)
            and 2 * s_full == C(t, m)
        )
        checks["eq9_block"] = "pass" if eq9_ok else "fail"
        checks["odd_t_block"] = "n/a"
        checks["odd_h_relation"] = "n/a"
        if t % 4 == 0:
            s_mid = sum(C(k, m) * hc[k] for k in range(m + 1, t))
            mid_ok = (
                m * hc[m] + sum(C(k, m - 1) * hc[k] for k in range(m + 1, t)) == 0
                and 2 * hc[m] + s_mid == 0  # eq27, cleared of the 1/2
            )
            checks["eq27_block"] = "pass" if mid_ok else "fail"
            # consequences of eq27 + eq9, cleared of denominators
            cons_ok = (
                2 * s_low - s_mid == C(t, m)
                and 4 * hc[m] == C(t, m) - 2 * s_low - s_mid
            )
            checks["eq27_eq9_block"] = "pass" if cons_ok else "fail"
        else:
            checks["eq27_block"] = "n/a"
            checks["eq27_eq9_block"] = "n/a"
    else:
        checks["eq24"] = "n/a"
        checks["eq29"] = "n/a"
        checks["eq9_block"] = "n/a"
        checks["eq27_block"] = "n/a"
        checks["eq27_eq9_block"] = "n/a"
        checks["weighted_h_sum"] = (
            "pass" if sum(k * hc[k] for k in range(2, t + 1)) == 0 else "fail"
        )
        m = (t - 1) // 2
        # the alternating row sum carries (-1)^((t-1)/2)
        sgn = (-1) ** m
        lo = sum((-1) ** k * fc[k] for k in range(m + 1))
        hi = sum((-1) ** j * fc[j] for j in range((t + 1) // 2, t + 1))
        odd_ok = (
            hc[t] == sgn * C(t - 1, m) - 2 * lo
            and hc[t] == -sgn * C(t - 1, m) - 2 * hi
            and lo == sgn * C(t - 1, m) + hi
        )
        checks["odd_t_block"] = "pass" if odd_ok else "fail"
        if t >= 3:
            # instance of eq25 at l = t-1, so it needs t-1 >= 2
            rel_ok = (
                (t - 1) * hc[t - 1] + C(t, 2) * hc[t] == 0
                and 2 * hc[t - 1] + t * hc[t] == 0
            )
            checks["odd_h_relation"] = "pass" if rel_ok else "fail"
        else:
            checks["odd_h_relation"] = "n/a"

    return {
        "t": t,
        "checks": checks,
        "pass": all(v == "pass" or v == "n/a" for v in checks.values()),
    }
