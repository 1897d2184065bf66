"""Cascade expansions and shadow bounds, plus the bound tables for
star-self-dual complexes and up-families of self-dual clutters.

The cascade (k-binomial, Macaulay) expansion of m >= 0 at level k >= 1 is
the unique greedy representation

    m = C(a_k, k) + C(a_{k-1}, k-1) + ... + C(a_j, j),

with a_k > a_{k-1} > ... > a_j >= j >= 1. Replacing every C(a_i, i) by
C(a_i, i-1) gives the minimum possible number of (k-1)-sets below m k-sets
in a complex (lower shadow); replacing by C(a_i, i+1) gives the maximum
possible number of (k+1)-faces on top of them (upper shadow).

Two bound tables hold for every t, labeled by the side of the
complementation bijection they live on:

  * lemma2_table: complexes D with star(D) = D; bound value C(t-1, k),
    a lower bound below the middle index and an upper bound above it;
  * theorem3_table: up-families A^v of self-dual clutters; bound value
    C(t-1, k-1), an upper bound below the middle and a lower bound above.

The paper proves them for even t; the argument needs no parity. For
2k < t the k-layer of F = A^v is intersecting: disjoint S, T in F would
put E_t - S, a superset of T, in F beside S, which F* = F forbids. So
Erdos-Ko-Rado gives f_k <= C(t-1, k-1), and f_k = C(t,k) - f_(t-k)
(eq28) gives the lower bound above the middle.

The tables are complementary: at every index the theorem3 bound equals
C(t,k) minus the lemma2 bound, with the inequality direction flipped.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

from .complexes import Complex, is_star_self_dual
from .errors import InvalidLevel, NotSelfDual, NotStarSelfDual
from .sets import DENSE_MAX_T, Clutter, is_self_dual, up_closure
from .vectors import FVector, binom, f_vector

# binomial columns used by the greedy search, grown on demand:
# _COLUMNS[i] = [C(i,i), C(i+1,i), C(i+2,i), ...]
_COLUMNS: dict[int, list[int]] = {}


def _column(i: int, at_least: int) -> list[int]:
    col = _COLUMNS.setdefault(i, [1])
    while col[-1] <= at_least:
        col.append(math.comb(i + len(col), i))
    return col


@dataclass(frozen=True)
class CascadeExpansion:
    """Terms ((a_k, k), (a_{k-1}, k-1), ...) of a cascade expansion."""

    k: int
    terms: tuple[tuple[int, int], ...]

    def value(self) -> int:
        return sum(math.comb(a, i) for a, i in self.terms)

    def lower_shadow(self) -> int:
        return sum(math.comb(a, i - 1) for a, i in self.terms)

    def upper_shadow(self) -> int:
        return sum(math.comb(a, i + 1) for a, i in self.terms)


def cascade(m: int, k: int) -> CascadeExpansion:
    """Greedy maximal-a expansion of m at level k; m = 0 gives no terms."""
    if k < 1:
        raise InvalidLevel(f"cascade level must be >= 1, got {k}")
    if m < 0:
        raise ValueError(f"cascade argument must be >= 0, got {m}")
    terms: list[tuple[int, int]] = []
    r = m
    i = k
    while r > 0:
        if i == 1:
            terms.append((r, 1))
            break
        col = _column(i, r)
        # largest a with C(a, i) <= r; col[j] = C(i + j, i)
        a = i + bisect_right(col, r) - 1
        terms.append((a, i))
        r -= math.comb(a, i)
        i -= 1
    return CascadeExpansion(k, tuple(terms))


def shadow_lower_bound(m: int, k: int) -> int:
    """Minimum number of (k-1)-sets in a complex containing m k-sets."""
    return cascade(m, k).lower_shadow()


def shadow_upper_bound(m: int, k: int) -> int:
    """Maximum number of (k+1)-faces in a complex given m k-faces."""
    return cascade(m, k).upper_shadow()


@dataclass(frozen=True)
class BoundRow:
    """Constraint on f_k: kind is "exact", "lower" or "upper"; lower and
    upper always bracket the admissible range (trivial side included)."""

    k: int
    kind: str
    exact: int | None
    lower: int
    upper: int


@dataclass(frozen=True)
class BoundTable:
    """Per-index constraints, `rows[k]` on f_k, plus the mirror-pair sums:
    with m = ceil(t/2), offset o = 1..m-1 requires
    f_(m-o) + f_(t-m+o) = C(t, m-o)."""

    t: int
    rows: tuple[BoundRow, ...]
    pair_sums: tuple[tuple[int, int], ...]  # (offset, required sum)


def _bound_table(t: int, bound: Callable[[int], int], below: str) -> BoundTable:
    """The table with bound value bound(k) on E_t, 1 <= t <= 28: exact at
    k = 0, k = t and 2k = t, of kind `below` ("lower" or "upper") for
    2k < t and of the other kind for 2k > t."""
    if not 1 <= t <= DENSE_MAX_T:
        raise ValueError(f"bound tables defined for 1 <= t <= {DENSE_MAX_T}, got {t}")
    rows = []
    for k in range(t + 1):
        b = bound(k)
        if k in (0, t) or 2 * k == t:
            rows.append(BoundRow(k, "exact", b, b, b))
        elif (2 * k < t) == (below == "lower"):
            rows.append(BoundRow(k, "lower", None, b, binom(t, k)))
        else:
            rows.append(BoundRow(k, "upper", None, 0, b))
    m = (t + 1) // 2
    pair = tuple((o, binom(t, m - o)) for o in range(1, m))
    return BoundTable(t, tuple(rows), pair)


def lemma2_table(t: int) -> BoundTable:
    """Bounds for a complex D with star(D) = D on E_t: f_0 = 1, f_t = 0,
    f_(t/2) = C(t-1, t/2) at even t, f_k >= C(t-1, k) for 2k < t and
    f_k <= C(t-1, k) for 2k > t."""
    return _bound_table(t, lambda k: binom(t - 1, k), "lower")


def theorem3_table(t: int) -> BoundTable:
    """Bounds for the up-family A^v of a self-dual clutter on E_t:
    f_0 = 0, f_t = 1, f_(t/2) = C(t-1, t/2) at even t,
    f_k <= C(t-1, k-1) for 2k < t and f_k >= C(t-1, k-1) for 2k > t."""
    return _bound_table(t, lambda k: binom(t - 1, k - 1), "upper")


def verify_against(table: BoundTable, fv: FVector) -> dict:
    """Check fv against every row and pair sum of table, with slacks."""
    t = table.t
    m = (t + 1) // 2
    rows = []
    ok_all = True
    for row in table.rows:
        v = fv[row.k]
        if row.kind == "exact":
            ok = v == row.exact
            slack = 0 if ok else abs(v - row.exact)
        elif row.kind == "lower":
            ok = v >= row.lower
            slack = v - row.lower
        else:
            ok = v <= row.upper
            slack = row.upper - v
        ok_all &= ok
        rows.append(
            {"k": row.k, "kind": row.kind, "bound": row.exact
             if row.kind == "exact" else (row.lower if row.kind == "lower" else row.upper),
             "value": v, "slack": slack, "ok": ok}
        )
    pairs = []
    for off, want in table.pair_sums:
        got = fv[m - off] + fv[t - m + off]
        ok = got == want
        ok_all &= ok
        pairs.append({"offset": off, "expected": want, "actual": got, "ok": ok})
    return {"t": t, "f": list(fv.counts), "rows": rows, "pair_sums": pairs,
            "pass": ok_all}


def verify_theorem3(a: Clutter) -> dict:
    """Check the f-vector of a's up-family against theorem3_table(t).

    Self-duality is decided by `is_self_dual` on a itself ((a^v)* = a^v
    on bitmaps, or Berge where `blocker` would take Berge), never taken
    from the caller, so the report is self-certifying.
    """
    if not is_self_dual(a):
        raise NotSelfDual("clutter does not equal its blocker")
    fv = f_vector(up_closure(a))
    report = verify_against(theorem3_table(a.t), fv)
    report["self_dual"] = True
    return report


def verify_lemma2(c: Complex) -> dict:
    """Check the f-vector of complex c against lemma2_table(t);
    star self-duality is recomputed, not trusted."""
    if not is_star_self_dual(c):
        raise NotStarSelfDual("complex does not equal its star")
    fv = f_vector(c.family)
    report = verify_against(lemma2_table(c.t), fv)
    report["star_self_dual"] = True
    return report
