"""Long f- and h-vectors of set families.

The long f-vector of a family F on E_t is the size histogram
(f_0, ..., f_t) with f_k = #{F in family : |F| = k}; "long" because it
keeps the empty-set slot f_0 and runs through f_t even when no member is
that large. The long h-vector is the integer transform defined by

    sum_i h_i x^(t-i)  =  sum_i f_i (x-1)^(t-i).

All arithmetic is exact. Binomial coefficients come from one Pascal
triangle precomputed up to n = 62; C(62,31) < 2^63, so every value in
scope also fits a signed machine word.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotAnFVector
from .sets import SetFamily, UpFamily, complement_bitmap, layer_counts, star_bitmap

PASCAL_MAX_N = 62

_PASCAL: list[list[int]] = [[1]]
for _n in range(1, PASCAL_MAX_N + 1):
    _prev = _PASCAL[-1]
    _PASCAL.append(
        [1] + [_prev[_k - 1] + _prev[_k] for _k in range(1, _n)] + [1]
    )


def binom(n: int, k: int) -> int:
    """C(n, k) from the precomputed triangle; 0 outside 0 <= k <= n."""
    if n < 0 or n > PASCAL_MAX_N:
        raise ValueError(f"binom defined here for 0 <= n <= {PASCAL_MAX_N}, got {n}")
    if k < 0 or k > n:
        return 0
    return _PASCAL[n][k]


@dataclass(frozen=True)
class FVector:
    """Long f-vector: counts (f_0, ..., f_t), 0 <= f_k <= C(t,k)."""

    t: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(self.counts))
        if len(self.counts) != self.t + 1:
            raise ValueError(f"need {self.t + 1} entries, got {len(self.counts)}")
        for k, fk in enumerate(self.counts):
            if not 0 <= fk <= binom(self.t, k):
                raise NotAnFVector(
                    f"f_{k} = {fk} outside 0..C({self.t},{k}) = {binom(self.t, k)}"
                )

    def __getitem__(self, k: int) -> int:
        return self.counts[k]

    def total(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class HVector:
    """Long h-vector: signed values (h_0, ..., h_t)."""

    t: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) != self.t + 1:
            raise ValueError(f"need {self.t + 1} entries, got {len(self.values)}")

    def __getitem__(self, k: int) -> int:
        return self.values[k]


def f_vector(f: SetFamily | UpFamily) -> FVector:
    """Size histogram of the family's members. An up-family is counted on
    its bitmap, so its members are never listed."""
    if isinstance(f, UpFamily):
        return FVector(f.t, layer_counts(f.bitmap, f.t))
    counts = [0] * (f.t + 1)
    for m in f.members:
        counts[m.bit_count()] += 1
    return FVector(f.t, tuple(counts))


def h_from_f(fv: FVector) -> HVector:
    """Closed form h_l = (-1)^l sum_{k<=l} (-1)^k C(t-k, t-l) f_k."""
    t = fv.t
    values = tuple(
        (-1) ** l * sum((-1) ** k * binom(t - k, t - l) * fv[k] for k in range(l + 1))
        for l in range(t + 1)
    )
    return HVector(t, values)


def f_from_h(hv: HVector) -> FVector:
    """Inverse transform f_l = sum_{k<=l} C(t-k, t-l) h_k.

    Raises NotAnFVector when an entry falls outside 0..C(t,l): such an
    h-vector does not arise from any family on E_t.
    """
    t = hv.t
    counts = tuple(
        sum(binom(t - k, t - l) * hv[k] for k in range(l + 1)) for l in range(t + 1)
    )
    return FVector(t, counts)


def h_vector(f: SetFamily | UpFamily) -> HVector:
    return h_from_f(f_vector(f))


def check_h_identities(f: SetFamily) -> dict[str, bool]:
    """Consistency relations between a family's f- and h-vectors.

    Each key is checked by evaluating both sides independently:

      h0          h_0 = f_0
      h1          h_1 = f_1 - t f_0
      h_penult    h_{t-1} = (-1)^(t-1) sum (-1)^k (t-k) f_k
      h_last      h_t = (-1)^t sum (-1)^k f_k
      h_sum       sum h_k = f_t
      remark_iii  sum 2^(t-k) h_k = #F = sum f_k
      remark_iv   h(F) + h(2^[t] - F) = (1, 0, ..., 0)      [t <= 28]
      eq22        conjunction of h0, h1, h_penult, h_last, h_sum
    """
    t = f.t
    fv = f_vector(f)
    hv = h_from_f(fv)
    out = {
        "h0": hv[0] == fv[0],
        "h1": hv[1] == fv[1] - t * fv[0],
        "h_penult": hv[t - 1]
        == (-1) ** (t - 1) * sum((-1) ** k * (t - k) * fv[k] for k in range(t)),
        "h_last": hv[t] == (-1) ** t * sum((-1) ** k * fv[k] for k in range(t + 1)),
        "h_sum": sum(hv.values) == fv[t],
        "remark_iii": sum((1 << (t - k)) * hv[k] for k in range(t + 1))
        == len(f)
        == fv.total(),
    }
    hc = h_from_f(FVector(t, layer_counts(complement_bitmap(f.bitmap, t), t)))
    out["remark_iv"] = tuple(a + b for a, b in zip(hv.values, hc.values)) == (
        (1,) + (0,) * t
    )
    out["eq22"] = all(out[k] for k in ("h0", "h1", "h_penult", "h_last", "h_sum"))
    return out


def check_star_relations(f: SetFamily) -> dict[str, bool]:
    """Relations between a family and its star F*, computed on F*'s bitmap.

      star_count  #F* + #F = 2^t
      star_f      f_l(F*) + f_{t-l}(F) = C(t,l) for all l
      eq19        h_l(F*) + (-1)^l sum_{k>=l} C(k,l) h_k(F) = [l == 0]
      eq19_delta  the l = 0 instance, evaluated by separate code:
                  h_0(F*) + sum_k h_k(F) = 1
      ht_sign     h_t(F*) = (-1)^(t+1) h_t(F)
    """
    t = f.t
    fs = star_bitmap(f.bitmap, t)
    fv, hv = f_vector(f), h_vector(f)
    sv = FVector(t, layer_counts(fs, t))
    sh = h_from_f(sv)
    return {
        "star_count": fs.bit_count() + len(f) == 1 << t,
        "star_f": all(sv[l] + fv[t - l] == binom(t, l) for l in range(t + 1)),
        "eq19": all(
            sh[l]
            + (-1) ** l * sum(binom(k, l) * hv[k] for k in range(l, t + 1))
            == (1 if l == 0 else 0)
            for l in range(t + 1)
        ),
        "eq19_delta": sh[0] + sum(hv.values) == 1,
        "ht_sign": sh[t] == (-1) ** (t + 1) * hv[t],
    }


def family_report(f: SetFamily) -> dict:
    """JSON-shaped report for one family: vectors plus identity verdicts."""
    fv = f_vector(f)
    hv = h_from_f(fv)
    identities: dict[str, bool] = {}
    hid = check_h_identities(f)
    sid = check_star_relations(f)
    identities["eq22"] = hid["eq22"]
    identities["remark_iii"] = hid["remark_iii"]
    identities["remark_iv"] = hid["remark_iv"]
    identities["eq19"] = sid["eq19"]
    for key in ("h0", "h1", "h_penult", "h_last", "h_sum"):
        identities[key] = hid[key]
    for key in ("star_count", "star_f", "eq19_delta", "ht_sign"):
        identities[key] = sid[key]
    return {
        "t": f.t,
        "f": list(fv.counts),
        "h": list(hv.values),
        "identities": identities,
    }
