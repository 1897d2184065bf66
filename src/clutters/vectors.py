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
from .sets import SetFamily, layer_counts

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


def f_vector(f: SetFamily) -> FVector:
    """Size histogram of the family's members. A family that holds its
    bitmap (from `SetFamily.from_bitmap`, `up_closure` or `star`, or once
    its `bitmap` was computed; it is then in the instance __dict__) is
    counted on the bitmap without decoding its members; any other member
    by member, so it may have t > 28."""
    if "bitmap" in f.__dict__:
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


def h_vector(f: SetFamily) -> HVector:
    return h_from_f(f_vector(f))
