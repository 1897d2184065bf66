"""Independent output oracle for the benchmark.

Nothing here imports `clutters`. A family on E_t is held as one Python
int of 2^t bits: subset S (a mask, element i is bit i-1) is bit S. On
that representation

  * up-closure is t shift-or passes,
  * star(F) = {E - G : G not in F} is "NOT, then reverse the 2^t bits",
  * the minimal members of an up-set are the members no shift reaches,
  * the f-vector is t+1 ANDs with size-layer masks plus a popcount.

A clutter A is self-dual iff star(A^v) = A^v. A printed blocker B of A is
accepted iff B is an antichain and B^v = star(A^v) (B(A)^v = (A^v)*).
The self-dual universe on E_t is rebuilt through the correspondence
between self-dual up-families F on E_t and up-families F0 on E_(t-1)
holding no complementary pair: F = F0 + {S + t : S in star(F0)}.
"""

from __future__ import annotations

import hashlib
import math

# OEIS A001206: self-dual monotone Boolean functions of t variables
SELF_DUAL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 12, 5: 81, 6: 2646}

_REV_BYTE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


class OracleError(ValueError):
    """An output that the oracle rejects."""


class Cube:
    """Bitmap operations on the 2^t subsets of E_t."""

    def __init__(self, t: int):
        if t < 0:
            raise ValueError(f"ground set size must be >= 0, got {t}")
        self.t = t
        self.n = 1 << t
        self.all = (1 << self.n) - 1
        # low[i]: positions S with element i+1 absent, built by
        # shift-doubling (no big-int division)
        self.low = []
        for i in range(t):
            step = 1 << i
            x = (1 << step) - 1
            period = step << 1
            while period < self.n:
                x |= x << period
                period <<= 1
            self.low.append(x)
        self._layers: list[int] | None = None

    def bitmap(self, masks) -> int:
        buf = bytearray(max(1, self.n >> 3))
        for m in masks:
            if not 0 <= m < self.n:
                raise OracleError(f"mask {m} outside 2^[{self.t}]")
            buf[m >> 3] |= 1 << (m & 7)
        return int.from_bytes(buf, "little")

    def members(self, bm: int) -> list[int]:
        out = []
        raw = bm.to_bytes(max(1, self.n >> 3), "little")
        for i, byte in enumerate(raw):
            if byte:
                base = i << 3
                for j in range(8):
                    if byte >> j & 1:
                        out.append(base + j)
        return out

    def up(self, bm: int) -> int:
        for i, low in enumerate(self.low):
            bm |= (bm & low) << (1 << i)
        return bm

    def down(self, bm: int) -> int:
        for i, low in enumerate(self.low):
            bm |= (bm >> (1 << i)) & low
        return bm

    def minimal(self, up_bm: int) -> int:
        """Minimal members of an up-set."""
        above = 0
        for i, low in enumerate(self.low):
            above |= (up_bm & low) << (1 << i)
        return up_bm & ~above

    def reverse(self, bm: int) -> int:
        """Image under S -> E_t - S (reverses the 2^t bits)."""
        if self.n < 8:
            return sum(1 << (self.n - 1 - s) for s in range(self.n) if bm >> s & 1)
        raw = bm.to_bytes(self.n >> 3, "little")
        return int.from_bytes(raw.translate(_REV_BYTE)[::-1], "little")

    def star(self, bm: int) -> int:
        return self.reverse(~bm & self.all)

    def layers(self) -> list[int]:
        """layers()[k] has bit S set iff |S| = k."""
        if self._layers is None:
            lay = [1]
            for j in range(self.t):
                shift = 1 << j
                lay = [
                    (lay[k] if k < len(lay) else 0)
                    | ((lay[k - 1] << shift) if k >= 1 else 0)
                    for k in range(j + 2)
                ]
            self._layers = lay
        return self._layers

    def f_vector(self, bm: int) -> list[int]:
        return [(bm & lay).bit_count() for lay in self.layers()]


def h_from_f(f: list[int]) -> list[int]:
    """h with sum_i h_i x^(t-i) = sum_i f_i (x-1)^(t-i), by expanding the
    right-hand side; coefficient of x^(t-i) is h_i."""
    t = len(f) - 1
    coeff = [0] * (t + 1)  # coeff[d] multiplies x^d
    for i, fi in enumerate(f):
        p = t - i
        for d in range(p + 1):
            coeff[d] += fi * math.comb(p, d) * (-1) ** (p - d)
    return [coeff[t - i] for i in range(t + 1)]


def is_self_dual(cube: Cube, masks) -> bool:
    """Nontrivial clutter A with star(A^v) = A^v (and A an antichain)."""
    bm = cube.bitmap(masks)
    if bm in (0, 1):
        return False
    up = cube.up(bm)
    return cube.minimal(up) == bm and cube.star(up) == up


def blocker_ok(cube: Cube, a_masks, b_masks) -> bool:
    """B is an antichain and B^v = star(A^v)."""
    b = cube.bitmap(b_masks)
    up_b = cube.up(b)
    return cube.minimal(up_b) == b and up_b == cube.star(cube.up(cube.bitmap(a_masks)))


def blocker(cube: Cube, a_masks) -> list[int]:
    """B(A) = min(star(A^v))."""
    return cube.members(cube.minimal(cube.star(cube.up(cube.bitmap(a_masks)))))


# ---------------------------------------------------------------- text


def parse_families(text: str) -> list[tuple[int, list[int]]]:
    """Parse canonical family text (`t: N` header, brace-form sets,
    `---` separators). Anything else is rejected."""
    fams: list[tuple[int, list[int]]] = []
    t = None
    masks: list[int] = []
    for raw in text.split("\n"):
        line = raw.strip()
        if not line:
            continue
        if line == "---":
            if t is None:
                raise OracleError("separator before a header")
            fams.append((t, masks))
            t, masks = None, []
        elif line.startswith("t: "):
            if t is not None:
                raise OracleError("second header in one family")
            t = int(line[3:])
        elif line.startswith("{") and line.endswith("}"):
            if t is None:
                raise OracleError("set before header")
            body = line[1:-1]
            m = 0
            if body:
                for tok in body.split(","):
                    e = int(tok)
                    if not 1 <= e <= t:
                        raise OracleError(f"element {e} outside 1..{t}")
                    m |= 1 << (e - 1)
            masks.append(m)
        else:
            raise OracleError(f"unexpected line {line[:40]!r}")
    if t is not None:
        fams.append((t, masks))
    return fams


def parse_family(text: str) -> tuple[int, list[int]]:
    fams = parse_families(text)
    if len(fams) != 1:
        raise OracleError(f"expected one family, found {len(fams)}")
    return fams[0]


def format_family(t: int, masks) -> str:
    lines = [f"t: {t}"]
    for m in sorted(set(masks)):
        lines.append("{" + ",".join(str(i + 1) for i in range(t) if m >> i & 1) + "}")
    return "\n".join(lines) + "\n"


def digest(fams) -> str:
    """Order-independent digest of (t, masks) families."""
    canon = sorted((t, tuple(sorted(set(ms)))) for t, ms in fams)
    h = hashlib.sha256()
    for t, ms in canon:
        h.update(f"{t}:{','.join(map(str, ms))}\n".encode())
    return h.hexdigest()


# ------------------------------------------------------------ universe


def self_dual_universe(t: int) -> list[tuple[int, ...]]:
    """All self-dual clutters on E_t as sorted mask tuples, via
    pair-free up-families on E_(t-1). Count-checked against A001206."""
    if t not in SELF_DUAL_COUNTS:
        raise ValueError(f"universe supported for 1 <= t <= 6, got {t}")
    base = Cube(t - 1)
    full0 = base.n - 1
    cands = sorted(range(base.n), key=lambda m: (m.bit_count(), m))
    upc = {c: base.up(1 << c) for c in cands}
    big = Cube(t)
    out: list[tuple[int, ...]] = []

    def emit(f0: int) -> None:
        f = f0 | (base.star(f0) << base.n)
        if big.star(f) != f:
            raise OracleError("correspondence produced a non-self-dual family")
        out.append(tuple(big.members(big.minimal(f))))

    stack = [(0, 0)]
    while stack:
        i, bm = stack.pop()
        emit(bm)
        for j in range(len(cands) - 1, i - 1, -1):
            c = cands[j]
            if bm >> c & 1:
                continue
            nb = bm | upc[c]
            if nb >> (full0 ^ c) & 1:
                continue  # every new member contains c: a pair needs E - c
            stack.append((j + 1, nb))
    if len(out) != SELF_DUAL_COUNTS[t]:
        raise OracleError(f"universe on E_{t} has {len(out)} clutters")
    return out
