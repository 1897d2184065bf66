"""The three benchmark workloads.

Each workload has three steps:

  choose(seed)          untimed; builds the pools of small self-dual
                        clutters, draws candidate inputs from the seed
                        and keeps, per slot, the one closest to the
                        slot's stated size (the oracle measures them)
  generate(recipe, dir) timed as set-up; composes the inputs from the
                        recipe and writes the input files
  plan(recipe, dir)     untimed; the oracle's expected answer for every
                        command, and the fixed command list

A command is a CLI argv run through `clutters.cli.main`, or one direct
library call. Every check raises `oracle.OracleError` on a wrong answer.

The sparse and dense lists hold 23 commands, so a run holds at least 2
timed passes and 46 latency samples (see run.min_passes). Ranked by
latency, the commands around rank 12 (the median) and rank 18 (the 75th
percentile, run.TAIL_PERCENTILE) are groups of commands on inputs of
seed-independent size, so the seed moves these statistics little.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import inputs
import oracle
from oracle import Cube, OracleError


@dataclass
class Command:
    label: str
    argv: list[str] | None  # None: `call` is run instead of the CLI
    check: Callable  # (code, stdout, value) -> None, raises OracleError
    call: Callable | None = None  # (modules) -> value
    outfile: str | None = None  # file the command writes, part of its output


def _rng(workload: str, seed: int, slot: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{slot}")


def _nearest(cands, target: dict) -> object:
    """Candidate whose stats are closest (relative L1) to `target`."""
    def dist(c):
        return sum(abs(c[1][k] - v) / v for k, v in target.items())
    return min(cands, key=dist)[0]


def _expect_text(want: str):
    def check(code, out, _value):
        if code != 0:
            raise OracleError(f"exit {code}")
        if out != want:
            raise OracleError(f"stdout {out[:80]!r} != {want[:80]!r}")
    return check


def _vec(values) -> str:
    return " ".join(map(str, values))


def _expect_family(cube: Cube, want_bm: int):
    """Output parses as one family on E_t whose bitmap is `want_bm`."""
    def check(code, out, _value):
        if code != 0:
            raise OracleError(f"exit {code}")
        t, masks = oracle.parse_family(out)
        _same_family(cube, t, masks, want_bm)
    return check


def _expect_family_json(cube: Cube, want_bm: int):
    def check(code, out, _value):
        if code != 0:
            raise OracleError(f"exit {code}")
        doc = json.loads(out)
        masks = [sum(1 << (e - 1) for e in s) for s in doc["members"]]
        _same_family(cube, doc["t"], masks, want_bm)
    return check


def _expect_blocker(cube: Cube, a_masks):
    """Output parses as a family B on E_t that is an antichain with
    B^v = star(A^v)."""
    def check(code, out, _value):
        if code != 0:
            raise OracleError(f"exit {code}")
        t, masks = oracle.parse_family(out)
        if t != cube.t or len(set(masks)) != len(masks):
            raise OracleError("wrong ground set or duplicate members")
        if not oracle.blocker_ok(cube, a_masks, masks):
            raise OracleError("not an antichain B with B^v = star(A^v)")
    return check


def _same_family(cube: Cube, t: int, masks, want_bm: int) -> None:
    if t != cube.t:
        raise OracleError(f"t = {t}, expected {cube.t}")
    if len(set(masks)) != len(masks):
        raise OracleError("duplicate members")
    if cube.bitmap(masks) != want_bm:
        raise OracleError("members differ from the oracle's")


def _expect_json(want):
    def check(code, out, _value):
        if code != 0:
            raise OracleError(f"exit {code}")
        if json.loads(out) != want:
            raise OracleError("JSON output differs from the oracle's")
    return check


def _expect_verdicts(header: str, want: dict[str, str]):
    def check(code, out, _value):
        if code != 0:
            raise OracleError(f"exit {code}")
        lines = out.split("\n")
        if lines[0] != header or lines[-2:] != ["result: PASS", ""]:
            raise OracleError(f"unexpected frame {lines[0]!r} / {lines[-2:]!r}")
        got = dict(line.split(": ", 1) for line in lines[1:-2])
        if got != want:
            bad = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
            raise OracleError(f"verdicts differ on {bad}")
    return check


# ------------------------------------------------------------------ sizes

SPARSE_T = (16, 18, 20)
SPARSE_BIG_T = 22
# Stated sizes. Each input slot draws inputs from the seed until one is
# within TOLERANCE of every target statistic (after CANDIDATES draws, the
# nearest is kept), so that the work per pass depends little on the seed:
#   n   members
#   b   members of the blocker
#   up  share of the 2^t subsets in the up-closure
#   w   sum over members g of 2^(t - |g|) (the supersets an up-closure
#       visits), as a multiple of 2^(t-1)
RANDOM_SIZE = {
    16: {"n": 28, "b": 270, "up": 0.64, "w": 3.4},
    18: {"n": 34, "b": 560},
    20: {"n": 26, "b": 650},
}
RANDOM_DRAW = {16: 36, 18: 40, 20: 28}  # sets drawn before minimalization
COMPOSED_SIZE = {
    16: {"n": 70, "w": 3.0},
    18: {"n": 80, "w": 3.0},
    20: {"n": 90, "w": 2.8},
    22: {"n": 200, "w": 3.2},
}
CANDIDATES = 400
TOLERANCE = {"n": 0.2, "b": 0.04, "up": 0.02, "w": 0.02}
SPARSE_T22_LABEL = "fvector --upset s22"
# With 13 t = 5 runs to one t = 6 run a pass, the median and the 75th
# percentile (see run.tail) both fall among the t = 5 runs however many
# passes a run fits.
ENUMERATE_T5_REPEATS = 13


def _universes() -> dict[int, list]:
    return inputs.full_support_pools({t: oracle.self_dual_universe(t) for t in (3, 4, 5, 6)})


def _stats(cube: Cube, masks, target: dict) -> dict:
    stats = {"n": len(masks)}
    if "up" in target:
        stats["up"] = cube.up(cube.bitmap(masks)).bit_count() / cube.n
    if "b" in target:
        stats["b"] = len(oracle.blocker(cube, masks))
    if "w" in target:
        stats["w"] = sum(1 << (cube.t - m.bit_count()) for m in masks) / (cube.n >> 1)
    return stats


def _random_masks(wl: str, seed: int, t: int, sub: int) -> list[int]:
    return inputs.random_clutter(t, RANDOM_DRAW[t], _rng(wl, seed, f"r{t}:{sub}"))


def _composed_masks(wl: str, seed: int, t: int, sub: int, pools) -> list[int]:
    return inputs.composed_self_dual(t, pools, _rng(wl, seed, f"s{t}:{sub}"))


def _choose(make, t: int, target: dict) -> int:
    """Index of the first candidate `make(i)` within TOLERANCE of every
    target statistic; after CANDIDATES draws, the nearest one."""
    cube = Cube(t)
    seen = []
    for i in range(CANDIDATES):
        stats = _stats(cube, make(i), target)
        if all(abs(stats[k] - v) <= TOLERANCE[k] * v for k, v in target.items()):
            return i
        seen.append((i, stats))
    return _nearest(seen, target)


def _choose_random(wl: str, seed: int, t: int) -> int:
    return _choose(lambda i: _random_masks(wl, seed, t, i), t, RANDOM_SIZE[t])


def _choose_composed(wl: str, seed: int, t: int, pools) -> int:
    return _choose(lambda i: _composed_masks(wl, seed, t, i, pools), t, COMPOSED_SIZE[t])


def _require_self_dual(cube: Cube, masks) -> None:
    if not oracle.is_self_dual(cube, masks):
        raise OracleError(f"composed clutter on E_{cube.t} is not self-dual")


# ------------------------------------------------------------ enumerate_t6


class EnumerateT6:
    """`enumerate --t 6 --verify --out FILE` and `enumerate --t 5 --verify`.

    Enumeration takes no input; the seed only names the output file."""

    name = "enumerate_t6"

    def choose(self, seed: int) -> dict:
        return {"seed": seed}

    def generate(self, recipe: dict, work: str) -> None:
        return None

    def plan(self, recipe: dict, work: str) -> list[Command]:
        out = os.path.join(work, f"universe6-{recipe['seed']}.fam")
        u6 = oracle.self_dual_universe(6)
        want_digest = oracle.digest((6, c) for c in u6)
        cube = Cube(6)
        line6 = _expect_text("t=6 count=2646 verified=pass\n")

        def check6(code, stdout, _value):
            line6(code, stdout, None)
            with open(out, encoding="utf-8") as fh:
                fams = oracle.parse_families(fh.read())
            if len(fams) != oracle.SELF_DUAL_COUNTS[6]:
                raise OracleError(f"{len(fams)} families in --out")
            for t, masks in fams:
                if t != 6 or len(set(masks)) != len(masks):
                    raise OracleError("a --out family is not a set of distinct masks on E_6")
                if not oracle.is_self_dual(cube, masks):
                    raise OracleError("a --out family fails the complementary-pair test")
            if oracle.digest(fams) != want_digest:
                raise OracleError("--out families differ from the oracle universe")

        n5 = len(oracle.self_dual_universe(5))
        t5 = Command("enumerate t5 --verify", ["enumerate", "--t", "5", "--verify"],
                     _expect_text(f"t=5 count={n5} verified=pass\n"))
        return [Command("enumerate t6 --verify --out",
                        ["enumerate", "--t", "6", "--verify", "--out", out], check6,
                        outfile=out)] + [t5] * ENUMERATE_T5_REPEATS


# ---------------------------------------------------------- sparse_kernels


def _bound_text(label: str, t: int, f: list[int], side: str) -> str:
    """Expected `verify-theorem3` / `verify-lemma2` report, built from the
    oracle's f-vector and the bound values C(t-1, k-1) / C(t-1, k)."""
    half = t // 2
    lines = [f"{label}: true", f"f: {_vec(f)}",
             f"{'k':>3} {'kind':>6} {'bound':>8} {'value':>8} {'slack':>8}  ok"]
    ok_all = True
    for k in range(t + 1):
        j = k - 1 if side == "theorem3" else k
        b = math.comb(t - 1, j) if j >= 0 else 0
        v = f[k]
        if k in (0, t, half):
            kind, ok, slack = "exact", v == b, 0 if v == b else abs(v - b)
        elif (k < half) == (side == "theorem3"):
            kind, ok, slack = "upper", v <= b, b - v
        else:
            kind, ok, slack = "lower", v >= b, v - b
        ok_all &= ok
        lines.append(f"{k:>3} {kind:>6} {b:>8} {v:>8} {slack:>8}  {'yes' if ok else 'NO'}")
    for off in range(1, half):
        want = math.comb(t, half - off)
        got = f[half - off] + f[half + off]
        ok_all &= got == want
        lines.append(f"pair offset {off}: {got} expected {want}  {'yes' if got == want else 'NO'}")
    lines.append("result: " + ("PASS" if ok_all else "FAIL"))
    return "\n".join(lines) + "\n"


def _check_text(cube: Cube, up: int, self_dual: bool) -> str:
    t = cube.t
    count = up.bit_count()
    rel = "=" if count == 1 << (t - 1) else "!="
    return (f"self_dual: {str(self_dual).lower()}, #upset: {count} {rel} 2^{t - 1}\n"
            "identities: eq22 pass, remark_iii pass, remark_iv pass, eq19 pass\n")


class SparseKernels:
    """Small generator files in, short answers out: random clutters at
    t = 16, 18, 20 (member sizes 3-7), composed self-dual clutters at the
    same t, and one up-closure at t = 22."""

    name = "sparse_kernels"

    # (input, command) pairs; r = random clutter, s = composed self-dual.
    # The t = 22 up-closure runs first, so the process's peak RSS right
    # after its first run is the peak it reaches (see SPARSE_T22_LABEL).
    COMMANDS = (
        ("s22", "fvector --upset"),
        ("r16", "blocker"), ("r16", "check"),
        ("r18", "blocker"),
        ("r20", "blocker"),
        ("s16", "blocker"), ("s16", "verify-theorem3"), ("s16", "check"), ("s16", "upset"),
        ("s16", "fvector --upset"), ("s16", "hvector --upset"),
        ("s18", "blocker"), ("s18", "verify-theorem3"), ("s18", "check"), ("s18", "upset"),
        ("s18", "fvector --upset"), ("s18", "hvector --upset"),
        ("s20", "blocker"), ("s20", "verify-theorem3"), ("s20", "check"), ("s20", "upset"),
        ("s20", "fvector --upset"), ("s20", "hvector --upset"),
    )

    def choose(self, seed: int) -> dict:
        pools = _universes()
        recipe = {"seed": seed, "pools": pools, "r": {}, "s": {}}
        for t in SPARSE_T:
            recipe["r"][t] = _choose_random(self.name, seed, t)
        for t in SPARSE_T + (SPARSE_BIG_T,):
            recipe["s"][t] = _choose_composed(self.name, seed, t, pools)
        return recipe

    def _inputs(self, recipe: dict) -> dict[str, tuple[int, list[int]]]:
        seed, pools = recipe["seed"], recipe["pools"]
        out = {f"r{t}": (t, _random_masks(self.name, seed, t, sub))
               for t, sub in recipe["r"].items()}
        out.update({f"s{t}": (t, _composed_masks(self.name, seed, t, sub, pools))
                    for t, sub in recipe["s"].items()})
        return out

    def generate(self, recipe: dict, work: str) -> None:
        for key, (t, masks) in self._inputs(recipe).items():
            inputs.write_family(os.path.join(work, f"{key}.fam"), t, masks)

    def plan(self, recipe: dict, work: str) -> list[Command]:
        data = self._inputs(recipe)
        expect = {}
        for key, (t, masks) in data.items():
            cube = Cube(t)
            if key.startswith("s"):
                _require_self_dual(cube, masks)
            up = cube.up(cube.bitmap(masks))
            f = cube.f_vector(up)
            sd = cube.star(up) == up
            expect[key] = {
                "blocker": _expect_blocker(cube, masks),
                "check": _expect_text(_check_text(cube, up, sd)),
                "upset": _expect_text(f"t: {t}\ncount: {up.bit_count()}\nf: {_vec(f)}\n"),
                "fvector --upset": _expect_text(_vec(f) + "\n"),
                "hvector --upset": _expect_text(_vec(oracle.h_from_f(f)) + "\n"),
            }
            if sd and t % 2 == 0:
                expect[key]["verify-theorem3"] = _expect_text(
                    _bound_text("self_dual", t, f, "theorem3"))
        cmds = []
        for key, what in self.COMMANDS:
            path = os.path.join(work, f"{key}.fam")
            words = what.split()
            argv = [words[0], path] + words[1:]
            cmds.append(Command(f"{what} {key}", argv, expect[key][what]))
        return cmds


# ---------------------------------------------------------- dense_families

APPENDIX = ("eq28", "h_pair_sum", "h_complement_form", "eq21", "eq14", "f_delta",
            "eq23", "eq25", "eq24", "eq29", "weighted_h_sum", "eq9_block",
            "odd_t_block", "odd_h_relation", "eq27_block", "eq27_eq9_block")


def appendix_verdicts(t: int) -> dict[str, str]:
    """Verdicts the identity suite must give for any family with F* = F:
    every relation holds where its parity condition applies."""
    applies = {
        "eq24": t % 2 == 0, "eq29": t % 2 == 0, "eq9_block": t % 2 == 0,
        "eq27_block": t % 4 == 0, "eq27_eq9_block": t % 4 == 0,
        "odd_t_block": t % 2 == 1, "odd_h_relation": t % 2 == 1 and t >= 3,
    }
    return {name: "pass" if applies.get(name, True) else "n/a" for name in APPENDIX}


RANDOM_IDENTITIES_N = 32


class DenseFamilies:
    """Every member crosses the parse/format boundary: families with
    F* = F at t = 14 and 16 (2^(t-1) lines each), the up-families of
    composed self-dual clutters at t = 16 and 18 (2^(t-1) members), and
    the complex 2^[16] - A^v of the composed self-dual clutter A at t = 16."""

    name = "dense_families"

    def choose(self, seed: int) -> dict:
        pools = _universes()
        return {"seed": seed, "pools": pools,
                "s": {t: _choose_composed(self.name, seed, t, pools) for t in (16, 18)}}

    def _inputs(self, recipe: dict) -> dict[str, tuple[int, list[int]]]:
        seed, pools = recipe["seed"], recipe["pools"]
        out = {f"f{t}": (t, inputs.star_self_dual(t, _rng(self.name, seed, f"f{t}")))
               for t in (14, 16)}
        out.update({f"s{t}": (t, _composed_masks(self.name, seed, t, sub, pools))
                    for t, sub in recipe["s"].items()})
        return out

    def _complex(self, t: int, masks) -> list[int]:
        """Faces of 2^[t] - A^v, computed with the oracle's bitmaps."""
        cube = Cube(t)
        return cube.members(~cube.up(cube.bitmap(masks)) & cube.all)

    # (input, command); f = F* = F family, s = composed self-dual clutter,
    # d16 = the complex 2^[16] - s16^v
    COMMANDS = (
        ("f14", "identities"), ("f14", "identities --json"), ("f14", "star"),
        ("f14", "star --json"), ("f14", "hvector"),
        ("f16", "identities"), ("f16", "identities --json"), ("f16", "star"),
        ("f16", "star --json"), ("f16", "fvector"), ("f16", "hvector"),
        ("s16", "upset --list"), ("s16", "upset --list --json"), ("s18", "upset --list"),
        ("s18", "upset --list --json"),
        ("d16", "identities"), ("d16", "star"), ("d16", "star --json"), ("d16", "fvector"),
        ("d16", "hvector"),
        ("d16", "verify-lemma2"),
    )

    def generate(self, recipe: dict, work: str) -> None:
        data = self._inputs(recipe)
        for key in ("f14", "f16", "s16", "s18"):
            t, masks = data[key]
            inputs.write_family(os.path.join(work, f"{key}.fam"), t, masks)
        t, masks = data["s16"]
        inputs.write_family(os.path.join(work, "d16.fam"), t, self._complex(t, masks))

    def plan(self, recipe: dict, work: str) -> list[Command]:
        data = self._inputs(recipe)
        t, masks = data["s16"]
        data["d16"] = (t, self._complex(t, masks))
        path = {k: os.path.join(work, f"{k}.fam") for k in data}
        expect = {}
        for key, (t, masks) in data.items():
            cube = Cube(t)
            bm = cube.bitmap(masks)
            if key.startswith("s"):
                _require_self_dual(cube, masks)
                up = cube.up(bm)
                expect[key] = {"upset --list": _expect_family(cube, up),
                               "upset --list --json": _expect_family_json(cube, up)}
                continue
            if cube.star(bm) != bm:
                raise OracleError(f"{key} does not satisfy F* = F")
            if key == "d16" and cube.down(bm) != bm:
                raise OracleError("2^[t] - A^v is not a complex")
            f = cube.f_vector(bm)
            verdicts = appendix_verdicts(t)
            expect[key] = {
                "identities": _expect_verdicts(f"t: {t}", verdicts),
                "identities --json": _expect_json({"t": t, "checks": verdicts}),
                "star": _expect_family(cube, cube.star(bm)),
                "star --json": _expect_family_json(cube, cube.star(bm)),
                "fvector": _expect_text(_vec(f) + "\n"),
                "hvector": _expect_text(_vec(oracle.h_from_f(f)) + "\n"),
                "verify-lemma2": _expect_text(_bound_text("star_self_dual", t, f, "lemma2")),
            }
        cmds = []
        for key, what in self.COMMANDS:
            words = what.split()
            cmds.append(Command(f"{what} {key}", [words[0], path[key]] + words[1:],
                                expect[key][what]))

        seed = str(recipe["seed"])
        n = RANDOM_IDENTITIES_N
        cmds.append(Command(
            f"identities --random --t 16 --n {n}",
            ["identities", "--random", "--t", "16", "--n", str(n), "--seed", seed],
            _expect_verdicts(f"t: 16  n: {n}  seed: {seed}", appendix_verdicts(16))))

        # Alexander dual relative to V(D); D holds every singleton, so V = E_t
        # and the dual is {E_t - F : F not in D} = star(D).
        t, faces = data["d16"]
        cube = Cube(t)
        d = cube.bitmap(faces)
        if cube.f_vector(d)[1] != t:
            raise OracleError("complex d16 misses a vertex")
        want_dual = cube.star(d)
        dual_vertices = sum(1 << i for i in range(t) if want_dual & ~cube.low[i])

        def alexander(mods):
            parsed = mods.familyio.load_family(path["d16"])
            return mods.complexes.alexander_dual(mods.complexes.Complex(parsed.family()))

        def check_alexander(code, _out, value):
            if code != 0:
                raise OracleError(f"exit {code}")
            _same_family(cube, value.family.t, list(value.family.members), want_dual)
            if value.vertex_mismatch != (dual_vertices != cube.n - 1):
                raise OracleError("vertex_mismatch flag is wrong")

        cmds.append(Command("alexander_dual d16", None, check_alexander, call=alexander))
        return cmds


WORKLOADS = {w.name: w for w in (EnumerateT6(), SparseKernels(), DenseFamilies())}


def output_key(code, out: str, outfile: str | None) -> str:
    """Digest of everything a CLI command produced, for caching checks."""
    h = hashlib.sha256(f"{code}\n".encode())
    h.update(out.encode())
    if outfile is not None:
        with open(outfile, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()
