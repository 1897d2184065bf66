"""Tests for the benchmark's own oracle, generators and tracer.

    python3 -m pytest bench/test_bench.py
    python3 -m unittest discover -s bench

They import nothing from `clutters`.
"""

from __future__ import annotations

import math
import os
import random
import sys
import tempfile
import types
import unittest

import inputs
import oracle
import run
import workloads
from oracle import Cube, OracleError
from tracer import Tracer

PATH_E4 = [0b0011, 0b0110, 0b1100]  # {1,2}, {2,3}, {3,4}


def brute_self_dual(t: int) -> list[tuple[int, ...]]:
    """Self-dual clutters on E_t from every family of subsets (t <= 4)."""
    cube = Cube(t)
    out = []
    for bm in range(1 << cube.n):
        if cube.up(bm) == bm and cube.star(bm) == bm and bm not in (0, 1):
            out.append(tuple(cube.members(cube.minimal(bm))))
    return out


class OracleTest(unittest.TestCase):
    def test_path_clutter_is_rejected_despite_its_count(self):
        cube = Cube(4)
        up = cube.up(cube.bitmap(PATH_E4))
        self.assertEqual(up.bit_count(), 8)  # 2^(t-1), the cardinality test passes
        self.assertFalse(oracle.is_self_dual(cube, PATH_E4))

    def test_blocker_with_a_member_dropped_is_rejected(self):
        cube = Cube(4)
        b = oracle.blocker(cube, PATH_E4)
        self.assertEqual(b, [0b0101, 0b0110, 0b1010])  # {1,3}, {2,3}, {2,4}
        self.assertTrue(oracle.blocker_ok(cube, PATH_E4, b))
        for i in range(len(b)):
            self.assertFalse(oracle.blocker_ok(cube, PATH_E4, b[:i] + b[i + 1:]))
        check = workloads._expect_family(cube, cube.bitmap(b))
        check(0, oracle.format_family(4, b), None)
        with self.assertRaises(OracleError):
            check(0, oracle.format_family(4, b[1:]), None)

    def test_blocker_that_is_not_an_antichain_is_rejected(self):
        cube = Cube(4)
        b = oracle.blocker(cube, PATH_E4)
        self.assertFalse(oracle.blocker_ok(cube, PATH_E4, b + [0b0111]))

    def test_universe_counts_match_brute_force(self):
        for t in range(1, 5):
            self.assertEqual(sorted(oracle.self_dual_universe(t)), sorted(brute_self_dual(t)))
        for t, n in oracle.SELF_DUAL_COUNTS.items():
            self.assertEqual(len(oracle.self_dual_universe(t)), n)

    def test_closures_and_star_match_the_definitions(self):
        rng = random.Random(7)
        t = 5
        cube = Cube(t)
        for _ in range(20):
            masks = rng.sample(range(cube.n), rng.randint(1, 6))
            up = {s for s in range(cube.n) if any(m & ~s == 0 for m in masks)}
            down = {s for s in range(cube.n) if any(s & ~m == 0 for m in masks)}
            bm = cube.bitmap(masks)
            self.assertEqual(cube.members(cube.up(bm)), sorted(up))
            self.assertEqual(cube.members(cube.down(bm)), sorted(down))
            star = sorted((cube.n - 1) ^ g for g in range(cube.n) if g not in masks)
            self.assertEqual(cube.members(cube.star(bm)), star)
            sizes = [0] * (t + 1)
            for s in up:
                sizes[s.bit_count()] += 1
            self.assertEqual(cube.f_vector(cube.up(bm)), sizes)

    def test_h_vector_matches_closed_form(self):
        f = [0, 0, 3, 4, 1]  # up-family of the triangle on E_4
        self.assertEqual(oracle.h_from_f(f), [0, 0, 3, -2, 0])
        t = 6
        f = [1, 4, 9, 7, 2, 1, 0]
        closed = [(-1) ** l * sum((-1) ** k * math.comb(t - k, t - l) * f[k]
                                  for k in range(l + 1)) for l in range(t + 1)]
        self.assertEqual(oracle.h_from_f(f), closed)

    def test_parser_round_trip_and_rejects_garbage(self):
        text = oracle.format_family(4, PATH_E4) + "---\n" + oracle.format_family(3, [0, 7])
        self.assertEqual(oracle.parse_families(text), [(4, PATH_E4), (3, [0, 7])])
        for bad in ("t: 3\n{1,4}\n", "{1}\n", "t: 3\nhello\n", "t: 3\nt: 3\n"):
            with self.assertRaises((OracleError, ValueError)):
                oracle.parse_families(bad)

    def test_digest_ignores_order(self):
        a = [(4, [1, 2]), (4, [3])]
        self.assertEqual(oracle.digest(a), oracle.digest([(4, [3]), (4, [2, 1])]))
        self.assertNotEqual(oracle.digest(a), oracle.digest([(4, [1, 2])]))


class GeneratorTest(unittest.TestCase):
    def test_composed_clutters_are_self_dual(self):
        pools = workloads._universes()
        for target in (7, 12, 16, 20):
            cube = Cube(target)
            for seed in range(5):
                masks = inputs.composed_self_dual(target, pools, random.Random(seed))
                self.assertTrue(oracle.is_self_dual(cube, masks), (target, seed))

    def test_composition_of_triangles(self):
        tri = [0b011, 0b101, 0b110]
        masks, t = inputs.compose(tri, 3, 0, tri, 3)
        self.assertEqual(t, 5)
        self.assertEqual(len(masks), 1 + 2 * 3)
        self.assertTrue(oracle.is_self_dual(Cube(5), masks))

    def test_random_clutter_is_an_antichain_of_sizes_3_to_7(self):
        cube = Cube(16)
        masks = inputs.random_clutter(16, 36, random.Random(3))
        bm = cube.bitmap(masks)
        self.assertEqual(cube.minimal(cube.up(bm)), bm)  # an antichain
        self.assertTrue(all(3 <= m.bit_count() <= 7 for m in masks))

    def test_star_self_dual_family(self):
        cube = Cube(8)
        bm = cube.bitmap(inputs.star_self_dual(8, random.Random(1)))
        self.assertEqual(bm.bit_count(), 128)
        self.assertEqual(cube.star(bm), bm)

    def test_same_seed_gives_byte_identical_inputs(self):
        for wl in (workloads.SparseKernels(), workloads.DenseFamilies()):
            files = []
            for seed in (11, 11, 12):
                with tempfile.TemporaryDirectory() as work:
                    wl.generate(wl.choose(seed), work)
                    files.append({name: open(os.path.join(work, name), "rb").read()
                                  for name in sorted(os.listdir(work))})
            self.assertEqual(files[0], files[1], wl.name)
            self.assertNotEqual(files[0], files[2], wl.name)

    def test_bound_report_of_the_triangle(self):
        text = workloads._bound_text("self_dual", 4, [0, 0, 3, 4, 1], "theorem3")
        self.assertTrue(text.startswith("self_dual: true\nf: 0 0 3 4 1\n"))
        self.assertIn("  2  exact        3        3        0  yes", text)
        self.assertTrue(text.endswith("pair offset 1: 4 expected 4  yes\nresult: PASS\n"))

    def test_appendix_verdicts_follow_parity(self):
        v14, v16, v7 = (workloads.appendix_verdicts(t) for t in (14, 16, 7))
        self.assertEqual(v14["eq27_block"], "n/a")
        self.assertEqual(v16["eq27_block"], "pass")
        self.assertEqual(v7["eq29"], "n/a")
        self.assertEqual(v7["odd_t_block"], "pass")


class TracerTest(unittest.TestCase):
    def setUp(self):
        pkg = types.ModuleType("fakepkg")
        inner = types.ModuleType("fakepkg.inner")
        outer = types.ModuleType("fakepkg.outer")
        exec(compile("def leaf(x):\n    return [x] * 3\n\n"
                     "def parent(x):\n    return leaf(x) + leaf(x)\n", "<inner>", "exec"),
             inner.__dict__)
        outer.parent = inner.parent  # imported name, as `from .inner import parent`
        self.mods = {"fakepkg": pkg, "fakepkg.inner": inner, "fakepkg.outer": outer}
        sys.modules.update(self.mods)

    def tearDown(self):
        for name in self.mods:
            sys.modules.pop(name, None)

    def test_wraps_importers_reports_absent_and_restores(self):
        inner, outer = self.mods["fakepkg.inner"], self.mods["fakepkg.outer"]
        original = inner.parent
        tr = Tracer(package="fakepkg")
        tr.install(wanted=["inner.parent", "inner.leaf", "inner.merged_away"])
        self.assertEqual(tr.absent, ["inner.merged_away"])
        self.assertIsNot(outer.parent, original)
        self.assertEqual(outer.parent(1), [1] * 6)
        s = tr.summary()["by_name"]
        self.assertEqual(s["inner.parent"]["calls"], 1)
        self.assertEqual(s["inner.leaf"]["calls"], 2)
        self.assertLessEqual(s["inner.parent"]["self_s"], s["inner.parent"]["total_s"])
        total_self = s["inner.parent"]["self_s"] + s["inner.leaf"]["self_s"]
        self.assertAlmostEqual(total_self, s["inner.parent"]["total_s"], places=9)
        self.assertEqual(len(tr.under("inner.leaf", ("inner.parent",))), 2)
        tr.uninstall()
        self.assertIs(outer.parent, original)
        self.assertIs(inner.parent, original)


class TailTest(unittest.TestCase):
    def test_tail_is_the_fixed_percentile(self):
        xs = list(range(100))
        self.assertEqual(run.tail(xs), 74)
        self.assertEqual(run.tail(xs * 3), 74)  # more passes, same statistic

    def test_min_passes_leave_ten_samples_beyond_the_tail(self):
        for n_commands in (1, 14, 23, 40, 41):
            n = run.min_passes([None] * n_commands) * n_commands
            xs = list(range(n))
            self.assertGreaterEqual(sum(x > run.tail(xs) for x in xs), run.TAIL_BEYOND)


class OffCpuTest(unittest.TestCase):
    def test_blocked_time_fails_the_command(self):
        loop = run.Loop([])
        loop.wall = {"busy": [1.0, 1.0], "blocked": [1.0, 1.0]}
        loop.cpu = {"busy": [0.99, 0.98], "blocked": [0.3, 0.3]}
        failed = run.off_cpu_failures((loop,), stolen=0.1)
        self.assertEqual([f["command"] for f in failed], ["blocked"])
        self.assertEqual(run.off_cpu_failures((loop,), stolen=2.0), [])


if __name__ == "__main__":
    unittest.main()
