"""Benchmark for the `clutters` package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs in one process and one thread from the root of a source checkout and
imports `clutters` from its `src/`. Workloads (see workloads.py):

  enumerate_t6    the self-dual universe at t = 6 and t = 5, certified
  sparse_kernels  blocker / up-closure / f-, h-vector / check / theorem3
                  on generator files at t = 16..22
  dense_families  identities, star, vectors, member listing and lemma2 on
                  files with 2^(t-1) members at t = 14..18

One closed-loop client runs the workload's fixed command list again and
again, in-process through `clutters.cli.main(argv)` with stdout captured,
in whole passes until `--seconds` of wall time have passed. The first
pass warms up and is not timed; at least two passes are timed. Every
output, warm-up included, is checked by an oracle in these files that
does not use `clutters`; checks run outside the timed region and a wrong
answer counts as a failed command.

Times are CPU seconds of this process and of the child processes it has
waited for, scaled to a fixed host speed. Every command is CPU-bound, so
CPU time leaves out what a hypervisor steals; on a shared 2-vCPU virtual
machine (Intel Xeon, CPython 3.11) that was up to 15 % of a run. That
host also alternated between a fast and a slow mode, about 1.7 times
apart and seconds long, which moved medians of short commands by half
between runs; each command's CPU time is therefore scaled by fixed
probes run around and inside it, in the same modes (see `Speedometer`).
Unscaled CPU and wall-clock figures are reported in the details line. A
command whose wall time exceeds its CPU time by more than OFF_CPU_SHARE,
after stolen time, fails: time spent blocked, or in processes not waited
for, would not show in CPU time.

With `--trace 0` the last stdout line reports the end-to-end metrics:
  setup_s      median of SETUP_REPEATS fresh imports of `clutters` plus
               input generation and file writing (not the oracle's work)
  pass_s       time of one pass of the command list: the sum over
               commands of each command's median latency
  cmd_p50_s    median per-command latency
  cmd_tail_s   per-command latency at TAIL_PERCENTILE, the same on every
               workload and run; a run holds at least MIN_SAMPLES
               latencies, so at least TAIL_BEYOND lie beyond it
  peak_rss_mb  ru_maxrss of this process, which runs one workload
With `--trace 1` the first half of the time runs untraced and the rest
traced; the last line reports per-layer metrics per pass and the tracing
overhead. The line before the last is a JSON object with the details:
machine, wall-clock pass time, error rate, tail percentile and sample
count, per-command latencies, absent trace targets. The same record is
written to .bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads
from oracle import OracleError
from tracer import Tracer

SETUP_REPEATS = 9
TAIL_PERCENTILE = 75.0
TAIL_BEYOND = 10
MIN_SAMPLES = math.ceil(TAIL_BEYOND / (1 - TAIL_PERCENTILE / 100))
OFF_CPU_SHARE = 0.2
ROOT = Path(__file__).resolve().parent.parent

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "cmd_p50_s": "s", "cmd_tail_s": "s",
                    "peak_rss_mb": "MB"}
PROBE_NOMINAL_S = 0.005
PROBE_EVERY_S = 0.2

# Per-layer metrics reported with --trace 1, per pass of the command list
# (see layer_metrics for how a name is read from the trace).
PER_LAYER = (
    "enumeration.enumerate_self_dual.self_s",
    "enumeration.enumerate_self_dual.t6_self_s",
    "enumeration.enumerate_self_dual.t6_certify_s",
    "enumeration.verify_universe.self_s",
    "enumeration.verify_universe.t6_total_s",
    "enumeration.complement_complex.self_s",
    "enumeration.hits",
    "enumeration.blocker_calls_per_hit",
    "sets.blocker_berge.calls",
    "sets.blocker_berge.self_s",
    "sets.blocker_dense.calls",
    "sets.blocker_dense.self_s",
    "sets.blocker.members_out",
    "sets.blocker.t16_mean_s",
    "sets.blocker.t20_mean_s",
    "sets.UpFamily.family.self_s",
    "sets.UpFamily.family.members",
    "sets.UpFamily.family.t20_mean_s",
    "sets.UpFamily.family.t22_peak_rss_mb",
    "sets.star.self_s",
    "sets.star.t20_mean_s",
    "sets.min_elements.self_s",
    "vectors.f_vector.self_s",
    "vectors.f_vector.t20_mean_s",
    "vectors.check_h_identities.self_s",
    "vectors.check_star_relations.self_s",
    "sets.SetFamily.init.self_s",
    "sets.SetFamily.init.members",
    "sets.Clutter.init.self_s",
    "familyio.parse_family.self_s",
    "familyio.parse_family.sets",
    "familyio.parse_families.self_s",
    "familyio.format_family.self_s",
    "familyio.format_families.self_s",
    "cli.main.calls",
    "cli.main.self_s",
    "cli.stdout_bytes",
    "identities.random_star_selfdual.self_s",
    "identities.StarSelfDualFamily.init.self_s",
    "identities.check_appendix.self_s",
    "vectors.h_from_f.self_s",
    "complexes.Complex.init.self_s",
    "complexes.down_closure.self_s",
    "complexes.is_star_self_dual.self_s",
    "complexes.alexander_dual.self_s",
    "kks.verify_theorem3.self_s",
    "kks.verify_lemma2.self_s",
    "cli.self_s", "familyio.self_s", "sets.self_s", "vectors.self_s",
    "complexes.self_s", "kks.self_s", "identities.self_s", "enumeration.self_s",
    "trace.overhead",
    "trace.pass_s_traced",
    "trace.pass_s_untraced",
)
MODULES = ("cli", "familyio", "sets", "vectors", "complexes", "kks", "identities",
           "enumeration")


class Fatal(Exception):
    """The benchmark cannot run here (exit 2, no result line)."""


def import_fresh():
    """Import `clutters` from ROOT/src, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "clutters" or n.startswith("clutters.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("clutters")
    importlib.import_module("clutters.cli")
    return pkg


def cpu_time() -> float:
    """CPU seconds of this process plus those of its children that have
    been waited for (a worker pool's, once it is joined)."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ru.ru_utime + ru.ru_stime


def probe() -> float:
    """CPU seconds of a fixed piece of pure-Python work (an integer set,
    membership tests, a sort) that does not touch `clutters`. It makes
    no garbage-collected objects beyond its set and list, so it starts
    no collection over the program's heap."""
    c0 = cpu_time()
    members = set(range(0, 1 << 14, 3))
    missing = [g for g in range(1 << 14) if g not in members]
    sorted(missing, key=lambda m: m.bit_count() << 16 | m)
    return cpu_time() - c0


class Speedometer:
    """Host speed while a block of code runs, from probes.

    A shared host can alternate between a fast and a slow mode (about
    1.7 times apart and seconds long on a 2-vCPU Xeon virtual machine),
    which CPU time does not hide. Probes run right before and after the
    block and, through SIGALRM, every PROBE_EVERY_S of wall time inside
    it, so they run in the modes the block ran in. `scale` turns the
    block's CPU seconds into seconds at the speed where a probe takes
    PROBE_NOMINAL_S. The probe ending one block starts the next.

    The timer is a wall-clock one: while a process CPU timer (such as
    ITIMER_PROF) is armed, Linux reads the process CPU clock only to the
    scheduler tick."""

    def __init__(self):
        self.last = probe()
        self.inner: list[float] = []

    def _tick(self, _signum, _frame) -> None:
        self.inner.append(probe())

    def __enter__(self):
        self.inner = []
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def scale(self, cpu: float) -> float:
        """Scaled seconds of the block just run, whose CPU time (probes
        inside it included) was `cpu`."""
        end = probe()
        samples = [self.last, *self.inner, end]
        self.last = end
        return (cpu - sum(self.inner)) * statistics.fmean(PROBE_NOMINAL_S / p for p in samples)


def run_command(cmd: workloads.Command, pkg):
    """Run one command: (cpu seconds, wall seconds, exit code, stdout,
    returned value, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    value = None
    w0, c0 = time.perf_counter(), cpu_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if cmd.call is None:
                code = pkg.cli.main(list(cmd.argv))
            else:
                value = cmd.call(pkg)
                code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed command, not a failed run
        code = None
        err.write(traceback.format_exc())
    cpu, wall = cpu_time() - c0, time.perf_counter() - w0
    return cpu, wall, code, out.getvalue(), value, err.getvalue()


class Loop:
    """Closed loop over whole passes of the command list."""

    def __init__(self, commands, verified: set[str] | None = None):
        self.commands = commands
        self.verified = verified if verified is not None else set()
        self.attempted = 0
        self.passes = 0
        self.failures: list[dict] = []
        self.latencies: list[float] = []
        self.scaled: dict[str, list[float]] = {c.label: [] for c in commands}
        self.cpu: dict[str, list[float]] = {c.label: [] for c in commands}
        self.wall: dict[str, list[float]] = {c.label: [] for c in commands}
        self.probes: list[float] = []
        self.stdout_bytes = 0
        self.first_rss_mb: dict[str, float] = {}  # ru_maxrss after a command's first run

    def check(self, cmd, code, out, value, err) -> str | None:
        """None if the oracle accepts the output, else why not. Outputs
        already accepted once are recognised by digest."""
        key = None
        if cmd.call is None:
            key = workloads.output_key(code, out, cmd.outfile)
            if key in self.verified:
                return None
        try:
            cmd.check(code, out, value)
        except (OracleError, ValueError, KeyError, IndexError, TypeError, AttributeError,
                OSError) as exc:
            return f"{type(exc).__name__}: {exc}" + (f" | stderr: {err[-300:]}" if err else "")
        if key is not None:
            self.verified.add(key)
        return None

    @staticmethod
    def pass_time(per_command: dict[str, list[float]]) -> float:
        """Sum over commands of each command's median latency: the time of
        one pass, unmoved by one slow moment in some pass."""
        return sum(statistics.median(v) for v in per_command.values() if v)

    def run(self, pkg, until: float, tracer: Tracer | None = None, warmup: bool = False,
            min_passes: int = 1) -> None:
        """Whole passes until the wall clock reads `until` and `min_passes`
        passes are recorded. With `warmup`, a first pass runs and is checked
        but not timed: first calls differ from later ones (heap growth,
        first-use caches), in both directions."""
        record = not warmup
        while not record or self.passes < min_passes or time.perf_counter() < until:
            gc.collect()
            meter = Speedometer()
            for cmd in self.commands:
                if tracer is not None:
                    tracer.command = cmd.label
                with meter:
                    cpu, wall, code, out, value, err = run_command(cmd, pkg)
                latency = meter.scale(cpu)
                self.attempted += 1
                self.first_rss_mb.setdefault(cmd.label, peak_rss_mb())
                if record:
                    self.probes.append(meter.last)
                    self.latencies.append(latency)
                    self.scaled[cmd.label].append(self.latencies[-1])
                    self.cpu[cmd.label].append(cpu - sum(meter.inner))
                    self.wall[cmd.label].append(wall - sum(meter.inner))
                    self.stdout_bytes += len(out.encode())
                problem = self.check(cmd, code, out, value, err)
                if problem is not None:
                    self.failures.append({"command": cmd.label, "exit": code, "why": problem})
            self.passes += record
            record = True


def peak_rss_mb() -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0


def tail(latencies: list[float]) -> float:
    """Latency at TAIL_PERCENTILE, by nearest rank.

    The percentile is fixed, not chosen from the sample count: a faster
    program fits more passes in a run, and a percentile that rose with
    them would compare another statistic with the parent's."""
    xs = sorted(latencies)
    return xs[math.ceil(TAIL_PERCENTILE / 100 * len(xs)) - 1]


def min_passes(commands) -> int:
    """Timed passes that give at least MIN_SAMPLES latencies."""
    return max(2, math.ceil(MIN_SAMPLES / len(commands)))


def off_cpu_failures(loops, stolen: float) -> list[dict]:
    """A failure for each command whose summed wall time exceeds its
    summed CPU time by more than OFF_CPU_SHARE of it, plus all the time
    the host stole while the loops ran (an upper bound on this process's
    share). Such time was spent blocked or in processes not waited for,
    which CPU time does not see, so the command's figure would not be
    the program's cost."""
    out = []
    for loop in loops:
        for label, walls in loop.wall.items():
            wall, cpu = sum(walls), sum(loop.cpu[label])
            if wall - cpu - stolen > OFF_CPU_SHARE * cpu:
                out.append({"command": label, "exit": 0,
                            "why": f"wall {wall:.3f} s against CPU {cpu:.3f} s "
                                   f"({stolen:.3f} s stolen)"})
    return out


def machine() -> dict:
    info = {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "platform": platform.platform(), "cpus": os.cpu_count()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
        with open("/proc/meminfo", encoding="utf-8") as fh:
            info["mem_total_kb"] = int(fh.readline().split()[1])
    except OSError:
        pass
    return info


def layer_metrics(tracer: Tracer, s: dict, loop: Loop,
                  rss_after: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics per pass of the command list. A `<function>.<stat>`
    name reads the trace summary: stat self_s / total_s / calls over all
    calls, t<N>_self_s / t<N>_total_s / t<N>_mean_s over calls on E_N;
    other stats are counts recorded by the tracer. `s` is the tracer's
    summary. Functions the tracer could not find read 0 and are listed
    as absent."""
    names, by_t, counts = s["by_name"], s["by_t"], s["counts"]
    passes = loop.passes
    hits = counts.get("enumeration.enumerate_self_dual.hits", 0)
    enum_roots = ("enumeration.enumerate_self_dual", "enumeration.verify_universe")
    special = {
        "enumeration.enumerate_self_dual.t6_certify_s": lambda: sum(
            sp[3] - sp[2] for sp in
            tracer.under("sets.blocker", ("enumeration.enumerate_self_dual",), t=6)) / passes,
        "enumeration.hits": lambda: hits / passes,
        "enumeration.blocker_calls_per_hit": lambda: (
            len(tracer.under("sets.blocker", enum_roots)) / hits if hits else 0.0),
        "cli.stdout_bytes": lambda: loop.stdout_bytes / passes,
        "sets.UpFamily.family.t22_peak_rss_mb":
            lambda: rss_after.get(workloads.SPARSE_T22_LABEL, 0.0),
    }
    out: dict[str, float] = {}
    for metric in PER_LAYER:
        if metric.startswith("trace."):
            continue
        fn, stat = metric.rsplit(".", 1)
        if metric in special:
            v = special[metric]()
        elif fn in MODULES and stat == "self_s":
            v = sum(a["self_s"] for n, a in names.items() if n.split(".", 1)[0] == fn) / passes
        elif stat in ("self_s", "total_s", "calls"):
            v = names.get(fn, {}).get(stat, 0) / passes
        elif stat.startswith("t") and stat[1].isdigit():
            t, kind = stat[1:].split("_", 1)
            agg = by_t.get(f"{fn}@t{t}")
            if agg is None:
                v = 0.0
            elif kind == "mean_s":
                v = agg["total_s"] / agg["calls"]
            else:
                v = agg[kind] / passes
        else:
            v = counts.get(metric, 0) / passes
        out[metric] = v
    return out


def layer_unit(metric: str) -> str:
    if metric.endswith("_s") or metric in ("trace.pass_s_traced", "trace.pass_s_untraced"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric == "cli.stdout_bytes":
        return "bytes"
    if metric in ("trace.overhead", "enumeration.blocker_calls_per_hit"):
        return "ratio"
    return "count"


def steal_s() -> float:
    """Machine-wide CPU time stolen by the hypervisor so far (Linux)."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            ticks = int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return 0.0
    return ticks / os.sysconf("SC_CLK_TCK")


def bench(args) -> tuple[dict, dict]:
    src = ROOT / "src"
    if not (src / "clutters" / "__init__.py").is_file():
        raise Fatal(f"no clutters package under {src}")
    sys.path.insert(0, str(src))
    wl = workloads.WORKLOADS[args.workload]

    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=base)
    try:
        recipe = wl.choose(args.seed)
        setups, setups_cpu = [], []
        meter = Speedometer()
        for _ in range(SETUP_REPEATS):
            with meter:
                c0 = cpu_time()
                pkg = import_fresh()
                wl.generate(recipe, work)
                cpu = cpu_time() - c0
            setups.append(meter.scale(cpu))
            setups_cpu.append(cpu - sum(meter.inner))
        where = Path(pkg.__file__).resolve()
        if src.resolve() not in where.parents:
            raise Fatal(f"clutters imported from {where}, not from {src}")
        commands = wl.plan(recipe, work)
        details: dict = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                         "trace": args.trace, "machine": machine(),
                         "setup_samples_s": setups, "setup_cpu_samples_s": setups_cpu}
        start, steal0 = time.perf_counter(), steal_s()
        loop = Loop(commands)
        if args.trace:
            loop.run(pkg, start + args.seconds / 2, warmup=True)
            tracer = Tracer(clock=cpu_time)
            tracer.install(wanted=_trace_targets())
            traced = Loop(commands, loop.verified)
            try:
                traced.run(pkg, start + args.seconds, tracer)
            finally:
                tracer.uninstall()
            summary = tracer.summary()
            layers = layer_metrics(tracer, summary, traced, loop.first_rss_mb)
            base_u, base_t = Loop.pass_time(loop.scaled), Loop.pass_time(traced.scaled)
            layers["trace.overhead"] = base_t / base_u
            layers["trace.pass_s_traced"] = base_t
            layers["trace.pass_s_untraced"] = base_u
            metrics = {m: {"value": layers[m], "unit": layer_unit(m)} for m in PER_LAYER}
            details.update({
                "absent": tracer.absent, "passes_traced": traced.passes,
                "trace_by_name": summary["by_name"], "trace_by_t": summary["by_t"],
                "trace_by_command": summary["by_command"],
            })
            attempted = loop.attempted + traced.attempted
            failures = loop.failures + traced.failures
            failures += off_cpu_failures((loop, traced), steal_s() - steal0)
        else:
            loop.run(pkg, start + args.seconds, warmup=True, min_passes=min_passes(commands))
            metrics = {
                "setup_s": statistics.median(setups),
                "pass_s": Loop.pass_time(loop.scaled),
                "cmd_p50_s": statistics.median(loop.latencies),
                "cmd_tail_s": tail(loop.latencies),
                "peak_rss_mb": peak_rss_mb(),
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
            raw = [x for xs in loop.cpu.values() for x in xs]
            details.update({
                "tail_percentile": TAIL_PERCENTILE, "latency_samples": len(loop.latencies),
                "unscaled_cpu": {"setup_s": statistics.median(setups_cpu),
                                 "cmd_p50_s": statistics.median(raw),
                                 "cmd_tail_s": tail(raw)},
            })
            attempted = loop.attempted
            failures = loop.failures + off_cpu_failures((loop,), steal_s() - steal0)
        details.update({
            "passes": loop.passes,
            "wall_s": {"value": Loop.pass_time(loop.wall), "unit": "s"},
            "pass_cpu_s": {"value": Loop.pass_time(loop.cpu), "unit": "s"},
            "probe_s": {"median": statistics.median(loop.probes), "min": min(loop.probes),
                        "max": max(loop.probes)},
            "error_rate": {"value": len(failures) / attempted, "unit": "ratio"},
            "steal_s": steal_s() - steal0,
            "failures": failures[:20],
            "per_command_s": loop.scaled,
            "per_command_cpu_s": loop.cpu,
            "per_command_wall_s": loop.wall,
        })
        result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
                  "metrics": metrics}
        return result, details
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _trace_targets() -> list[str]:
    """Functions the per-layer metrics name (`module.function[.method]`)."""
    return sorted({m.rsplit(".", 1)[0] for m in PER_LAYER if "." in m.rsplit(".", 1)[0]})


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    try:
        result, details = bench(args)
    except Fatal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"result": result, "details": details}, indent=1) + "\n")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
