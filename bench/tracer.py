"""Span tracer that wraps `clutters` functions from outside the package.

A wrapped function records one span per call: name, ground-set size of
its first argument (when it has an int `t`), start, end, parent span and
the command being run. Spans stay in memory; `summary()` turns them into
per-function self time (duration minus the time its child spans cover)
and counts when the run ends.

Wrapping replaces the defining module's attribute and every module
attribute that holds the same function object, so a name imported
elsewhere (`from .sets import blocker`) is traced too. Methods are
wrapped on their class. A target that no longer exists is reported as
absent, not as an error.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from collections import defaultdict

# Per-element helpers called millions of times; a span costs as much as
# their body, so their time stays in the caller's self time.
SKIP = {
    "sets.mask_of", "sets.elements_of", "sets.full_mask", "sets.check_ground_set",
    "sets.check_dense", "sets.complement_set", "sets.require_nontrivial",
    "vectors.binom",
}

# Methods traced besides the public module functions; `init` is the
# dataclass validation hook `__post_init__`.
METHODS = (
    "sets.SetFamily.init",
    "sets.Clutter.init",
    "sets.UpFamily.family",
    "identities.StarSelfDualFamily.init",
    "complexes.Complex.init",
)

# stat name -> function(result, args) giving the count recorded per call
STATS = {
    "sets.blocker": ("members_out", lambda res, args: len(res)),
    "sets.UpFamily.family": ("members", lambda res, args: len(res)),
    "sets.SetFamily.init": ("members", lambda res, args: len(args[0].members)),
    "familyio.parse_family": ("sets", lambda res, args: len(res.masks)),
    "enumeration.enumerate_self_dual": ("hits", lambda res, args: res.count),
}


def _ground_of(fn):
    """Function giving the ground-set size of a call: the first argument
    when that parameter is named `t`, else the first argument's int `t`
    attribute, else -1."""
    params = list(inspect.signature(fn).parameters)
    if params and params[0] == "t":
        return lambda args: args[0] if args and isinstance(args[0], int) else -1

    def ground(args):
        t = getattr(args[0], "t", None) if args else None
        return t if isinstance(t, int) else -1
    return ground


class Tracer:
    def __init__(self, package: str = "clutters", clock=time.perf_counter):
        self.package = package
        self.clock = clock
        self.spans: list[list] = []  # [name, t, start, end, parent, command]
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.command = ""
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        stat = STATS.get(name)
        clock = self.clock
        ground = _ground_of(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, ground(args), 0.0, 0.0, stack[-1] if stack else -1, self.command]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if stat is not None:
                self.counts[(name, stat[0])] += stat[1](result, args)
            return result

        return traced

    def _modules(self) -> list[types.ModuleType]:
        return [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == self.package or k.startswith(self.package + "."))]

    def targets(self) -> list[str]:
        """Public functions defined in each package module, plus METHODS."""
        names = []
        for mod in self._modules():
            short = mod.__name__[len(self.package) + 1:]
            if not short:
                continue
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                name = f"{short}.{attr}"
                if name not in SKIP:
                    names.append(name)
        return sorted(names) + list(METHODS)

    def install(self, wanted=()) -> None:
        """Wrap every target; names in `wanted` that cannot be found are
        recorded in `absent`."""
        mods = self._modules()
        by_short = {m.__name__[len(self.package) + 1:]: m for m in mods}
        found = set()
        for name in self.targets():
            mod_name, *path = name.split(".")
            obj = by_short.get(mod_name)
            for part in path[:-1]:
                obj = getattr(obj, part, None)
            attr = "__post_init__" if path[-1] == "init" else path[-1]
            if isinstance(obj, type):
                fn = obj.__dict__.get(attr)  # defined on this class, not inherited
                if not inspect.isfunction(fn):
                    continue
                wrapper = self._wrap(name, fn)
                self._undo.append((obj, attr, fn))
                setattr(obj, attr, wrapper)
            elif obj is not None:
                fn = getattr(obj, attr, None)
                if not inspect.isfunction(fn):
                    continue
                wrapper = self._wrap(name, fn)
                for mod in mods:
                    for key, val in list(vars(mod).items()):
                        if val is fn:
                            self._undo.append((mod, key, fn))
                            setattr(mod, key, wrapper)
            else:
                continue
            found.add(name)
        self.absent = sorted(set(wanted) - found)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    # ------------------------------------------------------------ summary

    def summary(self) -> dict:
        """Aggregate the spans: per name, per (name, t) and per
        (command, name) self time, inclusive time and call counts."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[4] >= 0:
                child[s[4]] += s[3] - s[2]
        by_name: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        by_t: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        by_cmd: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for i, (name, t, start, end, _parent, cmd) in enumerate(spans):
            dur = end - start
            own = dur - child[i]
            for agg in (by_name[name], by_t[f"{name}@t{t}"]):
                agg["calls"] += 1
                agg["self_s"] += own
                agg["total_s"] += dur
            c = by_cmd[f"{cmd} :: {name}"]
            c["calls"] += 1
            c["self_s"] += own
        return {"by_name": dict(by_name), "by_t": dict(by_t), "by_command": dict(by_cmd),
                "counts": {f"{n}.{s}": v for (n, s), v in self.counts.items()}}

    def under(self, name: str, ancestors: tuple[str, ...], t: int | None = None) -> list:
        """Spans of `name` made (transitively) inside a span named in
        `ancestors`, restricted to ancestors of ground-set size `t`."""
        spans = self.spans
        out = []
        for s in spans:
            if s[0] != name:
                continue
            p = s[4]
            while p >= 0:
                a = spans[p]
                if a[0] in ancestors and (t is None or a[1] == t):
                    out.append(s)
                    break
                p = a[4]
        return out
