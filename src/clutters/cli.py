"""Command-line interface.

Exit codes are decided in `main` alone, from the exception a command
raises (the package raises `ValueError` only for input it rejects; see
`errors`):

  0  success, every check passed;
  1  `verification failed: ...`: a check failed, or the input is not
     self-dual (`NotSelfDual`) or not star-self-dual (`NotStarSelfDual`);
  2  `error: ...`: any other `ValueError`, i.e. rejected input: an
     unparseable or non-UTF-8 file, a malformed family, a bad flag value
     or combination, an unreadable file or an unwritable `--out`.
     argparse also exits 2 on unknown or missing flags;
  141  the reader closed stdout (a broken pipe, 128 + SIGPIPE); nothing
     is printed.

The message is one stderr line, prefixed with the input file's path when
the command reads one. Any other exception is a defect and keeps its
traceback. All data output is deterministic for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import complexes, enumeration, familyio, identities, kks, sets, vectors
from .errors import InconsistentResult, NotSelfDual, NotStarSelfDual


class VerificationFailure(Exception):
    pass


def _load(path: str) -> familyio.ParsedFamily:
    try:
        return familyio.load_family(path)
    except OSError as exc:
        raise ValueError(f"cannot read: {exc}") from exc


def _family(path: str) -> sets.SetFamily:
    parsed = _load(path)
    if parsed.down_closure:
        return complexes.down_closure(parsed.family()).family
    return parsed.family()


def _clutter(path: str) -> sets.Clutter:
    parsed = _load(path)
    if parsed.down_closure:
        raise ValueError("`closure: down` files hold complexes, not clutters")
    return sets.Clutter(parsed.t, parsed.masks)


def _complex(path: str) -> complexes.Complex:
    parsed = _load(path)
    if parsed.down_closure:
        return complexes.down_closure(parsed.family())
    return complexes.Complex(parsed.family())


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _vec(values) -> str:
    return " ".join(str(v) for v in values)


def _emit_family(args, f: sets.SetFamily) -> int:
    if args.json:
        familyio.write_members_json({"t": f.t}, f, sys.stdout)
    else:
        print(familyio.format_family(f), end="")
    return 0


def cmd_blocker(args) -> int:
    return _emit_family(args, sets.blocker(_clutter(args.file)))


def cmd_star(args) -> int:
    return _emit_family(args, sets.star(_family(args.file)))


def cmd_upset(args) -> int:
    up = sets.up_closure(_family(args.file))
    fv = vectors.f_vector(up)
    if args.json:
        out = {"t": up.t, "count": len(up), "f": list(fv.counts)}
        if args.list:
            familyio.write_members_json(out, up, sys.stdout)
        else:
            _emit_json(out)
    elif args.list:
        print(familyio.format_family(up), end="")
    else:
        print(f"t: {up.t}")
        print(f"count: {len(up)}")
        print(f"f: {_vec(fv.counts)}")
    return 0


def _vector_family(args) -> sets.SetFamily:
    fam = _family(args.file)
    return sets.up_closure(fam) if args.upset else fam


def cmd_fvector(args) -> int:
    fv = vectors.f_vector(_vector_family(args))
    if args.json:
        _emit_json({"t": fv.t, "f": list(fv.counts)})
    else:
        print(_vec(fv.counts))
    return 0


def cmd_hvector(args) -> int:
    hv = vectors.h_vector(_vector_family(args))
    if args.json:
        _emit_json({"t": hv.t, "h": list(hv.values)})
    else:
        print(_vec(hv.values))
    return 0


def cmd_check(args) -> int:
    cl = _clutter(args.file)
    self_dual = sets.is_self_dual(cl)
    criterion = sets.self_dual_criterion(cl)
    # self-duality forces the cardinality criterion; the converse is false
    if self_dual and not criterion:
        raise InconsistentResult("self-dual clutter with an up-set count other than 2^(t-1)")
    count = cl.upset_bitmap.bit_count()
    report = identities.family_report(cl)
    report["self_dual"] = self_dual
    report["criterion"] = criterion
    report["upset_count"] = count
    if args.json:
        _emit_json(report)
    else:
        rel = "=" if criterion else "!="
        print(f"self_dual: {str(self_dual).lower()}, #upset: {count} {rel} 2^{cl.t - 1}")
        shown = ("eq22", "remark_iii", "remark_iv", "eq19")
        verdicts = ", ".join(
            f"{k} {'pass' if report['identities'][k] else 'fail'}" for k in shown
        )
        print(f"identities: {verdicts}")
    if not all(report["identities"].values()):
        raise VerificationFailure("identity checks failed")
    return 0


def cmd_bounds(args) -> int:
    table = kks.theorem3_table(args.t)
    if args.json:
        _emit_json(
            {
                "t": table.t,
                "rows": [
                    {"k": r.k, "exact": r.exact, "lower": r.lower, "upper": r.upper}
                    for r in table.rows
                ],
            }
        )
    else:
        print(f"t: {table.t}")
        print(f"{'k':>3} {'kind':>6} {'exact':>8} {'lower':>8} {'upper':>8}")
        for r in table.rows:
            exact = str(r.exact) if r.exact is not None else "-"
            print(f"{r.k:>3} {r.kind:>6} {exact:>8} {r.lower:>8} {r.upper:>8}")
        t, m = table.t, (table.t + 1) // 2
        pairs = "; ".join(
            f"f_{m - off}+f_{t - m + off} = {want}" for off, want in table.pair_sums
        )
        print(f"pair sums: {pairs or 'none'}")
    return 0


def _emit_verify_report(args, report: dict, label: str) -> int:
    if args.json:
        _emit_json(report)
    else:
        print(f"{label}: true")
        print(f"f: {_vec(report['f'])}")
        print(f"{'k':>3} {'kind':>6} {'bound':>8} {'value':>8} {'slack':>8}  ok")
        for row in report["rows"]:
            print(
                f"{row['k']:>3} {row['kind']:>6} {row['bound']:>8} {row['value']:>8}"
                f" {row['slack']:>8}  {'yes' if row['ok'] else 'NO'}"
            )
        for pair in report["pair_sums"]:
            verdict = "yes" if pair["ok"] else "NO"
            print(
                f"pair offset {pair['offset']}: {pair['actual']} expected"
                f" {pair['expected']}  {verdict}"
            )
        print("result: " + ("PASS" if report["pass"] else "FAIL"))
    if not report["pass"]:
        raise VerificationFailure("bound violated")
    return 0


def cmd_verify_theorem3(args) -> int:
    return _emit_verify_report(args, kks.verify_theorem3(_clutter(args.file)), "self_dual")


def cmd_verify_lemma2(args) -> int:
    return _emit_verify_report(args, kks.verify_lemma2(_complex(args.file)), "star_self_dual")


def _aggregate_checks(reports: list[dict]) -> dict[str, str]:
    names = list(reports[0]["checks"])
    out = {}
    for name in names:
        verdicts = [r["checks"][name] for r in reports]
        failing = next((v for v in verdicts if v.startswith("fail")), None)
        if failing:
            out[name] = failing
        elif all(v == "n/a" for v in verdicts):
            out[name] = "n/a"
        else:
            out[name] = "pass"
    return out


def cmd_identities(args) -> int:
    if args.random:
        if args.file:
            raise ValueError("give a family file or --random, not both")
        if args.t is None:
            raise ValueError("--random requires --t")
        n = 1 if args.n is None else args.n
        seed = 0 if args.seed is None else args.seed
        if n < 1:
            raise ValueError(f"--n must be at least 1, got {n}")
        reports = []
        for i in range(n):
            fam = identities.random_star_selfdual(args.t, seed + i)
            reports.append(identities.check_appendix(fam))
        checks = _aggregate_checks(reports)
        ok = all(v in ("pass", "n/a") for v in checks.values())
        payload = {"t": args.t, "n": n, "seed": seed, "checks": checks}
        header = f"t: {args.t}  n: {n}  seed: {seed}"
    else:
        if not args.file:
            raise ValueError("need a family file or --random")
        for flag in ("t", "n", "seed"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag} requires --random")
        report = identities.check_appendix(_family(args.file))
        checks = report["checks"]
        ok = report["pass"]
        payload = {"t": report["t"], "checks": checks}
        header = f"t: {report['t']}"
    if args.json:
        _emit_json(payload)
    else:
        print(header)
        for name, verdict in checks.items():
            print(f"{name}: {verdict}")
        print("result: " + ("PASS" if ok else "FAIL"))
    if not ok:
        raise VerificationFailure("identity checks failed")
    return 0


def cmd_enumerate(args) -> int:
    res = enumeration.enumerate_self_dual(args.t)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                for i, (keys, _) in enumerate(res.chunks()):
                    if i:
                        fh.write("---\n")
                    fh.write(familyio.format_families(keys, res.t))
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc}") from exc
    summary = f"t={res.t} count={res.count}"
    ok = True
    if args.verify:
        ok = enumeration.verify_universe(res)["pass"]
        summary += f" verified={'pass' if ok else 'fail'}"
    print(summary)
    if not ok:
        raise VerificationFailure("universe verification failed")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clutters",
        description="Exact computations on clutters, blockers and their vectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("blocker", cmd_blocker, help="blocker of a clutter file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = add("star", cmd_star, help="star of a family file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = add("upset", cmd_upset, help="increasing family generated by a file's sets")
    p.add_argument("file")
    p.add_argument("--list", action="store_true", help="print all members")
    p.add_argument("--json", action="store_true")

    p = add("fvector", cmd_fvector, help="long f-vector of a family file")
    p.add_argument("file")
    p.add_argument("--upset", action="store_true", help="of the generated up-family")
    p.add_argument("--json", action="store_true")

    p = add("hvector", cmd_hvector, help="long h-vector of a family file")
    p.add_argument("file")
    p.add_argument("--upset", action="store_true", help="of the generated up-family")
    p.add_argument("--json", action="store_true")

    p = add("check", cmd_check, help="self-duality certificate for a clutter file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = add("bounds", cmd_bounds, help="bound table for self-dual up-families")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = add("verify-theorem3", cmd_verify_theorem3,
            help="check a self-dual clutter's up-family against the bounds")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = add("verify-lemma2", cmd_verify_lemma2,
            help="check a star-self-dual complex against the bounds")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = add("identities", cmd_identities, help="identity suite for families with F* = F")
    p.add_argument("file", nargs="?")
    p.add_argument("--random", action="store_true")
    p.add_argument("--t", type=int)
    p.add_argument("--n", type=int)  # with --random only; 1 if not given
    p.add_argument("--seed", type=int)  # with --random only; 0 if not given
    p.add_argument("--json", action="store_true")

    p = add("enumerate", cmd_enumerate, help="all self-dual clutters on E_t")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--out")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    where = f"{args.file}: " if getattr(args, "file", None) else ""
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; let that succeed
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (VerificationFailure, NotSelfDual, NotStarSelfDual) as exc:
        print(f"verification failed: {where}{exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {where}{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
