"""Command line interface.

Subcommands::

    tensorcanon canon --decls FILE [--engine fast|baseline|both] EXPR...
    tensorcanon bench --families LIST --sizes LIST [--trials N]
                      [--engines LIST] [--out FILE] [--time-budget SECONDS]
    tensorcanon oracle-check --families LIST [--max-slots K] [--trials N]
                             [--sizes LIST] [--cap N]

Bad declarations or expressions print one ``error: ...`` line on stderr
and exit with status 2.
"""

from __future__ import annotations

import argparse
import sys

from .bench import FAMILIES, generate, run_bench, run_case, oracle_result
from .canon_baseline import butler_portugal
from .frontend import FrontendError, Registry, parse, build_problem, render


def _cmd_canon(args):
    registry = Registry()
    if args.decls:
        with open(args.decls) as f:
            registry.declare_all(f.read())
    if args.declare:
        for line in args.declare:
            registry.declare(line)
    status = 0
    for expr in args.expressions:
        monomial = parse(expr, registry)
        problem = build_problem(monomial, registry)
        outputs = {}
        if args.engine in ("fast", "both"):
            outputs["fast"] = render(problem.canonicalize(), monomial, registry)
        if args.engine in ("baseline", "both"):
            result = butler_portugal(problem.g_init, problem.S, problem.label_bsgs())
            outputs["baseline"] = render(result, monomial, registry)
        if args.engine == "both" and outputs["fast"] != outputs["baseline"]:
            print(f"ENGINE MISMATCH on {expr!r}: fast={outputs['fast']} baseline={outputs['baseline']}", file=sys.stderr)
            status = 1
        print(next(iter(outputs.values())))
    return status


def _parse_list(text, cast=str):
    return [cast(t) for t in text.split(",") if t]


def _cmd_bench(args):
    families = _parse_list(args.families) if args.families != "all" else list(FAMILIES)
    for f in families:
        if f not in FAMILIES:
            print(f"unknown family {f!r}; known: {', '.join(FAMILIES)}", file=sys.stderr)
            return 2
    sizes = _parse_list(args.sizes, int)
    engines = _parse_list(args.engines)
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        exponents = run_bench(families, sizes, args.trials, engines, out, time_budget=args.time_budget)
    finally:
        if args.out:
            out.close()
    for (family, engine), exp in sorted(exponents.items()):
        print(f"# fit {family}/{engine}: O(n^{exp:.2f})", file=sys.stderr)
    return 0


def _cmd_oracle_check(args):
    families = _parse_list(args.families) if args.families != "all" else list(FAMILIES)
    sizes = _parse_list(args.sizes, int)
    mismatches = 0
    checked = 0
    for family in families:
        for size in sizes:
            for trial in range(args.trials):
                case = generate(family, size, trial)
                if case.problem.n > args.max_slots:
                    continue
                expected = oracle_result(case, cap=args.cap)
                if expected is None:
                    continue
                checked += 1
                for engine in ("fast", "baseline"):
                    _, result = run_case(case, engine)
                    if result != expected:
                        mismatches += 1
                        print(
                            f"MISMATCH {family} size={size} trial={trial} engine={engine}: "
                            f"{result!r} != oracle {expected!r}\n  expr: {case.expression}",
                        )
    print(f"checked {checked} instances, {mismatches} mismatches")
    return 1 if mismatches else 0


def main(argv=None):
    top = argparse.ArgumentParser(prog="tensorcanon")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("canon", help="canonicalize expressions")
    p.add_argument("--decls", help="file of tensor/bundle declarations")
    p.add_argument("--declare", action="append", help="inline declaration (repeatable)")
    p.add_argument("--engine", choices=["fast", "baseline", "both"], default="fast")
    p.add_argument("expressions", nargs="+")
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("bench", help="run benchmark families")
    p.add_argument("--families", default="all")
    p.add_argument("--sizes", required=True, help="comma-separated sizes")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--engines", default="fast,baseline")
    p.add_argument("--out", help="CSV output file (default stdout)")
    p.add_argument("--time-budget", type=float, default=10.0)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("oracle-check", help="cross-check engines against brute force")
    p.add_argument("--families", default="all")
    p.add_argument("--sizes", default="1,2,3")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--max-slots", type=int, default=10)
    p.add_argument("--cap", type=int, default=10**6)
    p.set_defaults(func=_cmd_oracle_check)

    args = top.parse_args(argv)
    try:
        return args.func(args)
    except FrontendError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
