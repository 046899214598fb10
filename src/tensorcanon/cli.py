"""Command line interface.

Subcommands::

    tensorcanon canon [--decls FILE] [--declare LINE]... [--engine fast|baseline|both] EXPR...
    tensorcanon bench --families LIST --sizes LIST [--trials N]
                      [--engines LIST] [--out FILE] [--time-budget SECONDS]
    tensorcanon oracle-check --families LIST [--trials N] [--sizes LIST] [--cap N]

Bad declarations, expressions or arguments print one ``error: ...``
line on stderr and exit with status 2, and so does an ``oracle-check``
that checked no instance because every case's slot group has more than
``--cap`` elements.
"""

from __future__ import annotations

import argparse
import sys

# bench and canon_baseline load on use, so that ``canon`` starts without them
from .frontend import FrontendError, Registry, parse, build_problem, render


def _cmd_canon(args):
    registry = Registry()
    if args.decls:
        try:
            with open(args.decls) as f:
                text = f.read()
        except OSError as exc:
            raise UsageError(f"--decls: cannot read {args.decls!r}: {exc.strerror}") from None
        registry.declare_all(text)
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
            from .canon_baseline import butler_portugal

            result = butler_portugal(problem.g_init, problem.S, problem.classes)
            outputs["baseline"] = render(result, monomial, registry)
        if args.engine == "both" and outputs["fast"] != outputs["baseline"]:
            print(f"ENGINE MISMATCH on {expr!r}: fast={outputs['fast']} baseline={outputs['baseline']}", file=sys.stderr)
            status = 1
        print(next(iter(outputs.values())))
    return status


class UsageError(Exception):
    """A command-line argument the subcommand cannot use."""


def _parse_list(option, text, cast=str, known=None):
    """The comma-separated items of ``text``, given to ``option``; at least one."""
    items = []
    for t in text.split(","):
        if not t:
            continue
        try:
            item = cast(t)
        except ValueError:
            raise UsageError(f"{option}: bad item {t!r}") from None
        if known is not None and item not in known:
            raise UsageError(f"{option}: unknown {t!r}; known: {', '.join(known)}")
        items.append(item)
    if not items:
        raise UsageError(f"{option}: no items")
    return items


def _positive(option, value):
    """``value``, which ``option`` needs to be positive."""
    if not value > 0:
        raise UsageError(f"{option}: must be positive, got {value:g}")
    return value


def _sizes(text):
    return [_positive("--sizes", size) for size in _parse_list("--sizes", text, int)]


def _families(text):
    from .bench import FAMILIES

    return list(FAMILIES) if text == "all" else _parse_list("--families", text, known=FAMILIES)


def _cmd_bench(args):
    from .bench import MAX_BUDGET_S, run_bench

    families = _families(args.families)
    sizes = _sizes(args.sizes)
    engines = _parse_list("--engines", args.engines, known=("fast", "baseline"))
    _positive("--trials", args.trials)
    _positive("--time-budget", args.time_budget)
    if not args.time_budget <= MAX_BUDGET_S:
        raise UsageError(f"--time-budget: must be at most {MAX_BUDGET_S:g}, got {args.time_budget:g}")
    try:
        out = open(args.out, "w", newline="") if args.out else sys.stdout
    except OSError as exc:
        raise UsageError(f"--out: cannot write {args.out!r}: {exc.strerror}") from None
    try:
        exponents = run_bench(families, sizes, args.trials, engines, out, time_budget=args.time_budget)
    finally:
        if args.out:
            out.close()
    for (family, engine), exp in sorted(exponents.items()):
        print(f"# fit {family}/{engine}: O(n^{exp:.2f})", file=sys.stderr)
    return 0


def _cmd_oracle_check(args):
    from .bench import generate, oracle_result, run_case

    families = _families(args.families)
    sizes = _sizes(args.sizes)
    _positive("--trials", args.trials)
    _positive("--cap", args.cap)
    mismatches = 0
    checked = 0
    for family in families:
        for size in sizes:
            for trial in range(args.trials):
                case = generate(family, size, trial)
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
    if not checked:
        raise UsageError(f"no instance checked: every case is over --cap {args.cap}")
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
    p.add_argument("--cap", type=int, default=10**6)
    p.set_defaults(func=_cmd_oracle_check)

    args = top.parse_args(argv)
    try:
        return args.func(args)
    except (FrontendError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
