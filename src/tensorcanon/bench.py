"""Benchmark families and the timing harness.

Each family generates monomials through the expression frontend, so a
benchmark case is exactly what a user would type.  Cases are
deterministic in (family, size, trial): the PRNG is ``random.Random``
(Mersenne Twister) seeded per case.

Families, parameterized by size k:

* ``sym-frees``      — one totally symmetric rank-k tensor with
                       shuffled free indices;
* ``nosym-dummies``  — one rank-2k tensor with no symmetry and k dummy
                       pairs wired at random;
* ``cyclic-dummies`` — two rank-k cyclically symmetric tensors, the k
                       dummies contracted between them at random;
* ``riemann``        — k factors with Riemann-tensor slot symmetries,
                       all 4k slots contracted by a uniformly random
                       perfect matching with random leg orientation;
* ``totalsym-frustrated`` / ``totalsym-random`` — two totally symmetric
                       rank-k tensors, contracted pairwise in a fixed
                       shuffled wiring (frustrated) or by a random
                       matching over all slots (random);
* ``pairwise-frustrated`` / ``pairwise-random`` — the same wirings but
                       with the weaker pairwise symmetry
                       +(1,3)(2,4), +(3,5)(4,6), ... on each factor;
* ``totalsym-many``  — k totally symmetric rank-4 factors, all 4k slots
                       contracted by a random perfect matching.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

from .canon_baseline import LabelBsgs, butler_portugal
from .frontend import Registry, parse, build_problem, render, factor_text

FAMILIES = [
    "sym-frees",
    "nosym-dummies",
    "cyclic-dummies",
    "riemann",
    "totalsym-frustrated",
    "totalsym-random",
    "pairwise-frustrated",
    "pairwise-random",
    "totalsym-many",
]

CSV_COLUMNS = ["family", "n", "trial", "seed", "engine", "is_zero", "result_digest", "elapsed_us", "max_configs"]


@dataclass
class BenchCase:
    family: str
    size: int
    trial: int
    seed: int
    expression: str
    declarations: str
    registry: Registry
    monomial: object
    problem: object


def _names(count, prefix="x"):
    width = len(str(count))
    return [f"{prefix}{i:0{width}d}" for i in range(1, count + 1)]


def _pairwise_gens_text(k):
    cycles = []
    for j in range(1, k - 2, 2):
        cycles.append(f"+({j},{j + 2})({j + 1},{j + 3})")
    return ",".join(cycles)


def _matched_expression(rng, ranks, matching_slots=None):
    """Contract the slots of len(ranks) factors by a random perfect matching.

    Returns one (name, variance) token per global slot, variance ``"d"``
    or ``"u"``, for :func:`~tensorcanon.frontend.factor_text`.
    ``matching_slots`` restricts the matching to a precomputed list of
    (slot, slot) global pairs.
    """
    total = sum(ranks)
    if matching_slots is None:
        slots = list(range(total))
        rng.shuffle(slots)
        matching_slots = [(slots[2 * i], slots[2 * i + 1]) for i in range(total // 2)]
    names = _names(total // 2, "d")
    tokens = [None] * total
    for name, (a, b) in zip(names, matching_slots):
        if rng.random() < 0.5:
            a, b = b, a
        tokens[a] = (name, "d")
        tokens[b] = (name, "u")
    return tokens


def generate(family, size, trial=0):
    """Build one deterministic benchmark case."""
    seed = int.from_bytes(hashlib.sha256(f"{family}/{size}/{trial}".encode()).digest()[:4], "big")
    rng = random.Random(seed)
    k = size
    if family == "sym-frees":
        decls = f"tensor T rank={k} sym=1..{k}"
        names = _names(k, "f")
        rng.shuffle(names)
        expr = factor_text("T", [(name, "d") for name in names])
    elif family == "nosym-dummies":
        decls = f"tensor T rank={2 * k}"
        tokens = _matched_expression(rng, [2 * k])
        expr = factor_text("T", tokens)
    elif family == "cyclic-dummies":
        cyc = "+(" + ",".join(str(i) for i in range(1, k + 1)) + ")"
        decls = f'tensor T rank={k} gens="{cyc}"\ntensor U rank={k} gens="{cyc}"'
        names = _names(k, "d")
        pi1 = list(names)
        pi2 = list(names)
        rng.shuffle(pi1)
        rng.shuffle(pi2)
        expr = factor_text("T", [(d, "d") for d in pi1]) + " " + factor_text("U", [(d, "u") for d in pi2])
    elif family in ("riemann", "totalsym-many"):
        if family == "riemann":
            name, decls = "R", 'tensor R rank=4 gens="-(1,2),+(1,3)(2,4),-(3,4)"'
        else:
            name, decls = "T", "tensor T rank=4 sym=1..4"
        tokens = _matched_expression(rng, [4] * k)
        parts = [factor_text(name, tokens[4 * i : 4 * i + 4]) for i in range(k)]
        expr = " ".join(parts)
    elif family in ("totalsym-frustrated", "totalsym-random", "pairwise-frustrated", "pairwise-random"):
        if family.startswith("totalsym"):
            decls = f"tensor T rank={k} sym=1..{k}\ntensor U rank={k} sym=1..{k}"
        else:
            gens = _pairwise_gens_text(k)
            gopt = f' gens="{gens}"' if gens else ""
            decls = f"tensor T rank={k}{gopt}\ntensor U rank={k}{gopt}"
        if family.endswith("frustrated"):
            # every dummy has one leg on each factor, in shuffled order
            pi1 = list(range(k))
            pi2 = list(range(k))
            rng.shuffle(pi1)
            rng.shuffle(pi2)
            matching = [(pi1[i], k + pi2[i]) for i in range(k)]
            tokens = _matched_expression(rng, [k, k], matching_slots=matching)
        else:
            tokens = _matched_expression(rng, [k, k])
        expr = factor_text("T", tokens[:k]) + " " + factor_text("U", tokens[k:])
    else:
        raise ValueError(f"unknown family {family!r}")
    registry = Registry()
    registry.declare_all(decls)
    monomial = parse(expr, registry)
    problem = build_problem(monomial, registry)
    return BenchCase(family, size, trial, seed, expr, decls, registry, monomial, problem)


# The largest budget :func:`budget` takes (about 31 years);
# signal.setitimer raises OverflowError at 1e10 s (Linux, Python 3.11).
MAX_BUDGET_S = 1e9


@contextmanager
def budget(seconds):
    """Raise :class:`TimeoutError` in the body after ``seconds`` of wall time
    (``SIGALRM``, Unix), and again every 10 ms until the body ends;
    ``None`` sets no timer, a budget <= 0 raises at once.
    ``seconds`` must not exceed ``MAX_BUDGET_S``."""
    if seconds is None:
        yield
        return
    if seconds <= 0:
        raise TimeoutError(f"time budget {seconds}s is spent")

    def expire(signum, frame):
        raise TimeoutError(f"over the {seconds}s time budget")

    previous = signal.signal(signal.SIGALRM, expire)
    # Python drops an exception raised in a finalizer (say a __del__ the
    # cyclic gc runs), so the timer repeats until the finally disarms it.
    signal.setitimer(signal.ITIMER_REAL, seconds, min(seconds, 0.01))
    try:
        yield
    finally:
        try:
            signal.setitimer(signal.ITIMER_REAL, 0)
        finally:
            signal.signal(signal.SIGALRM, previous)


def run_case(case, engine, time_budget=None):
    """Time one engine on one case; returns (CSV row dict, result).

    The engine runs inside ``budget(time_budget)``; ``elapsed_us`` times it alone.
    """
    problem = case.problem
    trace = {}
    if engine not in ("fast", "baseline"):
        raise ValueError(f"unknown engine {engine!r}")
    L = LabelBsgs.from_classes(problem.classes) if engine == "baseline" else None
    with budget(time_budget):
        t0 = time.perf_counter()
        if L is None:
            result = problem.canonicalize(trace=trace)
        else:
            result = butler_portugal(problem.g_init, problem.S, L, trace=trace)
        elapsed = time.perf_counter() - t0
    return {
        "family": case.family,
        "n": case.problem.n,
        "trial": case.trial,
        "seed": case.seed,
        "engine": engine,
        "is_zero": int(result.is_zero),
        "result_digest": result_digest(result, case),
        "elapsed_us": int(elapsed * 1e6),
        "max_configs": trace.get("max_configs", 1),
    }, result


def result_digest(result, case):
    text = render(result, case.monomial, case.registry)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def oracle_result(case, cap=10**6):
    """Brute-force result, or None when the groups are too big."""
    from .oracle import enumerate_group, enumerate_label_group, brute_force_canonicalize  # loads numpy

    problem = case.problem
    try:
        S_enum = enumerate_group(problem.S, cap=cap)
        L_enum = enumerate_label_group(problem.classes, problem.n, cap=max(1, cap // max(1, len(S_enum))))
    except ValueError:
        return None
    return brute_force_canonicalize(problem.g_init, S_enum, L_enum)


# Engine times below this are mostly interpreter and timer noise: a fit
# over 50-500 us timings gives exponents that change sign between runs.
FIT_FLOOR_S = 0.01


def _fitted(sizes, times):
    """The (size, time) points a fit uses: the largest half of the sizes."""
    pts = sorted(zip(sizes, times))
    return pts[len(pts) // 2 :]


def fit_exponent(sizes, times):
    """Least-squares slope of log(time) vs log(size), largest half of
    sizes; NaN when that half has fewer than two distinct sizes."""
    half = _fitted(sizes, times)
    if len({size for size, _ in half}) < 2:
        return float("nan")
    xs = [math.log(p[0]) for p in half]
    ys = [math.log(max(p[1], 1e-9)) for p in half]
    return statistics.linear_regression(xs, ys).slope


def run_bench(families, sizes, trials, engines, out, time_budget=10.0):
    """Run the benchmark grid and write CSV rows to the stream ``out``.

    ``time_budget`` seconds (None: no limit) bound each size's set-up,
    all trials' :func:`generate` together, and each engine run.  An
    engine that overruns on a size is aborted and skipped for larger
    sizes of that family; a set-up overrun, or no engine left, ends the
    family.  Returns the finite fitted (family, engine) engine-time
    scaling exponents, each only when every worst time it fits is at
    least ``FIT_FLOOR_S``.
    """
    out.write("# tensor-monomial canonicalization benchmark\n")
    out.write("# prng: python random.Random (Mersenne Twister), seed = sha256(family/size/trial)[:4]\n")
    out.write("# riemann contraction: uniform random perfect matching over all slots, leg orientation uniform per pair\n")
    writer = csv.DictWriter(out, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    series = {}  # (family, engine) -> {size: worst engine seconds}
    for family in families:
        live = list(engines)
        for size in sizes:
            if not live:
                break
            try:
                with budget(time_budget):
                    cases = [generate(family, size, t) for t in range(trials)]
            except TimeoutError:
                print(f"# {family}: set-up over {time_budget:g}s at size {size}, skipping larger sizes", file=sys.stderr)
                break
            for engine in list(live):
                worst = 0.0
                try:
                    for case in cases:
                        row, _ = run_case(case, engine, time_budget=time_budget)
                        writer.writerow(row)
                        worst = max(worst, row["elapsed_us"] / 1e6)
                except TimeoutError:
                    live.remove(engine)
                    print(f"# {family}/{engine}: over {time_budget:g}s at size {size}, skipping larger sizes", file=sys.stderr)
                    continue
                series.setdefault((family, engine), {})[size] = worst
    exponents = {}
    for key, worst in series.items():
        if all(t >= FIT_FLOOR_S for _, t in _fitted(worst, worst.values())):
            exponents[key] = fit_exponent(list(worst), list(worst.values()))
    return {key: e for key, e in exponents.items() if math.isfinite(e)}
