"""End-to-end acceptance checks.

Each test here pins one of the headline guarantees of the package:
exact golden outputs, data-structure contents, bulk agreement with the
brute-force oracle, the factorial-vs-polynomial search separation, and
the qualitative scaling behavior of the benchmark families.
"""

import csv
import io
import random
import statistics
import time

from tensorcanon import canon_fast
from tensorcanon.bench import (
    FAMILIES,
    fit_exponent,
    generate,
    oracle_result,
    run_bench,
    run_case,
)
from tensorcanon.canon_baseline import LabelBsgs, butler_portugal
from tensorcanon.frontend import Registry, parse, build_problem, render
from tensorcanon.label_context import GroupCode, IndexClass, build, update_context
from tensorcanon.perm_group import schreier_sims, detect_symmetric_subsets
from tensorcanon.signed_perm import compose, from_signed_cycles, identity

from perm_text import parse_array


def canon_both(decls, expr):
    """Canonical text from both engines; they must agree."""
    reg = Registry()
    reg.declare_all(decls)
    mono = parse(expr, reg)
    prob = build_problem(mono, reg)
    fast = render(prob.canonicalize(), mono, reg)
    base = render(butler_portugal(prob.g_init, prob.S, LabelBsgs.from_classes(prob.classes)), mono, reg)
    assert fast == base, (expr, fast, base)
    return fast


def make_problem(decls, expr):
    reg = Registry()
    reg.declare_all(decls)
    mono = parse(expr, reg)
    return build_problem(mono, reg)


# 1. golden worked examples, exact text, both engines


def test_golden_worked_examples():
    assert canon_both(
        "tensor T rank=6 sym=3..6\ntensor U rank=6",
        "T_{a b c d e f} U^{e d f c g h}",
    ) == "T_{a b c d e f} U^{c d e f g h}"
    assert canon_both(
        'tensor T rank=3 gens="+(1,2,3)"\ntensor U rank=3 gens="+(1,2,3)"',
        "T_{c b}^{c} U^{b a}_{a}",
    ) == "T_{a}^{a}_{b} U^{b c}_{c}"
    assert canon_both(
        'tensor T rank=6 sym=3..6\ntensor R rank=4 gens="-(1,2),+(1,3)(2,4),-(3,4)"',
        "T_{a b c d e f} R^{c d}_{g h}",
    ) == "0"
    assert canon_both("tensor A rank=2 asym=1..2", "A_{1 1}") == "0"
    assert canon_both("tensor A rank=2 asym=1..2", "A_{2 1}") == "-A_{1 2}"
    assert canon_both(
        "tensor M rank=2 sym=1..2\ntensor A rank=2 asym=1..2", "M^{a b} A_{a b}"
    ) == "0"


# 2. data-structure goldens


def test_golden_label_context_arrays():
    F, C, S = GroupCode.NONE, GroupCode.COMPONENT, GroupCode.S_DUMMY
    L, U = GroupCode.L_DUMMY, GroupCode.U_DUMMY
    # repeated component pair plus one metric dummy pair
    ctx = build([
        IndexClass("free", 2),
        IndexClass("component", 2),
        IndexClass("dummy", 1, metric="symmetric"),
    ])
    assert ctx.values[1:] == [1, 2, 3, 3, 5, 5]
    assert ctx.groups[1:] == [F, F, C, C, S, S]
    # four frees and four metric pairs
    ctx = build([IndexClass("free", 4), IndexClass("dummy", 4, metric="symmetric")])
    assert ctx.values[1:] == [1, 2, 3, 4] + [5] * 8
    assert ctx.groups[1:] == [F] * 4 + [S] * 8
    # the same labels without a metric: legs split into lower/upper groups
    ctx = build([IndexClass("free", 4), IndexClass("dummy", 4, metric="none")])
    assert ctx.values[1:] == [1, 2, 3, 4, 5, 6, 5, 6, 5, 6, 5, 6]
    assert ctx.groups[1:] == [F] * 4 + [L, U, L, U, L, U, L, U]


def test_golden_symmetric_subsets_arrays():
    prob = make_problem("tensor T rank=6 sym=3..6", "T_{a b c d e f}")
    assert prob.subsets[1:] == [0, 0, 1, 1, 1, 1]
    prob = make_problem(
        'tensor R rank=4 gens="-(1,2),+(1,3)(2,4),-(3,4)"', "R_{a b c d}"
    )
    assert prob.subsets[1:] == [-1, -1, -2, -2]
    prob = make_problem(
        'tensor T rank=6 sym=3..6\ntensor R rank=4 gens="-(1,2),+(1,3)(2,4),-(3,4)"',
        "T_{a b c d e f} R^{c d}_{g h}",
    )
    assert prob.subsets[1:] == [0, 0, 1, 1, 1, 1, -2, -2, -3, -3]


def test_golden_propagated_symmetries_arrays():
    from tensorcanon.canon_fast import update_propagated_symmetries

    def counter():
        state = {"last": -1}

        def next_odd():
            state["last"] += 2
            return state["last"]

        return next_odd

    # dummy pair inside the symmetric subset: no even entries survive
    prob = make_problem("tensor T rank=6 sym=3..6", "T_{1 1 a b}^{b c}")
    inst = [(p, p) for p in range(1, prob.n + 1)]
    prop = update_propagated_symmetries(
        inst, prob.g_init.images, identity(prob.n).images, prob.ctx, prob.subsets,
        [0] * (prob.n + 1), counter(),
    )
    assert prop[1:] == [0, 0, 0, 1, 1, 0]

    # contraction into the Riemann factor: entry 2 propagates, but the
    # antisymmetric pair receives no odd entry of its own
    prob = make_problem(
        'tensor T rank=6 sym=3..6\ntensor R rank=4 gens="-(1,2),+(1,3)(2,4),-(3,4)"',
        "T_{a b c d e f} R^{c d}_{g h}",
    )
    inst = [(p, p) for p in range(1, prob.n + 1)]
    prop = update_propagated_symmetries(
        inst, prob.g_init.images, identity(prob.n).images, prob.ctx, prob.subsets,
        [0] * (prob.n + 1), counter(),
    )
    assert prop[1:] == [0, 0, 1, 1, 0, 0, 2, 2, 0, 0]
    assert -3 not in prop and 3 not in prop

    # components and dummies in one subset get distinct odd entries, and
    # components propagate nothing: no entry 2 appears
    prob = make_problem(
        'tensor T rank=6 sym=3..6\ntensor R rank=4 gens="-(1,2),+(1,3)(2,4),-(3,4)"',
        "T_{a b 1 1 c d} R^{c}_{e}^{d}_{f}",
    )
    next_odd = counter()
    prop = [0] * (prob.n + 1)
    prop = update_propagated_symmetries(
        [(3, 3), (4, 4)], prob.g_init.images, identity(prob.n).images, prob.ctx, prob.subsets,
        prop, next_odd,
    )
    prop = update_propagated_symmetries(
        [(5, 5), (6, 6)], prob.g_init.images, identity(prob.n).images, prob.ctx, prob.subsets,
        prop, next_odd,
    )
    assert prop[1:] == [0, 0, 1, 1, 3, 3, 4, 0, 4, 0]
    assert 2 not in prop


# 3. bulk oracle equivalence


def test_oracle_equivalence_bulk():
    t0 = time.monotonic()
    checked = 0
    mismatches = []
    for family in FAMILIES:
        for size in range(1, 11):
            for trial in range(26):
                case = generate(family, size, trial)
                if case.problem.n > 10:
                    continue
                expected = oracle_result(case, cap=10**6)
                if expected is None:
                    continue
                checked += 1
                for engine in ("fast", "baseline"):
                    _, result = run_case(case, engine)
                    if result != expected:
                        mismatches.append((family, size, trial, engine, case.expression))
    elapsed = time.monotonic() - t0
    assert mismatches == []
    assert checked >= 1000, checked
    assert elapsed < 300, elapsed


# 4. factorial baseline vs single-configuration fast search


def test_baseline_factorial_blowup_goldens():
    prob = make_problem(
        "tensor T rank=6 sym=1..6\ntensor S rank=6 sym=1..6",
        "T_{b d c f a e} S^{e b f d a c}",
    )
    trace = {}
    result = butler_portugal(prob.g_init, prob.S, LabelBsgs.from_classes(prob.classes), trace=trace)
    counts = trace["configs_per_slot"]
    assert max(counts) == 720
    assert 1 + sum(counts[:6]) == 1957
    assert result.g == parse_array("<1,3,5,7,9,11,2,4,6,8,10,12>", 12)


def test_fast_engine_single_configuration_and_scaling():
    sizes = [8, 12, 16, 20, 24, 28, 32]
    times = []
    for size in [2, 4, 6] + sizes:
        best = None
        for trial in range(3):
            case = generate("totalsym-frustrated", size, trial)
            row, _ = run_case(case, "fast")
            assert row["max_configs"] == 1, (size, trial)
            el = row["elapsed_us"] / 1e6
            best = el if best is None else min(best, el)
        if size in sizes:
            times.append(best)
    assert fit_exponent(sizes, times) < 3


def test_baseline_over_budget_is_skipped():
    out = io.StringIO()
    run_bench(
        ["totalsym-frustrated"], [6, 10], 1, ["baseline"], out,
        time_budget=10.0,
    )
    rows = list(csv.DictReader(
        l for l in out.getvalue().splitlines() if not l.startswith("#")
    ))
    # size 6 (12 slots) completes; size 10 blows the 10 s budget and is
    # aborted mid-run, leaving no row
    assert {r["n"] for r in rows} == {"12"}
    assert all(r["engine"] == "baseline" for r in rows)


# 5. scaling sanity on the easy families


def test_easy_family_scaling_exponents():
    sizes = [8, 12, 16, 20, 24, 28, 32]

    def exponent(family):
        times = []
        for size in sizes:
            best = None
            for trial in range(3):
                case = generate(family, size, trial)
                row, _ = run_case(case, "fast")
                el = row["elapsed_us"] / 1e6
                best = el if best is None else min(best, el)
            times.append(best)
        return fit_exponent(sizes, times)

    assert exponent("sym-frees") <= 4
    assert exponent("nosym-dummies") <= 4
    assert exponent("cyclic-dummies") <= 4.5


# 6. Riemann products: zero and nonzero bins


def test_riemann_bins_oracle_verified():
    zeros, nonzeros = [], []
    for size in (2, 3):
        for trial in range(15):
            case = generate("riemann", size, trial)
            row, fast = run_case(case, "fast")
            _, base = run_case(case, "baseline")
            expected = oracle_result(case, cap=10**8)
            assert expected is not None, (size, trial)
            assert fast == expected and base == expected, (size, trial)
            (zeros if fast.is_zero else nonzeros).append(row["elapsed_us"])
    assert zeros and nonzeros
    assert statistics.median(zeros) < statistics.median(nonzeros)


# 7. structural property spot-checks (the per-module suites go deeper)


def _close_group(n, gens):
    elems = {identity(n).images}
    frontier = [identity(n)]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                p = compose(g, h)
                if p.images not in elems:
                    elems.add(p.images)
                    nxt.append(p)
        frontier = nxt
    return elems


def test_bsgs_order_matches_closure():
    groups = [
        (4, [
            from_signed_cycles(4, -1, [(1, 2)]),
            from_signed_cycles(4, 1, [(1, 3), (2, 4)]),
            from_signed_cycles(4, -1, [(3, 4)]),
        ]),
        (7, [
            from_signed_cycles(7, 1, [(1, 2)]),
            from_signed_cycles(7, 1, [tuple(range(1, 8))]),
        ]),
    ]
    for n, gens in groups:
        bsgs = schreier_sims(n, gens)
        closure = _close_group(n, gens)
        assert bsgs.group_order == len(closure)
        # coset representatives are group members that hit their targets
        for level in range(1, n + 1):
            for target in bsgs.orbit_of(level):
                rep = bsgs.coset_rep(level, target)
                assert rep[level] == target
                assert bsgs.contains(rep)


def test_label_context_value_invariant_under_consumption():
    rng = random.Random(11)
    ctx = build([
        IndexClass("free", 1),
        IndexClass("component", 3),
        IndexClass("dummy", 2, metric="antisymmetric"),
        IndexClass("dummy", 2, metric="none"),
    ])
    n = ctx.n
    for _ in range(n):
        active = sorted({
            ctx.values[x] for x in range(1, n + 1)
            if ctx.groups[x] != GroupCode.NONE
        })
        if not active:
            break
        new = update_context(ctx, active[0] if rng.random() < 0.7 else rng.choice(active))
        for x in range(1, n + 1):
            if new.groups[x] == GroupCode.NONE and ctx.groups[x] != GroupCode.NONE:
                continue  # just consumed
            assert new.values[x] >= ctx.values[x]
            # a label's value always names a label it can reach
            assert new.values[x] <= x
        ctx = new


def test_propagation_invariants_in_traced_runs(monkeypatch):
    updates = []  # (prop before, prop after, supplied label values), per update
    update = canon_fast.update_propagated_symmetries

    def recorded(instances, g, s, ctx, subsets, prop, next_odd):
        new = update(instances, g, s, ctx, subsets, prop, next_odd)
        updates.append((prop, new, [ctx.values[g[q - 1]] for _, q in instances]))
        return new

    monkeypatch.setattr(canon_fast, "update_propagated_symmetries", recorded)
    cases = [
        ('tensor T rank=6 sym=3..6\ntensor R rank=4 gens="-(1,2),+(1,3)(2,4),-(3,4)"',
         "T_{a b 1 1 c d} R^{c}_{e}^{d}_{f}"),
        ("tensor T rank=6 sym=3..6\ntensor U rank=6", "T_{a b c d e f} U^{e d f c g h}"),
        ("tensor T rank=6 sym=1..6\ntensor S rank=6 sym=1..6",
         "T_{b d c f a e} S^{e b f d a c}"),
        ('tensor R rank=4 gens="-(1,2),+(1,3)(2,4),-(3,4)"', "R^{a b}_{a b}"),
    ]
    for decls, expr in cases:
        prob = make_problem(decls, expr)
        updates.clear()
        prob.canonicalize()
        assert updates, expr
        seen_odd = set()
        for prev, new, values in updates:
            # every update supplies labels from a single least-value set
            assert len(set(values)) == 1
            # no singleton entries: a symmetry shared by one slot is none
            counts = {}
            for v in new:
                if v != 0:
                    counts[v] = counts.get(v, 0) + 1
            assert all(c >= 2 for c in counts.values()), (expr, new)
            # precedence: an existing entry is only ever replaced by one
            # of strictly lower absolute value (or dropped as a singleton)
            for a, b in zip(prev, new):
                if a != 0 and b != 0 and a != b:
                    assert abs(b) < abs(a), (expr, prev, new)
            # odd families appear in increasing order and keep parity
            for v in new:
                if v != 0 and v % 2 != 0 and abs(v) not in seen_odd:
                    assert all(abs(v) > o for o in seen_odd) or abs(v) in seen_odd
                    seen_odd.add(abs(v))


def test_sign_homomorphism_spot_check():
    rng = random.Random(3)
    n = 6
    for _ in range(50):
        imgs = list(range(1, n + 1))
        rng.shuffle(imgs)
        a = from_signed_cycles(n, rng.choice([1, -1]), [])
        a = a.__class__(tuple(imgs) + tuple(a.images[n:]))
        imgs2 = list(range(1, n + 1))
        rng.shuffle(imgs2)
        b = from_signed_cycles(n, rng.choice([1, -1]), [])
        b = b.__class__(tuple(imgs2) + tuple(b.images[n:]))
        assert compose(a, b).sign == a.sign * b.sign


def test_canonical_fixed_point_roundtrip():
    cases = [
        ("tensor T rank=6 sym=3..6\ntensor U rank=6", "T_{a b c d e f} U^{e d f c g h}"),
        ('tensor T rank=3 gens="+(1,2,3)"\ntensor U rank=3 gens="+(1,2,3)"',
         "T_{c b}^{c} U^{b a}_{a}"),
        ("tensor A rank=2 asym=1..2", "A_{2 1}"),
        ("tensor T rank=4 sym=1..4", "T_{z k}^{k z}"),
    ]
    for decls, expr in cases:
        reg = Registry()
        reg.declare_all(decls)
        mono = parse(expr, reg)
        prob = build_problem(mono, reg)
        text = render(prob.canonicalize(), mono, reg)
        mono2 = parse(text.lstrip("-"), reg)
        prob2 = build_problem(mono2, reg)
        assert render(prob2.canonicalize(), mono2, reg) == text.lstrip("-")


# 8. pairwise-symmetric frustrated contractions: the known hard family


def test_pairwise_frustrated_regression():
    # the weak pairwise symmetry defeats the propagation pruning, so the
    # configuration count grows with size instead of staying at 1; the
    # engine must stay correct where the oracle can check it, and must
    # either finish correctly or abort cleanly on the larger cases
    growth = {}
    for size in (2, 3, 4):
        for trial in range(5):
            case = generate("pairwise-frustrated", size, trial)
            expected = oracle_result(case, cap=10**6)
            assert expected is not None
            row, fast = run_case(case, "fast")
            _, base = run_case(case, "baseline")
            assert fast == expected and base == expected, (size, trial)
            growth[size] = max(growth.get(size, 0), row["max_configs"])
    assert growth[4] > growth[2]
    for trial in range(3):
        case = generate("pairwise-frustrated", 5, trial)
        try:
            _, fast = run_case(case, "fast", time_budget=10.0)
        except TimeoutError:
            continue  # a clean abort within the cap is acceptable
        expected = oracle_result(case, cap=10**7)
        if expected is not None:
            assert fast == expected, trial
