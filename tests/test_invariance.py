"""Correctness checks that need no oracle, and an oracle fuzz over index kinds
the benchmark families never use.

* Double-coset invariance: the canonical form is a function of the double
  coset L·g·S, so moving the start configuration g by a random slot element
  s and a random label element l must not change it: canon(l∘g∘s) =
  canon(g).  This holds at any size, far beyond the oracle's reach.
* Oracle fuzz: component indices and bundles with an antisymmetric metric
  or none at all, at n <= 8, against the brute-force oracle.
* Mixed fuzz outputs are fixed points: each non-zero output, re-parsed
  without its sign, canonicalizes to itself.
* The audit of the zero sweep before the first pass: after every
  propagation update of the search, no rule of
  ``zero_due_to_propagated_symmetries`` fires on the updated
  configuration, which answers as a plain reference does.
* The fast engine's least-value scans, propagation updates, appended
  children and narrowed label contexts, against plain references written
  here.
* Passes with no label left to exchange, which skip the propagation
  update: forcing it in changes nothing.
* The zero sweep before the first pass fires where a plain reference of
  its three cases does, each case under every metric, and wherever it
  fires the oracle gives zero.
* A zero leaves an empty trace exactly when it was proved before any
  pass.
* One Registry shared by the mixed monomials gives the outputs of a
  fresh Registry per monomial.
* The baseline's filtered label generators: at every pass they reach
  the same orbits as the label-group elements fixing the consumed labels.

Every test is seeded, so a failure reproduces.
"""

import dataclasses
import itertools
import random
from collections import Counter

from tensorcanon import canon_fast
from tensorcanon.bench import FAMILIES, generate
from tensorcanon.canon_baseline import LabelBsgs, butler_portugal
from tensorcanon.frontend import Registry, build_problem, factor_text, parse, render
from tensorcanon.label_context import GroupCode, LabelContext, label_permutation_from_group
from tensorcanon.oracle import brute_force_canonicalize, enumerate_group, enumerate_label_group, least_relabelling
from tensorcanon.perm_group import SchreierTree
from tensorcanon.signed_perm import SignedPermutation, compose, from_signed_cycles, identity

BUNDLES = "bundle a metric=none\nbundle b metric=antisymmetric\nbundle c metric=symmetric"


def random_symmetry(rng, rank):
    """Slot symmetry options for a rank-``rank`` declaration."""
    options = [""]
    if rank >= 2:
        options += [f"sym=1..{rank}", f"asym=1..{rank}"]
    if rank >= 3:
        options += ["sym=1..2", f"asym=2..{rank}"]
    if rank == 3:
        options += ['gens="+(1,2,3)"', 'gens="-(1,2,3)"']
    if rank == 4:
        options += ['gens="+(1,2)(3,4)"', 'gens="-(1,2),+(1,3)(2,4),-(3,4)"']
    return rng.choice(options)


def random_slot_element(S, rng):
    """A uniform element of the slot group: one coset representative per level."""
    s = identity(S.n)
    for level in range(1, S.degree + 1):
        s = compose(s, S.coset_rep(level, rng.choice(S.orbit_of(level))))
    return s


def random_label_element(classes, n, rng):
    """A uniform element of the label group, built from the class structure.

    Same-numeral components permute freely; the pairs of a dummy class
    permute, and each pair's legs swap when its bundle has a metric (at
    the cost of a sign when the metric is antisymmetric).
    """
    images = list(range(1, n + 3))
    sign = 1
    label = 1
    for c in classes:
        if c.kind == "free":
            label += c.size
        elif c.kind == "component":
            block = list(range(label, label + c.size))
            images[label - 1 : label - 1 + c.size] = rng.sample(block, c.size)
            label += c.size
        else:
            pairs = [(label + 2 * k, label + 2 * k + 1) for k in range(c.size)]
            for (lo, hi), target in zip(pairs, rng.sample(pairs, c.size)):
                if c.metric != "none" and rng.random() < 0.5:
                    target = target[::-1]
                    sign *= -1 if c.metric == "antisymmetric" else 1
                images[lo - 1], images[hi - 1] = target
            label += 2 * c.size
    if sign < 0:
        images[n], images[n + 1] = n + 2, n + 1
    return SignedPermutation(images)


def random_mixed_problem(rng, max_n):
    """(declarations, expression) over three tensors and four bundles.

    Index names start with ``a`` (metric none), ``b`` (antisymmetric),
    ``c`` (symmetric) or ``d``/``f`` (the implicit symmetric bundle);
    all-digit tokens are components.
    """
    decls = [BUNDLES]
    for name in "TUV":
        rank = rng.randint(1, 4)
        decls.append(f"tensor {name} rank={rank} {random_symmetry(rng, rank)}".rstrip())
    reg = Registry()
    reg.declare_all("\n".join(decls))
    factors, n = [], 0
    while not factors or rng.random() < 0.7:
        name = rng.choice("TUV")
        rank = reg.tensors[name].rank
        if n + rank > max_n:
            break
        factors.append(name)
        n += rank
    tokens = []
    for k in range(rng.randint(0, n // 2)):
        pair = rng.choice("abcd") + str(k)
        tokens += [(pair, "d"), (pair, "u")]
    while len(tokens) < n:
        if rng.random() < 0.5:
            text = str(rng.randint(1, 3))
        else:
            text = rng.choice("abcf") + "x" + str(len(tokens))
        tokens.append((text, rng.choice("du")))
    rng.shuffle(tokens)
    parts, pos = [], 0
    for name in factors:
        rank = reg.tensors[name].rank
        parts.append(factor_text(name, tokens[pos : pos + rank]))
        pos += rank
    return "\n".join(decls), " ".join(parts)


def make_problem(decls, expr):
    reg = Registry()
    reg.declare_all(decls)
    return build_problem(parse(expr, reg), reg)


def random_moves(prob, rng, count):
    """``count`` random (label element, slot element) pairs for ``prob``."""
    return [(random_label_element(prob.classes, prob.n, rng), random_slot_element(prob.S, rng)) for _ in range(count)]


def assert_coset_invariant(prob, rng, moves, baseline, context):
    fast = prob.canonicalize()
    if baseline:
        assert butler_portugal(prob.g_init, prob.S, prob.classes) == fast, context
    for l, s in random_moves(prob, rng, moves):
        moved = compose(l, compose(prob.g_init, s))
        assert dataclasses.replace(prob, g_init=moved).canonicalize() == fast, (context, moved)
        if baseline:
            assert butler_portugal(moved, prob.S, prob.classes) == fast, (context, moved)
    return fast


def test_double_coset_invariance_on_bench_families():
    rng = random.Random(4)
    checked = 0
    for family in FAMILIES:
        slots_per_size = generate(family, 2, 0).problem.n // 2
        for size in sorted({2, 3, 6 // slots_per_size, 12 // slots_per_size, 24 // slots_per_size}):
            for trial in range(2):
                prob = generate(family, size, trial).problem
                assert prob.n <= 24
                assert_coset_invariant(prob, rng, 3, prob.n <= 12, (family, size, trial))
                checked += 1
    assert checked >= 60, checked


def mixed_bundle_problems():
    """The 600 seeded mixed-bundle problems, with the generator that made them.

    The generator is shared with the moves drawn for each problem, so a
    caller keeps the sequence only by drawing the same moves.
    """
    rng = random.Random(5)
    for trial in range(600):
        decls, expr = random_mixed_problem(rng, 16)
        yield rng, make_problem(decls, expr), (trial, decls, expr)


def test_double_coset_invariance_on_mixed_bundles():
    kinds = set()
    for rng, prob, context in mixed_bundle_problems():
        kinds.update((c.kind, c.metric) for c in prob.classes)
        assert_coset_invariant(prob, rng, 3, prob.n <= 12, context)
    assert {("component", None), ("dummy", "none"), ("dummy", "antisymmetric")} <= kinds


def mixed_problems_with_moves():
    """Each mixed-bundle problem, then the three moves of it that the
    invariance test draws."""
    for rng, prob, _context in mixed_bundle_problems():
        yield prob
        for l, s in random_moves(prob, rng, 3):
            yield dataclasses.replace(prob, g_init=compose(l, compose(prob.g_init, s)))


def test_shared_registry_matches_a_fresh_one_per_mixed_monomial():
    # the mixed monomials in shuffled order, each declared and parsed in
    # one Registry, whose label contexts every monomial of a class layout
    # shares, against a fresh Registry per monomial
    problems = []
    for rng, prob, (trial, decls, expr) in mixed_bundle_problems():
        random_moves(prob, rng, 3)  # the moves the invariance test draws, to keep its sequence
        problems.append((trial, decls, expr))
    random.Random(11).shuffle(problems)
    shared = Registry()
    hits = 0
    for trial, decls, expr in problems:
        fresh = Registry()
        fresh.declare_all(decls)
        fresh_mono = parse(expr, fresh)
        fresh_trace, shared_trace = {}, {}
        want = render(build_problem(fresh_mono, fresh).canonicalize(trace=fresh_trace), fresh_mono, fresh)
        shared.declare_all(decls)
        mono = parse(expr, shared)
        hits += tuple(mono.classes) in shared.contexts
        got = render(build_problem(mono, shared).canonicalize(trace=shared_trace), mono, shared)
        assert got == want, (trial, decls, expr)
        assert shared_trace["configs_per_slot"] == fresh_trace["configs_per_slot"], (trial, decls, expr)
    kinds = {(c.kind, c.metric) for layout in shared.contexts for c in layout}
    assert {("component", None), ("dummy", "none"), ("dummy", "antisymmetric")} <= kinds
    assert hits + len(shared.contexts) == len(problems) and hits > 200, hits


def test_oracle_fuzz_components_and_metricless_bundles():
    rng = random.Random(6)
    checked = zeros = 0
    for trial in range(4000):
        decls, expr = random_mixed_problem(rng, 8)
        prob = make_problem(decls, expr)
        expected = brute_force_canonicalize(prob.g_init, enumerate_group(prob.S), prob.classes)
        context = (trial, decls, expr)
        assert prob.canonicalize() == expected, context
        assert butler_portugal(prob.g_init, prob.S, prob.classes) == expected, context
        checked += 1
        zeros += expected.is_zero
    assert checked == 4000 and 0 < zeros < checked


def test_least_relabelling_is_the_least_over_the_label_group():
    # the oracle's one scan in slot order against the minimum over every
    # enumerated label element, on configurations moved by l∘g∘s
    rng = random.Random(8)
    kinds = set()
    flipped = 0
    for trial in range(1500):
        decls, expr = random_mixed_problem(rng, 10)
        prob = make_problem(decls, expr)
        ((l, s),) = random_moves(prob, rng, 1)
        h = compose(l, compose(prob.g_init, s))
        least = min(compose(x, h) for x in enumerate_label_group(prob.classes, prob.n))
        assert least_relabelling(h, prob.classes) == least, (trial, decls, expr, h)
        flipped += least.sign != h.sign
        kinds.update((c.kind, c.metric) for c in prob.classes)
    assert {("component", None), ("dummy", "none"), ("dummy", "antisymmetric"), ("dummy", "symmetric")} <= kinds
    assert flipped > 100, flipped


def test_mixed_outputs_recanonicalize_to_themselves():
    rng = random.Random(5)
    nonzero = 0
    for trial in range(3000):
        decls, expr = random_mixed_problem(rng, 10)
        reg = Registry()
        reg.declare_all(decls)
        mono = parse(expr, reg)
        out = render(build_problem(mono, reg).canonicalize(), mono, reg).lstrip("-")
        if out == "0":
            continue
        nonzero += 1
        again = parse(out, reg)
        assert render(build_problem(again, reg).canonicalize(), again, reg) == out, (trial, decls, expr, out)
    assert nonzero > 2000, nonzero


def test_double_coset_invariance_on_large_riemann_contractions():
    # 32 to 48 slots, past the bench-family test's 24: the sizes where
    # keeping one configuration per arrangement g drops the most
    rng = random.Random(7)
    for size in (8, 10, 12):
        for trial in range(3):
            prob = generate("riemann", size, trial).problem
            assert_coset_invariant(prob, rng, 3, False, ("riemann", size, trial))


def random_symmetric_product(rng, ranks):
    """(declarations, expression): one factor per rank, each totally
    symmetric, totally antisymmetric or symmetric in its first two slots,
    with every slot contracted over random bundles of all three metrics
    and one free index when the slot count is odd."""
    n = sum(ranks)
    tokens = []
    for k in range(n // 2):
        pair = rng.choice("abc") + str(k)
        tokens += [(pair, "d"), (pair, "u")]
    tokens += [("cz", rng.choice("du"))] * (n % 2)
    rng.shuffle(tokens)
    decls, parts, pos = [BUNDLES], [], 0
    for j, rank in enumerate(ranks):
        decls.append(f"tensor T{j} rank={rank} {rng.choice([f'sym=1..{rank}', f'asym=1..{rank}', 'sym=1..2'])}")
        parts.append(factor_text(f"T{j}", tokens[pos : pos + rank]))
        pos += rank
    return "\n".join(decls), " ".join(parts)


def symmetric_product_problems(count=400):
    """``count`` seeded products of 2..5 factors of rank 2..6, each followed
    by two random moves of it."""
    rng = random.Random(12)
    for _ in range(count):
        ranks = [rng.randint(2, 6) for _ in range(rng.randint(2, 5))]
        prob = make_problem(*random_symmetric_product(rng, ranks))
        yield prob
        for l, s in random_moves(prob, rng, 2):
            yield dataclasses.replace(prob, g_init=compose(l, compose(prob.g_init, s)))


def test_products_of_symmetric_factors():
    # three to five factors: the engines agree up to 14 slots, and from 40
    # to 66 slots, where the baseline cannot follow, the fast engine's
    # output is a function of the double coset
    rng = random.Random(10)
    small = 0
    while small < 600:
        ranks = [rng.randint(2, 4) for _ in range(rng.randint(3, 5))]
        if sum(ranks) <= 14:
            decls, expr = random_symmetric_product(rng, ranks)
            assert_coset_invariant(make_problem(decls, expr), rng, 0, True, (decls, expr))
            small += 1
    large = nonzero = 0
    while nonzero < 12:
        assert large < 150, (large, nonzero)  # most of these products vanish, but not all
        ranks = [rng.randint(8, 22) for _ in range(rng.randint(3, 5))]
        if 40 <= sum(ranks) <= 66:
            decls, expr = random_symmetric_product(rng, ranks)
            large += 1
            nonzero += not assert_coset_invariant(make_problem(decls, expr), rng, 3, False, (decls, expr)).is_zero


def small_bench_problems():
    """Every bench family at sizes 2..8, trials 0..7."""
    for family in FAMILIES:
        for size in range(2, 9):
            for trial in range(8):
                yield generate(family, size, trial).problem


def test_no_propagated_zero_rule_fires_in_the_search(monkeypatch):
    """After every propagation update, no rule of
    ``zero_due_to_propagated_symmetries`` fires on the updated
    configuration: the sweep before the first pass has settled every zero
    they prove, so the engine does not run them.  Each answer equals
    :func:`reference_zero`'s; with the sweep off, the rules do fire, so
    the audit would see a zero the sweep missed."""
    update = canon_fast.update_propagated_symmetries
    zero = canon_fast.zero_due_to_propagated_symmetries
    counts = Counter()

    def audited_update(instances, g, s, ctx, subsets, prop, next_odd):
        new = update(instances, g, s, ctx, subsets, prop, next_odd)
        vanishes = zero(g, s, ctx, subsets, new)
        assert vanishes is reference_zero(g, s, ctx, subsets, new)
        counts["updates"] += 1
        counts["recorded"] += new is not prop
        counts["fired"] += vanishes
        return new

    monkeypatch.setattr(canon_fast, "update_propagated_symmetries", audited_update)
    mixed = list(mixed_problems_with_moves())
    for prob in [*small_bench_problems(), *mixed, *symmetric_product_problems()]:
        prob.canonicalize()
        assert counts["fired"] == 0, (prob.classes, prob.g_init)
    assert counts["updates"] > counts["recorded"] > 0, counts
    monkeypatch.setattr(canon_fast, "zero_before_search", lambda g, ctx, subsets: False)
    for prob in mixed:
        prob.canonicalize()
    assert counts["fired"] > 0, counts


def test_frozen_passes_skip_only_no_ops(monkeypatch):
    """Forcing the propagation update into every pass changes no output
    and no configuration count, and in a context that is not live each
    forced update is a no-op: it returns ``prop`` itself."""
    problems = [*small_bench_problems(), *mixed_problems_with_moves()]

    def run():
        runs = []
        for prob in problems:
            trace = {}
            runs.append((prob.canonicalize(trace=trace), trace["configs_per_slot"]))
        return runs

    shipped = run()
    update = canon_fast.update_propagated_symmetries
    frozen = {"updates": 0}

    def forced_update(instances, g, s, ctx, subsets, prop, next_odd):
        new = update(instances, g, s, ctx, subsets, prop, next_odd)
        if not any(ctx.groups):
            assert new is prop
            frozen["updates"] += 1
        return new

    # a property on the class overrides the flag each context sets on itself
    monkeypatch.setattr(LabelContext, "live", property(lambda self: True, lambda self, value: None), raising=False)
    monkeypatch.setattr(canon_fast, "update_propagated_symmetries", forced_update)
    assert run() == shipped
    assert frozen["updates"] > 0, frozen


def reference_zero_before_search(prob):
    """The sweep's three cases tested plainly, as the set of (case, group
    code) that fire: every two slots of one subset for cases 1 and 2, and
    every two dummy pairs of one class, read from ``prob.classes``, for
    case 3."""
    g, ctx, subsets = prob.g_init.images, prob.ctx, prob.subsets
    fired = set()
    for p in range(1, prob.n + 1):
        for q in range(p + 1, prob.n + 1):
            if subsets[p] == 0 or subsets[q] != subsets[p]:
                continue
            a, b = g[p - 1], g[q - 1]
            code = ctx.groups[a]
            antisymmetric = subsets[p] < 0
            if ctx.partner[a] == b and (code, antisymmetric) in ((GroupCode.S_DUMMY, True), (GroupCode.A_DUMMY, False)):
                fired.add((1, code))
            if code == ctx.groups[b] == GroupCode.COMPONENT and ctx.values[a] == ctx.values[b] and antisymmetric:
                fired.add((2, code))
    subset_of = {label: subsets[p] for p, label in enumerate(g[: prob.n], 1)}
    label = 1
    for c in prob.classes:
        if c.kind == "dummy":
            # (lower leg's subset, upper leg's subset) of each pair
            pairs = [(subset_of[x], subset_of[x + 1]) for x in range(label, label + 2 * c.size, 2)]
            for a, b in itertools.combinations(pairs, 2):
                if a[0] * a[1] < 0 and (a == b or c.metric != "none" and a == b[::-1]):
                    fired.add((3, ctx.groups[label]))
        label += 2 * c.size if c.kind == "dummy" else c.size
    return fired


def test_zero_before_search_agrees_with_the_search():
    """The sweep before the first pass fires exactly where the plain
    reference does, each case under every metric it can see, the third
    also alone; and wherever it fires, the oracle gives zero."""
    problems = [*small_bench_problems(), *mixed_problems_with_moves(), *symmetric_product_problems()]
    problems = [prob for prob in problems if not prob.S.has_minus_one]
    fired, alone, oracle = Counter(), Counter(), Counter()
    for prob in problems:
        cases = reference_zero_before_search(prob)
        assert canon_fast.zero_before_search(prob.g_init.images, prob.ctx, prob.subsets) == bool(cases)
        fired.update(cases)
        alone.update(cases if len(cases) == 1 else ())
        if cases and prob.S.group_order <= 10**4:
            assert brute_force_canonicalize(prob.g_init, enumerate_group(prob.S), prob.classes).is_zero
            oracle.update(cases)
    wanted = [(1, GroupCode.S_DUMMY), (1, GroupCode.A_DUMMY), (2, GroupCode.COMPONENT),
              (3, GroupCode.S_DUMMY), (3, GroupCode.A_DUMMY), (3, GroupCode.L_DUMMY)]
    assert min(oracle[case] for case in wanted) > 0, oracle
    assert min(alone[case] for case in wanted if case[0] == 3) > 0, alone


def test_an_empty_trace_means_a_zero_proved_before_any_pass():
    """``configs_per_slot == []`` exactly when the result is a zero proved
    before the first pass, by -1 ∈ S or by the sweep; a zero the search's
    ±g scan finds leaves the passes it ran."""
    causes = Counter()
    smallest = make_problem("tensor M rank=2 sym=1..2\ntensor A rank=2 asym=1..2", "M^{a b} A_{a b}")
    for prob in [smallest, *small_bench_problems(), *mixed_problems_with_moves(), *symmetric_product_problems()]:
        trace = {}
        result = prob.canonicalize(trace=trace)
        before = prob.S.has_minus_one or canon_fast.zero_before_search(prob.g_init.images, prob.ctx, prob.subsets)
        assert (trace["configs_per_slot"] == []) == before, (prob.classes, prob.g_init)
        assert result.is_zero or not before
        causes["before" if before else "search" if result.is_zero else "nonzero"] += 1
    assert min(causes.values()) > 0 and len(causes) == 3, causes


def reference_least_values(i, orbit, configs, ctx, prop):
    """The least-value scan written plainly: for each orbit point with an
    even entry, scan slots i..n again for a cheaper label of its family."""
    n, values = ctx.n, ctx.values
    least_value = n
    instances = [[] for _ in configs]
    for k, (g, s) in enumerate(configs):
        for p in orbit:
            q = p
            entry = prop[s[p - 1]]
            if entry != 0 and entry % 2 == 0:
                for cand in range(i, n + 1):
                    if prop[s[cand - 1]] == entry and values[g[cand - 1]] < values[g[q - 1]]:
                        q = cand
            value = values[g[q - 1]]
            if value < least_value:
                least_value = value
                for lst in instances:
                    lst.clear()
                instances[k].append((p, q))
            elif value == least_value:
                instances[k].append((p, q))
    return least_value, instances


def reference_update(instances, g, s, ctx, subsets, prop, next_odd):
    """The propagation update written plainly: write into a copy of
    ``prop``, then clear every entry that occurs once in the whole array."""
    dummies = (GroupCode.S_DUMMY, GroupCode.A_DUMMY, GroupCode.L_DUMMY, GroupCode.U_DUMMY)
    groups = ctx.groups
    new = list(prop)
    memo = {}
    for p, q in instances:
        label, sq, sub = g[q - 1], s[q - 1], subsets[q]
        if groups[label] == GroupCode.NONE or sub == 0 or prop[sq] != 0:
            continue
        cur = new[sq]
        if sub in memo:
            entry = memo[sub]
        elif cur != 0:
            continue
        else:
            entry = memo[sub] = (1 if sub > 0 else -1) * next_odd()
        if cur != 0 and abs(cur) <= abs(entry):
            continue
        new[sq] = entry
        if groups[label] in dummies:
            pentry = (1 if entry > 0 else -1) * (abs(entry) + 1)
            tgt = s[g.index(ctx.partner[label])]
            if new[tgt] == 0 or abs(pentry) < abs(new[tgt]):
                new[tgt] = pentry
    counts = Counter(new)
    return [v if counts[v] > 1 else 0 for v in new]


def reference_narrow(ctx, least_value):
    """(values, groups) after consuming ``least_value``, built afresh every call."""
    values, groups = list(ctx.values), list(ctx.groups)
    partner = ctx.partner[least_value]
    for x in (least_value, partner):
        values[x], groups[x] = x, GroupCode.NONE
    top = max(least_value, partner)
    j = top + 1
    while j <= ctx.n and values[j] <= top:
        values[j] += 2 if partner else 1
        j += 1
    return values, groups


def reference_zero(g, s, ctx, subsets, prop):
    """The zero check written plainly, each partner's slot found by ``g.index``."""
    n, groups = ctx.n, ctx.groups
    syms = [prop[s[p - 1]] for p in range(1, n + 1)]
    for p in range(1, n + 1):
        sym, group = syms[p - 1], groups[g[p - 1]]
        if sym == 0 or group == GroupCode.NONE:
            continue
        if group == GroupCode.COMPONENT:
            if sym < 0:
                return True
            continue
        sub = subsets[p]
        if sym % 2 == 0 and sub != 0 and (sym > 0) != (sub > 0):
            if sum(1 for r in range(1, n + 1) if syms[r - 1] == sym and abs(subsets[r]) == abs(sub)) >= 2:
                return True
        if group == GroupCode.S_DUMMY and sym < 0 or group == GroupCode.A_DUMMY and sym > 0:
            q = g.index(ctx.partner[g[p - 1]]) + 1
            if q < p and syms[q - 1] == sym:
                return True
    return False


def reference_append(instances, g, s, least_value, S, i, ctx, subsets, prop):
    """The children of (g, s) built as signed permutations, each with
    whether it is an exchange child (p != q): a fresh
    ``label_permutation_from_group`` composed with the signed label swap of
    an exchange, ``compose`` with ``S.tree(i).rep(p)`` even where it is the
    identity, and ``g.index`` for each partner's slot."""
    dummies = (GroupCode.S_DUMMY, GroupCode.A_DUMMY, GroupCode.L_DUMMY, GroupCode.U_DUMMY)
    n = ctx.n
    visited = set()
    children = []
    for p, q in instances:
        label = g[q - 1]
        if subsets[p] != 0 and len(instances) > 1:
            far = -1
            if ctx.groups[label] in dummies:
                r = g.index(ctx.partner[label])
                family = prop[s[r]]
                far = ("fam", family) if family != 0 and family % 2 == 0 else abs(subsets[r + 1])
            key = (abs(subsets[p]), far)
            if key in visited:
                continue
            visited.add(key)
        ell = label_permutation_from_group(ctx, label, least_value)
        if p != q:
            swap = from_signed_cycles(n, -1 if prop[s[q - 1]] < 0 else 1, [(label, g[p - 1])])
            ell = compose(ell, swap)
        u = S.tree(i).rep(p)
        child = compose(compose(ell, SignedPermutation(g)), u)
        children.append((child.images, compose(SignedPermutation(s), u).images, p != q))
    return children


def test_updates_match_their_references(monkeypatch):
    """Each least-value scan returns what :func:`reference_least_values`
    does; each propagation update equals :func:`reference_update`, and is its
    ``prop`` argument exactly when it adds nothing; the children each
    configuration appends are those of :func:`reference_append`; each
    narrowed label context, kept or returned as it was, equals
    :func:`reference_narrow`; and each label table kept for a layout is the
    one its built context gives."""
    least = canon_fast.get_least_value_instances
    update = canon_fast.update_propagated_symmetries
    append = canon_fast.append_non_redundant_instances
    narrow = canon_fast.update_context
    counts = Counter()

    def checked_least(i, orbit, configs, ctx, prop):
        found = least(i, orbit, configs, ctx, prop)
        assert found == reference_least_values(i, orbit, configs, ctx, prop)
        counts["scans"] += 1
        counts["exchanges"] += any(p != q for inst in found[1] for p, q in inst)
        return found

    def checked_update(instances, g, s, ctx, subsets, prop, next_odd):
        drawn = []

        def recorded_odd():
            drawn.append(next_odd())
            return drawn[-1]

        before = list(prop)
        new = update(instances, g, s, ctx, subsets, prop, recorded_odd)
        assert new == reference_update(instances, g, s, ctx, subsets, before, iter(drawn).__next__)
        assert prop == before
        assert (new is prop) == (new == before)
        counts["updates"] += 1
        counts["unchanged"] += new is prop
        return new

    def checked_append(out, instances, g, s, least_value, S, i, ctx, subsets, prop):
        before = len(out)
        append(out, instances, g, s, least_value, S, i, ctx, subsets, prop)
        children = out[before:]
        expected = reference_append(instances, g, s, least_value, S, i, ctx, subsets, prop)
        assert children == [c[:2] for c in expected]
        counts["children"] += len(children)
        counts["exchange children"] += sum(c[2] for c in expected)
        counts["moved children"] += sum(c[1] != s for c in children)  # non-identity representative
        return out

    def checked_narrow(ctx, least_value):
        new = narrow(ctx, least_value)
        assert (new.values, new.groups) == reference_narrow(ctx, least_value)
        assert new.partner is ctx.partner and new.tables is ctx.tables
        counts["contexts"] += 1
        counts["frozen"] += new is ctx
        return new

    def check_tables(ctx):
        # each kept table is the built context's: a table depends on the layout alone
        for (label, least), table in ctx.tables.items():
            assert table == label_permutation_from_group(ctx, label, least).table, (label, least)
            counts["tables"] += 1

    monkeypatch.setattr(canon_fast, "get_least_value_instances", checked_least)
    monkeypatch.setattr(canon_fast, "update_propagated_symmetries", checked_update)
    monkeypatch.setattr(canon_fast, "append_non_redundant_instances", checked_append)
    monkeypatch.setattr(canon_fast, "update_context", checked_narrow)
    for prob in small_bench_problems():
        prob.canonicalize()
        check_tables(prob.ctx)
    for rng, prob, context in mixed_bundle_problems():
        assert_coset_invariant(prob, rng, 3, False, context)
        check_tables(prob.ctx)
    assert counts["scans"] > counts["exchanges"] > 0, counts
    assert counts["updates"] > counts["unchanged"] > 0, counts
    assert counts["tables"] > 0, counts
    assert counts["contexts"] > counts["frozen"] > 0, counts
    assert counts["children"] > counts["moved children"] > 0, counts
    assert counts["children"] > counts["exchange children"] > 0, counts


def test_baseline_label_generators_reach_the_whole_stabilizer(monkeypatch):
    """The generators fixing the consumed labels move each label as far as L's elements that fix them.

    ``LabelBsgs.stabilizer_gens`` only filters the structural generators.
    That gives the whole pointwise stabilizer only while, in every class,
    the blocks holding a consumed label come first (see ``LabelBsgs``).
    """
    stabilizer_gens = LabelBsgs.stabilizer_gens
    seen = []

    def recorded(self, pinned):
        gens = stabilizer_gens(self, pinned)
        seen.append((tuple(pinned), gens))
        return gens

    monkeypatch.setattr(LabelBsgs, "stabilizer_gens", recorded)
    rng = random.Random(9)
    problems = [generate(family, size, trial).problem for family in FAMILIES for size in (1, 2, 3) for trial in range(2)]
    problems += [make_problem(*random_mixed_problem(rng, 8)) for _ in range(1000)]
    checked = 0
    kinds = set()
    for prob in problems:
        seen.clear()
        butler_portugal(prob.g_init, prob.S, prob.classes)
        group = [e.images for e in enumerate_label_group(prob.classes, prob.n)]
        for pinned, gens in seen:
            stabilizer = [e for e in group if all(e[b - 1] == b for b in pinned)]
            for x in range(1, prob.n + 1):
                orbit = sorted(SchreierTree(x, gens, prob.n + 2).orbit)
                assert orbit == sorted({e[x - 1] for e in stabilizer}), (prob.classes, pinned, x)
            checked += 1
        kinds.update((c.kind, c.metric) for c in prob.classes)
    assert checked > 1000, checked
    assert {("component", None), ("dummy", "none"), ("dummy", "antisymmetric"), ("dummy", "symmetric")} <= kinds
