"""Correctness checks that need no oracle, and an oracle fuzz over index kinds
the benchmark families never use.

* Double-coset invariance: the canonical form is a function of the double
  coset L·g·S, so moving the start configuration g by a random slot element
  s and a random label element l must not change it: canon(l∘g∘s) =
  canon(g).  This holds at any size, far beyond the oracle's reach.
* Oracle fuzz: component indices and bundles with an antisymmetric metric
  or none at all, at n <= 8, against the brute-force oracle.

Every test is seeded, so a failure reproduces.
"""

import dataclasses
import random

from tensorcanon.bench import FAMILIES, generate
from tensorcanon.canon_baseline import butler_portugal
from tensorcanon.frontend import Registry, build_problem, factor_text, parse
from tensorcanon.oracle import brute_force_canonicalize, enumerate_group, enumerate_label_group
from tensorcanon.signed_perm import SignedPermutation, compose, identity

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


def assert_coset_invariant(prob, rng, moves, baseline, context):
    fast = prob.canonicalize()
    if baseline:
        assert butler_portugal(prob.g_init, prob.S, prob.label_bsgs()) == fast, context
    for _ in range(moves):
        l = random_label_element(prob.classes, prob.n, rng)
        s = random_slot_element(prob.S, rng)
        moved = compose(l, compose(prob.g_init, s))
        assert dataclasses.replace(prob, g_init=moved).canonicalize() == fast, (context, moved)
        if baseline:
            assert butler_portugal(moved, prob.S, prob.label_bsgs()) == fast, (context, moved)


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


def test_double_coset_invariance_on_mixed_bundles():
    rng = random.Random(5)
    kinds = set()
    for trial in range(600):
        decls, expr = random_mixed_problem(rng, 16)
        prob = make_problem(decls, expr)
        kinds.update((c.kind, c.metric) for c in prob.classes)
        assert_coset_invariant(prob, rng, 3, prob.n <= 12, (trial, decls, expr))
    assert {("component", None), ("dummy", "none"), ("dummy", "antisymmetric")} <= kinds


def test_oracle_fuzz_components_and_metricless_bundles():
    rng = random.Random(6)
    checked = zeros = 0
    for trial in range(4000):
        decls, expr = random_mixed_problem(rng, 8)
        prob = make_problem(decls, expr)
        S_enum = enumerate_group(prob.S)
        L_enum = enumerate_label_group(prob.classes, prob.n)
        expected = brute_force_canonicalize(prob.g_init, S_enum, L_enum)
        context = (trial, decls, expr)
        assert prob.canonicalize() == expected, context
        assert butler_portugal(prob.g_init, prob.S, prob.label_bsgs()) == expected, context
        checked += 1
        zeros += expected.is_zero
    assert checked == 4000 and 0 < zeros < checked


def test_double_coset_invariance_on_large_riemann_contractions():
    # 32 to 48 slots, past the bench-family test's 24: the sizes where
    # keeping one configuration per arrangement g drops the most
    rng = random.Random(7)
    for size in (8, 10, 12):
        for trial in range(3):
            prob = generate("riemann", size, trial).problem
            assert_coset_invariant(prob, rng, 3, False, ("riemann", size, trial))
