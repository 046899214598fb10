import dataclasses
import random
import traceback

import pytest

from tensorcanon import canon_fast
from tensorcanon.bench import budget, generate
from tensorcanon.canon_baseline import butler_portugal
from tensorcanon.canon_fast import (
    canonicalize,
    get_least_value_instances,
    update_propagated_symmetries,
    zero_due_to_propagated_symmetries,
)
from tensorcanon.frontend import Registry, build_problem, factor_text, parse, render
from tensorcanon.label_context import IndexClass, build
from tensorcanon.oracle import brute_force_canonicalize, enumerate_group
from tensorcanon.signed_perm import MAX_SLOTS, identity

from perm_text import parse_array


def make_problem(decls, expr):
    reg = Registry()
    reg.declare_all(decls)
    mono = parse(expr, reg)
    return reg, mono, build_problem(mono, reg)


def odd_counter():
    state = {"last": -1}

    def next_odd():
        state["last"] += 2
        return state["last"]

    return next_odd


def test_propagation_dummy_inside_symmetric_subset():
    # T_{11ab}^{bc}, T symmetric on slots 3..6: the b pair sits with
    # both legs inside the symmetric subset, so the legs share the odd
    # entry and no even entry survives
    _, _, prob = make_problem("tensor T rank=6 sym=3..6", "T_{1 1 a b}^{b c}")
    assert prob.subsets[1:] == [0, 0, 1, 1, 1, 1]
    n = prob.n
    inst = [(p, p) for p in range(1, n + 1)]
    prop = update_propagated_symmetries(
        inst, prob.g_init.images, identity(n).images, prob.ctx, prob.subsets, [0] * (n + 1), odd_counter()
    )
    assert prop[1:] == [0, 0, 0, 1, 1, 0]


def test_propagation_across_factors_conflicting_sign():
    # T_{abcdef} R^{cd}_{gh}: the c,d legs propagate symmetry 2 onto
    # R's first antisymmetric pair — no -3,-3 is entered there, and the
    # sign conflict means the whole contraction vanishes
    _, _, prob = make_problem(
        'tensor T rank=6 sym=3..6\ntensor R rank=4 gens="-(1,2),+(1,3)(2,4),-(3,4)"',
        "T_{a b c d e f} R^{c d}_{g h}",
    )
    assert prob.subsets[1:] == [0, 0, 1, 1, 1, 1, -2, -2, -3, -3]
    n = prob.n
    inst = [(p, p) for p in range(1, n + 1)]
    prop = update_propagated_symmetries(
        inst, prob.g_init.images, identity(n).images, prob.ctx, prob.subsets, [0] * (n + 1), odd_counter()
    )
    assert prop[1:] == [0, 0, 1, 1, 0, 0, 2, 2, 0, 0]
    assert zero_due_to_propagated_symmetries(
        prob.g_init.images, identity(n).images, prob.ctx, prob.subsets, prop
    )
    assert prob.canonicalize().is_zero


def test_propagation_splits_by_value():
    # T_{ab11cd} R^c{}_e{}^d{}_f: component labels and dummy labels
    # share T's symmetric subset but have different values, so they get
    # different odd entries (1 and 3); only the dummies propagate, and
    # no entry 2 appears because components have no partners
    _, _, prob = make_problem(
        'tensor T rank=6 sym=3..6\ntensor R rank=4 gens="-(1,2),+(1,3)(2,4),-(3,4)"',
        "T_{a b 1 1 c d} R^{c}_{e}^{d}_{f}",
    )
    n = prob.n
    next_odd = odd_counter()
    prop = [0] * (n + 1)
    # the engine enters subsets one least-value set at a time: first the
    # component labels (value 5), then the dummies (value 7)
    comp_inst = [(3, 3), (4, 4)]
    prop = update_propagated_symmetries(
        comp_inst, prob.g_init.images, identity(n).images, prob.ctx, prob.subsets, prop, next_odd
    )
    dummy_inst = [(5, 5), (6, 6)]
    prop = update_propagated_symmetries(
        dummy_inst, prob.g_init.images, identity(n).images, prob.ctx, prob.subsets, prop, next_odd
    )
    assert prop[1:] == [0, 0, 1, 1, 3, 3, 4, 0, 4, 0]
    assert not prob.canonicalize().is_zero


def test_update_without_new_entries_returns_prop_unchanged():
    # T_{11ab}^{bc}, T symmetric on slots 3..6: the components sit
    # outside the subset, the free c is consumed from the start, and
    # the b legs are already propagated, so no instance adds an entry
    _, _, prob = make_problem("tensor T rank=6 sym=3..6", "T_{1 1 a b}^{b c}")
    n = prob.n
    g, s = prob.g_init.images, identity(n).images
    next_odd = odd_counter()
    prop = update_propagated_symmetries(
        [(4, 4), (5, 5)], g, s, prob.ctx, prob.subsets, [0] * (n + 1), next_odd
    )
    assert prop[1:] == [0, 0, 0, 1, 1, 0]
    for inst in ([(1, 1), (2, 2)], [(6, 6)], [(4, 4), (5, 5)]):
        before = list(prop)
        assert update_propagated_symmetries(inst, g, s, prob.ctx, prob.subsets, prop, next_odd) == before
        assert prop == before
    assert next_odd() == 3  # no family was started


def test_update_whose_entries_are_all_singletons_returns_prop():
    # T_{x a}^{a}, T symmetric on slots 1..2: the lower leg of a is the
    # only label of its subset, so its odd entry and the even entry it
    # hands its partner are each written once, and neither is kept
    _, _, prob = make_problem("tensor T rank=3 sym=1..2", "T_{x a}^{a}")
    n = prob.n
    g, s = prob.g_init.images, identity(n).images
    next_odd = odd_counter()
    prop = [0] * (n + 1)
    assert update_propagated_symmetries([(2, 2)], g, s, prob.ctx, prob.subsets, prop, next_odd) is prop
    assert prop == [0] * (n + 1)
    assert next_odd() == 3  # the entry was drawn, then dropped


def test_even_family_tie_goes_to_its_first_slot():
    # slot 1 holds the free label 3 and carries even entry 2, whose other
    # slots 2 and 3 hold the legs of one pair, both of value 1: the first
    # of them supplies the label
    ctx = build([IndexClass("dummy", 1, "symmetric"), IndexClass("free", 1)])
    g, s = bytes([3, 1, 2, 4, 5]), bytes([1, 2, 3, 4, 5])
    assert get_least_value_instances(1, [1], [(g, s)], ctx, [0, 2, 2, 2]) == (1, [[(1, 2)]])


def _zero_check(prob, entries):
    # prop indexed by initial slot; with s the identity that is the slot
    n = prob.n
    return zero_due_to_propagated_symmetries(
        prob.g_init.images, identity(n).images, prob.ctx, prob.subsets, [0] + entries
    )


def test_zero_rule_component_in_negative_family():
    _, _, prob = make_problem("tensor T rank=2", "T_{1 1}")
    assert _zero_check(prob, [-1, -1])
    assert not _zero_check(prob, [1, 1])


def test_zero_rule_even_family_in_opposite_subset():
    # A's slots form the antisymmetric subset -1; a and b hold labels
    # 1, 3 there and their partners 2, 4 in B
    _, _, prob = make_problem("tensor A rank=2 asym=1..2\ntensor B rank=2", "A_{a b} B^{a b}")
    assert prob.subsets[1:] == [-1, -1, 0, 0]
    assert _zero_check(prob, [2, 2, 0, 0])
    assert not _zero_check(prob, [-2, -2, 0, 0])  # the signs agree
    assert not _zero_check(prob, [2, 0, 2, 0])  # one leg in the subset


def test_zero_rule_pair_sign_under_metric():
    # both legs of one pair in one family: fatal when the metric sign
    # times the family sign is -1
    _, _, sym = make_problem("tensor T rank=2", "T_{a}^{a}")
    assert _zero_check(sym, [-1, -1])
    assert not _zero_check(sym, [1, 1])
    assert not _zero_check(sym, [-1, -3])  # two families
    _, _, asym = make_problem("bundle v metric=antisymmetric\ntensor T rank=2", "T_{v0}^{v0}")
    assert _zero_check(asym, [1, 1])
    assert not _zero_check(asym, [-1, -1])


def _oracle(prob):
    return brute_force_canonicalize(prob.g_init, enumerate_group(prob.S), prob.classes)


@pytest.mark.parametrize(
    "decls, expr",
    [
        ("tensor A rank=3 asym=1..3", "A_{b a}^{a}"),
        ("bundle m metric=antisymmetric\ntensor T rank=3 sym=1..3", "T_{x m1}^{m1}"),
        ("tensor A rank=3 asym=1..3", "A_{1 x 1}"),
        ("tensor A rank=2 asym=1..2", "A_{1 1}"),
        ("tensor A rank=2 asym=1..2", "A_{a}^{a}"),
        ("bundle m metric=antisymmetric\ntensor T rank=2 sym=1..2", "T_{m1}^{m1}"),
        ("tensor M rank=2 sym=1..2\ntensor A rank=2 asym=1..2", "M^{a b} A_{a b}"),
        ("bundle m metric=antisymmetric\ntensor M rank=2 sym=1..2\ntensor A rank=2 asym=1..2", "M^{m1}_{m2} A_{m1}^{m2}"),
        ("bundle n metric=none\ntensor M rank=3 sym=1..3\ntensor A rank=2 asym=1..2", "M^{n1 x n2} A_{n1 n2}"),
    ],
    ids=[
        "symmetric-metric-pair-in-asym", "antisymmetric-metric-pair-in-sym", "equal-numerals-in-asym",
        "smallest-equal-numerals-in-asym", "smallest-symmetric-metric-pair-in-asym", "smallest-antisymmetric-metric-pair-in-sym",
        "two-symmetric-metric-pairs-across-sym-and-asym", "two-antisymmetric-metric-pairs-crossed", "two-metricless-pairs",
    ],
)
def test_zero_before_the_first_pass(decls, expr):
    # τ ∈ S, the transposition of two slots or the product of two, and the
    # label element exchanging their labels carry opposite signs, so the
    # double coset holds ±g_init and no pass runs
    _, _, prob = make_problem(decls, expr)
    assert canon_fast.zero_before_search(prob.g_init.images, prob.ctx, prob.subsets)
    trace = {}
    assert prob.canonicalize(trace=trace).is_zero
    assert trace["configs_per_slot"] == []
    assert _oracle(prob).is_zero


@pytest.mark.parametrize(
    "decls, expr",
    [
        ("bundle n metric=none\ntensor A rank=3 asym=1..3", "A_{x n1}^{n1}"),
        ("tensor A rank=4 asym=1..2 asym=3..4", "A_{a x}^{a y}"),
        ("tensor A rank=3 asym=1..3", "A_{1 x 2}"),
        ("tensor T rank=3 sym=1..3", "T_{x a}^{a}"),
        ("bundle m metric=antisymmetric\ntensor A rank=3 asym=1..3", "A_{x m1}^{m1}"),
        ("tensor A rank=2 asym=1..2", "A^{a b} A_{a b}"),
        ("bundle n metric=none\ntensor M rank=2 sym=1..2\ntensor A rank=2 asym=1..2", "M^{n1}_{n2} A_{n1}^{n2}"),
    ],
    ids=["metricless-pair-in-asym", "legs-in-two-subsets", "distinct-numerals", "signs-agree-sym", "signs-agree-asym",
         "two-pairs-across-subsets-of-one-sign", "two-metricless-pairs-crossed"],
)
def test_no_zero_before_the_first_pass_for_the_twins(decls, expr):
    _, _, prob = make_problem(decls, expr)
    assert not canon_fast.zero_before_search(prob.g_init.images, prob.ctx, prob.subsets)
    trace = {}
    result = prob.canonicalize(trace=trace)
    assert len(trace["configs_per_slot"]) == prob.n
    assert result == _oracle(prob)


def test_equal_numerals_of_two_bundles_are_not_exchanged():
    # the frontend gives a numeral one bundle, so the twin of A_{1 x 1}
    # is written as classes: its two 1s form two one-label classes of
    # distinct values, which no label element exchanges
    _, _, prob = make_problem("tensor A rank=3 asym=1..3", "A_{1 x 1}")
    classes = (IndexClass("free", 1), IndexClass("component", 1), IndexClass("component", 1))
    prob = dataclasses.replace(prob, ctx=build(classes), classes=classes)
    assert not canon_fast.zero_before_search(prob.g_init.images, prob.ctx, prob.subsets)
    trace = {}
    result = prob.canonicalize(trace=trace)
    assert len(trace["configs_per_slot"]) == prob.n
    assert not result.is_zero and result == _oracle(prob)


# configuration counts after each slot pass, and their maximum, with one
# configuration kept per signed arrangement g and dummy instances keyed by
# their partner's even propagated family: a change to the search's speed
# must leave which configurations it visits alone
SEARCH_GOLDENS = {
    ("riemann", 6, 0): ([2] * 8 + [1, 1, 1, 1] + [2] * 6 + [1] * 6, 2),
    ("riemann", 6, 1): ([2, 2, 2, 2] + [1] * 20, 2),
    ("riemann", 6, 2): ([], 1),
    ("riemann", 8, 0): ([2, 2, 2, 2, 4, 4, 4, 4] + [2] * 13 + [1] * 11, 4),
    ("riemann", 8, 1): ([2, 2, 2, 2, 4, 4, 4, 4, 2, 2] + [1] * 22, 4),
    ("riemann", 8, 2): ([2, 2, 2, 2, 4, 4, 4, 4] + [2] * 8 + [1] * 16, 4),
    ("riemann", 10, 0): ([2, 2, 2, 2] + [1] * 36, 2),
    ("riemann", 10, 1): ([2, 2, 2, 2, 6, 6, 4, 4] + [2] * 12 + [1] * 8 + [2] * 5 + [1] * 7, 6),
    # 10/2, 14/1 and 16/1 are zero before the first pass: a symmetric-metric
    # dummy pair sits with both legs in one antisymmetric Riemann pair
    ("riemann", 10, 2): ([], 1),
    ("riemann", 14, 1): ([], 1),
    ("riemann", 16, 1): ([], 1),
    ("riemann", 18, 2): (
        [2, 2, 2, 2, 1, 1, 1, 1, 2, 2, 2, 2] + [4] * 8 + [2] * 8 + [4, 4, 4, 4, 8, 8, 8, 8]
        + [4] * 10 + [2] * 5 + [1] * 21,
        8,
    ),
    ("riemann", 20, 1): ([2, 2, 2, 2] + [1] * 8 + [2] * 8 + [6, 6, 4, 4, 4] + [2] * 11 + [1] * 44, 6),
    ("pairwise-frustrated", 6, 0): ([3, 3, 6, 6, 6, 6, 2, 2, 1, 1, 1, 1], 6),
}


@pytest.mark.parametrize("case", sorted(SEARCH_GOLDENS), ids=lambda c: "%s-%d-%d" % c)
def test_search_configuration_counts(case):
    trace = {}
    generate(*case).problem.canonicalize(trace=trace)
    assert (trace["configs_per_slot"], trace["max_configs"]) == SEARCH_GOLDENS[case]


def test_worked_contraction_single_branch():
    # the frustrated totally-symmetric contraction collapses to one
    # configuration per slot
    reg, mono, prob = make_problem(
        "tensor T rank=6 sym=1..6\ntensor S rank=6 sym=1..6",
        "T_{b d c f a e} S^{e b f d a c}",
    )
    trace = {}
    result = prob.canonicalize(trace=trace)
    assert trace["max_configs"] == 1
    assert trace["configs_per_slot"] == [1] * 12
    assert render(result, mono, reg) == "T_{a b c d e f} S^{a b c d e f}"


@pytest.mark.parametrize("factors, seed", [(4, 0), (4, 2), (5, 0), (5, 2), (6, 0), (6, 1)])
def test_products_of_totally_symmetric_factors_stay_narrow(factors, seed):
    # the partners met in one factor's slots share one even propagated
    # family, so the search branches once for them, not once per factor
    # holding one, which is factorial in the number of factors
    rng = random.Random(seed)
    n = 11 * factors
    names = [f"a{k}" for k in range(n // 2)]
    tokens = [(name, "d") for name in names] + [(name, "u") for name in names] + [("z", "d")] * (n % 2)
    rng.shuffle(tokens)
    expr = " ".join(factor_text("T", tokens[k : k + 11]) for k in range(0, n, 11))
    _, _, prob = make_problem("tensor T rank=11 sym=1..11", expr)
    trace = {}
    try:
        with budget(10):
            prob.canonicalize(trace=trace)
    except TimeoutError:
        pass  # a search still running after 10 s leaves no max_configs
    assert trace.get("max_configs", float("inf")) <= 2


def test_ricci_scalar_not_zero():
    # both legs of each pair inside the Riemann antisymmetric pairs:
    # exchange sign and metric sign agree, so no vanishing
    reg, mono, prob = make_problem(
        'tensor R rank=4 gens="-(1,2),+(1,3)(2,4),-(3,4)"', "R^{a b}_{a b}"
    )
    result = prob.canonicalize()
    assert not result.is_zero
    assert render(result, mono, reg) == "R^{a b}_{a b}"


def test_antisymmetric_component_zero():
    _, _, prob = make_problem("tensor A rank=2 asym=1..2", "A_{1 1}")
    assert prob.canonicalize().is_zero


def test_antisymmetric_reorder_sign():
    reg, mono, prob = make_problem("tensor A rank=2 asym=1..2", "A_{2 1}")
    assert render(prob.canonicalize(), mono, reg) == "-A_{1 2}"


def test_sym_asym_contraction_zero():
    _, _, prob = make_problem(
        "tensor M rank=2 sym=1..2\ntensor A rank=2 asym=1..2", "M^{a b} A_{a b}"
    )
    assert prob.canonicalize().is_zero


def test_propagated_jump_outside_orbit():
    # T_{abcdef} U^{edfcgh} with T symmetric on 3..6 only: placing the
    # dummies in T's subset lets the propagated entries pull partner
    # labels from U's slots even though they are outside the orbit
    reg, mono, prob = make_problem(
        "tensor T rank=6 sym=3..6\ntensor U rank=6", "T_{a b c d e f} U^{e d f c g h}"
    )
    result = prob.canonicalize()
    assert render(result, mono, reg) == "T_{a b c d e f} U^{c d e f g h}"


def test_frees_only_monomial_runs_no_update_or_zero_check(monkeypatch):
    # every label of T_{e d c b a} is free, so no pass has a label left
    # to exchange: no propagated symmetry is recorded and no zero checked
    calls = []
    for name in ("update_propagated_symmetries", "zero_due_to_propagated_symmetries"):
        helper = getattr(canon_fast, name)
        monkeypatch.setattr(canon_fast, name, lambda *args, name=name, helper=helper: calls.append(name) or helper(*args))
    reg, mono, prob = make_problem("tensor T rank=5 sym=1..5", "T_{e d c b a}")
    trace = {}
    result = prob.canonicalize(trace=trace)
    assert calls == []
    assert render(result, mono, reg) == "T_{a b c d e}"
    assert trace["configs_per_slot"] == [1] * 5
    assert not prob.ctx.live


def test_mixed_partner_subsets_regression():
    # T's antisymmetric subset holds both legs of one pair plus single
    # legs of two pairs crossing to U: instances whose partners sit in
    # different subsets are not mutually redundant and must both branch
    decls = "bundle v metric=antisymmetric\ntensor T rank=4 asym=1..4\ntensor U rank=4 asym=1..4"
    _, _, prob = make_problem(decls, "T_{v1}^{v2}^{v0}_{v0} U^{v1}^{1}_{v2}_{2}")
    fast = prob.canonicalize()
    base = butler_portugal(prob.g_init, prob.S, prob.classes)
    assert fast == base
    assert fast.g == parse_array("<3,4,5,7,1,2,6,8>|-", 8)


def test_lone_far_leg_conflict_not_zero_regression():
    # only one leg of the propagated family lands in U's symmetric
    # subset; a sign disagreement there does not force zero
    decls = "bundle v metric=antisymmetric\ntensor T rank=3 asym=1..2\ntensor U rank=3 sym=1..2"
    _, _, prob = make_problem(decls, "T_{v1}^{v0}^{v1} U_{1}_{v0}_{2}")
    fast = prob.canonicalize()
    base = butler_portugal(prob.g_init, prob.S, prob.classes)
    assert fast == base
    assert not fast.is_zero
    assert fast.g == parse_array("<3,5,4,1,6,2>|-", 6)


def test_plus_minus_collision_zero():
    # epsilon^{ab} epsilon_{ab}-style: contracting two antisymmetric
    # rank-2 tensors through a symmetric metric bundle gives zero
    _, _, prob = make_problem(
        "tensor E rank=2 asym=1..2\ntensor F rank=2 sym=1..2", "E^{a b} F_{a b}"
    )
    assert prob.canonicalize().is_zero


def test_deadline_aborts(monkeypatch):
    # two pairwise-symmetric rank-14 factors in frustrated wiring: 5040
    # configurations at the widest pass and over 100 ms of search, so a
    # 20-ms budget stops it mid-run
    prob = generate("pairwise-frustrated", 14, 0).problem
    updates = []
    update = canon_fast.update_propagated_symmetries
    monkeypatch.setattr(canon_fast, "update_propagated_symmetries", lambda *args: updates.append(1) or update(*args))
    trace = {}
    with pytest.raises(TimeoutError) as info:
        with budget(0.02):
            prob.canonicalize(trace=trace)
    frames = [(f.name, f.filename) for f in traceback.extract_tb(info.tb)]
    assert any(name == "canonicalize" and file.endswith("canon_fast.py") for name, file in frames)
    assert updates  # the search had started
    assert "configs_per_slot" not in trace  # and had not finished


def test_matches_baseline_on_random_riemann_products():
    rng = random.Random(20260823)
    decls = 'tensor R rank=4 gens="-(1,2),+(1,3)(2,4),-(3,4)"'
    for _ in range(25):
        # two Riemann factors, random full contraction
        slots = list("abcdefgh")
        rng.shuffle(slots)
        names = ["p", "q", "r", "s"]
        token = {}
        for k, name in enumerate(names):
            a, b = slots[2 * k], slots[2 * k + 1]
            token[a] = (name, "d")
            token[b] = (name, "u")
        def leg(c):
            name, var = token[c]
            return ("_{" if var == "d" else "^{") + name + "}"
        expr = "R" + "".join(leg(c) for c in "abcd") + " R" + "".join(leg(c) for c in "efgh")
        _, _, prob = make_problem(decls + "\n" + decls, expr)
        fast = prob.canonicalize()
        base = butler_portugal(prob.g_init, prob.S, prob.classes)
        assert fast == base, expr


def test_largest_monomial_canonicalizes_to_a_fixed_point():
    # 253 slots, the most a configuration's bytes can hold: eleven rank-23
    # factors wired by 126 dummy pairs and one free index; the result is
    # negative, so the sign pair reads 255, 254
    rng = random.Random(0)
    names = [f"a{k}" for k in range(126)]
    tokens = [(name, "d") for name in names] + [(name, "u") for name in names] + [("z", "d")]
    rng.shuffle(tokens)
    expr = " ".join(
        "T" + "".join(("_{" if var == "d" else "^{") + name + "}" for name, var in tokens[k : k + 23])
        for k in range(0, MAX_SLOTS, 23)
    )
    reg, mono, prob = make_problem("tensor T rank=23 asym=1..3 sym=4..5", expr)
    assert prob.n == MAX_SLOTS
    result = prob.canonicalize()
    assert tuple(result.g.images[MAX_SLOTS:]) == (255, 254)
    assert result == butler_portugal(prob.g_init, prob.S, prob.classes)
    text = render(result, mono, reg)
    assert text.startswith("-")
    mono2 = parse(text[1:], reg)
    assert render(build_problem(mono2, reg).canonicalize(), mono2, reg) == text[1:]
