import random

import pytest

from tensorcanon.bench import FAMILIES, generate
from tensorcanon.frontend import (
    FrontendError,
    Registry,
    parse,
    build_problem,
    factor_text,
    render,
)
from tensorcanon.label_context import GroupCode
from tensorcanon import frontend, perm_group
from tensorcanon.perm_group import SchreierTree, detect_symmetric_subsets, schreier_sims
from tensorcanon.signed_perm import CanonResult, SignedPermutation, inverse

from perm_text import format_cycles, parse_array


def canon_text(decls, expr):
    reg = Registry()
    reg.declare_all(decls)
    mono = parse(expr, reg)
    prob = build_problem(mono, reg)
    return render(prob.canonicalize(), mono, reg)


def test_declaration_parsing():
    reg = Registry()
    reg.declare("tensor T rank=4 sym=1..2 asym=3..4")
    decl = reg.tensors["T"]
    assert decl.rank == 4
    assert len(decl.gens) == 2
    assert decl.gens[0].sign == 1 and decl.gens[0][1] == 2
    assert decl.gens[1].sign == -1 and decl.gens[1][3] == 4


def test_declaration_gens():
    reg = Registry()
    reg.declare('tensor R rank=4 gens="-(1,2),+(1,3)(2,4),-(3,4)"')
    assert len(reg.tensors["R"].gens) == 3


def test_declaration_errors():
    reg = Registry()
    with pytest.raises(FrontendError):
        reg.declare("tensor T")  # no rank
    with pytest.raises(FrontendError):
        reg.declare("tensor T rank=3 sym=2..5")  # range off the end
    with pytest.raises(FrontendError):
        reg.declare("tensor T rank=3 color=red")
    with pytest.raises(FrontendError):
        reg.declare("bundle v")  # no metric
    with pytest.raises(FrontendError):
        reg.declare("bundle v metric=diagonal")
    with pytest.raises(FrontendError):
        reg.declare("tensor T rank=2 rank=3")  # rank given twice
    with pytest.raises(FrontendError):
        reg.declare("bundle b metric=none metric=symmetric")  # metric given twice


@pytest.mark.parametrize("line", [
    "tensor T rank=x",
    'tensor T rank=2 gens="+(1,3)"',
    "tensor T rank=0",
    "tensor T rank=-1",
    # names no expression can use: a factor starts with a letter and
    # holds letters and digits, and an index token holds letters and digits
    "tensor 2A rank=2",
    "tensor A-b rank=1",
    "bundle x_ metric=none",
    # more slots than a monomial may have (signed_perm.MAX_SLOTS)
    "tensor T rank=254",
], ids=["rank-not-a-number", "gens-point-beyond-rank", "rank-zero", "rank-negative",
        "tensor-name-leading-digit", "tensor-name-dash", "bundle-name-underscore", "rank-over-max-slots"])
def test_bad_declaration_rejected_when_declared(line):
    reg = Registry()
    with pytest.raises(FrontendError):
        reg.declare(line)
    assert not reg.tensors and not reg.bundles


def test_parse_factors_and_variance():
    reg = Registry()
    reg.declare("tensor T rank=3")
    mono = parse("T_{a b}^{c}", reg)
    assert [decl.name for decl in mono.decls] == ["T"]
    assert mono.tokens == (("a", "d"), ("b", "d"), ("c", "u"))


def test_parse_star_separator():
    reg = Registry()
    reg.declare("tensor T rank=1")
    reg.declare("tensor U rank=1")
    for expr in ("T_{a} * U^{a}", "T_{a}\nU^{a}"):
        mono = parse(expr, reg)
        assert len(mono.decls) == 2


def test_parse_errors():
    reg = Registry()
    reg.declare("tensor T rank=2")
    with pytest.raises(FrontendError):
        parse("T_{a}", reg)  # wrong arity
    with pytest.raises(FrontendError):
        parse("V_{a b}", reg)  # undeclared
    with pytest.raises(FrontendError):
        parse("T_{a a}", reg)  # repeated with same variance
    with pytest.raises(FrontendError):
        parse("T_{a b} T_{a c} T^{a d}" if False else "T_{a b}*T_{a c}*T^{a d}", reg)  # three times
    with pytest.raises(FrontendError):
        parse("", reg)
    # a numeral has one spelling: with 01 read as a second class, the
    # antisymmetric A_{1 01} would print as nonzero
    reg.declare("tensor A rank=2 asym=1..2")
    for expr in ("A_{1 01}", "T_{00 a}", "T_{a b\u00b2}"):
        with pytest.raises(FrontendError, match="malformed index token"):
            parse(expr, reg)
    assert canon_text("tensor A rank=2 asym=1..2", "A_{10 0}") == "-A_{0 10}"
    assert canon_text("tensor A rank=2 asym=1..2", "A_{1 1}") == "0"


def test_label_order_frees_components_dummies():
    reg = Registry()
    reg.declare("tensor T rank=6")
    mono = parse("T_{b 1 x}^{x}_{1 a}", reg)
    prob = build_problem(mono, reg)
    # frees a,b first; then the component class for numeral 1; then the
    # x dummy pair
    assert [text for text, _own, _pair in mono.label_info[1:]] == ["a", "b", "1", "1", "x", "x"]
    assert [(c.kind, c.size) for c in prob.classes] == [("free", 2), ("component", 2), ("dummy", 1)]
    assert prob.ctx.groups[1:3] == [GroupCode.NONE, GroupCode.NONE]
    assert prob.ctx.groups[3:5] == [GroupCode.COMPONENT, GroupCode.COMPONENT]
    assert prob.ctx.groups[5:] == [GroupCode.S_DUMMY, GroupCode.S_DUMMY]


def test_bundle_prefix_matching():
    reg = Registry()
    reg.declare_all(
        "bundle mu metric=none\nbundle m metric=antisymmetric\ntensor T rank=2"
    )
    assert reg.bundle_index("mu3") == 0  # longest prefix wins
    assert reg.bundle_index("m1") == 1
    assert reg.bundle_index("x") == 2  # implicit default bundle, after every declared one


@pytest.mark.parametrize("first, second, expected", [
    ("symmetric", "none", "S_{a1}^{a2} S^{a1}_{a2}"),
    ("none", "symmetric", "S_{a1 a2} S^{a1 a2}"),
])
def test_redeclared_bundle_replaces_the_first(first, second, expected):
    reg = Registry()
    reg.declare_all(f"bundle a metric={first}\nbundle z metric=none\nbundle a metric={second}\ntensor S rank=2 sym=1..2")
    # replaced in place: "a" keeps its position ahead of "z" in label order
    assert reg.bundle_index("a1") == 0 and reg.bundles["a"] == second
    mono = parse("S_{a1}^{a2} S_{a2}^{a1}", reg)
    prob = build_problem(mono, reg)
    assert prob.classes[0].metric == second
    assert render(prob.canonicalize(), mono, reg) == expected


def test_labels_are_fixed_at_parse():
    reg = Registry()
    reg.declare("tensor S rank=2 sym=1..2")
    mono = parse("S_{a1}^{a2} S_{a2}^{a1}", reg)
    reg.declare("bundle a metric=none")
    assert build_problem(mono, reg).classes[0].metric == "symmetric"


def test_factor_text_groups_variance_runs():
    assert factor_text("T", [("a", "d"), ("b", "d"), ("c", "u"), ("1", "d")]) == "T_{a b}^{c}_{1}"


def test_render_of_g_init_reprints_the_expression():
    # g_init gives each slot its own label, so it renders as the input;
    # the bench generator prints its expressions with factor_text too
    for family in FAMILIES:
        for size in (2, 3, 4):
            for trial in range(3):
                case = generate(family, size, trial)
                got = render(CanonResult.canonical(case.problem.g_init), case.monomial, case.registry)
                assert got == case.expression, (family, size, trial)
    reg = Registry()
    reg.declare_all("bundle a metric=none\nbundle m metric=antisymmetric\ntensor T rank=5\ntensor U rank=3")
    expr = "T_{b a1 1}^{m1 a2} U^{1}_{m1}^{a1}"
    mono = parse(expr, reg)
    assert render(CanonResult.canonical(build_problem(mono, reg).g_init), mono, reg) == expr


def test_worked_example_roundtrip():
    got = canon_text(
        "tensor T rank=6 sym=3..6\ntensor U rank=6",
        "T_{a b c d e f} U^{e d f c g h}",
    )
    assert got == "T_{a b c d e f} U^{c d e f g h}"


def test_cyclic_example():
    got = canon_text(
        'tensor T rank=3 gens="+(1,2,3)"\ntensor U rank=3 gens="+(1,2,3)"',
        "T_{c b}^{c} U^{b a}_{a}",
    )
    assert got == "T_{a}^{a}_{b} U^{b c}_{c}"


def test_zero_renders_as_zero():
    assert canon_text("tensor A rank=2 asym=1..2", "A_{1 1}") == "0"


def test_sign_prefix():
    assert canon_text("tensor A rank=2 asym=1..2", "A_{2 1}") == "-A_{1 2}"


def test_dummy_renaming_smallest_names():
    # dummies z and k collapse onto the two smallest used names in order;
    # each pair, landing on two slots of equal written variance, is
    # normalized to one lower and one upper leg through the metric
    got = canon_text("tensor T rank=4 sym=1..4", "T_{z k}^{k z}")
    assert got == "T_{k}^{k}_{z}^{z}"


def test_no_metric_bundle_keeps_variance():
    got = canon_text(
        "bundle u metric=none\ntensor T rank=2\ntensor U rank=2",
        "T_{u2 u1} U^{u1 u2}",
    )
    # pairs may be exchanged but legs never cross: each name stays with
    # one lower and one upper occurrence
    assert got == "T_{u1 u2} U^{u2 u1}"


def test_render_reparses_to_fixed_point():
    decls = "tensor T rank=6 sym=3..6\ntensor U rank=6"
    reg = Registry()
    reg.declare_all(decls)
    mono = parse("T_{a b c d e f} U^{e d f c g h}", reg)
    prob = build_problem(mono, reg)
    text = render(prob.canonicalize(), mono, reg)
    mono2 = parse(text, reg)
    prob2 = build_problem(mono2, reg)
    assert render(prob2.canonicalize(), mono2, reg) == text


def test_g_init_encoding():
    reg = Registry()
    reg.declare("tensor T rank=4")
    mono = parse("T_{b a}^{x}_{x}", reg)
    prob = build_problem(mono, reg)
    # labels: a=1, b=2, x pair=(3,4); slots read b, a, x-upper, x-lower
    assert prob.g_init == parse_array("<2,1,4,3>|+", 4)


@pytest.mark.parametrize("decls, expr, expected", [
    ("bundle a metric=none\ntensor T rank=4 sym=1..4", "T_{a1 a2}^{a1 a2}", "T_{a1}^{a1}_{a2}^{a2}"),
    ("bundle a metric=none\ntensor S rank=2 sym=1..2", "S_{a1}^{a2} S_{a2}^{a1}", "S_{a1}^{a2} S^{a1}_{a2}"),
    ("bundle a metric=none\ntensor S rank=2 sym=1..2", "S^{a2}_{a1}", "S_{a1}^{a2}"),
], ids=["dummy-pairs-one-factor", "dummy-pairs-two-factors", "frees"])
def test_no_metric_bundle_prints_own_variance(decls, expr, expected):
    # a metric=none index cannot change variance, so it carries its own
    # to whichever slot it lands on; the output is its own canonical form
    assert canon_text(decls, expr) == expected
    assert canon_text(decls, expected) == expected


def test_antisymmetric_metric_pair_prints_own_variance():
    # exchanging the legs of an antisymmetric-metric pair costs a sign,
    # so each leg keeps its variance: the sign and the printed legs agree
    decls = "bundle m metric=antisymmetric\ntensor T rank=2"
    assert canon_text(decls, "T^{m1}_{m1}") == "-T_{m1}^{m1}"
    assert canon_text(decls, "T_{m1}^{m1}") == "T_{m1}^{m1}"


@pytest.mark.xfail(strict=True, reason=(
    "free indices of a metric bundle print the variance of the slot they land on; "
    "giving free labels their own variance changes the totalsym-shared digest in "
    "perfbench/digests.json, so the fix is left for the change that re-records it"
))
def test_free_index_keeps_its_variance():
    decls = "tensor S rank=2 sym=1..2"
    assert canon_text(decls, "S^{a}_{b}") == "S^{a}_{b}"
    assert canon_text(decls, "S_{b}^{a}") == "S^{a}_{b}"


def test_no_metric_bundle_outputs_are_fixed_points():
    rng = random.Random(7)
    decls = (
        "bundle a metric=none\ntensor T rank=4 sym=1..4\n"
        'tensor R rank=4 gens="-(1,2),+(1,3)(2,4),-(3,4)"\ntensor S rank=2 asym=1..2'
    )
    reg = Registry()
    reg.declare_all(decls)
    for _ in range(40):
        tensors = [rng.choice("TRS") for _ in range(rng.randint(1, 3))]
        n = sum(reg.tensors[t].rank for t in tensors)
        names = [f"a{k}" for k in range(n // 2)] * 2 + ["b"] * (n % 2)
        variances = ["d"] * (n // 2) + ["u"] * (n // 2) + ["d"] * (n % 2)
        order = list(range(n))
        rng.shuffle(order)
        tokens = [(names[i], variances[i]) for i in order]
        parts, pos = [], 0
        for t in tensors:
            k = reg.tensors[t].rank
            parts.append(t + "".join(("_{" if v == "d" else "^{") + name + "}" for name, v in tokens[pos : pos + k]))
            pos += k
        out = canon_text(decls, " ".join(parts))
        if out != "0":
            assert canon_text(decls, out.lstrip("-")) == out.lstrip("-"), (parts, out)


def _one_schreier_sims(mono, reg):
    """The slot group from one Schreier-Sims over every factor's generators, shifted."""
    n = len(mono.tokens)
    gens = []
    offset = 0
    for decl in mono.decls:
        for g in decl.gens:
            images = list(range(1, n + 3))
            images[offset : offset + decl.rank] = [x + offset for x in g.images[: decl.rank]]
            if g.sign < 0:
                images[n], images[n + 1] = n + 2, n + 1
            gens.append(SignedPermutation(images))
        offset += decl.rank
    S = schreier_sims(n, gens)
    return S, detect_symmetric_subsets(S)


def _random_declaration(rng, name):
    rank = rng.randint(1, 5)
    kind = rng.choice(["sym", "asym", "gens", "gens", "none"])
    if kind in ("sym", "asym"):
        a = rng.randint(1, max(1, rank - 1))
        return f"tensor {name} rank={rank} {kind}={a}..{rng.randint(min(a + 1, rank), rank)}"
    if kind == "none":
        return f"tensor {name} rank={rank}"
    gens = []
    for _ in range(rng.randint(1, 3)):
        images = list(range(1, rank + 1))
        rng.shuffle(images)
        sign = rng.choice([1, -1])
        gens.append(format_cycles(SignedPermutation(images + ([rank + 1, rank + 2] if sign > 0 else [rank + 2, rank + 1]))))
    return f'tensor {name} rank={rank} gens="{",".join(gens)}"'


def test_product_chain_matches_one_schreier_sims(monkeypatch):
    rng = random.Random(3)
    minus_one = 0  # products holding -identity
    signed_reps = 0  # product representatives that move the sign pair
    sifts = []
    sift = perm_group._sift
    monkeypatch.setattr(perm_group, "_sift", lambda *args: sifts.append(args) or sift(*args))
    for trial in range(60):
        decls = [_random_declaration(rng, f"T{i}") for i in range(4)]
        # the sign level is shared across factors: a tensor that is minus
        # itself, appearing twice
        decls.append('tensor M rank=2 gens="-()"')
        reg = Registry()
        reg.declare_all("\n".join(decls))
        names = list(reg.tensors)
        factors = [rng.choice(names) for _ in range(rng.randint(1, 4))]
        if trial % 10 == 0:
            factors += ["M", "M"]
        labels = iter(f"i{k}" for k in range(100))
        expr = " ".join(t + "_{" + " ".join(next(labels) for _ in range(reg.tensors[t].rank)) + "}" for t in factors)
        mono = parse(expr, reg)
        for decl in mono.decls:
            reg.slot_group((decl,))
        # the product's known order certifies its chain: nothing is sifted
        del sifts[:]
        prob = build_problem(mono, reg)
        assert sifts == [], expr
        S_old, subsets_old = _one_schreier_sims(mono, reg)
        S = prob.S
        assert S.group_order == S_old.group_order, expr
        for level in range(1, S.degree + 1):
            assert S.orbit_of(level) == S_old.orbit_of(level), (expr, level)
            for t in S.orbit_of(level):
                u = S_old.coset_rep(level, t)
                assert S.coset_rep(level, t) == u, (expr, level, t)
                assert S.tree(level).rep_inverse(t) == inverse(u), (expr, level, t)
                signed_reps += level <= S.n and u.sign < 0
        minus = len(S_old.orbit_of(S.n + 1)) == 2
        assert S.has_minus_one == minus, expr
        if not minus:
            assert prob.subsets == subsets_old, expr
        minus_one += minus
    assert 0 < minus_one < 60
    assert signed_reps > 0


def test_redeclared_tensor_gets_a_fresh_chain():
    reg = Registry()
    reg.declare("tensor T rank=2 sym=1..2")
    old_decl = reg.tensors["T"]
    old_mono = parse("T_{b a}", reg)
    old_prob = build_problem(old_mono, reg)
    assert render(old_prob.canonicalize(), old_mono, reg) == "T_{a b}"
    # one declaration sequence, one product
    again = build_problem(parse("T^{y x}", reg), reg)
    assert again.S is old_prob.S and again.subsets is old_prob.subsets
    old = reg.products[(old_decl,)][0]
    assert old is old_prob.S
    assert old.tree(1).rep(2).images == bytes((2, 1, 3, 4))
    reg.declare("tensor T rank=2 asym=1..2")
    # the new declaration's entry is built at its first use
    assert list(reg.products) == [(old_decl,)]
    mono = parse("T_{b a}", reg)
    prob = build_problem(mono, reg)
    S = reg.products[(reg.tensors["T"],)][0]
    assert prob.S is S and prob.subsets is not old_prob.subsets
    # new trees, whose memos hold representatives of the new group
    for level in range(1, S.degree + 1):
        tree = S.tree(level)
        assert tree is not old.tree(level)
        assert all(S.contains(u) and u[level] == t for t, u in tree._reps.items())
    assert render(prob.canonicalize(), mono, reg) == "-T_{a b}"
    assert S.tree(1).rep(2).images == bytes((2, 1, 4, 3))
    # the monomial parsed before keeps its declaration, and its product
    kept = build_problem(old_mono, reg)
    assert kept.S is old_prob.S and kept.subsets is old_prob.subsets
    assert render(kept.canonicalize(), old_mono, reg) == "T_{a b}"
    assert len(reg.products) == 2


def test_slot_group_is_built_once_per_declaration(monkeypatch):
    calls = []
    built = frontend.schreier_sims
    # the two-argument call is the one perfbench's tracer wraps
    monkeypatch.setattr(frontend, "schreier_sims", lambda n, generators: calls.append(n) or built(n, generators))
    reg = Registry()
    reg.declare_all('tensor T rank=2 sym=1..2\ntensor R rank=4 gens="-(1,2),+(1,3)(2,4),-(3,4)"')
    T, R = reg.tensors["T"], reg.tensors["R"]
    alone = build_problem(parse("T_{a b}", reg), reg)
    assert calls == [2]
    prob = build_problem(parse("T_{a b} R^{a b c d}", reg), reg)
    assert calls == [2, 4]
    assert list(reg.products) == [(T,), (R,), (T, R)]
    assert reg.products[(T,)] == (alone.S, alone.subsets)
    assert reg.products[(T, R)] == (prob.S, prob.subsets)
    assert prob.S.group_order == 2 * 8
    # another order of the same declarations is a new product, of the same chains
    build_problem(parse("R_{a b c d} T^{c d}", reg), reg)
    assert calls == [2, 4]
    assert list(reg.products) == [(T,), (R,), (T, R), (R, T)]


def test_monomials_of_one_class_layout_share_one_label_context():
    decls = "bundle m metric=symmetric\ntensor T rank=4\ntensor U rank=2 sym=1..2"
    reg = Registry()
    reg.declare_all(decls)
    old_mono = parse("T_{x 1 m1}^{m1}", reg)
    first = build_problem(old_mono, reg)
    # other tensors, names and slots, but the same classes in the same order
    mono = parse("U_{y m3} U^{m3 1}", reg)
    second = build_problem(mono, reg)
    assert second.classes == first.classes
    assert second.ctx is first.ctx
    # the second monomial's search meets the contexts and tables the first one's left
    first.canonicalize()
    fresh = Registry()
    fresh.declare_all(decls)
    fresh_mono = parse("U_{y m3} U^{m3 1}", fresh)
    want = render(build_problem(fresh_mono, fresh).canonicalize(), fresh_mono, fresh)
    assert render(second.canonicalize(), mono, reg) == want
    # the bundle redeclared with another metric makes another layout
    reg.declare("bundle m metric=antisymmetric")
    third = build_problem(parse("T_{x 1 m1}^{m1}", reg), reg)
    assert third.ctx is not first.ctx
    assert len(reg.contexts) == 2
    # the monomial parsed before keeps its layout, and its context
    assert build_problem(old_mono, reg).ctx is first.ctx


def test_shared_registry_matches_a_fresh_one_per_monomial():
    shared = {}  # declarations text -> one Registry for every case that uses it
    cases = 0
    for family in FAMILIES:
        for size in range(2, 7):
            for trial in range(3):
                case = generate(family, size, trial)
                reg = shared.get(case.declarations)
                if reg is None:
                    reg = shared[case.declarations] = Registry()
                    reg.declare_all(case.declarations)
                mono = parse(case.expression, reg)
                fresh_trace, shared_trace = {}, {}
                fresh = render(case.problem.canonicalize(trace=fresh_trace), case.monomial, case.registry)
                out = render(build_problem(mono, reg).canonicalize(trace=shared_trace), mono, reg)
                assert out == fresh, (family, size, trial)
                assert shared_trace["configs_per_slot"] == fresh_trace["configs_per_slot"], (family, size, trial)
                cases += 1
    products = sum(len(reg.products) for reg in shared.values())
    assert products < cases


def _count_tree_builds_and_compositions(monkeypatch):
    """Count ``SchreierTree`` constructions and calls of ``perm_group.compose``."""
    counts = {"trees": 0, "compose": 0}
    init, compose = SchreierTree.__init__, perm_group.compose

    def counted_init(tree, *args):
        counts["trees"] += 1
        init(tree, *args)

    def counted_compose(*args):
        counts["compose"] += 1
        return compose(*args)

    monkeypatch.setattr(SchreierTree, "__init__", counted_init)
    monkeypatch.setattr(perm_group, "compose", counted_compose)
    return counts


def test_coset_representatives_are_built_once_per_declaration(monkeypatch):
    # every representative is built with its tree, so canonicalizing
    # composes none, and the second monomial builds no tree
    counts = _count_tree_builds_and_compositions(monkeypatch)
    reg = Registry()
    reg.declare("tensor T rank=8 sym=1..8")
    outputs, trees = [], []
    for expr in ("T_{a b c d e f g h}", "T_{h c g a f b e d}"):
        mono = parse(expr, reg)
        prob = build_problem(mono, reg)
        composed = counts["compose"]
        outputs.append(render(prob.canonicalize(), mono, reg))
        assert counts["compose"] == composed, expr
        trees.append(counts["trees"])
    assert 0 < trees[0] == trees[1]
    assert outputs == ["T_{a b c d e f g h}"] * 2


def test_product_representatives_are_built_once_per_product(monkeypatch):
    counts = _count_tree_builds_and_compositions(monkeypatch)
    reg = Registry()
    reg.declare("tensor T rank=4 sym=1..2")
    reg.declare('tensor R rank=4 gens="-(1,2),+(1,3)(2,4),-(3,4)"')
    products, outputs, trees = set(), [], []
    for expr in ("T_{a b c d} R^{d c e f}", "T_{d c b a} R^{e f c d}", "T_{b a c d} R^{f e d c}"):
        mono = parse(expr, reg)
        prob = build_problem(mono, reg)
        products.add(prob.S)
        composed = counts["compose"]
        outputs.append(render(prob.canonicalize(), mono, reg))
        assert counts["compose"] == composed, expr
        trees.append(counts["trees"])
    assert outputs == ["-T_{a b c d} R^{e f c d}", "0", "T_{a b c d} R^{e f c d}"]
    assert len(products) == 1
    assert 0 < trees[0] == trees[1] == trees[2]


@pytest.mark.parametrize("redeclared", ["tensor T rank=3 asym=1..3", "tensor T rank=2 asym=1..2"])
def test_monomial_keeps_the_tensor_declaration_it_was_parsed_with(redeclared):
    reg = Registry()
    reg.declare("tensor T rank=2 sym=1..2")
    mono = parse("T_{b a}", reg)
    reg.declare(redeclared)
    prob = build_problem(mono, reg)
    assert prob.S.n == 2
    assert render(prob.canonicalize(), mono, reg) == "T_{a b}"
