import traceback

import pytest

from tensorcanon.bench import budget
from tensorcanon.canon_baseline import LabelBsgs, butler_portugal
from tensorcanon.frontend import Registry, parse, build_problem, render
from tensorcanon.label_context import IndexClass
from tensorcanon.oracle import enumerate_label_group
from tensorcanon.perm_group import SchreierTree
from tensorcanon.signed_perm import compose, from_signed_cycles

from perm_text import parse_array


def make_problem(decls, expr):
    reg = Registry()
    reg.declare_all(decls)
    mono = parse(expr, reg)
    return reg, mono, build_problem(mono, reg)


def test_frustrated_contraction_counts():
    # fully contracted product of two totally symmetric rank-6 tensors
    # with maximally shuffled wiring: the classic worst case.  The
    # search tree widens by 6, 6*5, 6*5*4, ... up to 6! before the
    # later slots collapse it.
    _, _, prob = make_problem(
        "tensor T rank=6 sym=1..6\ntensor S rank=6 sym=1..6",
        "T_{b d c f a e} S^{e b f d a c}",
    )
    trace = {}
    result = butler_portugal(prob.g_init, prob.S, prob.classes, trace=trace)
    counts = trace["configs_per_slot"]
    assert counts[:6] == [6, 30, 120, 360, 720, 720]
    assert max(counts) == 720
    # total configurations examined through slot 6, counting the root
    assert 1 + sum(counts[:6]) == 1957
    assert result.g == parse_array("<1,3,5,7,9,11,2,4,6,8,10,12>", 12)


def test_frustrated_contraction_result_sorted():
    reg, mono, prob = make_problem(
        "tensor T rank=6 sym=1..6\ntensor S rank=6 sym=1..6",
        "T_{b d c f a e} S^{e b f d a c}",
    )
    result = butler_portugal(prob.g_init, prob.S, prob.classes)
    assert render(result, mono, reg) == "T_{a b c d e f} S^{a b c d e f}"


def test_antisymmetric_repeated_component_is_zero():
    _, _, prob = make_problem("tensor A rank=2 asym=1..2", "A_{1 1}")
    assert butler_portugal(prob.g_init, prob.S, prob.classes).is_zero


def test_antisymmetric_swap_collects_sign():
    reg, mono, prob = make_problem("tensor A rank=2 asym=1..2", "A_{2 1}")
    result = butler_portugal(prob.g_init, prob.S, prob.classes)
    assert not result.is_zero
    assert result.g.sign == -1
    assert render(result, mono, reg) == "-A_{1 2}"


def test_sym_antisym_contraction_is_zero():
    _, _, prob = make_problem(
        "tensor M rank=2 sym=1..2\ntensor A rank=2 asym=1..2",
        "M^{a b} A_{a b}",
    )
    assert butler_portugal(prob.g_init, prob.S, prob.classes).is_zero


def test_no_symmetry_is_identity():
    _, _, prob = make_problem("tensor T rank=3", "T_{x y z}")
    result = butler_portugal(prob.g_init, prob.S, prob.classes)
    assert result.g == prob.g_init


def orbit(L, pinned, root):
    return sorted(SchreierTree(root, L.stabilizer_gens(pinned), L.n + 2).orbit)


def test_label_group_orbits():
    # 3 metric dummy pairs: with nothing pinned, label 1 reaches the whole class
    for metric in ("symmetric", "antisymmetric"):
        L = LabelBsgs.from_classes([IndexClass("dummy", 3, metric=metric)])
        assert orbit(L, [], 1) == [1, 2, 3, 4, 5, 6]
    # without a metric, a lower leg only reaches the other lower legs
    Ln = LabelBsgs.from_classes([IndexClass("dummy", 3, metric="none")])
    assert orbit(Ln, [], 1) == [1, 3, 5]
    assert orbit(Ln, [], 2) == [2, 4, 6]


def test_stabilizer_of_pinned_labels_fixes_them():
    # pinning a leg of a 2-pair metric class keeps only generators fixing
    # it; a pair moves as a whole, so its other leg stays put as well
    L = LabelBsgs.from_classes([IndexClass("dummy", 2, metric="symmetric")])
    for pinned in ([1], [3]):
        gens = L.stabilizer_gens(pinned)
        assert len(gens) == 1, pinned
        assert all(g[b] == b for g in gens for b in pinned)
    assert L.stabilizer_gens([1, 3]) == []
    assert orbit(L, [1], 2) == [2]
    assert orbit(L, [1], 3) == [3, 4]


def test_pinning_another_class_keeps_its_generators():
    # labels in different component classes have no exchanging element;
    # pinning label 3 drops only its own class's transposition
    L = LabelBsgs.from_classes([IndexClass("component", 2), IndexClass("component", 2)])
    assert L.stabilizer_gens([3]) == [g for g in L.gens if g[1] != 1]
    assert L.stabilizer_gens([1]) == [g for g in L.gens if g[3] != 3]
    assert orbit(L, [3], 1) == [1, 2]


def test_orbit_reps_are_group_elements():
    classes = [IndexClass("free", 1), IndexClass("dummy", 2, metric="antisymmetric")]
    L = LabelBsgs.from_classes(classes)
    group = set(enumerate_label_group(classes, L.n))
    tree = SchreierTree(2, L.stabilizer_gens([]), L.n + 2)
    for t in sorted(tree.orbit):
        u = tree.rep(t)
        assert u[2] == t
        # reps are words in the structural generators, hence in L,
        # so pairs move together
        assert u in group
        for lo in (2, 4):
            hi = lo + 1
            assert {u[lo], u[hi]} in ({2, 3}, {4, 5})


def test_trace_reports_max_configs():
    trace = {}
    _, _, prob = make_problem(
        "tensor T rank=4 sym=1..4\ntensor S rank=4 sym=1..4",
        "T_{b d a c} S^{c a d b}",
    )
    butler_portugal(prob.g_init, prob.S, prob.classes, trace=trace)
    assert trace["max_configs"] == max(trace["configs_per_slot"])
    assert trace["max_configs"] == 24


def test_deadline_aborts():
    _, _, prob = make_problem(
        "tensor T rank=7 sym=1..7\ntensor S rank=7 sym=1..7",
        "T_{b d c f a e g} S^{e b f d g a c}",
    )
    # up to 7! configurations per slot, a quarter of a second of search:
    # a 10-ms budget stops it inside the engine
    trace = {}
    with pytest.raises(TimeoutError) as info:
        with budget(0.01):
            butler_portugal(prob.g_init, prob.S, prob.classes, trace=trace)
    assert "butler_portugal" in [f.name for f in traceback.extract_tb(info.tb)]
    assert trace == {}  # the run never reached its end


def test_minus_one_in_the_slot_group_vanishes():
    # -(1,2,3) cubed is -1: every slot arrangement equals its own negative,
    # also in a product with the consistent factor T
    decls = 'tensor T rank=2 sym=1..2\ntensor V rank=3 gens="-(1,2,3)"'
    for expr in ("V_{a b c}", "T_{a b} V^{a b c}", "V_{a b c} T^{a b}"):
        _, _, prob = make_problem(decls, expr)
        assert prob.S.has_minus_one
        base, fast = {}, {}
        assert butler_portugal(prob.g_init, prob.S, prob.classes, trace=base).is_zero
        assert prob.canonicalize(trace=fast).is_zero
        assert base["configs_per_slot"] == fast["configs_per_slot"] == [], expr

