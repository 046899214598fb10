import traceback

import pytest

from tensorcanon.bench import budget
from tensorcanon.canon_baseline import LabelBsgs, butler_portugal
from tensorcanon.frontend import Registry, parse, build_problem, render
from tensorcanon.label_context import IndexClass
from tensorcanon.signed_perm import compose, from_signed_cycles, parse_array


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
    result = butler_portugal(prob.g_init, prob.S, prob.label_bsgs(), trace=trace)
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
    result = butler_portugal(prob.g_init, prob.S, prob.label_bsgs())
    assert render(result, mono, reg) == "T_{a b c d e f} S^{a b c d e f}"


def test_antisymmetric_repeated_component_is_zero():
    _, _, prob = make_problem("tensor A rank=2 asym=1..2", "A_{1 1}")
    assert butler_portugal(prob.g_init, prob.S, prob.label_bsgs()).is_zero


def test_antisymmetric_swap_collects_sign():
    reg, mono, prob = make_problem("tensor A rank=2 asym=1..2", "A_{2 1}")
    result = butler_portugal(prob.g_init, prob.S, prob.label_bsgs())
    assert not result.is_zero
    assert result.g.sign == -1
    assert render(result, mono, reg) == "-A_{1 2}"


def test_sym_antisym_contraction_is_zero():
    _, _, prob = make_problem(
        "tensor M rank=2 sym=1..2\ntensor A rank=2 asym=1..2",
        "M^{a b} A_{a b}",
    )
    assert butler_portugal(prob.g_init, prob.S, prob.label_bsgs()).is_zero


def test_no_symmetry_is_identity():
    _, _, prob = make_problem("tensor T rank=3", "T_{x y z}")
    result = butler_portugal(prob.g_init, prob.S, prob.label_bsgs())
    assert result.g == prob.g_init


def test_label_chain_orbits():
    # 3 metric dummy pairs: level-1 orbit of label 1 is the whole class
    L = LabelBsgs.from_classes([IndexClass("dummy", 3, metric="symmetric")])
    tree = L.orbit_tree(1, 1)
    assert sorted(tree.orbit) == [1, 2, 3, 4, 5, 6]
    # without a metric, a lower leg only reaches the other lower legs
    Ln = LabelBsgs.from_classes([IndexClass("dummy", 3, metric="none")])
    assert sorted(Ln.orbit_tree(1, 1).orbit) == [1, 3, 5]
    assert sorted(Ln.orbit_tree(1, 2).orbit) == [2, 4, 6]


def test_reorder_base_conjugation_keeps_chain():
    # moving label 3 to the front of a 2-pair metric class conjugates
    # the generators; the new level-2 stabilizer must fix 3
    L = LabelBsgs.from_classes([IndexClass("dummy", 2, metric="symmetric")])
    L2 = L.reorder_base(1, 3)
    assert L2.base[0] == 3
    for g in L2.level_gens(2):
        assert g[3] == 3


def test_reorder_base_across_classes_repositions():
    # labels in different component classes have no exchanging element;
    # the base point is repositioned instead of conjugating
    L = LabelBsgs.from_classes([IndexClass("component", 2), IndexClass("component", 2)])
    L2 = L.reorder_base(1, 3)
    assert L2.base[0] == 3
    # generators are untouched: conjugating by a cross-class swap would
    # leave the chain claiming exchanges that L does not contain
    assert L2.gens == L.gens


def test_orbit_reps_are_group_elements():
    L = LabelBsgs.from_classes(
        [IndexClass("free", 1), IndexClass("dummy", 2, metric="antisymmetric")]
    )
    tree = L.orbit_tree(1, 2)
    for t in sorted(tree.orbit):
        u = tree.rep(t)
        assert u[2] == t
        # reps are words in the structural generators, hence in L
        # (spot-check: pairs move together)
        for lo in (2, 4):
            hi = lo + 1
            assert {u[lo], u[hi]} in ({2, 3}, {4, 5})


def test_trace_reports_max_configs():
    trace = {}
    _, _, prob = make_problem(
        "tensor T rank=4 sym=1..4\ntensor S rank=4 sym=1..4",
        "T_{b d a c} S^{c a d b}",
    )
    butler_portugal(prob.g_init, prob.S, prob.label_bsgs(), trace=trace)
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
            butler_portugal(prob.g_init, prob.S, prob.label_bsgs(), trace=trace)
    assert "butler_portugal" in [f.name for f in traceback.extract_tb(info.tb)]
    assert trace == {}  # the run never reached its end


def test_minus_one_in_the_slot_group_vanishes():
    # -(1,2,3) cubed is -1: every slot arrangement equals its own negative
    _, _, prob = make_problem('tensor V rank=3 gens="-(1,2,3)"', "V_{a b c}")
    assert prob.subsets.inconsistent
    trace = {}
    assert butler_portugal(prob.g_init, prob.S, prob.label_bsgs(), trace=trace).is_zero
    assert trace["configs_per_slot"] == []
    assert prob.canonicalize().is_zero
