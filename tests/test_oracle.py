import os
import random
import subprocess
import sys

import pytest

import tensorcanon
from tensorcanon import oracle
from tensorcanon.canon_baseline import butler_portugal
from tensorcanon.frontend import Registry, parse, build_problem
from tensorcanon.label_context import IndexClass
from tensorcanon.oracle import (
    brute_force_canonicalize,
    enumerate_group,
    enumerate_label_group,
)
from tensorcanon.perm_group import schreier_sims
from tensorcanon.signed_perm import compose, from_signed_cycles, identity


def make_problem(decls, expr):
    reg = Registry()
    reg.declare_all(decls)
    mono = parse(expr, reg)
    return build_problem(mono, reg)


def brute_force(prob):
    return brute_force_canonicalize(prob.g_init, enumerate_group(prob.S), prob.classes)


def test_label_group_sizes():
    # 3 metric pairs: 3! pair permutations x 2^3 leg swaps
    assert len(enumerate_label_group([IndexClass("dummy", 3, metric="symmetric")], 6)) == 48
    # 4 repeated component labels: plain S4
    assert len(enumerate_label_group([IndexClass("component", 4)], 4)) == 24
    # without a metric the legs cannot swap
    assert len(enumerate_label_group([IndexClass("dummy", 3, metric="none")], 6)) == 6
    # free labels contribute nothing
    assert len(enumerate_label_group([IndexClass("free", 5)], 5)) == 1


def test_antisymmetric_flips_carry_sign():
    elems = enumerate_label_group([IndexClass("dummy", 2, metric="antisymmetric")], 4)
    assert len(elems) == 8
    assert sum(1 for e in elems if e.sign < 0) == 4


def test_slot_group_enumeration_matches_order():
    gens = [
        from_signed_cycles(4, -1, [(1, 2)]),
        from_signed_cycles(4, 1, [(1, 3), (2, 4)]),
        from_signed_cycles(4, -1, [(3, 4)]),
    ]
    bsgs = schreier_sims(4, gens)
    enum = list(enumerate_group(bsgs))
    assert len(enum) == bsgs.group_order == 8
    assert len({e.images for e in enum}) == 8
    for e in enum:
        assert bsgs.contains(e)


MEMORY_PROBE = """
import resource
from tensorcanon.bench import generate, oracle_result
from tensorcanon.oracle import brute_force_canonicalize, enumerate_group
case = generate("totalsym-frustrated", 6, 0)
problem = case.problem
start = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
walked = oracle_result(case)
grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - start
listed = brute_force_canonicalize(problem.g_init, list(enumerate_group(problem.S)), problem.classes)
print(problem.S.group_order, walked == listed, grown)
"""


def test_slot_group_walk_keeps_peak_memory_flat():
    # |S| = 518400: a list of every element took peak RSS from about 19 to
    # 76 MB, while the depth-first walk keeps only the current path; a fresh
    # interpreter measures the peak (ru_maxrss, in KiB on Linux) alone
    src = os.path.dirname(os.path.dirname(tensorcanon.__file__))
    proc = subprocess.run([sys.executable, "-c", MEMORY_PROBE], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    order, same, grown_kib = proc.stdout.split()
    assert (order, same) == ("518400", "True")
    assert int(grown_kib) < 10 * 1024, grown_kib


def test_enumeration_cap():
    gens = [from_signed_cycles(8, 1, [(i, i + 1)]) for i in range(1, 8)]
    bsgs = schreier_sims(8, gens)
    with pytest.raises(ValueError):
        enumerate_group(bsgs, cap=1000)
    with pytest.raises(ValueError):
        enumerate_label_group([IndexClass("component", 8)], 8, cap=1000)


def test_label_group_cap_is_checked_before_any_element_is_built(monkeypatch):
    # eight symmetric-metric pairs, as in riemann k = 4: 8!·2^8 elements,
    # refused from the class sizes before any option list is built
    def refuse(*args, **kwargs):
        raise AssertionError("an element was built")

    monkeypatch.setattr(oracle.itertools, "permutations", refuse)
    monkeypatch.setattr(oracle.itertools, "product", refuse)
    with pytest.raises(ValueError, match="label group order 10321920 exceeds cap 1000000"):
        enumerate_label_group([IndexClass("free", 2), IndexClass("dummy", 8, metric="symmetric")], 18)


def test_double_coset_invariance():
    # the brute-force minimum is a class function on L*g*S: conjugating
    # the start configuration by random group elements never changes it
    prob = make_problem(
        "tensor T rank=4 sym=1..2 asym=3..4", "T_{p q}^{q}_{r}"
    )
    S_elems = list(enumerate_group(prob.S))
    L_elems = enumerate_label_group(prob.classes, prob.n)
    base = brute_force_canonicalize(prob.g_init, S_elems, prob.classes)
    rng = random.Random(7)
    for _ in range(20):
        l = rng.choice(L_elems)
        s = rng.choice(S_elems)
        moved = compose(l, compose(prob.g_init, s))
        assert brute_force_canonicalize(moved, S_elems, prob.classes) == base


def test_oracle_detects_sym_antisym_zero():
    prob = make_problem(
        "tensor M rank=2 sym=1..2\ntensor A rank=2 asym=1..2", "M^{a b} A_{a b}"
    )
    assert brute_force(prob).is_zero


def test_oracle_agrees_with_engines_spot_check():
    cases = [
        ("tensor T rank=3 sym=1..3", "T_{c a b}"),
        ("tensor A rank=2 asym=1..2", "A_{2 1}"),
        ("tensor T rank=4 sym=3..4", "T_{a b}^{b a}"),
        ("bundle u metric=none\ntensor T rank=2\ntensor U rank=2", "T_{u2 u1} U^{u1 u2}"),
    ]
    for decls, expr in cases:
        prob = make_problem(decls, expr)
        expected = brute_force(prob)
        assert prob.canonicalize() == expected, expr
        assert butler_portugal(prob.g_init, prob.S, prob.classes) == expected, expr
