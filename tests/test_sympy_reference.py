"""Both engines against SymPy's Butler-Portugal canonicalizer, byte for byte.

SymPy's ``tensor_can.canonicalize`` is an independent implementation of
the same problem (see ``sympy_reference``), so it checks the engines
above the oracle's reach.  Problems with component indices or with -1
in the slot group are left out (``sympy_supports``).  Every case is
seeded, so a failure reproduces.
"""

import dataclasses
import random

import pytest

pytest.importorskip("sympy")

from tensorcanon.bench import FAMILIES, generate
from tensorcanon.canon_baseline import butler_portugal
from tensorcanon.frontend import Registry, build_problem, parse
from tensorcanon.signed_perm import compose

from sympy_reference import sympy_canonicalize, sympy_supports
from test_invariance import random_mixed_problem, random_moves

# beyond the small grid, each within about 0.15 s in SymPy; totalsym-random
# k >= 14 and totalsym-many k >= 8 take SymPy from 2 to over 200 s
LARGE_CASES = (
    [("riemann", k) for k in (8, 12, 16)]
    + [(family, k) for family in ("pairwise-random", "nosym-dummies", "cyclic-dummies", "sym-frees") for k in (16, 32)]
    + [("totalsym-frustrated", 6), ("totalsym-frustrated", 7)]
)


def assert_engines_match_sympy(g, prob, monomial, context):
    want = sympy_canonicalize(g, monomial)
    assert dataclasses.replace(prob, g_init=g).canonicalize() == want, context
    assert butler_portugal(g, prob.S, prob.classes) == want, context
    return want


def test_bench_families_small():
    checked = 0
    for family in FAMILIES:
        for size in range(1, 7):
            for trial in range(2):
                case = generate(family, size, trial)
                if sympy_supports(case.problem):
                    assert_engines_match_sympy(case.problem.g_init, case.problem, case.monomial, (family, size, trial))
                    checked += 1
    assert checked == 108, checked


@pytest.mark.parametrize("family, size", LARGE_CASES)
def test_bench_families_large(family, size):
    case = generate(family, size, 0)
    assert sympy_supports(case.problem)
    assert_engines_match_sympy(case.problem.g_init, case.problem, case.monomial, (family, size))


def test_mixed_bundles_with_moves():
    # mixed bundles without components, each start configuration and
    # three moves l∘g∘s of it
    rng = random.Random(13)
    kinds = set()
    checked = zeros = 0
    for trial in range(600):
        decls, expr = random_mixed_problem(rng, 16)
        registry = Registry()
        registry.declare_all(decls)
        monomial = parse(expr, registry)
        prob = build_problem(monomial, registry)
        if not sympy_supports(prob):
            continue
        kinds.update((c.kind, c.metric) for c in prob.classes)
        moved = [compose(l, compose(prob.g_init, s)) for l, s in random_moves(prob, rng, 3)]
        for g in [prob.g_init, *moved]:
            zeros += assert_engines_match_sympy(g, prob, monomial, (trial, decls, expr, g)).is_zero
            checked += 1
    assert {("dummy", "none"), ("dummy", "antisymmetric"), ("dummy", "symmetric")} <= kinds
    assert checked > 600 and 0 < zeros < checked, (checked, zeros)
