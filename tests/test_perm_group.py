import itertools
import random

from hypothesis import given, settings, strategies as st

from tensorcanon.signed_perm import SignedPermutation, identity, from_signed_cycles, compose, inverse, parse_cycles
import pytest

from tensorcanon import perm_group
from tensorcanon.perm_group import Bsgs, direct_product, schreier_sims, detect_symmetric_subsets


def close_group(n, gens):
    """Naive closure, for cross-checking the BSGS on small groups."""
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


def closure_subsets(n, elems):
    """(entries, has -identity) expected of the chain, from the closure.

    Slots joined by a signed transposition in ``elems`` form a class;
    classes of at least 2 slots are numbered left to right and carry the
    sign of their transpositions.  With -identity in the group the
    entries are unspecified, and None here.
    """
    if identity(n).negated().images in elems:
        return None, True
    least = list(range(n + 1))  # slot -> least slot of its class
    sign = {}
    for i, j in itertools.combinations(range(1, n + 1), 2):
        for s in (1, -1):
            if from_signed_cycles(n, s, [(i, j)]).images in elems:
                lo, hi = sorted((least[i], least[j]))
                least = [lo if c == hi else c for c in least]
                sign[lo] = s
    numbers = {}
    entries = []
    for i in range(1, n + 1):
        if least.count(least[i]) < 2:
            entries.append(0)
            continue
        numbers.setdefault(least[i], len(numbers) + 1)
        entries.append(sign[least[i]] * numbers[least[i]])
    return entries, False


def _detected(S):
    return (None if S.has_minus_one else detect_symmetric_subsets(S)[1:]), S.has_minus_one


def sugar_gens(n, ranges):
    """Adjacent transpositions of sign s on slots a..b, for each (s, a, b) in ``ranges``."""
    return [from_signed_cycles(n, s, [(i, i + 1)]) for s, a, b in ranges for i in range(a, b)]


def riemann_gens(n=4, offset=0):
    sh = lambda c: tuple(x + offset for x in c)
    return [
        from_signed_cycles(n, -1, [sh((1, 2))]),
        from_signed_cycles(n, 1, [sh((1, 3)), sh((2, 4))]),
        from_signed_cycles(n, -1, [sh((3, 4))]),
    ]


def test_riemann_group_order():
    S = schreier_sims(4, riemann_gens())
    assert S.group_order == 8
    orbit_sizes = [len(S.orbit_of(i)) for i in range(1, 7)]
    assert orbit_sizes == [4, 1, 2, 1, 1, 1]


def test_riemann_membership():
    S = schreier_sims(4, riemann_gens())
    elems = close_group(4, riemann_gens())
    assert len(elems) == 8
    # every element of the closure sifts to the identity
    for imgs in elems:
        assert S.contains(SignedPermutation(imgs))
    # and things outside do not
    assert not S.contains(from_signed_cycles(4, 1, [(1, 2)]))
    assert not S.contains(from_signed_cycles(4, -1, [(1, 3), (2, 4)]))
    assert not S.contains(identity(4).negated())


def test_coset_rep_maps_base_to_target():
    S = schreier_sims(4, riemann_gens())
    for t in S.orbit_of(1):
        u = S.coset_rep(1, t)
        assert u[1] == t
        assert S.contains(u)


def test_symmetric_group_order():
    # adjacent transpositions generate S_k
    for k in [3, 4, 5]:
        gens = [from_signed_cycles(k, 1, [(i, i + 1)]) for i in range(1, k)]
        S = schreier_sims(k, gens)
        assert S.group_order == len(list(itertools.permutations(range(k))))


def test_stabilizer_levels_fix_prefix():
    S = schreier_sims(6, [from_signed_cycles(6, 1, [(i, i + 1)]) for i in range(1, 6)])
    for lvl in range(1, 7):
        for g in S.generators(lvl):
            for p in range(1, lvl):
                assert g[p] == p


def test_detect_subsets_mixed():
    # slots 1-2 form nothing, 3-6 totally symmetric:
    # T with sym=3..6 on 6 slots
    n = 6
    gens = [from_signed_cycles(n, 1, [(i, i + 1)]) for i in range(3, 6)]
    S = schreier_sims(n, gens)
    assert detect_symmetric_subsets(S)[1:] == [0, 0, 1, 1, 1, 1]


def test_detect_subsets_antisymmetric_pairs():
    # two antisymmetric pairs on 4 slots
    n = 4
    gens = [from_signed_cycles(n, -1, [(1, 2)]), from_signed_cycles(n, -1, [(3, 4)])]
    S = schreier_sims(n, gens)
    assert detect_symmetric_subsets(S)[1:] == [-1, -1, -2, -2]


def test_detect_subsets_two_factor():
    # symmetric quadruple then two antisymmetric subsets
    n = 10
    gens = (
        [from_signed_cycles(n, 1, [(i, i + 1)]) for i in range(3, 6)]
        + [from_signed_cycles(n, -1, [(7, 8)])]
        + [from_signed_cycles(n, -1, [(9, 10)])]
    )
    S = schreier_sims(n, gens)
    assert detect_symmetric_subsets(S)[1:] == [0, 0, 1, 1, 1, 1, -2, -2, -3, -3]


def test_detect_subsets_inconsistent():
    # an antisymmetric pair together with the same pair symmetric forces
    # -identity into the group
    n = 4
    gens = [from_signed_cycles(n, -1, [(1, 2)]), from_signed_cycles(n, 1, [(1, 2)])]
    S = schreier_sims(n, gens)
    assert S.has_minus_one
    assert not schreier_sims(n, gens[:1]).has_minus_one


def test_product_strong_generators_are_members_fixing_their_prefix():
    sym = schreier_sims(4, sugar_gens(4, [(1, 1, 4)]))
    riemann = schreier_sims(4, riemann_gens())
    minus = schreier_sims(2, [identity(2).negated()])
    for chains, order in (([sym, riemann], 24 * 8), ([riemann, sym, minus], 8 * 24 * 2), ([minus, riemann, minus], 2 * 8)):
        S = direct_product(chains)
        assert S.group_order == order
        assert S.generators(1)
        for level in range(1, S.degree + 1):
            for g in S.generators(level):
                assert S.contains(g)
                assert all(g[p] == p for p in range(1, level))


def test_riemann_subsets():
    S = schreier_sims(4, riemann_gens())
    # the pair swap (1,3)(2,4) is not a pair transposition, and -(1,2)
    # and -(3,4) are antisymmetric pairs
    assert detect_symmetric_subsets(S)[1:] == [-1, -1, -2, -2]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(["-(1,2)", "+(1,3)(2,4)", "-(3,4)", "+(2,3)", "-(1,4)"]), min_size=1, max_size=3))
def test_order_matches_closure(cycle_texts):
    gens = [parse_cycles(t, 4) for t in cycle_texts]
    S = schreier_sims(4, gens)
    elems = close_group(4, gens)
    assert S.group_order == len(elems)
    for imgs in elems:
        assert S.contains(SignedPermutation(imgs))
    assert _detected(S) == closure_subsets(4, elems)


def test_subsets_match_closure_on_random_groups():
    rng = random.Random(5)
    inconsistent = found = 0
    for _ in range(300):
        n = rng.randint(2, 7)
        gens = []
        for _ in range(rng.randint(1, 3)):
            images = list(range(1, n + 1))
            if rng.random() < 0.5:
                i, j = rng.sample(range(n), 2)
                images[i], images[j] = images[j], images[i]
            else:
                rng.shuffle(images)
            sign = rng.choice([(n + 1, n + 2), (n + 2, n + 1)])
            gens.append(SignedPermutation(tuple(images) + sign))
        expected = closure_subsets(n, close_group(n, gens))
        assert _detected(schreier_sims(n, gens)) == expected, gens
        inconsistent += expected[1]
        found += any(expected[0] or ())
    assert 0 < inconsistent < found


def test_subset_detection_sifts_only_orbit_points(monkeypatch):
    calls = []
    contains = Bsgs.contains
    monkeypatch.setattr(Bsgs, "contains", lambda self, g: calls.append(g) or contains(self, g))
    S = schreier_sims(253, [])
    assert detect_symmetric_subsets(S)[1:] == [0] * 253
    assert len(calls) == 0
    S = schreier_sims(32, [from_signed_cycles(32, 1, [(i, i + 1)]) for i in range(1, 32)])
    assert detect_symmetric_subsets(S)[1:] == [1] * 32
    assert len(calls) <= 31


# sym=1..8, asym=1..20, sym=1..10 asym=11..20, sym=1..32, sym=2..4 asym=5..7
SUGAR = [
    (8, [(1, 1, 8)]),
    (20, [(-1, 1, 20)]),
    (20, [(1, 1, 10), (-1, 11, 20)]),
    (32, [(1, 1, 32)]),
    (7, [(1, 2, 4), (-1, 5, 7)]),
]


def _chain_data(S):
    """Orbits and coset representatives level by level, order and -identity."""
    levels = [(S.orbit_of(lvl), [S.coset_rep(lvl, t) for t in S.orbit_of(lvl)]) for lvl in range(1, S.degree + 1)]
    return levels, S.group_order, S.has_minus_one


def _counting_sifts(monkeypatch):
    sifts = []
    sift = perm_group._sift
    monkeypatch.setattr(perm_group, "_sift", lambda *args: sifts.append(args) or sift(*args))
    return sifts


@pytest.mark.parametrize("n, ranges", SUGAR)
def test_known_order_certifies_the_chain_without_verifying(n, ranges, monkeypatch):
    gens = sugar_gens(n, ranges)
    verified = schreier_sims(n, gens)
    sifts = _counting_sifts(monkeypatch)
    certified = schreier_sims(n, gens, verified.group_order)
    assert sifts == []
    assert _chain_data(certified) == _chain_data(verified)
    assert detect_symmetric_subsets(certified) == detect_symmetric_subsets(verified)


@pytest.mark.parametrize("n, ranges", SUGAR)
def test_wrong_order_falls_back_to_verification(n, ranges, monkeypatch):
    gens = sugar_gens(n, ranges)
    verified = schreier_sims(n, gens)
    order = verified.group_order
    sifts = _counting_sifts(monkeypatch)
    for wrong in (2 * order, order // 2, 1):
        del sifts[:]
        S = schreier_sims(n, gens, wrong)
        assert sifts
        assert _chain_data(S) == _chain_data(verified)


def _walked_rep(root, gens, target, n):
    """The representative of ``target`` by the textbook walk: BFS edges
    recorded per point, then the generators on the path from the target
    back to the root composed as g_k ∘ ... ∘ g_1."""
    edges = {root: None}
    frontier = [root]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                if g[p] not in edges:
                    edges[g[p]] = (p, g)
                    nxt.append(g[p])
        frontier = nxt
    u = identity(n)
    while target != root:
        target, g = edges[target]
        u = compose(u, g)
    return u


@pytest.mark.parametrize("n, texts", [
    (4, ["-(1,2)", "+(1,3)(2,4)", "-(3,4)"]),
    (6, ["+(1,2,3,4,5,6)", "-(1,2)"]),
    (7, ["+(2,5)(3,7)", "+(1,4,6)", "-(5,6,7)"]),
])
def test_schreier_tree_holds_its_transversal_from_construction(n, texts, monkeypatch):
    gens = [parse_cycles(t, n) for t in texts]
    for root in range(1, n + 2):
        tree = perm_group.SchreierTree(root, gens, n + 2)
        calls = []
        monkeypatch.setattr(perm_group, "compose", lambda *args: calls.append(args))
        reps = [tree.rep(t) for t in tree.orbit]
        monkeypatch.undo()
        assert calls == []  # every representative is a lookup
        assert tree.orbit[0] == root and reps[0] == identity(n)
        for t, u in zip(tree.orbit, reps):
            assert u[root] == t
            assert u == _walked_rep(root, gens, t, n)
            assert tree.rep_inverse(t) == inverse(u)
        outside = next((p for p in range(1, n + 3) if p not in tree), None)
        if outside is not None:
            with pytest.raises(KeyError):
                tree.rep(outside)
