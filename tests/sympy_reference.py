"""SymPy's Butler-Portugal canonicalizer as an independent reference.

``sympy.combinatorics.tensor_can.canonicalize`` solves the engines'
problem with its own Schreier-Sims and its own double-coset search, in
the same conventions: array form slot -> label with the sign pair last,
the lexicographic minimum, each dummy pair's legs on adjacent labels.
So its output can be compared with an engine's byte for byte.

SymPy is imported on use: importing this module does not need it.
"""

from tensorcanon.signed_perm import CanonResult, SignedPermutation

# SymPy's msym for a dummy class of each metric
MSYM = {"symmetric": 0, "antisymmetric": 1, "none": None}


def sympy_supports(prob):
    """Whether SymPy answers ``prob`` (a ``frontend.CanonProblem``) correctly.

    SymPy has no component indices, and it misses -1 in the slot group,
    where the engines give 0 at once.
    """
    return not prob.S.has_minus_one and all(c.kind != "component" for c in prob.classes)


def sympy_canonicalize(g, monomial):
    """SymPy's canonical form of configuration ``g`` of ``monomial``
    (a ``frontend.TensorMonomial``), as a ``CanonResult``.

    Labels shift to 0-based.  Each dummy class gives one dummy list,
    with msym 0, 1 or None by metric; a single class is passed flat.
    Each factor gives one ``(base, gens, 1, 0)``, a strong generating
    set of its declaration's group, so equal factors are not exchanged.
    """
    from sympy.combinatorics import Permutation, PermutationGroup
    from sympy.combinatorics.tensor_can import canonicalize

    dummies, msym = [], []
    label = 0
    for c in monomial.classes:
        if c.kind == "component":
            raise ValueError("SymPy has no component indices")
        if c.kind == "dummy":
            dummies.append(list(range(label, label + 2 * c.size)))
            msym.append(MSYM[c.metric])
            label += 2 * c.size
        else:
            label += c.size
    if len(dummies) == 1:
        dummies, msym = dummies[0], msym[0]
    factors = []
    for decl in monomial.decls:
        gens = [Permutation([x - 1 for x in s.images]) for s in decl.gens] or [Permutation(decl.rank + 1)]
        base, strong = PermutationGroup(gens).schreier_sims_incremental()
        factors.append((base, strong, 1, 0))
    can = canonicalize(Permutation([x - 1 for x in g.images]), dummies, msym, *factors)
    if can == 0:
        return CanonResult.zero()
    return CanonResult.canonical(SignedPermutation(bytes(x + 1 for x in can)))
