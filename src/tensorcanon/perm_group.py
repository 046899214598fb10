"""Permutation groups over signed permutations: BSGS, orbits, membership.

The base is always the complete position-ordered base <1, 2, ..., n+2>.
Redundant levels (orbit size 1) are kept so that level i always
stabilizes exactly the points 1..i-1; this is what the canonicalization
engines rely on when they ask for "the stabilizer of the first i-1
slots".

Every chain is built by :func:`schreier_sims`, and every level's tree is
a :class:`SchreierTree`.  Trees are built breadth-first with generators
tried in ascending index order, which makes coset representatives
deterministic.  Each tree holds its whole transversal from construction:
the BFS builds a point's representative when it finds the point.  Only
an inverse is built the first time it is asked for, and kept; a kept
permutation keeps the ``bytes.translate`` table
:attr:`SignedPermutation.table` builds on its first composition, so a
generator or an inverse representative is composed through one table
however often it is used.
Everything else is read off the chain: membership sifts through the
trees (:func:`_sift`, shared with Schreier-Sims), whether -identity is
a member (:attr:`Bsgs.has_minus_one`) from the sign level, and the
symmetric subsets from the orbits (:func:`detect_symmetric_subsets`).

A group acting on consecutive slot blocks that share only the sign (the
slot group of a tensor monomial, one block per factor) is built by
:func:`direct_product`: Schreier-Sims over the blocks' strong generators
shifted into place, given the product's order, which certifies the
chain without verification.  Its symmetric subsets come from each
block's own by :func:`product_subsets`, without subset detection over
the whole product.
"""

from __future__ import annotations

from .signed_perm import SignedPermutation, identity, from_signed_cycles, compose, inverse


class SchreierTree:
    """BFS orbit tree rooted at ``root`` over a fixed generator list.

    The tree holds its whole transversal from construction: when
    generator g first takes orbit point p to a new point t, the BFS
    keeps ``reps[t] = g ∘ reps[p]``, so :meth:`rep` is a lookup.  Only
    :meth:`rep_inverse`, which sifting composes with, is built the first
    time it is asked for and kept.  Both are deterministic and immutable
    for a fixed generator list, and Schreier-Sims builds a new tree
    whenever a level's generators change, so a memo never outlives the
    generators it was built from.  A chain keeps its trees, so every
    monomial that shares a slot chain (``frontend.Registry.products``)
    shares them.
    """

    def __init__(self, root, gens, degree):
        # a dict keeps insertion order, which is BFS order
        self._reps = reps = {root: identity(degree - 2)}
        self._inverses = {}
        frontier = [root]
        while frontier:
            nxt = []
            for p in frontier:
                u = reps[p]
                for g in gens:
                    t = g.images[p - 1]
                    if t not in reps:
                        reps[t] = compose(g, u)
                        nxt.append(t)
            frontier = nxt
        self.orbit = tuple(reps)

    def __contains__(self, point):
        return point in self._reps

    def __len__(self):
        return len(self.orbit)

    def rep(self, target):
        """A group element u with u[root] == target."""
        return self._reps[target]

    def rep_inverse(self, target):
        """The inverse of ``rep(target)``: u⁻¹ with u⁻¹[target] == root."""
        v = self._inverses.get(target)
        if v is None:
            v = self._inverses[target] = inverse(self._reps[target])
        return v


class Bsgs:
    """Base and strong generating set with the complete base <1..n+2>.

    ``has_minus_one`` says whether -identity is in the group, i.e. the
    sign level n+1 has the two-point orbit {n+1, n+2}.  Every monomial
    with such a slot group equals minus itself and vanishes; this is the
    one place that decides it.
    """

    def __init__(self, n, level_gens, trees):
        self.n = n
        self.degree = n + 2
        self._level_gens = level_gens  # 1-based: level_gens[i]
        self._trees = trees  # 1-based: trees[i], rooted at point i
        self.has_minus_one = len(trees[n + 1]) == 2

    def generators(self, level=1):
        """Strong generators fixing the points 1..level-1 pointwise, in the order they were adjoined."""
        return list(self._level_gens[level])

    def orbit_of(self, level):
        """Orbit of the base point ``level`` under the level stabilizer, a tuple in BFS order."""
        return self._trees[level].orbit

    def tree(self, level):
        return self._trees[level]

    def coset_rep(self, level, target):
        """u in the level stabilizer with u[level] == target."""
        return self._trees[level].rep(target)

    @property
    def group_order(self):
        order = 1
        for i in range(1, self.degree + 1):
            order *= len(self._trees[i])
        return order

    def contains(self, g):
        """Membership by sifting down the stabilizer chain."""
        return g.degree == self.n and _sift(self._trees, g, 1).is_identity()


def _sift(trees, h, start):
    """``h`` stripped of coset representatives from level ``start`` on,
    up to the first level whose orbit misses the residue's base image."""
    for lvl in range(start, len(trees)):
        t = h.images[lvl - 1]
        if t == lvl:
            continue
        tree = trees[lvl]
        if t not in tree:
            return h
        h = compose(tree.rep_inverse(t), h)
    return h


def schreier_sims(n, generators, order=None):
    """Deterministic Schreier-Sims over the complete base <1..n+2>.

    Returns a :class:`Bsgs`.  Level i's tree is first built from the
    input generators that fix 1..i-1.  If ``order`` is given and equals
    the product of those trees' orbit lengths, that chain is returned
    unverified.  This is sound: each level's generators generate a
    subgroup of the true stabilizer of 1..i-1, so its orbit is at most
    the true basic orbit, and the product of the orbit lengths is at
    most |G|.  Equality with |G| makes every level's orbit the full
    basic orbit, so every tree is a full transversal, and sifting works
    as on a verified chain.  ``order`` must be |G| or None: an order
    above |G| never matches and costs only verification, but one below
    it can match a chain that misses part of G.

    Otherwise levels are verified from the deepest one upward; when
    sifting a Schreier generator leaves a non-identity residue, the
    residue is adjoined as a strong generator and the affected deeper
    levels are re-verified.
    """
    deg = n + 2
    level_gens = [[] for _ in range(deg + 1)]  # index 0 unused

    def add_gen(g):
        j = next(p for p, img in enumerate(g.images, 1) if img != p)
        for lvl in range(1, j + 1):
            level_gens[lvl].append(g)
        return j

    seen = set()
    for g in generators:
        if g.degree != n:
            raise ValueError(f"generator degree {g.degree} != {n}")
        if g.is_identity() or g.images in seen:
            continue
        seen.add(g.images)
        add_gen(g)

    trees = [None] * (deg + 1)

    def rebuild(level):
        trees[level] = SchreierTree(level, level_gens[level], deg)

    for i in range(1, deg + 1):
        rebuild(i)
    if order is not None:
        chain = Bsgs(n, level_gens, trees)
        if chain.group_order == order:
            return chain

    # Every change to a level's generators rebuilds its tree, so each
    # level is verified against the tree of its current generators.
    i = deg
    while i >= 1:
        clean = True
        for t in trees[i].orbit:
            u_t = trees[i].rep(t)
            for x in level_gens[i]:
                xt = x[t]
                schreier = compose(trees[i].rep_inverse(xt), compose(x, u_t))
                if schreier.is_identity():
                    continue
                residue = _sift(trees, schreier, i + 1)
                if not residue.is_identity():
                    j = add_gen(residue)
                    for lvl in range(1, j + 1):
                        rebuild(lvl)
                    i = j
                    clean = False
                    break
            if not clean:
                break
        if clean:
            i -= 1

    return Bsgs(n, level_gens, trees)


def direct_product(chains):
    """Chain of the product of groups on consecutive slot blocks sharing the sign.

    ``chains`` holds one :class:`Bsgs` per block, over its local slots
    1..k, in slot order.  Each block's strong generators, in order, are
    shifted into degree n (local slot j to offset+j, the local sign pair
    to n+1, n+2) and run through :func:`schreier_sims` with the
    product's order.  Level offset+j's generators are block f's level-j
    ones, every later block's and any -identity; all but the first fix
    block f's points and add no edge to its tree, so its orbits and
    coset representatives are the block's own, shifted.  The blocks
    share only the sign: with t >= 1 blocks holding -identity the order
    is the product of the blocks' orders over 2^(t-1), and the orbit
    lengths match it, so the chain is certified without verification.
    """
    n = sum(c.n for c in chains)
    gens = []
    order = 1
    minus = 0
    offset = 0
    for c in chains:
        k = c.n
        head, tail = bytes(range(1, offset + 1)), bytes(range(offset + k + 1, n + 1))
        for g in c.generators():
            sign = bytes((n + 1, n + 2) if g.sign > 0 else (n + 2, n + 1))
            gens.append(SignedPermutation(head + bytes(x + offset for x in g.images[:k]) + tail + sign))
        order *= c.group_order
        minus += c.has_minus_one
        offset += k
    return schreier_sims(n, gens, order // 2 ** max(minus - 1, 0))


def detect_symmetric_subsets(bsgs):
    """Maximal (anti)symmetric slot subsets of the group, off its chain.

    Returns a 1-based array over slots (index 0 unused): 0 marks a slot
    in no subset, and ±k a slot of subset k, + when its transpositions
    carry sign + (symmetric) and - when they carry sign - (antisymmetric).
    Subsets are numbered left to right.  When the group has -identity
    (:attr:`Bsgs.has_minus_one`) every monomial vanishes before a subset
    is read, and the entries are unspecified.

    Slots i and j share a subset iff +(i,j) or -(i,j) is in the group.
    The relation is transitive, as (i,k) = (i,j)(j,k)(i,j), so a subset
    is its least slot i together with each j > i for which ±(i,j) is a
    member, and a slot already placed needs no test of its own.  Such a
    j lies in the orbit of i at level i, since (i,j) fixes 1..i-1, so
    only those orbit points are sifted.  Without -identity every
    transposition of one subset carries one sign: the signs are a
    homomorphism of the subset's symmetric group to ±1, trivial or the
    parity, so once a subset has a sign only that sign is tested.
    """
    n = bsgs.n
    entries = [0] * (n + 1)
    if bsgs.has_minus_one:
        return entries
    count = 0
    for i in range(1, n + 1):
        if entries[i]:
            continue
        sign = 0
        for j in bsgs.tree(i).orbit:
            if j <= i:
                continue
            for s in (sign,) if sign else (1, -1):
                if bsgs.contains(from_signed_cycles(n, s, [(i, j)])):
                    if not sign:
                        sign = s
                        count += 1
                        entries[i] = sign * count
                    entries[j] = sign * count
                    break
    return entries


def product_subsets(parts):
    """Symmetric subsets of a :func:`direct_product`, from each block's own.

    ``parts`` holds one :func:`detect_symmetric_subsets` array per block,
    in slot order.  A pair transposition lies in the product iff it lies
    in one block, so subsets never span blocks: each block's entries are
    kept, renumbered after the subsets of the blocks before it.
    """
    entries = [0]
    count = 0
    for p in parts:
        local = p[1:]
        entries.extend(e + count if e > 0 else e - count if e < 0 else 0 for e in local)
        count += max(map(abs, local), default=0)
    return entries
