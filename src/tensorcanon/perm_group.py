"""Permutation groups over signed permutations: BSGS, orbits, membership.

The base is always the complete position-ordered base <1, 2, ..., n+2>.
Redundant levels (orbit size 1) are kept so that level i always
stabilizes exactly the points 1..i-1; this is what the canonicalization
engines rely on when they ask for "the stabilizer of the first i-1
slots".

Schreier trees are built breadth-first with generators tried in
ascending index order, which makes coset representatives deterministic.
Each tree builds a representative, its inverse and the points it moves
the first time it is asked for and keeps them; a kept permutation keeps
the ``bytes.translate`` table :attr:`SignedPermutation.table` builds on
its first composition, so a generator or an inverse representative is
composed through one table however often it is used.  The trees of a
product shift the moved points their block's tree keeps, keep the
shifted orbit and moved points themselves, and build representatives
from those.
Everything else is read off the chain: membership sifts through the
trees (:func:`_sift`, shared with Schreier-Sims), whether -identity is
a member (:attr:`Bsgs.has_minus_one`) from the sign level, and the
symmetric subsets from the orbits (:func:`detect_symmetric_subsets`).

A group acting on consecutive slot blocks that share only the sign (the
slot group of a tensor monomial, one block per factor) is assembled by
:func:`direct_product` from one chain per block, and its symmetric
subsets by :func:`product_subsets`, without running Schreier-Sims or
subset detection over the whole product.  A product chain has trees but
no strong generators.
"""

from __future__ import annotations

from .signed_perm import SignedPermutation, identity, from_signed_cycles, compose, inverse


class SchreierTree:
    """BFS orbit tree rooted at ``root`` over a fixed generator list.

    The tree is the one cache of its coset representatives: :meth:`rep`
    builds each the first time it is asked for and keeps it,
    :meth:`rep_inverse` keeps its inverse, which sifting composes with,
    and :meth:`moves` keeps the points each one moves.  All three are
    deterministic and immutable for a fixed generator list, and
    Schreier-Sims builds a new tree whenever a level's generators
    change, so a memo never outlives the generators it was built from.
    A declaration's chain keeps its trees, so every monomial that uses
    the declaration shares them.
    """

    def __init__(self, root, gens, degree):
        self.root = root
        self.degree = degree
        # orbit point -> (previous point, generator mapping previous ->
        # point); the root maps to None
        self._edges = edges = {root: None}
        self._reps = {}
        self._inverses = {}
        self._moves = {}
        orbit = [root]
        frontier = [root]
        while frontier:
            nxt = []
            for p in frontier:
                for g in gens:
                    t = g.images[p - 1]
                    if t not in edges:
                        edges[t] = (p, g)
                        orbit.append(t)
                        nxt.append(t)
            frontier = nxt
        self.orbit = tuple(orbit)

    def __contains__(self, point):
        return point in self._edges

    def __len__(self):
        return len(self.orbit)

    def rep(self, target):
        """A group element u with u[root] == target."""
        u = self._reps.get(target)
        if u is None:
            u = self._reps[target] = self._walk(target)
        return u

    def rep_inverse(self, target):
        """The inverse of ``rep(target)``: u⁻¹ with u⁻¹[target] == root."""
        v = self._inverses.get(target)
        if v is None:
            v = self._inverses[target] = inverse(self.rep(target))
        return v

    def moves(self, target):
        """``((x, u[x]), ...)`` over the points ``u = rep(target)`` moves, sign pair included."""
        m = self._moves.get(target)
        if m is None:
            m = self._moves[target] = tuple((x, y) for x, y in enumerate(self.rep(target).images, 1) if x != y)
        return m

    def _walk(self, target):
        if target not in self._edges:
            raise KeyError(f"point {target} not in orbit of {self.root}")
        u = identity(self.degree - 2)
        t = target
        while t != self.root:
            prev, g = self._edges[t]
            # Walking from the target back to the root accumulates
            # g_k ∘ ... ∘ g_1 with g_1 applied first, so u[root] == target.
            u = compose(u, g)
            t = prev
        return u


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
        """Strong generators fixing the points 1..level-1 pointwise.

        Only :func:`schreier_sims` chains keep them; a
        :func:`direct_product` chain keeps trees alone.
        """
        if self._level_gens is None:
            raise ValueError("a product chain keeps trees, not strong generators")
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


def schreier_sims(n, generators):
    """Deterministic Schreier-Sims over the complete base <1..n+2>.

    Returns a :class:`Bsgs`.  Levels are verified from the deepest one
    upward; when sifting a Schreier generator leaves a non-identity
    residue, the residue is adjoined as a strong generator and the
    affected deeper levels are re-verified.
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

    return Bsgs(n, [tuple(gens) for gens in level_gens], trees)


class _ShiftedTree:
    """A block's Schreier tree read with its points moved up by ``offset``.

    Coset representatives are the block's own, cached once on the
    block's tree: local points 1..k map to offset+1..offset+k and the
    local sign pair k+1, k+2 to n+1, n+2.  The orbit is shifted once,
    and each representative's moved points the first time :meth:`moves`
    is asked for them, and both are kept, since a product is shared by
    every monomial of its declarations.  A representative and its
    inverse are built from those moved points on each call.
    """

    __slots__ = ("_tree", "_offset", "_n", "root", "orbit", "_moves")

    def __init__(self, tree, offset, n):
        self._tree = tree
        self._offset = offset
        self._n = n
        self.root = tree.root + offset
        self.orbit = tuple(p + offset for p in tree.orbit)
        self._moves = {}

    def __contains__(self, point):
        return point - self._offset in self._tree

    def __len__(self):
        return len(self._tree)

    def _local(self, target):
        if target not in self:
            raise KeyError(f"point {target} not in orbit of {self.root}")
        return target - self._offset

    def rep(self, target):
        return self._patched(self.moves(target))

    def rep_inverse(self, target):
        return self._patched((y, x) for x, y in self.moves(target))

    def _patched(self, pairs):
        """The identity of degree n with x mapped to y for each (x, y) in ``pairs``."""
        images = bytearray(identity(self._n).images)
        for x, y in pairs:
            images[x - 1] = y
        return SignedPermutation(images)

    def moves(self, target):
        m = self._moves.get(target)
        if m is None:
            offset = self._offset
            k = self._tree.degree - 2
            up = self._n - k  # the local sign pair's shift
            m = self._moves[target] = tuple(
                (x + offset, y + offset) if x <= k else (x + up, y + up)
                for x, y in self._tree.moves(self._local(target))
            )
        return m


def direct_product(chains):
    """Chain of the product of groups on consecutive slot blocks sharing the sign.

    ``chains`` holds one :class:`Bsgs` per block, over its local slots
    1..k, in slot order.  Level offset+j of the result is block f's level
    j tree moved up by the ``offset`` slots before the block.  The sign
    level moves, and the product has -identity, iff some block has it.
    Orbits, coset representatives, group order and membership equal
    those of ``schreier_sims`` run on all the shifted generators at once:
    generators of other blocks fix a block's points, so they add no edge
    to its trees and no residue to its levels.  Representatives are
    built from their shifted moved points on demand.  The product keeps
    no strong generators: every caller reads its trees.
    """
    n = sum(c.n for c in chains)
    deg = n + 2
    minus = (identity(n).negated(),) if any(c.has_minus_one for c in chains) else ()
    trees = [None]
    for c in chains:
        offset = len(trees) - 1
        trees.extend(_ShiftedTree(c.tree(j), offset, n) for j in range(1, c.n + 1))
    trees += [SchreierTree(n + 1, minus, deg), SchreierTree(n + 2, (), deg)]
    return Bsgs(n, None, trees)


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
