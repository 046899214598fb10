"""Classic double-coset canonicalization (Butler-Portugal style).

The baseline keeps the full set of candidate configurations per slot:
for each configuration and each slot in the orbit of the slot being
fixed, every label relabelling that brings the least reachable label
into the slot spawns a candidate.  Duplicates are removed by sorting;
a +g/-g collision means the monomial vanishes.

The label group L is carried as its own stabilizer chain over the label
space (:class:`LabelBsgs`).  After each slot pass the consumed label is
moved to the front of the remaining base — by conjugating the
structural generators with a block swap when the consumed label is a
same-class aligned leg, otherwise by repositioning the base point.
"""

from __future__ import annotations

from .canon_fast import CanonResult
from .label_context import GroupCode
from .perm_group import SchreierTree
from .signed_perm import from_signed_cycles, compose, identity


class LabelBsgs:
    """Stabilizer chain of the label group over labels 1..n.

    ``base`` starts as <1..n>; ``consumed`` marks how many base points
    are pinned.  Level i generators are the structural generators fixing
    the first i-1 base points; orbits and coset representatives come
    from BFS Schreier trees over those generators.
    """

    def __init__(self, n, gens, base, pair_partner, leg_kind, class_of):
        self.n = n
        self.gens = list(gens)
        self.base = list(base)
        # label -> partner label for dummy legs (absent for others)
        self.pair_partner = dict(pair_partner)
        # label -> GroupCode of its class at build time
        self.leg_kind = dict(leg_kind)
        # label -> index of its class in the <-ordered class list
        self.class_of = dict(class_of)

    @classmethod
    def from_classes(cls, classes):
        """Build from the <-ordered class list (see label_context.build)."""
        gens = []
        pair_partner = {}
        leg_kind = {}
        class_of = {}
        label = 1
        total = sum(
            c.size if c.kind in ("free", "component") else 2 * c.size for c in classes
        )
        n = total
        for ci, c in enumerate(classes):
            if c.kind == "free":
                for _ in range(c.size):
                    leg_kind[label] = GroupCode.NONE
                    class_of[label] = ci
                    label += 1
            elif c.kind == "component":
                for k in range(c.size):
                    leg_kind[label] = GroupCode.COMPONENT
                    class_of[label] = ci
                    if k > 0:
                        gens.append(from_signed_cycles(n, 1, [(label - 1, label)]))
                    label += 1
            elif c.kind == "dummy":
                pairs = []
                for _ in range(c.size):
                    lo, hi = label, label + 1
                    pairs.append((lo, hi))
                    pair_partner[lo] = hi
                    pair_partner[hi] = lo
                    class_of[lo] = class_of[hi] = ci
                    if c.metric == "symmetric":
                        leg_kind[lo] = leg_kind[hi] = GroupCode.S_DUMMY
                        gens.append(from_signed_cycles(n, 1, [(lo, hi)]))
                    elif c.metric == "antisymmetric":
                        leg_kind[lo] = leg_kind[hi] = GroupCode.A_DUMMY
                        gens.append(from_signed_cycles(n, -1, [(lo, hi)]))
                    elif c.metric == "none":
                        leg_kind[lo] = GroupCode.L_DUMMY
                        leg_kind[hi] = GroupCode.U_DUMMY
                    else:
                        raise ValueError(f"unknown metric {c.metric!r}")
                    label += 2
                for (a_lo, a_hi), (b_lo, b_hi) in zip(pairs, pairs[1:]):
                    gens.append(from_signed_cycles(n, 1, [(a_lo, b_lo), (a_hi, b_hi)]))
            else:
                raise ValueError(f"unknown class kind {c.kind!r}")
        return cls(n, gens, range(1, n + 1), pair_partner, leg_kind, class_of)

    def copy(self):
        return LabelBsgs(self.n, self.gens, self.base, self.pair_partner, self.leg_kind, self.class_of)

    def level_gens(self, level):
        """Structural generators fixing the first level-1 base points."""
        pinned = self.base[: level - 1]
        return [g for g in self.gens if all(g[b] == b for b in pinned)]

    def orbit_tree(self, level, root):
        """BFS tree of ``root``'s orbit under the level stabilizer."""
        return SchreierTree(root, self.level_gens(level), self.n + 2)

    def reorder_base(self, level, label):
        """Move ``label`` to base position ``level`` (1-based); returns a new chain.

        When the current base point and ``label`` belong to the same
        class and an aligned block swap exists in L that exchanges them
        while fixing the already-pinned points, the generators are
        conjugated by it, keeping the chain strong with respect to the
        new base.  Otherwise ``label`` is simply repositioned: classes
        act independently on disjoint label blocks, so pinning a point
        of another class first never weakens the chain.
        """
        new = self.copy()
        cur = new.base[level - 1]
        if cur == label:
            return new
        sigma = self._aligned_swap(cur, label)
        if sigma is not None and all(sigma[b] == b for b in new.base[: level - 1]):
            new.gens = [compose(sigma, compose(g, sigma)) for g in new.gens]
            new.base = [sigma[b] for b in new.base]
            return new
        new.base.remove(label)
        new.base.insert(level - 1, label)
        return new

    def _aligned_swap(self, cur, label):
        """A self-inverse element of L exchanging ``cur`` and ``label``, if one exists."""
        ka, kb = self.leg_kind.get(cur), self.leg_kind.get(label)
        if ka != kb or ka in (None, GroupCode.NONE):
            return None
        if self.class_of.get(cur) != self.class_of.get(label):
            return None
        n = self.n
        if ka == GroupCode.COMPONENT:
            return from_signed_cycles(n, 1, [(cur, label)])
        pc, pl = self.pair_partner[cur], self.pair_partner[label]
        if pl == cur:
            # same pair: the intra-pair swap (signed for antisymmetric)
            if ka == GroupCode.S_DUMMY:
                return from_signed_cycles(n, 1, [(cur, label)])
            if ka == GroupCode.A_DUMMY:
                return from_signed_cycles(n, -1, [(cur, label)])
            return None  # no metric: legs cannot cross
        if ka in (GroupCode.S_DUMMY, GroupCode.A_DUMMY, GroupCode.L_DUMMY, GroupCode.U_DUMMY):
            # block swap of the two pairs keeps leg characters aligned
            return from_signed_cycles(n, 1, [(cur, label), (pc, pl)])
        return None


def butler_portugal(g_init, S, L, trace=None):
    """Canonicalize ``g_init`` with slot group ``S`` and label chain ``L``.

    Returns a :class:`~tensorcanon.canon_fast.CanonResult`.  ``trace``,
    if given, receives ``configs_per_slot`` and ``max_configs``.
    """
    n = L.n

    def finish(result, counts):
        if trace is not None:
            trace["configs_per_slot"] = counts
            trace["max_configs"] = max(counts, default=1)
        return result

    if len(S.orbit_of(n + 1)) > 1:  # -1 is a slot symmetry: everything vanishes
        return finish(CanonResult.zero(), [])
    L = L.copy()
    configs = [g_init]
    counts = []
    for i in range(1, n + 1):
        orbit = S.orbit_of(i)
        # Phase 1: the globally least label reachable in slot i's orbit,
        # and per (configuration, slot) the relabelling reaching it.
        cache = {}

        def reach(label):
            if label not in cache:
                tree = L.orbit_tree(i, label)
                cache[label] = (min(tree.orbit), tree)
            return cache[label]

        global_least = n + 1
        pairs = []  # (config index, slot j)
        for k, g in enumerate(configs):
            for j in orbit:
                least, _ = reach(g[j])
                if least < global_least:
                    global_least = least
                    pairs = [(k, j)]
                elif least == global_least:
                    pairs.append((k, j))
        # Keep the label chain's invariant for the next level: the
        # consumed label becomes base point i.
        L_next = L.reorder_base(i, global_least)
        # Phase 2: spawn the candidates.  The tree rooted at g[j] gives
        # the relabelling sending g[j] to the least label directly.
        out = []
        for k, j in pairs:
            g = configs[k]
            _, tree = reach(g[j])
            ell = tree.rep(global_least)
            s = S.coset_rep(i, j)
            out.append(compose(ell, compose(g, s)))
        L = L_next
        out.sort(key=lambda g: g.images)
        configs = []
        for g in out:
            if configs and configs[-1] == g:
                continue
            configs.append(g)
        for a, b in zip(configs, configs[1:]):
            if a.images[:n] == b.images[:n] and a.sign != b.sign:
                counts.append(len(configs))
                return finish(CanonResult.zero(), counts)
        counts.append(len(configs))
    return finish(CanonResult.canonical(configs[0]), counts)
