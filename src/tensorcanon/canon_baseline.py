"""Classic double-coset canonicalization (Butler-Portugal style).

The baseline keeps the full set of candidate configurations per slot:
for each configuration and each slot in the orbit of the slot being
fixed, every label relabelling that brings the least reachable label
into the slot spawns a candidate.  Duplicates are removed by sorting;
a +g/-g collision means the monomial vanishes.

The label group L is carried as its structural generators over the
label space (:class:`LabelBsgs`).  Each slot pass reads orbits and
coset representatives off BFS Schreier trees over the generators that
fix every label consumed so far, which generate the pointwise
stabilizer of those labels in L.
"""

from __future__ import annotations

from .perm_group import SchreierTree
from .signed_perm import CanonResult, from_signed_cycles, compose


class LabelBsgs:
    """The label group over labels 1..n, as its structural generators.

    Each class moves only its own labels.  A component class of k
    labels has the k-1 adjacent transpositions; a dummy class has, for
    each pair, the swap of its legs when the bundle has a metric (signed
    for an antisymmetric one), then the swap of each pair with the next,
    lower leg onto lower leg.

    :meth:`stabilizer_gens` keeps the generators that fix a set of
    pinned labels.  They generate the whole pointwise stabilizer when,
    in every class, the blocks holding a pinned label (a component label
    or a dummy pair) come first, because every element of the stabilizer
    permutes only the later blocks and those generators reach all such
    permutations.  The engine pins one label per pass, the least of an
    orbit under the current stabilizer, and that keeps the blocks holding
    a pinned label first.  Such an orbit either lies in the blocks
    already holding a pinned label, where the stabilizer fixes every
    label (a pair moves as a whole, so pinning one leg fixes the other),
    or in the later blocks, where it meets the first of them (all their
    component labels; under a metric all their legs; without one all
    their lower or all their upper legs), so its least label lies there.
    """

    def __init__(self, n, gens):
        self.n = n
        self.gens = gens

    @classmethod
    def from_classes(cls, classes):
        """Build from the <-ordered class list (see label_context.build)."""
        n = sum(c.size if c.kind in ("free", "component") else 2 * c.size for c in classes)
        gens = []
        label = 1
        for c in classes:
            if c.kind == "free":
                label += c.size
            elif c.kind == "component":
                gens += [from_signed_cycles(n, 1, [(a, a + 1)]) for a in range(label, label + c.size - 1)]
                label += c.size
            elif c.kind == "dummy":
                if c.metric not in ("symmetric", "antisymmetric", "none"):
                    raise ValueError(f"unknown metric {c.metric!r}")
                lows = range(label, label + 2 * c.size, 2)
                if c.metric != "none":
                    sign = 1 if c.metric == "symmetric" else -1
                    gens += [from_signed_cycles(n, sign, [(lo, lo + 1)]) for lo in lows]
                gens += [from_signed_cycles(n, 1, [(lo - 2, lo), (lo - 1, lo + 1)]) for lo in lows[1:]]
                label += 2 * c.size
            else:
                raise ValueError(f"unknown class kind {c.kind!r}")
        return cls(n, gens)

    def stabilizer_gens(self, pinned):
        """The generators fixing every label in ``pinned``."""
        return [g for g in self.gens if all(g[b] == b for b in pinned)]


def butler_portugal(g_init, S, L, trace=None):
    """Canonicalize ``g_init`` with slot group ``S`` and label group ``L``.

    Returns a :class:`~tensorcanon.signed_perm.CanonResult`, zero at
    once when ``S.has_minus_one``.  ``trace``, if given, receives
    ``configs_per_slot`` and ``max_configs``.
    """
    n = L.n

    def finish(result, counts):
        if trace is not None:
            trace["configs_per_slot"] = counts
            trace["max_configs"] = max(counts, default=1)
        return result

    if S.has_minus_one:
        return finish(CanonResult.zero(), [])
    pinned = []  # the label each pass consumed
    configs = [g_init]
    counts = []
    for i in range(1, n + 1):
        orbit = S.orbit_of(i)
        gens = L.stabilizer_gens(pinned)
        # Phase 1: the globally least label reachable in slot i's orbit,
        # and per (configuration, slot) the relabelling reaching it.
        cache = {}

        def reach(label):
            if label not in cache:
                tree = SchreierTree(label, gens, n + 2)
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
        pinned.append(global_least)
        # Phase 2: spawn the candidates.  The tree rooted at g[j] gives
        # the relabelling sending g[j] to the least label directly.
        out = []
        for k, j in pairs:
            g = configs[k]
            _, tree = reach(g[j])
            ell = tree.rep(global_least)
            s = S.coset_rep(i, j)
            out.append(compose(ell, compose(g, s)))
        configs = sorted(set(out))
        counts.append(len(configs))
        for a, b in zip(configs, configs[1:]):
            if a.images[:n] == b.images[:n] and a.sign != b.sign:
                return finish(CanonResult.zero(), counts)
    return finish(CanonResult.canonical(configs[0]), counts)
