"""Brute-force oracle: exhaustive double-coset minimization.

Independent of the search engines: the slot group is enumerated from
its stabilizer chain, the label group directly from the class structure,
and the canonical form is the lexicographic minimum of l∘g∘s over all
pairs.  Zero is detected when the minimal label arrangement is attained
with both signs.  Only usable when |S|·|L| is small.
"""

from __future__ import annotations

import itertools

import numpy as np

from .signed_perm import CanonResult, SignedPermutation, identity, compose


class GroupEnumeration:
    """All elements of a group, with a matrix view of the image arrays."""

    def __init__(self, elements):
        self.elements = list(elements)
        self.array = np.array([e.images for e in self.elements], dtype=np.int64)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def enumerate_group(bsgs, cap=10**6):
    """Every element of a Bsgs group, as transversal products."""
    if bsgs.group_order > cap:
        raise ValueError(f"group order {bsgs.group_order} exceeds cap {cap}")
    deg = bsgs.degree
    elems = [identity(bsgs.n)]
    for level in range(deg, 0, -1):
        tree = bsgs.tree(level)
        if len(tree) == 1:
            continue
        reps = [tree.rep(t) for t in tree.orbit]
        elems = [compose(u, h) for u in reps for h in elems]
    return GroupEnumeration(elems)


def enumerate_label_group(classes, n, cap=10**6):
    """Every element of the label group, built directly from the classes.

    ``classes`` is the <-ordered class list (see label_context.build).
    Component classes contribute all permutations of their labels; dummy
    classes all pair permutations, with all leg swaps when a metric is
    present (each swap costs a sign for an antisymmetric metric).
    """
    factors = []  # list of lists of (mapping dict, sign)
    label = 1
    for c in classes:
        if c.kind == "free":
            label += c.size
            continue
        if c.kind == "component":
            labels = list(range(label, label + c.size))
            opts = []
            for perm in itertools.permutations(labels):
                opts.append(({a: b for a, b in zip(labels, perm)}, 1))
            factors.append(opts)
            label += c.size
        elif c.kind == "dummy":
            pairs = [(label + 2 * k, label + 2 * k + 1) for k in range(c.size)]
            opts = []
            flip_space = (
                itertools.product([0, 1], repeat=c.size)
                if c.metric in ("symmetric", "antisymmetric")
                else [(0,) * c.size]
            )
            flip_space = list(flip_space)
            for perm in itertools.permutations(range(c.size)):
                for flips in flip_space:
                    mapping = {}
                    sign = 1
                    for src, dst in enumerate(perm):
                        lo, hi = pairs[src]
                        dlo, dhi = pairs[dst]
                        if flips[src]:
                            mapping[lo], mapping[hi] = dhi, dlo
                            if c.metric == "antisymmetric":
                                sign = -sign
                        else:
                            mapping[lo], mapping[hi] = dlo, dhi
                    opts.append((mapping, sign))
            factors.append(opts)
            label += 2 * c.size
        else:
            raise ValueError(f"unknown class kind {c.kind!r}")

    total = 1
    for opts in factors:
        total *= len(opts)
    if total > cap:
        raise ValueError(f"label group order {total} exceeds cap {cap}")

    elems = []
    for combo in itertools.product(*factors) if factors else [()]:
        imgs = list(range(1, n + 3))
        sign = 1
        for mapping, s in combo:
            sign *= s
            for a, b in mapping.items():
                imgs[a - 1] = b
        if sign < 0:
            imgs[n], imgs[n + 1] = imgs[n + 1], imgs[n]
        elems.append(SignedPermutation(imgs))
    return GroupEnumeration(elems)


def brute_force_canonicalize(g, S_enum, L_enum):
    """Lexicographic minimum of l∘g∘s over the enumerated groups."""
    n = g.degree
    L_arr = L_enum.array  # shape (|L|, n+2)
    m = L_arr.shape[0]
    # cheapest image any relabelling gives to each label, for pruning
    min_img = L_arr[:, :n].min(axis=0)
    best = None
    best_signs = set()
    for s in S_enum:
        h = compose(g, s)
        cols = [x - 1 for x in h.images]
        if best is not None and min_img[cols[0]] > best[0]:
            continue
        A = L_arr[:, cols]
        sel = np.arange(m)
        for col in range(n):
            vals = A[sel, col]
            mn = vals.min()
            if best is not None and mn > best[col]:
                sel = None
                break
            if best is not None and mn < best[col]:
                best = None
                best_signs = set()
            sel = sel[vals == mn]
        if sel is None:
            continue
        cand = tuple(int(v) for v in A[sel[0], :n])
        signs = {1 if int(v) == n + 1 else -1 for v in A[sel, n]}
        if best is None or cand < tuple(best):
            best = list(cand)
            best_signs = set(signs)
        elif cand == tuple(best):
            best_signs |= signs
    if len(best_signs) == 2:
        return CanonResult.zero()
    sign = best_signs.pop()
    tail = (n + 1, n + 2) if sign > 0 else (n + 2, n + 1)
    return CanonResult.canonical(SignedPermutation(tuple(best) + tail))
