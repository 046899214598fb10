"""Brute-force oracle: the least point of the double coset L·g·S.

Independent of the search engines.  The slot group S is enumerated from
its stabilizer chain; for each s, one scan in slot order built from the
class list alone gives the least l∘g∘s over the label group L
(:func:`least_relabelling`, Butler's least element in slot order: G.
Butler, *Fundamental Algorithms for Permutation Groups*, LNCS 559,
1991).  The canonical form is the least scan result, zero when it comes
with both signs.  |S| bounds the cost; L is never enumerated.
"""

from __future__ import annotations

import itertools
import math

from .signed_perm import CanonResult, SignedPermutation, identity, compose

_METRICS = ("symmetric", "antisymmetric")


def enumerate_group(bsgs, cap=10**6):
    """Every element of a Bsgs group, as transversal products, in a list."""
    if bsgs.group_order > cap:
        raise ValueError(f"group order {bsgs.group_order} exceeds cap {cap}")
    elems = [identity(bsgs.n)]
    for level in range(bsgs.degree, 0, -1):
        tree = bsgs.tree(level)
        if len(tree) > 1:
            elems = [compose(u, h) for u in map(tree.rep, tree.orbit) for h in elems]
    return elems


def enumerate_label_group(classes, n, cap=10**6):
    """Every element of the label group, built directly from the classes, in a list.

    ``classes`` is the <-ordered class list (see label_context.build).
    Component classes contribute all permutations of their labels; dummy
    classes all pair permutations, with all leg swaps when a metric is
    present (each swap costs a sign for an antisymmetric metric).  The
    order is checked against ``cap`` before any element is built.  Tests
    use this as the ground truth for L.
    """
    order = math.prod(math.factorial(c.size) << c.size * (c.metric in _METRICS) for c in classes if c.kind != "free")
    if order > cap:
        raise ValueError(f"label group order {order} exceeds cap {cap}")
    factors = []  # per class, every (label -> image pairs, sign) it allows
    label = 1
    for c in classes:
        if c.kind == "component":
            labels = range(label, label + c.size)
            factors.append([(list(zip(labels, perm)), 1) for perm in itertools.permutations(labels)])
        elif c.kind == "dummy":
            pairs = [(x, x + 1) for x in range(label, label + 2 * c.size, 2)]
            # each pair's legs in order (1) or swapped (-1)
            ways = list(itertools.product((1, -1), repeat=c.size)) if c.metric in _METRICS else [(1,) * c.size]
            factors.append([
                ([(x, y) for src, dst, way in zip(pairs, perm, legs) for x, y in zip(src, dst[::way])],
                 math.prod(legs) if c.metric == "antisymmetric" else 1)
                for perm in itertools.permutations(pairs) for legs in ways
            ])
        label += 2 * c.size if c.kind == "dummy" else c.size
    elems = []
    for combo in itertools.product(*factors):
        imgs = bytearray(range(1, n + 1))
        for mapping, _ in combo:
            for x, y in mapping:
                imgs[x - 1] = y
        elems.append(_signed(bytes(imgs), math.prod(s for _, s in combo)))
    return elems


def _scanner(classes, n):
    """The scan of :func:`least_relabelling` for one class list: a function
    from the images of h to the images of the least l∘h and its sign."""
    # per label: the class counter it draws from, how far meeting it first
    # moves that counter, its offset from the counter, its partner (0 for
    # none) and the sign meeting it first costs; a free label is a class
    # of its own whose counter never moves
    roles, start = [None], []
    for c in classes:
        label = len(roles)
        if c.kind == "free":
            roles += [(len(start) + k, 0, 0, 0, 1) for k in range(c.size)]
            start += range(label, label + c.size)
        elif c.kind == "component":
            roles += [(len(start), 1, 0, 0, 1)] * c.size
            start.append(label)
        else:
            own_leg, cost = int(c.metric not in _METRICS), -1 if c.metric == "antisymmetric" else 1
            for x in range(label, label + 2 * c.size, 2):
                roles += [(len(start), 2, 0, x + 1, 1), (len(start), 2, own_leg, x, cost)]
            start.append(label)

    def scan(images):
        counter = start.copy()
        placed = bytearray(n + 1)  # the label a met leg left for its partner
        out = bytearray(n)
        sign = 1 if images[n] == n + 1 else -1
        for p, x in enumerate(images[:n]):
            y = placed[x]
            if not y:
                k, step, offset, partner, cost = roles[x]
                y = counter[k] + offset
                counter[k] += step
                placed[partner] = y + 1 - 2 * offset  # placed[0] is never read
                sign *= cost
            out[p] = y
        return bytes(out), sign

    return scan


def _signed(images, sign):
    n = len(images)
    return SignedPermutation(images + bytes((n + 1, n + 2)[::sign]))


def least_relabelling(h, classes):
    """The least l∘h over the label group of ``classes``, by one scan in slot order.

    Labels are numbered class by class, a dummy class's pairs as
    (lower, upper) runs.  Slot by slot:

    * a free label keeps itself;
    * the k-th label met of a component class takes that class's k-th
      label;
    * the first leg met of a dummy pair takes its class's next unused
      pair: the lower label under a metric, its own leg without one;
    * the partner leg takes the pair's other label;
    * an upper leg sent to a lower label under an antisymmetric metric
      flips the sign.

    Each slot takes the least label the slots before it leave, and
    leaves every later choice open, so the result is the least.
    """
    return _signed(*_scanner(classes, h.degree)(h.images))


def brute_force_canonicalize(g, S_elems, classes):
    """The least l∘g∘s over the label group of ``classes`` and the slot
    elements ``S_elems``: the least scan result, zero when it comes with both signs."""
    scan = _scanner(classes, g.degree)
    best, signs = None, set()
    for s in S_elems:
        images, sign = scan(s.images.translate(g.table))
        if best is None or images < best:
            best, signs = images, {sign}
        elif images == best:
            signs.add(sign)
    return CanonResult.zero() if len(signs) == 2 else CanonResult.canonical(_signed(best, signs.pop()))
