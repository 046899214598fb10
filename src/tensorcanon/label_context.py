"""Label classification: which labels can be exchanged, and at what cost.

A monomial's index labels 1..n are partitioned into classes:

* free indices — fixed, never relabelled (one singleton class covering
  all of them);
* component classes — m repetitions of the same numeral; any of the m
  labels may be moved into any of the class's slots;
* dummy classes — p contracted pairs sharing an index bundle.  Each pair
  holds two adjacent labels, lower leg then upper leg, and the pairs
  are exchanged as blocks.  With a symmetric metric the two legs of a
  pair may also be swapped freely; with an antisymmetric metric the
  swap costs a sign; without a metric legs keep their lower/upper
  character.

The :class:`LabelContext` holds three 1-based arrays over labels:

* ``values[x]`` — the least label that x can still be turned into by the
  remaining relabelling freedom (free labels: themselves), kept as well
  as the translate table ``value_table``;
* ``groups[x]`` — a :class:`GroupCode` describing the kind of exchange
  still available for x;
* ``partner[x]`` — the other leg of x's dummy pair, or 0 for free and
  component labels.  It is fixed at :func:`build` and shared, unchanged,
  by every narrowed context.

As the canonicalization engines consume one least label per slot, the
context is narrowed with :func:`update_context`, one rule for every
kind: the consumed label and its partner are frozen, and the class's
remaining labels move up past them.  :func:`label_permutation_from_group`
reads the pair table to build the label element that moves a label to
its least value.

A context depends on the class layout alone, so one built context
serves every monomial of a layout (``frontend.Registry.contexts``), and
no context is mutated once built.  Each one keeps the contexts
:func:`update_context` narrowed it to, and every context narrowed from
one built context shares its ``tables`` dict, which the fast engine
fills with the translation tables of the label elements it uses (see
:class:`LabelContext`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .signed_perm import SignedPermutation, identity


class GroupCode(enum.IntEnum):
    NONE = 0  # free or already-consumed label: no exchange left
    COMPONENT = 1  # repeated component numeral
    S_DUMMY = 2  # dummy leg, symmetric metric
    A_DUMMY = 3  # dummy leg, antisymmetric metric
    L_DUMMY = 4  # lower dummy leg, no metric
    U_DUMMY = 5  # upper dummy leg, no metric


@dataclass(frozen=True)
class IndexClass:
    """One label class in <-order.

    ``kind`` is "free", "component" or "dummy".  For frees ``size`` is
    the number of free labels (each its own singleton).  For components
    it is the multiplicity of the numeral.  For dummies ``size`` is the
    number of pairs and ``metric`` one of "symmetric", "antisymmetric",
    "none".
    """

    kind: str
    size: int
    metric: str | None = None


class LabelContext:
    """Values, Label-Groups and partner arrays, 1-based (index 0 unused), kept as given.

    ``children`` maps a least value to the context :func:`update_context`
    narrowed this one to.  ``tables`` is one dict for the whole layout:
    it maps ``(label, least_value)`` to the translation table
    ``label_permutation_from_group(ctx, label, least_value).table``,
    which is the same for every context of the layout in which ``label``
    still has ``least_value``.  A label other than its least value is still
    unconsumed, so it keeps the group code the layout gave it, and the
    pair table never changes.

    ``value_table`` is ``values`` as a ``bytes.translate`` table:
    ``g.translate(ctx.value_table)[p - 1] == ctx.values[g[p - 1]]`` for
    every slot p of a configuration g, so one C-level call reads the
    value of every slot.  Like ``live``, it is computed once, at
    construction, which happens once per layout and least value.
    ``live`` is true when some label still has a group code other than
    ``NONE``, that is, when some label can still be exchanged.
    Narrowing only turns codes into ``NONE``, so every context narrowed
    from one that is not live is not live either.
    """

    def __init__(self, values, groups, partner, tables=None):
        self.values = values
        self.groups = groups
        self.partner = partner
        self.n = len(values) - 1
        self.value_table = bytes(values).ljust(256, b"\0")
        self.live = any(groups)
        self.children = {}
        self.tables = {} if tables is None else tables

    def __repr__(self):
        return f"LabelContext(values={self.values[1:]}, groups={[GroupCode(g).name for g in self.groups[1:]]})"


def build(classes):
    """Build the initial context from classes listed in <-order."""
    values = [0]
    groups = [GroupCode.NONE]
    partner = [0]
    label = 1
    for cls in classes:
        if cls.kind == "free":
            values += range(label, label + cls.size)
            groups += [GroupCode.NONE] * cls.size
            partner += [0] * cls.size
            label += cls.size
        elif cls.kind == "component":
            values += [label] * cls.size
            groups += [GroupCode.COMPONENT] * cls.size
            partner += [0] * cls.size
            label += cls.size
        elif cls.kind == "dummy":
            if cls.metric in ("symmetric", "antisymmetric"):
                # every leg can reach the least lower leg
                code = GroupCode.S_DUMMY if cls.metric == "symmetric" else GroupCode.A_DUMMY
                leg_values, leg_groups = [label, label], [code, code]
            elif cls.metric == "none":
                # lower legs can only reach the least lower label, upper
                # legs the least upper one
                leg_values, leg_groups = [label, label + 1], [GroupCode.L_DUMMY, GroupCode.U_DUMMY]
            else:
                raise ValueError(f"unknown metric {cls.metric!r}")
            for _ in range(cls.size):
                values += leg_values
                groups += leg_groups
                partner += [label + 1, label]
                label += 2
        else:
            raise ValueError(f"unknown class kind {cls.kind!r}")
    return LabelContext(values, groups, tuple(partner))


def label_permutation_from_group(ctx, label, least_value):
    """An element of the label group sending ``label`` to ``least_value``.

    Returns a signed permutation on the label space (degree n).  A
    component label, or a leg whose partner is ``least_value``, is
    swapped with ``least_value``.  Any other leg moves with its pair
    onto the least pair: at an even distance the legs keep their order,
    at an odd distance they cross, which is the 4-cycle (label least
    partner[label] partner[least]).  Crossing costs a sign under an
    antisymmetric metric.
    """
    n = ctx.n
    if label == least_value:
        return identity(n)
    images = list(range(1, n + 3))
    partner = ctx.partner
    odd = (label - least_value) % 2 == 1
    images[label - 1], images[least_value - 1] = least_value, label
    if partner[label] not in (0, least_value):
        p, q = partner[label], partner[least_value]
        if odd:
            # label -> least_value -> p -> q -> label
            images[least_value - 1], images[p - 1], images[q - 1] = p, q, label
        else:
            images[p - 1], images[q - 1] = q, p
    if odd and ctx.groups[label] == GroupCode.A_DUMMY:
        images[n], images[n + 1] = n + 2, n + 1
    return SignedPermutation(images)


def update_context(ctx, least_value):
    """Narrow the context after consuming ``least_value``.

    Returns the context in which the consumed label and its partner are
    frozen at their own values, and each following label whose value is
    at most the higher of the two is raised past them: by 2 in a dummy
    class, by 1 in a component class.  A free or frozen label changes
    nothing, so ``ctx`` itself is returned.  Otherwise the narrowed
    context, with its own ``values`` and ``groups`` lists, is built on
    the first call and kept in ``ctx.children``; ``ctx`` is left as it
    was.
    """
    if ctx.groups[least_value] == GroupCode.NONE:
        return ctx
    child = ctx.children.get(least_value)
    if child is not None:
        return child
    n = ctx.n
    partner = ctx.partner[least_value]
    values = ctx.values.copy()
    groups = ctx.groups.copy()
    # a non-dummy's partner is 0, the unused index, so freezing it is a no-op
    for x in (least_value, partner):
        values[x] = x
        groups[x] = GroupCode.NONE
    top = max(least_value, partner)
    increment = 2 if partner else 1
    j = top + 1
    while j <= n and values[j] <= top:
        values[j] += increment
        j += 1
    child = ctx.children[least_value] = LabelContext(values, groups, ctx.partner, ctx.tables)
    return child
