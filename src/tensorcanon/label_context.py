"""Label classification: which labels can be exchanged, and at what cost.

A monomial's index labels 1..n are partitioned into classes:

* free indices — fixed, never relabelled (one singleton class covering
  all of them);
* component classes — m repetitions of the same numeral; any of the m
  labels may be moved into any of the class's slots;
* dummy classes — p contracted pairs sharing an index bundle.  With a
  symmetric metric the two legs of a pair may be swapped freely; with an
  antisymmetric metric the swap costs a sign; without a metric legs keep
  their lower/upper character and only whole pairs are exchangeable.

The :class:`LabelContext` holds two 1-based arrays over labels:

* ``values[x]`` — the least label that x can still be turned into by the
  remaining relabelling freedom (free labels: themselves);
* ``groups[x]`` — a :class:`GroupCode` describing the kind of exchange
  still available for x.

As the canonicalization engines consume one least label per slot, the
context is narrowed with :func:`update_context`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .signed_perm import from_signed_cycles, compose, identity


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
    """Values and Label-Groups arrays, 1-based (index 0 unused)."""

    def __init__(self, values, groups):
        self.values = list(values)
        self.groups = list(groups)

    @property
    def n(self):
        return len(self.values) - 1

    def copy(self):
        return LabelContext(self.values, self.groups)

    def values_list(self):
        return list(self.values[1:])

    def groups_list(self):
        return [GroupCode(g) for g in self.groups[1:]]

    def __repr__(self):
        return f"LabelContext(values={self.values_list()}, groups={[g.name for g in self.groups_list()]})"


def build(classes):
    """Build the initial context from classes listed in <-order."""
    values = [0]
    groups = [GroupCode.NONE]
    label = 1
    for cls in classes:
        if cls.kind == "free":
            for _ in range(cls.size):
                values.append(label)
                groups.append(GroupCode.NONE)
                label += 1
        elif cls.kind == "component":
            least = label
            for _ in range(cls.size):
                values.append(least)
                groups.append(GroupCode.COMPONENT)
                label += 1
        elif cls.kind == "dummy":
            least = label
            if cls.metric in ("symmetric", "antisymmetric"):
                code = GroupCode.S_DUMMY if cls.metric == "symmetric" else GroupCode.A_DUMMY
                for _ in range(2 * cls.size):
                    values.append(least)
                    groups.append(code)
                    label += 1
            elif cls.metric == "none":
                # legs alternate lower/upper; lower legs can only reach
                # the least lower label, upper legs the least upper one
                for _ in range(cls.size):
                    values.append(least)
                    groups.append(GroupCode.L_DUMMY)
                    values.append(least + 1)
                    groups.append(GroupCode.U_DUMMY)
                    label += 2
            else:
                raise ValueError(f"unknown metric {cls.metric!r}")
        else:
            raise ValueError(f"unknown class kind {cls.kind!r}")
    return LabelContext(values, groups)


def partner_of(ctx, label):
    """The other leg of ``label``'s dummy pair.

    Pairs occupy adjacent labels starting at the class least, so the
    parity of ``label`` relative to its reachable least says which leg
    it is.  Metric-less legs keep their lower/upper character: a lower
    leg's partner is always the next label, an upper leg's the previous.
    """
    group = ctx.groups[label]
    if group == GroupCode.U_DUMMY:
        return label - 1
    if group == GroupCode.L_DUMMY:
        return label + 1
    if (label - ctx.values[label]) % 2 == 1:
        return label - 1
    return label + 1


def label_permutation_from_group(ctx, label, least_value):
    """An element of the label group sending ``label`` to ``least_value``.

    Returns a signed permutation on the label space (degree n).  For
    dummies the element moves the whole pair so that ``label`` lands on
    ``least_value`` and its partner on the adjacent slot of the least
    pair; an intra-pair swap (signed for antisymmetric metrics) is
    composed in when the pair arrives legs-crossed.
    """
    n = ctx.n
    group = ctx.groups[label]
    if label == least_value or group == GroupCode.NONE:
        return identity(n)
    if group == GroupCode.COMPONENT:
        return from_signed_cycles(n, 1, [(least_value, label)])
    if group in (GroupCode.S_DUMMY, GroupCode.A_DUMMY):
        crossed = (label - least_value) % 2 == 1
        if crossed:
            pair_low, pair_high = label - 1, label
        else:
            pair_low, pair_high = label, label + 1
        block_cycles = []
        if pair_low != least_value:
            block_cycles = [(least_value, pair_low), (least_value + 1, pair_high)]
        block = from_signed_cycles(n, 1, block_cycles)
        if not crossed:
            return block
        intra_sign = -1 if group == GroupCode.A_DUMMY else 1
        intra = from_signed_cycles(n, intra_sign, [(pair_low, pair_high)])
        return compose(block, intra)
    if group == GroupCode.L_DUMMY:
        return from_signed_cycles(n, 1, [(least_value, label), (least_value + 1, label + 1)])
    if group == GroupCode.U_DUMMY:
        return from_signed_cycles(n, 1, [(least_value - 1, label - 1), (least_value, label)])
    raise AssertionError(f"unhandled group code {group}")


def update_context(ctx, least_value):
    """Narrow the context after consuming ``least_value``.

    Returns a new context in which the consumed label (and, for dummies,
    its partner slot in the least pair) is frozen, and the remaining
    labels of the class have their reachable least raised.
    """
    n = ctx.n
    group = ctx.groups[least_value]
    new = ctx.copy()
    if group == GroupCode.NONE:
        return new
    if group == GroupCode.COMPONENT:
        new.values[least_value] = least_value
        new.groups[least_value] = GroupCode.NONE
        loop_start = least_value + 1
        threshold = least_value
        increment = 1
    elif group in (GroupCode.S_DUMMY, GroupCode.A_DUMMY):
        new.values[least_value + 1] = ctx.values[least_value + 1] + 1
        new.groups[least_value] = GroupCode.NONE
        new.groups[least_value + 1] = GroupCode.NONE
        new.values[least_value] = least_value
        loop_start = least_value + 2
        threshold = least_value
        increment = 2
    elif group == GroupCode.L_DUMMY:
        new.values[least_value] = least_value
        new.groups[least_value] = GroupCode.NONE
        new.groups[least_value + 1] = GroupCode.NONE
        loop_start = least_value + 2
        threshold = least_value + 1
        increment = 2
    elif group == GroupCode.U_DUMMY:
        new.values[least_value] = least_value
        new.groups[least_value - 1] = GroupCode.NONE
        new.groups[least_value] = GroupCode.NONE
        loop_start = least_value + 1
        threshold = least_value
        increment = 2
    else:
        raise AssertionError(f"unhandled group code {group}")
    j = loop_start
    while j <= n and new.values[j] <= threshold:
        new.values[j] += increment
        j += 1
    return new
