import random

import pytest
from hypothesis import given, settings, strategies as st

from tensorcanon.bench import FAMILIES, generate
from tensorcanon.label_context import (
    GroupCode,
    IndexClass,
    build,
    label_permutation_from_group,
    update_context,
)
from tensorcanon.oracle import enumerate_label_group
from tensorcanon.signed_perm import compose, identity


F = GroupCode.NONE
C = GroupCode.COMPONENT
S = GroupCode.S_DUMMY
A = GroupCode.A_DUMMY
L = GroupCode.L_DUMMY
U = GroupCode.U_DUMMY


def test_component_plus_dummy_context():
    # T_{11ab}^{bc}: labels in order <a, c, 1_1, 1_2, b_1, b_2>
    ctx = build([
        IndexClass("free", 2),
        IndexClass("component", 2),
        IndexClass("dummy", 1, metric="symmetric"),
    ])
    assert ctx.values[1:] == [1, 2, 3, 3, 5, 5]
    assert ctx.groups[1:] == [F, F, C, C, S, S]


def test_metric_contraction_context():
    # T_{abcdef} U^{edfcgh}: labels <a, b, g, h, c1, c2, d1, d2, e1, e2, f1, f2>
    ctx = build([
        IndexClass("free", 4),
        IndexClass("dummy", 4, metric="symmetric"),
    ])
    assert ctx.values[1:] == [1, 2, 3, 4] + [5] * 8
    assert ctx.groups[1:] == [F] * 4 + [S] * 8


def test_no_metric_contraction_context():
    # same labels, but without a metric the values alternate 5,6 per pair
    ctx = build([
        IndexClass("free", 4),
        IndexClass("dummy", 4, metric="none"),
    ])
    assert ctx.values[1:] == [1, 2, 3, 4, 5, 6, 5, 6, 5, 6, 5, 6]
    assert ctx.groups[1:] == [F] * 4 + [L, U, L, U, L, U, L, U]


def test_update_after_consuming_dummy_leg():
    # consuming c1 promotes c2 to value 6 and the rest of the class to 7
    ctx = build([
        IndexClass("free", 4),
        IndexClass("dummy", 4, metric="symmetric"),
    ])
    new = update_context(ctx, 5)
    assert new.values[1:] == [1, 2, 3, 4, 5, 6] + [7] * 6
    assert new.groups[1:] == [F] * 6 + [S] * 6
    # the original context is untouched
    assert ctx.values[1:] == [1, 2, 3, 4] + [5] * 8


def test_update_component():
    ctx = build([IndexClass("component", 4)])
    new = update_context(ctx, 1)
    assert new.values[1:] == [1, 2, 2, 2]
    assert new.groups[1:] == [F, C, C, C]
    new2 = update_context(new, 2)
    assert new2.values[1:] == [1, 2, 3, 3]


def test_update_no_metric():
    # consuming a lower leg freezes the pair; remaining lowers move to
    # value 7, uppers to 8
    ctx = build([IndexClass("free", 4), IndexClass("dummy", 3, metric="none")])
    new = update_context(ctx, 5)
    assert new.values[1:] == [1, 2, 3, 4, 5, 6, 7, 8, 7, 8]
    assert new.groups[1:] == [F] * 6 + [L, U, L, U]


def test_narrowing_twice_copies_values_and_groups():
    # narrow the built context, then narrow the result twice: each context
    # keeps its own values and groups, and siblings share no list
    ctx = build([IndexClass("component", 2), IndexClass("dummy", 2, metric="symmetric")])
    first = update_context(ctx, 1)
    left, right = update_context(first, 2), update_context(first, 3)
    assert ctx.values[1:] == [1, 1, 3, 3, 3, 3]
    assert ctx.groups[1:] == [C, C, S, S, S, S]
    assert first.values[1:] == [1, 2, 3, 3, 3, 3]
    assert first.groups[1:] == [F, C, S, S, S, S]
    assert left.values[1:] == [1, 2, 3, 3, 3, 3]
    assert left.groups[1:] == [F, F, S, S, S, S]
    assert right.values[1:] == [1, 2, 3, 4, 5, 5]
    assert right.groups[1:] == [F, C, F, F, S, S]
    contexts = (ctx, first, left, right)
    assert len({id(c.values) for c in contexts}) == len({id(c.groups) for c in contexts}) == 4
    left.values[2] = left.groups[2] = 0
    assert right.values[2] == first.values[2] == 2
    assert right.groups[2] == first.groups[2] == C


def test_update_of_a_frozen_least_value_returns_the_context():
    ctx = build([IndexClass("free", 2), IndexClass("component", 2), IndexClass("dummy", 2, metric="symmetric")])
    assert update_context(ctx, 1) is ctx  # a free label
    narrowed = update_context(ctx, 5)
    # a consumed label and its partner are frozen
    assert update_context(narrowed, 5) is narrowed
    assert update_context(narrowed, 6) is narrowed
    assert narrowed.values[1:] == [1, 2, 3, 3, 5, 6, 7, 7]


def test_narrowed_contexts_are_kept_and_share_the_layout_tables():
    ctx = build([IndexClass("component", 2), IndexClass("dummy", 2, metric="none")])
    first = update_context(ctx, 1)
    assert update_context(ctx, 1) is first
    assert ctx.children == {1: first}
    assert update_context(first, 3) is update_context(first, 3)
    assert first.tables is ctx.tables is update_context(first, 3).tables
    assert build([IndexClass("component", 2)]).tables is not ctx.tables


def test_partner_of():
    ctx = build([IndexClass("free", 2), IndexClass("dummy", 2, metric="antisymmetric")])
    assert ctx.partner[3] == 4
    assert ctx.partner[4] == 3
    assert ctx.partner[5] == 6
    assert ctx.partner[6] == 5
    nometric = build([IndexClass("dummy", 2, metric="none")])
    assert nometric.partner[1] == 2
    assert nometric.partner[2] == 1
    assert nometric.partner[3] == 4
    assert nometric.partner[4] == 3
    # frees and components have no partner
    mixed = build([IndexClass("free", 2), IndexClass("component", 2), IndexClass("dummy", 1, metric="symmetric")])
    assert mixed.partner == (0, 0, 0, 0, 0, 6, 5)
    # consuming labels narrows values and groups but never the pair table
    for least in (3, 5, 4):
        mixed = update_context(mixed, least)
        assert mixed.partner == (0, 0, 0, 0, 0, 6, 5)


def test_label_permutation_crossed_metric_dummy():
    # e2 (label 10, crossed) reaches c1 (value 5) via the 4-cycle
    # (c1,e1,c2,e2): the pair swap composed with the intra-pair swap
    ctx = build([
        IndexClass("free", 4),
        IndexClass("dummy", 4, metric="symmetric"),
    ])
    ell = label_permutation_from_group(ctx, 10, 5)
    assert ell[10] == 5 and ell[5] == 9 and ell[9] == 6 and ell[6] == 10
    assert ell.sign == 1


def test_label_permutation_uncrossed_metric_dummy():
    # e1 (label 9, uncrossed) reaches c1 by the plain pair swap
    ctx = build([
        IndexClass("free", 4),
        IndexClass("dummy", 4, metric="symmetric"),
    ])
    ell = label_permutation_from_group(ctx, 9, 5)
    assert ell[9] == 5 and ell[5] == 9 and ell[10] == 6 and ell[6] == 10
    assert ell.sign == 1


def test_label_permutation_antisymmetric_sign():
    # crossing the legs of an antisymmetric pair costs a sign
    ctx = build([IndexClass("dummy", 2, metric="antisymmetric")])
    ell = label_permutation_from_group(ctx, 4, 1)
    assert ell[4] == 1
    assert ell.sign == -1
    # moving the whole pair without crossing does not
    ell2 = label_permutation_from_group(ctx, 3, 1)
    assert ell2[3] == 1 and ell2[4] == 2
    assert ell2.sign == 1


def test_label_permutation_no_metric():
    # upper leg e2 (label 10, value 6) reaches c2 by the double pair swap
    ctx = build([
        IndexClass("free", 4),
        IndexClass("dummy", 4, metric="none"),
    ])
    assert ctx.values[10] == 6
    ell = label_permutation_from_group(ctx, 10, 6)
    assert ell[10] == 6 and ell[9] == 5 and ell[6] == 10 and ell[5] == 9
    assert ell.sign == 1


def test_label_permutation_component():
    ctx = build([IndexClass("component", 3)])
    ell = label_permutation_from_group(ctx, 3, 1)
    assert ell[3] == 1 and ell[1] == 3 and ell[2] == 2


def test_label_permutation_identity_cases():
    ctx = build([IndexClass("free", 2), IndexClass("dummy", 1, metric="symmetric")])
    assert label_permutation_from_group(ctx, 3, 3) == identity(4)
    assert label_permutation_from_group(ctx, 1, 1) == identity(4)


CLASS_LISTS = [
    [IndexClass("free", 2), IndexClass("dummy", 3, metric="symmetric")],
    [IndexClass("component", 3), IndexClass("dummy", 2, metric="antisymmetric")],
    [IndexClass("free", 1), IndexClass("dummy", 3, metric="none")],
    [IndexClass("component", 2), IndexClass("component", 2)],
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CLASS_LISTS), st.randoms(use_true_random=False))
def test_consumption_preserves_value_invariant(classes, rng):
    # Definition-1 invariant: each label's value is the least label it
    # can still be exchanged with, and values never decrease as labels
    # are consumed in value order.
    ctx = build(classes)
    n = ctx.n
    for _ in range(n):
        candidates = sorted(
            {ctx.values[x] for x in range(1, n + 1) if ctx.groups[x] != GroupCode.NONE}
        )
        if not candidates:
            break
        least = candidates[0] if rng.random() < 0.7 else rng.choice(candidates)
        new = update_context(ctx, least)
        for x in range(1, n + 1):
            # a frozen label is its own value's only resident once consumed
            if new.groups[x] == GroupCode.NONE and ctx.groups[x] != GroupCode.NONE:
                continue
            assert new.values[x] >= ctx.values[x]
        ctx = new


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CLASS_LISTS))
def test_label_permutation_reaches_value(classes):
    # for every label, the constructed exchange really sends it to the
    # least label of its class
    ctx = build(classes)
    n = ctx.n
    for label in range(1, n + 1):
        if ctx.groups[label] == GroupCode.NONE:
            continue
        least = ctx.values[label]
        ell = label_permutation_from_group(ctx, label, least)
        assert ell[label] == least
        # the element moves whole pairs: the partner lands on the least
        # label's partner
        if ctx.groups[label] in (
            GroupCode.S_DUMMY,
            GroupCode.A_DUMMY,
            GroupCode.L_DUMMY,
            GroupCode.U_DUMMY,
        ):
            assert ell[ctx.partner[label]] == ctx.partner[least]
        assert sorted(ell.images) == list(range(1, n + 3))


@pytest.mark.parametrize("classes", CLASS_LISTS)
def test_label_permutations_are_group_elements_fixing_consumed_labels(classes):
    # consuming labels in value order, each active label's exchange is a
    # true element of the label group, sign included, that reaches the
    # label's value and fixes every label no longer exchangeable (frees
    # and consumed labels)
    ctx = build(classes)
    n = ctx.n
    group = {e.images for e in enumerate_label_group(classes, n)}
    while True:
        active = [x for x in range(1, n + 1) if ctx.groups[x] != GroupCode.NONE]
        if not active:
            break
        frozen = [x for x in range(1, n + 1) if ctx.groups[x] == GroupCode.NONE]
        for x in active:
            ell = label_permutation_from_group(ctx, x, ctx.values[x])
            assert ell.images in group
            assert ell[x] == ctx.values[x]
            assert all(ell[y] == y for y in frozen)
        ctx = update_context(ctx, min(ctx.values[x] for x in active))


def test_value_tables_read_each_slots_value():
    # every context the fast engine built or narrowed on the bench
    # families at sizes 2..6, and each one-step narrowing of the built
    # one, reads a slot's value through its translate table; a narrowed
    # context owns its values, groups and children, its value table is
    # immutable, and only the layout's tables dict is shared
    checked = 0
    for family in FAMILIES:
        for size in range(2, 7):
            prob = generate(family, size, 0).problem
            prob.canonicalize()
            root = prob.ctx
            n = root.n
            for x in range(1, n + 1):
                update_context(root, x)
            arrangements = (prob.g_init.images, bytes(range(1, n + 3)))
            stack = [root]
            while stack:
                ctx = stack.pop()
                assert type(ctx.value_table) is bytes and len(ctx.value_table) == 256
                for g in arrangements:
                    read = g.translate(ctx.value_table)
                    assert all(read[p - 1] == ctx.values[g[p - 1]] for p in range(1, n + 1)), (family, size, ctx)
                for child in ctx.children.values():
                    assert child.values is not ctx.values and child.groups is not ctx.groups
                    assert child.children is not ctx.children and child.tables is ctx.tables
                    stack.append(child)
                checked += 1
    assert checked > len(FAMILIES) * 5 * 2, checked
