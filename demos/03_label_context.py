"""The label context: values and group codes.

The label group is never materialized: two arrays over label space
encode which labels are interchangeable (equal value) and by which kind
of exchange (group code), and a fixed pair table names each dummy leg's
partner. Consuming the least label updates the two arrays.
"""

from tensorcanon.label_context import (
    IndexClass,
    build,
    update_context,
    label_permutation_from_group,
)

# T_{abcdef} U^{edfcgh}: frees a,b,g,h and metric dummies c,d,e,f
ctx = build([
    IndexClass("free", 4),
    IndexClass("dummy", 4, metric="symmetric"),
])
print("labels: a b g h  c1 c2 d1 d2 e1 e2 f1 f2")
print("values:", ctx.values[1:])
print("groups:", [g.name for g in ctx.groups[1:]])

# all 8 dummy legs share value 5: any leg can become the least label.
# label 10 (e2) reaches label 5 (c1) by crossing through the metric:
ell = label_permutation_from_group(ctx, 10, 5)
print("exchange sending e2 -> c1:", ell)
print("partner of e2:", ctx.partner[10], " partner of c1:", ctx.partner[5])

# consuming c1 freezes it, promotes its partner, and bumps the rest
ctx2 = update_context(ctx, 5)
print("after consuming c1:")
print("values:", ctx2.values[1:])
print("groups:", [g.name for g in ctx2.groups[1:]])

# without a metric, lower and upper legs form separate exchange groups
nom = build([IndexClass("free", 4), IndexClass("dummy", 4, metric="none")])
print("no-metric values:", nom.values[1:])
print("no-metric groups:", [g.name for g in nom.groups[1:]])
