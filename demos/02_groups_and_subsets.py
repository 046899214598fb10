"""Signed permutation groups: BSGS construction and subset detection.

Builds the Riemann slot-symmetry group, inspects its stabilizer chain,
shows how (anti)symmetric slot subsets are read off the group, and
assembles the group of a two-factor product from the factors' chains.
"""

from tensorcanon.perm_group import direct_product, product_subsets, schreier_sims, detect_symmetric_subsets
from tensorcanon.signed_perm import from_signed_cycles, compose

# R_{abcd}: antisymmetric pairs (1,2) and (3,4), symmetric pair exchange
gens = [
    from_signed_cycles(4, -1, [(1, 2)]),
    from_signed_cycles(4, 1, [(1, 3), (2, 4)]),
    from_signed_cycles(4, -1, [(3, 4)]),
]
bsgs = schreier_sims(4, gens)
print("Riemann slot group order:", bsgs.group_order)
print(f"base: the complete base 1..{bsgs.degree}, sign pair included")
for level in range(1, 5):
    print(f"  orbit of slot {level} at level {level}:", sorted(bsgs.orbit_of(level)))

# membership testing through the chain
pair_swap = from_signed_cycles(4, 1, [(1, 3), (2, 4)])
both = compose(pair_swap, from_signed_cycles(4, -1, [(1, 2)]))
print("contains +(1,3)(2,4):", bsgs.contains(pair_swap))
print("contains -(1,2)(1,3)(2,4) product:", bsgs.contains(both))
print("contains bare +(1,2):", bsgs.contains(from_signed_cycles(4, 1, [(1, 2)])))

# the subsets array summarizes which slots are mutually (anti)symmetric
print("symmetric subsets of R:", detect_symmetric_subsets(bsgs)[1:])

# a partially symmetric tensor next to a Riemann factor: the product
# group is assembled from each factor's own chain and subsets
T = schreier_sims(6, [from_signed_cycles(6, 1, [(i, i + 1)]) for i in (3, 4, 5)])
print("order of T(sym 3..6) x R:", direct_product([T, bsgs]).group_order)
subsets = product_subsets([detect_symmetric_subsets(T), detect_symmetric_subsets(bsgs)])
print("subsets of T(sym 3..6) x R:", subsets[1:])
