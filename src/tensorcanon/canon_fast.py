"""Canonicalization with symmetry propagation.

The engine fixes one slot per pass, left to right.  A configuration is
a point g of the double coset L·g_init·S, the current signed
slot->label assignment, carried with the slot permutation s that
reached it from the initial assignment.  Both are kept as ``bytes`` in
the array form of :mod:`~tensorcanon.signed_perm` (length n+2, sign
pair last), which the helpers below index and iterate directly; only
the result is wrapped back into a signed permutation.  A label
permutation is applied to every slot at once by ``bytes.translate``
with its :func:`_table`, and configurations sort by memcmp, which is
the order of their image tuples.  A byte holds labels up to 255, so
the engine takes at most ``MAX_SLOTS`` = 253 slots (the sign pair takes
the two values above them).  Each pass renumbers every child's
unconsumed labels by first appearance, then keeps one configuration per
signed g, the one with the least s (see :func:`canonicalize` for why
that loses no result).  For each slot the engine finds every way of
bringing the least reachable label into that slot, but prunes branches
that are forced equal (or equal up to sign) to a kept branch by slot
symmetries discovered along the way.

Propagated symmetries are recorded per *initial* slot (indexed through
s) in an array ``prop``: labels known to be mutually exchangeable share
an odd value; a dummy leg whose partner's exchangeability is implied
gets the adjacent even value.  Negative entries mark antisymmetric
exchanges, which both prune and detect vanishing configurations early.
An entry is a fact about the initial assignment, so every configuration
may read every entry, whichever configuration recorded it.
"""

from __future__ import annotations

import itertools
from collections import Counter
from operator import itemgetter

from .label_context import GroupCode, first_appearance_renaming, update_context, label_permutation_from_group
from .signed_perm import SignedPermutation, from_signed_cycles, compose


class CanonResult:
    """Either the canonical configuration or Zero."""

    __slots__ = ("g",)

    def __init__(self, g):
        self.g = g

    @classmethod
    def zero(cls):
        return cls(None)

    @classmethod
    def canonical(cls, g):
        return cls(g)

    @property
    def is_zero(self):
        return self.g is None

    def __eq__(self, other):
        return isinstance(other, CanonResult) and self.g == other.g

    def __hash__(self):
        return hash(self.g)

    def __repr__(self):
        return "CanonResult(zero)" if self.is_zero else f"CanonResult({self.g})"


def _sign(x):
    return 1 if x > 0 else -1 if x < 0 else 0


_NONE, _COMPONENT, _S_DUMMY, _A_DUMMY = GroupCode.NONE, GroupCode.COMPONENT, GroupCode.S_DUMMY, GroupCode.A_DUMMY
_DUMMY_CODES = (_S_DUMMY, _A_DUMMY, GroupCode.L_DUMMY, GroupCode.U_DUMMY)


def get_least_value_instances(i, orbit, configs, ctx, prop):
    """Least reachable value over slot i's orbit, and where it occurs.

    Returns ``(least_value, instances)`` where ``instances[k]`` is the
    list of (p, q) pairs for configuration k: p is the orbit slot to
    fill and q the slot whose label will be moved into it.  Normally
    q == p; when p carries an even propagated entry (a dummy partner
    whose exchange is implied) any slot of the same propagated family
    holding a cheaper label may supply it instead.
    """
    n = ctx.n
    values = ctx.values
    least_value = n
    instances = [[] for _ in configs]
    for k, (gi, si, *_) in enumerate(configs):
        for p in orbit:
            q = p
            entry = prop[si[p - 1]]
            if entry != 0 and entry % 2 == 0:
                for cand in range(i, n + 1):
                    if prop[si[cand - 1]] == entry and values[gi[cand - 1]] < values[gi[q - 1]]:
                        q = cand
            value = values[gi[q - 1]]
            if value < least_value:
                least_value = value
                for lst in instances:
                    lst.clear()
                instances[k].append((p, q))
            elif value == least_value:
                instances[k].append((p, q))
    return least_value, instances


def update_propagated_symmetries(instances, g, s, ctx, subsets, prop, next_odd):
    """Record slot symmetries uncovered by this slot's least instances.

    Labels sitting in the same symmetric subset and still exchangeable
    get matching odd entries (one shared odd number per subset); each
    dummy leg hands its partner the adjacent even entry.  Entries
    occurring exactly once carry no exchange information and are removed
    before returning; ``prop`` itself is expected to hold none, as every
    array this function returns does.

    When no instance can add an entry (each supplied label is consumed,
    outside a subset, or already propagated) the result is ``prop``
    itself, so callers must not mutate it.
    """
    groups = ctx.groups
    new = None
    memo = {}
    for p, q in instances:
        label = g[q - 1]
        sq = s[q - 1]
        if groups[label] == _NONE or subsets[q] == 0 or prop[sq] != 0:
            continue
        if new is None:
            new = list(prop)
        cur = new[sq]
        if subsets[q] in memo:
            entry = memo[subsets[q]]
        elif cur != 0:
            # an even entry propagated here from an earlier (smaller)
            # family takes precedence over starting a fresh one
            continue
        else:
            entry = _sign(subsets[q]) * next_odd()
            memo[subsets[q]] = entry
        if cur != 0 and abs(cur) <= abs(entry):
            continue
        new[sq] = entry
        if groups[label] in _DUMMY_CODES:
            pentry = _sign(entry) * (abs(entry) + 1)
            tgt = s[g.index(ctx.partner[label])]  # s at the partner's slot
            if new[tgt] == 0 or abs(pentry) < abs(new[tgt]):
                new[tgt] = pentry
    return prop if new is None else _remove_singletons(new)


def _remove_singletons(prop):
    counts = Counter(prop)
    return [v if counts[v] > 1 else 0 for v in prop]


def zero_due_to_propagated_symmetries(g, s, ctx, subsets, prop):
    """True when propagated symmetries force this configuration to vanish.

    Three situations are fatal: a repeated component label inside an
    antisymmetric exchange family; two dummy legs of one propagated
    family landing in the same symmetric subset whose sign disagrees
    with the family's (the same label exchange then carries both signs);
    and both legs of one dummy pair in the same exchange family when the
    metric sign and the exchange sign multiply to -1.

    Each rule is tested at a slot holding a label that can still be
    exchanged (group code other than NONE) in a nonzero family; the
    dummy-pair rule fires at the later of the two legs, as a scan in
    slot order would find it.
    """
    groups = ctx.groups
    entries = subsets.entries
    # the propagated family of each slot, slot p at index p-1
    syms = [prop[x] for x in s[:-2]]
    for p, (sym, label) in enumerate(zip(syms, g), 1):
        if sym == 0:
            continue
        group = groups[label]
        if group == _NONE:
            continue
        if group == _COMPONENT:
            if sym < 0:
                return True
            continue
        sub = entries[p]
        if sym % 2 == 0 and sub != 0 and (sym > 0) != (sub > 0):
            # does the subset host another slot of this even family?
            a = abs(sub)
            if sum(1 for y, e in zip(syms, entries[1:]) if y == sym and abs(e) == a) >= 2:
                return True
        if not (group == _S_DUMMY and sym < 0 or group == _A_DUMMY and sym > 0):
            continue
        q = g.index(ctx.partner[label]) + 1
        if q < p and syms[q - 1] == sym:
            return True
    return False


MAX_SLOTS = 253
_IDENTITY_TABLE = bytes(range(256))


def _table(perm):
    """The ``bytes.translate`` table of ``perm``: ``g.translate(_table(perm))`` is perm∘g."""
    return bytes((0,) + perm.images) + _IDENTITY_TABLE[len(perm.images) + 1:]


def append_non_redundant_instances(out, instances, g, s, least_value, S, i, ctx, subsets, prop, ordered, lpfgs):
    """Extend ``out`` with the slot-i descendants of configuration (g, s).

    Instances landing in an already-visited symmetric subset are skipped:
    the subset symmetry maps them onto the kept representative (possibly
    up to a sign, in which case the zero check has already had its say).
    Two instances are only mutually redundant when the labels they
    supply are exchangeable as labels, and for dummy legs that requires
    their partners to sit in matching subsets — swapping the pairs drags
    the partners along, and the slot group can only absorb that motion
    inside a single subset.  So the visited key records both the subset
    being filled and the subset holding the supplied label's partner.

    ``lpfgs`` maps a label to its ``label_permutation_from_group(ctx,
    label, least_value)`` and that permutation's :func:`_table`; one
    dict, shared by a whole slot pass, builds each of them once.
    ``S.tree(i).moves(p)`` gives the points slot i's coset
    representative for p moves; the tree keeps them from their first use.

    Each child is appended as ``(ltilde∘g∘stilde, s∘stilde, checked,
    ordered)``: g is translated through ltilde's table, then the result
    and a copy of s are patched on the points stilde moves, and s is
    shared when stilde is the identity.
    ``checked`` is ``prop``, which this configuration has passed the
    zero check against, or None for a child that took its label through
    an exchange (p != q): such a child must be checked again.  The child
    is ``ordered`` (its unconsumed labels already in first-appearance
    order) when this configuration is and the child fills slot i in
    place (p == q == i); see :func:`canonicalize` for why.
    """
    visited = set()
    entries = subsets.entries
    partner = ctx.partner
    moves = S.tree(i).moves
    for p, q in instances:
        label = g[q - 1]
        if entries[p] != 0:
            if ctx.groups[label] in _DUMMY_CODES:
                far = abs(entries[g.index(partner[label]) + 1])
            else:
                far = -1
            key = (abs(entries[p]), far)
            if key in visited:
                continue
            visited.add(key)
        lpfg = lpfgs.get(label)
        if lpfg is None:
            perm = label_permutation_from_group(ctx, label, least_value)
            lpfg = lpfgs[label] = (perm, _table(perm))
        if p != q:
            # q supplies the label through an exchange with slot p; fold
            # the (possibly signed) label swap in before relabelling
            eps = _sign(prop[s[q - 1]])
            swap = from_signed_cycles(ctx.n, eps, [(label, g[p - 1])])
            table = _table(compose(lpfg[0], swap))
        else:
            table = lpfg[1]
        slots = moves(p)
        relabelled = g.translate(table)
        if slots:
            child, child_s = bytearray(relabelled), bytearray(s)
            for x, y in slots:
                child[x - 1] = relabelled[y - 1]
                child_s[x - 1] = s[y - 1]
            child, child_s = bytes(child), bytes(child_s)
        else:
            child, child_s = relabelled, s
        out.append((
            child,
            child_s,
            prop if p == q else None,
            ordered and p == q == i,
        ))
    return out


def _renamed(ctx, config, i):
    """``config`` with its unconsumed labels renumbered by first appearance, marked ordered."""
    g, s, checked, _ = config
    lam = first_appearance_renaming(ctx, g[i:-2])
    if lam is not None:
        g = g.translate(_table(lam))
    return g, s, checked, True


def canonicalize(g_init, S, ctx, subsets, trace=None):
    """Canonicalize the configuration ``g_init``.

    ``S`` is the slot symmetry :class:`~tensorcanon.perm_group.Bsgs`,
    ``ctx`` the initial :class:`~tensorcanon.label_context.LabelContext`
    and ``subsets`` the detected symmetric subsets.  ``trace``, if
    given, is a dict that receives ``configs_per_slot`` (configuration
    counts after each slot pass), ``max_configs`` and ``prop_updates``
    (the propagation arrays before and after each update, kept as they
    are since no array is mutated, with the slot action s, as
    ``bytes``, and the supplied label values).

    Work that repeats across configurations is done once: each slot
    pass builds ``label_permutation_from_group`` once per supplied label
    (the context and the least value are fixed within a pass), with its
    translation table.  Coset representatives and the points they move
    are built once per declaration and kept on its chain's trees (see
    :class:`~tensorcanon.perm_group.SchreierTree`), and shifted into place
    once per product of declarations; a pass reads them as
    ``S.tree(i).moves(p)``.  A child is its parent's g translated
    through the label element's table, then patched, with a copy of s,
    on those points; it shares its parent's s when the representative
    is the identity.  The renaming λ below is one more translation.
    ``prop`` is replaced, never mutated, and an update that adds no entry
    returns it as it was.

    After each pass with more than one child, the sorted configurations
    keep one per signed arrangement g, the one with the least s.  +g and
    -g stay apart, so the scan that finds them side by side still proves
    zeros.  A pass with one child keeps it as it is: there is nothing to
    rename, merge or compare it with.  Dropping
    (g, s2) for (g, s1) is sound for these reasons:

    * Nothing false is added.  An odd family marks initial slots inside
      s(Y) whose labels share a class, where Y is a symmetric subset
      and (g, s) the configuration that recorded them; Sym(s(Y)) =
      s·Sym(Y)·s⁻¹ lies in S.  An even family marks the initial slots
      of those labels' partners, and the label group keeps pairs
      together.  Either is a fact about ``g_init`` that every
      configuration reads through its own s.  So with fewer
      configurations the search still reaches only points of
      ±L·g_init·S, and the zero check still fires only on true facts.
      A merge could only miss something: a smaller candidate, or a
      zero.
    * The pass that merges sees the same candidates.  Its kept list
      holds exactly the signed arrangements that the list of distinct
      (g, s) pairs would hold, so the ±g scan compares the same
      neighbours.
    * Nothing reachable is lost.  Equal signed g are one point of the
      double coset.  The arrangements still reachable from it are
      λ∘g∘σ, with σ fixing the filled slots and λ a label element.
      Its least completion, and any -h it leads to, therefore depend
      on g alone.  The two configurations differ by τ = s1⁻¹∘s2 in S,
      with g∘τ = μ∘g for a label element μ.  s enters a pass only
      through the view ``prop[s[p]]``.  Both views read the same
      recorded facts, placed on slots of g that the symmetry τ
      exchanges.

    The last point does not prove that the kept view reaches every
    child the dropped view would reach, in this pass or later.  That
    step is checked, not proven.  In 17419 dropped configurations (the
    bench families, Riemann contractions up to k = 20 and 600 random
    mixed monomials), each dropped configuration was processed right
    after its kept twin, against the same ``prop``.  Each gave the
    twin's least value and children, recorded no new entry and passed
    the zero check.  The oracle and double-coset tests pin the outputs.

    Before that merge, when a pass has more than one child, each child
    g becomes λ∘g with its s unchanged.  λ is
    :func:`~tensorcanon.label_context.first_appearance_renaming` of the
    narrowed context: it renumbers each class's unconsumed dummy pairs,
    lower leg onto lower leg, and repeated component labels, in order of
    first appearance in slots i+1..n, and fixes every consumed label.
    So configurations that differ by such a renaming merge, as
    Butler–Portugal's label stabilizer of the filled prefix makes them
    one.  This is sound:

    * s is unchanged, so the view ``prop[s[p]]`` is unchanged.
    * λ keeps each label's class, value, ``GroupCode`` and
      ``ctx.partner``, which is all the helpers read of a label.  So the
      search from λ∘g is the λ-image of the search from g; each later
      pass fills its slot with the same least value, and both end at
      the same fully consumed arrangement.
    * λ carries no sign and depends only on g's unsigned images, so +g
      and -g get the same λ and stay a pair; and a ±h pair after
      renaming, h = λ1∘g1 = -λ2∘g2, puts g1 and -g2 in one double
      coset, a true zero.

    Each child also carries the ``prop`` array its parent passed the
    zero check against, and its own check is skipped while ``prop`` is
    still that object, except for children that took their label
    through an exchange (p != q).  That is sound because such a child
    is μ∘g∘stilde with μ = λ∘ltilde a label element, seen through
    s∘stilde: its family and label at slot p are the parent's at
    stilde(p), renamed by μ, which keeps class, group code and pairs.
    stilde ∈ S maps each detected subset onto a detected subset of the
    same sign, and narrowing the context only turns labels into NONE.
    So no rule can fire on the child unless it fired on the parent,
    which passed.  An exchange child is not of that form: its swap of
    two labels comes from a propagated slot symmetry, not from the label
    group, so it is checked again.

    A child marked ``ordered`` is not renamed, because its λ would be
    the identity.  Every renamed child is ordered, and a child of an
    ordered parent stays ordered when it fills slot i in place: p == q
    == i, so stilde is the identity.  Its supplied label is then
    ``least_value`` or that label's partner, so its ltilde at most swaps
    the two legs of the pair being consumed.  The reasons:

    * Each class's unconsumed labels are a run starting at the class
      value.  In the ordered parent the block at slot i (its label's
      dummy pair or component label) is the first block met in slots
      i..n, so it is the first block of its class's run.  It holds the
      least value, so it is the block of ``least_value``.  A label of
      group NONE holds its own value, so then the label is
      ``least_value`` itself.
    * The child's unconsumed blocks in slots i+1..n therefore appear in
      the parent's order minus the consumed block.  ``update_context``
      removes that same block from the run.  It raises the rest of the
      block's class uniformly, so the classes keep their order.  So the
      child's first-appearance order is again the run.
    """
    n = ctx.n

    def finish(result, counts):
        if trace is not None:
            trace["configs_per_slot"] = counts
            trace["max_configs"] = max(counts, default=1)
        return result

    if subsets.inconsistent:
        return finish(CanonResult.zero(), [])
    prop = [0] * (n + 1)
    next_odd = itertools.count(1, 2).__next__
    configs = [(bytes(g_init.images), bytes(range(1, n + 3)), None, False)]
    counts = []
    for i in range(1, n + 1):
        orbit = S.orbit_of(i)
        least_value, instances = get_least_value_instances(i, orbit, configs, ctx, prop)
        out = []
        lpfgs = {}
        for (g, s, checked, ordered), inst in zip(configs, instances):
            if not inst:
                continue
            prev = prop
            prop = update_propagated_symmetries(inst, g, s, ctx, subsets, prop, next_odd)
            if trace is not None:
                trace.setdefault("prop_updates", []).append(
                    (prev, prop, s, [ctx.values[g[q - 1]] for _, q in inst])
                )
            if prop is not checked and zero_due_to_propagated_symmetries(g, s, ctx, subsets, prop):
                return finish(CanonResult.zero(), counts)
            append_non_redundant_instances(out, inst, g, s, least_value, S, i, ctx, subsets, prop, ordered, lpfgs)
        ctx = update_context(ctx, least_value)
        if len(out) == 1:
            configs = out
            counts.append(1)
            continue
        out = [c if c[3] else _renamed(ctx, c, i) for c in out]
        out.sort(key=itemgetter(0, 1))
        configs = []
        for c in out:
            if configs and configs[-1][0] == c[0]:
                continue
            configs.append(c)
        for a, b in zip(configs, configs[1:]):
            # kept arrangements are distinct, so equal slots mean opposite signs
            if a[0][:n] == b[0][:n]:
                counts.append(len(configs))
                return finish(CanonResult.zero(), counts)
        counts.append(len(configs))
    return finish(CanonResult.canonical(SignedPermutation(configs[0][0])), counts)
