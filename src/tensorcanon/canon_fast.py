"""Canonicalization with symmetry propagation.

The engine fixes one slot per pass, left to right.  A configuration is
a point g of the double coset L·g_init·S, the current signed
slot->label assignment, carried with the slot permutation s that
reached it from the initial assignment.  Each pass keeps one
configuration per signed g, the one with the least s (see
:func:`canonicalize` for why that loses no result).  For each slot the
engine finds every way of bringing the least reachable label into that
slot, but prunes branches that are forced equal (or equal up to sign)
to a kept branch by slot symmetries discovered along the way.

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

from .label_context import GroupCode, update_context, label_permutation_from_group, partner_of
from .signed_perm import identity, from_signed_cycles, compose, preimage


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
    for k, (g, s) in enumerate(configs):
        gi, si = g.images, s.images
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
    gi, si, groups = g.images, s.images, ctx.groups
    new = None
    memo = {}
    for p, q in instances:
        label = gi[q - 1]
        sq = si[q - 1]
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
            partner = partner_of(ctx, label)
            pslot = preimage(g, partner)
            pentry = _sign(entry) * (abs(entry) + 1)
            tgt = s[pslot]
            if new[tgt] == 0 or abs(pentry) < abs(new[tgt]):
                new[tgt] = pentry
    return prop if new is None else _remove_singletons(new)


def _remove_singletons(prop):
    counts = {}
    for v in prop:
        if v != 0:
            counts[v] = counts.get(v, 0) + 1
    return [v if v == 0 or counts[v] > 1 else 0 for v in prop]


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
    gi, si, groups = g.images, s.images, ctx.groups
    entries = subsets.entries
    # the propagated family of each slot, slot p at index p-1
    syms = [prop[x] for x in si[: ctx.n]]
    for p, (sym, label) in enumerate(zip(syms, gi), 1):
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
        # partner_of, inlined for the two metric dummy codes
        partner = label - 1 if (label - ctx.values[label]) % 2 == 1 else label + 1
        q = gi.index(partner) + 1
        if q < p and syms[q - 1] == sym:
            return True
    return False


def append_non_redundant_instances(out, instances, g, s, least_value, S, i, ctx, subsets, prop, lpfgs=None):
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
    label, least_value)``; one dict shared by a whole slot pass builds
    each label's permutation once.
    """
    visited = set()
    n = ctx.n
    entries = subsets.entries
    if lpfgs is None:
        lpfgs = {}
    for p, q in instances:
        label = g[q]
        if entries[p] != 0:
            if ctx.groups[label] in _DUMMY_CODES:
                pslot = preimage(g, partner_of(ctx, label))
                far = abs(entries[pslot])
            else:
                far = -1
            key = (abs(entries[p]), far)
            if key in visited:
                continue
            visited.add(key)
        lpfg = lpfgs.get(label)
        if lpfg is None:
            lpfg = lpfgs[label] = label_permutation_from_group(ctx, label, least_value)
        if prop[s[q]] != 0 and p != q:
            # q supplies the label through an exchange with slot p; fold
            # the (possibly signed) label swap in before relabelling
            eps = _sign(prop[s[q]])
            swap = from_signed_cycles(n, eps, [(label, g[p])])
            ltilde = compose(lpfg, swap)
        else:
            ltilde = lpfg
        stilde = S.coset_rep(i, p)
        out.append((compose(ltilde, compose(g, stilde)), compose(s, stilde)))
    return out


def canonicalize(g_init, S, ctx, subsets, trace=None):
    """Canonicalize the configuration ``g_init``.

    ``S`` is the slot symmetry :class:`~tensorcanon.perm_group.Bsgs`,
    ``ctx`` the initial :class:`~tensorcanon.label_context.LabelContext`
    and ``subsets`` the detected symmetric subsets.  ``trace``, if
    given, is a dict that receives ``configs_per_slot`` (configuration
    counts after each slot pass), ``max_configs`` and ``prop_updates``
    (before/after snapshots of the propagation array, with the slot
    action and supplied label values of each update).

    Work that repeats across configurations is done once: each slot
    pass builds ``label_permutation_from_group`` once per supplied label
    (the context and the least value are fixed within a pass); and when
    ``S`` is a :func:`~tensorcanon.perm_group.direct_product`, as
    ``build_problem`` makes it, its trees keep every coset
    representative they hand out, so each ``S.coset_rep(i, p)`` is built
    once per search.
    ``prop`` is replaced, never mutated, and an update that adds no entry
    returns it as it was.

    After each pass the sorted configurations keep one per signed
    arrangement g, the one with the least s.  +g and -g stay apart, so
    the scan that finds them side by side still proves zeros.  Dropping
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
    """
    n = ctx.n

    def finish(result, counts):
        if trace is not None:
            trace["configs_per_slot"] = counts
            trace["max_configs"] = max(counts, default=1)
        return result

    if subsets.inconsistent:
        return finish(CanonResult.zero(), [])
    ctx = ctx.copy()
    prop = [0] * (n + 1)
    next_odd = itertools.count(1, 2).__next__
    configs = [(g_init, identity(n))]
    counts = []
    for i in range(1, n + 1):
        orbit = S.orbit_of(i)
        least_value, instances = get_least_value_instances(i, orbit, configs, ctx, prop)
        out = []
        lpfgs = {}
        for (g, s), inst in zip(configs, instances):
            if not inst:
                continue
            prev = prop
            prop = update_propagated_symmetries(inst, g, s, ctx, subsets, prop, next_odd)
            if trace is not None:
                trace.setdefault("prop_updates", []).append(
                    (list(prev), list(prop), s.images, [ctx.values[g[q]] for _, q in inst])
                )
            if zero_due_to_propagated_symmetries(g, s, ctx, subsets, prop):
                return finish(CanonResult.zero(), counts)
            append_non_redundant_instances(out, inst, g, s, least_value, S, i, ctx, subsets, prop, lpfgs)
        ctx = update_context(ctx, least_value)
        out.sort(key=lambda c: (c[0].images, c[1].images))
        configs = []
        for c in out:
            if configs and configs[-1][0] == c[0]:
                continue
            configs.append(c)
        for a, b in zip(configs, configs[1:]):
            if a[0].images[:n] == b[0].images[:n] and a[0].sign != b[0].sign:
                counts.append(len(configs))
                return finish(CanonResult.zero(), counts)
        counts.append(len(configs))
    return finish(CanonResult.canonical(configs[0][0]), counts)
