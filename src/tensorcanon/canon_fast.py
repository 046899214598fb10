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
the two values above them).  Each pass keeps one configuration per
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

from .label_context import GroupCode, update_context, label_permutation_from_group
from .signed_perm import SignedPermutation, compose  # noqa: F401 (perfbench/tracing.py counts canon_fast.compose calls)


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
    dummy leg hands its partner the adjacent even entry.  An entry
    written exactly once carries no exchange information and is not
    kept.

    Only the written entries are counted.  ``prop`` holds no singleton,
    as no array this function returns does, and none of its entries is
    overwritten: an entry is written only on a zero, or over an entry
    of this call, since fresh entries exceed every older one in absolute
    value.  When no written entry is kept (each supplied label is
    consumed, outside a subset or already propagated, or it would be
    alone in its family) the result is ``prop`` itself, so callers must
    not mutate it.
    """
    groups = ctx.groups
    wrote = {}  # initial slot -> entry written there
    memo = {}
    for p, q in instances:
        label = g[q - 1]
        sq = s[q - 1]
        if groups[label] == _NONE or subsets[q] == 0 or prop[sq] != 0:
            continue
        cur = wrote.get(sq, 0)
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
        wrote[sq] = entry
        if groups[label] in _DUMMY_CODES:
            pentry = _sign(entry) * (abs(entry) + 1)
            tgt = s[g.index(ctx.partner[label])]  # s at the partner's slot
            old = wrote.get(tgt, prop[tgt])
            if old == 0 or abs(pentry) < abs(old):
                wrote[tgt] = pentry
    if not wrote:
        return prop
    counts = Counter(wrote.values())
    kept = [(x, entry) for x, entry in wrote.items() if counts[entry] > 1]
    if not kept:
        return prop
    new = list(prop)
    for x, entry in kept:
        new[x] = entry
    return new


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


def append_non_redundant_instances(out, instances, g, s, least_value, S, i, ctx, subsets, prop):
    """Extend ``out`` with the slot-i descendants of configuration (g, s).

    Instances landing in an already-visited symmetric subset are skipped:
    the subset symmetry maps them onto the kept representative (possibly
    up to a sign, in which case the zero check has already had its say).
    Two instances are only mutually redundant when the labels they
    supply are exchangeable as labels, and for dummy legs that requires
    their partners to be exchangeable too — swapping the pairs drags
    the partners along.  So the visited key records the subset being
    filled and, for a dummy leg, where its partner sits: the partner
    slot's even propagated family when it carries one, else the subset
    holding that slot.  A dropped instance then fills the same subset
    as a kept one with a label of the same class, and its child is the
    kept child up to a label element, a slot permutation fixing slots
    1..i and an exchange of the two partners: a slot symmetry when
    they share a subset, a swap their even family licenses when they
    share one of those (see :func:`canonicalize`).

    ltilde moves the supplied label to ``least_value``.  Its table is
    read from ``ctx.tables``, the layout's dict, and built there from
    ``label_permutation_from_group(ctx, label, least_value)`` on first
    use; a label that already is ``least_value`` needs none.  An
    exchange child (p != q) folds in the swap of the two labels, signed
    by their family: two entries of the table, and the sign pair when
    the family is negative.  ``S.tree(i).moves(p)`` gives the points
    slot i's coset representative for p moves; the tree keeps them from
    their first use.

    Each child is appended as ``(ltilde∘g∘stilde, s∘stilde, checked)``:
    g is translated through ltilde's table, then the result and a copy
    of s are patched on the points stilde moves, and s is shared when
    stilde is the identity.  A child whose label is already in place
    (p == q, label == ``least_value``) starts from g itself.
    ``checked`` is ``prop``, which this configuration has passed the
    zero check against, or None for a child that took its label through
    an exchange (p != q): such a child must be checked again.
    """
    visited = set()
    entries = subsets.entries
    partner = ctx.partner
    tables = ctx.tables
    n = ctx.n
    moves = S.tree(i).moves
    for p, q in instances:
        label = g[q - 1]
        if entries[p] != 0:
            if ctx.groups[label] in _DUMMY_CODES:
                r = g.index(partner[label])
                family = prop[s[r]]
                far = ("fam", family) if family != 0 and family % 2 == 0 else abs(entries[r + 1])
            else:
                far = -1
            key = (abs(entries[p]), far)
            if key in visited:
                continue
            visited.add(key)
        if label == least_value:
            table = _IDENTITY_TABLE
        else:
            table = tables.get((label, least_value))
            if table is None:
                table = tables[label, least_value] = _table(label_permutation_from_group(ctx, label, least_value))
        if p != q:
            # q supplies the label through an exchange with slot p; fold
            # the (possibly signed) label swap in before relabelling
            other = g[p - 1]
            swapped = bytearray(table)
            swapped[label], swapped[other] = table[other], table[label]
            if prop[s[q - 1]] < 0:
                swapped[n + 1], swapped[n + 2] = table[n + 2], table[n + 1]
            table = swapped
        slots = moves(p)
        relabelled = g if table is _IDENTITY_TABLE else g.translate(table)
        if slots:
            child, child_s = bytearray(relabelled), bytearray(s)
            for x, y in slots:
                child[x - 1] = relabelled[y - 1]
                child_s[x - 1] = s[y - 1]
            child, child_s = bytes(child), bytes(child_s)
        else:
            child, child_s = relabelled, s
        out.append((child, child_s, prop if p == q else None))
    return out


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

    Work that repeats across configurations, passes and monomials is
    done once.  ``ctx`` is shared by every monomial of its class layout
    (``frontend.Registry.contexts``): narrowing it after a pass returns
    the context built the first time, and the translation table of each
    ``label_permutation_from_group(ctx, label, least_value)`` is built
    once per layout and kept in ``ctx.tables`` (see
    :class:`~tensorcanon.label_context.LabelContext`).  Coset
    representatives and the points they move are built once per
    declaration and kept on its chain's trees (see
    :class:`~tensorcanon.perm_group.SchreierTree`), and shifted into place
    once per product of declarations; a pass reads them as
    ``S.tree(i).moves(p)``.  A child is its parent's g translated
    through the label element's table, then patched, with a copy of s,
    on those points; it shares its parent's s when the representative
    is the identity.  ``prop`` is replaced, never mutated, and an update
    that keeps no entry returns it as it was.

    A dummy instance is dropped when an instance already kept from the
    same configuration fills the same subset Y and the partners of the
    two supplied labels, a1 and a2 at slots r1 and r2, carry one even
    entry e (see :func:`append_non_redundant_instances`).  The reason:

    * Up to an exchange of partners, the children are one point.  Let
      the kept instance fill p1 and the dropped one p2, both in Y, and
      read g with an exchange instance's swap folded in.  The
      transposition τ = (p1 p2) lies in Sym(Y) ⊆ S, with Y's sign, and
      the label element μ exchanging the pairs of a1 and a2 leg for leg
      carries no sign.  μ∘g∘τ is ±g with the labels at r1 and r2
      exchanged, and τ∘stilde2 sends i to p1.  So the dropped child is
      the kept child with its labels at stilde1⁻¹(r1) and stilde1⁻¹(r2)
      exchanged, up to a label element fixing the consumed labels and
      the pair just consumed, and a slot permutation fixing slots 1..i.
    * That exchange is licensed.  Entry e marks initial slots holding
      the partners of labels that share one odd family, and so one
      symmetric subset s0(Y0) of ``g_init``.  Exchanging two such
      partners is the transposition of their legs in s0(Y0), which lies
      in S, composed with the label element exchanging the two pairs:
      a true fact about ``g_init``, with the family's sign.  Later
      passes read it as they read any even family, letting either slot
      supply the cheaper label (q != p in
      :func:`get_least_value_instances`).

    The last point does not prove that the kept child's search reaches
    every least value the dropped child's would, since the exchange
    moves the partner of the label just consumed.  That step is
    checked, not proven.  13978 instances were dropped under this key
    (4808 of them kept when the key was the partner's subset) on the
    bench families at sizes 2–14, five of them up to 24, Riemann
    contractions up to k = 20, products of three to six rank-11 totally
    symmetric factors, 637 random products of (anti)symmetric factors
    and 600 random mixed monomials.  The search was continued from each
    dropped child and, apart, from its kept twin, each alone against a
    copy of the pass's final ``prop``.  The two gave the same least
    value at every later pass and the same result.

    After each pass with more than one child, the sorted configurations
    keep one per signed arrangement g, the one with the least s.  +g and
    -g stay apart, so the scan that finds them side by side still proves
    zeros.  A pass with one child keeps it as it is: there is nothing to
    merge or compare it with.  Dropping (g, s2) for (g, s1) is sound for
    these reasons:

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
    step is checked, not proven.  Each of the 179 configurations merged
    away on the inputs listed above was processed right after its kept
    twin, against the same ``prop``.  Each gave the twin's least value
    and children, recorded no new entry and passed the zero check.  The
    oracle and double-coset tests pin the outputs.

    Each child also carries the ``prop`` array its parent passed the
    zero check against, and its own check is skipped while ``prop`` is
    still that object, except for children that took their label
    through an exchange (p != q).  That is sound because such a child
    is ltilde∘g∘stilde with ltilde a label element, seen through
    s∘stilde: its family and label at slot p are the parent's at
    stilde(p), moved by ltilde, which keeps class, group code and
    pairs.  stilde ∈ S maps each detected subset onto a detected subset
    of the same sign, and narrowing the context only turns labels into
    NONE.  So no rule can fire on the child unless it fired on the
    parent, which passed.  An exchange child is not of that form: its
    swap of two labels comes from a propagated slot symmetry, not from
    the label group, so it is checked again.
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
    configs = [(bytes(g_init.images), bytes(range(1, n + 3)), None)]
    counts = []
    for i in range(1, n + 1):
        orbit = S.orbit_of(i)
        least_value, instances = get_least_value_instances(i, orbit, configs, ctx, prop)
        out = []
        for (g, s, checked), inst in zip(configs, instances):
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
            append_non_redundant_instances(out, inst, g, s, least_value, S, i, ctx, subsets, prop)
        ctx = update_context(ctx, least_value)
        if len(out) == 1:
            configs = out
            counts.append(1)
            continue
        out.sort(key=itemgetter(0, 1))
        configs = []
        for c in out:
            if configs and configs[-1][0] == c[0]:
                continue
            configs.append(c)
        counts.append(len(configs))
        for a, b in zip(configs, configs[1:]):
            # kept arrangements are distinct, so equal slots mean opposite signs
            if a[0][:n] == b[0][:n]:
                return finish(CanonResult.zero(), counts)
    return finish(CanonResult.canonical(SignedPermutation(configs[0][0])), counts)
