"""Canonicalization with symmetry propagation.

The engine fixes one slot per pass, left to right.  A configuration is
a point g of the double coset L·g_init·S, the current signed
slot->label assignment, carried with the slot permutation s that
reached it from the initial assignment.  Both are kept as the bare
``images`` of a :class:`~tensorcanon.signed_perm.SignedPermutation`
(n+2 bytes, sign pair last), which the helpers below index and iterate
directly; only the result is wrapped back into a signed permutation.
Each map applied to every slot at once is one ``bytes`` call through a
256-byte translate table, and no signed permutation is built per child:
a label element relabels g through its
:attr:`~tensorcanon.signed_perm.SignedPermutation.table`; a child x∘u
(x = g or s, u a coset representative) is ``u.translate(b"\\0" + x +
tail)``, x itself padded into a table; the value of each slot's label
is ``g.translate(ctx.value_table)``; and the slot holding a label,
looked up for dummy partners, is read from ``bytes.maketrans(g,
identity)``, built at a configuration's first partner lookup.
Configurations sort by memcmp, the order of signed permutations, so the
engine takes at most ``signed_perm.MAX_SLOTS`` = 253 slots.  Each pass
keeps one configuration per signed g, the one with the least s (see
:func:`canonicalize` for why that loses no result).  For each slot the
engine finds every way of bringing the least reachable label into that
slot, but prunes branches that are forced equal (or equal up to sign)
to a kept branch by slot symmetries discovered along the way.

Propagated symmetries are recorded per *initial* slot (indexed through
s) in an array ``prop``: labels known to be mutually exchangeable share
an odd value; a dummy leg whose partner's exchangeability is implied
gets the adjacent even value.  Negative entries mark antisymmetric
exchanges.  Both kinds prune; the zeros they could reveal are proved
once, before the first pass, by :func:`zero_before_search`.
An entry is a fact about the initial assignment, so every configuration
may read every entry, whichever configuration recorded it.
"""

from __future__ import annotations

import itertools

from .label_context import GroupCode, update_context, label_permutation_from_group
# compose is not called here: it stays importable because perfbench's tracer
# counts calls through ``canon_fast.compose``
from .signed_perm import CanonResult, SignedPermutation, compose, identity  # noqa: F401


def _sign(x):
    return 1 if x > 0 else -1 if x < 0 else 0


_IDENTITY = bytes(range(256))


def _slots_of(g):
    """The label -> slot inverse of configuration ``g``: ``_slots_of(g)[g[p - 1]] == p``."""
    return bytes.maketrans(g, _IDENTITY[1 : len(g) + 1])


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

    That slot is the first of slots i..n holding the family's least
    value, taken when it is cheaper than p's own label.  A family's
    least value and first slot are found in one sweep over i..n, made at
    the first orbit point of the configuration that carries the family;
    every later point carrying it reads them.
    """
    n = ctx.n
    value_table = ctx.value_table
    least_value = n
    instances = [[] for _ in configs]
    for k, (gi, si) in enumerate(configs):
        gv = gi.translate(value_table)  # the value of each slot's label
        least = {}  # even family -> (least value, first slot holding it) over slots i..n
        for p in orbit:
            q = p
            value = gv[p - 1]
            entry = prop[si[p - 1]]
            if entry != 0 and entry % 2 == 0:
                found = least.get(entry)
                if found is None:
                    found = (n + 1, 0)  # no value exceeds n, and slot p is in the family
                    for cand, x in enumerate(si[i - 1 : n], i):
                        if prop[x] == entry:
                            v = gv[cand - 1]
                            if v < found[0]:
                                found = (v, cand)
                    least[entry] = found
                if found[0] < value:
                    value, q = found
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
    not mutate it.  Nothing is allocated before the first write, and a
    lone written entry is a singleton, so fewer than two writes return
    ``prop`` at once.
    """
    groups = ctx.groups
    wrote = None  # initial slot -> entry written there
    for p, q in instances:
        sq = s[q - 1]
        if prop[sq] != 0:
            continue
        label = g[q - 1]
        sub = subsets[q]
        if groups[label] == _NONE or sub == 0:
            continue
        if wrote is None:
            wrote, memo, slot_of = {}, {}, None
        cur = wrote.get(sq, 0)
        if sub in memo:
            entry = memo[sub]
        elif cur != 0:
            # an even entry propagated here from an earlier (smaller)
            # family takes precedence over starting a fresh one
            continue
        else:
            entry = memo[sub] = _sign(sub) * next_odd()
        if cur != 0 and abs(cur) <= abs(entry):
            continue
        wrote[sq] = entry
        if groups[label] in _DUMMY_CODES:
            pentry = _sign(entry) * (abs(entry) + 1)
            if slot_of is None:
                slot_of = _slots_of(g)
            tgt = s[slot_of[ctx.partner[label]] - 1]  # s at the partner's slot
            old = wrote.get(tgt, prop[tgt])
            if old == 0 or abs(pentry) < abs(old):
                wrote[tgt] = pentry
    if wrote is None or len(wrote) < 2:
        return prop
    repeated = {}  # entry -> whether it was written more than once
    for entry in wrote.values():
        repeated[entry] = entry in repeated
    kept = [(x, entry) for x, entry in wrote.items() if repeated[entry]]
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

    The engine does not call this check: wherever a rule would fire,
    :func:`zero_before_search` has proved ``g_init`` zero (see there).
    It stays unchanged because perfbench's tracer wraps it by name and
    the invariance tests' audit runs it after every propagation update.
    It goes with the tracer's per-helper wrappers, like ``compose``.
    """
    groups = ctx.groups
    slot_of = None
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
        sub = subsets[p]
        if sym % 2 == 0 and sub != 0 and (sym > 0) != (sub > 0):
            # does the subset host another slot of this even family?
            a = abs(sub)
            if sum(1 for y, e in zip(syms, subsets[1:]) if y == sym and abs(e) == a) >= 2:
                return True
        if not (group == _S_DUMMY and sym < 0 or group == _A_DUMMY and sym > 0):
            continue
        if slot_of is None:
            slot_of = _slots_of(g)
        q = slot_of[ctx.partner[label]]
        if q < p and syms[q - 1] == sym:
            return True
    return False


def zero_before_search(g, ctx, subsets):
    """True when the detected subsets of ``g`` already prove it zero.

    ``g`` is the label at each slot, slot p at index p-1, and ``ctx``
    the context it is read against.  Each case gives a τ ∈ S and a label
    element μ of opposite signs with μ∘g∘τ = g up to sign, so the double
    coset holds ±g and the canonical form is 0:

    1. both legs of a dummy pair in one detected subset Y whose sign
       differs from the leg swap μ's (a symmetric metric in an
       antisymmetric Y, an antisymmetric one in a symmetric Y; a pair
       without a metric has no leg swap), τ the legs' transposition;
    2. two labels of one component class (equal value) in an
       antisymmetric Y, τ their transposition;
    3. two dummy pairs of one class with legs in the same two detected
       subsets Y and Y' of opposite sign, the lower legs in one subset
       when the bundle has no metric.  τ, the transposition of the two
       legs in Y times that of the two in Y', has sign -1.  μ exchanges
       the pairs with sign +1: crossing both pairs' legs, when they lie
       in opposite order, costs (-1)² under an antisymmetric metric.

    Each case holds on every point ±l∘g∘s of the double coset alike: s ∈
    S maps each detected subset onto one of the same sign, and l keeps
    classes, pairs and metrics.  Every configuration (g, s) of the
    search is such a point of ``g_init``, an exchange child too, whose
    swap is a label element after a transposition in S (see
    :func:`canonicalize`).  So the sweep on ``g_init`` proves every zero
    that a rule of :func:`zero_due_to_propagated_symmetries` proves at a
    configuration.  An odd family was written at initial slots s'(Q) for
    slots Q of a detected subset Y' holding labels of one class at some
    (g', s'), with Y''s sign, and g holds labels of that class at their
    slots s⁻¹(s'(Q)), in one detected subset of that sign.  Where the
    first rule fires, case 2 holds; where the third does, case 1.  An
    even family marks those labels' partners, and labels of one class
    that share a value are, without a metric, all lower or all upper
    legs.  Where the second rule finds two partners of one even family
    in a subset of the other sign, case 3 holds.

    A layout with no antisymmetric subset and no antisymmetric-metric
    pair is passed over at once, and case 3 needs subsets of both signs.
    """
    groups = ctx.groups
    lo, hi = min(subsets), max(subsets)
    if lo >= 0 and _A_DUMMY not in groups:
        return False
    values, partner = ctx.values, ctx.partner
    # cases 1 and 2: (subset, pair or class) met so far, a pair keyed by the
    # sum of its legs, unique to it, and a component class by -value
    seen = set()
    for label, sub in zip(g, subsets[1:]):
        if sub < 0:
            code = groups[label]
            if code == _S_DUMMY:
                key = (sub, label + partner[label])
            elif code == _COMPONENT:
                key = (sub, -values[label])
            else:
                continue
        elif sub > 0 and groups[label] == _A_DUMMY:
            key = (sub, label + partner[label])
        else:
            continue
        if key in seen:
            return True
        seen.add(key)
    if lo < 0 < hi:
        # case 3: each pair met from its leg in a symmetric subset, keyed by that
        # leg's value (a metric-less pair's legs differ in it) and both subsets
        where = {label: sub for label, sub in zip(g, subsets[1:]) if sub and groups[label] in _DUMMY_CODES}
        for label, sub in where.items():
            other = where.get(partner[label], 0)
            if sub > 0 > other:
                key = (values[label], sub, other)
                if key in seen:
                    return True
                seen.add(key)
    return False


def append_non_redundant_instances(out, instances, g, s, least_value, S, i, ctx, subsets, prop):
    """Extend ``out`` with the slot-i descendants of configuration (g, s).

    Instances landing in an already-visited symmetric subset are skipped:
    the subset symmetry maps them onto the kept representative (possibly
    up to a sign, in which case :func:`zero_before_search` has already
    proved the monomial zero).
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
    read from ``ctx.tables``, the layout's dict, and put there on first
    use as ``label_permutation_from_group(ctx, label, least_value).table``.
    An exchange child (p != q) folds in the swap of the two labels,
    signed by their family: two entries of the table, and the sign pair
    when the family is negative.  stilde is ``S.tree(i).rep(p)``, slot
    i's coset representative for p, which the tree holds from its
    construction.

    Each child is appended as ``(ltilde∘g∘stilde, s∘stilde)``:
    g is translated through ltilde's table, then the result x and s are
    each composed with stilde as ``u.translate(b"\\0" + x + tail)``, u
    being stilde's images and tail the identity on the bytes past the
    sign pair, so no signed permutation is built per child.  At p == i
    the representative is the identity, and the child shares s.  A child
    whose label is already in place (p == q, label == ``least_value``)
    starts from g itself.  A dummy partner's slot is read from the
    configuration's label -> slot table, ``bytes.maketrans(g,
    identity)``, built at its first partner lookup.
    """
    visited = set()
    partner, groups, tables = ctx.partner, ctx.groups, ctx.tables
    n = ctx.n
    rep = S.tree(i).rep
    tail = _IDENTITY[n + 3 :]
    slot_of = None
    lone = len(instances) == 1  # nothing for it to be redundant with
    for p, q in instances:
        label = g[q - 1]
        if subsets[p] != 0 and not lone:
            if groups[label] in _DUMMY_CODES:
                if slot_of is None:
                    slot_of = _slots_of(g)
                r = slot_of[partner[label]]
                family = prop[s[r - 1]]
                far = ("fam", family) if family != 0 and family % 2 == 0 else abs(subsets[r])
            else:
                far = -1
            key = (abs(subsets[p]), far)
            if key in visited:
                continue
            visited.add(key)
        if label == least_value and p == q:
            relabelled = g
        else:
            table = tables.get((label, least_value))
            if table is None:
                table = tables[label, least_value] = label_permutation_from_group(ctx, label, least_value).table
            if p != q:
                # q supplies the label through an exchange with slot p; fold
                # the (possibly signed) label swap in before relabelling
                other = g[p - 1]
                swapped = bytearray(table)
                swapped[label], swapped[other] = table[other], table[label]
                if prop[s[q - 1]] < 0:
                    swapped[n + 1], swapped[n + 2] = table[n + 2], table[n + 1]
                table = swapped
            relabelled = g.translate(table)
        if p == i:
            child, child_s = relabelled, s
        else:
            # x∘u for x = relabelled and x = s: u's images read through x's table
            u = rep(p).images
            child = u.translate(b"\0" + relabelled + tail)
            child_s = u.translate(b"\0" + s + tail)
        out.append((child, child_s))
    return out


def canonicalize(g_init, S, ctx, subsets, trace=None):
    """Canonicalize the configuration ``g_init``.

    ``S`` is the slot symmetry :class:`~tensorcanon.perm_group.Bsgs`,
    ``ctx`` the initial :class:`~tensorcanon.label_context.LabelContext`
    and ``subsets`` the slot array of
    :func:`~tensorcanon.perm_group.detect_symmetric_subsets`, which the
    helpers index directly.  ``trace``, if given, is a dict that
    receives ``configs_per_slot`` (configuration counts after each slot
    pass) and ``max_configs``.

    The result is zero at once, with ``configs_per_slot`` empty, when
    ``S.has_minus_one`` (``subsets`` is then not read) or when
    :func:`zero_before_search` proves ``g_init`` zero.  That sweep
    settles every zero the propagated symmetries could reveal (see
    there), so the search's only zero test is the scan after each pass
    for +g and -g side by side, and a configuration is (g, s) alone.

    Work that repeats across configurations, passes and monomials is
    done once.  ``ctx``, its narrowings and the label elements' tables
    in ``ctx.tables`` serve every monomial of its class layout
    (``frontend.Registry.contexts``; see
    :class:`~tensorcanon.label_context.LabelContext`), and coset
    representatives, kept on the trees of a chain (see
    :class:`~tensorcanon.perm_group.SchreierTree`), every monomial of one
    product of declarations (``frontend.Registry.products``).  Children
    are built by ``bytes.translate`` (see
    :func:`append_non_redundant_instances`).  A context that is not live
    is not narrowed: :func:`~tensorcanon.label_context.update_context`
    would return it as it is.  ``prop`` is replaced, never mutated, and
    an update that keeps no entry returns it as it was.

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
      ±L·g_init·S, and it still prunes only on true facts.
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
    and children, recorded no new entry and met none of the zero rules
    of :func:`zero_due_to_propagated_symmetries`.  The oracle and
    double-coset tests pin the outputs.

    A pass whose context is not live (``ctx.live`` false: every label's
    group code is ``NONE``) runs no propagation update, because it is a
    no-op there: the update writes only for an instance whose supplied
    label has a code other than ``NONE``, so it writes nothing and
    returns ``prop`` itself.  Narrowing never turns a code back from
    ``NONE``, so every later pass is frozen as well: the search ends
    without another update, and ``prop`` is what the last live pass
    left.
    """
    n = ctx.n

    def finish(result, counts):
        if trace is not None:
            trace["configs_per_slot"] = counts
            trace["max_configs"] = max(counts, default=1)
        return result

    if S.has_minus_one or zero_before_search(g_init.images, ctx, subsets):
        return finish(CanonResult.zero(), [])
    prop = [0] * (n + 1)
    next_odd = itertools.count(1, 2).__next__
    configs = [(g_init.images, identity(n).images)]
    counts = []
    for i in range(1, n + 1):
        orbit = S.orbit_of(i)
        least_value, instances = get_least_value_instances(i, orbit, configs, ctx, prop)
        live = ctx.live
        out = []
        for (g, s), inst in zip(configs, instances):
            if not inst:
                continue
            if live:
                prop = update_propagated_symmetries(inst, g, s, ctx, subsets, prop, next_odd)
            append_non_redundant_instances(out, inst, g, s, least_value, S, i, ctx, subsets, prop)
        if live:
            ctx = update_context(ctx, least_value)
        if len(out) == 1:
            configs = out
            counts.append(1)
            continue
        out.sort()
        configs = [next(twins) for _g, twins in itertools.groupby(out, key=lambda c: c[0])]
        counts.append(len(configs))
        for a, b in zip(configs, configs[1:]):
            # kept arrangements are distinct, so equal slots mean opposite signs
            if a[0][:n] == b[0][:n]:
                return finish(CanonResult.zero(), counts)
    return finish(CanonResult.canonical(SignedPermutation(configs[0][0])), counts)
