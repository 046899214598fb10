"""Tensor expression frontend: declarations, parsing, rendering.

Declarations
------------

::

    tensor NAME rank=R [gens="+(1,2)(3,4),-(1,2)"] [sym=a..b] [asym=a..b]
    bundle NAME metric=symmetric|antisymmetric|none

``gens`` lists signed slot cycles (1-based, local to the tensor);
``sym=a..b`` / ``asym=a..b`` are sugar for the adjacent (anti)symmetric
transpositions on that slot range.  ``gens``, ``sym`` and ``asym`` may be
repeated; ``rank`` and ``metric`` may not.  A tensor NAME is an ASCII
letter followed by letters and digits, and a bundle NAME is letters and
digits; any other name is refused at declaration, since no expression
could use it, and so is a rank over ``signed_perm.MAX_SLOTS`` (see
Expressions).  A bundle is matched by name prefix on index tokens
(longest declared prefix wins); undeclared tokens fall into an implicit
symmetric-metric bundle.
Declaring a name again replaces its declaration; a bundle keeps its
place in label order.

Expressions
-----------

Factors are separated by whitespace, newlines included, or ``*``.  Each
factor is a tensor name followed by index groups ``_{...}`` (lower) and
``^{...}`` (upper); tokens inside groups are separated by whitespace.
An all-digit token is a component label, written without leading zeros
(``01`` is refused, so each numeral has one spelling); other tokens are
index names.  Every non-component name must appear exactly once (free)
or exactly twice, once lower and once upper (dummy).  A monomial has
at most 253 slots (``signed_perm.MAX_SLOTS``: a signed permutation
keeps its n images and its sign pair as bytes); :func:`parse` refuses
a longer one.

Label order
-----------

:func:`parse` assigns labels 1..n to the slots once and binds each
factor to its tensor's declaration; a later declaration changes neither.
The :class:`TensorMonomial` it returns is plain data: the bound
declaration of each factor (``decls``), one ``(text, variance)`` pair
per slot as written (``tokens``), the slots' ``labels``, the tuple of
index classes (``classes``) and ``label_info`` (see Printing).
Labels go to index classes in <-order: free names alphabetically, then
component classes grouped by bundle and numeral, then one dummy class
per bundle in declaration order, the implicit bundle last (pairs
ordered by name, lower leg first).

Printing
--------

:func:`parse` also decides how each label prints, once, and keeps it in
``TensorMonomial.label_info``: label 1..n maps to ``(text, own, pair)``.

* ``text`` is the token written at the slot the label came from.  Pairs
  are labelled in name order, so pair k of a bundle prints as the k-th
  smallest of the names originally used with that bundle.
* ``own`` is the written variance of a free or dummy index of a
  ``metric=none`` bundle, which cannot be raised or lowered, and of a
  dummy index of a ``metric=antisymmetric`` bundle, whose legs the
  engines exchange only at the cost of a sign, so the lower-leg label
  always prints lower; else None.
* ``pair`` is the lower-leg label of a ``metric=symmetric`` dummy pair;
  else 0.

:func:`render` prints each slot as ``text`` with ``own``, or else with
the variance written at that slot.  A symmetric-metric pair whose legs
land on two slots of equal variance prints lower then upper: the metric
raises one leg, so every pair prints one lower and one upper leg.

Known defects: only the labels given ``own`` above print with a fixed
variance; every other one takes the variance of the slot it lands on.
For symmetric ``S`` and a rank-3 ``T`` without symmetry:

* a free index of a metric bundle: ``S_{b}^{a}`` prints ``S_{a}^{b}``;
* a component index: ``S^{2}_{1}`` prints ``S^{1}_{2}``;
* a symmetric-metric pair: ``T_{a b c} T^{a b c}`` and the equal
  ``T^{a b}_{c} T_{a b}^{c}`` each print themselves.

The fix gives every label ``own``; it changes both digests in
``perfbench/digests.json``.

Slot group
----------

The frontend models no exchange of equal factors, so a monomial's slot
group is the product of its factors' groups, which share only the sign.
Each :class:`TensorDecl` computes its own chain and symmetric subsets on
first use and keeps them.  The :class:`Registry` keeps one product
(``perm_group.direct_product``) per sequence of declarations, a
monomial's ``decls``, that :func:`build_problem` has met, for its whole
life: every monomial whose factors were bound to the same declarations,
in the same order, shares one slot chain and one set of subsets.
Declarations are compared by identity, so a redeclared tensor starts a
new product and the old one stays with the monomials parsed before.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import groupby, islice
from operator import itemgetter

from .canon_fast import canonicalize
from .label_context import IndexClass, build as build_context
from .perm_group import direct_product, product_subsets, schreier_sims, detect_symmetric_subsets
from .signed_perm import MAX_SLOTS, SignedPermutation, from_signed_cycles, parse_cycles


class FrontendError(ValueError):
    pass


@dataclass(eq=False)
class TensorDecl:
    name: str
    rank: int
    gens: list = field(default_factory=list)  # SignedPermutation, degree == rank
    _chain: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.rank < 1:
            raise FrontendError(f"tensor {self.name}: rank must be positive, got {self.rank}")
        for g in self.gens:
            if g.degree != self.rank:
                raise FrontendError(
                    f"tensor {self.name}: generator degree {g.degree} != rank {self.rank}"
                )

    def chain(self):
        """(slot Bsgs, symmetric-subset slot array) over the local slots 1..rank.

        Computed on first use, not at declaration, and kept for every
        later monomial; redeclaring the name makes a new, empty decl.
        """
        if self._chain is None:
            S = schreier_sims(self.rank, self.gens)
            self._chain = (S, detect_symmetric_subsets(S))
        return self._chain


@dataclass
class Bundle:
    name: str
    metric: str  # symmetric | antisymmetric | none

    def __post_init__(self):
        if self.metric not in ("symmetric", "antisymmetric", "none"):
            raise FrontendError(f"bundle {self.name}: unknown metric {self.metric!r}")


class Registry:
    """Declared tensors and index bundles, and the slot products built from them."""

    def __init__(self):
        self.tensors = {}
        self.bundles = {}  # name -> Bundle; declaration order matters for label order
        # a monomial's decls, one TensorDecl per factor -> (slot Bsgs, symmetric-subset slot array)
        self.products = {}
        # a monomial's classes, its class layout -> its initial LabelContext
        self.contexts = {}

    def declare(self, line):
        """Parse one declaration line (``tensor ...`` or ``bundle ...``)."""
        toks = line.split()
        if not toks:
            return
        if toks[0] == "tensor":
            self._declare_tensor(toks[1:], line)
        elif toks[0] == "bundle":
            self._declare_bundle(toks[1:], line)
        else:
            raise FrontendError(f"unknown declaration: {line!r}")

    def declare_all(self, text):
        for line in text.splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                self.declare(line)

    def _declare_tensor(self, toks, line):
        if not toks:
            raise FrontendError(f"tensor declaration needs a name: {line!r}")
        name = toks[0]
        # a factor starts with its tensor's name (see _FACTOR_RE): no other name can be used
        if not (name.isascii() and name.isalnum() and name[0].isalpha()):
            raise FrontendError(f"tensor {name!r}: a tensor name is a letter followed by letters and digits")
        rank = None
        gens = []
        sym_ranges = []
        for tok in toks[1:]:
            if "=" not in tok:
                raise FrontendError(f"malformed option {tok!r} in {line!r}")
            key, _, val = tok.partition("=")
            if key == "rank":
                if rank is not None:
                    raise FrontendError(f"tensor {name}: rank given twice in {line!r}")
                if not re.fullmatch(r"[0-9]+", val):
                    raise FrontendError(f"tensor {name}: rank must be a positive integer, got {val!r}")
                rank = int(val)
            elif key == "gens":
                gens.append(val.strip('"'))
            elif key in ("sym", "asym"):
                m = re.fullmatch(r"(\d+)\.\.(\d+)", val)
                if not m:
                    raise FrontendError(f"malformed range {val!r} in {line!r}")
                sym_ranges.append((key, int(m.group(1)), int(m.group(2))))
            else:
                raise FrontendError(f"unknown option {key!r} in {line!r}")
        if rank is None:
            raise FrontendError(f"tensor {name}: rank is required")
        if rank > MAX_SLOTS:
            raise FrontendError(f"tensor {name}: rank {rank} is over the {MAX_SLOTS} slots a monomial may have")
        try:
            parsed = _parse_gen_list(", ".join(gens), rank) if gens else []
        except ValueError as exc:
            raise FrontendError(f"tensor {name}: bad generator: {exc}") from None
        for kind, a, b in sym_ranges:
            if not 1 <= a <= b <= rank:
                raise FrontendError(f"tensor {name}: bad slot range {a}..{b}")
            sign = 1 if kind == "sym" else -1
            for j in range(a, b):
                parsed.append(from_signed_cycles(rank, sign, [(j, j + 1)]))
        self.tensors[name] = TensorDecl(name, rank, parsed)

    def _declare_bundle(self, toks, line):
        if not toks:
            raise FrontendError(f"bundle declaration needs a name: {line!r}")
        name = toks[0]
        # a bundle owns the index tokens its name prefixes, and a token is ASCII letters and digits
        if not (name.isascii() and name.isalnum()):
            raise FrontendError(f"bundle {name!r}: a bundle name is letters and digits, as index tokens are")
        metric = None
        for tok in toks[1:]:
            key, _, val = tok.partition("=")
            if key != "metric":
                raise FrontendError(f"unknown option {key!r} in {line!r}")
            if metric is not None:
                raise FrontendError(f"bundle {name}: metric given twice in {line!r}")
            metric = val
        if metric is None:
            raise FrontendError(f"bundle {name}: metric is required")
        self.bundles[name] = Bundle(name, metric)

    def bundle_index(self, token):
        """Position of the bundle owning an index token: the longest
        declared name prefix, else the implicit bundle, which sorts after
        every declared one."""
        best, best_len = len(self.bundles), -1
        for i, name in enumerate(self.bundles):
            if len(name) > best_len and token.startswith(name):
                best, best_len = i, len(name)
        return best


_DEFAULT_BUNDLE = Bundle("", "symmetric")


def _parse_gen_list(text, rank):
    """Split ``+(1,2)(3,4), -(1,2)`` on commas between cycles."""
    gens = []
    for chunk in re.split(r",\s*(?=[+-]?\()", text.strip()):
        chunk = chunk.strip()
        if chunk:
            gens.append(parse_cycles(chunk, rank))
    return gens


@dataclass
class TensorMonomial:
    decls: tuple  # TensorDecl bound to each factor at parse, factors in order
    tokens: tuple  # (text, variance) per slot (0-based, factors in order)
    labels: tuple  # slot -> label 1..n
    classes: tuple  # IndexClass per class, in <-order
    label_info: list  # label 1..n -> (text, own, pair); see "Printing"


_FACTOR_RE = re.compile(r"([A-Za-z][A-Za-z0-9]*)((?:[_^]\{[^{}]*\})*)")
_GROUP_RE = re.compile(r"([_^])\{([^{}]*)\}")


def parse(text, registry):
    """Parse an expression into a validated, labelled :class:`TensorMonomial`."""
    decls = []
    tokens = []
    pos = 0
    src = text.strip()
    while pos < len(src):
        if src[pos].isspace() or src[pos] == "*":
            pos += 1
            continue
        m = _FACTOR_RE.match(src, pos)
        if not m or not m.group(2):
            raise FrontendError(f"cannot parse factor at {src[pos:]!r}")
        name, groups = m.group(1), m.group(2)
        pos = m.end()
        decl = registry.tensors.get(name)
        if decl is None:
            raise FrontendError(f"undeclared tensor {name!r}")
        start = len(tokens)
        for gm in _GROUP_RE.finditer(groups):
            variance = "d" if gm.group(1) == "_" else "u"
            for tok in gm.group(2).split():
                # a numeral has one spelling: no leading zero
                if not (tok.isascii() and tok.isalnum()) or (tok.isdigit() and tok.startswith("0") and tok != "0"):
                    raise FrontendError(f"malformed index token {tok!r}")
                tokens.append((tok, variance))
        if len(tokens) - start != decl.rank:
            raise FrontendError(
                f"tensor {name} has rank {decl.rank} but {len(tokens) - start} indices given"
            )
        decls.append(decl)
    if not decls:
        raise FrontendError("empty expression")
    if len(tokens) > MAX_SLOTS:
        raise FrontendError(f"expression has {len(tokens)} slots; at most {MAX_SLOTS} are supported")
    return _label(tuple(decls), tuple(tokens), registry)


def _label(decls, tokens, registry):
    """Check that each index name is free or one dummy pair, label the
    slots, and record how each label prints."""
    bundles = [*registry.bundles.values(), _DEFAULT_BUNDLE]
    occurrences = {}  # index name -> slot positions
    components = {}  # (bundle index, numeral) -> slot positions
    for pos, (text, _) in enumerate(tokens):
        if text.isdigit():
            key = (registry.bundle_index(text), int(text))
            components.setdefault(key, []).append(pos)
        else:
            occurrences.setdefault(text, []).append(pos)
    frees = []
    dummies = {}  # bundle index -> {name: (lower slot, upper slot)}
    for name, where in occurrences.items():
        if len(where) == 1:
            frees.append(name)
        elif len(where) == 2:
            lo, hi = where
            if tokens[lo][1] == tokens[hi][1]:
                raise FrontendError(f"index {name!r} repeated with the same variance")
            if tokens[lo][1] == "u":
                lo, hi = hi, lo
            dummies.setdefault(registry.bundle_index(name), {})[name] = (lo, hi)
        else:
            raise FrontendError(f"index {name!r} appears {len(where)} times")

    labels = [0] * len(tokens)
    classes = []
    label_info = [None]  # 1-based

    def assign(pos, keeps_variance, pair=0):
        labels[pos] = len(label_info)
        text, variance = tokens[pos]
        label_info.append((text, variance if keeps_variance else None, pair))

    frees.sort()
    if frees:
        classes.append(IndexClass("free", len(frees)))
    for name in frees:
        assign(occurrences[name][0], bundles[registry.bundle_index(name)].metric == "none")
    for _key, where in sorted(components.items()):
        classes.append(IndexClass("component", len(where)))
        for pos in where:
            assign(pos, False)
    for bi in sorted(dummies):
        metric = bundles[bi].metric
        classes.append(IndexClass("dummy", len(dummies[bi]), metric=metric))
        keeps_variance = metric != "symmetric"
        for name in sorted(dummies[bi]):
            pair = 0 if keeps_variance else len(label_info)
            for pos in dummies[bi][name]:  # lower leg, then upper
                assign(pos, keeps_variance, pair)
    return TensorMonomial(decls, tokens, tuple(labels), tuple(classes), label_info)


@dataclass
class CanonProblem:
    """Everything the engines need for one monomial."""

    n: int
    g_init: SignedPermutation
    S: object  # slot Bsgs
    ctx: object  # LabelContext
    subsets: list  # 1-based slot array of perm_group.detect_symmetric_subsets
    classes: tuple  # IndexClass per class, in <-order

    def canonicalize(self, trace=None):
        return canonicalize(self.g_init, self.S, self.ctx, self.subsets, trace=trace)


def build_problem(monomial, registry):
    """Translate a parsed monomial into a canonicalization problem.

    The labels are the ones :func:`parse` assigned.  The slot group and
    its symmetric subsets come from ``registry.products``, keyed by
    ``monomial.decls``, the declarations :func:`parse` bound to the
    factors, in order.  The first monomial with a new key assembles them
    from each factor's cached chain (:meth:`TensorDecl.chain`), shifted
    to the factor's slots; every later one shares that product.  The
    registry's current declarations are not consulted.  The initial
    label context comes from ``registry.contexts``, keyed by
    ``monomial.classes``, the class layout, which fixes it: every
    monomial of one layout shares one context, and with it the narrowed
    contexts and label tables that the fast engine keeps there (see
    :mod:`~tensorcanon.label_context`).
    """
    n = len(monomial.labels)
    g_init = SignedPermutation(monomial.labels + (n + 1, n + 2))
    product = registry.products.get(monomial.decls)
    if product is None:
        chains, local_subsets = zip(*(decl.chain() for decl in monomial.decls))
        product = registry.products[monomial.decls] = (direct_product(chains), product_subsets(local_subsets))
    S, subsets = product
    ctx = registry.contexts.get(monomial.classes)
    if ctx is None:
        ctx = registry.contexts[monomial.classes] = build_context(monomial.classes)
    return CanonProblem(n, g_init, S, ctx, subsets, monomial.classes)


def factor_text(name, tokens):
    """``name`` followed by one ``_{...}`` (``"d"``) or ``^{...}`` (``"u"``)
    group per run of equal variance in ``tokens``, (text, variance) pairs."""
    return name + "".join(
        ("_{" if var == "d" else "^{") + " ".join(text for text, _ in run) + "}"
        for var, run in groupby(tokens, key=itemgetter(1))
    )


def render(result, monomial, registry):
    """Render an engine result, a :class:`~tensorcanon.signed_perm.CanonResult`,
    back to expression text.

    Slot i prints label g[i] as its ``monomial.label_info`` entry says
    (see "Printing" in the module docstring), and factor f as its bound
    declaration's name over that declaration's rank of slots.  The
    output re-parses to an equivalent monomial.  ``registry`` is not
    consulted: the monomial carries its labelling.
    """
    if result.is_zero:
        return "0"
    g = result.g
    texts, variances = [], []
    legs = {}  # lower-leg label of a metric pair -> its two slot positions
    for pos, (_, variance) in enumerate(monomial.tokens):
        text, own, pair = monomial.label_info[g[pos + 1]]
        texts.append(text)
        variances.append(own or variance)
        if pair:
            legs.setdefault(pair, []).append(pos)
    for i, j in legs.values():
        if variances[i] == variances[j]:
            variances[i], variances[j] = "d", "u"
    printed = zip(texts, variances)
    parts = [factor_text(decl.name, islice(printed, decl.rank)) for decl in monomial.decls]
    return ("-" if g.sign < 0 else "") + " ".join(parts)
