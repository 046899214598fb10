"""Tensor expression frontend: declarations, parsing, rendering.

Declarations
------------

::

    tensor NAME rank=R [gens="+(1,2)(3,4),-(1,2)"] [sym=a..b] [asym=a..b]
    bundle NAME metric=symmetric|antisymmetric|none

``gens`` lists signed slot cycles (1-based, local to the tensor);
``sym=a..b`` / ``asym=a..b`` are sugar for the adjacent (anti)symmetric
transpositions on that slot range and may be repeated.  A bundle is
matched by name prefix on index tokens (longest declared prefix wins);
undeclared tokens fall into an implicit symmetric-metric bundle.
Declaring a name again replaces its declaration; a bundle keeps its
place in label order.

Expressions
-----------

Factors are separated by whitespace or ``*``.  Each factor is a tensor
name followed by index groups ``_{...}`` (lower) and ``^{...}`` (upper);
tokens inside groups are separated by whitespace.  An all-digit token is
a component label; other tokens are index names.  Every non-component
name must appear exactly once (free) or exactly twice, once lower and
once upper (dummy).  A monomial has at most 253 slots
(``canon_fast.MAX_SLOTS``: the fast engine keeps a configuration's n
slots and its sign pair as bytes); :func:`parse` refuses a longer one.

Label order
-----------

:func:`parse` assigns labels 1..n to the slots once and binds each
factor to its tensor's declaration; a later declaration changes neither.
Labels go to index classes in <-order: free names alphabetically, then
component classes grouped by bundle and numeral, then one dummy class
per bundle in declaration order, the implicit bundle last (pairs
ordered by name, lower leg first).  Canonical output renames dummies:
pair k of a bundle gets the k-th smallest of the originally used names.

Slot group
----------

The frontend models no exchange of equal factors, so a monomial's slot
group is the product of its factors' groups, which share only the sign.
Each :class:`TensorDecl` computes its own chain and symmetric subsets on
first use and keeps them; :func:`build_problem` shifts them into place
for every monomial (``perm_group.direct_product``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter

from .canon_fast import MAX_SLOTS, canonicalize, CanonResult
from .canon_baseline import LabelBsgs
from .label_context import IndexClass, build as build_context
from .perm_group import direct_product, product_subsets, schreier_sims, detect_symmetric_subsets
from .signed_perm import SignedPermutation, from_signed_cycles, parse_cycles


class FrontendError(ValueError):
    pass


@dataclass
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
        """(slot Bsgs, SymmetricSubsets) over the local slots 1..rank.

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
    """Declared tensors and index bundles."""

    def __init__(self):
        self.tensors = {}
        self.bundles = {}  # name -> Bundle; declaration order matters for label order

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
        rank = None
        gens = []
        sym_ranges = []
        for tok in toks[1:]:
            if "=" not in tok:
                raise FrontendError(f"malformed option {tok!r} in {line!r}")
            key, _, val = tok.partition("=")
            if key == "rank":
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
        metric = None
        for tok in toks[1:]:
            key, _, val = tok.partition("=")
            if key == "metric":
                metric = val
            else:
                raise FrontendError(f"unknown option {key!r} in {line!r}")
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

    def bundle_of(self, token):
        """The bundle owning an index token (see :meth:`bundle_index`)."""
        return [*self.bundles.values(), _DEFAULT_BUNDLE][self.bundle_index(token)]


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
class IndexToken:
    name: str  # index name or numeral text
    variance: str  # "d" (lower) or "u" (upper)

    @property
    def is_component(self):
        return self.name.isdigit()


@dataclass
class Factor:
    tensor: str
    indices: list  # of IndexToken
    decl: TensorDecl  # the declaration in force at parse


@dataclass
class TensorMonomial:
    factors: list  # of Factor
    labels: tuple  # slot (0-based, factors in order) -> label 1..n
    classes: list  # IndexClass list in <-order
    label_info: list  # see CanonProblem
    dummy_names: dict  # bundle name -> sorted original dummy names

    @property
    def slots(self):
        out = []
        for f in self.factors:
            out.extend(f.indices)
        return out


_FACTOR_RE = re.compile(r"([A-Za-z][A-Za-z0-9]*)((?:[_^]\{[^{}]*\})*)")
_GROUP_RE = re.compile(r"([_^])\{([^{}]*)\}")


def parse(text, registry):
    """Parse an expression into a validated, labelled :class:`TensorMonomial`."""
    factors = []
    pos = 0
    src = text.strip()
    while pos < len(src):
        if src[pos] in " \t*":
            pos += 1
            continue
        m = _FACTOR_RE.match(src, pos)
        if not m or not m.group(2):
            raise FrontendError(f"cannot parse factor at {src[pos:]!r}")
        name, groups = m.group(1), m.group(2)
        pos = m.end()
        if name not in registry.tensors:
            raise FrontendError(f"undeclared tensor {name!r}")
        indices = []
        for gm in _GROUP_RE.finditer(groups):
            variance = "d" if gm.group(1) == "_" else "u"
            for tok in gm.group(2).split():
                if not re.fullmatch(r"[A-Za-z0-9]+", tok):
                    raise FrontendError(f"malformed index token {tok!r}")
                indices.append(IndexToken(tok, variance))
        decl = registry.tensors[name]
        if len(indices) != decl.rank:
            raise FrontendError(
                f"tensor {name} has rank {decl.rank} but {len(indices)} indices given"
            )
        factors.append(Factor(name, indices, decl))
    if not factors:
        raise FrontendError("empty expression")
    n = sum(len(f.indices) for f in factors)
    if n > MAX_SLOTS:
        raise FrontendError(f"expression has {n} slots; at most {MAX_SLOTS} are supported")
    return _label(factors, registry)


def _label(factors, registry):
    """Check that each index name is free or one dummy pair, and label the slots."""
    bundles = [*registry.bundles.values(), _DEFAULT_BUNDLE]
    slots = [tok for f in factors for tok in f.indices]
    occurrences = {}  # index name -> slot positions
    components = {}  # (bundle index, numeral, text) -> slot positions
    for pos, tok in enumerate(slots):
        if tok.is_component:
            key = (registry.bundle_index(tok.name), int(tok.name), tok.name)
            components.setdefault(key, []).append(pos)
        else:
            occurrences.setdefault(tok.name, []).append(pos)
    frees = []
    dummies = {}  # bundle index -> {name: (lower slot, upper slot)}
    for name, where in occurrences.items():
        if len(where) == 1:
            frees.append(name)
        elif len(where) == 2:
            lo, hi = where
            if slots[lo].variance == slots[hi].variance:
                raise FrontendError(f"index {name!r} repeated with the same variance")
            if slots[lo].variance == "u":
                lo, hi = hi, lo
            dummies.setdefault(registry.bundle_index(name), {})[name] = (lo, hi)
        else:
            raise FrontendError(f"index {name!r} appears {len(where)} times")

    labels = [0] * len(slots)
    classes = []
    label_info = [None]  # 1-based

    def assign(pos, info):
        labels[pos] = len(label_info)
        label_info.append(info)

    frees.sort()
    if frees:
        classes.append(IndexClass("free", len(frees)))
    for name in frees:
        assign(occurrences[name][0], ("free", name, bundles[registry.bundle_index(name)].metric))
    for (bi, _num, text), where in sorted(components.items()):
        classes.append(IndexClass("component", len(where)))
        for pos in where:
            assign(pos, ("component", text, bundles[bi].name))
    dummy_names = {}
    for bi in sorted(dummies):
        bundle = bundles[bi]
        names = sorted(dummies[bi])
        dummy_names[bundle.name] = names
        classes.append(IndexClass("dummy", len(names), metric=bundle.metric))
        for k, name in enumerate(names):
            lo, hi = dummies[bi][name]
            assign(lo, ("dummy", bundle.name, k, "lower", bundle.metric))
            assign(hi, ("dummy", bundle.name, k, "upper", bundle.metric))
    return TensorMonomial(factors, tuple(labels), classes, label_info, dummy_names)


@dataclass
class CanonProblem:
    """Everything the engines need for one monomial."""

    n: int
    g_init: SignedPermutation
    S: object  # slot Bsgs
    ctx: object  # LabelContext
    subsets: object  # SymmetricSubsets
    classes: list  # IndexClass list in <-order
    # per label 1..n: ("free", name, metric) | ("component", numeral, bundle)
    # | ("dummy", bundle, pair index, "lower" | "upper", metric)
    label_info: list
    dummy_names: dict  # bundle name -> sorted original dummy names

    def label_bsgs(self):
        return LabelBsgs.from_classes(self.classes)

    def canonicalize(self, trace=None):
        return canonicalize(self.g_init, self.S, self.ctx, self.subsets, trace=trace)


def build_problem(monomial, registry):
    """Translate a parsed monomial into a canonicalization problem.

    The labels are the ones :func:`parse` assigned.  The slot group and
    its symmetric subsets are assembled from each factor's cached chain
    (:meth:`TensorDecl.chain`), shifted to the factor's slots; nothing is
    recomputed for a declaration seen before.  ``registry`` is not
    consulted: each factor keeps the declaration :func:`parse` bound.
    """
    n = len(monomial.labels)
    g_init = SignedPermutation(monomial.labels + (n + 1, n + 2))
    chains, local_subsets = zip(*(f.decl.chain() for f in monomial.factors))
    S = direct_product(chains)
    ctx = build_context(monomial.classes)
    subsets = product_subsets(local_subsets)
    return CanonProblem(n, g_init, S, ctx, subsets, monomial.classes, monomial.label_info, monomial.dummy_names)


def factor_text(name, tokens):
    """``name`` followed by one ``_{...}`` (``"d"``) or ``^{...}`` (``"u"``)
    group per run of equal variance in ``tokens``, (text, variance) pairs."""
    return name + "".join(
        ("_{" if var == "d" else "^{") + " ".join(text for text, _ in run) + "}"
        for var, run in groupby(tokens, key=itemgetter(1))
    )


def render(result, monomial, registry):
    """Render an engine result back to expression text.

    Dummies are renamed: pair k (in label order) of each bundle takes
    the k-th smallest of the names originally used with that bundle.
    Each display slot keeps the variance it was written with, except
    that a metric-bundle pair whose legs land on two slots of equal
    written variance is normalized to lower-then-upper (the metric
    raises one leg), so every pair prints one lower and one upper leg.
    An index of a ``metric=none`` bundle cannot be raised or lowered, so
    each of its labels prints with the variance it was written with,
    wherever it lands.  The output re-parses to an equivalent monomial.
    ``registry`` is not consulted: the monomial carries its labelling.
    """
    if isinstance(result, CanonResult):
        if result.is_zero:
            return "0"
        g = result.g
    else:
        g = result
    slots = monomial.slots
    variances = [tok.variance for tok in slots]  # display-slot order
    written = [None] * (len(slots) + 1)  # label -> variance it was written with
    for label, tok in zip(monomial.labels, slots):
        written[label] = tok.variance
    texts = []
    pair_slots = {}  # (bundle, pair index) -> display slot positions
    for slot in range(1, len(slots) + 1):
        info = monomial.label_info[g[slot]]
        kind = info[0]
        texts.append(monomial.dummy_names[info[1]][info[2]] if kind == "dummy" else info[1])
        if kind != "component" and info[-1] == "none":
            variances[slot - 1] = written[g[slot]]
        elif kind == "dummy":
            pair_slots.setdefault(info[1:3], []).append(slot)
    for i1, i2 in pair_slots.values():
        if variances[i1 - 1] == variances[i2 - 1]:
            variances[i1 - 1], variances[i2 - 1] = "d", "u"
    parts = []
    pos = 0
    for f in monomial.factors:
        end = pos + len(f.indices)
        parts.append(factor_text(f.tensor, zip(texts[pos:end], variances[pos:end])))
        pos = end
    return ("-" if g.sign < 0 else "") + " ".join(parts)
