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

Expressions
-----------

Factors are separated by whitespace or ``*``.  Each factor is a tensor
name followed by index groups ``_{...}`` (lower) and ``^{...}`` (upper);
tokens inside groups are separated by whitespace.  An all-digit token is
a component label; other tokens are index names.  Every non-component
name must appear exactly once (free) or exactly twice, once lower and
once upper (dummy).

Label order
-----------

Labels 1..n are assigned to index classes in <-order: free names
alphabetically, then component classes grouped by bundle and numeral,
then one dummy class per bundle (pairs ordered by name, lower leg
first).  Canonical output renames dummies: pair k of a bundle gets the
k-th smallest of the originally used names.

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

from .canon_fast import canonicalize, CanonResult
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
        self.bundles = []  # declaration order matters for label order

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
        self.bundles.append(Bundle(name, metric))

    def bundle_of(self, token):
        """The bundle owning an index token: longest declared name prefix."""
        best = None
        for b in self.bundles:
            if token.startswith(b.name) and (best is None or len(b.name) > len(best.name)):
                best = b
        return best if best is not None else _DEFAULT_BUNDLE


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


@dataclass
class TensorMonomial:
    factors: list  # of Factor

    @property
    def slots(self):
        out = []
        for f in self.factors:
            out.extend(f.indices)
        return out


_FACTOR_RE = re.compile(r"([A-Za-z][A-Za-z0-9]*)((?:[_^]\{[^{}]*\})*)")
_GROUP_RE = re.compile(r"([_^])\{([^{}]*)\}")


def parse(text, registry):
    """Parse an expression into a validated :class:`TensorMonomial`."""
    monomial = TensorMonomial([])
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
        monomial.factors.append(Factor(name, indices))
    if not monomial.factors:
        raise FrontendError("empty expression")
    _validate_balance(monomial, registry)
    return monomial


def _validate_balance(monomial, registry):
    occurrences = {}
    for tok in monomial.slots:
        if tok.is_component:
            continue
        occurrences.setdefault(tok.name, []).append(tok.variance)
    for name, vs in occurrences.items():
        if len(vs) == 1:
            continue
        if len(vs) == 2:
            if sorted(vs) != ["d", "u"]:
                raise FrontendError(f"index {name!r} repeated with the same variance")
            continue
        raise FrontendError(f"index {name!r} appears {len(vs)} times")


@dataclass
class CanonProblem:
    """Everything the engines need for one monomial."""

    n: int
    g_init: SignedPermutation
    S: object  # slot Bsgs
    ctx: object  # LabelContext
    subsets: object  # SymmetricSubsets
    classes: list  # IndexClass list in <-order
    label_info: list  # per label 1..n: ("free", name) | ("component", numeral, bundle) | ("dummy", bundle, pair_index, leg)
    dummy_names: dict  # bundle name -> sorted original dummy names

    def label_bsgs(self):
        return LabelBsgs.from_classes(self.classes)

    def canonicalize(self, trace=None, deadline=None):
        return canonicalize(self.g_init, self.S, self.ctx, self.subsets, trace=trace, deadline=deadline)


def _classify(monomial, registry):
    """Assign labels 1..n to slots; return classes and bookkeeping."""
    slots = monomial.slots
    frees = []
    components = {}  # (bundle index, numeral) -> count
    dummies = {}  # bundle index -> {name: [(slot, variance), ...]}
    occurrences = {}
    for idx, tok in enumerate(slots):
        if tok.is_component:
            b = registry.bundle_of(tok.name)
            bi = _bundle_index(registry, b)
            components[(bi, int(tok.name), tok.name)] = components.get((bi, int(tok.name), tok.name), 0) + 1
        else:
            occurrences.setdefault(tok.name, []).append((idx, tok.variance))
    for name, occ in occurrences.items():
        if len(occ) == 1:
            frees.append(name)
        else:
            b = registry.bundle_of(name)
            bi = _bundle_index(registry, b)
            dummies.setdefault(bi, {})[name] = occ

    classes = []
    label_info = [None]  # 1-based
    label_of = {}  # slot index -> label

    frees.sort()
    if frees:
        classes.append(IndexClass("free", len(frees)))
    free_label = {}
    for name in frees:
        label_info.append(("free", name))
        free_label[name] = len(label_info) - 1

    comp_label = {}  # (bi, numeral text) -> list of labels remaining
    for (bi, num, text), count in sorted(components.items()):
        classes.append(IndexClass("component", count))
        labels = []
        bname = registry.bundles[bi].name if bi < len(registry.bundles) else ""
        for _ in range(count):
            label_info.append(("component", text, bname))
            labels.append(len(label_info) - 1)
        comp_label[(bi, text)] = labels

    dummy_names = {}
    pair_label = {}  # (bi, name) -> (lower label, upper label)
    for bi in sorted(dummies):
        bundle = registry.bundles[bi] if bi < len(registry.bundles) else _DEFAULT_BUNDLE
        names = sorted(dummies[bi])
        dummy_names[bundle.name] = names
        classes.append(IndexClass("dummy", len(names), metric=bundle.metric))
        for k, name in enumerate(names):
            lo = len(label_info)
            label_info.append(("dummy", bundle.name, k, "lower"))
            label_info.append(("dummy", bundle.name, k, "upper"))
            pair_label[(bi, name)] = (lo, lo + 1)

    # slot -> label
    comp_used = {k: 0 for k in comp_label}
    for idx, tok in enumerate(slots):
        if tok.is_component:
            b = registry.bundle_of(tok.name)
            bi = _bundle_index(registry, b)
            key = (bi, tok.name)
            label_of[idx] = comp_label[key][comp_used[key]]
            comp_used[key] += 1
        elif tok.name in free_label:
            label_of[idx] = free_label[tok.name]
        else:
            b = registry.bundle_of(tok.name)
            bi = _bundle_index(registry, b)
            lo, hi = pair_label[(bi, tok.name)]
            # the lower-variance occurrence takes the lower label
            label_of[idx] = lo if tok.variance == "d" else hi
    n = len(slots)
    return n, classes, label_info, label_of, dummy_names


def _bundle_index(registry, bundle):
    for i, b in enumerate(registry.bundles):
        if b is bundle:
            return i
    # the implicit default bundle sorts after all declared ones
    return len(registry.bundles)


def build_problem(monomial, registry):
    """Translate a parsed monomial into a canonicalization problem.

    The slot group and its symmetric subsets are assembled from each
    factor's cached chain (:meth:`TensorDecl.chain`), shifted to the
    factor's slots; nothing is recomputed for a declaration seen before.
    """
    n, classes, label_info, label_of, dummy_names = _classify(monomial, registry)
    g_init = SignedPermutation(
        tuple(label_of[idx] for idx in range(n)) + (n + 1, n + 2)
    )
    chains, local_subsets = zip(*(registry.tensors[f.tensor].chain() for f in monomial.factors))
    S = direct_product(chains)
    ctx = build_context(classes)
    subsets = product_subsets(local_subsets)
    return CanonProblem(n, g_init, S, ctx, subsets, classes, label_info, dummy_names)


def render(result, monomial, registry):
    """Render an engine result back to expression text.

    Dummies are renamed: pair k (in label order) of each bundle takes
    the k-th smallest of the names originally used with that bundle.
    Each display slot keeps the variance it was written with, except
    that a metric-bundle pair whose legs land on two slots of equal
    written variance is normalized to lower-then-upper (the metric
    raises one leg), so every pair prints one lower and one upper leg.
    An index of a ``metric=none`` bundle cannot be raised or lowered, so
    it prints with its own variance wherever it lands: a dummy leg by
    its leg, a free index as written.  The output re-parses to an
    equivalent monomial.
    """
    if isinstance(result, CanonResult):
        if result.is_zero:
            return "0"
        g = result.g
    else:
        g = result
    n, classes, label_info, _label_of, dummy_names = _classify(monomial, registry)
    metric_of = {b.name: b.metric for b in registry.bundles}
    metric_of.setdefault(_DEFAULT_BUNDLE.name, _DEFAULT_BUNDLE.metric)
    texts = []
    variances = [tok.variance for tok in monomial.slots]  # display-slot order
    written = {tok.name: tok.variance for tok in monomial.slots}
    pair_slots = {}  # (bundle, pair index) -> display slot positions
    for slot in range(1, n + 1):
        info = label_info[g[slot]]
        if info[0] == "free":
            texts.append(info[1])
            if registry.bundle_of(info[1]).metric == "none":
                variances[slot - 1] = written[info[1]]
        elif info[0] == "component":
            texts.append(info[1])
        else:
            _, bname, k, leg = info
            texts.append(dummy_names[bname][k])
            if metric_of.get(bname) == "none":
                variances[slot - 1] = "d" if leg == "lower" else "u"
            else:
                pair_slots.setdefault((bname, k), []).append(slot)
    for (bname, k), slots in pair_slots.items():
        i1, i2 = sorted(slots)
        if variances[i1 - 1] == variances[i2 - 1]:
            variances[i1 - 1], variances[i2 - 1] = "d", "u"
    parts = []
    pos = 0
    for f in monomial.factors:
        decl = registry.tensors[f.tensor]
        piece = f.tensor
        run_var = None
        run = []
        for var, name in zip(variances[pos : pos + decl.rank], texts[pos : pos + decl.rank]):
            if var != run_var:
                if run:
                    piece += ("_{" if run_var == "d" else "^{") + " ".join(run) + "}"
                run_var = var
                run = []
            run.append(name)
        if run:
            piece += ("_{" if run_var == "d" else "^{") + " ".join(run) + "}"
        parts.append(piece)
        pos += decl.rank
    text = " ".join(parts)
    return ("-" if g.sign < 0 else "") + text
