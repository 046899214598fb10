"""Timing wrappers installed around the module-level names the pipeline calls.

A :class:`Tracer` records one span per wrapped call (name, start, end,
monomial id) in memory and counts calls of the hottest helpers, which
get a bare counter instead of a span.  Parents and self times are worked
out once the run is over, to keep the wrappers cheap.
:meth:`Tracer.install` patches the modules and returns a function that
puts the originals back.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from tensorcanon import canon_fast, frontend, perm_group

# (owner, attribute, span name): the names looked up at call time on the
# user's path, frontend -> perm_group / label_context / canon_fast.
SPANS = (
    (frontend.Registry, "declare_all", "frontend.Registry.declare_all"),
    (frontend.Registry, "declare", "frontend.Registry.declare"),
    (frontend, "parse", "frontend.parse"),
    (frontend, "build_problem", "frontend.build_problem"),
    (frontend, "render", "frontend.render"),
    (frontend, "schreier_sims", "perm_group.schreier_sims"),
    (frontend, "detect_symmetric_subsets", "perm_group.detect_symmetric_subsets"),
    (frontend, "build_context", "label_context.build"),
    (frontend, "canonicalize", "canon_fast.canonicalize"),
    (canon_fast, "get_least_value_instances", "canon_fast.get_least_value_instances"),
    (canon_fast, "update_propagated_symmetries", "canon_fast.update_propagated_symmetries"),
    (canon_fast, "zero_due_to_propagated_symmetries", "canon_fast.zero_due_to_propagated_symmetries"),
    (canon_fast, "append_non_redundant_instances", "canon_fast.append_non_redundant_instances"),
    (canon_fast, "update_context", "label_context.update_context"),
    (canon_fast, "label_permutation_from_group", "label_context.label_permutation_from_group"),
)

COUNTERS = (
    (perm_group, "compose", "perm_group.compose.calls"),
    (perm_group.Bsgs, "contains", "perm_group.Bsgs.contains.calls"),
    (canon_fast, "compose", "canon_fast.compose.calls"),
)

LAYERS = ("bench", "frontend", "perm_group", "label_context", "canon_fast")


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, monomial id), appended as calls return
        self.counts = Counter()
        self.monomial = -1

    def wrap(self, name, fn):
        append = self.spans.append

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                append((name, start, perf_counter(), self.monomial))

        return traced

    def count(self, name, fn):
        counts = self.counts

        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    @contextmanager
    def installed(self):
        restore = self.install()
        try:
            yield
        finally:
            restore()

    def install(self):
        saved = []
        for owner, attr, name in SPANS:
            orig = getattr(owner, attr)
            saved.append((owner, attr, orig))
            if name == "perm_group.schreier_sims":
                orig = self._count_strong_gens(orig)
            setattr(owner, attr, self.wrap(name, orig))
        for owner, attr, name in COUNTERS:
            orig = getattr(owner, attr)
            saved.append((owner, attr, orig))
            setattr(owner, attr, self.count(name, orig))

        def restore():
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

        return restore

    def _count_strong_gens(self, schreier_sims):
        counts = self.counts

        def counted(n, generators):
            bsgs = schreier_sims(n, generators)
            counts["perm_group.schreier_sims.strong_gens"] += len(bsgs.generators(1))
            return bsgs

        return counted

    def resolve(self):
        """Parent of each span, and per-name [calls, inclusive s, self s].

        Calls nest, so a span's parent is the innermost span still open
        when it starts; spans are visited in start order to find it.
        """
        order = sorted(range(len(self.spans)), key=lambda i: self.spans[i][1])
        parent = [-1] * len(self.spans)
        child_s = [0.0] * len(self.spans)
        open_ = []
        for i in order:
            start, end = self.spans[i][1], self.spans[i][2]
            while open_ and self.spans[open_[-1]][2] <= start:
                open_.pop()
            if open_:
                parent[i] = open_[-1]
                child_s[open_[-1]] += end - start
            open_.append(i)
        totals = {name: [0, 0.0, 0.0] for _owner, _attr, name in SPANS}
        for i, (name, start, end, _mono) in enumerate(self.spans):
            t = totals.setdefault(name, [0, 0.0, 0.0])
            t[0] += 1
            t[1] += end - start
            t[2] += end - start - child_s[i]
        return parent, totals

    @staticmethod
    def layer_self_seconds(totals):
        out = dict.fromkeys(LAYERS, 0.0)
        for name, (_calls, _incl, self_s) in totals.items():
            out[name.split(".", 1)[0]] += self_s
        return out

    def write(self, path, parent):
        with open(path, "w") as fh:
            fh.write("span\tname\tstart\tend\tparent\tmonomial\n")
            for i, (name, start, end, mono) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent[i]}\t{mono}\n")


class EngineCounts:
    """Search counts of the fast engine, taken in untimed calls.

    Configuration counts come from the engine's public ``trace=`` dict;
    instances offered to and kept by ``append_non_redundant_instances``
    are counted by a wrapper, per slot pass, so that deduplication after
    each pass can be told apart from subset pruning.
    """

    def __init__(self):
        self.counts = Counter()
        self._kept = {}

    def _append(self, fn):
        kept = self._kept
        c = self.counts

        def counted(out, instances, g, s, least_value, S, i, *rest):
            before = len(out)
            fn(out, instances, g, s, least_value, S, i, *rest)
            c["canon_fast.instances.attempted"] += len(instances)
            kept[i] = kept.get(i, 0) + len(out) - before
            return out

        return counted

    def add(self, problem):
        self._kept = {}
        orig = canon_fast.append_non_redundant_instances
        canon_fast.append_non_redundant_instances = self._append(orig)
        try:
            trace = {}
            result = problem.canonicalize(trace=trace)
        finally:
            canon_fast.append_non_redundant_instances = orig
        per_slot = trace.get("configs_per_slot", [])
        c = self.counts
        c["canon_fast.configs.total"] += sum(per_slot)
        c["canon_fast.configs.max"] = max(c["canon_fast.configs.max"], trace.get("max_configs", 1))
        c["canon_fast.instances.kept"] += sum(self._kept.values())
        for i, after in enumerate(per_slot, start=1):
            c["canon_fast.dedup.dropped"] += self._kept.get(i, 0) - after
        if result.is_zero:
            c["canon_fast.zero.results"] += 1
            if len(per_slot) < problem.n:
                c["canon_fast.zero.early"] += 1
        return result
