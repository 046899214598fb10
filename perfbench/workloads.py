"""Seeded input for the benchmark workloads.

A workload is an initial declaration text and a panel of patterns.  A
pattern is one monomial up to a move that keeps its value: a renaming of
dummy legs (which leg is upper) and a reordering of each factor's slots
by a symmetry of sign +1.  The input is a list of rounds; each round
writes every pattern of the panel once, each time in a freshly drawn
presentation.  So every round has the same mix of sizes and kinds, and
every presentation after the first is the first one moved by a label
element l and a slot element s: its output must be the same up to the
variance marks that ``render`` copies from the written slots.

Input is plain text, built here without calling into ``tensorcanon``.
The same seed gives the same input, and no monomial text repeats.
"""

from __future__ import annotations

import math
import random

RIEMANN_GENS = '"-(1,2),+(1,3)(2,4),-(3,4)"'

# Slot permutations of one Riemann factor that carry sign +1: the
# identity, the pair exchange (13)(24), and its products with the two
# antisymmetric swaps (12)(34) and (14)(23).
_RIEMANN_EVEN = ((0, 1, 2, 3), (2, 3, 0, 1), (1, 0, 3, 2), (3, 2, 1, 0))

# One Riemann contraction pattern costs from a few ms to about a second,
# set by the pattern itself.  Freshly drawn patterns would make the mix,
# and so the figures, differ from run to run; so the contraction patterns
# are drawn once from this seed, and the run seed draws the dummy names
# and every presentation.  Smaller sizes get more patterns, so that the
# median falls where samples are dense; the largest sizes still hold
# most of the time.
_RIEMANN_PANEL_SEED = "riemann-contract/panel/2"
_RIEMANN_PANEL = {8: 16, 9: 10, 10: 6, 11: 4, 12: 3}  # factors k -> patterns

_NAME_POOL = [c + str(i) for c in "defghpqrstuvwxyz" for i in range(10)]


class Pattern:
    """One monomial: ``factors`` is a list of (tensor, [(index, variance)], moves).

    ``moves`` is the factor's slot permutations of sign +1, or ``None``
    when every permutation qualifies (a totally symmetric tensor).
    """

    def __init__(self, size, factors):
        self.size = size  # total number of slots
        self.factors = factors
        names = [name for _t, tokens, _m in factors for name, _v in tokens]
        # sorted, so that every process draws the flips in one order
        self.dummies = sorted({name for name in names if names.count(name) == 2})

    def present(self, rng):
        flip = {name for name in self.dummies if rng.random() < 0.5}
        parts = []
        for tensor, tokens, moves in self.factors:
            if moves is None:
                order = list(range(len(tokens)))
                rng.shuffle(order)
            else:
                order = rng.choice(moves)
            written = []
            for p in order:
                name, var = tokens[p]
                if name in flip:
                    var = "u" if var == "d" else "d"
                written.append((name, var))
            parts.append(_factor_text(tensor, written))
        return " ".join(parts)


def _factor_text(name, tokens):
    """``name`` followed by ``_{...}``/``^{...}`` runs of (index, variance)."""
    piece = name
    run_var, run = None, []
    for tok, var in tokens:
        if var != run_var:
            if run:
                piece += ("_{" if run_var == "d" else "^{") + " ".join(run) + "}"
            run_var, run = var, []
        run.append(tok)
    if run:
        piece += ("_{" if run_var == "d" else "^{") + " ".join(run) + "}"
    return piece


def _random_matching(rng, total):
    slots = list(range(total))
    rng.shuffle(slots)
    return [(slots[2 * i], slots[2 * i + 1]) for i in range(total // 2)]


def _contract(total, matching, names):
    """Place each dummy name on a matched slot pair, lower leg first."""
    tokens = [None] * total
    for name, (a, b) in zip(names, matching):
        tokens[a] = (name, "d")
        tokens[b] = (name, "u")
    return tokens


def riemann_panel(rng):
    """k = 8..12 Riemann factors, all 4k slots contracted; each size spread evenly over the round."""
    fixed = random.Random(_RIEMANN_PANEL_SEED)
    placed = []
    for k, count in _RIEMANN_PANEL.items():
        for j in range(count):
            placed.append(((j + 0.5) / count, k, _random_matching(fixed, 4 * k)))
    placed.sort(key=lambda p: (p[0], p[1]))
    panel = []
    for _, k, matching in placed:
        tokens = _contract(4 * k, matching, rng.sample(_NAME_POOL, 2 * k))
        factors = [("R", tokens[4 * f : 4 * f + 4], _RIEMANN_EVEN) for f in range(k)]
        panel.append(Pattern(4 * k, factors))
    return panel


def _totalsym_decls():
    lines = []
    for k in range(8, 17):
        lines.append(f"tensor T{k} rank={k} sym=1..{k}")
        lines.append(f"tensor U{k} rank={k} sym=1..{k}")
    return "\n".join(lines)


_TOTALSYM_COMBOS = [(k, kind) for k in range(8, 17) for kind in ("frustrated", "random", "frees")]


def totalsym_panel(rng):
    """Two totally symmetric rank-k tensors contracted, or one with free indices, k = 8..16."""
    combos = list(_TOTALSYM_COMBOS)
    rng.shuffle(combos)
    panel = []
    for k, kind in combos:
        names = rng.sample(_NAME_POOL, k)
        if kind == "frees":
            panel.append(Pattern(k, [(f"T{k}", [(name, rng.choice("du")) for name in names], None)]))
            continue
        if kind == "frustrated":
            # every dummy has one leg on each factor
            pi1, pi2 = list(range(k)), list(range(k))
            rng.shuffle(pi1)
            rng.shuffle(pi2)
            matching = [(pi1[i], k + pi2[i]) for i in range(k)]
        else:
            matching = _random_matching(rng, 2 * k)
        tokens = _contract(2 * k, matching, names)
        panel.append(Pattern(2 * k, [(f"T{k}", tokens[:k], None), (f"U{k}", tokens[k:], None)]))
    return panel


class Workload:
    def __init__(self, name, decls, panel, max_rate, tail_percentile, budget_s):
        self.name = name
        self.decls = decls
        self._panel = panel
        self.max_rate = max_rate  # monomials/s to generate for; well above seed speed
        self.tail_percentile = tail_percentile
        self.budget_s = budget_s  # per-monomial bound on the whole pipeline

    def rounds(self, seed, seconds):
        """The panel, and enough rounds of presentations for ``seconds`` of work."""
        rng = random.Random(f"{self.name}/{seed}")
        panel = self._panel(rng)
        seen = set()
        rounds = []
        for _ in range(max(1, math.ceil(self.max_rate * seconds / len(panel)))):
            row = []
            for pattern in panel:
                text = pattern.present(rng)
                while text in seen:
                    text = pattern.present(rng)
                seen.add(text)
                row.append(text)
            rounds.append(row)
        return panel, rounds


WORKLOADS = {
    w.name: w
    for w in (
        Workload("riemann-contract", f"tensor R rank=4 gens={RIEMANN_GENS}", riemann_panel,
                 max_rate=60, tail_percentile=95, budget_s=30.0),
        Workload("totalsym-shared", _totalsym_decls(), totalsym_panel,
                 max_rate=150, tail_percentile=97, budget_s=30.0),
    )
}
