"""Correctness checks on rendered results, run outside the timed region.

The first presentation of each pattern gets two checks:

* ``recanon``: a non-zero output must canonicalize to itself.
* ``coset``: the input moved by a random slot element s and a random
  label element l (l∘g∘s) must canonicalize to the same output.

Every later presentation of a pattern is that first input moved by an
element l and an element s that the generator drew, so it gets the
``repeat`` check: its output must equal the first presentation's output
up to variance marks, which ``render`` copies from the written slots.
"""

from __future__ import annotations

import dataclasses
import re

from tensorcanon import frontend
from tensorcanon.signed_perm import SignedPermutation, compose, identity


def _pipeline(text, registry):
    mono = frontend.parse(text, registry)
    return frontend.render(frontend.build_problem(mono, registry).canonicalize(), mono, registry)


def without_variance(output):
    """The output's sign, tensor names and index names, in order."""
    return re.sub(r"[_^]?[{}]", " ", output).split()


def random_slot_element(S, rng):
    g = identity(S.n)
    for level in range(1, S.degree + 1):
        orbit = S.orbit_of(level)
        if len(orbit) > 1:
            g = compose(g, S.coset_rep(level, rng.choice(orbit)))
    return g


def random_label_element(classes, n, rng):
    """A random element of the label group of ``classes`` (see label_context)."""
    images = list(range(1, n + 3))
    sign = 1
    label = 1
    for c in classes:
        if c.kind == "free":
            label += c.size
        elif c.kind == "component":
            labels = list(range(label, label + c.size))
            for a, b in zip(labels, rng.sample(labels, len(labels))):
                images[a - 1] = b
            label += c.size
        else:
            pairs = [(label + 2 * k, label + 2 * k + 1) for k in range(c.size)]
            for (lo, hi), (dlo, dhi) in zip(pairs, rng.sample(pairs, len(pairs))):
                if c.metric != "none" and rng.random() < 0.5:
                    dlo, dhi = dhi, dlo
                    if c.metric == "antisymmetric":
                        sign = -sign
                images[lo - 1], images[hi - 1] = dlo, dhi
            label += 2 * c.size
    if sign < 0:
        images[n], images[n + 1] = images[n + 1], images[n]
    return SignedPermutation(images)


def check(text, output, registry, rng, tally):
    """Check the first presentation of a pattern; returns the names of the checks that failed."""
    mono = frontend.parse(text, registry)
    problem = frontend.build_problem(mono, registry)
    failed = []
    if output != "0":
        tally["recanon"] += 1
        body = output.lstrip("-")
        if _pipeline(body, registry) != body:
            failed.append("recanon")
    tally["coset"] += 1
    s = random_slot_element(problem.S, rng)
    l = random_label_element(problem.classes, problem.n, rng)
    moved = dataclasses.replace(problem, g_init=compose(l, compose(problem.g_init, s)))
    if frontend.render(moved.canonicalize(), mono, registry) != output:
        failed.append("coset")
    return failed
