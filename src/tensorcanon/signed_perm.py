"""Signed permutations in array form.

A signed permutation of degree n acts on the points 1..n and carries an
overall sign.  The sign is encoded with two extra points: a permutation
is stored as ``bytes`` ``images`` of length n+2 where ``images[i-1]`` is
the image of point i (1-based values).  The last two points n+1, n+2 are
the sign pair: they map to (n+1, n+2) for sign +1 and to (n+2, n+1) for
sign -1, and are never mixed with the ordinary points.  A byte holds
values up to 255, so the degree is at most ``MAX_SLOTS`` = 253.

With this encoding, negation of a permutation only touches the tail of
the array, so +g and -g are adjacent when arrays are sorted
lexicographically (``bytes`` compare by memcmp) — which is how the
canonicalization engines detect that a configuration is equal to minus
itself (a zero tensor).

Composition is ``compose(a, b) = a∘b``: first apply b, then a, i.e.
``compose(a, b)[i] = a[b[i]]``, one ``bytes.translate`` of b's images
through a's :attr:`SignedPermutation.table`, the one table builder.

:class:`CanonResult`, what the engines and the oracle return, wraps the
canonical permutation, or None for zero.
"""

from __future__ import annotations

import re


MAX_SLOTS = 253
_IDENTITY = bytes(range(256))


class SignedPermutation:
    """An immutable signed permutation in array form, built from any iterable of ints."""

    __slots__ = ("images", "_table")

    def __init__(self, images):
        self.images = bytes(images)
        self._table = None

    @property
    def table(self):
        """The ``bytes.translate`` table of this permutation, built on first use:
        ``g.translate(p.table)`` is the images of p∘g."""
        t = self._table
        if t is None:
            t = self._table = b"\0" + self.images + _IDENTITY[len(self.images) + 1 :]
        return t

    @property
    def degree(self):
        """Number of ordinary points (excludes the sign pair)."""
        return len(self.images) - 2

    @property
    def sign(self):
        n = self.degree
        return 1 if self.images[n] == n + 1 else -1

    def __getitem__(self, point):
        """Image of 1-based ``point``."""
        return self.images[point - 1]

    def __eq__(self, other):
        return isinstance(other, SignedPermutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __lt__(self, other):
        return self.images < other.images

    def __repr__(self):
        return f"SignedPermutation({list(self.images)})"

    def is_identity(self):
        return self.images == _IDENTITY[1 : len(self.images) + 1]

    def negated(self):
        """Return the same permutation with the opposite sign."""
        n = self.degree
        return SignedPermutation(self.images[:n] + self.images[n:][::-1])


class CanonResult:
    """An engine's result: the canonical configuration, a signed permutation, or Zero."""

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


def identity(n):
    """The identity signed permutation of degree n."""
    if n > MAX_SLOTS:
        raise ValueError(f"degree {n} is over MAX_SLOTS = {MAX_SLOTS}")
    return SignedPermutation(_IDENTITY[1 : n + 3])


def from_signed_cycles(n, sign, cycles):
    """Build a signed permutation of degree n from disjoint cycles.

    ``cycles`` is an iterable of tuples of 1-based points; a cycle
    (a, b, c) means a -> b -> c -> a.  ``sign`` is +1 or -1.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    imgs = list(range(1, n + 3))
    seen = set()
    for cyc in cycles:
        cyc = list(cyc)
        for p in cyc:
            if not 1 <= p <= n:
                raise ValueError(f"point {p} out of range 1..{n}")
            if p in seen:
                raise ValueError(f"point {p} repeated across cycles")
            seen.add(p)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            imgs[a - 1] = b
    if sign == -1:
        imgs[n], imgs[n + 1] = imgs[n + 1], imgs[n]
    return SignedPermutation(imgs)


def compose(a, b):
    """a∘b: apply b first, then a.  ``compose(a, b)[i] == a[b[i]]``."""
    return SignedPermutation(b.images.translate(a.table))


def inverse(p):
    # the table that sends each image back to its point, read over the points
    m = len(p.images)
    return SignedPermutation(bytes.maketrans(p.images, _IDENTITY[1 : m + 1])[1 : m + 1])


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text, n):
    """Parse a signed cycle string like ``-(1,2)(3,4)`` or ``+(1,3)(2,4)``.

    A bare ``()`` or empty cycle part denotes the identity of the given
    sign.  Whitespace is ignored.
    """
    s = text.strip().replace(" ", "")
    sign = 1
    if s.startswith("-"):
        sign = -1
        s = s[1:]
    elif s.startswith("+"):
        s = s[1:]
    body = s
    cycles = []
    pos = 0
    for m in _CYCLE_RE.finditer(body):
        if m.start() != pos:
            raise ValueError(f"malformed cycle string: {text!r}")
        pos = m.end()
        inner = m.group(1).strip()
        if inner:
            cycles.append(tuple(int(t) for t in inner.split(",")))
    if pos != len(body):
        raise ValueError(f"malformed cycle string: {text!r}")
    return from_signed_cycles(n, sign, cycles)
