"""Text forms of signed permutations that the tests read and write,
and a plain tuple reference for their arithmetic.

``format_cycles`` writes the signed cycle string that
:func:`tensorcanon.signed_perm.parse_cycles` reads, and ``parse_array``
and ``format_array`` the array form ``<2,1,4,3>|-``: the images of
1..n, then the sign.  ``tuple_compose``, ``tuple_inverse`` and
``tuple_negated`` work on image tuples (length n+2, sign pair last)
with nothing but indexing.
"""

from tensorcanon.signed_perm import SignedPermutation


def format_cycles(p):
    """Render as a signed cycle string, e.g. ``-(1,2)(3,4)``."""
    n = p.degree
    seen = set()
    parts = []
    for start in range(1, n + 1):
        if start in seen or p[start] == start:
            seen.add(start)
            continue
        cyc = [start]
        seen.add(start)
        t = p[start]
        while t != start:
            cyc.append(t)
            seen.add(t)
            t = p[t]
        parts.append("(" + ",".join(str(x) for x in cyc) + ")")
    sign = "-" if p.sign < 0 else "+"
    return sign + ("".join(parts) if parts else "()")


def parse_array(text, n=None):
    """Parse an array form like ``<2,1,4,3>|-`` or ``<2,1,4,3,6,5>``.

    The bracketed list may give either the n ordinary images with an
    optional ``|+``/``|-`` sign suffix, or the full n+2 array including
    the sign pair.
    """
    s = text.strip().replace(" ", "")
    sign = 1
    explicit_sign = False
    if s.endswith("|+"):
        s = s[:-2]
        explicit_sign = True
    elif s.endswith("|-"):
        sign = -1
        s = s[:-2]
        explicit_sign = True
    if not (s.startswith("<") and s.endswith(">")):
        raise ValueError(f"malformed array string: {text!r}")
    vals = [int(t) for t in s[1:-1].split(",")]
    if n is not None and len(vals) == n + 2:
        imgs = vals
    elif n is not None and len(vals) == n:
        imgs = vals + ([n + 1, n + 2] if sign > 0 else [n + 2, n + 1])
    elif n is None:
        m = len(vals)
        # a list whose last two entries are the two largest values and
        # whose head stays below them already includes the sign pair
        if not explicit_sign and m >= 3 and set(vals[-2:]) == {m - 1, m} and vals[:-2] and max(vals[:-2]) <= m - 2:
            imgs = vals
        else:
            imgs = vals + ([m + 1, m + 2] if sign > 0 else [m + 2, m + 1])
    else:
        raise ValueError(f"expected {n} or {n + 2} images, got {len(vals)}")
    p = SignedPermutation(imgs)
    if sorted(p.images) != list(range(1, len(p.images) + 1)):
        raise ValueError(f"not a permutation: {text!r}")
    m = p.degree
    if p.images[m] not in (m + 1, m + 2):
        raise ValueError(f"sign pair mixed with ordinary points: {text!r}")
    return p


def format_array(p):
    n = p.degree
    body = ",".join(str(x) for x in p.images[:n])
    return f"<{body}>|{'+' if p.sign > 0 else '-'}"


def tuple_compose(a, b):
    """Images of a∘b, b applied first: ``a[b[i] - 1]`` at each point i."""
    return tuple(a[x - 1] for x in b)


def tuple_inverse(a):
    imgs = [0] * len(a)
    for point, image in enumerate(a, 1):
        imgs[image - 1] = point
    return tuple(imgs)


def tuple_negated(a):
    return a[:-2] + (a[-1], a[-2])
