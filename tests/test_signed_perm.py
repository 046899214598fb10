import pytest
from hypothesis import given, strategies as st

from tensorcanon.signed_perm import (
    SignedPermutation,
    identity,
    from_signed_cycles,
    compose,
    inverse,
    parse_cycles,
)

from perm_text import format_array, format_cycles, parse_array


def test_identity():
    e = identity(4)
    assert e.images == (1, 2, 3, 4, 5, 6)
    assert e.sign == 1
    assert e.is_identity()


def test_from_signed_cycles():
    p = from_signed_cycles(4, -1, [(1, 2), (3, 4)])
    assert p.images == (2, 1, 4, 3, 6, 5)
    assert p.sign == -1
    q = from_signed_cycles(4, 1, [(1, 2, 3, 4)])
    # cycle (a,b,c,d) means a->b->c->d->a
    assert q.images == (2, 3, 4, 1, 5, 6)


def test_compose_is_right_to_left():
    # compose(a, b)[i] == a[b[i]]: b applied first
    a = from_signed_cycles(3, 1, [(1, 2)])
    b = from_signed_cycles(3, 1, [(2, 3)])
    ab = compose(a, b)
    assert ab[3] == a[b[3]]
    assert ab.images == (2, 3, 1, 4, 5)


def test_slot_action_example():
    # Applying s = -(1,2) on the slots of g = <b,d,a,f,c,e>|+ swaps the
    # contents of slots 1 and 2 and flips the sign:
    # g o s = <d,b,a,f,c,e>|-.
    g = parse_array("<2,4,1,6,3,5>|+")
    s = from_signed_cycles(6, -1, [(1, 2)])
    gs = compose(g, s)
    assert gs.images == (4, 2, 1, 6, 3, 5, 8, 7)
    assert gs.sign == -1


def test_signs_multiply():
    n = 5
    a = from_signed_cycles(n, -1, [(1, 2)])
    b = from_signed_cycles(n, -1, [(3, 4)])
    assert compose(a, b).sign == 1
    assert compose(a, inverse(b)).sign == 1
    assert inverse(a).sign == -1


def test_negated_adjacent_under_lex():
    g = parse_array("<3,1,2>|+")
    h = g.negated()
    assert g.images[:3] == h.images[:3]
    assert g < h
    # nothing with the same ordinary part sorts between +g and -g
    assert h.images == (3, 1, 2, 5, 4)


def test_parse_format_cycles_roundtrip():
    for text in ["-(1,2)", "+(1,3)(2,4)", "-(3,4)", "+()"]:
        p = parse_cycles(text, 4)
        assert parse_cycles(format_cycles(p), 4) == p


def test_parse_array_forms():
    assert parse_array("<2,1,4,3>|-").images == (2, 1, 4, 3, 6, 5)
    assert parse_array("<2,1,4,3,5,6>").images == (2, 1, 4, 3, 5, 6)
    assert parse_array("<2,1,4,3,6,5>", n=4).images == (2, 1, 4, 3, 6, 5)
    assert format_array(parse_array("<2,1,4,3>|-")) == "<2,1,4,3>|-"


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_array("<1,1,2>")
    with pytest.raises(ValueError):
        parse_cycles("-(1,2", 4)
    with pytest.raises(ValueError):
        from_signed_cycles(3, 1, [(1, 4)])
    with pytest.raises(ValueError):
        from_signed_cycles(3, 1, [(1, 2), (2, 3)])


@st.composite
def signed_perms(draw, n=6):
    imgs = draw(st.permutations(list(range(1, n + 1))))
    sign = draw(st.sampled_from([1, -1]))
    tail = (n + 1, n + 2) if sign == 1 else (n + 2, n + 1)
    return SignedPermutation(tuple(imgs) + tail)


@given(signed_perms(), signed_perms(), signed_perms())
def test_compose_associative(a, b, c):
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


@given(signed_perms())
def test_inverse_cancels(p):
    e = identity(6)
    assert compose(p, inverse(p)) == e
    assert compose(inverse(p), p) == e


@given(signed_perms(), signed_perms())
def test_sign_is_homomorphism(a, b):
    assert compose(a, b).sign == a.sign * b.sign


@given(signed_perms())
def test_cycle_roundtrip(p):
    assert parse_cycles(format_cycles(p), 6) == p
