import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subsym.perms import Perm, PermError


def test_rejects_non_bijection():
    with pytest.raises(PermError):
        Perm([0, 0, 1])


def test_identity_and_call():
    e = Perm.identity(4)
    assert e.is_identity()
    assert [e(i) for i in range(4)] == [0, 1, 2, 3]


def test_composition_is_left_to_right():
    a = Perm.from_cycles(3, [(0, 1)])
    b = Perm.from_cycles(3, [(1, 2)])
    ab = a * b
    # x^(ab) = (x^a)^b
    assert ab(0) == b(a(0)) == 2
    assert (a * b).images != (b * a).images


def test_inverse():
    p = Perm.from_cycles(5, [(0, 1, 2, 3, 4)])
    assert (p * p.inverse()).is_identity()
    assert p.inverse()(0) == 4


def test_apply_tuple():
    p = Perm.from_cycles(4, [(0, 1, 2)])
    assert p.apply_tuple((0, 1, 3)) == (1, 2, 3)


def test_cycles_and_repr():
    p = Perm.from_cycles(6, [(0, 1), (2, 3, 4)])
    assert p.cycles() == [(0, 1), (2, 3, 4)]
    assert repr(Perm.identity(3)) == "Perm(id)"
    assert "(0 1)" in repr(p)


def test_hash_eq():
    a = Perm.from_cycles(3, [(0, 1)])
    b = Perm([1, 0, 2])
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("left, right", [
    (Perm.identity(3), Perm((0, 1, 2, 4, 3))),
    (Perm((0, 1, 2, 4, 3)), Perm.identity(3)),
    (Perm.identity(0), Perm.identity(1)),
    (Perm.identity(2), Perm.identity(1)),
])
def test_product_rejects_degree_mismatch(left, right):
    with pytest.raises(PermError):
        left * right


@pytest.mark.parametrize("images", [
    (0.0, 1.0),
    (1.0, 0.0, 2.0),
    ("0", "1"),
    (None,),
    (0, 1.5),
    (np.float64(0.0),),
    5,
])
def test_rejects_non_integer_images(images):
    with pytest.raises(PermError):
        Perm(images)


@pytest.mark.parametrize("images", [
    (True, False),
    [np.int64(1), np.int32(0), np.uint8(2)],
    np.array([2, 0, 1]),
])
def test_integer_like_images_are_stored_as_int(images):
    p = Perm(images)
    assert all(type(x) is int for x in p.images)
    assert p == Perm([int(x) for x in images])


def test_small_degrees():
    for n in (0, 1):
        e = Perm.identity(n)
        assert (e * e).images == e.inverse().images == tuple(range(n))
        assert (e * e).is_identity() and e.inverse().is_identity()
    assert (Perm((1, 0)) * Perm((1, 0))).is_identity()


def _perms(n: int):
    return st.permutations(range(n)).map(Perm)


@st.composite
def _perm_triples(draw):
    n = draw(st.integers(min_value=0, max_value=9))
    return draw(_perms(n)), draw(_perms(n)), draw(_perms(n))


def _check_trusted_results(p: Perm, q: Perm, r: Perm) -> None:
    n = p.degree
    for result in (p * q, p.inverse(), Perm.identity(n)):
        # the public constructor re-checks what the trusted path skipped
        assert Perm(list(result.images)) == result
        assert type(result.images) is tuple
        assert all(type(x) is int for x in result.images)
        assert result.degree == n
    assert [(p * q)(x) for x in range(n)] == [q(p(x)) for x in range(n)]
    assert (p * q) * r == p * (q * r)
    assert (p * p.inverse()).is_identity() and (p.inverse() * p).is_identity()
    for x in (p, q, p * q, Perm.identity(n)):
        assert x.is_identity() == (x.images == tuple(range(n)))


@settings(max_examples=200, deadline=None)
@given(_perm_triples())
def test_trusted_products_match_checked(triple):
    _check_trusted_results(*triple)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_trusted_products_match_checked_degree_225(seed):
    rng = random.Random(seed)

    def draw() -> Perm:
        images = list(range(225))
        rng.shuffle(images)
        return Perm(images)

    _check_trusted_results(draw(), draw(), draw())
