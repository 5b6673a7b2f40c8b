import itertools

import pytest
from hypothesis import given, settings, strategies as st

from osimplex.errors import ArityError, ParseError
from osimplex.simplex import (
    MonotoneMap,
    compose,
    degeneracy_generator,
    enumerate_injective_into,
    face_generator,
    identity,
    parse_map,
)


def all_maps(m, n):
    for values in itertools.combinations_with_replacement(range(n + 1), m + 1):
        yield MonotoneMap(values, n)


def test_construction_rejects_bad_tuples():
    with pytest.raises(ValueError):
        MonotoneMap((), 2)
    with pytest.raises(ValueError):
        MonotoneMap((1, 0), 2)
    with pytest.raises(ValueError):
        MonotoneMap((0, 3), 2)
    with pytest.raises(ValueError):
        MonotoneMap((-1, 0), 2)


def test_codomain_distinguishes_maps():
    assert MonotoneMap((0, 1), 1) != MonotoneMap((0, 1), 2)


def test_compose_examples():
    assert compose(MonotoneMap((0, 1, 2), 2), MonotoneMap((0, 2), 2)) == MonotoneMap((0, 2), 2)
    assert compose(MonotoneMap((0, 0, 1), 1), MonotoneMap((0, 2), 2)) == MonotoneMap((0, 1), 1)
    assert compose(MonotoneMap((1, 1), 1), MonotoneMap((0, 0), 1)) == MonotoneMap((1, 1), 1)


def test_compose_arity_error():
    with pytest.raises(ArityError):
        compose(MonotoneMap((0, 1), 2), MonotoneMap((0, 1), 2))


def test_is_injective():
    assert MonotoneMap((0, 1, 2), 2).is_injective()
    assert not MonotoneMap((0, 0, 1), 2).is_injective()
    assert MonotoneMap((1, 3), 3).is_injective()


def test_face_generator_examples():
    assert face_generator(0, 1) == MonotoneMap((1,), 1)
    assert face_generator(1, 2) == MonotoneMap((0, 2), 2)
    assert face_generator(2, 2) == MonotoneMap((0, 1), 2)
    with pytest.raises(IndexError):
        face_generator(3, 2)
    with pytest.raises(IndexError):
        face_generator(0, 0)


def test_degeneracy_generator_examples():
    assert degeneracy_generator(0, 0) == MonotoneMap((0, 0), 0)
    assert degeneracy_generator(1, 1) == MonotoneMap((0, 1, 1), 1)
    assert degeneracy_generator(0, 2) == MonotoneMap((0, 0, 1, 2), 2)
    with pytest.raises(IndexError):
        degeneracy_generator(2, 1)


def test_generators_injective_surjective():
    for m in range(1, 6):
        for i in range(m + 1):
            assert face_generator(i, m).is_injective()
    for m in range(6):
        for i in range(m + 1):
            assert degeneracy_generator(i, m).is_surjective()


def test_enumerate_injective_into():
    assert [f.values for f in enumerate_injective_into(0)] == [(0,)]
    assert [f.values for f in enumerate_injective_into(1)] == [(0,), (1,), (0, 1)]
    maps = enumerate_injective_into(2)
    assert len(maps) == 7
    # ascending domain size, then lexicographic
    assert [f.values for f in maps] == [
        (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2),
    ]
    for m in range(5):
        assert len(enumerate_injective_into(m)) == 2 ** (m + 1) - 1


def test_associativity_unit_exhaustive_small():
    # exhaustive over all composable triples with objects <= 3
    objs = range(4)
    for k, m in itertools.product(objs, repeat=2):
        for f in all_maps(k, m):
            assert compose(identity(m), f) == f
            assert compose(f, identity(k)) == f
    for j, k, m, n in itertools.product(objs, repeat=4):
        for g in all_maps(k, m):
            gs = list(all_maps(m, n))
            fs = list(all_maps(j, k))
            for h in gs:
                hg = compose(h, g)
                for f in fs:
                    assert compose(hg, f) == compose(h, compose(g, f))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_associativity_random_up_to_five(data):
    objs = st.integers(0, 5)
    j, k, m, n = (data.draw(objs) for _ in range(4))

    def draw_map(a, b):
        values = tuple(sorted(data.draw(st.lists(st.integers(0, b), min_size=a + 1, max_size=a + 1))))
        return MonotoneMap(values, b)

    f, g, h = draw_map(j, k), draw_map(k, m), draw_map(m, n)
    assert compose(compose(h, g), f) == compose(h, compose(g, f))


def test_text_roundtrip():
    f = MonotoneMap((0, 0, 1), 2)
    assert str(f) == "(0,0,1):2"
    assert parse_map("(0,0,1):2") == f
    assert parse_map(" ( 0 , 0 , 1 ) : 2 ") == f
    with pytest.raises(ParseError):
        parse_map("(0,0,1)")
    with pytest.raises(ParseError):
        parse_map("(1,0):2")


def test_construction_rejects_bool_values():
    with pytest.raises(ValueError):
        MonotoneMap((0, True), 1)


def test_value_classes_behave_like_frozen_dataclasses():
    from osimplex.chains import BasisElt
    from osimplex.oriental import MembershipResult

    f, g = MonotoneMap((0, 1), 2), MonotoneMap(values=[0, 2], codomain=2)
    b, c = BasisElt((0, 1), 2), BasisElt(vertices=[0, 2], ambient=2)
    result = MembershipResult(False, "why", f, g, -1)
    assert g.values == (0, 2) and c.vertices == (0, 2)
    assert hash(f) == hash(((0, 1), 2)) and hash(b) == hash(((0, 1), 2))
    assert hash(result) == hash((False, "why", f, g, -1))
    assert result == MembershipResult(ok=False, reason="why", witness_map=f, witness_term=g,
                                      witness_coefficient=-1)
    assert MembershipResult(True) == MembershipResult(ok=True, reason="") != result
    for x, y in ((f, g), (b, c)):
        assert x < y and x <= y and y > x and y >= x and x <= x and not x < x
        assert sorted([y, x]) == [x, y]
        assert x != y and x == type(x)(**vars(x))
        with pytest.raises(TypeError):
            x < (0, 1)
    assert f != b and f != ((0, 1), 2)
    with pytest.raises(TypeError):
        result < result
    assert repr(f) == "MonotoneMap((0, 1), 2)"
    assert repr(b) == "BasisElt(vertices=(0, 1), ambient=2)"
    assert repr(MembershipResult(True)) == (
        "MembershipResult(ok=True, reason='', witness_map=None, witness_term=None, "
        "witness_coefficient=0)"
    )
    for value, field in ((f, "values"), (b, "vertices"), (result, "ok")):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            setattr(value, "other", None)
        with pytest.raises(AttributeError):
            delattr(value, field)


def test_trusted_constructors_build_the_same_values():
    # _make stores the fields as __init__ does, without the checks.
    from osimplex.chains import BasisElt

    for cls, fields in ((MonotoneMap, ((0, 1, 1), 2)), (BasisElt, ((0, 2), 3))):
        made, built = cls._make(*fields), cls(*fields)
        assert made == built and hash(made) == hash(built)
        assert vars(made) == vars(built) == dict(zip(cls._fields, fields))
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(made, name, None)
        with pytest.raises(AttributeError):
            setattr(made, "other", None)
