import json

import pytest
from hypothesis import given, settings, strategies as st

from osimplex.chains import BasisElt, Chain
from osimplex.errors import ArityError, ParseError
from osimplex.simplex import MonotoneMap, identity
from osimplex.zdelta import ZMorphism, check_membership, parse_zmorphism


def gen(values, n, c=1):
    return ZMorphism.generator(MonotoneMap(values, n), c)


@st.composite
def zmorphisms(draw, max_m=4, max_n=4, m=None, n=None):
    m = draw(st.integers(0, max_m)) if m is None else m
    n = draw(st.integers(0, max_n)) if n is None else n
    items = []
    for _ in range(draw(st.integers(0, 4))):
        values = tuple(sorted(draw(st.lists(st.integers(0, n), min_size=m + 1, max_size=m + 1))))
        coef = draw(st.integers(-5, 5).filter(bool))
        items.append((MonotoneMap(values, n), coef))
    return ZMorphism(m, n, items)


def test_coefficient_reads_the_stored_terms_of_a_monotone_map():
    x = parse_zmorphism("(0,1) - (1,1) + (1,2)", 2)
    assert [x.coefficient(MonotoneMap(v, 2)) for v in ((0, 1), (1, 1), (1, 2))] == [1, -1, 1]
    # Keys of another shape have coefficient 0.
    assert x.coefficient(MonotoneMap((0, 1), 3)) == 0
    assert x.coefficient(MonotoneMap((1,), 2)) == 0
    with pytest.raises(ArityError) as err:
        x.coefficient((0, 1))
    assert str(err.value) == "expected a monotone map, not tuple"


def test_group_operations():
    x = gen((0, 1), 2)
    assert (x + (-x)).is_zero()
    assert x + gen((1, 2), 2) == ZMorphism(1, 2, [((0, 1), 1), ((1, 2), 1)])
    assert -(gen((0, 1), 2) - gen((1, 1), 2)) == gen((1, 1), 2) - gen((0, 1), 2)
    with pytest.raises(ArityError):
        gen((0, 1), 2) + gen((0, 1), 1)


def test_zero_is_representable_but_normalized():
    zero = ZMorphism.zero(1, 2)
    assert zero.is_zero() and zero.coefficient_sum() == 0
    assert ZMorphism(1, 2, [((0, 1), 3), ((0, 1), -3)]) == zero


def test_compose_examples():
    x = parse_zmorphism("(0,1) - (1,1) + (1,2)", 2)
    assert x.compose(gen((0,), 1)) == gen((0,), 2)
    assert x.compose(gen((1,), 1)) == gen((2,), 2)
    assert x.compose(ZMorphism.generator(identity(1))) == x


def test_compose_accumulates_collisions():
    # both terms land on (0,0): coefficients must merge
    x = ZMorphism(1, 1, [((0, 0), 1), ((0, 1), 1)])
    collapse = gen((0,), 1)  # wait: compose with vertex keeps firsts
    assert x.compose(collapse) == ZMorphism.generator(MonotoneMap((0,), 1), 2)


def test_face_examples():
    y = parse_zmorphism("(0,1,1) - (1,1,1) + (1,1,2)", 2)
    assert y.face(2) == parse_zmorphism("(0,1)", 2)
    assert y.face(0) == parse_zmorphism("(1,2)", 2)
    assert y.face(1) == parse_zmorphism("(0,1) - (1,1) + (1,2)", 2)
    with pytest.raises(IndexError):
        y.face(3)


def test_degeneracy_examples():
    assert parse_zmorphism("(0,1)", 1).degeneracy(1) == parse_zmorphism("(0,1,1)", 1)
    assert gen((1,), 1).degeneracy(0) == parse_zmorphism("(1,1)", 1)
    assert parse_zmorphism("(0,1) - (1,1)", 1).degeneracy(0) == parse_zmorphism(
        "(0,0,1) - (1,1,1)", 1
    )


def test_coefficient_sum_examples():
    assert parse_zmorphism("(0,1) - (1,1) + (1,2)", 2).coefficient_sum() == 1
    assert ZMorphism.zero(1, 2).coefficient_sum() == 0
    assert parse_zmorphism("2*(0,1) - (1,1)", 2).coefficient_sum() == 1


def test_injective_part_examples():
    x = parse_zmorphism("(0,1) - (1,1) + (1,2)", 2)
    assert x.injective_part() == parse_zmorphism("(0,1) + (1,2)", 2)
    assert parse_zmorphism("(1,1)", 2).injective_part().is_zero()
    assert parse_zmorphism("(0,1,2)", 2).injective_part() == parse_zmorphism("(0,1,2)", 2)


@settings(max_examples=80, deadline=None)
@given(zmorphisms(), st.data())
def test_bilinearity(y, data):
    x1 = data.draw(zmorphisms(m=data.draw(st.integers(0, 4)), n=y.domain))
    x2 = data.draw(zmorphisms(m=x1.domain, n=y.domain))
    assert y.compose(x1 + x2) == y.compose(x1) + y.compose(x2)
    z = data.draw(zmorphisms(m=data.draw(st.integers(0, 4)), n=x1.domain))
    assert (y.compose(x1)).compose(z) == y.compose(x1.compose(z))
    y2 = data.draw(zmorphisms(m=y.domain, n=y.codomain))
    assert (y + y2).compose(x1) == y.compose(x1) + y2.compose(x1)


@settings(max_examples=80, deadline=None)
@given(zmorphisms(max_m=3, max_n=4), st.data())
def test_simplicial_identities(x, data):
    m = x.domain
    if m >= 1:
        i = data.draw(st.integers(0, m - 1))
        assert x.degeneracy(i + 1).face(i) == x.face(i).degeneracy(i)
        assert x.degeneracy(i).face(i + 2) == x.face(i + 1).degeneracy(i)
    i = data.draw(st.integers(0, m))
    assert x.degeneracy(i).face(i) == x
    assert x.degeneracy(i).face(i + 1) == x


def test_text_rendering_and_parse():
    x = ZMorphism(1, 2, [((0, 1), 1), ((1, 1), -1), ((1, 2), 2)])
    assert str(x) == "(0,1) - (1,1) + 2*(1,2)"
    assert parse_zmorphism(str(x), 2) == x
    assert str(ZMorphism.zero(1, 2)) == "0"
    assert parse_zmorphism("0", 2, domain=1) == ZMorphism.zero(1, 2)
    # unicode minus accepted
    assert parse_zmorphism("(0,1) − (1,1)", 2) == gen((0, 1), 2) - gen((1, 1), 2)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_zmorphism("(0,1) +", 2)
    with pytest.raises(ParseError):
        parse_zmorphism("(0,1)(1,2)", 2)
    with pytest.raises(ParseError):
        parse_zmorphism("0", 2)  # zero needs a domain
    with pytest.raises(ParseError):
        parse_zmorphism("(0,3)", 2)  # exceeds codomain


def test_json_roundtrip():
    x = parse_zmorphism("(0,1) - (1,1) + (1,2)", 2)
    blob = json.dumps(x.to_json())
    assert ZMorphism.from_json(json.loads(blob)) == x


def test_rejects_non_integer_coefficients():
    with pytest.raises(ValueError):
        ZMorphism(1, 2, [((0, 1), 1.5)])


def test_rejects_negative_domain():
    with pytest.raises(ValueError):
        ZMorphism(-1, 1)


def test_sums_keep_the_order_of_repeated_addition():
    # A key whose running sum hits zero is dropped at once and, when it comes
    # back, goes to the end; summing first and dropping zeros at the end
    # would give [a, b, c].
    a, b, c, d = (MonotoneMap(v, 2) for v in [(1, 2), (0, 1), (2, 2), (0, 0)])
    x = ZMorphism(1, 2, [(a, 1), (b, 2), (a, -1), (c, 1), (a, 3)])
    assert list(x.terms) == [b, c, a]
    y = ZMorphism(1, 2, [(c, -1), (d, 1), (b, 1)])
    assert list((x + y).terms) == [b, a, d]
    assert list((x - y).terms) == [b, c, a, d]


def test_membership_witness_is_the_first_negative_term_in_image_order():
    # The image of vertex 0 holds -(0) and -(2).  The term (0) cancels and
    # comes back after (2), so (2) is reported; a sum that kept first
    # appearances would report (0).
    x = parse_zmorphism("(0,0) - (0,1) + 2*(1,1) - (2,2) - (0,2) + (1,2)", 2)
    result = check_membership(x)
    assert not result.ok
    assert result.witness_map == MonotoneMap((0,), 1)
    assert result.witness_term == MonotoneMap((2,), 2)
    assert result.witness_coefficient == -1
    assert result.reason == "injective term (2):2 has coefficient -1 in the composite with (0):1"


def test_scalars_are_int_not_bool():
    x = gen((0, 1), 2)
    y = gen((1, 2), 2, 3)
    chain = Chain(1, 2, [(BasisElt((0, 1), 2), 1)])
    for value in (x, chain):
        for scalar in (True, False):
            with pytest.raises(TypeError):
                scalar * value
            with pytest.raises(TypeError):
                value * scalar
    assert 2 * x == x * 2 == gen((0, 1), 2, 2)
    assert 0 * x == ZMorphism.zero(1, 2)
    assert -x == gen((0, 1), 2, -1)
    assert x - y == ZMorphism(1, 2, [((0, 1), 1), ((1, 2), -3)])
    assert 2 * chain == Chain(1, 2, [(BasisElt((0, 1), 2), 2)])


def test_terms_is_a_new_dict_each_time():
    # Mutating the dict that terms returns leaves the value as it was.
    f, b = MonotoneMap((0, 1), 2), BasisElt((0, 1), 2)
    for make, key, other in (
        (lambda: ZMorphism(1, 2, [(f, 1)]), f, MonotoneMap((1, 2), 2)),
        (lambda: Chain(1, 2, [(b, 1)]), b, BasisElt((1, 2), 2)),
    ):
        value = make()
        text, hashed = str(value), hash(value)
        terms = value.terms
        assert terms == {key: 1} and terms is not value.terms
        terms[key] = 5
        terms[other] = -1
        assert value.terms == {key: 1}
        assert str(value) == text and value == make() and hash(value) == hashed
        with pytest.raises(AttributeError):
            value.terms = {}
