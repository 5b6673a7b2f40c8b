import itertools
import random

import pytest

from osimplex.chains import (
    BasisElt,
    Chain,
    basis_elements,
    check_strongly_loopfree,
    check_unital,
    iterated_boundary_part,
    loopfree_less,
)
from osimplex.errors import ArityError, PreconditionError


def elt(vertices, n):
    return BasisElt(tuple(vertices), n)


def chain(n, *terms):
    dim = len(terms[0][0]) - 1
    return Chain(dim, n, [(elt(v, n), c) for v, c in terms])


def test_coefficient_reads_the_stored_terms_of_a_basis_element():
    x = Chain(1, 2, [((0, 1), 3), ((1, 2), -1)])
    assert x.coefficient(elt((0, 1), 2)) == 3 and x.coefficient(elt((1, 2), 2)) == -1
    # Keys of another shape have coefficient 0.
    assert x.coefficient(elt((0, 1), 3)) == 0
    assert x.coefficient(elt((0,), 2)) == 0
    with pytest.raises(ArityError) as err:
        x.coefficient((0, 1))
    assert str(err.value) == "expected a basis element, not tuple"


def iterated_parts_oracle(b, k, sign):
    """Independent computation: omit k indices of alternating parity, the
    first omitted index odd for the negative part and even for the positive."""
    p = b.dimension
    out = {}
    for js in itertools.combinations(range(p + 1), k):
        ok = True
        for position, j in enumerate(js):
            want_odd = (position % 2 == 0) if sign == "-" else (position % 2 == 1)
            if (j % 2 == 1) != want_odd:
                ok = False
                break
        if ok:
            kept = tuple(b.vertices[i] for i in range(p + 1) if i not in js)
            out[kept] = out.get(kept, 0) + 1
    return Chain(p - k, b.ambient, [(elt(v, b.ambient), c) for v, c in out.items()])


def test_basis_elt_invariants():
    with pytest.raises(ValueError):
        BasisElt((1, 1), 2)
    with pytest.raises(ValueError):
        BasisElt((2, 1), 2)
    with pytest.raises(ValueError):
        BasisElt((0, 3), 2)
    with pytest.raises(ValueError):
        BasisElt((), 2)


def test_boundary_examples():
    assert chain(2, ((0, 1, 2), 1)).boundary() == chain(
        2, ((1, 2), 1), ((0, 2), -1), ((0, 1), 1)
    )
    assert chain(1, ((0, 1), 1)).boundary() == chain(1, ((1,), 1), ((0,), -1))
    assert chain(2, ((0, 1), 1), ((1, 2), 1)).boundary() == chain(
        2, ((2,), 1), ((0,), -1)
    )
    with pytest.raises(PreconditionError):
        chain(2, ((0,), 1)).boundary()


def test_augmentation():
    assert chain(2, ((0,), 1)).augmentation() == 1
    assert chain(2, ((0,), 2), ((2,), -1)).augmentation() == 1
    for n in range(4):
        for b in basis_elements(n, 1):
            assert Chain.of(b).boundary().augmentation() == 0


def test_boundary_parts_examples():
    neg, pos = chain(2, ((0, 1, 2), 1)).boundary_parts()
    assert neg == chain(2, ((0, 2), 1))
    assert pos == chain(2, ((0, 1), 1), ((1, 2), 1))
    neg, pos = chain(1, ((0, 1), 1)).boundary_parts()
    assert (neg, pos) == (chain(1, ((0,), 1)), chain(1, ((1,), 1)))
    neg, pos = chain(1, ((0, 1), 2)).boundary_parts()
    assert (neg, pos) == (chain(1, ((0,), 2)), chain(1, ((1,), 2)))


def test_boundary_parts_properties():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 5)
        q = rng.randint(1, n)
        basis = basis_elements(n, q)
        c = Chain(q, n, [(rng.choice(basis), rng.randint(-4, 4)) for _ in range(4)])
        if c.is_zero():
            continue
        neg, pos = c.boundary_parts()
        assert neg.is_nonnegative() and pos.is_nonnegative()
        assert not set(neg.terms) & set(pos.terms)
        assert pos - neg == c.boundary()


def test_iterated_parts_examples():
    assert iterated_boundary_part(elt((0, 1, 2), 2), 2, "-") == chain(2, ((0,), 1))
    assert iterated_boundary_part(elt((0, 1, 2), 2), 2, "+") == chain(2, ((2,), 1))
    assert iterated_boundary_part(elt((0, 2, 3), 3), 1, "+") == chain(
        3, ((2, 3), 1), ((0, 2), 1)
    )
    with pytest.raises(PreconditionError):
        iterated_boundary_part(elt((0, 1), 2), 3, "-")


def test_iterated_parts_against_parity_oracle():
    for n in range(5):
        for b in basis_elements(n):
            for k in range(b.dimension + 1):
                for sign in "-+":
                    assert iterated_boundary_part(b, k, sign) == iterated_parts_oracle(
                        b, k, sign
                    )


def test_iterated_parts_endpoints():
    for n in range(6):
        for b in basis_elements(n):
            p = b.dimension
            assert iterated_boundary_part(b, p, "-") == Chain.of(elt((b.vertices[0],), n))
            assert iterated_boundary_part(b, p, "+") == Chain.of(elt((b.vertices[-1],), n))


def test_boundary_squared_zero_exhaustive():
    for n in range(7):
        for b in basis_elements(n):
            if b.dimension >= 2:
                assert Chain.of(b).boundary().boundary().is_zero()


def test_boundary_squared_zero_random_chains():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(2, 6)
        q = rng.randint(2, n)
        basis = basis_elements(n, q)
        c = Chain(q, n, [(rng.choice(basis), rng.randint(-5, 5)) for _ in range(5)])
        assert c.boundary().boundary().is_zero()


def test_check_unital():
    for n in range(7):
        assert check_unital(n)
    report = check_unital(3)
    assert report.failures == []


def test_loopfree_less_examples():
    assert loopfree_less(elt((0,), 1), elt((1,), 1))
    assert loopfree_less(elt((0,), 1), elt((0, 1), 1))
    assert loopfree_less(elt((0, 2), 2), elt((0, 1), 2))
    with pytest.raises(PreconditionError):
        loopfree_less(elt((0, 1), 1), elt((0, 1), 1))
    with pytest.raises(ArityError):
        loopfree_less(elt((0,), 1), elt((0, 1), 2))


def test_loopfree_less_is_strict_total_order():
    for n in range(5):
        elements = basis_elements(n)
        for a, b in itertools.permutations(elements, 2):
            assert loopfree_less(a, b) != loopfree_less(b, a)
        for a, b, c in itertools.permutations(elements, 3):
            if loopfree_less(a, b) and loopfree_less(b, c):
                assert loopfree_less(a, c)


def test_check_strongly_loopfree():
    for n in range(7):
        assert check_strongly_loopfree(n)


def test_chain_rendering():
    c = chain(2, ((0, 1), 1), ((1, 2), -2))
    assert str(c) == "[0,1] - 2*[1,2]"
    assert str(Chain.zero(1, 2)) == "0"


def test_basis_elt_rejects_bool_vertices():
    with pytest.raises(ValueError):
        BasisElt((0, True), 1)


def test_chain_rejects_non_integer_coefficients():
    with pytest.raises(ValueError):
        Chain(1, 2, [((0, 1), 2.7)])


def test_chain_rejects_negative_dimension():
    with pytest.raises(ValueError):
        Chain(-3, 2)


def test_basis_elements_takes_an_int_dimension():
    assert basis_elements(2, 1) == [BasisElt(v, 2) for v in ((0, 1), (0, 2), (1, 2))]
    for dimension in (True, False, 1.0, "1", -1):
        with pytest.raises(ValueError):
            basis_elements(2, dimension)
