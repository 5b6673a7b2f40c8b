"""The cells layer against its earlier, plainer algorithms, kept here as
references: the enumerator that searches the boundary preimages afresh for
every branch, the closure that re-pairs every generated cell with every
other in each round, and iterated boundary parts built from Chain values."""

from itertools import product

import pytest

from osimplex.chains import Chain, basis_elements, iterated_boundary_part
from osimplex.errors import EnumerationLimitError
from osimplex.nu import Cell, _atom_closure, _nonneg_preimages, atom, enumerate_cells


def reference_enumerate_cells(n):
    cells = set()

    def extend(pairs, q):
        neg, pos = pairs[-1]
        delta = pos - neg
        if delta.is_zero():
            cells.add(Cell(n, pairs))
            return
        if q >= n:
            return
        for up_neg in _nonneg_preimages(delta, q + 1):
            for up_pos in _nonneg_preimages(delta, q + 1):
                extend(pairs + [(up_neg, up_pos)], q + 1)

    for s, t in product(range(n + 1), repeat=2):
        extend([(Chain(0, n, [((s,), 1)]), Chain(0, n, [((t,), 1)]))], 0)
    return cells


def reference_atom_closure(n):
    generated = {atom(b) for b in basis_elements(n)}
    frontier = set(generated)
    while frontier:
        fresh = set()
        for x in frontier:
            for p in range(n + 1):
                for made in (x.source(p), x.target(p)):
                    if made not in generated:
                        fresh.add(made)
        for x, y in product(generated, repeat=2):
            for p in range(max(x.dimension, y.dimension) + 1):
                if x.target(p) == y.source(p):
                    made = x.compose(y, p)
                    if made not in generated:
                        fresh.add(made)
        generated |= fresh
        frontier = fresh
    return generated


def reference_iterated_boundary_part(b, k, sign):
    chain = Chain.of(b)
    for _ in range(k):
        neg, pos = chain.boundary_parts()
        chain = neg if sign == "-" else pos
    return chain


@pytest.mark.parametrize("n", range(5))
def test_enumerate_cells_matches_reference(n):
    assert enumerate_cells(n, bound=4) == reference_enumerate_cells(n)


@pytest.mark.parametrize("n", range(5))
def test_atom_closure_matches_reference(n):
    closure = _atom_closure(n)
    assert closure == reference_atom_closure(n)
    assert closure == enumerate_cells(n, bound=4)


def test_iterated_boundary_part_matches_reference():
    for n in range(8):
        for b in basis_elements(n):
            for k in range(b.dimension + 1):
                for sign in "-+":
                    got = iterated_boundary_part(b, k, sign)
                    want = reference_iterated_boundary_part(b, k, sign)
                    assert got == want
                    assert (got.dimension, got.ambient) == (want.dimension, want.ambient)
                    assert str(got) == str(want)


def test_enumeration_cap_still_raises():
    with pytest.raises(EnumerationLimitError):
        enumerate_cells(4, bound=4, max_cells=10)
