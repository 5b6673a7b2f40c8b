"""The cells layer against its earlier, plainer algorithms, kept here as
references: the enumerator that searches the boundary preimages afresh for
every branch, the closure that re-pairs every generated cell with every
other in each round, iterated boundary parts built from Chain values, and
the basis checks and atoms that build those parts afresh for every element
and every level."""

from itertools import product
from math import comb

import pytest

from osimplex import chains
from osimplex.chains import (
    Chain,
    UnitalityReport,
    basis_elements,
    check_strongly_loopfree,
    check_unital,
    iterated_boundary_part,
)
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


def reference_check_unital(n):
    failures = []
    for b in basis_elements(n):
        p = b.dimension
        eps_minus = reference_iterated_boundary_part(b, p, "-").augmentation()
        eps_plus = reference_iterated_boundary_part(b, p, "+").augmentation()
        if eps_minus != 1 or eps_plus != 1:
            failures.append((b, eps_minus, eps_plus))
    return UnitalityReport(n, failures)


def reference_lf_less(av, bv):
    if av[0] != bv[0]:
        return av[0] < bv[0]
    if len(av) == 1:
        return True
    if len(bv) == 1:
        return False
    return reference_lf_less(bv[1:], av[1:])


def reference_check_strongly_loopfree(n):
    for b in basis_elements(n):
        if b.dimension == 0:
            continue
        for face, c in Chain.of(b).boundary().terms.items():
            if c < 0 and not reference_lf_less(face.vertices, b.vertices):
                return False
            if c > 0 and not reference_lf_less(b.vertices, face.vertices):
                return False
    return True


def reference_atom(b):
    p = b.dimension
    pairs = [
        (
            reference_iterated_boundary_part(b, p - q, "-"),
            reference_iterated_boundary_part(b, p - q, "+"),
        )
        for q in range(p + 1)
    ]
    return Cell.from_pairs(b.ambient, pairs)


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


@pytest.mark.parametrize("n", range(9))
def test_basis_checks_match_reference(n):
    got, want = check_unital(n), reference_check_unital(n)
    assert got.failures == want.failures
    assert bool(got) == bool(want)
    assert check_strongly_loopfree(n) is reference_check_strongly_loopfree(n)


def test_lf_less_matches_reference():
    tuples = [b.vertices for b in basis_elements(5)]
    for av, bv in product(tuples, repeat=2):
        if av != bv:
            assert chains._lf_less(av, bv) == reference_lf_less(av, bv)


def test_atom_matches_reference():
    for n in range(7):
        for b in basis_elements(n):
            got, want = atom(b), reference_atom(b)
            assert got == want
            assert str(got) == str(want)


@pytest.mark.parametrize("p", range(5))
def test_check_unital_reads_every_element(monkeypatch, p):
    """A wrong end part for one dimension fails every element of it, and the
    next call, with the true parts, passes again: nothing is kept."""
    n = 4
    true_tower = chains._part_tower

    def wrong_end(q, k, sign):
        tower = true_tower(q, k, sign)
        if q == p and sign == "+":
            tower[k] = {(q,): 2}
        return tower

    monkeypatch.setattr(chains, "_part_tower", wrong_end)
    report = check_unital(n)
    assert not report
    assert [b for b, _, _ in report.failures] == basis_elements(n, p)
    assert len(report.failures) == comb(n + 1, p + 1)
    assert all((em, ep) == (1, 2) for _, em, ep in report.failures)
    monkeypatch.setattr(chains, "_part_tower", true_tower)
    assert check_unital(n)


def test_check_strongly_loopfree_compares_every_face(monkeypatch):
    """The check compares each element with each of its faces, in the
    order its boundary sign asks for."""
    n = 5
    true_less = chains._lf_less
    seen = []

    def recording(av, bv):
        seen.append((av, bv))
        return true_less(av, bv)

    monkeypatch.setattr(chains, "_lf_less", recording)
    assert check_strongly_loopfree(n)
    want = [
        (face.vertices, b.vertices) if c < 0 else (b.vertices, face.vertices)
        for b in basis_elements(n)
        if b.dimension
        for face, c in Chain.of(b).boundary().terms.items()
    ]
    assert sorted(seen) == sorted(want)
