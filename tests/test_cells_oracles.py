"""The cells layer against its earlier, plainer algorithms, kept here as
references: the enumerator that searches the boundary preimages afresh for
every branch, by the exhaustive search that lists every coefficient vector
under the first-vertex budget and tests the boundary at its leaves; the
closure that re-pairs every generated cell with every other in each round;
composition through the identity cells it builds and generic chain
arithmetic; iterated boundary parts built from Chain values; and the basis
checks and atoms that build those parts afresh for every element and every
level."""

import random
from itertools import product
from math import comb

import pytest

from osimplex import chains, cli, nu
from osimplex.chains import (
    BasisElt,
    Chain,
    UnitalityReport,
    basis_elements,
    check_strongly_loopfree,
    check_unital,
    iterated_boundary_part,
)
from osimplex.errors import (
    ArityError,
    EnumerationLimitError,
    NotComposableError,
    PreconditionError,
)
from osimplex.nu import Cell, _atom_closure, _nonneg_preimages, atom, enumerate_cells


def reference_first_vertex_weight(chain):
    """Pair a chain with the first-vertex functional; on the boundary of any
    basis element this functional evaluates to a strictly positive integer,
    which bounds coefficient sums of nonnegative boundary preimages."""
    return sum(c * b.vertices[0] for b, c in chain.terms.items())


def reference_nonneg_preimages(delta, q):
    """All nonnegative q-chains whose boundary equals delta, by exhaustive
    search bounded through the first-vertex functional."""
    n = delta.ambient
    budget = reference_first_vertex_weight(delta)
    if budget < 0:
        return []
    basis = basis_elements(n, q)
    weights = [reference_first_vertex_weight(Chain.of(b).boundary()) for b in basis]
    out = []

    def descend(index, remaining, picked):
        if index == len(basis):
            chain = Chain(q, n, picked)
            if chain.boundary() == delta:
                out.append(chain)
            return
        w = weights[index]
        top = remaining // w
        for c in range(top + 1):
            descend(
                index + 1,
                remaining - c * w,
                picked + [(basis[index], c)] if c else picked,
            )

    descend(0, budget, [])
    return out


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
        for up_neg in reference_nonneg_preimages(delta, q + 1):
            for up_pos in reference_nonneg_preimages(delta, q + 1):
                extend(pairs + [(up_neg, up_pos)], q + 1)

    for s, t in product(range(n + 1), repeat=2):
        extend([(Chain(0, n, [((s,), 1)]), Chain(0, n, [((t,), 1)]))], 0)
    return cells


def reference_compose(x, y, p):
    if not isinstance(y, Cell) or y.ambient != x.ambient:
        raise ArityError("cells must live over the same complex to compose")
    shared = x.target(p)
    if shared != y.source(p):
        raise NotComposableError(
            f"cells do not meet across level {p}: the left target differs "
            f"from the right source"
        )
    height = max(len(x.pairs), len(y.pairs))
    pairs = []
    for q in range(height):
        xn, xp = x.pair(q)
        wn, wp = shared.pair(q)
        yn, yp = y.pair(q)
        pairs.append((xn - wn + yn, xp - wp + yp))
    return Cell._make(x.ambient, pairs)


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


@pytest.mark.parametrize("n", range(1, 5))
def test_nonneg_preimages_match_reference(n):
    """The same preimage list, in the same order, for every difference chain
    the enumeration meets."""
    todo = [
        (Chain(0, n, [((t,), 1)]) - Chain(0, n, [((s,), 1)]), 0)
        for s, t in product(range(n + 1), repeat=2)
    ]
    seen = set()
    tables = {}  # face tables, shared as within one enumerate_cells call
    while todo:
        delta, q = todo.pop()
        if delta.is_zero() or q >= n or (delta, q) in seen:
            continue
        seen.add((delta, q))
        want = reference_nonneg_preimages(delta, q + 1)
        got = _nonneg_preimages(delta, q + 1, tables)
        assert got == want
        assert [str(c) for c in got] == [str(c) for c in want]
        todo += [(pos - neg, q + 1) for neg, pos in product(want, repeat=2)]
    assert seen


def test_nonneg_preimages_match_reference_on_seeded_chains():
    """Chains that are no difference of a cell, most of them no cycle or of
    negative weight, have the reference's preimages too: mostly none."""
    rng = random.Random(7)
    found = 0
    for _ in range(600):
        n = rng.randint(1, 3)
        q = rng.randint(1, n)
        faces = basis_elements(n, q - 1)
        delta = Chain(q - 1, n, [(rng.choice(faces), rng.randint(-2, 2)) for _ in range(rng.randint(0, 4))])
        want = reference_nonneg_preimages(delta, q)
        assert _nonneg_preimages(delta, q, {}) == want
        found += bool(want)
    assert found >= 20


def test_enumerate_cells_at_5_matches_atom_closure():
    cells = enumerate_cells(5, bound=5)
    assert len(cells) == 476
    assert cells == _atom_closure(5)


def _composed(compose, x, y, p):
    """The composite, or the type and message of the error raised."""
    try:
        return compose(x, y, p)
    except (ArityError, NotComposableError, PreconditionError) as exc:
        return type(exc), str(exc)


def test_compose_matches_reference_exhaustively_small():
    for n in range(4):
        cells = sorted(enumerate_cells(n), key=str)
        for x, y in product(cells, repeat=2):
            for p in range(-1, n + 3):
                assert _composed(Cell.compose, x, y, p) == _composed(reference_compose, x, y, p)
    x, y = atom(basis_elements(2)[0]), atom(basis_elements(3)[0])
    for other in (y, "cell", None):
        assert _composed(Cell.compose, x, other, 0) == _composed(reference_compose, x, other, 0)


def test_compose_matches_reference_on_seeded_triples_at_4():
    n = 4
    cells = sorted(enumerate_cells(n, bound=n), key=str)
    by_source = {}
    for y in cells:
        for p in range(n + 2):
            by_source.setdefault((p, y.source(p)), []).append(y)
    rng = random.Random(4)
    composable = 0
    for _ in range(2000):
        x, p = rng.choice(cells), rng.randrange(n + 2)
        # Half the triples meet across p, the rest mostly do not.
        y = rng.choice(by_source[p, x.target(p)] if rng.random() < 0.5 else cells)
        want = _composed(reference_compose, x, y, p)
        assert _composed(Cell.compose, x, y, p) == want
        composable += isinstance(want, Cell)
    assert composable >= 900


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


@pytest.mark.parametrize("n", range(11))
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


def test_atoms_build_each_part_tower_once_per_call(monkeypatch, capsys):
    """The closure and the atoms command build the two part towers of each
    dimension once, and the next call builds them again."""
    n = 4
    true_tower = nu._part_tower
    built = []

    def counted(p, k, sign):
        built.append((p, k, sign))
        return true_tower(p, k, sign)

    monkeypatch.setattr(nu, "_part_tower", counted)
    want = sorted((p, p, sign) for p in range(n + 1) for sign in "-+")
    for run in (lambda: _atom_closure(n), lambda: cli.main(["atoms", str(n)])):
        for _ in range(2):
            built.clear()
            run()
            assert sorted(built) == want
    assert capsys.readouterr().out.count("\n") == 2 * (2 ** (n + 1) - 1)


def test_check_strongly_loopfree_compares_every_face(monkeypatch):
    """The check compares [0,...,p] with each of its faces once, for every
    p from 1 to n, in the order its boundary sign asks for: the order reads
    vertices only through order and equality, so [0,...,p] stands for every
    element of dimension p."""
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
        for p in range(1, n + 1)
        for b in [BasisElt(tuple(range(p + 1)), n)]
        for face, c in Chain.of(b).boundary().terms.items()
    ]
    assert sorted(seen) == sorted(want)
    assert len(seen) == len(set(seen)) == sum(p + 1 for p in range(1, n + 1))
