import copy
import itertools
import json
import pickle

import pytest

from osimplex import nu
from osimplex.chains import (
    BasisElt,
    Chain,
    basis_elements,
    check_strongly_loopfree,
    check_unital,
    to_chain_map,
)
from osimplex.errors import (
    ArityError,
    CellConditionError,
    EnumerationLimitError,
    NotComposableError,
    ParseError,
    PreconditionError,
)
from osimplex.nu import (
    Cell,
    act,
    atom,
    check_atom_generation,
    enumerate_cells,
    from_set_pairs,
    violations,
)
from osimplex.oriental import check_membership
from osimplex.zdelta import ZMorphism, parse_zmorphism

from conftest import random_oriental


def vertex(v, n):
    return Chain(0, n, [((v,), 1)])


def edge(a, b, n):
    return Chain(1, n, [((a, b), 1)])


def brute_force_cells(n, cap=2):
    """Independent enumerator: both bottom chains must be single vertices
    (augmentation 1 with nonnegative integer coefficients), all higher
    coefficients range over a grid, and every candidate goes through the
    validity predicate.  Cross-checked against the exact enumerator."""
    verts = [Chain(0, n, [(b, 1)]) for b in basis_elements(n, 0)]
    level_pairs = [[(u, v) for u in verts for v in verts]]
    for q in range(1, n + 1):
        basis = basis_elements(n, q)
        grids = [
            Chain(q, n, list(zip(basis, cs)))
            for cs in itertools.product(range(cap + 1), repeat=len(basis))
        ]
        level_pairs.append([(u, v) for u in grids for v in grids])
    found = set()
    for combo in itertools.product(*level_pairs):
        if not violations(n, list(combo)):
            found.add(Cell(n, list(combo)))
    return found


def test_validate_examples():
    assert violations(1, [(vertex(0, 1), vertex(0, 1))]) == []
    assert violations(1, [(vertex(0, 1), vertex(1, 1)), (edge(0, 1, 1), edge(0, 1, 1))]) == []
    bad = violations(2, [(vertex(0, 2), vertex(1, 2)), (edge(0, 1, 2), edge(0, 2, 2))])
    assert 3 in bad
    with pytest.raises(CellConditionError) as info:
        Cell.from_pairs(2, [(vertex(0, 2), vertex(1, 2)), (edge(0, 1, 2), edge(0, 2, 2))])
    assert 3 in info.value.violated


def test_validate_condition_numbers():
    # wrong dimensions -> (1)
    assert violations(1, [(edge(0, 1, 1), edge(0, 1, 1))]) == [1]
    # negative coefficient -> (4); augmentation broken -> (5)
    assert 4 in violations(1, [(vertex(0, 1), vertex(1, 1)), (-1 * edge(0, 1, 1), edge(0, 1, 1))])
    both = vertex(0, 1) + vertex(1, 1)
    assert violations(1, [(both, both)]) == [5]
    assert violations(1, []) == [5]


def test_trailing_zeros_trimmed():
    zero1 = Chain.zero(1, 1)
    cell = Cell.from_pairs(1, [(vertex(0, 1), vertex(0, 1)), (zero1, zero1)])
    assert cell.dimension == 0
    assert cell == atom(BasisElt((0,), 1))


def test_identity_examples():
    a01 = atom(BasisElt((0, 1), 1))
    assert a01.source(0) == atom(BasisElt((0,), 1))
    assert a01.target(0) == atom(BasisElt((1,), 1))
    assert a01.source(5) == a01
    assert a01.target(1) == a01


@pytest.mark.parametrize("level", [-1, 1.5, True])
@pytest.mark.parametrize(
    "call",
    [
        lambda x, p: x.pair(p),
        lambda x, p: x.source(p),
        lambda x, p: x.target(p),
        lambda x, p: x.compose(x, p),
    ],
    ids=["pair", "source", "target", "compose"],
)
def test_cell_levels_must_be_nonnegative_ints(call, level):
    """A level is an int, not a bool, and nonnegative, on every cell method,
    whether or not it lies above the cell's top level."""
    for b in (BasisElt((0,), 1), BasisElt((0, 1), 1)):
        with pytest.raises(PreconditionError, match="identity level must be nonnegative"):
            call(atom(b), level)


def test_compose_example():
    x = atom(BasisElt((0, 1), 2))
    y = atom(BasisElt((1, 2), 2))
    z = x.compose(y, 0)
    assert z.pairs[0] == (vertex(0, 2), vertex(2, 2))
    assert z.pairs[1] == (edge(0, 1, 2) + edge(1, 2, 2), edge(0, 1, 2) + edge(1, 2, 2))
    # identity absorption one level up
    triangle = atom(BasisElt((0, 1, 2), 2))
    assert triangle.target(1) == z
    assert triangle.compose(z, 1) == triangle
    with pytest.raises(NotComposableError):
        x.compose(x, 0)
    with pytest.raises(ArityError):
        x.compose(atom(BasisElt((0, 1), 1)), 0)


def test_atom_examples():
    assert atom(BasisElt((0,), 1)).pairs == ((vertex(0, 1), vertex(0, 1)),)
    a01 = atom(BasisElt((0, 1), 1))
    assert a01.pairs == (
        (vertex(0, 1), vertex(1, 1)),
        (edge(0, 1, 1), edge(0, 1, 1)),
    )
    a012 = atom(BasisElt((0, 1, 2), 2))
    assert a012.pairs[0] == (vertex(0, 2), vertex(2, 2))
    assert a012.pairs[1] == (
        Chain(1, 2, [((0, 2), 1)]),
        edge(0, 1, 2) + edge(1, 2, 2),
    )
    assert a012.pairs[2][0] == a012.pairs[2][1] == Chain(2, 2, [((0, 1, 2), 1)])


def test_every_atom_validates():
    for n in range(6):
        for b in basis_elements(n):
            assert violations(b.ambient, atom(b).pairs) == []


def test_enumerate_counts():
    assert len(enumerate_cells(0)) == 1
    assert len(enumerate_cells(1)) == 3
    assert len(enumerate_cells(2)) == 8


def test_enumerate_matches_brute_force():
    for n in range(3):
        assert brute_force_cells(n) == enumerate_cells(n)


def test_enumerate_resource_bounds():
    with pytest.raises(EnumerationLimitError):
        enumerate_cells(4)
    with pytest.raises(EnumerationLimitError):
        enumerate_cells(2, max_cells=5)
    assert len(enumerate_cells(2, max_cells=8)) == 8


@pytest.mark.parametrize("max_cells", [-1, True, 1.5, "8"])
def test_max_cells_is_checked_before_the_search(monkeypatch, max_cells):
    def no_search(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(nu, "_nonneg_preimages", no_search)
    with pytest.raises(ValueError, match="max_cells must be None or a nonnegative integer"):
        enumerate_cells(2, max_cells=max_cells)


@pytest.mark.parametrize("bound", [-1, True, 2.5, "4"])
def test_bound_is_checked_before_the_search(monkeypatch, bound):
    def no_search(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(nu, "_nonneg_preimages", no_search)
    monkeypatch.setattr(nu, "_atom_closure", no_search)
    for check in (enumerate_cells, check_atom_generation):
        with pytest.raises(ValueError, match="bound must be a nonnegative integer"):
            check(2, bound=bound)


@pytest.mark.parametrize("n", [-1, True])
@pytest.mark.parametrize(
    "entry",
    [basis_elements, check_strongly_loopfree, check_unital, enumerate_cells, check_atom_generation],
)
def test_sizes_that_are_negative_or_not_int_are_rejected(entry, n):
    with pytest.raises(ValueError, match="n must be an integer and the dimension nonnegative"):
        entry(n)


def test_zero_one_coefficients_observed():
    for n in range(6):
        for cell in enumerate_cells(n, bound=5):
            for neg, pos in cell.pairs:
                for chain in (neg, pos):
                    assert all(c == 1 for c in chain.terms.values())


def test_atom_generation():
    assert check_atom_generation(0)
    assert check_atom_generation(1)
    assert check_atom_generation(2)


def test_composite_cell_is_generated():
    # the non-atom cell over n=2 arises by composing the two edge atoms
    x = atom(BasisElt((0, 1), 2)).compose(atom(BasisElt((1, 2), 2)), 0)
    assert x in enumerate_cells(2)
    assert all(x != atom(b) for b in basis_elements(2))


def test_omega_laws_exhaustive_small():
    for n in range(3):
        cells = enumerate_cells(n)
        for x in cells:
            for p in range(n + 2):
                assert x.source(p).source(p) == x.source(p)
                assert x.target(p).target(p) == x.target(p)
                assert x.source(p).compose(x, p) == x
                assert x.compose(x.target(p), p) == x
                for q in range(p):
                    assert x.source(p).source(q) == x.source(q)
                    assert x.target(p).target(q) == x.target(q)
        for x, y in itertools.product(cells, repeat=2):
            for p in range(n + 1):
                if x.target(p) != y.source(p):
                    continue
                z = x.compose(y, p)
                assert z in cells
                assert z.source(p) == x.source(p)
                assert z.target(p) == y.target(p)
        for x, y, z in itertools.product(cells, repeat=3):
            for p in range(n + 1):
                if x.target(p) == y.source(p) and y.target(p) == z.source(p):
                    assert x.compose(y, p).compose(z, p) == x.compose(y.compose(z, p), p)


def test_interchange_exhaustive_small():
    for n in range(3):
        cells = enumerate_cells(n)
        for x, y, z, w in itertools.product(cells, repeat=4):
            for p, q in itertools.permutations(range(n + 1), 2):
                if (
                    x.target(p) == y.source(p)
                    and z.target(p) == w.source(p)
                    and x.target(q) == z.source(q)
                    and y.target(q) == w.source(q)
                    and x.compose(y, p).target(q) == z.compose(w, p).source(q)
                ):
                    lhs = x.compose(y, p).compose(z.compose(w, p), q)
                    rhs = x.compose(z, q).compose(y.compose(w, q), p)
                    assert lhs == rhs


def test_omega_laws_randomized_n3(rng):
    cells = sorted(enumerate_cells(3), key=str)
    for _ in range(300):
        x, y = rng.choice(cells), rng.choice(cells)
        p = rng.randint(0, 3)
        assert x.source(p).source(p) == x.source(p)
        assert x.source(p).compose(x, p) == x
        if x.target(p) == y.source(p):
            z = x.compose(y, p)
            assert z in set(cells)
            assert z.source(p) == x.source(p) and z.target(p) == y.target(p)


def test_from_set_pairs_examples():
    b0 = BasisElt((0,), 1)
    assert from_set_pairs(1, [({b0}, {b0})]) == atom(b0)
    b1 = BasisElt((1,), 1)
    e01 = BasisElt((0, 1), 1)
    assert from_set_pairs(1, [({b0}, {b1}), ({e01}, {e01})]) == atom(e01)
    cell = from_set_pairs(
        2,
        [
            ({BasisElt((0,), 2)}, {BasisElt((2,), 2)}),
            (
                {BasisElt((0, 1), 2), BasisElt((1, 2), 2)},
                {BasisElt((0, 1), 2), BasisElt((1, 2), 2)},
            ),
        ],
    )
    assert cell == atom(BasisElt((0, 1), 2)).compose(atom(BasisElt((1, 2), 2)), 0)
    with pytest.raises(CellConditionError):
        from_set_pairs(1, [({b0}, {b1})])


def test_act_examples():
    a01 = atom(BasisElt((0, 1), 1))
    ident = parse_zmorphism("(0,1)", 1)
    assert act(ident, a01) == a01

    collapse = parse_zmorphism("(0,0)", 1)
    assert act(collapse, a01) == atom(BasisElt((0,), 1))

    x = parse_zmorphism("(0,1) - (1,1) + (1,2)", 2)
    image = act(x, a01)
    assert image == atom(BasisElt((0, 1), 2)).compose(atom(BasisElt((1, 2), 2)), 0)

    with pytest.raises(PreconditionError):
        act(parse_zmorphism("2*(0,1) - (1,1)", 2), a01)
    with pytest.raises(ArityError):
        act(x, atom(BasisElt((0,), 2)))


def test_act_rejects_a_non_member_with_the_membership_reason():
    cell = atom(BasisElt((0, 1, 2), 2))
    for text in ("2*(0,1,2) - (1,1,2)", "(0,1,2) - (0,2,2) + (0,0,2)", "(0,1,2) + (1,2,2)"):
        x = parse_zmorphism(text, 2)
        result = check_membership(x)
        assert not result.ok
        with pytest.raises(PreconditionError) as info:
            act(x, cell)
        assert str(info.value) == f"only oriental morphisms act on cells: {result.reason}"


def test_act_functorial(rng):
    cells = {m: sorted(enumerate_cells(m), key=str) for m in range(4)}
    for _ in range(60):
        m, k, n = rng.randint(0, 2), rng.randint(0, 3), rng.randint(0, 3)
        x = random_oriental(rng, k, n, steps=4)
        y = random_oriental(rng, m, k, steps=4)
        s = rng.choice(cells[m])
        assert act(x.compose(y), s) == act(x, act(y, s))
        assert act(y, s) in cells[k] and act(x.compose(y), s) in cells[n]


def test_act_preserves_structure(rng):
    x = parse_zmorphism("(0,1) - (1,1) + (1,2)", 2)
    for s in enumerate_cells(1):
        for p in range(3):
            assert act(x, s.source(p)) == act(x, s).source(p)
            assert act(x, s.target(p)) == act(x, s).target(p)
    for s, t in itertools.product(enumerate_cells(1), repeat=2):
        for p in range(2):
            if s.target(p) == t.source(p):
                assert act(x, s.compose(t, p)) == act(x, s).compose(act(x, t), p)


def test_act_respects_structure_random(rng):
    by_size = {m: sorted(enumerate_cells(m), key=str) for m in range(4)}
    for _ in range(40):
        m, n = rng.randint(0, 2), rng.randint(0, 3)
        x = random_oriental(rng, m, n, steps=4)
        s = rng.choice(by_size[m])
        assert act(x, s) in by_size[n]
        p = rng.randint(0, m + 1)
        assert act(x, s.source(p)) == act(x, s).source(p)
        assert act(x, s.target(p)) == act(x, s).target(p)
        t = rng.choice(by_size[m])
        if s.target(p) == t.source(p):
            assert act(x, s.compose(t, p)) == act(x, s).compose(act(x, t), p)


def test_cell_json_roundtrip():
    for n in range(3):
        for cell in enumerate_cells(n):
            blob = json.dumps(cell.to_json())
            assert Cell.from_json(json.loads(blob)) == cell


def test_cell_json_rejects_non_integer_fields():
    cell = next(c for c in enumerate_cells(1) if c.dimension == 1)
    data = cell.to_json()
    assert Cell.from_json(data) == cell
    for path, bad in (
        (("n",), 1.0),
        (("pairs", 0, "neg", 0, "coef"), True),
        (("pairs", 1, "pos", 0, "coef"), 1.5),
        (("pairs", 0, "neg", 0, "basis", 0), "0"),
    ):
        broken = json.loads(json.dumps(data))
        target = broken
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = bad
        with pytest.raises(ParseError, match="must be an integer"):
            Cell.from_json(broken)


def test_values_pickle_and_copy_through_their_constructors(monkeypatch):
    x = parse_zmorphism("(1,2,2) - (1,1,2) + (0,1,2)", 2)
    chain = Chain(1, 2, [((1, 2), -1), ((0, 1), 2)])
    cell = next(c for c in enumerate_cells(2) if c.dimension == 2)
    table = to_chain_map(x)
    copiers = (lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy)
    for copier in copiers:
        for value in (x, chain, cell):
            twin = copier(value)
            assert twin == value and hash(twin) == hash(value)
            if value is cell:
                assert twin.pairs == cell.pairs
            else:
                assert list(twin.terms.items()) == list(value.terms.items())
            with pytest.raises(AttributeError, match="immutable"):
                twin.ambient = 3
        twin = copier(table)
        assert twin == table and twin.images is not table.images
    # Unpickling runs the constructors' checks again.
    data = [pickle.dumps(value) for value in (x, chain, cell)]

    def refuse(*args):
        raise ArityError("checked")

    monkeypatch.setattr(ZMorphism, "_check_key", staticmethod(refuse))
    monkeypatch.setattr(Chain, "_check_key", staticmethod(refuse))
    for blob in data[:2]:
        with pytest.raises(ArityError, match="checked"):
            pickle.loads(blob)
    monkeypatch.undo()
    monkeypatch.setattr(nu, "violations", lambda n, pairs: [1])
    with pytest.raises(CellConditionError):
        pickle.loads(data[2])
