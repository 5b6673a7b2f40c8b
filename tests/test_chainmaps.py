import os
import random
import subprocess
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from osimplex import chains
from osimplex.chains import (
    BasisElt,
    Chain,
    ChainMapTable,
    apply_map,
    basis_elements,
    from_chain_map,
    map_from_pair,
    to_chain_map,
)
from osimplex.errors import ArityError, PreconditionError
from osimplex.simplex import MonotoneMap, identity
from osimplex.zdelta import ZMorphism, parse_zmorphism

from conftest import random_oriental, random_zmorphism
from test_zdelta import zmorphisms


def test_apply_map_examples():
    f = MonotoneMap((0, 0, 1), 1)
    assert apply_map(f, BasisElt((1, 2), 2)) == Chain.of(BasisElt((0, 1), 1))
    assert apply_map(f, BasisElt((0, 1), 2)).is_zero()
    assert apply_map(identity(2), BasisElt((0, 2), 2)) == Chain.of(BasisElt((0, 2), 2))
    with pytest.raises(ArityError):
        apply_map(f, BasisElt((0, 1), 3))


def test_to_chain_map_examples():
    table = to_chain_map(ZMorphism.generator(MonotoneMap((0, 1), 1)))
    for b in basis_elements(1):
        assert table.image(b) == Chain.of(b)

    degenerate = to_chain_map(ZMorphism.generator(MonotoneMap((0, 0), 1)))
    zero_vertex = Chain.of(BasisElt((0,), 1))
    assert degenerate.image(BasisElt((0,), 1)) == zero_vertex
    assert degenerate.image(BasisElt((1,), 1)) == zero_vertex
    assert degenerate.image(BasisElt((0, 1), 1)).is_zero()

    x = parse_zmorphism("(0,1) - (1,1) + (1,2)", 2)
    table = to_chain_map(x)
    assert table.image(BasisElt((0, 1), 1)) == Chain(
        1, 2, [(BasisElt((0, 1), 2), 1), (BasisElt((1, 2), 2), 1)]
    )


def test_tables_validate():
    x = parse_zmorphism("2*(0,1) - (1,2)", 2)
    to_chain_map(x).validate()  # arbitrary coefficient sums are fine

    broken = to_chain_map(x)
    broken.images[BasisElt((0, 1), 1)] = Chain.zero(1, 2)
    with pytest.raises(PreconditionError):
        broken.validate()

    missing = ChainMapTable(1, 2, {})
    with pytest.raises(PreconditionError):
        missing.validate()


@settings(max_examples=100, deadline=None)
@given(zmorphisms())
def test_every_combination_gives_a_valid_table(x):
    # from_chain_map relies on this: the image of any combination is a chain
    # map, whatever its coefficient sum and degenerate terms, so a table it
    # reproduces is valid.
    to_chain_map(x).validate()


def test_seeded_combinations_give_valid_tables(rng):
    sums, degenerate = set(), 0
    for _ in range(200):
        x = random_zmorphism(rng, rng.randint(0, 4), rng.randint(0, 4), max_terms=6)
        to_chain_map(x).validate()
        sums.add(x.coefficient_sum())
        degenerate += any(not f.is_injective() for f in x.terms)
    assert len(sums - {1}) >= 10 and degenerate >= 50


def _edited_table(edit):
    table = to_chain_map(parse_zmorphism("(0,1,2) - (1,1,2) + (1,2,2)", 2))
    edit(table.images)
    return table


V0, E01 = BasisElt((0,), 2), BasisElt((0, 1), 2)

INVALID_TABLES = {
    "missing key": (lambda im: im.pop(E01), "table must cover exactly"),
    "extra key": (
        lambda im: im.update({BasisElt((0, 1, 2, 3), 3): Chain.zero(3, 2)}),
        "table must cover exactly",
    ),
    "wrong-shape image": (
        lambda im: im.update({E01: Chain.zero(0, 2)}),
        "image of [0,1] has the wrong shape",
    ),
    "image in another codomain": (
        lambda im: im.update({E01: Chain.zero(1, 3)}),
        "image of [0,1] has the wrong shape",
    ),
    "image that is None": (
        lambda im: im.update({E01: None}),
        "image of [0,1] has the wrong shape",
    ),
    "image that is an int": (
        lambda im: im.update({E01: 3}),
        "image of [0,1] has the wrong shape",
    ),
    "image that is a ZMorphism": (
        lambda im: im.update({E01: ZMorphism.generator(MonotoneMap((0, 1), 2))}),
        "image of [0,1] has the wrong shape",
    ),
    "inconsistent vertex augmentation": (
        lambda im: im.update({V0: 2 * im[V0]}),
        "vertex images have inconsistent augmentation",
    ),
    "non-commuting image": (
        lambda im: im.update({E01: Chain.zero(1, 2)}),
        "table does not commute with the boundary at",
    ),
}


@pytest.mark.parametrize("case", sorted(INVALID_TABLES))
def test_from_chain_map_rejects_invalid_tables_as_validate_does(case):
    edit, message = INVALID_TABLES[case]
    table = _edited_table(edit)
    with pytest.raises(PreconditionError) as expected:
        table.validate()
    with pytest.raises(PreconditionError) as got:
        from_chain_map(table)
    assert type(got.value) is type(expected.value) is PreconditionError
    assert str(got.value) == str(expected.value)
    assert str(got.value).startswith(message)


@pytest.mark.parametrize("bad", [True, 1.0, -1])
def test_a_table_with_a_bad_codomain_is_rejected_as_one_with_a_bad_domain(bad):
    # The one image would be a chain in the complex on 1, so the codomain
    # is the only fault.
    images = {BasisElt((0,), 0): Chain(0, 1, [((0,), 1)])}
    for m, n in ((bad, 1), (0, bad)):
        table = ChainMapTable(m, n, images)
        for check in (table.validate, lambda: from_chain_map(table)):
            with pytest.raises(ValueError) as err:
                check()
            assert type(err.value) is ValueError
            assert str(err.value) == "n must be an integer and the dimension nonnegative"


def test_a_non_commuting_table_is_named_by_its_first_element_in_basis_order():
    table = to_chain_map(ZMorphism.generator(identity(3)))
    for b in basis_elements(3, 1):
        table.images[b] = Chain.zero(1, 3)
    for check in (table.validate, lambda: from_chain_map(table)):
        with pytest.raises(PreconditionError) as err:
            check()
        assert str(err.value) == "table does not commute with the boundary at [0,1]"


def test_from_chain_map_rejects_a_nonzero_row_where_no_term_is_injective():
    # No term of (0,1,1) is injective on [1,2], so the scan of the answer
    # yields no row there; the solve never reads that row either.
    x = ZMorphism.generator(MonotoneMap((0, 1, 1), 1))
    table = to_chain_map(x)
    table.images[BasisElt((1, 2), 2)] = Chain.of(BasisElt((0, 1), 1))
    with pytest.raises(PreconditionError) as expected:
        table.validate()
    with pytest.raises(PreconditionError) as got:
        from_chain_map(table)
    assert str(got.value) == str(expected.value)
    assert str(got.value) == "table does not commute with the boundary at [1,2]"


def test_from_chain_map_makes_no_boundary_calls_on_a_valid_table(monkeypatch):
    # Counted rather than timed: the round trip itself proves a valid table
    # valid, so the boundary checks of validate never run.
    x = random_oriental(random.Random(55), 5, 5, max_domain=5)
    assert x.domain == 5
    table = to_chain_map(x)
    calls = []
    validate = ChainMapTable.validate
    monkeypatch.setattr(ChainMapTable, "validate", lambda self: calls.append(self) or validate(self))
    assert from_chain_map(table) == x
    assert calls == []
    table.validate()
    assert calls == [table]  # the counter sees a call of validate


def test_apply_rejects_a_chain_over_another_ambient():
    table = to_chain_map(parse_zmorphism("(0,1) - (1,1) + (1,2)", 2))
    assert table.apply(Chain(0, 1, [((1,), 1)])) == Chain(0, 2, [((2,), 1)])
    for chain in (Chain(0, 2, [((2,), 1)]), Chain(0, 2, [((0,), 1)]), Chain.zero(1, 0)):
        with pytest.raises(ArityError) as err:
            table.apply(chain)
        assert str(err.value) == f"chain lives in {chain.ambient}, table has domain 1"


def test_apply_rejects_a_table_without_the_chains_basis_element():
    with pytest.raises(ArityError) as err:
        ChainMapTable(1, 2, {}).apply(Chain(0, 1, [((1,), 1)]))
    assert str(err.value) == "table has no image of [1]"
    with pytest.raises(ArityError) as err:
        ChainMapTable(1, 2, {}).image(BasisElt((1,), 1))
    assert str(err.value) == "table has no image of [1]"


def test_apply_rejects_an_image_that_is_not_a_chain():
    table = to_chain_map(parse_zmorphism("(0,1) - (1,1) + (1,2)", 2))
    b = BasisElt((0, 1), 1)
    table.images[b] = table.images[b].terms
    with pytest.raises(ArityError) as err:
        table.apply(Chain.of(b))
    assert str(err.value) == "image of [0,1] has the wrong shape"
    with pytest.raises(ArityError) as err:
        table.image(b)
    assert str(err.value) == "image of [0,1] has the wrong shape"


def test_image_rejects_a_key_that_is_not_a_basis_element():
    table = to_chain_map(parse_zmorphism("(0,1) - (1,1) + (1,2)", 2))
    for b in ([0], (0,), "[0]", None):
        with pytest.raises(ArityError) as err:
            table.image(b)
        assert str(err.value) == f"expected a basis element, not {type(b).__name__}"
    with pytest.raises(ArityError) as err:
        table.image(BasisElt((0,), 2))
    assert str(err.value) == "table has no image of [0]"


def test_map_from_pair_bijection():
    # every monotone map is recovered from its associated basis pair
    import itertools

    for m in range(4):
        for n in range(4):
            seen = set()
            for values in itertools.combinations_with_replacement(range(n + 1), m + 1):
                f = MonotoneMap(values, n)
                image = sorted(set(values))
                least_preimage = tuple(values.index(b) for b in image)
                a = BasisElt(least_preimage, m)
                b = BasisElt(tuple(image), n)
                assert map_from_pair(a, b, m) == f
                assert apply_map(f, a) == Chain.of(b)
                seen.add((a, b))
            assert len(seen) == len(
                list(itertools.combinations_with_replacement(range(n + 1), m + 1))
            )


def test_map_from_pair_checks_the_basis_pair():
    # a must start at 0 in the complex on m, with the dimension of b.
    for a, b, m in (
        (BasisElt((1, 2), 3), BasisElt((0, 1), 3), 3),
        (BasisElt((0, 2), 2), BasisElt((0, 1), 3), 1),
        (BasisElt((0, 1), 1), BasisElt((0,), 1), 1),
    ):
        with pytest.raises(PreconditionError):
            map_from_pair(a, b, m)


def test_from_chain_map_examples():
    x = ZMorphism.generator(MonotoneMap((0, 1), 1))
    assert from_chain_map(to_chain_map(x)) == x

    table = to_chain_map(ZMorphism.generator(MonotoneMap((0, 0), 1)))
    assert from_chain_map(table) == ZMorphism.generator(MonotoneMap((0, 0), 1))

    # The row at [0] is zero; only the image pushed from the term found at
    # [0,1] gives the term (0,0).
    x = parse_zmorphism("(0,0) - (0,1)", 1)
    assert to_chain_map(x).image(BasisElt((0,), 1)).is_zero()
    assert from_chain_map(to_chain_map(x)) == x


def test_from_chain_map_roundtrip_random(rng):
    for _ in range(300):
        x = random_zmorphism(rng, rng.randint(0, 4), rng.randint(0, 4))
        assert from_chain_map(to_chain_map(x)) == x


@settings(max_examples=60, deadline=None)
@given(zmorphisms())
def test_from_chain_map_roundtrip_property(x):
    assert from_chain_map(to_chain_map(x)) == x


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_to_chain_map_is_functorial(data):
    y = data.draw(zmorphisms(max_m=3, max_n=3))
    x = data.draw(zmorphisms(max_m=3, m=None, n=y.domain))
    composite = to_chain_map(y.compose(x))
    staged = to_chain_map(y).compose(to_chain_map(x))
    assert composite == staged


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_to_chain_map_is_additive(data):
    x = data.draw(zmorphisms(max_m=3, max_n=3))
    y = data.draw(zmorphisms(m=x.domain, n=x.codomain))
    lhs = to_chain_map(x + y)
    rhs_images = {
        b: to_chain_map(x).image(b) + to_chain_map(y).image(b)
        for b in basis_elements(x.domain)
    }
    assert lhs == ChainMapTable(x.domain, x.codomain, rhs_images)


def test_table_json_export():
    x = parse_zmorphism("(0,1)", 1)
    blob = to_chain_map(x).to_json()
    assert blob["m"] == 1 and blob["n"] == 1
    assert blob["images"]["[0,1]"] == [{"basis": [0, 1], "coef": 1}]


def test_tables_on_one_domain_share_their_keys_in_basis_order():
    x = parse_zmorphism("(0,1,2) - (1,1,2) + (1,2,2)", 2)
    y = ZMorphism.generator(MonotoneMap((0, 0, 0), 0))
    t1, t2, t3 = to_chain_map(x), to_chain_map(y), to_chain_map(x)
    assert list(t1.images) == list(t2.images) == basis_elements(2)
    for t in (t2, t3):
        assert all(a is b for a, b in zip(t1.images, t.images))
    assert all(a is b for a, b in zip(t1.images, basis_elements(2)))


def test_basis_elements_follow_the_combinations_definition():
    for n in range(9):
        by_dimension = [
            [BasisElt(v, n) for v in combinations(range(n + 1), q + 1)] for q in range(n + 2)
        ]
        assert basis_elements(n) == [b for level in by_dimension for b in level]
        for q, level in enumerate(by_dimension):
            assert basis_elements(n, q) == level
        assert by_dimension[n + 1] == [] == basis_elements(n, n + 7)


def test_basis_elements_returns_a_new_list_each_call():
    expected = [BasisElt(v, 3) for q in range(4) for v in combinations(range(4), q + 1)]
    for dimension in (None, 1):
        listed = basis_elements(3, dimension)
        assert listed is not basis_elements(3, dimension)
        listed.reverse()
        listed.append(None)
        del listed[0]
    assert basis_elements(3) == expected
    assert basis_elements(3, 1) == expected[4:10]
    assert list(to_chain_map(ZMorphism.generator(identity(3))).images) == expected


def test_editing_a_table_leaves_later_tables_unchanged():
    x = parse_zmorphism("(0,1) - (1,1) + (1,2)", 2)
    before = to_chain_map(x)
    edited = to_chain_map(x)
    edited.images[BasisElt((0, 1), 1)] = Chain.zero(1, 2)
    edited.images[BasisElt((1,), 1)] = Chain(0, 2, [((0,), 5)])
    del edited.images[BasisElt((0,), 1)]
    later = to_chain_map(x)
    assert later == before and list(later.images) == basis_elements(1)
    assert later.image(BasisElt((0, 1), 1)) == Chain(1, 2, [((0, 1), 1), ((1, 2), 1)])


def test_a_bad_size_raises_and_lists_no_basis():
    cached = dict(chains._BASES)
    for n, dimension in ((-1, None), (True, None), (2.0, None), ("2", None), (None, None),
                         (2, -1), (2, True), (2, 1.0), (-3, 1)):
        with pytest.raises(ValueError) as err:
            basis_elements(n, dimension)
        assert str(err.value) == "n must be an integer and the dimension nonnegative"
    assert list(chains._BASES.items()) == list(cached.items())
    assert all(chains._BASES[m] is basis for m, basis in cached.items())


def test_no_basis_is_listed_at_import():
    src = os.path.dirname(os.path.dirname(os.path.abspath(chains.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", "import osimplex.chains as c, osimplex.nu; print(c._BASES)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "{}\n"
