"""The rules that every public value class obeys, each kept once in
simplex: assignment and deletion raise, pickle and copy rebuild a value
through its checking constructor; and the one reader of the integer tuples
of text input, which takes ASCII digits only."""

import copy
import pickle

import pytest

from osimplex.chains import BasisElt, Chain
from osimplex.errors import ParseError
from osimplex.nu import Cell, enumerate_cells
from osimplex.oriental import parse_expr
from osimplex.simplex import MonotoneMap, parse_map
from osimplex.zdelta import MembershipResult, ZMorphism, check_membership, parse_zmorphism

X = parse_zmorphism("(1,2,2) - (1,1,2) + (0,1,2)", 2)
CELL = next(c for c in sorted(enumerate_cells(2), key=str) if c.dimension == 2)
VALUES = {
    "MonotoneMap": (MonotoneMap((0, 1, 1), 2), ((0, 1, 1), 2)),
    "BasisElt": (BasisElt((0, 2), 3), ((0, 2), 3)),
    "MembershipResult": (
        check_membership(2 * X),
        (False, "coefficient sum is 2, not 1", None, None, 0),
    ),
    "ZMorphism": (X, (2, 2, list(X._terms.items()))),
    "Chain": (
        Chain(1, 2, [((1, 2), -1), ((0, 1), 2)]),
        (1, 2, [((1, 2), -1), ((0, 1), 2)]),
    ),
    "Cell": (CELL, (2, CELL.pairs)),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_assignment_and_deletion_raise(name):
    value, _ = VALUES[name]
    field = value._fields[0] if value._fields else "_terms"
    with pytest.raises(AttributeError, match=f"^{name} values are immutable$"):
        setattr(value, field, 3)
    with pytest.raises(AttributeError, match="immutable"):
        setattr(value, "extra", 3)
    with pytest.raises(AttributeError, match=f"^{name} values are immutable$"):
        delattr(value, field)
    assert getattr(value, field) is not None


@pytest.mark.parametrize("name", sorted(VALUES))
def test_reduce_gives_the_class_and_its_constructor_arguments(name):
    value, args = VALUES[name]
    cls, got = type(value).__reduce__(value)
    assert cls is type(value) and cls.__name__ == name
    assert tuple(got) == args
    assert cls(*got) == value


@pytest.mark.parametrize("name", sorted(VALUES))
def test_pickle_and_deepcopy_give_an_equal_value(name):
    value, _ = VALUES[name]
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)


@pytest.mark.parametrize("name", ["ZMorphism", "Chain", "Cell"])
def test_slotted_values_have_no_dict(name):
    value, _ = VALUES[name]
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("name", ["MonotoneMap", "BasisElt"])
def test_unpickling_runs_the_constructors_checks(name, monkeypatch):
    value, _ = VALUES[name]
    blob = pickle.dumps(value)

    def refuse(self):
        raise ValueError("checked")

    monkeypatch.setattr(type(value), "__post_init__", refuse)
    with pytest.raises(ValueError, match="checked"):
        pickle.loads(blob)


# Each entry holds a character that int() or str.isdigit() accepts and an
# ASCII-digit reader does not: a digit of another script, a superscript, an
# underscore between digits, an explicit plus sign.
NOT_ASCII = ["(0,١)", "(0,²)", "(0,1_0)", "( +0,1)"]


@pytest.mark.parametrize("leaf", NOT_ASCII)
def test_every_reader_of_integer_tuples_takes_ascii_digits_only(leaf):
    with pytest.raises(ParseError, match="not a monotone map"):
        parse_map(f"{leaf}:10")
    with pytest.raises(ParseError, match="expected a term"):
        parse_zmorphism(f"{leaf} - (1,1) + (1,2)", 10)
    with pytest.raises(ParseError, match="bad leaf"):
        parse_expr(leaf, 10)
    with pytest.raises(ParseError, match="bad leaf"):
        parse_expr(f"P_0({leaf},(1,2))", 10)


@pytest.mark.parametrize("text", ["(0,1):١", "(0,1):²", "(0,1):1_0", "(0,1):+2"])
def test_a_map_codomain_takes_ascii_digits_only(text):
    with pytest.raises(ParseError, match="not a monotone map"):
        parse_map(text)


@pytest.mark.parametrize("coef", ["١", "²", "1_0", "+2"])
def test_a_coefficient_takes_ascii_digits_only(coef):
    with pytest.raises(ParseError, match="expected a term"):
        parse_zmorphism(f"(0,1) - {coef}*(1,1) + (1,2)", 2)


@pytest.mark.parametrize("index", ["²", "١"])
def test_a_node_index_takes_ascii_digits_only(index):
    with pytest.raises(ParseError, match=r"expected a node index \(at position 2\)"):
        parse_expr(f"F_{index}((0,1),(1,2))", 2)


def test_ascii_tuples_still_read_with_spaces_and_signs():
    assert parse_map(" ( 0 , 1 ) : 2 ") == MonotoneMap((0, 1), 2)
    assert str(parse_zmorphism("( 0,1 ) - 1 * (1,1) + 1*(1,2)", 2)) == "(0,1) - (1,1) + (1,2)"
    assert str(parse_expr("P_10 ( ( 0 , 1 ) , (1,2) )", 2)) == "P_10((0,1),(1,2))"
    with pytest.raises(ParseError, match="non-decreasing"):
        parse_map("(0,-1):2")
