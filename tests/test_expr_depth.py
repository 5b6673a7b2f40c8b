"""Expression trees far deeper than the interpreter's recursion limit are
parsed, evaluated, printed, hashed, compared, rewritten and written as JSON,
and the loop parser answers every input as the recursive parser it replaced
did, kept here as its reference."""

import json
import os
import random
import sys

import pytest

from osimplex import oriental
from osimplex.errors import ArityError, InvalidExpressionError, NotComposableError, ParseError
from osimplex.oriental import (
    ComposeMap,
    Filler,
    Leaf,
    Pasting,
    eliminate_pastings,
    eval_expr,
    factorize,
    filler,
    parse_expr,
    pasting,
    simplify,
)
from osimplex.simplex import MonotoneMap
from osimplex.zdelta import ZMorphism, parse_zmorphism

DEPTH = 100_000
FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "factorize_strings.json")


def chain_text(depth):
    # P_0(x,(1,1)) evaluates to x for x = (0,1), at every depth.
    return "P_0(" * depth + "(0,1)" + ",(1,1))" * depth


def built_chain(depth, base=None):
    """The tree of chain_text(depth) built by hand, over base if given,
    with one leaf (1,1) shared by every node."""
    unit = Leaf(MonotoneMap((1, 1), 2))
    expr = base or Leaf(MonotoneMap((0, 1), 2))
    for _ in range(depth):
        expr = Pasting(0, expr, unit)
    return expr


VALUE = ZMorphism.generator(MonotoneMap((0, 1), 2))


def test_depth_is_beyond_the_recursion_limit():
    assert sys.getrecursionlimit() < DEPTH


def test_deep_text_parses_evaluates_prints_hashes_and_compares():
    text = chain_text(DEPTH)
    built = built_chain(DEPTH)
    assert str(built) == text
    tree = parse_expr(str(built), 2)
    assert tree == built
    assert hash(tree) == hash(built)
    assert str(tree) == text
    assert eval_expr(tree) == VALUE


def test_deep_error_carries_the_whole_path():
    bad = Pasting(5, Leaf(MonotoneMap((0, 1), 2)), Leaf(MonotoneMap((0, 1), 2)))
    with pytest.raises(InvalidExpressionError) as info:
        eval_expr(built_chain(DEPTH, base=bad))
    assert info.value.path == ("left",) * DEPTH


def test_deep_to_json_has_one_level_per_node():
    # Walked by hand: json.dumps itself recurses.
    data = built_chain(DEPTH).to_json()
    depth = 0
    while data["op"] == "pasting":
        assert data["index"] == 0
        assert data["right"] == {"op": "map", "values": [1, 1]}
        data = data["left"]
        depth += 1
    assert depth == DEPTH
    assert data == {"op": "map", "values": [0, 1]}


def test_deep_simplify_drops_every_unit():
    assert simplify(built_chain(DEPTH)) == Leaf(MonotoneMap((0, 1), 2))


def test_deep_eliminate_pastings_keeps_the_value():
    flat = eliminate_pastings(built_chain(DEPTH))
    assert isinstance(flat, ComposeMap)
    assert isinstance(flat.inner, Filler)
    assert eval_expr(flat) == VALUE


def reference_eval(node, path=(), values=None):
    """The recursive evaluation that the loop replaced: each distinct node
    once, left child first, a failure carrying the path it was reached by."""
    values = {} if values is None else values
    if id(node) not in values:
        kids = [reference_eval(kid, path + (label,), values)
                for label, kid in zip(node.labels, node.kids)]
        try:
            if isinstance(node, Leaf):
                value = ZMorphism.generator(node.map)
            elif isinstance(node, ComposeMap):
                value = kids[0].compose(ZMorphism.generator(node.map))
            else:
                value = (filler if isinstance(node, Filler) else pasting)(node.index, *kids)
        except (NotComposableError, ArityError) as exc:
            raise InvalidExpressionError(str(exc), path) from exc
        values[id(node)] = value
    return values[id(node)]


def random_dag(rng):
    """A small DAG over a few leaves of codomain 2, sharing nodes at random;
    most such DAGs fail somewhere, often below the root."""
    nodes = [Leaf(MonotoneMap(v, 2)) for v in [(0, 1), (1, 1), (1, 2), (0, 2), (2, 2), (0, 0)]]
    for _ in range(rng.randint(1, 12)):
        cls = rng.choice([Filler, Pasting, Pasting])
        nodes.append(cls(rng.randint(0, 2), rng.choice(nodes), rng.choice(nodes)))
    if rng.random() < 0.3:
        nodes.append(ComposeMap(nodes[-1], MonotoneMap((0, 1), 1)))
    return nodes[-1]


def test_evaluate_fails_with_the_path_of_the_recursive_evaluation():
    rng = random.Random(8)
    nested = 0
    for _ in range(1500):
        tree = random_dag(rng)
        try:
            expected = ("value", reference_eval(tree))
        except InvalidExpressionError as exc:
            expected = ("error", str(exc), exc.path)
            nested += len(exc.path) > 1
        try:
            got = ("value", eval_expr(tree))
        except InvalidExpressionError as exc:
            got = ("error", str(exc), exc.path)
        assert got == expected
    assert nested >= 100


# ---------------------------------------------------------------------------
# the recursive parser that parse_expr replaced


def reference_parse(text, n):
    expr, pos = _reference_expr(text, 0, n)
    pos = oriental._skip_ws(text, pos)
    if pos != len(text):
        raise ParseError(f"trailing input {text[pos:]!r}", pos)
    return expr


def _reference_expr(text, pos, n):
    pos = oriental._skip_ws(text, pos)
    if pos >= len(text):
        raise ParseError("unexpected end of expression", pos)
    ch = text[pos]
    if ch in ("F", "P"):
        cls = Filler if ch == "F" else Pasting
        pos += 1
        if pos >= len(text) or text[pos] != "_":
            raise ParseError("expected '_' after node tag", pos)
        pos += 1
        start = pos
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        if start == pos:
            raise ParseError("expected a node index", pos)
        index = int(text[start:pos])
        pos = oriental._expect(text, pos, "(")
        left, pos = _reference_expr(text, pos, n)
        pos = oriental._expect(text, pos, ",")
        right, pos = _reference_expr(text, pos, n)
        pos = oriental._expect(text, pos, ")")
        return cls(index, left, right), pos
    if ch == "C":
        pos = oriental._expect(text, pos + 1, "(")
        inner, pos = _reference_expr(text, pos, n)
        pos = oriental._expect(text, pos, ",")
        leaf, pos = oriental._parse_leaf(text, pos, oriental._domain(inner))
        pos = oriental._expect(text, pos, ")")
        return ComposeMap(inner, leaf.map), pos
    if ch == "(":
        return oriental._parse_leaf(text, pos, n)
    raise ParseError(f"unexpected character {ch!r}", pos)


def outcome(parse, text, n):
    try:
        return ("parsed", parse(text, n))
    except ParseError as exc:
        return ("error", str(exc), exc.position)


MALFORMED = [
    "",
    "   ",
    "P_0((0,1),",
    "P_0((0,1),(1,1)",
    "P0((0,1),(1,1))",
    "P_((0,1),(1,1))",
    "P_x((0,1),(1,1))",
    "F",
    "X((0,1),(1,1))",
    "P_0((0,1);(1,1))",
    "(0,1) (1,1)",
    "P_0((0,1),(1,1)))",
    "((0,1)",
    "(0,1",
    "(0,a)",
    "(1,0)",
    "(0,3)",
    "()",
    "C((0,1),P_0((0),(0)))",
    "C((0,1),(0)",
    "C((0,1))",
    "C(,(0,1))",
    " F_0 ( (0,1) , (1,2) ) ",
    "C(F_0((0,1),(1,2)),(0,2))",
    "C(F_0((0,1),(1,2)),(0,3))",
]


def test_loop_parser_matches_the_recursive_one_on_malformed_input():
    for text in MALFORMED:
        assert outcome(parse_expr, text, 2) == outcome(reference_parse, text, 2), text


def test_loop_parser_matches_the_recursive_one_on_fixture_strings():
    with open(FIXTURE, encoding="utf-8") as handle:
        entries = json.load(handle)["entries"]
    for entry in entries:
        n = entry["x"]["n"]
        for key in ("raw", "simplified"):
            expected = reference_parse(entry[key], n)
            assert parse_expr(entry[key], n) == expected
            assert str(expected) == entry[key]


def test_loop_parser_matches_the_recursive_one_on_cut_and_edited_strings():
    x = parse_zmorphism("(0,1) - (1,1) + (1,2)", 2)
    texts = [str(factorize(x)), str(eliminate_pastings(factorize(x, simplify_output=False)))]
    assert texts[1] == "C(F_0(C(F_0((0,0),(0,1)),(0,2)),(1,2)),(0,2))"
    for text in texts:
        variants = [text[:k] for k in range(len(text))]
        variants += [text[:k] + text[k + 1:] for k in range(len(text))]
        variants += [text[:k] + " " + text[k:] for k in range(len(text))]
        for variant in variants:
            assert outcome(parse_expr, variant, 2) == outcome(reference_parse, variant, 2), variant
