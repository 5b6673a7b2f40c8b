import time

import pytest

from osimplex.errors import InvalidExpressionError, ParseError, PreconditionError
from osimplex.oriental import (
    ComposeMap,
    Filler,
    Leaf,
    Pasting,
    eliminate_pastings,
    eval_expr,
    expr_from_json,
    factorize,
    parse_expr,
    simplify,
)
from osimplex.simplex import MonotoneMap
from osimplex.zdelta import ZMorphism, parse_zmorphism

from conftest import all_domain_one_members, random_oriental


def leaf(values, n):
    return Leaf(MonotoneMap(values, n))


def test_eval_examples():
    assert eval_expr(leaf((0, 1), 2)) == parse_zmorphism("(0,1)", 2)
    assert eval_expr(Filler(0, leaf((0, 1), 2), leaf((1, 2), 2))) == parse_zmorphism(
        "(0,1,1) - (1,1,1) + (1,1,2)", 2
    )
    assert eval_expr(Pasting(0, leaf((0, 1), 2), leaf((1, 2), 2))) == parse_zmorphism(
        "(0,1) - (1,1) + (1,2)", 2
    )


def test_eval_reports_node_path():
    bad = Pasting(0, leaf((0, 1), 2), Pasting(0, leaf((0, 1), 2), leaf((0, 1), 2)))
    with pytest.raises(InvalidExpressionError) as info:
        eval_expr(bad)
    assert "right" in str(info.value)


def test_simplify_rejects_a_bad_pasting_index_as_eval_does():
    # Indices out of range for one or both operands, at the root and nested,
    # and a nested face mismatch.
    trees = [
        Pasting(5, leaf((0, 1), 2), leaf((0, 1), 2)),
        Pasting(-1, leaf((0, 1), 2), leaf((0, 1), 2)),
        Pasting(1, leaf((0, 1), 2), leaf((0, 1), 2)),
        Pasting(1, leaf((0, 1), 2), leaf((0, 1, 2), 2)),
        Pasting(1, leaf((0, 1, 2), 2), leaf((0, 1), 2)),
    ]
    trees.append(Pasting(0, trees[0], leaf((0, 1), 2)))
    trees.append(Pasting(0, Pasting(0, leaf((0, 2), 2), leaf((1, 2), 2)), leaf((1, 1), 2)))
    for tree in trees:
        outcomes = []
        for fn in (simplify, eliminate_pastings, eval_expr):
            with pytest.raises(Exception) as info:
                fn(tree)
            outcomes.append((type(info.value), str(info.value)))
        assert outcomes[0] == outcomes[1] == outcomes[2], str(tree)
        assert outcomes[0][0] is InvalidExpressionError, str(tree)
    assert outcomes[0][1].endswith("(node left)")


def test_factorize_constant():
    for m in range(4):
        x = ZMorphism.generator(MonotoneMap((1,) * (m + 1), 3))
        assert factorize(x) == Leaf(MonotoneMap((1,) * (m + 1), 3))


def test_factorize_path_example():
    x = parse_zmorphism("(0,1) - (1,1) + (1,2)", 2)
    assert factorize(x) == Pasting(0, leaf((0, 1), 2), leaf((1, 2), 2))
    # without simplification the degenerate start unit is kept
    raw = factorize(x, simplify_output=False)
    assert raw == Pasting(
        0, Pasting(0, leaf((0, 0), 2), leaf((0, 1), 2)), leaf((1, 2), 2)
    )


def test_factorize_filler_example():
    y = parse_zmorphism("(0,1,1) - (1,1,1) + (1,1,2)", 2)
    assert factorize(y) == Filler(0, leaf((0, 1), 2), leaf((1, 2), 2))


def test_factorize_rejects_non_members():
    with pytest.raises(PreconditionError, match="^factorize requires an oriental morphism: "):
        factorize(parse_zmorphism("2*(0,1) - (1,1)", 2))


@pytest.mark.parametrize("flag", ["no", 1, 0, None, 0.0])
def test_factorize_rejects_a_non_bool_simplify_output(flag):
    # Neither truthiness nor equality with True picks the path.
    x = parse_zmorphism("(0,1) - (1,1) + (1,2)", 2)
    with pytest.raises(TypeError, match="^simplify_output must be True or False, not "):
        factorize(x, simplify_output=flag)


def leaves_in_order(expr):
    if isinstance(expr, Leaf):
        return [expr.map.values]
    if isinstance(expr, ComposeMap):
        return leaves_in_order(expr.inner)
    return leaves_in_order(expr.left) + leaves_in_order(expr.right)


def only_pastings_at_zero(expr):
    if isinstance(expr, Leaf):
        return True
    return (
        isinstance(expr, Pasting)
        and expr.index == 0
        and only_pastings_at_zero(expr.left)
        and only_pastings_at_zero(expr.right)
    )


def test_domain_one_closed_form():
    # the unsimplified factorization of an edge chain is the left-nested
    # pasting of (i0,i0),(i0,i1),...,(i_{q-1},i_q) at index 0
    for n in range(5):
        for x in all_domain_one_members(n):
            raw = factorize(x, simplify_output=False)
            assert eval_expr(raw) == x
            assert only_pastings_at_zero(raw)
            leaves = leaves_in_order(raw)
            if len(leaves) == 1:
                (values,) = leaves
                assert values[0] == values[1]
                continue
            verts = sorted(x.vertices())
            expected = [(verts[0], verts[0])] + [
                (verts[k], verts[k + 1]) for k in range(len(verts) - 1)
            ]
            assert leaves == expected
            # and simplification drops exactly the degenerate unit
            assert leaves_in_order(factorize(x)) == expected[1:]


def test_factorize_roundtrip_random(rng):
    for _ in range(250):
        m, n = rng.randint(0, 3), rng.randint(0, 3)
        x = random_oriental(rng, m, n, steps=rng.randint(2, 8))
        expr = factorize(x)
        assert eval_expr(expr) == x
        raw = factorize(x, simplify_output=False)
        assert eval_expr(raw) == x


def test_simplify_preserves_value(rng):
    for _ in range(100):
        x = random_oriental(rng, rng.randint(1, 3), rng.randint(1, 3), steps=6)
        raw = factorize(x, simplify_output=False)
        assert eval_expr(simplify(raw)) == eval_expr(raw) == x


def test_eliminate_pastings(rng):
    def has_pasting(expr):
        if isinstance(expr, Leaf):
            return False
        if isinstance(expr, ComposeMap):
            return has_pasting(expr.inner)
        return isinstance(expr, Pasting) or has_pasting(expr.left) or has_pasting(expr.right)

    for _ in range(60):
        x = random_oriental(rng, rng.randint(1, 3), rng.randint(1, 3), steps=6)
        expr = factorize(x)
        rewritten = eliminate_pastings(expr)
        assert not has_pasting(rewritten)
        assert eval_expr(rewritten) == x


def test_expression_text_roundtrip():
    samples = [
        "(0,1,2)",
        "P_0((0,1),(1,2))",
        "F_1(F_0((0,1),(1,2)),P_0((0,0),(0,2)))",
        "C(F_0((0,1),(1,2)),(0,1,2))",
    ]
    for text in samples:
        expr = parse_expr(text, 2)
        assert str(expr) == text
        assert expr_from_json(expr.to_json(), 2) == expr


def test_composite_maps_take_the_inner_domain_as_codomain(rng):
    # The map of C(L,(...)) has the domain of L as its codomain, not n.
    x = parse_zmorphism("(0,1) - (1,1) + (1,3)", 3)
    tree = eliminate_pastings(factorize(x))
    assert str(tree) == "C(F_0((0,1),(1,3)),(0,2))"
    assert tree.map == MonotoneMap((0, 2), 2)
    for read in (parse_expr(str(tree), 3), expr_from_json(tree.to_json(), 3)):
        assert read == tree and eval_expr(read) == x
    for _ in range(40):
        x = random_oriental(rng, rng.randint(1, 3), rng.randint(1, 4), steps=6)
        tree = eliminate_pastings(factorize(x, simplify_output=rng.random() < 0.5))
        n = x.codomain
        for read in (parse_expr(str(tree), n), expr_from_json(tree.to_json(), n)):
            assert read == tree and eval_expr(read) == x
    # A map value beyond the inner domain is not a map into it.
    with pytest.raises(ParseError):
        parse_expr("C(F_0((0,1),(1,3)),(0,3))", 3)
    with pytest.raises(ParseError):
        expr_from_json({"op": "compose", "inner": {"op": "map", "values": [0, 1]},
                        "values": [0, 2]}, 3)


def test_expression_parse_errors():
    with pytest.raises(ParseError):
        parse_expr("F_0((0,1)", 2)
    with pytest.raises(ParseError):
        parse_expr("Q_0((0,1),(1,2))", 2)
    with pytest.raises(ParseError):
        parse_expr("F_((0,1),(1,2))", 2)
    with pytest.raises(ParseError):
        parse_expr("P_0((0,1),(1,2)) trailing", 2)


def test_factorized_tree_roundtrips_as_text(rng):
    for _ in range(50):
        x = random_oriental(rng, rng.randint(0, 3), rng.randint(0, 3), steps=5)
        expr = factorize(x)
        assert parse_expr(str(expr), x.codomain) == expr


def _doubled_pastings(k, values=(1, 1)):
    """k nested pastings whose two operands are one shared node: a DAG of
    k + 1 nodes that unfolds to a tree of 2^(k+1) - 1."""
    expr = leaf(values, 1)
    for _ in range(k):
        expr = Pasting(0, expr, expr)
    return expr


def test_equality_of_shared_dags_walks_distinct_nodes():
    a, b = _doubled_pastings(22), _doubled_pastings(22)
    started = time.process_time()
    assert a == b
    assert time.process_time() - started < 0.5
    # Equal left operands, unequal right ones.
    c = Pasting(0, _doubled_pastings(21), _doubled_pastings(21, (0, 1)))
    d = Pasting(0, _doubled_pastings(21), _doubled_pastings(21))
    started = time.process_time()
    assert c != d
    assert time.process_time() - started < 0.5


def test_equality_does_not_depend_on_sharing():
    x, y = leaf((0, 1), 2), leaf((1, 2), 2)
    shared = Pasting(0, x, y)
    dag = Filler(1, shared, shared)
    tree = Filler(1, Pasting(0, leaf((0, 1), 2), leaf((1, 2), 2)),
                  Pasting(0, leaf((0, 1), 2), leaf((1, 2), 2)))
    assert dag == tree and hash(dag) == hash(tree)
    assert Filler(1, shared, Pasting(0, y, x)) != dag
    assert Filler(0, shared, shared) != dag
    assert Pasting(1, shared, shared) != dag
    assert ComposeMap(dag, MonotoneMap((0, 2), 2)) == ComposeMap(tree, MonotoneMap((0, 2), 2))
    assert ComposeMap(dag, MonotoneMap((0, 2), 2)) != ComposeMap(tree, MonotoneMap((0, 1), 2))
    assert dag != str(dag)
