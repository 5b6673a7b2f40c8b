"""Factorization trees stay string-identical to the recorded fixture, every
node of a tree is a member, and membership is checked once per call."""

import json
import os
import random
import time

import pytest

from osimplex import oriental
from osimplex.oriental import eval_expr, factorize, simplify
from osimplex.simplex import MonotoneMap, face_generator
from osimplex.zdelta import ZMorphism, check_membership

from conftest import random_oriental

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "factorize_strings.json")


def identity(m):
    return ZMorphism.generator(MonotoneMap(tuple(range(m + 1)), m))


def distinct_nodes(expr):
    seen = set()
    for node in oriental._postorder(expr, lambda node: id(node) in seen):
        seen.add(id(node))
        yield node


def test_factorize_strings_match_fixture():
    with open(FIXTURE, encoding="utf-8") as handle:
        entries = json.load(handle)["entries"]
    assert len(entries) >= 300
    for entry in entries:
        x = ZMorphism.from_json(entry["x"])
        raw = factorize(x, simplify_output=False)
        assert str(raw) == entry["raw"], str(x)
        assert str(factorize(x)) == entry["simplified"], str(x)
        # Every recursive input of factorize is the value of a node, and
        # factorize checks only x: the splits of a member are members.
        values = {node.evaluate() for node in distinct_nodes(raw)}
        for value in values:
            assert check_membership(value).ok, (str(x), str(value))


def test_leaf_maps_are_the_maps_the_checking_constructor_builds():
    # Appending the greatest vertex to the leaves builds their maps
    # unchecked; each must be a valid map into the codomain of the input.
    with open(FIXTURE, encoding="utf-8") as handle:
        inputs = [ZMorphism.from_json(entry["x"]) for entry in json.load(handle)["entries"]]
    leaves = 0
    for x in inputs + [identity(m) for m in range(7)]:
        for node in distinct_nodes(factorize(x, simplify_output=False)):
            if isinstance(node, oriental.Leaf):
                f = node.map
                assert type(f.values) is tuple and f.codomain == x.codomain, str(x)
                assert f == MonotoneMap(f.values, f.codomain), str(x)
                leaves += 1
    assert leaves >= 1000


def test_factorize_checks_membership_once_per_call(monkeypatch):
    calls = []
    original = oriental.check_membership

    def counted(x):
        calls.append(x)
        return original(x)

    monkeypatch.setattr(oriental, "check_membership", counted)
    factorize(identity(4))
    assert calls == [identity(4)]


def test_factorize_identity_m5_roundtrip():
    x = identity(5)
    assert eval_expr(factorize(x)) == x


def test_a_wrong_side_record_gives_a_tree_that_misses_its_input(monkeypatch):
    # The default path decides each pasting's side in the build, from the
    # dicts of its split, and factorize does not evaluate its output: the
    # evaluation oracle here, and factor --verify, catch a wrong side.  Flip
    # the side of the root's pasting, whose value is x: the output is then
    # the other operand.
    x = identity(3)
    original = oriental._side
    flipped = []

    def wrong(value, left, right):
        side = original(value, left, right)
        if value == x._terms and not flipped:
            flipped.append(side)
            return 0 if side == 1 else 1
        return side

    monkeypatch.setattr(oriental, "_side", wrong)
    assert eval_expr(factorize(x)) != x
    assert flipped
    # The raw tree has no unit rule to mislead.
    assert eval_expr(factorize(x, simplify_output=False)) == x


def test_simplify_leaves_rebuilt_nodes_without_values():
    # simplify decides the unit rule on the values of its input's nodes and
    # computes none: eval_expr of the output evaluates the rebuilt nodes.
    with open(FIXTURE, encoding="utf-8") as handle:
        entries = json.load(handle)["entries"]
    rebuilt = 0
    for x in (ZMorphism.from_json(entry["x"]) for entry in entries):
        raw = factorize(x, simplify_output=False)
        kept = {id(node) for node in distinct_nodes(raw)}
        tree = simplify(raw)
        new = [node for node in distinct_nodes(tree) if id(node) not in kept]
        assert all(node._value is None for node in new), str(x)
        assert eval_expr(tree) == x
        assert all(node._value is not None for node in new), str(x)
        rebuilt += len(new)
    assert rebuilt >= 100


@pytest.mark.parametrize("m", [3, 4, 5])
def test_default_path_is_simplify_of_the_raw_tree_on_random_members(m):
    rng = random.Random(1300 + m)
    for _ in range(12):
        x = random_oriental(rng, m, rng.randint(1, 5), max_domain=5)
        raw = factorize(x, simplify_output=False)
        assert str(factorize(x)) == str(simplify(raw)), str(x)


def test_default_path_is_simplify_of_the_raw_tree_on_identities():
    for m in range(9):
        raw = factorize(identity(m), simplify_output=False)
        assert str(factorize(identity(m))) == str(simplify(raw)), m


def test_default_path_builds_no_pasting_on_identities(monkeypatch):
    # Every pasting of an identity's raw tree equals an operand, so the
    # default path, which applies the unit rule as it builds, makes none and
    # returns the identity leaf; the raw path still builds the same tree.
    raws = {m: factorize(identity(m), simplify_output=False) for m in (4, 6)}
    built = []

    class Counted(oriental.Pasting):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args[0])
            super().__init__(*args)

    monkeypatch.setattr(oriental, "Pasting", Counted)
    for m in (4, 6):
        built.clear()
        assert factorize(identity(m)) == oriental.Leaf(MonotoneMap(tuple(range(m + 1)), m))
        assert built == [], m
        raw = factorize(identity(m), simplify_output=False)
        assert built, m
        assert type(raw) is Counted
        # Printed, the raw m=6 tree is 144 MB; equality walks distinct nodes.
        assert raw == raws[m], m
        if m == 4:
            assert str(raw) == str(raws[m])


def test_shared_subtrees_are_visited_once():
    # Pasting(0, e, e) of the constant (1,1) is (1,1) again, so doubling the
    # tree 60 times keeps every node valid; unfolded it has 2**61 - 1 nodes.
    leaf = oriental.Leaf(MonotoneMap((1, 1), 2))
    expr = leaf
    for _ in range(60):
        expr = oriental.Pasting(0, expr, expr)
    assert eval_expr(expr) == ZMorphism.generator(leaf.map)
    assert oriental.simplify(expr) == leaf
    appended = oriental._append_to_leaves(expr, 2, {}, {})
    assert appended.left is appended.right
    assert eval_expr(appended) == ZMorphism.generator(MonotoneMap((1, 1, 2), 2))


def test_shared_dag_hashes_once_per_node():
    leaf = oriental.Leaf(MonotoneMap((1, 1), 2))
    expr = leaf
    for _ in range(60):
        expr = oriental.Pasting(0, expr, expr)
    start = time.perf_counter()
    assert hash(expr) == hash(expr)
    assert expr in {expr}
    assert time.perf_counter() - start < 1.0


def test_eliminate_pastings_keeps_sharing():
    # Each Pasting(0, e, e) becomes C(F_0(e', e'), face 1); rewritten node by
    # node of the unfolded tree, 40 levels would take 2**40 steps.
    leaf = oriental.Leaf(MonotoneMap((1, 1), 2))
    expr = leaf
    for _ in range(40):
        expr = oriental.Pasting(0, expr, expr)
    started = time.process_time()
    rewritten = oriental.eliminate_pastings(expr)
    assert time.process_time() - started < 1.0
    assert rewritten.inner.left is rewritten.inner.right
    assert eval_expr(rewritten) == eval_expr(expr)


def reference_eliminate(expr):
    """eliminate_pastings on the unfolded tree, node by node."""
    if isinstance(expr, oriental.Leaf):
        return expr
    if isinstance(expr, oriental.ComposeMap):
        return oriental.ComposeMap(reference_eliminate(expr.inner), expr.map)
    left = reference_eliminate(expr.left)
    right = reference_eliminate(expr.right)
    if isinstance(expr, oriental.Pasting):
        inner = oriental.Filler(expr.index, left, right)
        m = inner.evaluate().domain
        return oriental.ComposeMap(inner, face_generator(expr.index + 1, m))
    return type(expr)(expr.index, left, right)


def test_eliminate_pastings_strings_match_reference():
    with open(FIXTURE, encoding="utf-8") as handle:
        entries = json.load(handle)["entries"]
    for entry in entries:
        x = ZMorphism.from_json(entry["x"])
        # Raw trees unfold exponentially with the domain, so the larger
        # members are checked on their simplified trees.
        tree = factorize(x, simplify_output=x.domain >= 3)
        expected = str(reference_eliminate(tree))
        assert str(oriental.eliminate_pastings(tree)) == expected, str(x)


def test_recursion_runs_on_value_dicts_without_split_checks(monkeypatch):
    # Below its one membership check, factorize splits value dicts with
    # _alpha_beta and takes faces with _face: the public splits, first_last
    # and ZMorphism.face, which check or build values, are never called.
    with open(FIXTURE, encoding="utf-8") as handle:
        entries = json.load(handle)["entries"][::5]
    identities = [identity(m) for m in range(6)]
    expected = [(str(factorize(x, simplify_output=False)), str(x)) for x in identities]
    expected += [(entry["raw"], entry["simplified"]) for entry in entries]

    def forbidden(*args):
        raise AssertionError("called by the factorize recursion")

    for name in ("split_start", "split_middle", "split_finish", "first_last"):
        monkeypatch.setattr(oriental, name, forbidden)
    monkeypatch.setattr(ZMorphism, "face", forbidden)
    calls = []
    original = oriental._factorize_new

    def counted(x, *rest):
        calls.append(x)
        return original(x, *rest)

    monkeypatch.setattr(oriental, "_factorize_new", counted)
    xs = identities + [ZMorphism.from_json(entry["x"]) for entry in entries]
    for x, (raw, simplified) in zip(xs, expected):
        assert str(factorize(x, simplify_output=False)) == raw, str(x)
        assert str(factorize(x)) == simplified, str(x)
    # Each distinct recursive input is solved once per call.  The default
    # path factorizes no operand that the unit rule drops: for an identity
    # only the identities below it, whose pastings all equal the rest.
    for m, distinct in ((4, 80), (5, 215), (6, 561)):
        calls.clear()
        factorize(identity(m), simplify_output=False)
        assert len(calls) == distinct, m
        calls.clear()
        factorize(identity(m))
        assert [frozenset(x.items()) for x in calls] == [
            frozenset(identity(k)._terms.items()) for k in range(m, -1, -1)
        ], m
