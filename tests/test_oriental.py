import itertools

import pytest

from osimplex.chains import (
    BasisElt,
    apply_map,
    from_chain_map,
    iterated_boundary_part,
    loopfree_less,
    map_from_pair,
    to_chain_map,
)
from osimplex.errors import (
    ArityError,
    InvalidExpressionError,
    NotComposableError,
    PreconditionError,
)
from osimplex.nu import act, atom
from osimplex.oriental import (
    ComposeMap,
    Filler,
    Leaf,
    Pasting,
    check_membership,
    eliminate_pastings,
    eval_expr,
    factorize,
    filler,
    first_last,
    is_oriental_morphism,
    pasting,
    simplify,
    split_finish,
    split_middle,
    split_start,
)
from osimplex.simplex import (
    MonotoneMap,
    degeneracy_generator,
    enumerate_injective_into,
    face_generator,
)
from osimplex.zdelta import ZMorphism, parse_zmorphism

from conftest import all_domain_one_members, random_oriental


def gen(values, n):
    return ZMorphism.generator(MonotoneMap(values, n))


def satisfies_nonnegativity(x):
    for f in enumerate_injective_into(x.domain):
        for g, c in x.compose(ZMorphism.generator(f)).terms.items():
            if c < 0 and g.is_injective():
                return False
    return True


def test_membership_examples():
    assert is_oriental_morphism(parse_zmorphism("(0,1) - (1,1) + (1,2)", 2))
    assert is_oriental_morphism(parse_zmorphism("(0,1,1) - (1,1,1) + (1,1,2)", 2))
    assert is_oriental_morphism(parse_zmorphism("(0,1,2)", 2))
    assert is_oriental_morphism(gen((1, 1), 2))


def test_membership_counterexample_witness():
    result = check_membership(parse_zmorphism("2*(0,1) - (1,1)", 2))
    assert not result
    assert result.witness_map == MonotoneMap((0,), 1)
    assert result.witness_term == MonotoneMap((1,), 2)
    assert result.witness_coefficient == -1


def test_membership_wrong_sum():
    result = check_membership(parse_zmorphism("(0,1) + (1,2)", 2))
    assert not result and "coefficient sum" in result.reason
    assert not check_membership(ZMorphism.zero(1, 2))


def test_membership_needs_deep_composites():
    # coefficient sum 1 and no injective negatives in x itself, but the
    # composite with the last vertex exposes one
    x = parse_zmorphism("(0,2) - (1,1) + (1,2)", 2)
    assert all(c > 0 for c in x.injective_part().terms.values())
    result = check_membership(x)
    assert not result
    assert result.witness_map == MonotoneMap((1,), 1)
    assert result.witness_term == MonotoneMap((1,), 2)


def test_paths_are_members():
    for n in range(5):
        for x in all_domain_one_members(n):
            assert is_oriental_morphism(x)


def test_filler_examples():
    x = gen((0, 1), 2)
    y = gen((1, 2), 2)
    assert filler(0, x, y) == parse_zmorphism("(0,1,1) - (1,1,1) + (1,1,2)", 2)
    for n in range(4):
        for a, b in itertools.combinations_with_replacement(range(n + 1), 2):
            aa, ab, bb = gen((a, a), n), gen((a, b), n), gen((b, b), n)
            assert filler(0, aa, ab) == gen((a, a, b), n)
            assert filler(0, ab, bb) == gen((a, b, b), n)
            assert pasting(0, aa, ab) == ab
            assert pasting(0, ab, bb) == ab


def test_pasting_examples():
    assert pasting(0, gen((0, 1), 2), gen((1, 2), 2)) == parse_zmorphism(
        "(0,1) - (1,1) + (1,2)", 2
    )


def test_filler_preconditions():
    with pytest.raises(NotComposableError):
        filler(0, gen((0, 1), 2), gen((0, 1), 2))  # faces do not match
    with pytest.raises(NotComposableError):
        filler(1, gen((0, 1), 2), gen((1, 2), 2))  # index out of range


def test_faces_of_filler(rng):
    for _ in range(150):
        n = rng.randint(1, 3)
        z = random_oriental(rng, rng.randint(2, 3), n, steps=5)
        m = z.domain
        i = rng.randint(0, m - 2)
        x, y = z.face(i + 2), z.face(i)
        w = filler(i, x, y)
        assert w.face(i) == y
        assert w.face(i + 1) == pasting(i, x, y)
        assert w.face(i + 2) == x


def test_closure(rng):
    for _ in range(150):
        n = rng.randint(1, 3)
        z = random_oriental(rng, rng.randint(2, 3), n, steps=5)
        m = z.domain
        i = rng.randint(0, m - 2)
        x, y = z.face(i + 2), z.face(i)
        assert is_oriental_morphism(filler(i, x, y))
        assert is_oriental_morphism(pasting(i, x, y))


def test_pasting_associative(rng):
    # single edges compose associatively under pasting at 0
    for _ in range(100):
        n = rng.randint(3, 5)
        a, b, c, d = sorted(rng.sample(range(n + 1), 4))
        x, y, z = gen((a, b), n), gen((b, c), n), gen((c, d), n)
        assert pasting(0, pasting(0, x, y), z) == pasting(0, x, pasting(0, y, z))
    # and so do whole edge chains with matching endpoints
    members = all_domain_one_members(4)
    for _ in range(200):
        x, y, z = (rng.choice(members) for _ in range(3))
        if first_last(x)[1] != first_last(y)[0]:
            continue
        if first_last(y)[1] != first_last(z)[0]:
            continue
        assert pasting(0, pasting(0, x, y), z) == pasting(0, x, pasting(0, y, z))


def test_first_last_examples():
    assert first_last(parse_zmorphism("(0,1) - (1,1) + (1,2)", 2)) == (0, 2)
    assert first_last(gen((2, 2, 2), 3)) == (2, 2)
    assert first_last(gen((0, 1, 2, 3), 3)) == (0, 3)
    with pytest.raises(PreconditionError):
        first_last(ZMorphism.zero(1, 2))
    with pytest.raises(PreconditionError):
        first_last(parse_zmorphism("(0,1) + (1,2) - (1,1) + (0,2) - (0,0)", 2))


def test_first_last_on_random_members(rng):
    for _ in range(200):
        x = random_oriental(rng, rng.randint(0, 3), rng.randint(0, 3), steps=5)
        s, t = first_last(x)
        support = x.vertices()
        assert s == min(support) and t == max(support)
        m = x.domain
        assert x.compose(gen((0,), m)) == gen((s,), x.codomain)
        assert x.compose(gen((m,), m)) == gen((t,), x.codomain)


def test_tails_nonnegativity_property(rng):
    # partial tail sums of a member keep injective composites nonnegative
    for _ in range(100):
        x = random_oriental(rng, rng.randint(1, 3), rng.randint(1, 3), steps=5)
        # The terms of x by final vertex, with that vertex dropped.
        tails = {}
        for f, c in x.terms.items():
            tails.setdefault(f.values[-1], []).append((f.values[:-1], c))
        for r in range(x.codomain + 1):
            partial = [pair for i, pairs in tails.items() if i >= r for pair in pairs]
            assert satisfies_nonnegativity(ZMorphism(x.domain - 1, x.codomain, partial))


def test_zero_sums_exhaustive_small():
    # combinations with zero coefficient sum satisfying the nonnegativity
    # condition are zero; exhaustive over small coefficient boxes
    cases = [(1, 1, 2), (2, 1, 1), (1, 2, 1)]
    for m, n, box in cases:
        maps = [
            MonotoneMap(values, n)
            for values in itertools.combinations_with_replacement(range(n + 1), m + 1)
        ]
        for coeffs in itertools.product(range(-box, box + 1), repeat=len(maps)):
            if sum(coeffs) != 0:
                continue
            x = ZMorphism(m, n, list(zip(maps, coeffs)))
            if satisfies_nonnegativity(x):
                assert x.is_zero()


def test_zero_sums_random(rng):
    from conftest import random_zmorphism

    found = 0
    for _ in range(3000):
        x = random_zmorphism(rng, rng.randint(0, 3), rng.randint(0, 3), lo=-2, hi=2)
        if x.coefficient_sum() == 0 and satisfies_nonnegativity(x):
            assert x.is_zero()
            found += 1
    assert found  # the zero morphism itself shows up


def test_split_start_example():
    # all terms already satisfy the next-entry bound: the left factor is x
    # itself and the right factor is the degenerate unit
    y = parse_zmorphism("(0,1,1) - (1,1,1) + (1,1,2)", 2)
    u, v = split_start(0, 2, y)
    assert u == y
    assert v == y.face(0).degeneracy(0) == parse_zmorphism("(1,1,2)", 2)
    assert pasting(0, u, v) == y
    assert filler(0, v.face(2), v.face(0)) == v
    assert is_oriental_morphism(u) and is_oriental_morphism(v)


def test_split_start_unit_branch():
    x = gen((0, 1, 2), 3)
    u, v = split_start(0, 2, x)
    assert u == x and v == x.face(0).degeneracy(0)


def test_split_start_random(rng):
    done = 0
    while done < 120:
        n = rng.randint(1, 3)
        x = random_oriental(rng, rng.randint(2, 3), n, steps=6)
        m = x.domain
        s, t = first_last(x)
        if x.coefficient(MonotoneMap((t,) * (m + 1), n)):
            continue
        for r in range(m - 1):
            if not all(f.values[r] < t for f in x.terms):
                break
            u, v = split_start(r, t, x)
            assert pasting(r, u, v) == x
            assert filler(r, v.face(r + 2), v.face(r)) == v
            assert is_oriental_morphism(u) and is_oriental_morphism(v)
            assert all(f.values[r + 1] < t for f in u.terms)
            x = u
            done += 1


def test_split_middle_examples():
    x = parse_zmorphism("(0,1) - (1,1) + (1,2)", 2)
    u, v = split_middle(2, x)
    assert u == gen((0, 1), 2)
    assert v == gen((1, 2), 2)
    assert pasting(0, u, v) == x
    assert first_last(u) == (0, 1)

    u, v = split_middle(2, gen((0, 2), 2))
    assert u == gen((0, 0), 2)
    assert v == gen((0, 2), 2)
    assert pasting(0, u, v) == gen((0, 2), 2)


def test_split_middle_random(rng):
    done = 0
    while done < 120:
        n = rng.randint(1, 3)
        x = random_oriental(rng, rng.randint(1, 3), n, steps=6)
        m = x.domain
        s, t = first_last(x)
        if x.coefficient(MonotoneMap((t,) * (m + 1), n)):
            continue
        if not all(f.values[m - 1] < t for f in x.terms):
            continue
        u, v = split_middle(t, x)
        assert pasting(m - 1, u, v) == x
        assert is_oriental_morphism(u) and is_oriental_morphism(v)
        _, tu = first_last(u)
        assert tu < t
        assert v.compose(gen((m,), m)) == gen((t,), n)
        assert all(f.values[m - 1] == f.values[m] or f.values[m] == t for f in v.terms)
        done += 1


def test_split_finish_trivial_branch():
    # every term already ends at the greatest vertex: the left factor is the
    # degenerate unit and the right factor is x itself
    x = parse_zmorphism("(1,1,2)", 2)
    u, v = split_finish(0, 2, x)
    assert v == x
    assert pasting(0, u, v) == x
    assert filler(0, u.face(2), u.face(0)) == u


def test_split_finish_random(rng):
    done = 0
    while done < 120:
        n = rng.randint(1, 3)
        x = random_oriental(rng, rng.randint(2, 3), n, steps=6)
        m = x.domain
        s, t = first_last(x)
        if x.coefficient(MonotoneMap((t,) * (m + 1), n)):
            continue
        # reach the split-finish precondition through the earlier splits
        try:
            for r in range(m - 1):
                x, _ = split_start(r, t, x)
            _, x = split_middle(t, x)
        except PreconditionError:
            continue
        for r in range(m - 2, -1, -1):
            u, v = split_finish(r, t, x)
            assert pasting(r, u, v) == x
            assert filler(r, u.face(r + 2), u.face(r)) == u
            assert is_oriental_morphism(u) and is_oriental_morphism(v)
            assert all(f.values[r] == f.values[m] or f.values[m] == t for f in v.terms)
            x = v
            done += 1
        assert all(f.values[-1] == t for f in x.terms)


def test_split_preconditions_raise():
    x = parse_zmorphism("(0,1) - (1,1) + (1,2)", 2)
    with pytest.raises(PreconditionError):
        split_start(0, 2, x)  # domain 1 leaves no start positions
    with pytest.raises(PreconditionError):
        split_middle(1, x)  # wrong final vertex
    with pytest.raises(PreconditionError):
        split_middle(2, gen((2, 2), 2))  # constant at the greatest vertex


CONSTANT = ZMorphism.generator(MonotoneMap((1, 1, 1), 2))
IDENTITY = ZMorphism.generator(MonotoneMap((0, 1, 2, 3), 3))

# Each entry accepts the indices 0 and 1, and raises the given error for an
# index out of range.
INDEX_CALLS = {
    "face_generator": (lambda i: face_generator(i, 2), IndexError),
    "degeneracy_generator": (lambda i: degeneracy_generator(i, 2), IndexError),
    "ZMorphism.face": (lambda i: CONSTANT.face(i), IndexError),
    "ZMorphism.degeneracy": (lambda i: CONSTANT.degeneracy(i), IndexError),
    "filler": (lambda i: filler(i, CONSTANT, CONSTANT), NotComposableError),
    "pasting": (lambda i: pasting(i, CONSTANT, CONSTANT), NotComposableError),
    "split_start": (lambda i: split_start(i, 3, IDENTITY), PreconditionError),
    "split_finish": (lambda i: split_finish(i, 3, IDENTITY), PreconditionError),
    "iterated_boundary_part": (
        lambda i: iterated_boundary_part(BasisElt((0, 1, 2), 2), i, "-"), PreconditionError
    ),
}


@pytest.mark.parametrize("index", [True, False, 1.0, 0.0])
@pytest.mark.parametrize("name", sorted(INDEX_CALLS))
def test_index_arguments_are_int_not_bool_or_float(name, index):
    call, error = INDEX_CALLS[name]
    call(int(index))
    with pytest.raises(error):
        call(-1)
    with pytest.raises(error):
        call(index)


# Each entry passes an input of the wrong type to one entry point.
WRONG_TYPE_CALLS = {
    "check_membership": lambda: check_membership("x"),
    "is_oriental_morphism": lambda: is_oriental_morphism(3),
    "first_last": lambda: first_last("x"),
    "factorize": lambda: factorize("x"),
    "eval_expr": lambda: eval_expr(None),
    "simplify": lambda: simplify("P_0((0,1),(1,1))"),
    "eliminate_pastings": lambda: eliminate_pastings(3),
    "to_chain_map": lambda: to_chain_map("x"),
    "from_chain_map": lambda: from_chain_map("x"),
    "from_chain_map of a combination": lambda: from_chain_map(gen((0, 1), 1)),
    "act by a non-combination": lambda: act("x", atom(BasisElt((0, 1), 1))),
    "act on a non-cell": lambda: act(gen((0, 1), 1), "c"),
    "apply of a dict": lambda: to_chain_map(gen((0, 1), 1)).apply({}),
    "apply of a combination": lambda: to_chain_map(gen((0, 1), 1)).apply(gen((0, 1), 1)),
    "compose with a combination": lambda: to_chain_map(gen((0, 1), 1)).compose(gen((0, 1), 1)),
    "apply_map of a tuple": lambda: apply_map((0, 1), BasisElt((0,), 1)),
    "apply_map to a tuple": lambda: apply_map(MonotoneMap((0, 1), 1), (0,)),
    "map_from_pair of tuples": lambda: map_from_pair((0,), (1,), 1),
    "loopfree_less of tuples": lambda: loopfree_less((0, 1), (1,)),
    "iterated_boundary_part of a tuple": lambda: iterated_boundary_part((0, 1), 1, "-"),
    "atom of a tuple": lambda: atom((0, 1)),
}


@pytest.mark.parametrize("name", sorted(WRONG_TYPE_CALLS))
def test_inputs_of_the_wrong_type_raise_arity_error(name):
    with pytest.raises(ArityError, match="expected"):
        WRONG_TYPE_CALLS[name]()


LEAF = Leaf(MonotoneMap((0, 1), 1))

# Each entry builds an expression node, or the value of a leaf, on a part of
# the wrong type, which is rejected at once and not when the tree is used.
WRONG_TYPE_PARTS = {
    "Leaf of a tuple": (lambda: Leaf((0, 1)), "a monotone map, not tuple"),
    "Leaf of a list": (lambda: Leaf([0, 1]), "a monotone map, not list"),
    "Filler of a string": (lambda: Filler(0, "a", LEAF), "an expression tree, not str"),
    "Pasting of a map": (
        lambda: Pasting(0, LEAF, MonotoneMap((1, 1), 1)), "an expression tree, not MonotoneMap"
    ),
    "ComposeMap with a tuple": (lambda: ComposeMap(LEAF, (0,)), "a monotone map, not tuple"),
    "ComposeMap of a combination": (
        lambda: ComposeMap(gen((0, 1), 1), MonotoneMap((0,), 1)),
        "an expression tree, not ZMorphism",
    ),
    "ZMorphism.generator of a tuple": (
        lambda: ZMorphism.generator((0, 1)), "a monotone map, not tuple"
    ),
    # str() of such a node would print an index that reads back as another
    # tree, or not at all.
    "Pasting with a string index": (
        lambda: Pasting("0", LEAF, LEAF), "an integer node index, not str"
    ),
    "Filler with a bool index": (lambda: Filler(True, LEAF, LEAF), "an integer node index, not bool"),
    "Pasting with a float index": (
        lambda: Pasting(0.0, LEAF, LEAF), "an integer node index, not float"
    ),
}


@pytest.mark.parametrize("name", sorted(WRONG_TYPE_PARTS))
def test_expression_parts_of_the_wrong_type_raise_arity_error(name):
    call, message = WRONG_TYPE_PARTS[name]
    with pytest.raises(ArityError) as info:
        call()
    assert str(info.value) == "expected " + message


def test_a_negative_node_index_is_reported_by_evaluate_with_its_path():
    left, right = Leaf(MonotoneMap((0, 1), 2)), Leaf(MonotoneMap((1, 2), 2))
    for cls in (Filler, Pasting):
        tree = Pasting(0, cls(-1, left, right), right)
        assert str(tree) == f"P_0({cls.symbol}_-1((0,1),(1,2)),(1,2))"
        with pytest.raises(InvalidExpressionError, match="index -1 out of range") as info:
            eval_expr(tree)
        assert info.value.path == ("left",)
