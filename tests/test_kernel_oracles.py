"""The kernel's fast paths against their definitions.

The references below are the definition-level code: membership tries every
injective map into the domain and composes with it, chain maps are summed
with `Chain` addition one term at a time, faces and degeneracies are
composites with the generators, and the boundary is the alternating sum of
faces.  The library must give equal results, including the membership
witness, which depends on the order in which terms are summed.
"""

import random
from itertools import combinations
from operator import itemgetter

import pytest

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
from osimplex.errors import ArityError, NotComposableError, PreconditionError
from osimplex.oriental import (
    MembershipResult,
    _alpha_beta,
    _check_split_terms,
    _side,
    check_membership,
    filler,
    first_last,
    pasting,
    split_finish,
    split_middle,
    split_start,
)
from osimplex.simplex import (
    MonotoneMap,
    compose,
    degeneracy_generator,
    enumerate_injective_into,
    face_generator,
)
from osimplex.zdelta import ZMorphism, _images, _sum_pairs, parse_zmorphism

from conftest import random_map, random_oriental, random_zmorphism
from test_chainmaps import INVALID_TABLES, _edited_table


def reference_compose(y, x):
    out = ZMorphism.zero(x.domain, y.codomain)
    for g, cg in y.terms.items():
        for f, cf in x.terms.items():
            out = out + ZMorphism.generator(compose(g, f), cg * cf)
    return out


def reference_membership(x):
    total = x.coefficient_sum()
    if total != 1:
        return MembershipResult(ok=False, reason=f"coefficient sum is {total}, not 1")
    for f in enumerate_injective_into(x.domain):
        composite = reference_compose(x, ZMorphism.generator(f))
        for g, c in composite.terms.items():
            if c < 0 and g.is_injective():
                return MembershipResult(
                    ok=False,
                    reason=(
                        f"injective term {g} has coefficient {c} in the "
                        f"composite with {f}"
                    ),
                    witness_map=f,
                    witness_term=g,
                    witness_coefficient=c,
                )
    return MembershipResult(ok=True)


def reference_apply_map(f, b):
    image = tuple(f.values[v] for v in b.vertices)
    if all(u < v for u, v in zip(image, image[1:])):
        return Chain.of(BasisElt(image, f.codomain))
    return Chain.zero(b.dimension, f.codomain)


def reference_image(terms, b, n):
    total = Chain.zero(b.dimension, n)
    for f, c in terms.items():
        total = total + c * reference_apply_map(f, b)
    return total


def reference_to_chain_map(x):
    images = {b: reference_image(x.terms, b, x.codomain) for b in basis_elements(x.domain)}
    return ChainMapTable(x.domain, x.codomain, images)


def reference_from_chain_map(table):
    m, n = table.m, table.n
    acc = ZMorphism.zero(m, n)
    for q in range(m, -1, -1):
        for a in basis_elements(m, q):
            if a.vertices[0] != 0:
                continue
            need = table.images[a] - reference_image(acc.terms, a, n)
            for b, c in need.terms.items():
                acc = acc + ZMorphism.generator(map_from_pair(a, b, m), c)
    return acc


def reference_apply(table, chain):
    out = Chain.zero(chain.dimension, table.n)
    for b, c in chain.terms.items():
        out = out + c * table.images[b]
    return out


def reference_boundary(chain):
    out = Chain.zero(chain.dimension - 1, chain.ambient)
    for b, c in chain.terms.items():
        verts = b.vertices
        for i in range(len(verts)):
            face = BasisElt(verts[:i] + verts[i + 1:], chain.ambient)
            out = out + (-1) ** i * c * Chain.of(face)
    return out


def members(seed, count):
    """Seeded members at m <= 6, built through faces, degeneracies,
    fillers, pastings and composites, so many carry degenerate terms."""
    rng = random.Random(seed)
    return [random_oriental(rng, rng.randint(0, 6), rng.randint(1, 5)) for _ in range(count)]


def near_members(seed, count):
    """x + f - g for members x and plain maps f, g of the same shape."""
    rng = random.Random(seed)
    out = []
    for x in members(seed + 1, count):
        f = random_map(rng, x.domain, x.codomain)
        g = random_map(rng, x.domain, x.codomain)
        out.append(x + ZMorphism.generator(f) - ZMorphism.generator(g))
    return out


MEMBERS = members(101, 40)
NEAR = near_members(202, 60)


def test_samples_cover_degenerate_terms_and_failures():
    degenerate = [x for x in MEMBERS if any(not f.is_injective() for f in x.terms)]
    assert len(degenerate) >= 10
    assert max(x.domain for x in MEMBERS) == 6
    verdicts = [check_membership(x).ok for x in NEAR]
    assert verdicts.count(False) >= 20 and verdicts.count(True) >= 1


def test_membership_matches_reference():
    # Membership scans only the tuples on which a negative term is injective.
    for x in SCAN_SAMPLES + DEGENERATE_NEGATIVE:
        assert check_membership(x) == reference_membership(x), str(x)


def test_membership_reasons_and_witnesses_match_reference():
    rng = random.Random(303)
    for k in range(150):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        x = random_zmorphism(rng, m, n, max_terms=5)
        if k % 5:
            # Most get coefficient sum 1, so the nonnegativity is tested.
            constant = ZMorphism.generator(random_map(rng, m, n))
            x = x + (1 - x.coefficient_sum()) * constant
        assert check_membership(x) == reference_membership(x), str(x)


def test_chain_maps_match_reference_and_round_trip():
    for x in MEMBERS + NEAR[:20]:
        table = to_chain_map(x)
        assert table == reference_to_chain_map(x), str(x)
        assert list(table.images) == basis_elements(x.domain)
        assert reference_from_chain_map(table) == x
        assert from_chain_map(table) == x


def test_arbitrary_combinations_match_reference():
    rng = random.Random(404)
    for _ in range(80):
        x = random_zmorphism(rng, rng.randint(0, 4), rng.randint(0, 4), max_terms=6)
        table = to_chain_map(x)
        assert table == reference_to_chain_map(x)
        assert from_chain_map(table) == x
        for b in basis_elements(x.domain):
            for f in x.terms:
                assert apply_map(f, b) == reference_apply_map(f, b)
            if b.dimension:
                chain = Chain.of(b, rng.randint(-3, 3) or 1)
                assert table.apply(chain.boundary()) == reference_apply(table, chain.boundary())


def test_face_and_degeneracy_match_composites():
    """Equal with the terms in the same order (outcome compares item lists)."""
    rng = random.Random(505)
    collided = 0
    for _ in range(2000):
        m = rng.randint(0, 5)
        x = random_zmorphism(rng, m, rng.randint(0, 4), max_terms=6)
        for i in range(m + 1):
            if m:
                face = ZMorphism.generator(face_generator(i, m))
                assert outcome(x.face, i) == outcome(reference_compose, x, face)
                collided += len(x.face(i).terms) < len(x.terms)
            degeneracy = ZMorphism.generator(degeneracy_generator(i, m))
            assert outcome(x.degeneracy, i) == outcome(reference_compose, x, degeneracy)
        y = random_zmorphism(rng, rng.randint(0, 3), m, max_terms=4)
        assert outcome(x.compose, y) == outcome(reference_compose, x, y)
    # The sample has faces whose terms collide, where the order can differ.
    assert collided >= 500


def test_face_and_degeneracy_reject_bad_indices():
    x = ZMorphism.generator(random_map(random.Random(6), 2, 3))
    for i in (-1, 3):
        with pytest.raises(IndexError):
            x.face(i)
        with pytest.raises(IndexError):
            x.degeneracy(i)
    with pytest.raises(IndexError):
        x.face(0).face(0).face(0)


def test_boundary_matches_alternating_sum():
    rng = random.Random(606)
    for _ in range(200):
        n = rng.randint(1, 6)
        q = rng.randint(1, n)
        basis = basis_elements(n, q)
        chain = Chain(q, n, [(rng.choice(basis), rng.randint(-3, 3)) for _ in range(4)])
        assert chain.boundary() == reference_boundary(chain)
        neg, pos = chain.boundary_parts()
        assert pos - neg == reference_boundary(chain)
        assert neg.is_nonnegative() and pos.is_nonnegative()


def test_apply_rejects_images_of_the_wrong_shape():
    table = to_chain_map(ZMorphism.generator(random_map(random.Random(7), 1, 2)))
    edge = BasisElt((0, 1), 1)
    table.images[edge] = Chain.zero(0, 2)
    with pytest.raises(ArityError):
        table.apply(Chain.of(edge))


# The chain-map image scan that reads every term at every basis element, and
# the inverse that solves with Chain arithmetic and checks the keys against a
# built basis.  The level-by-level scan and the tuple solve must give the same
# dicts and terms in the same order, and the same errors.


def per_element_image_terms(terms, verts):
    k = len(verts)
    pick = itemgetter(*verts) if k > 1 else lambda values: (values[verts[0]],)
    # The image is non-decreasing, so it is a basis element when distinct.
    return _sum_pairs(
        (image, c) for values, c in terms if len(set(image := pick(values))) == k
    )


def per_element_images(x):
    terms = [(f.values, c) for f, c in x.terms.items()]
    for k in range(1, x.domain + 2):
        for verts in combinations(range(x.domain + 1), k):
            yield verts, per_element_image_terms(terms, verts)


def pair_map(a, b, m):
    av, bv = a.vertices, b.vertices
    values = []
    i = 0
    for j in range(m + 1):
        if i + 1 < len(av) and j >= av[i + 1]:
            i += 1
        values.append(bv[i])
    return MonotoneMap(tuple(values), b.ambient)


def basis_set_check_shapes(table):
    expected = set(basis_elements(table.m))
    if set(table.images) != expected:
        raise PreconditionError(
            f"table must cover exactly the basis of the complex on {table.m}"
        )
    for b, chain in table.images.items():
        if not isinstance(chain, Chain) or chain._shape != (b.dimension, table.n):
            raise PreconditionError(f"image of {b} has the wrong shape")


def chain_solve_from_chain_map(table):
    basis_set_check_shapes(table)
    m, n = table.m, table.n
    acc = {}
    for q in range(m, -1, -1):
        for rest in combinations(range(1, m + 1), q):
            a = BasisElt._make((0,) + rest, m)
            terms = [(f.values, c) for f, c in acc.items()]
            need = table.images[a] - Chain._summed(
                q, n, per_element_image_terms(terms, a.vertices).items()
            )
            acc.update((pair_map(a, b, m), c) for b, c in need.terms.items())
    acc = ZMorphism(m, n, acc)
    for verts, image in per_element_images(acc):
        want = table.images[BasisElt._make(verts, m)].terms
        if image != {e.vertices: c for e, c in want.items()}:
            table.validate()
            raise AssertionError("chain-map inversion failed to reproduce the table")
    return acc


def scan_samples():
    """Members, near-members and arbitrary sums at m <= 7, with the zero
    combination and domain 0 among them."""
    rng = random.Random(1212)
    out = MEMBERS + NEAR
    out += [random_oriental(rng, 7, rng.randint(1, 8), max_domain=5) for _ in range(6)]
    out += [random_zmorphism(rng, rng.randint(0, 7), rng.randint(0, 6), max_terms=8, lo=-2, hi=2)
            for _ in range(60)]
    out += [ZMorphism.zero(m, rng.randint(0, 3)) for m in range(8)]
    return out


SCAN_SAMPLES = scan_samples()


def ordered(images):
    return [(verts, list(image.items())) for verts, image in images]


def some_term_is_injective_on(x, verts):
    return any(len({f.values[v] for v in verts}) == len(verts) for f in x.terms)


def test_level_scan_matches_the_per_element_scan_in_order():
    # The level scan yields only the basis elements on which some term is
    # injective; every other image is zero.  Rows that cancel stay, as {}.
    assert {x.domain for x in SCAN_SAMPLES} == set(range(8))
    assert sum(x.coefficient_sum() != 1 for x in SCAN_SAMPLES) >= 40
    assert any(x.is_zero() and x.domain == 0 for x in SCAN_SAMPLES)
    skipped = cancelled = 0
    for x in SCAN_SAMPLES:
        expected = []
        for verts, image in per_element_images(x):
            if some_term_is_injective_on(x, verts):
                expected.append((verts, image))
                cancelled += not image
            else:
                assert image == {}
                skipped += 1
        assert ordered(_images(x)) == ordered(expected), str(x)
    assert skipped and cancelled


def test_level_scan_visits_only_the_tuples_with_an_injective_term():
    x = ZMorphism.generator(MonotoneMap((0,) * 5 + (1,) * 5, 1))
    assert x.domain == 9
    # The 10 vertices and the 5 * 5 edges from a 0 to a 1, of 1,023 basis elements.
    assert len(list(_images(x))) == 35
    assert check_membership(x).ok


def degenerate_negative_members(seed, count):
    """Members with a negative coefficient, each on a degenerate term: the
    pasting (0,...,m) - (1,1,2,...,m) + (1,2,2,3,...,m) for m = 2..7, and
    seeded members with negative terms."""
    out = [parse_zmorphism(pasting_text(m), m + 1) for m in range(2, 8)]
    rng = random.Random(seed)
    while len(out) < count:
        x = random_oriental(rng, rng.randint(2, 7), rng.randint(1, 6), max_domain=5)
        if min(x._terms.values()) < 0:
            out.append(x)
    return out


def pasting_text(m):
    top = ",".join(map(str, range(2, m + 1)))
    return f"({','.join(map(str, range(m + 1)))}) - (1,1,{top}) + (1,2,2{top[1:]})"


DEGENERATE_NEGATIVE = degenerate_negative_members(1515, 30)


def test_pruned_scans_yield_the_rows_they_keep_in_order():
    # first keeps the tuples that start at one of its vertices; negative
    # keeps those on which some term with a negative coefficient is
    # injective.  Both keep each kept row as the full scan yields it.
    for x in SCAN_SAMPLES + DEGENERATE_NEGATIVE:
        full = ordered(_images(x))
        m = x.domain
        negatives = ZMorphism._make(m, x.codomain, {a: c for a, c in x._terms.items() if c < 0})
        assert ordered(_images(x, first=(0,))) == [r for r in full if r[0][0] == 0]
        assert ordered(_images(x, first=range(1, m + 1))) == [r for r in full if r[0][0]]
        assert ordered(_images(x, negative=True)) == [
            r for r in full if some_term_is_injective_on(negatives, r[0])
        ], str(x)


def test_pruned_membership_visits_only_tuples_with_a_negative_term():
    for x in DEGENERATE_NEGATIVE:
        assert all(not f.is_injective() for f, c in x.terms.items() if c < 0)
        assert check_membership(x).ok
    # A member with no negative coefficient is one term with coefficient 1.
    x = ZMorphism.generator(MonotoneMap(tuple(range(19)), 18))
    assert list(_images(x, negative=True)) == []
    assert check_membership(x).ok
    # The negative term (1,1,2,...,14) is injective on the tuples that do not
    # hold both 0 and 1: 2^15 - 2^13 - 1 of them.
    x = parse_zmorphism(pasting_text(14), 15)
    assert sum(1 for _ in _images(x, negative=True)) == 24575
    assert sum(1 for _ in _images(x)) == 32767
    assert check_membership(x).ok


def many_terms(seed, m, n, count):
    """A combination of count distinct seeded maps with coefficients in
    -3..3 other than 0."""
    rng = random.Random(seed)
    terms = {}
    while len(terms) < count:
        terms.setdefault(random_map(rng, m, n), rng.choice((-3, -2, -1, 1, 2, 3)))
    return ZMorphism(m, n, terms)


@pytest.mark.parametrize("m, n, count", [(6, 6, 200), (8, 4, 400), (10, 10, 30)])
def test_tuple_solve_keeps_the_term_order_on_many_terms(m, n, count):
    x = many_terms(m * 100 + n, m, n, count)
    table = to_chain_map(x)
    got = outcome(from_chain_map, table)
    assert got == outcome(chain_solve_from_chain_map, table)
    assert got[0][2] != list(x.terms.items())  # the solve's order is its own
    assert from_chain_map(table) == x


def test_tuple_solve_matches_chain_solve_in_term_order():
    for x in SCAN_SAMPLES:
        table = to_chain_map(x)
        got = outcome(from_chain_map, table)
        assert got == outcome(chain_solve_from_chain_map, table), str(x)
        assert from_chain_map(table) == x


def test_tuple_solve_keeps_the_term_order_where_a_running_sum_passes_zero():
    # In the first, the row at [0] less the images pushed there reaches zero
    # before the last push; in the second, the two terms found at [0,1] both
    # send [0] to (0,), and the first cancels what [0,1,2] pushed there.  A
    # solve that holds row and pushed image in one dict, or that pushes all
    # the terms found at one tuple in one scan, reorders these answers.
    for text, n in (
        ("(0,0,0) - (0,0,1) + 2*(0,1,1) - (1,1,1)", 1),
        ("-(0,2,2) + (0,1,2) + (1,2,3) + 2*(0,1,1) - 2*(0,0,0) - (1,1,1)", 3),
    ):
        table = to_chain_map(parse_zmorphism(text, n))
        assert outcome(from_chain_map, table) == outcome(chain_solve_from_chain_map, table)


def tampered_tables(seed, count):
    """Tables of seeded samples edited at a seeded basis element: the image
    replaced by another chain of its shape, by a scaled copy, by a chain of
    the wrong dimension or codomain, or by a non-chain; the key dropped, or
    swapped for the same vertices in another ambient or for a plain tuple,
    which keeps the key count; or an extra key."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        x = rng.choice(SCAN_SAMPLES)
        m, n = x.domain, x.codomain
        table = to_chain_map(x)
        b = rng.choice(basis_elements(m))
        q = b.dimension
        kind = rng.randrange(9)
        if kind == 0 and q <= n:
            other = rng.choice(basis_elements(n, q))
            table.images[b] = table.images[b] + Chain.of(other, rng.choice((-2, -1, 1, 2)))
        elif kind == 1:
            table.images[b] = 2 * table.images[b]
        elif kind == 2:
            table.images[b] = Chain.zero(q + 1, n)
        elif kind == 3:
            table.images[b] = Chain.zero(q, n + 1)
        elif kind == 4:
            table.images[b] = table.images[b].terms
        elif kind == 5:
            del table.images[b]
        elif kind == 6:
            table.images[BasisElt(b.vertices, m + 1)] = table.images.pop(b)
        elif kind == 7:
            table.images[b.vertices] = table.images.pop(b)
        else:
            table.images[BasisElt(tuple(range(m + 2)), m + 1)] = Chain.zero(m + 1, n)
        out.append(table)
    return out


REJECTIONS = (
    "table must cover exactly the basis",
    "image of",
    "vertex images have inconsistent augmentation",
    "table does not commute with the boundary",
)


def reference_validate(table):
    """validate as Chain arithmetic: the shape check against a built basis,
    the augmentation of each vertex image, then, in basis order, the image
    of each boundary against the boundary of each image."""
    basis_set_check_shapes(table)
    m = table.m
    degrees = {table.images[b].augmentation() for b in basis_elements(m, 0)}
    if len(degrees) > 1:
        raise PreconditionError(
            "vertex images have inconsistent augmentation; not a chain map"
        )
    for b in basis_elements(m)[m + 1:]:
        if reference_apply(table, Chain.of(b).boundary()) != table.images[b].boundary():
            raise PreconditionError(f"table does not commute with the boundary at {b}")


def test_validate_matches_the_chain_arithmetic_validate():
    tables = [to_chain_map(x) for x in SCAN_SAMPLES]
    tables += [_edited_table(edit) for edit, _ in INVALID_TABLES.values()]
    tables += tampered_tables(2424, 150)
    tables += [ChainMapTable(m, 0, {}) for m in (-1, True, 1.0)]
    seen = set()
    for table in tables:
        expected = outcome(reference_validate, table)
        assert outcome(table.validate) == expected
        seen.add(expected[0] if isinstance(expected, tuple) else None)
        if expected[0] is PreconditionError:
            seen.add(next(p for p in REJECTIONS if expected[1].startswith(p)))
    assert seen == {None, PreconditionError, ValueError, *REJECTIONS}
    # A wrong-shape image at the first key and a plain tuple for the last
    # key: the key check wins, though a single pass meets the image first.
    table = to_chain_map(parse_zmorphism("(0,1,2) - (1,1,2) + (1,2,2)", 2))
    table.images[BasisElt((0,), 2)] = Chain.zero(1, 2)
    table.images[(0, 1, 2)] = table.images.pop(BasisElt((0, 1, 2), 2))
    assert outcome(table.validate) == outcome(reference_validate, table) == (
        PreconditionError, "table must cover exactly the basis of the complex on 2"
    )


def test_tuple_solve_rejects_tables_as_the_chain_solve_does():
    tables = [_edited_table(edit) for edit, _ in INVALID_TABLES.values()]
    tables += tampered_tables(1313, 150)
    tables += [ChainMapTable(m, 0, {}) for m in (-1, True, 1.0)]
    rejected = set()
    for table in tables:
        expected = outcome(chain_solve_from_chain_map, table)
        assert outcome(from_chain_map, table) == expected
        if expected[0] is PreconditionError:
            rejected.add(next(p for p in REJECTIONS if expected[1].startswith(p)))
        else:
            assert isinstance(expected, list) or expected[0] is ValueError
    assert rejected == set(REJECTIONS)


# Fillers, pastings, splits and the unit rule, as the repeated ZMorphism
# arithmetic of their definitions.


def reference_filler_pre(i, x, y):
    if not isinstance(x, ZMorphism) or not isinstance(y, ZMorphism):
        raise ArityError("filler and pasting act on combinations of monotone maps")
    x._check_shape(y)
    m = x.domain
    if not 0 <= i <= m - 1:
        raise NotComposableError(f"index {i} out of range for domain {m}")
    if x.face(i) != y.face(i + 1):
        raise NotComposableError(
            f"face mismatch: face {i} of the left operand differs from "
            f"face {i + 1} of the right operand"
        )


def reference_filler(i, x, y):
    reference_filler_pre(i, x, y)
    return x.degeneracy(i + 1) - x.face(i).degeneracy(i).degeneracy(i) + y.degeneracy(i)


def reference_pasting(i, x, y):
    reference_filler_pre(i, x, y)
    return x - x.face(i).degeneracy(i) + y


def reference_alpha_beta(x, r, t, pivot):
    m, n = x.domain, x.codomain
    alpha = {}
    beta = {}
    for f, c in x.terms.items():
        a = f.values
        if a[pivot] < t:
            ua = a
            va = a[:r] + (a[r + 1], a[r + 1]) + a[r + 2:]
        else:
            ua = a[:r] + (a[r], a[r]) + a[r + 2:]
            va = a
        for target, key in ((alpha, ua), (beta, va)):
            g = MonotoneMap(key, n)
            target[g] = target.get(g, 0) + c
    u = ZMorphism(m, n, alpha)
    v = ZMorphism(m, n, beta)
    if reference_pasting(r, u, v) != x:
        raise AssertionError("splitting failed to reassemble; input is not oriental")
    return u, v


def reference_split(kind, r, t, x):
    """split_start, split_middle or split_finish with the reference
    arithmetic; the precondition checks are the library's, unchanged."""
    if kind == "middle":
        m = x.domain
        _check_split_terms(t, x, lambda a: a[m - 1] < t, f"entry {m - 1} must be below {t}")
        return reference_alpha_beta(x, m - 1, t, pivot=m)
    if kind == "start":
        _check_split_terms(t, x, lambda a: a[r] < t, f"entry {r} must be below {t}")
        u, v = reference_alpha_beta(x, r, t, pivot=r + 1)
        if reference_filler(r, v.face(r + 2), v.face(r)) != v:
            raise AssertionError("right factor is not the filler of its faces")
        return u, v
    _check_split_terms(
        t, x,
        lambda a: a[r + 1] == a[-1] or a[-1] == t,
        f"entry {r + 1} must equal the last entry unless that entry is {t}",
    )
    u, v = reference_alpha_beta(x, r, t, pivot=x.domain)
    if reference_filler(r, u.face(r + 2), u.face(r)) != u:
        raise AssertionError("left factor is not the filler of its faces")
    return u, v


def reference_unit(lv, rv, i):
    if lv == rv.face(i + 1).degeneracy(i):
        return "right"
    if rv == lv.face(i).degeneracy(i):
        return "left"
    return None


def outcome(fn, *args):
    """What fn(*args) gives: its value with the terms in their order (values
    compared as lists of (key, coefficient)), or its exception type and
    message."""
    try:
        value = fn(*args)
    except Exception as exc:  # compared, not hidden
        return type(exc), str(exc)
    values = value if isinstance(value, tuple) else (value,)
    return [
        (v.domain, v.codomain, list(v.terms.items())) if isinstance(v, ZMorphism) else v
        for v in values
    ]


def library_unit(lv, rv, i):
    """The unit rule as simplify and factorize decide it: the value of the
    pasting compared with its operands' values."""
    return {1: "right", 0: "left", None: None}[_side(pasting(i, lv, rv), lv, rv)]


def filler_pairs(seed, count):
    """(i, x, y) with face i of x equal to face i+1 of y: the faces i+2 and i
    of members and of arbitrary combinations z at domain <= 5."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        d = rng.randint(2, 5)
        if k % 2:
            z = random_oriental(rng, d, rng.randint(1, 4), max_domain=5)
        else:
            z = random_zmorphism(rng, d, rng.randint(0, 3), max_terms=8, lo=-3, hi=3)
        i = rng.randint(0, d - 2)
        out.append((i, z.face(i + 2), z.face(i)))
    return out


FILLER_PAIRS = filler_pairs(707, 300)


def test_fused_filler_and_pasting_match_repeated_arithmetic():
    cancelled = 0
    for i, x, y in FILLER_PAIRS:
        for fn, ref in ((filler, reference_filler), (pasting, reference_pasting)):
            got = outcome(fn, i, x, y)
            assert got == outcome(ref, i, x, y), (fn.__name__, i, str(x), str(y))
            assert isinstance(got, list)
        cancelled += len(x.face(i).terms) < len(x.terms)
    # The sample has faces whose terms collide, where the order can differ.
    assert cancelled >= 30


def test_sums_keep_the_term_order_where_a_running_sum_passes_zero():
    # In the pasting and the filler at 0, the face block cancels the first
    # term of x's block, (1,1) or (1,1,1), and y's block brings it back,
    # last; in face 1 of z, (0,1,2) cancels what (0,0,2) put at (0,2), and
    # (0,2,2) brings it back.  A sum that adds y's block before the face
    # block, or that keeps a zero sum in its place, puts that key first.
    x = parse_zmorphism("(1,1) + (0,2)", 2)
    y = parse_zmorphism("(2,2) + (1,1)", 2)
    z = parse_zmorphism("(0,0,2) + (0,1,1) - (0,1,2) + (0,2,2)", 2)
    face = ZMorphism.generator(face_generator(1, 2))
    for fn, ref, args, order in (
        (pasting, reference_pasting, (0, x, y), [(0, 2), (1, 1)]),
        (filler, reference_filler, (0, x, y), [(0, 2, 2), (1, 1, 1)]),
        (z.face, lambda i: reference_compose(z, face), (1,), [(0, 1), (0, 2)]),
    ):
        got = outcome(fn, *args)
        assert got == outcome(ref, *args)
        assert [f.values for f, _ in got[0][2]] == order


def test_filler_and_pasting_reject_bad_operands_as_before():
    i, x, y = next((i, x, y) for i, x, y in FILLER_PAIRS if x.face(i).terms)
    m, n = x.domain, x.codomain
    other = ZMorphism.generator(MonotoneMap((0,) * (m + 2), n))
    moved = x + ZMorphism.generator(MonotoneMap((n,) * (m + 1), n))
    cases = [
        (i, x.terms, y),                # not a ZMorphism
        (i, x, MonotoneMap((0,) * (m + 1), n)),
        (i, x, other),                  # shape mismatch
        (-1, x, y),                     # index out of range
        (m, x, y),
        (i, moved, y),                  # face mismatch
    ]
    expected = [ArityError, ArityError, ArityError, NotComposableError, NotComposableError,
                NotComposableError]
    for (j, a, b), exc in zip(cases, expected):
        for fn, ref in ((filler, reference_filler), (pasting, reference_pasting)):
            got = outcome(fn, j, a, b)
            assert got == outcome(ref, j, a, b)
            assert got[0] is exc, got


def split_inputs(seed, count):
    """The inputs of every split that factorize makes on seeded members, with
    their (kind, r, t), walked as _factorize_new walks them."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        x = random_oriental(rng, rng.randint(1, 5), rng.randint(1, 5), max_domain=5)
        m = x.domain
        _, t = first_last(x)
        if x.coefficient(MonotoneMap((t,) * (m + 1), x.codomain)):
            continue
        current = x
        for r in range(m - 1):
            out.append(("start", r, t, current))
            current = split_start(r, t, current)[0]
        out.append(("middle", m - 1, t, current))
        current = split_middle(t, current)[1]
        for r in range(m - 2, -1, -1):
            out.append(("finish", r, t, current))
            current = split_finish(r, t, current)[1]
    return out


def library_split(kind, r, t, x):
    if kind == "start":
        return split_start(r, t, x)
    if kind == "middle":
        return split_middle(t, x)
    return split_finish(r, t, x)


def test_splits_match_repeated_arithmetic_on_members():
    inputs = split_inputs(808, 100)
    assert len(inputs) >= 150
    assert {kind for kind, *_ in inputs} == {"start", "middle", "finish"}
    for kind, r, t, x in inputs:
        got = outcome(library_split, kind, r, t, x)
        assert isinstance(got, list)
        assert got == outcome(reference_split, kind, r, t, x), (kind, r, t, str(x))


def test_alpha_beta_matches_reference_on_arbitrary_combinations():
    # The pasting of the two parts is x for any combination (each term's two
    # parts cancel in pasting's middle block).  The library does not check
    # it, so it is checked here, for the start and the finish pivot; the
    # reference checks it too, so both sides always return.
    rng = random.Random(909)
    for _ in range(400):
        m = rng.randint(1, 5)
        x = random_zmorphism(rng, m, rng.randint(1, 4), max_terms=6, lo=-2, hi=2)
        r = rng.randint(0, m - 1)
        t = rng.randint(0, x.codomain)
        for pivot in (r + 1, m):
            ref = outcome(reference_alpha_beta, x, r, t, pivot)
            # The library splits the value dict of x into the value dicts of
            # u and v, compared raw so that a zero coefficient left in either
            # fails.
            parts = _alpha_beta({f.values: c for f, c in x.terms.items()}, r, t, pivot)
            got = [(m, x.codomain, [(MonotoneMap(a, x.codomain), c) for a, c in d.items()])
                   for d in parts]
            assert got == ref, (r, t, pivot, str(x))
            u, v = (ZMorphism(m, x.codomain, d) for d in parts)
            assert pasting(r, u, v) == x, (r, t, pivot, str(x))


def test_split_preconditions_fail_as_before():
    rng = random.Random(1010)
    for _ in range(300):
        m = rng.randint(0, 4)
        x = random_zmorphism(rng, m, rng.randint(0, 3), max_terms=5)
        kind = rng.choice(("start", "middle", "finish"))
        r = rng.randint(0, max(m - 2, 0))
        t = rng.randint(0, x.codomain)
        got = outcome(library_split, kind, r, t, x)
        if kind != "middle" and not 0 <= r <= m - 2 or kind == "middle" and m <= 0:
            assert got[0] is PreconditionError
            continue
        assert got == outcome(reference_split, kind, r, t, x)


def test_unit_rule_matches_reference():
    # Valid pastings only: the rule runs after evaluate has accepted the
    # tree, and simplify rejects a bad index or shape first, as eval_expr
    # does (tests/test_factorize.py).
    rng = random.Random(1111)
    outcomes = {"left": 0, "right": 0, None: 0}
    for k in range(600):
        d = rng.randint(1, 5)
        n = rng.randint(0, 3)
        i = rng.randint(0, d - 1)
        if k % 3 == 0:
            # The outer faces of a combination one dimension up, over a
            # codomain large enough that few of them are units.
            z = random_zmorphism(rng, d + 1, rng.randint(1, 5), max_terms=6, lo=-2, hi=2)
            lv, rv = z.face(i + 2), z.face(i)
        else:
            # A unit on one side, of an arbitrary combination or of a member.
            base = (random_zmorphism(rng, d, n, max_terms=6, lo=-2, hi=2) if k % 2
                    else random_oriental(rng, d, n, max_domain=5))
            if k % 3 == 1:
                lv, rv = base.face(i + 1).degeneracy(i), base
            else:
                lv, rv = base, base.face(i).degeneracy(i)
        got = outcome(library_unit, lv, rv, i)
        assert got == outcome(reference_unit, lv, rv, i), (i, str(lv), str(rv))
        outcomes[got[0]] += 1
    assert min(outcomes.values()) >= 50, outcomes
