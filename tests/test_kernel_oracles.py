"""The kernel's fast paths against their definitions.

The references below are the definition-level code: membership tries every
injective map into the domain and composes with it, chain maps are summed
with `Chain` addition one term at a time, faces and degeneracies are
composites with the generators, and the boundary is the alternating sum of
faces.  The library must give equal results, including the membership
witness, which depends on the order in which terms are summed.
"""

import random

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
from osimplex.errors import ArityError
from osimplex.oriental import MembershipResult, check_membership
from osimplex.simplex import (
    compose,
    degeneracy_generator,
    enumerate_injective_into,
    face_generator,
)
from osimplex.zdelta import ZMorphism

from conftest import random_map, random_oriental, random_zmorphism


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
    for x in MEMBERS + NEAR:
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
    rng = random.Random(505)
    for _ in range(200):
        m = rng.randint(0, 5)
        x = random_zmorphism(rng, m, rng.randint(0, 4), max_terms=6)
        for i in range(m + 1):
            if m:
                face = ZMorphism.generator(face_generator(i, m))
                assert x.face(i) == reference_compose(x, face)
            degeneracy = ZMorphism.generator(degeneracy_generator(i, m))
            assert x.degeneracy(i) == reference_compose(x, degeneracy)
        y = random_zmorphism(rng, rng.randint(0, 3), m, max_terms=4)
        assert x.compose(y) == reference_compose(x, y)


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
