"""Exact hom-sets O(m,n) as an oracle for membership and the chain-map inverse.

By Steiner (HHA 2004) and the paper, a member of O(m,n) is an augmented chain
map from the complex on {0,...,m} to the one on {0,...,n} that sends every
basis element to a nonnegative chain.  hom_set lists those chain maps
exactly: each vertex goes to a vertex, and then each basis element, in basis
order, goes to each nonnegative preimage of the image of its boundary, found
by the cells search nu._nonneg_preimages (checked against brute force in
tests/test_cells_oracles.py).  Above dimension n the only candidate is zero.
Each table is inverted with from_chain_map.

Run as a script with m and n to print the size of O(m,n):

    PYTHONPATH=src:tests python tests/test_hom_sets.py 3 4
"""

import random
import sys

import pytest

from osimplex.chains import Chain, ChainMapTable, basis_elements, from_chain_map
from osimplex.nu import _nonneg_preimages
from osimplex.zdelta import ZMorphism, check_membership

from conftest import all_domain_one_members, random_map, random_oriental, random_zmorphism


def hom_set(m, n):
    """Every member of O(m,n), as a list in the order the tables are found."""
    tables = {}  # the face tables of _nonneg_preimages, by dimension
    partial = [{}]  # chain maps on the basis elements so far: {element: image}
    for b in basis_elements(m):
        q = b.dimension
        grown = []
        for images in partial:
            if q == 0:
                ups = [Chain(0, n, [((v,), 1)]) for v in range(n + 1)]
            else:
                delta = Chain.zero(q - 1, n)
                for face, c in Chain.of(b).boundary().terms.items():
                    delta = delta + c * images[face]
                if q > n:
                    ups = [Chain.zero(q, n)] if delta.is_zero() else []
                else:
                    ups = _nonneg_preimages(delta, q, tables)
            grown += [{**images, b: up} for up in ups]
        partial = grown
    return [from_chain_map(ChainMapTable(m, n, images)) for images in partial]


@pytest.fixture(scope="module")
def hom_sets():
    found = {}

    def get(m, n):
        if (m, n) not in found:
            found[m, n] = hom_set(m, n)
        return found[m, n]

    return get


@pytest.mark.parametrize("n", [1, 2, 3])
def test_domain_one_hom_sets_are_the_edge_chains(hom_sets, n):
    members = hom_sets(1, n)
    assert len(members) == 2 ** (n + 1) - 1
    assert set(members) == set(all_domain_one_members(n))


@pytest.mark.parametrize("m", range(6))
def test_hom_sets_into_two(hom_sets, m):
    assert len(hom_sets(m, 2)) == 2 ** (m + 2) - 1


@pytest.mark.parametrize("m, n, size", [(2, 3, 60), (3, 3, 265), (2, 4, 255)])
def test_hom_set_sizes(hom_sets, m, n, size):
    assert len(hom_sets(m, n)) == size


@pytest.mark.parametrize("m, n", [(0, 0), (1, 1), (2, 2), (3, 2), (2, 3), (3, 3), (2, 4)])
def test_every_listed_map_is_a_member_listed_once(hom_sets, m, n):
    members = hom_sets(m, n)
    assert len(set(members)) == len(members)
    for x in members:
        assert (x.domain, x.codomain) == (m, n)
        assert check_membership(x).ok


@pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_random_walks_land_in_the_hom_set(hom_sets, m, n):
    members = set(hom_sets(m, n))
    rng = random.Random(100 * m + n)
    for _ in range(200):
        assert random_oriental(rng, m, n, steps=6) in members


@pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_membership_agrees_with_the_hom_set(hom_sets, m, n):
    """On combinations with coefficient sum 1: random ones, and members
    with one term moved, most of which stay near the set's boundary."""
    members = set(hom_sets(m, n))
    listed = sorted(members, key=str)
    rng = random.Random(10 * m + n)
    verdicts = []
    for k in range(600):
        if k % 2:
            x = random_zmorphism(rng, m, n, max_terms=4, lo=-2, hi=2)
        else:
            x = rng.choice(listed)
            x = x + ZMorphism(m, n, [(random_map(rng, m, n), 1), (random_map(rng, m, n), -1)])
        rest = 1 - sum(x.terms.values())
        if rest:
            x = x + ZMorphism(m, n, [(random_map(rng, m, n), rest)])
        assert sum(x.terms.values()) == 1
        verdict = x in members
        assert check_membership(x).ok == verdict
        verdicts.append(verdict)
    assert 50 <= sum(verdicts) <= len(verdicts) - 50


if __name__ == "__main__":
    print(len(hom_set(int(sys.argv[1]), int(sys.argv[2]))))
