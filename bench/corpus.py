"""Seeded input generators for the benchmark workloads.

Every generator draws from a `random.Random` that the caller seeds, so one
seed always yields the same inputs.  Members of O(m,n) are built only through
operations the membership set is closed under (edge paths, degeneracies,
faces, horn fillers, pastings and composition with plain monotone maps), so
each generated member is a member by construction.  The library module
objects are passed in, because the runner imports the package afresh for
every set-up.
"""

from __future__ import annotations


def random_map(lib, rng, m, n):
    values = sorted(rng.randint(0, n) for _ in range(m + 1))
    return lib.simplex.MonotoneMap(tuple(values), n)


def edge_path(lib, rng, n, edges):
    """The chain of `edges` edges through increasing random vertices of {0..n}."""
    MonotoneMap = lib.simplex.MonotoneMap
    verts = sorted(rng.sample(range(n + 1), edges + 1))
    items = [(MonotoneMap((a, b), n), 1) for a, b in zip(verts, verts[1:])]
    items += [(MonotoneMap((v, v), n), -1) for v in verts[1:-1]]
    return lib.zdelta.ZMorphism(1, n, items)


def lift(rng, x, m):
    """Bring a member to domain m by random degeneracies or faces."""
    while x.domain < m:
        x = x.degeneracy(rng.randint(0, x.domain))
    while x.domain > m:
        x = x.face(rng.randint(0, x.domain))
    return x


def nested_filler(lib, rng, m, n, fills=3):
    """An edge path raised to domain m, then filled `fills` times: each round
    replaces x by the filler of its own horn at a random position."""
    filler = lib.oriental.filler
    x = lift(rng, edge_path(lib, rng, n, rng.randint(1, n)), m)
    for _ in range(fills):
        i = rng.randint(0, m - 2)
        x = filler(i, x.face(i + 2), x.face(i))
    return x


def random_walk(lib, rng, m, n, steps=6, top=4):
    """A walk of `steps` closure operations from a path or a plain map,
    staying at domain <= top, then brought to domain m."""
    ZMorphism = lib.zdelta.ZMorphism
    filler, pasting = lib.oriental.filler, lib.oriental.pasting
    if n >= 1 and rng.random() < 0.5:
        x = edge_path(lib, rng, n, rng.randint(1, n))
    else:
        x = ZMorphism.generator(random_map(lib, rng, rng.randint(0, top), n))
    for _ in range(steps):
        d = x.domain
        ops = ["compose"]
        if d < top:
            ops += ["degeneracy", "degeneracy"]
        if d >= 1:
            ops.append("face")
        if d >= 2:
            ops += ["filler", "filler", "pasting"]
        op = rng.choice(ops)
        if op == "face":
            x = x.face(rng.randint(0, d))
        elif op == "degeneracy":
            x = x.degeneracy(rng.randint(0, d))
        elif op == "filler":
            i = rng.randint(0, d - 2)
            x = filler(i, x.face(i + 2), x.face(i))
        elif op == "pasting":
            i = rng.randint(0, d - 2)
            x = pasting(i, x.face(i + 2), x.face(i))
        else:
            k = rng.randint(0, top)
            x = x.compose(ZMorphism.generator(random_map(lib, rng, k, d)))
    return lift(rng, x, m)


def near_member(lib, rng, x):
    """x + f - g for two distinct random maps f, g of x's hom-set: the
    coefficient sum stays 1, so only the nonnegativity test can reject it."""
    ZMorphism = lib.zdelta.ZMorphism
    m, n = x.domain, x.codomain
    f = random_map(lib, rng, m, n)
    g = random_map(lib, rng, m, n)
    while g == f:
        g = random_map(lib, rng, m, n)
    return x + ZMorphism.generator(f) - ZMorphism.generator(g)


def injective_generator(lib, rng, m, n):
    """A single-term injective generator: a random (m+1)-subset of {0..n}.
    Each is the identity of O(m,m) relabelled, so all cost the same."""
    values = tuple(sorted(rng.sample(range(n + 1), m + 1)))
    return lib.zdelta.ZMorphism.generator(lib.simplex.MonotoneMap(values, n))


def shape(x):
    """(terms, distinct vertices): within such a class the cost of membership
    and factorization varies little."""
    return len(x.terms), len(x.vertices())


def fill_quotas(make, quotas, key=shape, tries=20000):
    """Draw from `make()` until each key of `quotas` has that many members,
    where a member's key is `key(x)`; returns the members in quota order.

    Fixed counts per class keep a pass's cost about the same under every
    seed, while the seed still chooses every member."""
    found = {k: [] for k in quotas}
    missing = sum(quotas.values())
    for _ in range(tries):
        x = make()
        bucket = found.get(key(x))
        if bucket is not None and len(bucket) < quotas[key(x)]:
            bucket.append(x)
            missing -= 1
            if not missing:
                return [x for k in quotas for x in found[k]]
    short = {k: quotas[k] - len(v) for k, v in found.items() if len(v) < quotas[k]}
    raise RuntimeError(f"no members of shape {short} in {tries} draws")
