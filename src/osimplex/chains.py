"""Simplicial chain complexes on {0,...,n} with exact integer coefficients.

The complex attached to n has one basis element per strictly increasing
vertex tuple; the boundary is the usual alternating sum and the augmentation
sends every vertex to 1.  This module also provides the two-way translation
between integer combinations of monotone maps and chain maps, and the
verification that the prescribed bases are unital and strongly loop-free.
"""

from itertools import combinations
from operator import attrgetter

from .errors import ArityError, PreconditionError, _checked
from .simplex import MonotoneMap, _Ordered
from .zdelta import ZMorphism, _Combination, _images, _sum_pairs


class BasisElt(_Ordered):
    """A basis element [a_0,...,a_q]: strictly increasing vertices, ambient n."""

    _fields = ("vertices", "ambient")

    def __init__(self, vertices, ambient):
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "ambient", ambient)
        self.__post_init__()

    def __post_init__(self):
        if not isinstance(self.vertices, tuple):
            object.__setattr__(self, "vertices", tuple(self.vertices))
        if len(self.vertices) == 0:
            raise ValueError("a basis element needs at least one vertex")
        if type(self.ambient) is not int or self.ambient < 0:
            raise ValueError("ambient must be a nonnegative integer")
        prev = -1
        for v in self.vertices:
            if type(v) is not int or v <= prev:
                raise ValueError(
                    f"vertices {self.vertices} are not strictly increasing from 0"
                )
            prev = v
        if not 0 <= self.vertices[0] or prev > self.ambient:
            raise ValueError(f"vertices {self.vertices} exceed ambient {self.ambient}")

    @classmethod
    def _make(cls, vertices, ambient):
        """A basis element from a vertex tuple already known to be valid; no checks."""
        b = object.__new__(cls)
        object.__setattr__(b, "vertices", vertices)
        object.__setattr__(b, "ambient", ambient)
        return b

    # Written out like MonotoneMap's: basis elements key the chain-map tables.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.vertices, self.ambient) == (other.vertices, other.ambient)
        return NotImplemented

    def __hash__(self):
        return hash((self.vertices, self.ambient))

    @property
    def dimension(self):
        return len(self.vertices) - 1

    def __str__(self):
        return "[" + ",".join(str(v) for v in self.vertices) + "]"


def basis_elements(n, dimension=None):
    """The basis elements of the complex on {0,...,n}, optionally of one dimension."""
    if type(n) is not int or n < 0 or dimension is not None and (
        type(dimension) is not int or dimension < 0
    ):
        raise ValueError("n must be an integer and the dimension nonnegative")
    dims = range(n + 1) if dimension is None else [dimension]
    out = []
    for q in dims:
        for verts in combinations(range(n + 1), q + 1):
            out.append(BasisElt._make(verts, n))
    return out


class Chain(_Combination):
    """A homogeneous integer combination of basis elements of one dimension."""

    __slots__ = ("dimension", "ambient")
    _key = BasisElt
    _key_text = "a basis element"
    _shape = property(attrgetter("dimension", "ambient"))
    _shape_text = "dim {} in {}"
    _brackets = "[]"

    def __init__(self, dimension, ambient, terms=()):
        """Build a chain from a dict or iterable of (basis element, coefficient),
        as ZMorphism does from maps."""
        self._init(dimension, ambient, terms)

    @staticmethod
    def _check_key(b, dimension, ambient):
        if not isinstance(b, BasisElt):
            b = BasisElt(tuple(b), ambient)
        if b.dimension != dimension or b.ambient != ambient:
            raise ArityError(
                f"term {b} is not {dimension}-dimensional in ambient {ambient}"
            )
        return b.vertices

    @classmethod
    def of(cls, b, coefficient=1):
        return cls(b.dimension, b.ambient, [(b, coefficient)])

    def is_nonnegative(self):
        return all(c >= 0 for c in self._terms.values())

    def boundary(self):
        """The alternating-sum boundary; defined for dimension >= 1."""
        if self.dimension < 1:
            raise PreconditionError("0-chains have no boundary")
        return Chain._summed(self.dimension - 1, self.ambient, _faces(self._terms.items()))

    def augmentation(self):
        """The sum of coefficients of a 0-chain."""
        if self.dimension != 0:
            raise PreconditionError("augmentation applies to 0-chains only")
        return sum(self._terms.values())

    def boundary_parts(self):
        """Split the boundary as (neg, pos): nonnegative chains with disjoint
        supports such that boundary = pos - neg."""
        d = self.boundary()
        neg = {v: -c for v, c in d._terms.items() if c < 0}
        pos = {v: c for v, c in d._terms.items() if c > 0}
        return (
            Chain._make(self.dimension - 1, self.ambient, neg),
            Chain._make(self.dimension - 1, self.ambient, pos),
        )

    def __repr__(self):
        return f"<Chain dim {self.dimension} in {self.ambient}: {self}>"

    def to_json(self):
        return [{"basis": list(v), "coef": c} for v, c in sorted(self._terms.items())]


def _faces(terms):
    """The alternating-sum boundary of (vertex tuple, coefficient) terms, as
    (face, signed coefficient) pairs in term order."""
    return (
        (verts[:i] + verts[i + 1:], -c if i & 1 else c)
        for verts, c in terms
        for i in range(len(verts))
    )


def _pushed(rows, terms):
    """Terms pushed through rows {key: image dict}, in term order; a missing row is zero."""
    return _sum_pairs((e, c * ce) for v, c in terms for e, ce in rows.get(v, {}).items())


def _part_tower(p, k, sign):
    """The 0..k-fold parts of the chosen sign of [0,...,p], as a list of
    {position tuple: coefficient} dicts: each boundary is summed as
    Chain.boundary sums it and split as boundary_parts splits it."""
    s = -1 if sign == "-" else 1
    tower = [{tuple(range(p + 1)): 1}]
    for _ in range(k):
        d = _sum_pairs(_faces(tower[-1].items()))
        tower.append({v: s * c for v, c in d.items() if s * c > 0})
    return tower


def _relabelled(b, terms, q):
    """The q-chain of the position tuples of a _part_tower level, position i
    read as vertex i of b.  An injective monotone map commutes with the
    boundary and keeps its signs, so this is the same part of b."""
    verts = b.vertices
    return Chain._make(q, b.ambient, {
        tuple([verts[i] for i in pos]): c for pos, c in terms.items()
    })


def iterated_boundary_part(b, k, sign):
    """Apply the chosen boundary part k times to a basis element.

    sign is "-" or "+".  For a p-dimensional element the p-fold negative part
    is the first vertex and the p-fold positive part is the last.
    """
    if sign not in ("-", "+"):
        raise ValueError("sign must be '-' or '+'")
    p = _checked(b, BasisElt, "a basis element").dimension
    if type(k) is not int or not 0 <= k <= p:
        raise PreconditionError(f"iteration count {k} out of range for dimension {p}")
    return _relabelled(b, _part_tower(p, k, sign)[k], p - k)


class UnitalityReport:
    """Outcome of the unitality check; truthy iff every basis element passes."""

    def __init__(self, n, failures):
        self.n = n
        self.failures = failures

    def __bool__(self):
        return not self.failures

    def __repr__(self):
        state = "unital" if self else f"{len(self.failures)} failures"
        return f"<UnitalityReport n={self.n}: {state}>"


def check_unital(n):
    """Check that both fully iterated boundary parts of every basis element
    have augmentation 1, read once per dimension off [0,...,p] (see
    _relabelled); returns a truthy/falsy report listing failures."""
    if type(n) is not int or n < 0:
        basis_elements(n)  # raises ValueError
    failures = []
    for p in range(n + 1):
        eps_minus, eps_plus = (sum(_part_tower(p, p, sign)[p].values()) for sign in "-+")
        if eps_minus != 1 or eps_plus != 1:
            failures.extend((b, eps_minus, eps_plus) for b in basis_elements(n, p))
    return UnitalityReport(n, failures)


def loopfree_less(a, b):
    """The recursive strict total order witnessing strong loop-freeness.

    a < b if a_0 < b_0; or a_0 = b_0 and a is a single vertex; or both tails
    are nonempty and the tail of a exceeds the tail of b.
    """
    for v in (a, b):
        _checked(v, BasisElt, "a basis element")
    if a.ambient != b.ambient:
        raise ArityError("comparison requires a common ambient complex")
    if a == b:
        raise PreconditionError("the order is strict; equal elements do not compare")
    return _lf_less(a.vertices, b.vertices)


def _lf_less(av, bv):
    # Each step drops the common first vertex and swaps the tails.
    i = 0
    while av[i] == bv[i]:
        if len(av) == i + 1:
            return True
        if len(bv) == i + 1:
            return False
        av, bv = bv, av
        i += 1
    return av[i] < bv[i]


def check_strongly_loopfree(n):
    """Check that the recursive total order places every negative boundary
    term below its element and every positive term above it, once per
    dimension on [0,...,p]: _lf_less only compares vertices, and an
    injective monotone relabelling keeps every comparison."""
    if type(n) is not int or n < 0:
        basis_elements(n)  # raises ValueError
    for p in range(1, n + 1):
        verts = tuple(range(p + 1))
        for face, sign in _faces([(verts, 1)]):
            if not (_lf_less(verts, face) if sign > 0 else _lf_less(face, verts)):
                return False
    return True


def apply_map(f, b):
    """Push a basis element through a monotone map: the image tuple if its
    entries are distinct, the zero chain otherwise."""
    _checked(f, MonotoneMap, "a monotone map")
    if _checked(b, BasisElt, "a basis element").ambient != f.domain:
        raise ArityError(
            f"basis element {b} lives in {b.ambient}, map has domain {f.domain}"
        )
    image = tuple([f.values[v] for v in b.vertices])
    return Chain._make(b.dimension, f.codomain, {image: 1} if len(set(image)) == len(image) else {})


class ChainMapTable:
    """A chain map between the complexes on {0,...,m} and {0,...,n}, stored as
    the image of every basis element."""

    def __init__(self, m, n, images):
        self.m = m
        self.n = n
        self.images = dict(images)

    def __reduce__(self):
        return ChainMapTable, (self.m, self.n, self.images)

    def image(self, b):
        """The image of b, which must be a chain of b's dimension in ambient n."""
        if b not in self.images:
            raise ArityError(f"table has no image of {b}")
        image = self.images[b]
        if not isinstance(image, Chain) or image._shape != (b.dimension, self.n):
            raise ArityError(f"image of {b} has the wrong shape")
        return image

    def apply(self, chain):
        """Extend the table linearly to an arbitrary chain over its domain."""
        if _checked(chain, Chain, "a chain").ambient != self.m:
            raise ArityError(f"chain lives in {chain.ambient}, table has domain {self.m}")
        rows = {v: self.image(BasisElt._make(v, self.m))._terms for v in chain._terms}
        return Chain._make(chain.dimension, self.n, _pushed(rows, chain._terms.items()))

    def _rows(self):
        """The nonzero rows {vertex tuple: image terms}, after one pass over
        the counted keys (2^(m+1) - 1 distinct basis elements on m are all of
        them) that reports a wrong key anywhere before a wrong image shape."""
        m, n = self.m, self.n
        if type(m) is not int or m < 0:
            basis_elements(m)  # raises ValueError
        cover = PreconditionError(f"table must cover exactly the basis of the complex on {m}")
        if len(self.images) != 2 ** (m + 1) - 1:
            raise cover
        rows, wrong = {}, None
        for b, chain in self.images.items():
            if type(b) is not BasisElt or b.ambient != m:
                raise cover
            if (not isinstance(chain, Chain) or chain.dimension != len(b.vertices) - 1
                    or chain.ambient != n):
                wrong = wrong or b
            elif chain._terms:
                rows[b.vertices] = chain._terms
        if wrong:
            raise PreconditionError(f"image of {wrong} has the wrong shape")
        return rows

    def validate(self):
        """Raise unless the table is a well-formed chain map.

        Checks the key set, image shapes, commutation with the boundary and
        constancy of the augmentation on vertex images (the induced integer
        multiplier on the augmentation module).  A table that does not
        commute is named by its first failing element in basis order; only
        the nonzero rows and the cofaces they are pushed to can fail.
        """
        rows, m = self._rows(), self.m
        if len({sum(rows.get((v,), {}).values()) for v in range(m + 1)}) > 1:
            raise PreconditionError(
                "vertex images have inconsistent augmentation; not a chain map"
            )
        pushed = {v: [] for v in rows if len(v) > 1}  # vertices have no boundary
        for v, row in rows.items():  # v is face j of v[:j] + (u,) + v[j:]
            for j, (lo, hi) in enumerate(zip((-1, *v), (*v, m + 1))):
                if hi - lo > 1:
                    terms = [(e, -c if j & 1 else c) for e, c in row.items()]
                    for u in range(lo + 1, hi):
                        pushed.setdefault(v[:j] + (u,) + v[j:], []).extend(terms)
        for w in sorted(sorted(pushed), key=len):
            if _sum_pairs(pushed[w]) != _sum_pairs(_faces(rows.get(w, {}).items())):
                b = BasisElt._make(w, m)
                raise PreconditionError(f"table does not commute with the boundary at {b}")

    def compose(self, other):
        """The composite table self o other."""
        if _checked(other, ChainMapTable, "a chain-map table").n != self.m:
            raise ArityError(
                f"cannot compose tables: inner codomain {other.n} differs from "
                f"outer domain {self.m}"
            )
        images = {b: self.apply(chain) for b, chain in other.images.items()}
        return ChainMapTable(other.m, self.n, images)

    def __eq__(self, other):
        if not isinstance(other, ChainMapTable):
            return NotImplemented
        return self.m == other.m and self.n == other.n and self.images == other.images

    def __repr__(self):
        return f"<ChainMapTable {self.m}->{self.n}>"

    def to_json(self):
        return {
            "m": self.m,
            "n": self.n,
            "images": {
                str(b): self.images[b].to_json()
                for b in sorted(self.images, key=lambda e: (e.dimension, e.vertices))
            },
        }


def to_chain_map(x):
    """The chain map induced by an integer combination of monotone maps, from
    the zdelta._images scan, listed over the whole basis in basis order.  A
    basis element the scan does not yield has image zero, as have most that
    it does, and chains are immutable, so each dimension shares one zero."""
    _checked(x, ZMorphism, "a combination of monotone maps")
    m, n = x.domain, x.codomain
    rows = dict(_images(x))
    zeros = [Chain._make(q, n, {}) for q in range(m + 1)]
    return ChainMapTable(m, n, (
        (BasisElt._make(verts, m),
         Chain._make(q, n, image) if (image := rows.get(verts)) else zeros[q])
        for q in range(m + 1) for verts in combinations(range(m + 1), q + 1)
    ))


def _pair_values(av, bv, m):
    """The value tuple of the monotone map for the basis pair with vertex
    tuples av (minimal preimages, from 0) and bv (image values): value j is
    bv[i] for the last i with av[i] <= j."""
    values = []
    i = 0
    for j in range(m + 1):
        if i + 1 < len(av) and j >= av[i + 1]:
            i += 1
        values.append(bv[i])
    return tuple(values)


def map_from_pair(a, b, m):
    """The monotone map associated to a basis pair (a, b): a lists the minimal
    preimages (starting at 0) in the complex on m and b, of the same
    dimension, lists the image values."""
    for v in (a, b):
        _checked(v, BasisElt, "a basis element")
    if a.vertices[0] != 0 or a.ambient != m or a.dimension != b.dimension:
        raise PreconditionError(
            f"({a}, {b}) is not a basis pair on {m}: the first element must "
            f"start at 0 in the complex on {m}, with the dimension of the second"
        )
    return MonotoneMap(_pair_values(a.vertices, b.vertices, m), b.ambient)


def from_chain_map(table):
    """The unique combination of monotone maps inducing the given chain map.

    Monotone maps correspond to pairs (a, b) with a a basis element starting
    at vertex 0 and b a basis element of the same dimension in the codomain.
    The map for (a, b) sends a to b, kills every higher-dimensional element
    starting at 0, and kills those of the same dimension that precede a
    lexicographically.  Solving from the top dimension down, in lexicographic
    order within each dimension, therefore reads off one coefficient per pair
    without disturbing the rows already matched: what a still needs is the
    table's row less the image of a under the terms found so far.  The solve
    runs on vertex and value tuples.  One zdelta._images scan of each new
    term pushes its image to the tuples from 0, the only rows the solve
    reads, one term at a time, so that each image sums in term order, as
    the answer's term order requires.

    Only the key set and image shapes are checked before solving.  The solve
    matches each row from 0 by construction, and one shared scan of the
    answer over the other tuples checks the rest.  The image of any
    combination is a chain map, so validate() runs, to reject the table
    with its message, only when those images differ from the table's
    nonzero rows, as a nonzero row where no term is injective does.
    """
    rows = _checked(table, ChainMapTable, "a chain-map table")._rows()
    m, n = table.m, table.n
    pushed = {}
    acc = {}
    for q in range(m, -1, -1):
        for rest in combinations(range(1, m + 1), q):
            verts = (0,) + rest
            if verts not in rows and verts not in pushed:
                continue
            need = _sum_pairs([
                *rows.get(verts, {}).items(),
                *((e, -c) for e, c in _sum_pairs(pushed.get(verts, ())).items()),
            ])
            for e, c in need.items():
                # Each pair (a, b) gives a different map, so no term is hit twice.
                acc[values := _pair_values(verts, e, m)] = c
                for w, image in _images(ZMorphism._make(m, n, {values: c}), first=(0,)):
                    pushed.setdefault(w, []).extend(image.items())
    x = ZMorphism._make(m, n, acc)
    if ({w: image for w, image in _images(x, first=range(1, m + 1)) if image}
            != {w: row for w, row in rows.items() if w[0]}):
        table.validate()
        raise AssertionError("chain-map inversion failed to reproduce the table")
    return x
