"""Cells of the oriented simplexes: double sequences of nonnegative chains.

A cell over the complex on {0,...,n} is a finite double sequence of chain
pairs, one pair per dimension, whose consecutive levels are tied together by
the boundary, whose chains are nonnegative, and whose bottom chains have
augmentation 1.  Together with the identity truncations and the termwise
composition these form a strict omega-category; this module also provides
the atoms, an exact enumerator at small n, the closure check that atoms
generate everything, and the action of oriental morphisms on cells.
"""

from itertools import combinations, product

from .chains import BasisElt, Chain, _faces, _part_tower, _pushed, _relabelled, basis_elements
from .errors import (
    ArityError,
    CellConditionError,
    EnumerationLimitError,
    NotComposableError,
    ParseError,
    PreconditionError,
    _checked,
    json_int,
)
from .zdelta import ZMorphism, _images, _membership


def violations(n, pairs):
    """The membership condition numbers violated by a raw double sequence.

    Conditions: (1) each component is a chain of the level's dimension,
    (2) finitely many nonzero levels (always true for list input),
    (3) the difference at each level is the boundary of both chains one
    level up, (4) all chains are nonnegative, (5) both bottom chains have
    augmentation 1.  An empty result means the sequence is a cell.
    """
    broken = set()
    pairs = list(pairs)
    for q, pair in enumerate(pairs):
        if len(pair) != 2 or not all(
            isinstance(c, Chain) and c.dimension == q and c.ambient == n for c in pair
        ):
            broken.add(1)
    if broken:
        return sorted(broken)
    while pairs and pairs[-1][0].is_zero() and pairs[-1][1].is_zero():
        pairs.pop()
    if not pairs:
        broken.add(5)
        return sorted(broken)
    top = len(pairs) - 1
    for q, (neg, pos) in enumerate(pairs):
        if not (neg.is_nonnegative() and pos.is_nonnegative()):
            broken.add(4)
        diff = pos - neg
        if q == top:
            if not diff.is_zero():
                broken.add(3)
        else:
            up_neg, up_pos = pairs[q + 1]
            if diff != up_neg.boundary() or diff != up_pos.boundary():
                broken.add(3)
    if pairs[0][0].augmentation() != 1 or pairs[0][1].augmentation() != 1:
        broken.add(5)
    return sorted(broken)


def _level(p):
    """p, checked to be a cell level: an int, not a bool, and nonnegative."""
    if type(p) is not int or p < 0:
        raise PreconditionError("identity level must be nonnegative")
    return p


def _identity_levels(pairs, p, side):
    """The levels of the identity at level p on side 0 (source) or 1 (target):
    the pairs below p, then that side's level-p chain twice; or all pairs."""
    if p >= len(pairs):
        return pairs
    glue = pairs[p][side]
    return pairs[:p] + ((glue, glue),)


class Cell:
    """A validated double sequence in canonical (trailing-zero-free) form."""

    __slots__ = ("ambient", "pairs", "_hash")

    def __new__(cls, ambient, pairs):
        pairs = [tuple(p) for p in pairs]
        bad = violations(ambient, pairs)
        if bad:
            raise CellConditionError(bad)
        return cls._make(ambient, pairs)

    @classmethod
    def _make(cls, ambient, pairs):
        """A cell from chain pairs already known to form one, less its zero
        top levels (act by a degenerate member leaves some); no checks."""
        pairs = list(pairs)
        while pairs and pairs[-1][0].is_zero() and pairs[-1][1].is_zero():
            pairs.pop()
        x = object.__new__(cls)
        object.__setattr__(x, "ambient", ambient)
        object.__setattr__(x, "pairs", tuple(pairs))
        object.__setattr__(x, "_hash", None)
        return x

    def __setattr__(self, name, value):
        raise AttributeError("Cell values are immutable")

    def __reduce__(self):
        # pickle and copy rebuild the cell through the validating __new__.
        return Cell, (self.ambient, self.pairs)

    @classmethod
    def from_pairs(cls, ambient, pairs):
        """Validate a raw double sequence; raises with the violated condition
        numbers when it is not a cell."""
        return cls(ambient, pairs)

    @property
    def dimension(self):
        return len(self.pairs) - 1

    def pair(self, q):
        """The chain pair in dimension q, zero above the top level."""
        if _level(q) < len(self.pairs):
            return self.pairs[q]
        zero = Chain._make(q, self.ambient, {})
        return (zero, zero)

    def source(self, p):
        """The left identity at level p: truncate and make level p diagonal."""
        return Cell._make(self.ambient, _identity_levels(self.pairs, _level(p), 0))

    def target(self, p):
        """The right identity at level p: truncate and make level p diagonal."""
        return Cell._make(self.ambient, _identity_levels(self.pairs, _level(p), 1))

    def compose(self, other, p):
        """The composite of self followed by other across level p.

        Defined when the level-p target of self equals the level-p source of
        other, compared on their level tuples.  The result, the termwise sum
        of both cells minus their shared identity, is a cell by Steiner (HHA
        2004) and is not checked again: self's levels below p, self's
        negative and other's positive chain at p, and above p, where the
        identity has no level, one sum of the two cells' chains per side.
        """
        if not isinstance(other, Cell) or other.ambient != self.ambient:
            raise ArityError("cells must live over the same complex to compose")
        x, y = self.pairs, other.pairs
        if _identity_levels(x, _level(p), 1) != _identity_levels(y, p, 0):
            raise NotComposableError(
                f"cells do not meet across level {p}: the left target differs "
                f"from the right source"
            )
        if p >= len(x):  # the meet has forced other == self
            return self
        pairs = list(x[:p])
        pairs.append((x[p][0], y[p][1]))
        for q in range(p + 1, max(len(x), len(y))):
            (x_neg, x_pos), (y_neg, y_pos) = self.pair(q), other.pair(q)
            pairs.append((x_neg + y_neg, x_pos + y_pos))
        return Cell._make(self.ambient, pairs)

    def __eq__(self, other):
        if not isinstance(other, Cell):
            return NotImplemented
        return self.ambient == other.ambient and self.pairs == other.pairs

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.ambient, self.pairs)))
        return self._hash

    def __str__(self):
        levels = [f"{neg},{pos}" for neg, pos in self.pairs]
        return "(" + " | ".join(levels) + ")"

    def __repr__(self):
        return f"<Cell in {self.ambient}: {self}>"

    def to_json(self):
        return {
            "n": self.ambient,
            "pairs": [
                {"neg": neg.to_json(), "pos": pos.to_json()} for neg, pos in self.pairs
            ],
        }

    @classmethod
    def from_json(cls, data):
        try:
            n = json_int(data["n"], "n")
            pairs = []
            for q, level in enumerate(data["pairs"]):
                pairs.append(
                    tuple(
                        Chain(
                            q,
                            n,
                            [
                                (
                                    tuple(json_int(v, "basis vertex") for v in t["basis"]),
                                    json_int(t["coef"], "coef"),
                                )
                                for t in level[side]
                            ],
                        )
                        for side in ("neg", "pos")
                    )
                )
        except (KeyError, TypeError, ValueError, ArityError) as exc:
            raise ParseError(f"bad cell object: {exc}") from exc
        return cls(n, pairs)


def atom(b):
    """The canonical cell of a basis element: the element on top of its
    iterated boundary parts, unchecked: atoms of a unital basis are cells."""
    return next(_atoms([_checked(b, BasisElt, "a basis element")]))


def _atoms(elements):
    """The atoms of the given basis elements, in order; the two part towers
    of each dimension are built once for the call."""
    towers = {}  # p -> the negative and positive part towers of [0,...,p]
    for b in elements:
        p = b.dimension
        if p not in towers:
            towers[p] = [_part_tower(p, p, sign) for sign in "-+"]
        pairs = [
            tuple(_relabelled(b, tower[p - q], q) for tower in towers[p])
            for q in range(p + 1)
        ]
        yield Cell._make(b.ambient, pairs)


def _nonneg_preimages(delta, q, tables):
    """All nonnegative q-chains whose boundary equals delta, in basis order
    with coefficients ascending, by a search that keeps the residual
    delta - boundary(picked), on the face table that tables keeps by q.

    The first-vertex functional is positive on the boundary of every
    element, so the coefficients of any preimage weigh exactly delta's
    weight; this budget bounds the free choices.  Each (q-1)-face is settled
    by the last element, in basis order, that contains it: no later choice
    changes its residual, so that element's coefficient is forced, and the
    branch ends unless the value is nonnegative, clears every face the
    element settles and fits the budget.  At a leaf every face is settled
    to zero, so each leaf is a preimage, and every preimage is reached,
    since only values no preimage takes are cut.
    """
    n = delta.ambient
    budget = sum(c * v[0] for v, c in delta._terms.items())  # delta's weight
    if budget < 0:
        return []
    table = tables.get(q)
    if table is None:
        basis = list(combinations(range(n + 1), q + 1))  # vertex tuples
        index = {}  # face vertex tuple -> face number
        rows = []  # per element: (face number, boundary sign) of each face
        weights = []  # per element: the first-vertex functional on its boundary
        for b in basis:
            faces = list(_faces([(b, 1)]))
            rows.append([(index.setdefault(face, len(index)), sign) for face, sign in faces])
            weights.append(sum(sign * face[0] for face, sign in faces))
        settles = [[] for _ in basis]
        for f, (k, sign) in {f: (k, s) for k, row in enumerate(rows) for f, s in row}.items():
            settles[k].append((f, sign))
        table = tables[q] = basis, index, rows, weights, settles
    basis, index, rows, weights, settles = table
    residual = [0] * len(index)
    for v, c in delta._terms.items():
        f = index.get(v)
        if f is None:  # a face of no q-element
            return []
        residual[f] = c
    picked = [0] * len(basis)
    out = []

    def descend(k, remaining):
        if k == len(basis):
            # Every face is settled, so the residual is zero.
            out.append(Chain._make(q, n, {basis[i]: c for i, c in enumerate(picked) if c}))
            return
        w = weights[k]
        settled = settles[k]
        if settled:
            f, sign = settled[0]
            c = sign * residual[f]
            if c < 0 or c * w > remaining:
                return
            for f, sign in settled[1:]:
                if sign * residual[f] != c:
                    return
            choices = (c,)
        else:
            choices = range(remaining // w + 1)
        row = rows[k]
        for c in choices:
            for f, sign in row:
                residual[f] -= sign * c
            picked[k] = c
            descend(k + 1, remaining - c * w)
            for f, sign in row:
                residual[f] += sign * c
        picked[k] = 0

    descend(0, budget)
    return out


def enumerate_cells(n, bound=3, max_cells=None):
    """All cells over the complex on {0,...,n}, by exact level-by-level search.

    The bottom pair of a cell consists of two single vertices; each higher
    level ranges over the nonnegative boundary preimages of the previous
    level's difference, and a cell closes off exactly when that difference
    vanishes.  The preimages come from the residual search of
    _nonneg_preimages, once per difference chain.  The search is exact: it
    cuts only coefficient values that no preimage takes, and a nonnegative
    chain with zero boundary is zero, so the first-vertex budget misses
    nothing.

    Raises when n exceeds the configured bound (raise it explicitly for
    larger searches) or when more than max_cells cells appear.
    """
    if type(n) is not int or n < 0:
        basis_elements(n)  # raises ValueError
    if type(bound) is not int or bound < 0:
        raise ValueError(f"bound must be a nonnegative integer, got {bound!r}")
    if max_cells is not None and (type(max_cells) is not int or max_cells < 0):
        raise ValueError(f"max_cells must be None or a nonnegative integer, got {max_cells!r}")
    if n > bound:
        raise EnumerationLimitError(
            f"enumeration of cells at n={n} exceeds the bound {bound}; "
            "pass a larger bound explicitly to proceed"
        )
    cells = set()
    # The preimages of each difference chain and the face table of each
    # dimension, built once per call.
    preimages, tables = {}, {}

    def note(pairs):
        cells.add(Cell._make(n, pairs))
        if max_cells is not None and len(cells) > max_cells:
            raise EnumerationLimitError(
                f"enumeration produced more than {max_cells} cells"
            )

    def extend(pairs, q):
        neg, pos = pairs[-1]
        delta = pos - neg
        if delta.is_zero():
            note(pairs)
            return
        if q >= n:
            return
        ups = preimages.get(delta)
        if ups is None:
            ups = preimages[delta] = _nonneg_preimages(delta, q + 1, tables)
        for up_neg in ups:
            for up_pos in ups:
                extend(pairs + [(up_neg, up_pos)], q + 1)

    vertices = [Chain(0, n, [((v,), 1)]) for v in range(n + 1)]
    for bottom in product(vertices, repeat=2):
        extend([bottom], 0)
    return cells


def check_atom_generation(n, bound=3):
    """Whether the closure of the atoms under identities and composition is
    the whole set of cells."""
    cells = enumerate_cells(n, bound=bound)
    return _atom_closure(n) == cells


def _atom_closure(n):
    """The closure of the atoms over {0,...,n} under identities and
    composition, by semi-naive rounds: each round pairs only the cells new in
    the round before with the cells generated so far, in both orders, found
    through their level-p sources and targets.  A cell is filed only at the
    levels up to its dimension: there its identities have dimension p, and
    above it they are the cell itself, so a pair that meets at a level above
    either dimension is a cell with itself, which composes to that cell."""
    generated = set()
    by_source = {}  # (p, source at p) -> cells
    by_target = {}  # (p, target at p) -> cells
    frontier = set(_atoms(basis_elements(n)))
    while frontier:
        generated |= frontier
        ends = {x: [(x.source(p), x.target(p)) for p in range(x.dimension + 1)]
                for x in frontier}
        for x, levels in ends.items():
            for p, (s, t) in enumerate(levels):
                by_source.setdefault((p, s), []).append(x)
                by_target.setdefault((p, t), []).append(x)
        fresh = set()
        for x, levels in ends.items():
            for p, (s, t) in enumerate(levels):
                fresh.add(s)
                fresh.add(t)
                for y in by_source.get((p, t), ()):
                    fresh.add(x.compose(y, p))
                # Pairs within the frontier were made above with x on the left.
                for y in by_target.get((p, s), ()):
                    if y not in frontier:
                        fresh.add(y.compose(x, p))
        frontier = fresh - generated
    return generated


def from_set_pairs(n, set_pairs):
    """Build a cell from per-dimension pairs of sets of basis elements, taking
    indicator sums; validation reports the violated conditions."""
    pairs = []
    for q, (neg_set, pos_set) in enumerate(set_pairs):
        pairs.append(
            (
                Chain(q, n, [(b, 1) for b in neg_set]),
                Chain(q, n, [(b, 1) for b in pos_set]),
            )
        )
    return Cell.from_pairs(n, pairs)


def act(x, cell):
    """Apply an oriental morphism to a cell through its chain map.

    The morphism must pass the membership test; the image of a cell under
    a member's chain map is then a cell, so it is not checked again.  The
    chain-map rows come from the zdelta._images scan, which skips the basis
    elements on which no term of x is injective; their rows read as zero.
    """
    _checked(x, ZMorphism, "a combination of monotone maps")
    if _checked(cell, Cell, "a cell").ambient != x.domain:
        raise ArityError(
            f"cell lives over {cell.ambient}, morphism has domain {x.domain}"
        )
    images = list(_images(x))
    result = _membership(x, images)
    if not result.ok:
        raise PreconditionError(
            f"only oriental morphisms act on cells: {result.reason}"
        )
    rows, n = dict(images), x.codomain
    return Cell._make(n, [(
        Chain._make(neg.dimension, n, _pushed(rows, neg._terms.items())),
        Chain._make(pos.dimension, n, _pushed(rows, pos._terms.items())),
    ) for neg, pos in cell.pairs])
