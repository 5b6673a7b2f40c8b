"""Morphisms between oriented simplexes, fillers, and factorization.

A combination x of monotone maps with codomain n and domain m is a morphism
of oriented simplexes exactly when its coefficients sum to 1 and, for every
injective monotone map f into m, the injective terms of x o f all carry
nonnegative coefficients.  zdelta decides that membership, and its names are
exported here too.  This module implements the filler and pasting operations
under which the morphisms are closed, and factorizes every such morphism into
an expression tree over plain monotone maps.
"""

from .errors import (
    ArityError,
    InvalidExpressionError,
    NotComposableError,
    ParseError,
    PreconditionError,
    _checked,
    json_int,
)
from .simplex import MonotoneMap, _read_tuple, face_generator
from .zdelta import ZMorphism, _face, _sum_pairs
# Exported here too; factorize calls check_membership through this global.
from .zdelta import MembershipResult, check_membership, is_oriental_morphism


# ---------------------------------------------------------------------------
# fillers and pastings


def _check_filler_pre(i, x, y):
    """The value dicts of x and y, after the type, shape and index checks."""
    if not isinstance(x, ZMorphism) or not isinstance(y, ZMorphism):
        raise ArityError("filler and pasting act on combinations of monotone maps")
    if x.domain != y.domain or x.codomain != y.codomain:
        x._check_shape(y)  # raises ArityError
    if type(i) is not int or not 0 <= i <= x.domain - 1:
        raise NotComposableError(f"index {i} out of range for domain {x.domain}")
    return x._terms, y._terms


def _fused(i, x, y, up):
    """The filler (up=1) or pasting (up=0) at i of the value dicts x and y:
    x.degeneracy(i + 1) - x.face(i).degeneracy(i).degeneracy(i) + y.degeneracy(i),
    or x - x.face(i).degeneracy(i) + y, each block a slice of its tuples.  Each
    block has distinct keys, so a dict that starts as x's block and adds the
    others in place, a zero sum dropped at once, has the terms, in order, of
    those repeated additions."""
    face = _face(x, i)
    rest = face.copy()
    for a, c in y.items():
        a = a[:i + 1] + a[i + 2:]
        rest[a] = rest.get(a, 0) - c
    if any(rest.values()):
        raise NotComposableError(
            f"face mismatch: face {i} of the left operand differs from "
            f"face {i + 1} of the right operand"
        )
    # a[i:i + up] repeats entry i once more in a filler's middle block.
    out = {a[:i + 2] + a[i + 1:]: c for a, c in x.items()} if up else x.copy()
    for a, c in face.items():
        a = a[:i + 1] + a[i:i + up] + a[i:]
        c = out.get(a, 0) - c
        if c:
            out[a] = c
        else:
            del out[a]
    for a, c in y.items():
        a = a[:i + up] + a[i:]
        c += out.get(a, 0)
        if c:
            out[a] = c
        else:
            del out[a]
    return out


def filler(i, x, y):
    """The filler of x and y at i, one dimension up.

    Defined when face i of x equals face i+1 of y; morphisms of oriented
    simplexes are closed under it.
    """
    terms = _fused(i, *_check_filler_pre(i, x, y), 1)
    return ZMorphism._make(x.domain + 1, x.codomain, terms)


def pasting(i, x, y):
    """The pasting of x and y at i, in the same dimension; it equals face i+1
    of the corresponding filler."""
    terms = _fused(i, *_check_filler_pre(i, x, y), 0)
    return ZMorphism._make(x.domain, x.codomain, terms)


# ---------------------------------------------------------------------------
# structure of oriental morphisms


def first_last(x):
    """The least and greatest vertices of an oriental morphism.

    These are also the unique vertices reached by composing with the first
    and last vertex inclusions; a cheap single-term check rejects obvious
    non-members.
    """
    _checked(x, ZMorphism, "a combination of monotone maps")
    if x.is_zero():
        raise PreconditionError("the zero combination is not an oriental morphism")
    vertices = x.vertices()
    s, t = min(vertices), max(vertices)
    if _vertex_image(x, 0) != {s: 1} or _vertex_image(x, -1) != {t: 1}:
        raise PreconditionError(
            "composites with the end vertices are not single unit terms; "
            "not an oriental morphism"
        )
    return s, t


def _vertex_image(x, k):
    """The composite of x with the inclusion of its first (k=0) or last
    (k=-1) vertex, as a dict v -> coef."""
    return _sum_pairs([(a[k], c) for a, c in x._terms.items()])


def _check_split_terms(t, x, terms_ok, describe):
    if _vertex_image(x, -1) != {t: 1}:
        raise PreconditionError(
            f"the composite with the last vertex must be the single term ({t})"
        )
    for a in x._terms:
        if not terms_ok(a):
            raise PreconditionError(
                f"term {MonotoneMap._make(a, x.codomain)} violates the split "
                f"precondition: {describe}"
            )


def _alpha_beta(x, r, t, pivot):
    """The linear splitting of the value dict x at position r against t.

    pivot selects the entry whose comparison with t drives the case split:
    the entry after r for the start split, the final entry for the middle
    and finish splits.  Returns the value dicts (u, v), zero sums dropped,
    with x = pasting(r, u, v) for any x, as each term's two parts cancel in
    pasting's middle block.
    """
    alpha = {}
    beta = {}
    for a, c in x.items():
        if a[pivot] < t:
            ua = a
            va = a[:r] + (a[r + 1], a[r + 1]) + a[r + 2:]
        else:
            ua = a[:r] + (a[r], a[r]) + a[r + 2:]
            va = a
        alpha[ua] = alpha.get(ua, 0) + c
        beta[va] = beta.get(va, 0) + c
    return {a: c for a, c in alpha.items() if c}, {a: c for a, c in beta.items() if c}


def _split(x, r, t, pivot, terms_ok, describe):
    """Check the split precondition, then split x at r against t into (u, v)."""
    _check_split_terms(t, x, terms_ok, describe)
    return tuple(ZMorphism._make(*x._shape, d) for d in _alpha_beta(x._terms, r, t, pivot))


def split_start(r, t, x):
    """Split off a filler on the right at position r, for x whose terms all
    satisfy a_r < t.  Returns (u, v) with x = pasting(r, u, v), where v is the
    filler of its own outer faces and every term of u has a_{r+1} < t."""
    if type(r) is not int or not 0 <= r <= x.domain - 2:
        raise PreconditionError(f"split index {r} out of range for domain {x.domain}")
    return _split(x, r, t, r + 1, lambda a: a[r] < t, f"entry {r} must be below {t}")


def split_middle(t, x):
    """Split at the top position, strictly lowering the final vertex of the
    left factor.  Returns (u, v) with x = pasting(m-1, u, v); every term of v
    has a_{m-1} = a_m or a_m = t."""
    m = x.domain
    if m <= 0:
        raise PreconditionError("the middle split needs domain at least 1")
    return _split(x, m - 1, t, m, lambda a: a[m - 1] < t, f"entry {m - 1} must be below {t}")


def split_finish(r, t, x):
    """Split off a filler on the left at position r, for x whose terms all
    satisfy a_{r+1} = a_m or a_m = t.  Returns (u, v) with
    x = pasting(r, u, v), where u is the filler of its own outer faces and
    every term of v has a_r = a_m or a_m = t."""
    if type(r) is not int or not 0 <= r <= x.domain - 2:
        raise PreconditionError(f"split index {r} out of range for domain {x.domain}")
    return _split(
        x, r, t, x.domain,
        lambda a: a[r + 1] == a[-1] or a[-1] == t,
        f"entry {r + 1} must equal the last entry unless that entry is {t}",
    )


# ---------------------------------------------------------------------------
# expression trees


class Expr:
    """Base class of factorization expression trees.

    Trees may share subtrees.  A node caches its value the first time it is
    evaluated, so evaluating a tree costs one combine per distinct node.
    Every walk is a loop, so no depth is too deep.  Each kind of node gives
    its children in `kids`, named by `labels`, and one method per job."""

    __slots__ = ("kids", "_value", "_hash", "_printed")
    labels = ()

    def evaluate(self):
        if self._value is None:
            for node in _postorder(self, lambda node: node._value is not None):
                try:
                    node._value = node._compute()
                except (NotComposableError, ArityError) as exc:
                    raise InvalidExpressionError(str(exc), _route(self, node)) from exc
        return self._value

    def to_json(self):
        """The JSON object of the tree; a shared subtree gives one shared dict."""
        dicts = {}
        for node in _postorder(self, lambda node: id(node) in dicts):
            dicts[id(node)] = node._json(*[dicts[id(kid)] for kid in node.kids])
        return dicts[id(self)]

    def __eq__(self, other):
        """Structural equality.  Unequal hashes settle it at once; else both
        trees are hash-consed into one table, where equal trees are one node."""
        if not isinstance(other, Expr) or hash(self) != hash(other):
            return False
        table = {}
        return _rewrite(self, _kept, {}, table) is _rewrite(other, _kept, {}, table)

    def __hash__(self):
        # Cached per node, children first, so a shared DAG hashes once per node.
        if self._hash is None:
            for node in _postorder(self, lambda node: node._hash is not None):
                node._hash = hash(node._key(hash))
        return self._hash

    def __str__(self):
        # Tokens of constant size, cached per node, joined once over the
        # unfolded tree: a string per node would be O(depth^2) bytes.
        out = []
        stack = [self]
        while stack:
            item = stack.pop()
            if type(item) is str:
                out.append(item)
            else:
                if item._printed is None:
                    item._printed = item._tokens()
                stack.extend(item._printed)
        return "".join(out)

    def __repr__(self):
        return f"<Expr {self}>"


def _postorder(root, done):
    """Yield the nodes under root, children first and left to right, as a
    depth-first walk leaves them, entering no node that done accepts; the
    caller makes done accept each node it is given, so it is given once."""
    if done(root):
        return
    stack = [(root, iter(root.kids))]
    while stack:
        node, kids = stack[-1]
        for kid in kids:
            if not done(kid):
                stack.append((kid, iter(kid.kids)))
                break
        else:
            stack.pop()
            yield node


def _route(root, target):
    """The labels on the route by which evaluate reached target, failing:
    the children left of the route have values by then, its nodes none."""
    route = []
    while root is not target:
        label, root = next(pair for pair in zip(root.labels, root.kids) if pair[1]._value is None)
        route.append(label)
    return route


def _map_text(f):
    return "(" + ",".join(map(str, f.values)) + ")"


class Leaf(Expr):
    """A plain monotone map."""

    __slots__ = ("map",)

    def __init__(self, f):
        self.map = _checked(f, MonotoneMap, "a monotone map")
        self.kids = ()
        self._value = self._hash = self._printed = None

    def _key(self, kid_key):
        return ("leaf", self.map)

    def _rebuilt(self, memo):
        return self

    def _compute(self):
        return ZMorphism.generator(self.map)

    def _tokens(self):
        return (_map_text(self.map),)

    def _json(self):
        return {"op": "map", "values": list(self.map.values)}


class _Node(Expr):
    __slots__ = ("index", "left", "right")
    tag = None
    symbol = None
    labels = ("left", "right")

    def __init__(self, index, left, right):
        if type(index) is not int:
            raise ArityError(f"expected an integer node index, not {type(index).__name__}")
        self.index = index
        self.left = _checked(left, Expr, "an expression tree")
        self.right = _checked(right, Expr, "an expression tree")
        self.kids = (left, right)
        self._value = self._hash = self._printed = None

    def _key(self, kid_key):
        return (self.tag, self.index, kid_key(self.left), kid_key(self.right))

    def _compute(self):
        return self._combine(self.index, self.left._value, self.right._value)

    def _rebuilt(self, memo):
        left = memo[id(self.left)]
        right = memo[id(self.right)]
        if left is self.left and right is self.right:
            return self
        return type(self)(self.index, left, right)

    def _tokens(self):
        # A leaf child is printed into the strings beside it: fewer to pop.
        tokens = [")"]
        for kid, before in ((self.right, ","), (self.left, f"{self.symbol}_{self.index}(")):
            if type(kid) is Leaf:
                tokens[-1] = before + _map_text(kid.map) + tokens[-1]
            else:
                tokens += (kid, before)
        return tokens

    def _json(self, left, right):
        return {"op": self.tag, "index": self.index, "left": left, "right": right}


class Filler(_Node):
    __slots__ = ()
    tag = "filler"
    symbol = "F"
    _combine = staticmethod(filler)


class Pasting(_Node):
    __slots__ = ()
    tag = "pasting"
    symbol = "P"
    _combine = staticmethod(pasting)


class ComposeMap(Expr):
    """Composition of a subexpression with a plain monotone map on the right.

    Only produced by the pasting-elimination rewrite; plain factorization
    never emits it.
    """

    __slots__ = ("inner", "map")
    labels = ("inner",)

    def __init__(self, inner, f):
        self.inner = _checked(inner, Expr, "an expression tree")
        self.map = _checked(f, MonotoneMap, "a monotone map")
        self.kids = (inner,)
        self._value = self._hash = self._printed = None

    def _key(self, kid_key):
        return ("compose", kid_key(self.inner), self.map)

    def _rebuilt(self, memo):
        inner = memo[id(self.inner)]
        return self if inner is self.inner else ComposeMap(inner, self.map)

    def _compute(self):
        return self.inner._value.compose(ZMorphism.generator(self.map))

    def _tokens(self):
        return ("," + _map_text(self.map) + ")", self.inner, "C(")

    def _json(self, inner):
        return {"op": "compose", "inner": inner, "values": list(self.map.values)}


def eval_expr(expr):
    """Evaluate an expression tree bottom-up, checking every node's
    face-matching precondition; failures carry the offending node path."""
    return _checked(expr, Expr, "an expression tree").evaluate()


def expr_from_json(data, n):
    # Recursive, as json.loads is: deep JSON ends in RecursionError either way.
    try:
        op = data["op"]
        if op == "map":
            return Leaf(_map_from_json(data, n))
        if op in ("filler", "pasting"):
            cls = Filler if op == "filler" else Pasting
            return cls(
                json_int(data["index"], "index"),
                expr_from_json(data["left"], n),
                expr_from_json(data["right"], n),
            )
        if op == "compose":
            inner = expr_from_json(data["inner"], n)
            return ComposeMap(inner, _map_from_json(data, _domain(inner)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad expression object: {exc}") from exc
    raise ParseError(f"unknown expression op {op!r}")


def _domain(expr):
    """The domain of the value of expr, read off its leftmost path without
    evaluating: the codomain that the map of a C(expr,(...)) node needs."""
    up = 0
    while isinstance(expr, _Node):
        up += isinstance(expr, Filler)
        expr = expr.left
    return expr.map.domain + up


def _map_from_json(data, n):
    return MonotoneMap(tuple(json_int(v, "map value") for v in data["values"]), n)


def parse_expr(text, n):
    """Parse the rendering "F_i(L,R)" / "P_i(L,R)" / "C(L,(...))" / "(f0,...)".
    Open nodes are kept on a list, as [class, index, children so far]."""
    open_nodes = []
    pos = 0
    while True:
        pos = _skip_ws(text, pos)
        if pos >= len(text):
            raise ParseError("unexpected end of expression", pos)
        ch = text[pos]
        if ch in ("F", "P"):
            if text[pos + 1:pos + 2] != "_":
                raise ParseError("expected '_' after node tag", pos + 1)
            start = pos = pos + 2
            while pos < len(text) and "0" <= text[pos] <= "9":
                pos += 1
            if start == pos:
                raise ParseError("expected a node index", pos)
            open_nodes.append([Filler if ch == "F" else Pasting, int(text[start:pos])])
            pos = _expect(text, pos, "(")
            continue
        if ch == "C":
            open_nodes.append([ComposeMap, None])
            pos = _expect(text, pos + 1, "(")
            continue
        if ch != "(":
            raise ParseError(f"unexpected character {ch!r}", pos)
        expr, pos = _parse_leaf(text, pos, n)
        # Close every open node that expr completes.
        while open_nodes:
            node = open_nodes[-1]
            node.append(expr)
            if node[0] is ComposeMap:
                pos = _expect(text, pos, ",")
                leaf, pos = _parse_leaf(text, pos, _domain(expr))
                expr = ComposeMap(expr, leaf.map)
            elif len(node) == 3:
                pos = _expect(text, pos, ",")
                break
            else:
                expr = node[0](node[1], node[2], node[3])
            pos = _expect(text, pos, ")")
            open_nodes.pop()
        else:
            pos = _skip_ws(text, pos)
            if pos != len(text):
                raise ParseError(f"trailing input {text[pos:]!r}", pos)
            return expr


def _skip_ws(text, pos):
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _expect(text, pos, token):
    pos = _skip_ws(text, pos)
    if pos >= len(text) or text[pos] != token:
        raise ParseError(f"expected {token!r}", pos)
    return pos + 1


def _parse_leaf(text, pos, n):
    pos = _skip_ws(text, pos)
    read = _read_tuple(text, pos)
    if read is None:
        _expect(text, pos, "(")  # raises when no "(" opens the leaf
        raise ParseError(f"bad leaf {text[pos:pos + 12]!r}: expected (v0,...,vk) "
                         "in ASCII digits", pos + 1)
    values, end = read
    try:
        return Leaf(MonotoneMap(values, n)), end
    except ValueError as exc:
        raise ParseError(f"bad leaf {text[pos + 1:end - 1]!r}: {exc}", pos + 1) from exc


# ---------------------------------------------------------------------------
# rewriting and factorization


def _cons(table, node):
    """Hash-consing: the node of table with the structure of node, which is
    added if new.  The children of node must come from table, so equal
    subtrees built against one table are one object, evaluated once."""
    return table.setdefault(node._key(id), node)


def _consed(table, cls, index, left, right):
    """The node of table equal to cls(index, left, right), built only if
    table lacks it; its key is the _key(id) that _cons reads."""
    key = (cls.tag, index, id(left), id(right))
    return table.get(key) or table.setdefault(key, cls(index, left, right))


def _rewrite(expr, step, memo, table):
    """Rewrite expr bottom-up: step(node, memo, table) gives the result of
    each distinct node not in memo, which maps nodes by identity to their
    results, so its children's results are there; step hash-conses it."""
    for node in _postorder(expr, lambda node: id(node) in memo):
        memo[id(node)] = step(node, memo, table)
    return memo[id(expr)]


def _kept(node, memo, table):
    """node rebuilt on its children's results (or kept), hash-consed."""
    return _cons(table, node._rebuilt(memo))


def simplify(expr):
    """Drop pasting nodes whose one operand is the degenerate unit of the
    other; the evaluation is unchanged.  Shared subtrees stay shared.  The
    input is evaluated first, so a bad tree raises eval_expr's error, and the
    rule reads its nodes' cached values; rebuilt nodes get no value."""
    eval_expr(expr)
    return _rewrite(expr, _unit_dropped, {}, {})


def _side(value, left, right):
    """Which operand of a valid pasting equals it: 1 (right), 0 (left) or
    None.  pasting(i, l, r) = l - s_i(f) + r for the face f that l and r
    share, so it is r exactly when l is the unit s_i(f), and l exactly when
    r is; right is tried first."""
    return 1 if value == right else 0 if value == left else None


def _unit_dropped(node, memo, table):
    """The step of simplify: a pasting equal to an operand becomes its result."""
    if isinstance(node, Pasting):
        side = _side(node._value, node.left._value, node.right._value)
        if side is not None:
            return memo[id(node.kids[side])]
    return _kept(node, memo, table)


def eliminate_pastings(expr):
    """Rewrite every pasting node as a face of the corresponding filler, so
    the tree uses fillers and composition with monotone maps only.  Shared
    subtrees stay shared.  A bad tree raises eval_expr's error."""
    eval_expr(expr)
    return _rewrite(expr, _eliminated, {}, {})


def _eliminated(node, memo, table):
    """The step of eliminate_pastings: a pasting becomes a face of its filler."""
    node = node._rebuilt(memo)
    if isinstance(node, Pasting):
        inner = _consed(table, Filler, node.index, node.left, node.right)
        node = ComposeMap(inner, face_generator(node.index + 1, _domain(inner)))
    return _cons(table, node)


def factorize(x, simplify_output=True):
    """Factorize an oriental morphism into an expression over monotone maps.

    Writing t for the greatest vertex of x, either x is the constant map at t
    (the leaf base case, covering domain 0 and t = 0), or x splits as a chain
    of pastings: fillers split off at positions 0,...,m-2, a middle split
    whose left factor has a smaller greatest vertex, fillers split off at
    positions m-2,...,0, and a residue all of whose terms end at t.  The
    residue is the termwise extension by t of a morphism one domain down,
    and its factorization is obtained by appending t to every leaf of that
    morphism's tree.  Each filler's two faces live one domain down, so the
    recursion terminates along (domain, greatest vertex).

    Only x is tested for membership: the splits of a member are members that
    meet the split preconditions, as tests/test_factorize_fixture.py and
    tests/test_kernel_oracles.py check, so the recursion runs unchecked on
    value dicts {value tuple: coefficient}, once per *distinct* input.  By
    default (simplify_output, True or False) each split applies simplify's
    unit rule to its dicts, so no operand that the rule drops is factorized.
    """
    if type(simplify_output) is not bool:
        raise TypeError(f"simplify_output must be True or False, not {simplify_output!r}")
    result = check_membership(x)
    if not result.ok:
        raise PreconditionError(f"factorize requires an oriental morphism: {result.reason}")
    return _factorize_member(x._terms, (x.codomain, {}, {}, {}, simplify_output))


def _factorize_member(x, state):
    """The factorization of the value dict x in state = (codomain, memo,
    appended, table, simplified): memo maps the inputs already factorized to
    their trees, simplified ones if simplified (a pasting's side depends only
    on the dicts of its split); appended holds the _append_to_leaves memo per
    t; table hash-conses nodes."""
    key = frozenset(x.items())
    expr = state[1].get(key)
    if expr is None:
        expr = state[1][key] = _factorize_new(x, state)
    return expr


def _factorize_new(x, state):
    n, _, appended, table, simplified = state
    m = len(next(iter(x))) - 1
    t = max(a[-1] for a in x)
    constant = (t,) * (m + 1)
    if constant in x:
        return _cons(table, Leaf(MonotoneMap._make(constant, n)))

    # The splits current = pasting(r, u, v), outermost first: fillers split
    # off on the right (the factor is v) at r = k = 0,...,m-2, the
    # top-position split at r = k = m-1, whose left factor u has a smaller
    # greatest vertex (each of its terms ends at an a_{m-1} or an a_m below
    # t), and fillers split off on the left (the factor is u) at
    # r = 2m-2-k = m-2,...,0, which pivot on the last entry.  The rest of the
    # chain splits the other operand: u (side 0) or v (side 1).  A pasting
    # equal to the rest is skipped, one equal to its factor ends the chain
    # there, and the others are kept.
    pastings = []
    current = x
    for k in range(2 * m - 1):
        on_right = k < m - 1
        r = k if k < m else 2 * m - 2 - k
        u, v = _alpha_beta(current, r, t, r + 1 if k < m else m)
        side = _side(current, u, v) if simplified else None
        current, part = (u, v) if on_right else (v, u)
        if side != (0 if on_right else 1):
            factor = (_factorize_member(part, state) if r == m - 1
                      else _factorize_filler(r, part, state))
            if side is not None:
                tree = factor
                break
            pastings.append((r, factor, on_right))
    else:
        # The residue ends at t everywhere; recurse one domain down and append t.
        below = _factorize_member(_face(current, m), state)
        tree = _append_to_leaves(below, t, appended.setdefault(t, {}), table)
    for r, factor, on_right in reversed(pastings):
        tree = _consed(table, Pasting, r, *((tree, factor) if on_right else (factor, tree)))
    return tree


def _factorize_filler(r, v, state):
    """The filler node at r of the factorizations of the outer faces of v."""
    left = _factorize_member(_face(v, r + 2), state)
    return _consed(state[3], Filler, r, left, _factorize_member(_face(v, r), state))


def _append_to_leaves(expr, t, memo, table):
    """Append the vertex t to every leaf; this commutes with all node
    operations because their indices never touch the final position.  It is
    also injective on value tuples, so no pasting gains or loses a unit.

    memo maps the nodes of expr already rewritten to their results, by
    identity, so shared subtrees stay shared; new nodes go through table.
    The new leaf maps are built unchecked: t is the greatest vertex of the
    input, so it is at least every value of a leaf below it and at most the
    codomain, which is unchanged.
    """

    def step(node, memo, table):
        if isinstance(node, Leaf):
            return _cons(table, Leaf(MonotoneMap._make(node.map.values + (t,), node.map.codomain)))
        return _kept(node, memo, table)

    return _rewrite(expr, step, memo, table)
