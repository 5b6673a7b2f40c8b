"""Integer linear combinations of monotone maps, composed bilinearly.

For fixed m and n the combinations with all terms in Delta(m,n) form a free
abelian group; together these groups form a category with the same objects
as the simplex category.  Values are immutable: every operation returns a
new, normalized combination (no zero coefficients are ever stored).  The
group structure itself (normalization, sums, equality, printing) is the
base class _Combination, which chains.Chain shares.  Last comes the test
of membership among the morphisms of oriented simplexes.
"""

import re
from operator import attrgetter

from .errors import ArityError, ParseError, _checked, json_int
from .simplex import MonotoneMap, _Frozen, _read_tuple, _set, degeneracy_generator, face_generator


def _sum_pairs(pairs):
    """The dict of (key, nonzero coefficient) pairs summed in order with a
    zero sum dropped at once, as repeated addition does."""
    out = {}
    for key, c in pairs:
        c += out.get(key, 0)
        if c:
            out[key] = c
        else:
            del out[key]
    return out


def _face(x, i):
    """Face i of the value dict x: each tuple less entry i, summed in order."""
    out = {}
    for a, c in x.items():
        a = a[:i] + a[i + 1:]
        c += out.get(a, 0)
        if c:
            out[a] = c
        else:
            del out[a]
    return out


class _Combination(_Frozen):
    """A finite integer combination of keys of one shape; values are
    immutable.

    The terms are stored in one dict from key tuples (the value tuples of
    monotone maps, or the vertex tuples of basis elements) to nonzero
    coefficients, on which every kernel computes.  Key objects appear only
    at the public boundary: the constructor checks them and keeps their
    tuples, and `terms` builds them anew.

    A subclass names its two shape fields as its __slots__ and gets them as
    _shape, names its key class (built from a tuple and the second shape
    field) and its wording in errors, checks an input term in _check_key,
    which returns its tuple, and gives the brackets around a printed tuple
    and the wording of its shape in errors.
    """

    __slots__ = ("_terms", "_hash")

    def _init(self, first, second, terms):
        """Accumulate a dict or iterable of (key, coefficient): coefficients
        of repeated keys add up and zero terms are dropped.  Coefficients
        must be integers (not bool), and both shape fields nonnegative
        integers."""
        for name, k in zip(self.__slots__, (first, second)):
            if type(k) is not int or k < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {k!r}")
        items = terms.items() if isinstance(terms, dict) else terms
        pairs = []
        for key, c in items:
            key = self._check_key(key, first, second)
            if type(c) is not int:
                raise ValueError(f"coefficients must be integers, got {c!r}")
            if c:
                pairs.append((key, c))
        _set(self, self.__slots__[0], first)
        _set(self, self.__slots__[1], second)
        _set(self, "_terms", _sum_pairs(pairs))
        _set(self, "_hash", None)

    @classmethod
    def _make(cls, first, second, terms):
        """A value from a dict of valid key tuples of this shape to nonzero
        integers, which it keeps; no checks."""
        x = object.__new__(cls)
        _set(x, cls.__slots__[0], first)
        _set(x, cls.__slots__[1], second)
        _set(x, "_terms", terms)
        _set(x, "_hash", None)
        return x

    @classmethod
    def _summed(cls, first, second, pairs):
        """_make from (key tuple, nonzero coefficient) pairs that are valid
        for this shape, summed by _sum_pairs."""
        return cls._make(first, second, _sum_pairs(pairs))

    @property
    def terms(self):
        """A new dict from key objects to nonzero coefficients, in term order."""
        make, second = self._key._make, self._shape[1]
        return {make(key, second): c for key, c in self._terms.items()}

    def __reduce__(self):
        # The terms are not a field, so _Frozen.__reduce__ would drop them.
        return type(self), (*self._shape, list(self._terms.items()))

    @classmethod
    def zero(cls, first, second):
        return cls(first, second)

    def is_zero(self):
        return not self._terms

    def coefficient(self, key):
        """The coefficient of a key object; 0 for a key of another shape."""
        key, second = _checked(key, self._key, self._key_text)._astuple()
        return self._terms.get(key, 0) if second == self._shape[1] else 0

    def _check_shape(self, other):
        if self._shape != other._shape:
            raise ArityError(
                f"shape mismatch: {self._shape_text.format(*self._shape)} vs "
                f"{other._shape_text.format(*other._shape)}"
            )

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_shape(other)
        return self._summed(*self._shape, [*self._terms.items(), *other._terms.items()])

    def __neg__(self):
        return -1 * self

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __rmul__(self, scalar):
        if type(scalar) is not int:
            return NotImplemented
        terms = {key: scalar * c for key, c in self._terms.items()} if scalar else {}
        return self._make(*self._shape, terms)

    __mul__ = __rmul__

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._shape == other._shape and self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            _set(self, "_hash", hash((*self._shape, frozenset(self._terms.items()))))
        return self._hash

    def __str__(self):
        if not self._terms:
            return "0"
        open_, close = self._brackets
        text = ""
        for key, c in sorted(self._terms.items()):
            coef = f"{abs(c)}*" if abs(c) != 1 else ""
            text += f" {'-' if c < 0 else '+'} {coef}{open_}{','.join(map(str, key))}{close}"
        # The first term drops its " + ", or keeps a bare "-".
        return text[3:] if text[1] == "+" else "-" + text[3:]


class ZMorphism(_Combination):
    """A finite integer combination of monotone maps sharing domain and codomain."""

    __slots__ = ("domain", "codomain")
    _key = MonotoneMap
    _key_text = "a monotone map"
    _shape = property(attrgetter("domain", "codomain"))
    _shape_text = "({} -> {})"
    _brackets = "()"

    def __init__(self, domain, codomain, terms=()):
        """Build a combination from a dict or iterable of (map, coefficient).

        Coefficients of repeated maps accumulate; zero terms are dropped.
        Coefficients must be integers (not bool), and the domain and
        codomain nonnegative integers.
        """
        self._init(domain, codomain, terms)

    @staticmethod
    def _check_key(f, domain, codomain):
        if not isinstance(f, MonotoneMap):
            f = MonotoneMap(tuple(f), codomain)
        if f.domain != domain or f.codomain != codomain:
            raise ArityError(
                f"term {f} does not lie in the combination's hom-set "
                f"({domain} -> {codomain})"
            )
        return f.values

    @classmethod
    def generator(cls, f, coefficient=1):
        """The combination with the single term coefficient * f."""
        _checked(f, MonotoneMap, "a monotone map")
        if type(coefficient) is not int:
            raise ValueError(f"coefficients must be integers, got {coefficient!r}")
        return cls._make(f.domain, f.codomain, {f.values: coefficient} if coefficient else {})

    def coefficient_sum(self):
        return sum(self._terms.values())

    def vertices(self):
        """The set of integers appearing in the terms."""
        out = set()
        for a in self._terms:
            out.update(a)
        return out

    def compose(self, other):
        """The bilinear composite self o other.

        Coefficients of coincident composites g o f accumulate, so the result
        is normalized even when distinct pairs of terms collide.
        """
        if not isinstance(other, ZMorphism):
            other = ZMorphism.generator(other)
        if other.codomain != self.domain:
            raise ArityError(
                f"cannot compose: codomain {other.codomain} differs from "
                f"domain {self.domain}"
            )
        return ZMorphism._summed(other.domain, self.codomain, (
            (tuple([g[v] for v in f]), cg * cf)
            for g, cg in self._terms.items()
            for f, cf in other._terms.items()
        ))

    def face(self, i):
        """The i-th face: composition with the injection omitting i."""
        if type(i) is not int or self.domain <= 0 or not 0 <= i <= self.domain:
            face_generator(i, self.domain)  # raises IndexError
        return ZMorphism._make(self.domain - 1, self.codomain, _face(self._terms, i))

    def degeneracy(self, i):
        """The i-th degeneracy: composition with the surjection repeating i."""
        if type(i) is not int or not 0 <= i <= self.domain:
            degeneracy_generator(i, self.domain)  # raises IndexError
        # Repeating entry i is injective on tuples, so no two terms meet.
        return ZMorphism._make(self.domain + 1, self.codomain, {
            a[:i + 1] + a[i:]: c for a, c in self._terms.items()
        })

    def injective_part(self):
        """The restriction of the combination to its injective terms: a
        monotone tuple is injective when its entries are distinct."""
        return ZMorphism._make(self.domain, self.codomain, {
            a: c for a, c in self._terms.items() if len(set(a)) == len(a)
        })

    def __repr__(self):
        return f"<ZMorphism {self.domain}->{self.codomain}: {self}>"

    def to_json(self):
        return {
            "m": self.domain,
            "n": self.codomain,
            "terms": [{"map": list(a), "coef": c} for a, c in sorted(self._terms.items())],
        }

    @classmethod
    def from_json(cls, data):
        try:
            m, n = json_int(data["m"], "m"), json_int(data["n"], "n")
            items = [
                (
                    MonotoneMap(tuple(json_int(v, "map value") for v in t["map"]), n),
                    json_int(t["coef"], "coef"),
                )
                for t in data["terms"]
            ]
            return cls(m, n, items)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad combination object: {exc}") from exc


_COEF_RE = re.compile(r"([0-9]+)\s*\*\s*")


def parse_zmorphism(text, codomain, domain=None):
    """Parse combinations like "(0,1) - (1,1) + 2*(1,2)" with the given codomain.

    The domain is inferred from the term tuples; it must be supplied for the
    zero combination "0".  Both ASCII "-" and the unicode minus sign are
    accepted.
    """
    text = text.replace("−", "-").strip()
    if text in ("0", ""):
        if domain is None:
            raise ParseError("the zero combination needs an explicit domain")
        return ZMorphism.zero(domain, codomain)
    items = []
    pos = 0
    sign = 1
    expect_term = True
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if not expect_term:
            if ch == "+":
                sign, expect_term = 1, True
            elif ch == "-":
                sign, expect_term = -1, True
            else:
                raise ParseError(f"expected '+' or '-', found {ch!r}", pos)
            pos += 1
            continue
        if ch == "-":
            sign, pos = -sign, pos + 1
            continue
        coef = _COEF_RE.match(text, pos)
        read = _read_tuple(text, coef.end() if coef else pos)
        if read is None:
            raise ParseError(f"expected a term, found {text[pos:pos + 12]!r}", pos)
        values, end = read
        try:
            f = MonotoneMap(values, codomain)
        except ValueError as exc:
            raise ParseError(str(exc), pos) from exc
        items.append((f, sign * (int(coef.group(1)) if coef else 1)))
        sign, expect_term = 1, False
        pos = end
    if expect_term:
        raise ParseError("dangling sign at end of input", len(text) - 1)
    inferred = items[0][0].domain
    if domain is not None and domain != inferred:
        raise ParseError(f"terms have domain {inferred}, expected {domain}")
    try:
        return ZMorphism(inferred, codomain, items)
    except ArityError as exc:
        raise ParseError(str(exc)) from exc


class MembershipResult(_Frozen):
    """Verdict of the membership test, with a witness on failure.

    On a nonnegativity failure, `witness_map` is an injective map f into the
    domain and `witness_term` an injective term of x o f whose coefficient
    `witness_coefficient` is negative; a wrong coefficient sum carries only
    the reason text.
    """

    _fields = ("ok", "reason", "witness_map", "witness_term", "witness_coefficient")

    def __init__(self, ok, reason="", witness_map=None, witness_term=None,
                 witness_coefficient=0):
        self.__dict__.update(ok=ok, reason=reason, witness_map=witness_map,
                             witness_term=witness_term, witness_coefficient=witness_coefficient)

    def __bool__(self):
        return self.ok


def check_membership(x):
    """Decide membership among oriental morphisms, returning a result object.

    The injective terms of x o f, for the injective map f with values b, are
    the image of the basis element b under the chain map of x.  So after the
    coefficient sum, the nonnegativity is read off the chain-map images,
    basis element by basis element in the order of enumerate_injective_into,
    and the first negative coefficient found is the witness.  The images come
    from the level-by-level scan of _images, built only as far as the witness
    and only on the basis elements on which some term of x with a negative
    coefficient is injective: the image of any other is a sum of positive
    coefficients and holds no witness.  A member with no negative
    coefficient is a single term with coefficient 1, and is not scanned.
    """
    _checked(x, ZMorphism, "a combination of monotone maps")
    return _membership(x, _images(x, negative=True))


def _membership(x, images):
    """check_membership on the (vertex tuple, image dict) pairs of the chain
    map of x, which are read only as far as the first witness."""
    total = x.coefficient_sum()
    if total != 1:
        return MembershipResult(
            ok=False, reason=f"coefficient sum is {total}, not 1"
        )
    for verts, image in images:
        for e, c in image.items():
            if c < 0:
                f = MonotoneMap(verts, x.domain)
                g = MonotoneMap(e, x.codomain)
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


def is_oriental_morphism(x):
    return check_membership(x).ok


def _images(x, first=None, negative=False):
    """Yield (vertices, image under the chain map of x, as {vertex tuple:
    coefficient} summed in term order) for every basis element of the complex
    on the domain of x on which some term of x is injective, in basis order.
    Every other image is zero.  The package reads every image of x here.

    A term is injective on a vertex tuple only if it is injective on the
    tuple less its last vertex, so each level is built from the one below:
    every tuple is extended, in order, by each larger vertex, which lists
    the next level in the order of itertools.combinations, and carries only
    the terms still injective on it, as (image, coefficient, values) in term
    order.  A term that dies is never looked at again, and a tuple with no
    live term is neither yielded nor extended, as its extensions have none
    either: the scan's cost follows the tuples on which some term is
    injective, not the basis.  The kept tuples stay in basis order, and a
    row whose terms cancel is yielded as {}.

    With first, a collection of vertices, only the tuples that start at one
    of them are visited.  With negative, a tuple is kept only while a term
    with a negative coefficient is live on it, and is still summed over all
    its live terms; any other image, and those of its extensions, is
    nonnegative.
    """
    m = x.domain
    level = []
    if x._terms and not (negative and min(x._terms.values()) > 0):
        for v in range(m + 1) if first is None else first:
            live = [((values[v],), c, values) for values, c in x._terms.items()]
            yield (v,), _sum_pairs([(image, c) for image, c, _ in live])
            level.append(((v,), live))
    while level:
        above = []
        for verts, live in level:
            for w in range(verts[-1] + 1, m + 1):
                # The image is non-decreasing, so it stays injective when
                # the new value exceeds its last one.
                grown = [(image + (values[w],), c, values)
                         for image, c, values in live if values[w] > image[-1]]
                if not grown or negative and min([c for _, c, _ in grown]) > 0:
                    continue
                up = verts + (w,)
                if len(grown) > 1:
                    yield up, _sum_pairs([(image, c) for image, c, _ in grown])
                else:  # one nonzero term: nothing to sum
                    yield up, {grown[0][0]: grown[0][1]}
                if w < m:
                    above.append((up, grown))
        level = above
