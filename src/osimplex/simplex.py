"""The simplex category: monotone maps between finite ordinals.

Objects are the nonnegative integers; a morphism from m to n is a
non-decreasing function {0,...,m} -> {0,...,n}, stored as the tuple of its
values together with its codomain.  Two maps with equal value tuples but
different codomains are different morphisms and never compare equal.
"""

import re
from itertools import combinations
from operator import ge, gt, le, lt

from .errors import ArityError, ParseError


_set = object.__setattr__


class _Frozen:
    """Base of the immutable value classes, which behave like frozen
    dataclasses without importing `dataclasses`: __init__ stores the fields
    named in `_fields` without calling __setattr__, instances of one class
    compare and hash as the tuple of those fields, assignment and deletion
    raise AttributeError, and pickle and copy rebuild a value from its
    fields through its checking constructor."""

    __slots__ = ()
    _fields = ()

    def _astuple(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} values are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} values are immutable")

    def __reduce__(self):
        return type(self), self._astuple()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


def _compare(op):
    def method(self, other):
        if other.__class__ is self.__class__:
            return op(self._astuple(), other._astuple())
        return NotImplemented

    return method


class _Ordered(_Frozen):
    """A _Frozen value of two fields, ordered by its field tuple."""

    __slots__ = ()
    __lt__, __le__, __gt__, __ge__ = map(_compare, (lt, le, gt, ge))

    @classmethod
    def _make(cls, first, second):
        """A value from fields already known to be valid; no checks."""
        x = object.__new__(cls)
        name, other = cls._fields
        _set(x, name, first)
        _set(x, other, second)
        return x


class MonotoneMap(_Ordered):
    """A morphism of the simplex category: values (f_0,...,f_m), codomain n."""

    _fields = ("values", "codomain")

    def __init__(self, values, codomain):
        # As in a frozen dataclass: object.__setattr__ keeps the fields in
        # the instance's inline values, which read faster than a __dict__.
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "codomain", codomain)
        self.__post_init__()

    def __post_init__(self):
        if not isinstance(self.values, tuple):
            object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) == 0:
            raise ValueError("a monotone map needs at least one value")
        if type(self.codomain) is not int or self.codomain < 0:
            raise ValueError("codomain must be a nonnegative integer")
        prev = 0
        for v in self.values:
            if type(v) is not int:
                raise ValueError(f"map values must be integers, got {v!r}")
            if v < prev:
                raise ValueError(f"values {self.values} are not non-decreasing from 0")
            prev = v
        if prev > self.codomain:
            raise ValueError(f"value {prev} exceeds codomain {self.codomain}")

    # Maps are dictionary keys on the hot paths, so these two are written
    # out rather than built on _astuple.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.values, self.codomain) == (other.values, other.codomain)
        return NotImplemented

    def __hash__(self):
        return hash((self.values, self.codomain))

    @property
    def domain(self):
        return len(self.values) - 1

    def __call__(self, i):
        return self.values[i]

    def is_injective(self):
        return all(a < b for a, b in zip(self.values, self.values[1:]))

    def is_surjective(self):
        return set(self.values) == set(range(self.codomain + 1))

    def __str__(self):
        return "(" + ",".join(str(v) for v in self.values) + f"):{self.codomain}"

    def __repr__(self):
        return f"MonotoneMap({self.values!r}, {self.codomain})"


def identity(m):
    """The identity morphism on the object m."""
    return MonotoneMap(tuple(range(m + 1)), m)


def compose(g, f):
    """The composite g o f, defined when the codomain of f is the domain of g."""
    if f.codomain != g.domain:
        raise ArityError(
            f"cannot compose: codomain {f.codomain} of the inner map "
            f"differs from domain {g.domain} of the outer map"
        )
    return MonotoneMap(tuple(g.values[v] for v in f.values), g.codomain)


def face_generator(i, m):
    """The injection (0,...,i-1,i+1,...,m) from m-1 to m, omitting i."""
    if m <= 0:
        raise IndexError(f"no face generators into the object {m}")
    if type(i) is not int or not 0 <= i <= m:
        raise IndexError(f"face index {i} out of range for m={m}")
    return MonotoneMap(tuple(j for j in range(m + 1) if j != i), m)


def degeneracy_generator(i, m):
    """The surjection (0,...,i,i,...,m) from m+1 to m, repeating i."""
    if type(i) is not int or not 0 <= i <= m:
        raise IndexError(f"degeneracy index {i} out of range for m={m}")
    return MonotoneMap(tuple(range(i + 1)) + tuple(range(i, m + 1)), m)


def enumerate_injective_into(m):
    """All injective monotone maps with codomain m, i.e. the nonempty subsets
    of {0,...,m} in increasing order.

    Ordered by ascending domain size, then lexicographically; the list has
    2**(m+1) - 1 entries.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    out = []
    for size in range(1, m + 2):
        for subset in combinations(range(m + 1), size):
            out.append(MonotoneMap(subset, m))
    return out


# An integer tuple "(v0,...,vk)" in ASCII digits: the values of a map, a
# term of a combination or a leaf of an expression.
_TUPLE_RE = re.compile(r"\(\s*(-?[0-9]+(?:\s*,\s*-?[0-9]+)*)\s*\)")


def _read_tuple(text, pos):
    """The integer tuple that starts at text[pos] and the position after it,
    or None if no tuple starts there."""
    match = _TUPLE_RE.match(text, pos)
    return match and (tuple(int(v) for v in match.group(1).split(",")), match.end())


def parse_map(text):
    """Parse the rendering "(f0,f1,...,fm):n" back into a MonotoneMap."""
    body, _, n = text.partition(":")
    body, n = body.strip(), n.strip()
    read = _read_tuple(body, 0)
    if read is None or read[1] != len(body) or not (n.isascii() and n.isdigit()):
        raise ParseError(f"not a monotone map: {text!r}")
    try:
        return MonotoneMap(read[0], int(n))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
