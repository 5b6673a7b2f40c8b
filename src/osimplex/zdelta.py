"""Integer linear combinations of monotone maps, composed bilinearly.

For fixed m and n the combinations with all terms in Delta(m,n) form a free
abelian group; together these groups form a category with the same objects
as the simplex category.  Values are immutable: every operation returns a
new, normalized combination (no zero coefficients are ever stored).
"""

from __future__ import annotations

import re

from .errors import ArityError, ParseError, json_int
from .simplex import MonotoneMap, compose, degeneracy_generator, face_generator


class ZMorphism:
    """A finite integer combination of monotone maps sharing domain and codomain."""

    __slots__ = ("domain", "codomain", "terms", "_hash")

    def __init__(self, domain, codomain, terms=()):
        """Build a combination from a dict or iterable of (map, coefficient).

        Coefficients of repeated maps accumulate; zero terms are dropped.
        """
        normalized = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for f, c in items:
            if not isinstance(f, MonotoneMap):
                f = MonotoneMap(tuple(f), codomain)
            if f.domain != domain or f.codomain != codomain:
                raise ArityError(
                    f"term {f} does not lie in the combination's hom-set "
                    f"({domain} -> {codomain})"
                )
            c = int(c)
            if c:
                c += normalized.get(f, 0)
                if c:
                    normalized[f] = c
                else:
                    del normalized[f]
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "terms", normalized)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("ZMorphism values are immutable")

    @classmethod
    def zero(cls, domain, codomain):
        return cls(domain, codomain)

    @classmethod
    def generator(cls, f, coefficient=1):
        """The combination with the single term coefficient * f."""
        return cls(f.domain, f.codomain, [(f, coefficient)])

    def is_zero(self):
        return not self.terms

    def coefficient(self, f):
        return self.terms.get(f, 0)

    def coefficient_sum(self):
        return sum(self.terms.values())

    def support(self):
        """The maps with nonzero coefficient, in the canonical term order."""
        return sorted(self.terms, key=lambda f: f.values)

    def vertices(self):
        """The set of integers appearing in the terms."""
        out = set()
        for f in self.terms:
            out.update(f.values)
        return out

    def _check_shape(self, other):
        if self.domain != other.domain or self.codomain != other.codomain:
            raise ArityError(
                f"shape mismatch: ({self.domain} -> {self.codomain}) vs "
                f"({other.domain} -> {other.codomain})"
            )

    def __add__(self, other):
        if not isinstance(other, ZMorphism):
            return NotImplemented
        self._check_shape(other)
        merged = dict(self.terms)
        for f, c in other.terms.items():
            c += merged.get(f, 0)
            if c:
                merged[f] = c
            else:
                del merged[f]
        return ZMorphism(self.domain, self.codomain, merged)

    def __neg__(self):
        return ZMorphism(
            self.domain, self.codomain, {f: -c for f, c in self.terms.items()}
        )

    def __sub__(self, other):
        if not isinstance(other, ZMorphism):
            return NotImplemented
        return self + (-other)

    def __rmul__(self, scalar):
        if not isinstance(scalar, int):
            return NotImplemented
        return ZMorphism(
            self.domain, self.codomain, {f: scalar * c for f, c in self.terms.items()}
        )

    __mul__ = __rmul__

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
        out = {}
        for g, cg in self.terms.items():
            for f, cf in other.terms.items():
                h = compose(g, f)
                c = out.get(h, 0) + cg * cf
                if c:
                    out[h] = c
                else:
                    del out[h]
        return ZMorphism(other.domain, self.codomain, out)

    def face(self, i):
        """The i-th face: composition with the injection omitting i."""
        return self.compose(ZMorphism.generator(face_generator(i, self.domain)))

    def degeneracy(self, i):
        """The i-th degeneracy: composition with the surjection repeating i."""
        return self.compose(ZMorphism.generator(degeneracy_generator(i, self.domain)))

    def injective_part(self):
        """The restriction of the combination to its injective terms."""
        return ZMorphism(
            self.domain,
            self.codomain,
            {f: c for f, c in self.terms.items() if f.is_injective()},
        )

    def __eq__(self, other):
        if not isinstance(other, ZMorphism):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.codomain == other.codomain
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            key = (self.domain, self.codomain, frozenset(self.terms.items()))
            object.__setattr__(self, "_hash", hash(key))
        return self._hash

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for f in self.support():
            c = self.terms[f]
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            body = "(" + ",".join(str(v) for v in f.values) + ")"
            if mag != 1:
                body = f"{mag}*{body}"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"<ZMorphism {self.domain}->{self.codomain}: {self}>"

    def to_json(self):
        return {
            "m": self.domain,
            "n": self.codomain,
            "terms": [
                {"map": list(f.values), "coef": self.terms[f]} for f in self.support()
            ],
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


_TERM_RE = re.compile(
    r"\s*(?:(?P<coef>\d+)\s*\*\s*)?\(\s*(?P<vals>-?\d+(?:\s*,\s*-?\d+)*)\s*\)"
)


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
        match = _TERM_RE.match(text, pos)
        if match is None:
            raise ParseError(f"expected a term, found {text[pos:pos + 12]!r}", pos)
        coef = int(match.group("coef")) if match.group("coef") else 1
        values = tuple(int(v) for v in match.group("vals").split(","))
        try:
            f = MonotoneMap(values, codomain)
        except ValueError as exc:
            raise ParseError(str(exc), pos) from exc
        items.append((f, sign * coef))
        sign, expect_term = 1, False
        pos = match.end()
    if expect_term:
        raise ParseError("dangling sign at end of input", len(text) - 1)
    inferred = items[0][0].domain
    if domain is not None and domain != inferred:
        raise ParseError(f"terms have domain {inferred}, expected {domain}")
    try:
        return ZMorphism(inferred, codomain, items)
    except ArityError as exc:
        raise ParseError(str(exc)) from exc
