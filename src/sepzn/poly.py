"""The polynomial ring Z/n[x].

Polynomials are canonical coefficient tuples: index i holds the coefficient
of x^i, reduced into [0, n), with no trailing zeros.  The zero polynomial is
the empty tuple and has degree None (a marker, never -1).
"""

from __future__ import annotations

import re
from operator import index

from .arith import DomainError, Modulus

# Largest degree either grammar accepts, checked before the coefficient list
# is allocated or any entry converted: "x^99999999999" is a parse error, not
# a 100 GB list, and so is a comma list of more than MAX_EXPONENT + 1 entries.
MAX_EXPONENT = 1024

# One term of the term grammar and the sign of the next: a coefficient, x or
# both, then ^ and an exponent, with blanks between any two tokens.  Every
# part is optional, so a match always succeeds; where it stops short of a
# whole term is where the text is wrong.  On a str pattern, \s and \d take
# exactly what str.isspace and str.isdecimal take.
_TERM = re.compile(r"\s*(\d*)\s*(?:(x)\s*(?:\^\s*(-?\d*))?)?\s*([-+]?)")


class PolyParseError(ValueError):
    """Syntax error in polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _to_int(digits: str, position: int) -> int:
    """Decimal digits as an int; int() refuses more than 4300 of them."""
    try:
        return int(digits)
    except ValueError:
        raise PolyParseError("unreadable number: too long or not decimal",
                             position) from None


class PolyZn:
    """An element of Z/n[x] in canonical form."""

    __slots__ = ("modulus", "coeffs")

    def __init__(self, modulus: Modulus, coeffs):
        n = modulus.n
        c = [index(a) % n for a in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.modulus = modulus
        self.coeffs = tuple(c)

    @property
    def degree(self):
        """Degree of a nonzero polynomial; None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def _check_same_modulus(self, other: "PolyZn"):
        if not isinstance(other, PolyZn):
            raise TypeError(f"expected PolyZn, got {type(other).__name__}")
        if self.modulus != other.modulus:
            raise DomainError(
                f"modulus mismatch: {self.modulus.n} vs {other.modulus.n}")

    def __add__(self, other):
        self._check_same_modulus(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return PolyZn(self.modulus, out)

    def __mul__(self, other):
        if isinstance(other, int):
            return PolyZn(self.modulus, [other * c for c in self.coeffs])
        self._check_same_modulus(other)
        if not self.coeffs or not other.coeffs:
            return PolyZn(self.modulus, ())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return PolyZn(self.modulus, out)

    def __eq__(self, other):
        return (isinstance(other, PolyZn) and self.modulus == other.modulus
                and self.coeffs == other.coeffs)

    def __str__(self):
        """The input grammar, highest degree first, e.g. '3x^2+x+5'."""
        terms = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            x = "" if e == 0 else "x" if e == 1 else f"x^{e}"
            if c := self.coeffs[e]:
                terms.append(x if c == 1 and x else f"{c}{x}")
        return "+".join(terms) or "0"

    def __repr__(self):
        return f"PolyZn({str(self)!r} mod {self.modulus.n})"


def parse(text: str, modulus: Modulus) -> PolyZn:
    """Parse polynomial text over Z/n; coefficients are reduced mod n.

    Accepts the term grammar ('3x^2+x+5') and, when the text contains a
    comma, an ascending coefficient list ('5,1,3' = 5 + x + 3x^2).
    """
    if "," in text:
        return _parse_coeff_list(text, modulus)
    return _parse_terms(text, modulus)


def _parse_coeff_list(text: str, modulus: Modulus) -> PolyZn:
    parts = text.split(",")
    if len(parts) > MAX_EXPONENT + 1:
        # The position of the first entry past degree MAX_EXPONENT.
        pos = sum(len(part) + 1 for part in parts[:MAX_EXPONENT + 1])
        raise PolyParseError(f"a list of {len(parts)} coefficients is above "
                             f"the maximum degree {MAX_EXPONENT}", pos)
    coeffs = []
    pos = 0
    for part in parts:
        entry = part.strip()
        if not entry.isdecimal():
            raise PolyParseError(f"expected a natural number, got {entry!r}", pos)
        coeffs.append(_to_int(entry, pos))
        pos += len(part) + 1
    return PolyZn(modulus, coeffs)


def _parse_terms(text: str, modulus: Modulus) -> PolyZn:
    coeffs: dict[int, int] = {}
    m, sign = _TERM.match(text), 1
    if m.start(1) == len(text):
        raise PolyParseError("empty polynomial", m.start(1))
    while True:
        digits, x, power, after = m.groups()
        if not (digits or x):
            raise PolyParseError("expected a term", m.start(1))
        coeff = _to_int(digits, m.start(1)) if digits else 1
        exponent = 0 if x is None else 1
        if power is not None:  # x^, then '-', digits or neither
            at = m.start(3)
            if not power.isdecimal():
                raise PolyParseError("negative exponent" if power
                                     else "expected a number", at)
            exponent = _to_int(power, at)
            if exponent > MAX_EXPONENT:
                raise PolyParseError(f"exponent {exponent} is above the "
                                     f"maximum degree {MAX_EXPONENT}", at)
        coeffs[exponent] = coeffs.get(exponent, 0) + sign * coeff
        if not after:
            break
        m, sign = _TERM.match(text, m.end()), -1 if after == "-" else 1
    if m.end() < len(text):
        raise PolyParseError(f"unexpected character {text[m.end()]!r}",
                             m.end())
    return PolyZn(modulus,
                  [coeffs.get(e, 0) for e in range(max(coeffs) + 1)])
