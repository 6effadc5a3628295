"""The polynomial ring Z/n[x].

Polynomials are canonical coefficient tuples: index i holds the coefficient
of x^i, reduced into [0, n), with no trailing zeros.  The zero polynomial is
the empty tuple and has degree None (a marker, never -1).
"""

from __future__ import annotations

from .arith import DomainError, Modulus

# Largest degree either grammar accepts, checked before the coefficient list
# is allocated or any entry converted: "x^99999999999" is a parse error, not
# a 100 GB list, and so is a comma list of more than MAX_EXPONENT + 1 entries.
MAX_EXPONENT = 1024


class PolyParseError(ValueError):
    """Syntax error in polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _to_int(digits: str, position: int) -> int:
    """A string that str.isdigit accepts, as an int.  int() refuses one of
    more than 4300 digits, or one with a digit that is not decimal ('2²')."""
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
        c = [int(a) % n for a in coeffs]
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
        if not self.coeffs:
            return "0"
        parts = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            if e == 0:
                parts.append(str(c))
            else:
                x = "x" if e == 1 else f"x^{e}"
                parts.append(x if c == 1 else f"{c}{x}")
        return "+".join(parts)

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
        if not entry.isdigit():
            raise PolyParseError(f"expected a natural number, got {entry!r}", pos)
        coeffs.append(_to_int(entry, pos))
        pos += len(part) + 1
    return PolyZn(modulus, coeffs)


def _parse_terms(text: str, modulus: Modulus) -> PolyZn:
    s = text
    length = len(s)
    coeffs: dict[int, int] = {}

    def skip_ws(i: int) -> int:
        while i < length and s[i].isspace():
            i += 1
        return i

    def read_nat(i: int) -> tuple[int, int]:
        j = i
        while j < length and s[j].isdigit():
            j += 1
        if j == i:
            raise PolyParseError("expected a number", i)
        return _to_int(s[i:j], i), j

    i = skip_ws(0)
    if i == length:
        raise PolyParseError("empty polynomial", i)
    sign = 1
    while True:
        # one term: coeff | coeff? 'x' ('^' nat)?
        i = skip_ws(i)
        if i < length and s[i].isdigit():
            coeff, i = read_nat(i)
        elif i < length and s[i] == "x":
            coeff = 1
        else:
            raise PolyParseError("expected a term", i)
        i = skip_ws(i)
        if i < length and s[i] == "x":
            i = skip_ws(i + 1)
            if i < length and s[i] == "^":
                i = skip_ws(i + 1)
                if i < length and s[i] == "-":
                    raise PolyParseError("negative exponent", i)
                start = i
                exponent, i = read_nat(i)
                if exponent > MAX_EXPONENT:
                    raise PolyParseError(
                        f"exponent {exponent} is above the maximum degree "
                        f"{MAX_EXPONENT}", start)
            else:
                exponent = 1
        else:
            exponent = 0
        coeffs[exponent] = coeffs.get(exponent, 0) + sign * coeff
        i = skip_ws(i)
        if i == length:
            break
        if s[i] == "+":
            sign = 1
        elif s[i] == "-":
            sign = -1
        else:
            raise PolyParseError(f"unexpected character {s[i]!r}", i)
        i += 1
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return PolyZn(modulus, out)
