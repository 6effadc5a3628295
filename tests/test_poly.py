import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sepzn.arith import DomainError, Modulus
from sepzn.poly import (
    MAX_EXPONENT,
    PolyParseError,
    PolyZn,
    parse,
)

from gcd_reference import gcd_lists, rem_lists


def all_polys(n, max_deg):
    """Every polynomial over Z/n with degree <= max_deg (zero included)."""
    m = Modulus(n)
    for coeffs in itertools.product(range(n), repeat=max_deg + 1):
        yield PolyZn(m, coeffs)


# Blanks that str.isspace takes, drawn between any two tokens of a term text.
BLANKS = st.text(st.sampled_from(" \t\n\u00a0\u3000"), max_size=2)
ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                             "\u0665\u0666\u0667\u0668\u0669")


@st.composite
def term_texts(draw):
    """A text in the term grammar and its terms as (exponent, signed
    coefficient): terms in any order, exponents repeated, '-' between terms,
    coefficients with leading zeros or in Arabic-Indic digits."""
    terms, tokens = [], []
    for i in range(draw(st.integers(min_value=1, max_value=6))):
        sign = draw(st.sampled_from("+-")) if i else "+"
        if i:
            tokens.append(sign)
        coeff = draw(st.none() | st.integers(min_value=0, max_value=10**30))
        if coeff is not None:
            digits = "0" * draw(st.integers(0, 2)) + str(coeff)
            if draw(st.booleans()):
                digits = digits.translate(ARABIC_INDIC)
            tokens.append(digits)
        exponent = 0
        if coeff is None or draw(st.booleans()):
            tokens.append("x")
            exponent = draw(st.none() | st.integers(0, 5)
                            | st.just(MAX_EXPONENT))
            if exponent is None:
                exponent = 1
            else:
                tokens += ["^", str(exponent)]
        terms.append((exponent, (1 if coeff is None else coeff)
                      * (-1 if sign == "-" else 1)))
    return "".join(draw(BLANKS) + t for t in tokens) + draw(BLANKS), terms


class TestCanonicalForm:
    def test_trailing_zeros_stripped(self):
        f = PolyZn(Modulus(6), (1, 2, 0, 0))
        assert f.coeffs == (1, 2)
        assert f.degree == 1

    def test_zero_polynomial(self):
        z = PolyZn(Modulus(6), (0, 0))
        assert z.coeffs == ()
        assert z.degree is None

    def test_coefficients_reduced(self):
        assert PolyZn(Modulus(6), (7, -1)).coeffs == (1, 5)

    @pytest.mark.parametrize("n, coeffs", [
        (5, [2.9, 1.2]),        # was x + 2
        (7, [Fraction(7, 2)]),  # was 3
        (6, ["1"]),
    ])
    def test_refuses_coefficients_that_are_not_integers(self, n, coeffs):
        with pytest.raises(TypeError):
            PolyZn(Modulus(n), coeffs)

    def test_closed_under_operations(self):
        m = Modulus(4)
        f = PolyZn(m, (1, 2))      # 2x + 1
        g = PolyZn(m, (3, 2, 2))   # 2x^2 + 2x + 3
        assert (f * g).coeffs[-1] != 0 if (f * g).coeffs else True
        assert (f + g).coeffs == () or (f + g).coeffs[-1] != 0
        assert (g + g * (m.n - 1)).coeffs == ()

    def test_degree_of_product(self):
        for n in range(2, 13):
            gs = list(all_polys(n, 1))  # built once per n, not per f
            for f in all_polys(n, 2):
                for g in gs:
                    h = f * g
                    if f.coeffs == () or g.coeffs == ():
                        assert h.coeffs == ()
                        continue
                    assert h.degree is None or h.degree <= f.degree + g.degree
                    if f.coeffs[-1] * g.coeffs[-1] % n != 0:
                        assert h.degree == f.degree + g.degree


class TestParse:
    def test_paper_example_mod6(self):
        assert parse("3x^2+x+5", Modulus(6)).coeffs == (5, 1, 3)

    def test_paper_example_mod4(self):
        assert parse("x^2+1", Modulus(4)).coeffs == (1, 0, 1)

    def test_coefficients_reduce(self):
        assert parse("7x+6", Modulus(6)).coeffs == (0, 1)

    def test_coefficient_list_form(self):
        assert parse("5,1,3", Modulus(6)).coeffs == (5, 1, 3)
        assert parse("5, 1, 3", Modulus(6)).coeffs == (5, 1, 3)

    def test_whitespace_ignored(self):
        assert parse(" 3 x^2 + x + 5 ", Modulus(6)).coeffs == (5, 1, 3)

    def test_minus_between_terms(self):
        assert parse("x^2-1", Modulus(5)).coeffs == (4, 0, 1)

    def test_zero(self):
        assert parse("0", Modulus(7)).coeffs == ()

    def test_repeated_terms_accumulate(self):
        assert parse("x+x", Modulus(5)).coeffs == (0, 2)

    def test_syntax_error_has_position(self):
        with pytest.raises(PolyParseError) as e:
            parse("3x^2+*", Modulus(6))
        assert e.value.position == 5

    def test_negative_exponent_rejected(self):
        with pytest.raises(PolyParseError):
            parse("x^-1", Modulus(6))

    def test_empty_rejected(self):
        with pytest.raises(PolyParseError):
            parse("   ", Modulus(6))

    def test_exponent_cap(self):
        assert parse(f"x^{MAX_EXPONENT}", Modulus(6)).degree == MAX_EXPONENT
        for text in (f"x^{MAX_EXPONENT + 1}", "1+x^99999999999"):
            with pytest.raises(PolyParseError) as e:
                parse(text, Modulus(6))
            assert e.value.position == text.index("^") + 1

    def test_coefficient_list_cap(self):
        ones = ["1"] * (MAX_EXPONENT + 1)
        assert parse(",".join(ones), Modulus(6)).degree == MAX_EXPONENT
        # One entry more is refused at that entry, before any is converted
        # (the extra entry is not even a number).
        text = ",".join(ones + ["*"])
        with pytest.raises(PolyParseError) as e:
            parse(text, Modulus(6))
        assert e.value.position == len(text) - 1

    def test_unreadable_number_rejected(self):
        digits = "9" * 5000  # past int()'s default limit of 4300 digits
        for text in (f"{digits}x+1", f"x^{digits}", f"{digits},1",
                     "\u00b2x+1", "1,\u00b2"):  # superscript two: a digit
            with pytest.raises(PolyParseError):
                parse(text, Modulus(6))

    @pytest.mark.parametrize("text, message, position", [
        ("", "empty polynomial", 0),
        ("  ", "empty polynomial", 2),
        ("x^", "expected a number", 2),
        ("x^-1", "negative exponent", 2),
        ("+x", "expected a term", 0),
        ("x+", "expected a term", 2),
        ("2^3", "unexpected character '^'", 1),
        ("3 4", "unexpected character '4'", 2),
        ("x x", "unexpected character 'x'", 2),
        ("x^1025", "exponent 1025 is above the maximum degree 1024", 2),
        pytest.param("9" * 5000, "unreadable number: too long or not decimal",
                     0, id="5000-digits"),
        ("1,,2", "expected a natural number, got ''", 2),
        ("1,x", "expected a natural number, got 'x'", 2),
    ])
    def test_error_message_and_position(self, text, message, position):
        with pytest.raises(PolyParseError) as e:
            parse(text, Modulus(6))
        assert str(e.value) == f"{message} (at position {position})"
        assert e.value.position == position

    @given(st.integers(min_value=2, max_value=10**6), term_texts())
    def test_terms_sum_by_exponent(self, n, drawn):
        text, terms = drawn
        total = {}
        for e, c in terms:
            total[e] = total.get(e, 0) + c
        dense = [total.get(e, 0) for e in range(max(total) + 1)]
        assert parse(text, Modulus(n)) == PolyZn(Modulus(n), dense)

    @given(st.integers(min_value=2, max_value=50),
           st.lists(st.integers(min_value=0, max_value=49), max_size=6))
    def test_parse_format_round_trip(self, n, coeffs):
        f = PolyZn(Modulus(n), coeffs)
        assert parse(str(f), f.modulus) == f


class TestArithmetic:
    def test_square_in_z4(self):
        m = Modulus(4)
        f = parse("x+2", m)
        assert (f * f) == parse("x^2", m)

    def test_additive_identity(self):
        m = Modulus(9)
        f = parse("4x^3+x+2", m)
        assert f + PolyZn(m, ()) == f

    def test_multiplicative_identity(self):
        m = Modulus(9)
        f = parse("x-5", m)
        assert f * PolyZn(m, (1,)) == f

    def test_modulus_mismatch_rejected(self):
        with pytest.raises(DomainError):
            parse("x", Modulus(4)) + parse("x", Modulus(6))


def reduce_to(f, m):
    """f's image in Z/m[x] for m | n: the constructor reduces mod m."""
    return PolyZn(Modulus(m), f.coeffs)


class TestReduceModulus:
    def test_mod4_to_mod2(self):
        g = reduce_to(parse("x^2+1", Modulus(4)), 2)
        assert g.modulus.n == 2 and g.coeffs == (1, 0, 1)

    def test_mod6_to_mod3(self):
        g = reduce_to(parse("3x^2+x+5", Modulus(6)), 3)
        assert g == parse("x+2", Modulus(3))

    def test_degree_drops(self):
        g = reduce_to(parse("2x+1", Modulus(4)), 2)
        assert g.coeffs == (1,)

    @given(st.sampled_from([(6, 3), (6, 2), (12, 4), (12, 3), (20, 5)]),
           st.lists(st.integers(min_value=0, max_value=19), max_size=5),
           st.lists(st.integers(min_value=0, max_value=19), max_size=5))
    def test_ring_homomorphism(self, moduli, a, b):
        n, m = moduli
        f, g = PolyZn(Modulus(n), a), PolyZn(Modulus(n), b)
        assert reduce_to(f + g, m) == reduce_to(f, m) + reduce_to(g, m)
        assert reduce_to(f * g, m) == reduce_to(f, m) * reduce_to(g, m)


def long_rem(a, b, p):
    """a mod b over Z/p by schoolbook long division, one leading term at a
    time; b is trimmed and nonzero."""
    r = [c % p for c in a]
    inv = pow(b[-1], -1, p)
    while True:
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(b):
            return r
        q, shift = r[-1] * inv % p, len(r) - len(b)
        for j, c in enumerate(b):
            r[shift + j] = (r[shift + j] - q * c) % p


def monic(a, p):
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


class TestGcd:
    """The list-level Euclid that septest's split Euclid is checked against."""

    def test_gcd_with_zero(self):
        assert gcd_lists([1, 0, 1], [], 2) == [1, 0, 1]

    def test_gcd_with_unit(self):
        assert gcd_lists([1, 1, 1], [1], 2) == [1]

    def test_gcd_zero_zero(self):
        assert gcd_lists([], [], 3) == []

    def test_coprime_pair_mod3(self):
        # x^2+1 is irreducible over Z/3 and has no root at 0, so it shares
        # no factor with 2x; cross-checked against sympy's gcd over GF(3)
        assert len(gcd_lists([1, 0, 1], [0, 2], 3)) == 1

    def test_common_factor_detected(self):
        m = Modulus(3)
        f = parse("x+1", m) * parse("x+2", m)
        g = parse("x+1", m) * parse("x", m)
        h = gcd_lists(list(f.coeffs), list(g.coeffs), 3)
        assert monic(h, 3) == [1, 1]

    @pytest.mark.parametrize("p", [2, 3])
    def test_gcd_is_greatest_common_divisor(self, p):
        def divides(a, b):
            # a | b over Z/p (a nonzero)
            return not long_rem(b, a, p)

        polys = [list(f.coeffs) for f in all_polys(p, 3)]
        nonzero = [f for f in polys if f]
        for f in polys:
            for g in polys:
                h = gcd_lists(f, g, p)
                if not f and not g:
                    assert h == []
                    continue
                assert h and h[-1] != 0
                assert divides(h, f) and divides(h, g)
                for c in nonzero:
                    if len(c) <= len(h) and divides(c, f) and divides(c, g):
                        assert divides(c, h)


class TestRemByMonic:
    """The remainder step of the list-level Euclid."""

    def test_one_division_step(self):
        # x^2 rem (x^2 + 3x + 2) = -3x - 2 = 4x + 5 over Z/7
        assert rem_lists([0, 0, 1], [2, 3, 1], 7) == [5, 4]

    def test_low_degree_unchanged(self):
        assert rem_lists([1, 2], [1, 0, 1], 6) == [1, 2]

    def test_repeated_squaring_reduction(self):
        assert rem_lists([0, 0, 0, 0, 1], [1, 0, 1], 4) == [1]

    def test_rejects_non_monic(self):
        # 2 is not a unit mod 6, so there is no division step by 2x
        with pytest.raises(ValueError):
            rem_lists([0, 0, 1], [0, 2], 6)

    def test_congruent_to_input(self):
        g = [7, 5, 0, 1]  # x^3 + 5x + 7 over Z/12
        for f in [[1, 2, 3, 4, 5], [11, 0, 0, 0, 1], [0]]:
            r = rem_lists(f, g, 12)
            assert len(r) < len(g)
            # f - r must be a multiple of g: divide exactly
            diff = [(a - (r[i] if i < len(r) else 0)) % 12
                    for i, a in enumerate(f)]
            assert rem_lists(diff, g, 12) == []
