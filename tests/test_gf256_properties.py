"""Property-based tests for GF(256) arithmetic and polynomial helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.kernels import gf256 as gf

nonzero = st.integers(min_value=1, max_value=255)
element = st.integers(min_value=0, max_value=255)
poly = st.lists(element, min_size=1, max_size=8).filter(lambda p: p[0] != 0)


class TestFieldAxioms:
    @given(a=element, b=element)
    @settings(max_examples=100)
    def test_addition_is_xor_and_self_inverse(self, a, b):
        assert gf.gf_add(a, b) == a ^ b
        assert gf.gf_add(gf.gf_add(a, b), b) == a

    @given(a=element, b=element, c=element)
    @settings(max_examples=100)
    def test_multiplication_commutative_associative(self, a, b, c):
        assert gf.gf_mul(a, b) == gf.gf_mul(b, a)
        assert gf.gf_mul(gf.gf_mul(a, b), c) == gf.gf_mul(a, gf.gf_mul(b, c))

    @given(a=element, b=element, c=element)
    @settings(max_examples=100)
    def test_distributive(self, a, b, c):
        left = gf.gf_mul(a, b ^ c)
        right = gf.gf_mul(a, b) ^ gf.gf_mul(a, c)
        assert left == right

    @given(a=nonzero)
    @settings(max_examples=100)
    def test_inverse(self, a):
        assert gf.gf_mul(a, gf.gf_inverse(a)) == 1

    @given(a=element)
    @settings(max_examples=50)
    def test_identity_and_zero(self, a):
        assert gf.gf_mul(a, 1) == a
        assert gf.gf_mul(a, 0) == 0

    @given(a=nonzero, b=nonzero)
    @settings(max_examples=100)
    def test_division_inverts_multiplication(self, a, b):
        assert gf.gf_div(gf.gf_mul(a, b), b) == a

    def test_division_by_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            gf.gf_div(5, 0)
        with pytest.raises(ConfigurationError):
            gf.gf_inverse(0)

    @given(a=nonzero, n=st.integers(min_value=0, max_value=600))
    @settings(max_examples=60)
    def test_pow_matches_repeated_multiplication(self, a, n):
        expected = 1
        for _ in range(n % 255):
            expected = gf.gf_mul(expected, a)
        # a^n == a^(n mod 255) for nonzero a (multiplicative order 255).
        assert gf.gf_pow(a, n % 255) == expected

    def test_generator_has_full_order(self):
        seen = set()
        value = 1
        for _ in range(255):
            seen.add(value)
            value = gf.gf_mul(value, 2)
        assert len(seen) == 255  # alpha = 2 generates the whole group


class TestPolynomials:
    @given(p=poly, x=element)
    @settings(max_examples=60)
    def test_eval_linear_in_leading_term(self, p, x):
        # Horner evaluation equals the naive power sum.
        naive = 0
        degree = len(p) - 1
        for i, coeff in enumerate(p):
            naive ^= gf.gf_mul(coeff, gf.gf_pow(x, degree - i))
        assert gf.poly_eval(p, x) == naive

    @given(a=poly, b=poly, x=element)
    @settings(max_examples=60)
    def test_mul_evaluates_pointwise(self, a, b, x):
        product = gf.poly_mul(a, b)
        assert gf.poly_eval(product, x) == gf.gf_mul(
            gf.poly_eval(a, x), gf.poly_eval(b, x)
        )

    @given(a=poly, b=poly, x=element)
    @settings(max_examples=60)
    def test_add_evaluates_pointwise(self, a, b, x):
        total = gf.poly_add(a, b)
        assert gf.poly_eval(total, x) == gf.poly_eval(a, x) ^ gf.poly_eval(b, x)

    @given(dividend=poly, divisor=poly)
    @settings(max_examples=60)
    def test_divmod_reconstructs(self, dividend, divisor):
        if len(divisor) > len(dividend):
            return
        quotient, remainder = gf.poly_divmod(dividend, divisor)
        rebuilt = gf.poly_add(gf.poly_mul(quotient, divisor) if quotient else [0], remainder)
        # Strip leading zeros before comparing.
        def strip(p):
            while len(p) > 1 and p[0] == 0:
                p = p[1:]
            return p
        assert strip(rebuilt) == strip(list(dividend))
