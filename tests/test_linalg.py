"""Integer spectral kernels: characteristic polynomials and rational eigenvalues."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from branchdyn import linalg
from conftest import fraction_char_poly

F = Fraction


def square(entries):
    return st.integers(min_value=0, max_value=6).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )


int_matrices = square(st.integers(min_value=-5, max_value=5))
rational_matrices = square(
    st.fractions(min_value=-4, max_value=4, max_denominator=6)
)


def cycle_combination(n, step, seed=1):
    """sum_t c_t P^(step*t) for the n-cycle shift P: small entries, and a
    characteristic polynomial whose constant term has hundreds of bits."""
    coeffs = [((seed * 7 + 3 * t) % 11) + 1 for t in range(n // step)]
    return [
        [coeffs[((c - r) % n) // step] if (c - r) % step == 0 else 0 for c in range(n)]
        for r in range(n)
    ]


@given(int_matrices)
def test_char_poly_integer_matches_fraction_recursion(a):
    assert linalg.char_poly(a) == fraction_char_poly(a)


@given(rational_matrices)
def test_char_poly_rational_matches_fraction_recursion(a):
    assert linalg.char_poly(a) == fraction_char_poly(a)


def test_char_poly_returns_fractions():
    coeffs = linalg.char_poly([[F(1, 2), 1], [0, 3]])
    assert coeffs == [F(3, 2), F(-7, 2), F(1)]
    assert all(isinstance(c, Fraction) for c in coeffs)


def sympy_rational_roots(a):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    poly = sympy.Matrix(a).charpoly(x) if a else sympy.Poly(1, x)
    roots = set()
    for factor, _ in poly.factor_list()[1]:
        if factor.degree() == 1:
            lead, const = factor.all_coeffs()
            roots.add(-sympy.Rational(const, lead))
    return sorted(int(r) for r in roots)


@given(int_matrices)
def test_rational_eigenvalues_match_sympy(a):
    assert linalg.rational_eigenvalues(a) == sympy_rational_roots(a)


def test_rational_eigenvalues_huge_constant_term(deadline):
    # small entries, constant terms far too large to trial-divide
    rng = random.Random(7)
    dense = [[rng.randint(0, 3) for _ in range(16)] for _ in range(16)]
    deadline(10)
    for a in (cycle_combination(21, 3), cycle_combination(24, 4), dense):
        assert linalg.rational_eigenvalues(a) == sympy_rational_roots(a)


def test_zero_constant_term_gives_root_zero():
    assert linalg.rational_eigenvalues([[0, 1], [0, 0]]) == [0]
    assert linalg.rational_eigenvalues([[1, 0], [0, 0]]) == [0, 1]
    assert linalg.rational_eigenvalues([[2, 0, 0], [0, 0, 0], [0, 0, -3]]) == [-3, 0, 2]


def test_non_integral_matrix_is_rejected():
    with pytest.raises(ValueError):
        linalg.rational_eigenvalues([[F(1, 2)]])
    with pytest.raises(ValueError):
        linalg.rational_eigenvalues([[F(1, 3), 1], [0, 2]])
