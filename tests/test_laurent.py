import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lmkit.laurent import (
    EvaluationPoint,
    LaurentError,
    LaurentPoly,
    ONE,
    PolyMatrix,
    T,
    Q,
    ZERO,
    exact_div,
    format_poly,
    parse_poly,
    rank_probabilistic,
    seeded_points,
)


def lp(text):
    return parse_poly(text)


coeffs = st.integers(-9, 9).map(Fraction) | st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)
exponents = st.tuples(st.integers(-4, 4), st.integers(-3, 3))
polys = st.dictionaries(exponents, coeffs, max_size=5).map(LaurentPoly)


class TestArithmetic:
    def test_difference_of_squares(self):
        assert (ONE - T) * (ONE + T) == lp("1 - t^2")

    def test_additive_identity(self):
        p = lp("2*t^-3*q - 1/2")
        assert p + ZERO == p

    def test_monomial_inversion(self):
        assert T ** (-3) == lp("t^-3")

    def test_non_unit_negative_power(self):
        with pytest.raises(LaurentError):
            (ONE + T) ** (-1)

    @given(polys, polys, polys)
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, p, q, r):
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r

    def test_units(self):
        assert lp("2*t^-3*q").is_unit()
        assert not lp("1 + t").is_unit()
        assert not ZERO.is_unit()

    @given(st.integers(-6, 6), st.integers(-4, 4), coeffs.filter(lambda c: c != 0))
    @settings(max_examples=40, deadline=None)
    def test_unit_inverse_produces_inverse(self, a, b, c):
        x = LaurentPoly.monomial(c, a, b)
        assert x * x.unit_inverse() == ONE

    def test_eval(self):
        point = EvaluationPoint(Fraction(2), Fraction(1))
        assert lp("1 - t^2").eval(point) == -3
        assert lp("t^-1").eval(EvaluationPoint(Fraction(1, 2), Fraction(1))) == 2
        assert ZERO.eval(point) == 0


class TestGrammar:
    def test_examples_parse(self):
        assert lp("1 - t^2") == ONE - T * T
        assert lp("2*t^-3*q") == LaurentPoly.monomial(2, -3, 1)
        assert lp("0") == ZERO

    def test_roundtrip_examples(self):
        for text in ["1 - t^2", "2*t^-3*q", "0", "-t + 1/2*q^-2", "3/4"]:
            assert format_poly(lp(text)) == format_poly(lp(format_poly(lp(text))))

    @given(polys)
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_random(self, p):
        assert parse_poly(format_poly(p)) == p


def random_matrix(rng, rows, cols, entry_pool):
    return PolyMatrix.from_rows(
        [[rng.choice(entry_pool) for _ in range(cols)] for _ in range(rows)]
    )


ENTRY_POOL = [ZERO, ONE, T, -T, ONE - T, Q, T * Q, LaurentPoly.const(2), ONE + Q]


class TestMatrices:
    def test_block_direct_sum(self):
        # Spec display: a 3x3 with the 2x2 block in the lower right.
        b = PolyMatrix.from_rows([[ONE - T, T], [ONE, ZERO]])
        m = PolyMatrix.identity(1).direct_sum(b)
        assert m.entry(0, 0) == ONE
        assert m.entry(1, 1) == ONE - T
        assert m.entry(2, 1) == ONE and m.entry(1, 2) == T
        assert m.entry(0, 1).is_zero() and m.entry(2, 0).is_zero()

    def test_mul_identity(self):
        rng = random.Random(1)
        a = random_matrix(rng, 3, 3, ENTRY_POOL)
        assert a.matmul(PolyMatrix.identity(3)) == a

    def test_kron_scalar_factor(self):
        y = T * Q
        m = PolyMatrix.from_rows([[ONE, T], [ZERO, ONE + Q]])
        assert PolyMatrix.from_rows([[y]]).kron(m) == m.scale(y)

    def test_zero_dimensional(self):
        z = PolyMatrix.zeros(0, 3)
        assert z.matmul(PolyMatrix.zeros(3, 2)) == PolyMatrix.zeros(0, 2)
        assert PolyMatrix.identity(0).det() == ONE

    def test_det_2x2_against_cofactor_oracle(self):
        # Independent oracle: the 2x2 determinant computed by hand as
        # a*d - b*c with plain ring operations.
        a, b, c, d = ONE - T, T, ONE, ZERO
        oracle = a * d - b * c
        assert oracle == -T
        assert PolyMatrix.from_rows([[a, b], [c, d]]).det() == oracle

    def test_det_identity_and_block(self):
        rng = random.Random(7)
        a = random_matrix(rng, 3, 3, ENTRY_POOL)
        b = random_matrix(rng, 2, 2, ENTRY_POOL)
        assert PolyMatrix.identity(4).det() == ONE
        assert a.direct_sum(b).det() == a.det() * b.det()

    def test_det_multiplicative(self):
        rng = random.Random(3)
        for _ in range(6):
            a = random_matrix(rng, 3, 3, ENTRY_POOL)
            b = random_matrix(rng, 3, 3, ENTRY_POOL)
            assert a.matmul(b).det() == a.det() * b.det()

    def test_eval_is_multiplicative(self):
        rng = random.Random(5)
        point = seeded_points(1, 11)[0]
        a = random_matrix(rng, 3, 4, ENTRY_POOL)
        b = random_matrix(rng, 4, 2, ENTRY_POOL)
        ea, eb = a.eval(point), b.eval(point)
        product = a.matmul(b).eval(point)
        for r in range(3):
            for c in range(2):
                assert product[r][c] == sum(ea[r][k] * eb[k][c] for k in range(4))

    def test_inverse_of_unit_det(self):
        rng = random.Random(9)
        # Build unit-determinant matrices as products of elementary and
        # unit-diagonal matrices.
        for trial in range(5):
            n = 4
            m = PolyMatrix.identity(n)
            for _ in range(6):
                kind = rng.randrange(3)
                i, j = rng.sample(range(n), 2)
                if kind == 0:
                    e = PolyMatrix.identity(n) + PolyMatrix(
                        n, n, {(i, j): rng.choice([T, ONE, -Q])}
                    )
                elif kind == 1:
                    e = PolyMatrix(
                        n,
                        n,
                        {
                            (k, k): ONE if k not in (i, j) else ZERO
                            for k in range(n)
                        }
                        | {(i, j): ONE, (j, i): ONE},
                    )
                else:
                    diag = {(k, k): ONE for k in range(n)}
                    diag[(i, i)] = rng.choice([T, T.unit_inverse(), Q, -ONE])
                    e = PolyMatrix(n, n, diag)
                m = m.matmul(e)
            assert m.det().is_unit()
            assert m.inverse().matmul(m) == PolyMatrix.identity(n)

    def test_inverse_rejects_non_unit_det(self):
        m = PolyMatrix.from_rows([[ONE, ZERO], [ZERO, ONE + T]])
        with pytest.raises(LaurentError):
            m.inverse()

    def test_exact_div(self):
        p = (ONE - T) * (ONE + T * Q) * T ** (-2)
        assert exact_div(p, ONE + T * Q) == (ONE - T) * T ** (-2)
        with pytest.raises(LaurentError):
            exact_div(ONE + T, T + Q)


class TestRank:
    def test_identity_rank(self):
        assert rank_probabilistic(PolyMatrix.identity(3), seeded_points(2, 0)) == 3

    def test_zero_rank(self):
        assert rank_probabilistic(PolyMatrix.zeros(2, 2), seeded_points(2, 0)) == 0

    def test_rank_one_example(self):
        # Hand row-reduction oracle: row1 = (1-t, t-t^2) = (1-t)*(1, t) is a
        # multiple of row2 = (1, t), so the symbolic rank is 1.
        m = PolyMatrix.from_rows([[ONE - T, T - T * T], [ONE, T]])
        assert rank_probabilistic(m, seeded_points(3, 0)) == 1

    def test_requires_points(self):
        with pytest.raises(LaurentError):
            rank_probabilistic(PolyMatrix.identity(1), [])

    def test_points_must_be_invertible(self):
        with pytest.raises(LaurentError):
            EvaluationPoint(Fraction(0), Fraction(1))
        with pytest.raises(LaurentError):
            EvaluationPoint(Fraction(2), Fraction(0))


int_coeffs = st.integers(-9, 9)
int_polys = st.dictionaries(exponents, int_coeffs, max_size=5).map(LaurentPoly)
nonzero_polys = polys.filter(lambda p: not p.is_zero())


def assert_int_first(p):
    for c in p.terms.values():
        assert type(c) in (int, Fraction)
        if type(c) is Fraction:
            assert c.denominator != 1


class TestIntegerFirstCoefficients:
    """Differential checks of the int-or-Fraction coefficient contract."""

    @given(polys, polys)
    @settings(max_examples=30, deadline=None)
    def test_never_float_and_integral_values_are_int(self, p, q):
        assert_int_first(p)
        assert_int_first(parse_poly(format_poly(p)))
        if p.is_unit():
            assert_int_first(p.unit_inverse())
        # Sums and products of non-integral Fractions are exact but are
        # not normalised (that cost ~30% on matrix products).
        for value in (p + q, p - q, p * q, -p):
            assert all(type(c) in (int, Fraction) for c in value.terms.values())

    @given(int_polys, int_polys, st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_integer_arithmetic_stays_int(self, p, q, k):
        for value in (p + q, p - q, p * q, -p, p**k):
            assert all(type(c) is int for c in value.terms.values())

    @given(polys, nonzero_polys)
    @settings(max_examples=30, deadline=None)
    def test_exact_div_undoes_multiplication(self, a, b):
        quotient = exact_div(a * b, b)
        assert quotient == a
        assert_int_first(quotient)

    def test_integral_fraction_normalised(self):
        assert type(LaurentPoly.const(Fraction(6, 3)).terms[(0, 0)]) is int
        assert type(LaurentPoly.monomial(-2, 1, 1).unit_inverse().terms[(-1, -1)]) is Fraction
        assert type(LaurentPoly.monomial(Fraction(1, 2), 1).unit_inverse().terms[(-1, 0)]) is int
        assert exact_div(lp("2 + 4*t"), lp("1 + 2*t")) == LaurentPoly.const(2)
        assert exact_div(lp("1 + t"), lp("2 + 2*t")).terms == {(0, 0): Fraction(1, 2)}


small_entries = st.dictionaries(
    st.tuples(st.integers(-1, 1), st.integers(-1, 1)), st.integers(-3, 3), max_size=2
).map(LaurentPoly)


def _sympy_of(p, sympy, t, q):
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * t**a * q**b for (a, b), c in p.terms.items()),
        sympy.Integer(0),
    )


def _sympy_matrix(m, sympy, t, q):
    return sympy.Matrix([[_sympy_of(v, sympy, t, q) for v in row] for row in m.to_rows()])


class TestAgainstSympy:
    """det and inverse compared with sympy on small random matrices."""

    @given(st.integers(1, 3).flatmap(lambda n: st.lists(small_entries, min_size=n * n, max_size=n * n)))
    @settings(max_examples=15, deadline=None)
    def test_det(self, flat):
        sympy = pytest.importorskip("sympy")
        t, q = sympy.symbols("t q")
        n = int(len(flat) ** 0.5)
        m = PolyMatrix.from_rows([flat[r * n:(r + 1) * n] for r in range(n)])
        expected = _sympy_matrix(m, sympy, t, q).det()
        assert sympy.expand(expected - _sympy_of(m.det(), sympy, t, q)) == 0

    @given(
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2), st.sampled_from([T, -Q, ONE - T, T**-1])),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=10, deadline=None)
    def test_inverse(self, steps):
        sympy = pytest.importorskip("sympy")
        t, q = sympy.symbols("t q")
        # Products of elementary and unit-diagonal matrices have unit det.
        m = PolyMatrix.identity(3)
        for i, j, x in steps:
            e = PolyMatrix.identity(3)
            if i != j:
                e = e + PolyMatrix(3, 3, {(i, j): x})
            elif x.is_unit():
                e = PolyMatrix(3, 3, {(k, k): x if k == i else ONE for k in range(3)})
            m = m.matmul(e)
        expected = _sympy_matrix(m, sympy, t, q).inv()
        difference = expected - _sympy_matrix(m.inverse(), sympy, t, q)
        assert all(sympy.simplify(v) == 0 for v in difference)
