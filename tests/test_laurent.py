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
    _bareiss_det,
    _montante_inverse,
    exact_div,
    format_poly,
    parse_poly,
    rank_probabilistic,
    seeded_points,
)
from lmkit.repfun import lk_functor


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

    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.data())
    @settings(max_examples=15, deadline=None)
    def test_matmul(self, rows, inner, cols, data):
        sympy = pytest.importorskip("sympy")
        t, q = sympy.symbols("t q")

        def matrix(r, c):
            row = st.lists(small_entries, min_size=c, max_size=c)
            return PolyMatrix.from_rows(data.draw(st.lists(row, min_size=r, max_size=r)))

        a, b = matrix(rows, inner), matrix(inner, cols)
        expected = _sympy_matrix(a, sympy, t, q) * _sympy_matrix(b, sympy, t, q)
        difference = expected - _sympy_matrix(a.matmul(b), sympy, t, q)
        assert difference.shape == (a.rows, b.cols)
        assert all(sympy.expand(v) == 0 for v in difference)


LOCAL_POOL = [ZERO, ZERO, ONE, -ONE, T, -Q, ONE - T, ONE + Q, T * Q, LaurentPoly.const(2)]


@st.composite
def local_support_matrices(draw):
    """I + E with E supported on a column subset C: the columns outside C
    are unit vectors.  The block M[C,C] is random (usually a non-unit
    determinant), unimodular (a product of elementary, unit-diagonal and
    swap matrices, so zero diagonal entries are common), or singular (a
    zero column of M[C,C], or a column of M repeated in another)."""
    size = draw(st.sampled_from(["none", "one", "some", "all"]))
    n = draw(st.integers(3 if size == "some" else 1, 6))
    if size == "none":
        moved = []
    elif size == "one":
        moved = [draw(st.integers(0, n - 1))]
    elif size == "all":
        moved = list(range(n))
    else:
        moved = sorted(draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=n - 1)))
    k = len(moved)
    kind = draw(st.sampled_from(["random", "unimodular", "singular"]))
    if kind == "unimodular":
        block = PolyMatrix.identity(k)
        index = st.integers(0, max(k - 1, 0))
        for i, j, x in draw(st.lists(st.tuples(index, index, st.sampled_from(LOCAL_POOL)), max_size=6)):
            if i != j and x.is_zero():
                swap = {(r, r): ONE for r in range(k) if r not in (i, j)}
                step = PolyMatrix(k, k, swap | {(i, j): ONE, (j, i): ONE})
            elif i != j:
                step = PolyMatrix.identity(k) + PolyMatrix(k, k, {(i, j): x})
            elif x.is_unit():
                step = PolyMatrix(k, k, {(r, r): x if r == i else ONE for r in range(k)})
            else:
                continue
            block = block.matmul(step)
        columns = [[block.entry(r, c) for r in range(k)] for c in range(k)]
    else:
        columns = [[draw(st.sampled_from(LOCAL_POOL)) for _ in range(k)] for _ in range(k)]
    entries = {(j, j): ONE for j in range(n) if j not in moved}
    for c, j in enumerate(moved):
        for r, v in zip(moved, columns[c]):
            entries[(r, j)] = v
        for r in range(n):
            if r not in moved:
                entries[(r, j)] = draw(st.sampled_from(LOCAL_POOL))
    if kind == "singular" and k:
        src, dst = draw(st.sampled_from(moved)), draw(st.sampled_from(moved))
        for r in range(n):
            if src == dst and r not in moved:
                continue
            entries[(r, dst)] = ZERO if src == dst else entries.get((r, src), ZERO)
    return PolyMatrix(n, n, entries)


def _outcome(routine, m):
    try:
        return routine(m)
    except LaurentError as exc:
        return str(exc)


class TestLocalSupportElimination:
    """inverse() and det() eliminate only the moved columns; the full
    Montante and Bareiss eliminations of the whole matrix are the reference."""

    @given(local_support_matrices())
    @settings(max_examples=150, deadline=None)
    def test_matches_full_elimination(self, m):
        assert m.det() == _bareiss_det(m)
        inverse = _outcome(PolyMatrix.inverse, m)
        assert inverse == _outcome(_montante_inverse, m)
        if isinstance(inverse, PolyMatrix):
            assert m.matmul(inverse) == PolyMatrix.identity(m.rows)

    def test_zero_diagonal_columns_are_moved(self):
        # Column 1 is zero, so M is singular although no stored entry of
        # that column differs from the identity.
        m = PolyMatrix(3, 3, {(0, 0): ONE, (2, 2): ONE, (2, 0): T})
        assert m.det() == ZERO
        with pytest.raises(LaurentError, match="singular"):
            m.inverse()
        swap = PolyMatrix(3, 3, {(0, 1): ONE, (1, 0): ONE, (2, 2): ONE, (2, 0): T})
        assert swap.det() == -ONE
        assert swap.inverse() == _montante_inverse(swap)

    def test_non_unit_message_names_the_determinant(self):
        # The full elimination swaps rows twice, the elimination of the
        # moved columns 0 and 2 once; both name det M = -(1 + t).
        m = PolyMatrix.from_rows([[ZERO, ZERO, ONE + T], [T, ONE, Q], [ONE, ZERO, ONE]])
        message = "determinant -1 - t is not a unit; no inverse over the ring"
        assert m.det() == -(ONE + T)
        for routine in (PolyMatrix.inverse, _montante_inverse):
            with pytest.raises(LaurentError) as exc:
                routine(m)
            assert str(exc.value) == message

    def test_lk_generators(self):
        lk = lk_functor()
        for n in range(2, 9):
            for i in range(1, n):
                for letter in (i, -i):
                    m = lk.gen_matrix(n, letter)
                    assert m.matmul(m.inverse()) == PolyMatrix.identity(m.rows)
                    if n <= 5:
                        assert m.inverse() == _montante_inverse(m)
                        assert m.det() == _bareiss_det(m)
