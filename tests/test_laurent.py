import itertools
import random
import re
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
    _montante,
    _montante_inverse,
    exact_div,
    format_poly,
    parse_poly,
    rank_probabilistic,
    seeded_points,
)
from lmkit import laurent
from lmkit.repfun import lk_functor
from reference_kernels import (
    dense_det, dense_inverse, dense_montante, evaluated, fraction_pivot_rows, value_at,
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

    def test_the_inverse_of_one_is_one_itself(self):
        # No polynomial is built for it, as in the monomial split of a 0/1
        # coordinate inclusion.
        assert ONE.unit_inverse() is ONE
        assert LaurentPoly.const(1).unit_inverse() is ONE
        assert (-ONE).unit_inverse() == -ONE

    @given(st.integers(-6, 6), st.integers(-4, 4), coeffs.filter(lambda c: c != 0))
    @settings(max_examples=40, deadline=None)
    def test_unit_inverse_produces_inverse(self, a, b, c):
        x = LaurentPoly.monomial(c, a, b)
        assert x * x.unit_inverse() == ONE

    def test_eval(self):
        point = EvaluationPoint(Fraction(2), Fraction(1))
        assert value_at(lp("1 - t^2"), point) == -3
        assert value_at(lp("t^-1"), EvaluationPoint(Fraction(1, 2), Fraction(1))) == 2
        assert value_at(ZERO, point) == 0

    def test_integer_point_stays_exact(self):
        point = EvaluationPoint(2, 3)
        assert type(point.t_value) is Fraction and type(point.q_value) is Fraction
        value = value_at(lp("t^-1 + q^-1"), point)
        assert type(value) is Fraction and value == Fraction(5, 6)

    def test_float_point_rejected(self):
        with pytest.raises(LaurentError):
            EvaluationPoint(0.5, Fraction(2))
        with pytest.raises(LaurentError):
            EvaluationPoint(Fraction(2), 3.0)


class TestGrammar:
    def test_examples_parse(self):
        assert lp("1 - t^2") == ONE - T * T
        assert lp("2*t^-3*q") == LaurentPoly.monomial(2, -3, 1)
        assert lp("0") == ZERO

    def test_zero_denominator_is_a_parse_error(self):
        for text in ["1/0", "t + 3/0*q", "-2/-0"]:
            with pytest.raises(LaurentError, match="zero denominator"):
                parse_poly(text)

    def test_roundtrip_examples(self):
        for text in ["1 - t^2", "2*t^-3*q", "0", "-t + 1/2*q^-2", "3/4"]:
            assert format_poly(lp(text)) == format_poly(lp(format_poly(lp(text))))

    @given(polys)
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_random(self, p):
        assert parse_poly(format_poly(p)) == p


_REFERENCE_TOKEN = re.compile(r"\s*(?:(?P<num>-?\d+)|(?P<var>[tq])|(?P<op>[\^*+/-]))")


def reference_parse_poly(text: str) -> LaurentPoly:
    """The parser before the one-cursor rewrite: signed number tokens, and
    the monomial loop written twice.  Kept to pin where the two differ."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise LaurentError(f"cannot parse polynomial near {text[pos:]!r}")
            break
        tokens.append(m)
        pos = m.end()

    toks = [(m.lastgroup, m.group(m.lastgroup)) for m in tokens]
    i = 0

    def peek():
        return toks[i] if i < len(toks) else (None, None)

    def parse_int() -> int:
        nonlocal i
        kind, val = peek()
        sign = 1
        if kind == "op" and val == "-":
            sign = -1
            i += 1
            kind, val = peek()
        if kind != "num":
            raise LaurentError(f"expected integer in {text!r}")
        i += 1
        return sign * int(val)

    def parse_term(sign: int) -> LaurentPoly:
        nonlocal i
        kind, val = peek()
        coeff = Fraction(sign)
        exps = [0, 0]
        saw_anything = False
        if kind == "num":
            n = parse_int()
            kind, val = peek()
            if kind == "op" and val == "/":
                i += 1
                den = parse_int()
                if den == 0:
                    raise LaurentError(f"zero denominator in {text!r}")
                n = Fraction(n, den)
            coeff *= n
            saw_anything = True
            kind, val = peek()
            while kind == "op" and val == "*":
                i += 1
                var_kind, var = peek()
                if var_kind != "var":
                    raise LaurentError(f"expected t or q after '*' in {text!r}")
                i += 1
                e = 1
                k2, v2 = peek()
                if k2 == "op" and v2 == "^":
                    i += 1
                    e = parse_int()
                exps[0 if var == "t" else 1] += e
                kind, val = peek()
        elif kind == "var":
            while True:
                kind, val = peek()
                if kind != "var":
                    break
                i += 1
                e = 1
                k2, v2 = peek()
                if k2 == "op" and v2 == "^":
                    i += 1
                    e = parse_int()
                exps[0 if val == "t" else 1] += e
                saw_anything = True
                k2, v2 = peek()
                if k2 == "op" and v2 == "*":
                    i += 1
                else:
                    break
        if not saw_anything:
            raise LaurentError(f"empty term in {text!r}")
        return LaurentPoly.monomial(coeff, exps[0], exps[1])

    result = ZERO
    sign = 1
    kind, val = peek()
    if kind == "op" and val in "+-":
        sign = -1 if val == "-" else 1
        i += 1
    result = result + parse_term(sign)
    while i < len(toks):
        kind, val = peek()
        if kind != "op" or val not in "+-":
            raise LaurentError(f"expected '+' or '-' in {text!r}")
        i += 1
        result = result + parse_term(-1 if val == "-" else 1)
    return result


def parse_outcome(parser, text):
    try:
        return parser(text)
    except LaurentError:
        return None


# Where the two parsers disagree on whether a string parses.  Now parsed:
# glued subtraction ("t-1", which the reference reads as t then the number
# -1), and a second sign followed by a space and a number ("+- 1").  Now
# rejected: a "*" with no monomial after it, and a doubled sign in an
# exponent or a denominator ("t^--1").
GLUED_SUBTRACTION = re.compile(r"[\dtq]\s*-\d")
SPACED_SIGNED_NUMBER = re.compile(r"[+-]\s*-\s+\d")
DANGLING_STAR = re.compile(r"\*\s*(?:[^\stq]|$)")
DOUBLED_SIGN = re.compile(r"[\^/]\s*-\s*-")


class TestParserAgainstReference:
    ALPHABET = ["1", "0", "t", "q", "^", "*", "+", "-", "/", "-1", "2", " "]

    def test_every_short_string(self):
        # Every string of up to 4 tokens over the alphabet: where both
        # parsers give a value the values agree, and every disagreement on
        # whether the input parses lies in one of the classes above.
        now_parse, now_rejected, total = [], [], 0
        for k in range(1, 5):
            for tokens in itertools.product(self.ALPHABET, repeat=k):
                text = "".join(tokens)
                total += 1
                old = parse_outcome(reference_parse_poly, text)
                new = parse_outcome(parse_poly, text)
                if old is not None and new is not None:
                    assert old == new, text
                elif new is not None:
                    now_parse.append(text)
                elif old is not None:
                    now_rejected.append(text)
        for text in now_parse:
            assert GLUED_SUBTRACTION.search(text) or SPACED_SIGNED_NUMBER.search(text), text
        for text in now_rejected:
            assert DANGLING_STAR.search(text) or DOUBLED_SIGN.search(text), text
        assert (total, len(now_parse), len(now_rejected)) == (22620, 938, 100)

    def test_one_example_per_class(self):
        for text, value in [
            ("t-1", T - 1),
            ("q-2", Q - 2),
            ("2-1", ONE),
            ("t -1", T - 1),
            ("-t-1", -T - 1),
            ("+- 1", -ONE),
        ]:
            assert parse_outcome(reference_parse_poly, text) is None, text
            assert parse_poly(text) == value, text
        for text in ["t*", "t*+1", "t^--1", "1/--1"]:
            assert parse_outcome(reference_parse_poly, text) is not None, text
            with pytest.raises(LaurentError):
                parse_poly(text)
        # Unchanged: a signed coefficient after a sign, and signed exponents
        # and denominators.
        for text, value in [
            ("t - -1", T + 1),
            ("t^-1", T.unit_inverse()),
            ("1/-2*q", LaurentPoly.monomial(Fraction(-1, 2), 0, 1)),
        ]:
            assert parse_poly(text) == reference_parse_poly(text) == value, text


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
        ea, eb = evaluated(a, point), evaluated(b, point)
        product = evaluated(a.matmul(b), point)
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

    def test_pivot_prefers_a_unit_entry(self):
        # Row 0 is nonzero at every seeded point but no unit; row 1 is.
        m = PolyMatrix.from_rows([[lp("t^-1 - t^-2")], [lp("t^-2")], [lp("t^-1 - t^-2")]])
        for point in seeded_points(4, 0):
            assert m.pivot_rows_at(point) == [1]

    def test_requires_points(self):
        with pytest.raises(LaurentError):
            rank_probabilistic(PolyMatrix.identity(1), [])

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 9), st.data())
    @settings(max_examples=80, deadline=None)
    def test_pivots_mod_p_are_the_pivots_over_fraction(self, rows, cols, seed, data):
        # Entries with Fraction coefficients and negative exponents; some
        # columns repeat a combination of others, so ranks fall short.
        row = st.lists(st.sampled_from(UNIT_POOL) | polys, min_size=cols, max_size=cols)
        body = data.draw(st.lists(row, min_size=rows, max_size=rows))
        for c in data.draw(st.lists(st.integers(0, cols - 1), max_size=2)):
            weight = data.draw(st.sampled_from(UNIT_POOL))
            for r in body:
                r[c] = r[c] + weight * r[(c + 1) % cols]
        m = PolyMatrix.from_rows(body)
        for point in seeded_points(2, seed):
            assert m.pivot_rows_at(point) == fraction_pivot_rows(m, point)

    def test_a_point_with_no_image_mod_p_gives_no_pivots(self, monkeypatch):
        m = PolyMatrix.from_rows([[ONE, T], [Q, ONE - Q], [T * Q, ONE]])
        point = EvaluationPoint(Fraction(3, 7), Fraction(2))
        assert m.pivot_rows_at(point) == fraction_pivot_rows(m, point) == [0, 2]
        monkeypatch.setattr(laurent, "_PRIME", 7)
        assert m.pivot_rows_at(point) == [] and m.rank_at(point) == 0
        other = EvaluationPoint(Fraction(2), Fraction(3))
        assert m.pivot_rows_at(other) == fraction_pivot_rows(m, other) == [0, 2]

    def test_seeded_points_are_stored(self):
        # One tuple per (count, seed), returned again by every call, so no
        # caller can change another's points; the values stay those of
        # the seeded generator.
        points = seeded_points(3, 0)
        assert type(points) is tuple and seeded_points(3, 0) is points
        assert (points[0].t_value, points[0].q_value) == (Fraction(8), Fraction(9, 4))
        assert seeded_points(1, 0) == points[:1]

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

    def test_division_by_a_signed_unit_builds_no_fraction(self, monkeypatch):
        built = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        num = lp("3*t^2*q - 6*t^-1 + 9*q^4")
        monkeypatch.setattr(Fraction, "__new__", counting)
        quotient = exact_div(num, -(T**2) * Q)
        assert built == []
        assert quotient.terms == {(0, 0): -3, (-3, -1): 6, (-2, 3): -9}
        assert all(type(c) is int for c in quotient.terms.values())
        # An unnormalised 3 over 1 comes out as an int all the same.
        assert type(exact_div(LaurentPoly({(1, 0): Fraction(3)}) * ONE_AS_FRACTION, -T).terms[(0, 0)]) is int

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
    """det, inverse, matmul and rank_at compared with sympy on small random
    matrices."""

    @given(st.integers(1, 3).flatmap(lambda n: st.lists(small_entries, min_size=n * n, max_size=n * n)))
    @settings(max_examples=15, deadline=None)
    def test_det(self, flat):
        sympy = pytest.importorskip("sympy")
        t, q = sympy.symbols("t q")
        n = int(len(flat) ** 0.5)
        m = PolyMatrix.from_rows([flat[r * n:(r + 1) * n] for r in range(n)])
        expected = _sympy_matrix(m, sympy, t, q).det()
        assert sympy.expand(expected - _sympy_of(m.det(), sympy, t, q)) == 0

    def test_lk_generator_det(self):
        sympy = pytest.importorskip("sympy")
        t, q = sympy.symbols("t q")
        lk = lk_functor()
        for n in range(2, 5):
            for i in range(1, n):
                for letter in (i, -i):
                    m = lk.gen_matrix(n, letter)
                    expected = _sympy_matrix(m, sympy, t, q).det()
                    got = _sympy_of(m.det(), sympy, t, q)
                    assert sympy.simplify(expected - got) == 0, (n, letter)

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

    @given(st.integers(1, 4), st.integers(1, 4), st.booleans(), st.integers(0, 9), st.data())
    @settings(max_examples=25, deadline=None)
    def test_rank_at(self, rows, cols, deficient, seed, data):
        # Rectangular shapes; with `deficient`, one more row that is a
        # combination of the others, so the rank is below the row count.
        sympy = pytest.importorskip("sympy")
        t, q = sympy.symbols("t q")
        row = st.lists(small_entries, min_size=cols, max_size=cols)
        body = data.draw(st.lists(row, min_size=rows, max_size=rows))
        if deficient:
            weights = data.draw(st.lists(small_entries, min_size=rows, max_size=rows))
            body.append([sum((w * r[c] for w, r in zip(weights, body)), ZERO) for c in range(cols)])
        m = PolyMatrix.from_rows(body)
        point = seeded_points(1, seed)[0]
        values = {t: sympy.Rational(point.t_value.numerator, point.t_value.denominator),
                  q: sympy.Rational(point.q_value.numerator, point.q_value.denominator)}
        expected = _sympy_matrix(m, sympy, t, q).subs(values).rank()
        assert m.rank_at(point) == expected


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


def _sparse_rows(m, extra=0):
    """The rows of m as {column: entry}, followed by the unit vector e_r
    past column `extra` when extra is set ([A | I] for extra = n)."""
    rows = [{extra + r: ONE} if extra else {} for r in range(m.rows)]
    for (r, c), p in m.entries.items():
        rows[r][c] = p
    return rows


def _full_det(m):
    """The last pivot of the sparse Montante pass over the whole matrix."""
    return _montante(_sparse_rows(m), m.rows, complete=False)


class TestLocalSupportElimination:
    """inverse() and det() eliminate only the moved columns, on sparse rows;
    the dense Montante elimination of the whole matrix is the reference."""

    @given(local_support_matrices())
    @settings(max_examples=150, deadline=None)
    def test_matches_full_elimination(self, m):
        assert m.det() == _full_det(m) == dense_det(m)
        inverse = _outcome(PolyMatrix.inverse, m)
        assert inverse == _outcome(_montante_inverse, m) == _outcome(dense_inverse, m)
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
                        assert m.inverse() == _montante_inverse(m) == dense_inverse(m)
                        assert m.det() == _full_det(m) == dense_det(m)


def _block_diagonal(k):
    """k invertible 2×2 blocks down the diagonal, cycling through a block
    with a non-unit leading entry, one that needs a row swap and one with
    a zero below its diagonal."""
    blocks = [[[ONE + T, T], [ONE, ONE]], [[ZERO, T], [Q, ONE]], [[T * Q, ONE - T], [ZERO, -T]]]
    entries = {}
    for b in range(k):
        for r, row in enumerate(blocks[b % 3]):
            for c, v in enumerate(row):
                entries[(2 * b + r, 2 * b + c)] = v
    return PolyMatrix(2 * k, 2 * k, entries)


class TestDeterminantPass:
    def test_block_diagonal_costs_linear_ring_multiplications(self, monkeypatch):
        # A row with no entry in the pivot column is not rewritten, so each
        # block adds the same number of products to inverse() and det():
        # the counts are affine in the number of blocks, not quadratic.
        calls = []
        mul = LaurentPoly.__mul__
        monkeypatch.setattr(LaurentPoly, "__mul__", lambda p, q: calls.append(1) or mul(p, q))
        counts = {}
        for k in (6, 12, 24):
            m = _block_diagonal(k)
            calls.clear()
            inverse = m.inverse()
            det = m.det()
            counts[k] = len(calls)
            assert m.matmul(inverse) == PolyMatrix.identity(2 * k)
            assert det == dense_det(m)
        assert counts[24] - counts[12] == 2 * (counts[12] - counts[6]) > 0

    @given(local_support_matrices())
    @settings(max_examples=100, deadline=None)
    def test_rows_below_give_the_complete_pass_determinant(self, m):
        # The complete pass clears every other row, the determinant pass
        # only the rows below each pivot: the same determinant, sparse or
        # dense (where a zero column past n selects the complete pass).
        below = _montante(_sparse_rows(m), m.rows, complete=False)
        assert below == _montante(_sparse_rows(m), m.rows, complete=True)
        padded = [row + [ZERO] for row in m.to_rows()]
        assert below == dense_montante(m.to_rows(), m.rows) == dense_montante(padded, m.rows)

    @given(local_support_matrices())
    @settings(max_examples=60, deadline=None)
    def test_complete_pass_rows_match_the_dense_pass(self, m):
        # Every row of [A | I] after the complete pass, rows left behind by
        # the sparse one brought up to the last pivot included.
        n = m.rows
        rows = _sparse_rows(m, n)
        dense = [row + [ONE if r == c else ZERO for c in range(n)] for r, row in enumerate(m.to_rows())]
        det = _montante(rows, n, complete=True)
        assert det == dense_montante(dense, n)
        if det:
            assert [{c: v for c, v in enumerate(row) if v} for row in dense] == rows


# 1 stored with a Fraction coefficient, as unnormalised products leave it.
ONE_AS_FRACTION = LaurentPoly.const(Fraction(1, 2)) * LaurentPoly.const(2)
UNIT_POOL = [ZERO, ZERO, ONE, ONE, ONE_AS_FRACTION, -ONE, T, -T, ONE - T, T * Q, ONE + Q]


@st.composite
def pool_matrices(draw, rows, cols):
    entries = {(r, c): draw(st.sampled_from(UNIT_POOL)) for r in range(rows) for c in range(cols)}
    return PolyMatrix(rows, cols, entries)


def _dense_product(a, b):
    """Reference: every entry summed term by term, with no shortcut."""
    rows = []
    for r in range(a.rows):
        row = []
        for c in range(b.cols):
            total = ZERO
            for k in range(a.cols):
                total = total + a.entry(r, k) * b.entry(k, c)
            row.append(total)
        rows.append(row)
    return rows


def _dense_kron(a, b):
    return [
        [a.entry(r // b.rows, c // b.cols) * b.entry(r % b.rows, c % b.cols) for c in range(a.cols * b.cols)]
        for r in range(a.rows * b.rows)
    ]


def _snapshot(m):
    return {key: dict(p.terms) for key, p in m.entries.items()}


def _assert_canonical(m, rows, cols, dense):
    assert (m.rows, m.cols) == (rows, cols)
    assert all(p.terms for p in m.entries.values())
    assert all(0 <= r < rows and 0 <= c < cols for r, c in m.entries)
    assert m.to_rows() == dense


class TestUnitAwareKernels:
    """matmul, kron and scale reuse a factor's entry polynomial when the other
    factor is 1; a naive dense reference that multiplies everything is the
    oracle, and the operands must come out unchanged."""

    @given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matmul_matches_dense_reference(self, rows, inner, cols, data):
        a = data.draw(pool_matrices(rows, inner))
        b = data.draw(pool_matrices(inner, cols))
        before = _snapshot(a), _snapshot(b)
        _assert_canonical(a.matmul(b), rows, cols, _dense_product(a, b))
        assert (_snapshot(a), _snapshot(b)) == before

    @given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.data())
    @settings(max_examples=40, deadline=None)
    def test_kron_matches_dense_reference(self, r1, c1, r2, c2, data):
        a = data.draw(pool_matrices(r1, c1))
        b = data.draw(pool_matrices(r2, c2))
        before = _snapshot(a), _snapshot(b)
        _assert_canonical(a.kron(b), r1 * r2, c1 * c2, _dense_kron(a, b))
        assert (_snapshot(a), _snapshot(b)) == before

    @given(st.integers(0, 3), st.integers(0, 3), st.sampled_from(UNIT_POOL), st.data())
    @settings(max_examples=40, deadline=None)
    def test_scale_matches_dense_reference(self, rows, cols, p, data):
        m = data.draw(pool_matrices(rows, cols))
        before = _snapshot(m)
        dense = [[v * p for v in row] for row in m.to_rows()]
        _assert_canonical(m.scale(p), rows, cols, dense)
        assert _snapshot(m) == before

    def test_cancelling_sums_leave_no_zero_entry(self):
        a = PolyMatrix.from_rows([[T, T], [ONE, ZERO]])
        b = PolyMatrix.from_rows([[ONE, Q], [-ONE, -Q]])
        product = a.matmul(b)
        assert (0, 0) not in product.entries and (0, 1) not in product.entries
        assert product.to_rows() == _dense_product(a, b)

    def test_multiplying_by_one_makes_no_ring_multiplication(self, monkeypatch):
        rng = random.Random(3)
        m = random_matrix(rng, 4, 4, ENTRY_POOL)
        calls = []
        mul = LaurentPoly.__mul__

        def counting(p, q):
            calls.append((p, q))
            return mul(p, q)

        monkeypatch.setattr(LaurentPoly, "__mul__", counting)
        assert type(ONE_AS_FRACTION.terms[(0, 0)]) is Fraction
        assert PolyMatrix.identity(4).matmul(m) == m
        assert m.matmul(PolyMatrix.identity(4)) == m
        assert m.scale(ONE) is m and m.scale(ONE_AS_FRACTION) is m
        assert PolyMatrix.identity(2).kron(m) == m.direct_sum(m)
        assert calls == []
        assert m.matmul(m).to_rows() == _dense_product(m, m) and calls

    def test_a_product_with_the_identity_is_the_other_factor(self, monkeypatch):
        m = random_matrix(random.Random(3), 4, 3, ENTRY_POOL)
        calls = []
        for op in ("__mul__", "__add__"):
            original = getattr(LaurentPoly, op)
            monkeypatch.setattr(
                LaurentPoly, op, lambda p, q, _op=op, _f=original: calls.append(_op) or _f(p, q)
            )
        assert PolyMatrix.identity(4).matmul(m) is m
        assert m.matmul(PolyMatrix.identity(3)) is m
        assert PolyMatrix.identity(4).matmul(PolyMatrix.identity(4)).is_identity
        assert calls == []
        # A matrix equal to the identity but not made by identity() is
        # multiplied out, as no factor is scanned for the unit; each product
        # entry is an entry of m times a stored ONE, reused with no ring
        # multiplication or addition.
        left, right = (PolyMatrix(n, n, {(i, i): ONE for i in range(n)}) for n in (4, 3))
        assert left == PolyMatrix.identity(4) and not left.is_identity
        for product in (left.matmul(m), m.matmul(right)):
            assert product == m and product is not m
            assert all(product.entries[k] is p for k, p in m.entries.items())
        assert calls == []

    def test_identity_and_zeros_check_their_dimensions(self):
        for make in (PolyMatrix.identity, lambda n: PolyMatrix.zeros(n, 2), lambda n: PolyMatrix.zeros(2, n)):
            with pytest.raises(LaurentError, match="negative matrix dimension"):
                make(-1)
        assert PolyMatrix.zeros(0, 3).entries == {} and PolyMatrix.identity(0).is_identity
