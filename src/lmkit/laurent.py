"""Exact arithmetic in the Laurent polynomial ring Q[t^{±1}, q^{±1}].

Polynomials are stored sparsely as a mapping from exponent pairs (a, b),
meaning t^a * q^b, to nonzero rational coefficients.  Coefficients are
integer-first: an integral value is a plain int, and only a non-integral
one is a Fraction.  Division goes through Fraction and is normalised back,
so int / int never yields a float, and matrices with integer coefficients
(Burau, Tong-Yang-Ma, Lawrence-Krammer, Long-Moody) multiply ints.
Everything downstream (group rings, representation matrices, splitting
certificates) is built on this ring, so all identities checked by the
package are exact, never floating point.

Matrices over the ring act on column vectors: entry (r, c) is the
coefficient of basis vector r in the image of basis vector c, and the
matrix of a composite g∘f is mat(g) * mat(f).

Polynomials and matrices are values: no operation mutates one after it is
built.  So the matrix kernels share entry polynomials instead of copying
them: a product, Kronecker product or scaling multiplies by a factor 1 by
returning the other factor unchanged, and a product entry with a single
contribution stores that polynomial itself.  Identity, permutation and
0/1 selection blocks (stabilizations, splittings, routers) therefore cost
no ring multiplication.

One sparse fraction-free elimination, _montante, yields determinants and
inverses, and one completion, complete_inverse, extends the inverse of a
pivot block to PolyMatrix.inverse and to every split.  Ranks at
a point are read mod a prime: rank mod p <= rank over Q <= generic rank.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction


class LaurentError(ValueError):
    pass


def _fr(x) -> int | Fraction:
    """An exact rational as a coefficient: int when integral, else Fraction."""
    if isinstance(x, int):
        return int(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise LaurentError(f"not an exact rational: {x!r}")


def _quo(a, b) -> int | Fraction:
    """The exact quotient a / b of two coefficients, normalised; b = ±1,
    as in a division by a unit pivot ±t^a q^b, builds no Fraction."""
    return _fr(a * b if b in (1, -1) else Fraction(a, b))


class LaurentPoly:
    """A Laurent polynomial in t and q with int-or-Fraction coefficients.

    Canonical form: no zero coefficients are stored, so equality is
    dictionary equality and the zero polynomial has an empty term map.
    Instances are immutable; all operations return new values, which makes
    them safe to share between threads and cache freely.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                c = _fr(coeff)
                if c != 0:
                    clean[(int(exps[0]), int(exps[1]))] = c
        self.terms = clean
        self._hash = None

    # -- constructors ------------------------------------------------

    @staticmethod
    def const(c) -> "LaurentPoly":
        return LaurentPoly({(0, 0): _fr(c)})

    @staticmethod
    def monomial(c, a: int, b: int = 0) -> "LaurentPoly":
        return LaurentPoly({(a, b): _fr(c)})

    # -- ring structure ----------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return _wrap(terms)

    __radd__ = __add__

    def __neg__(self):
        return _wrap({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) - c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return _wrap(terms)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        a, b = self.terms, other.terms
        if not a or not b:
            return ZERO
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        for (ea, eb), c in a.items():
            for (fa, fb), d in b.items():
                key = (ea + fa, eb + fb)
                s = out.get(key, 0) + c * d
                if s:
                    out[key] = s
                else:
                    del out[key]
        return _wrap(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise LaurentError("exponent must be an integer")
        if k < 0:
            return self.unit_inverse() ** (-k)
        result = ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _coerce(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    # -- predicates and unit arithmetic --------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_unit(self) -> bool:
        """Units of Q[t^{±1}, q^{±1}] are the nonzero single-term polynomials."""
        return len(self.terms) == 1

    def unit_inverse(self) -> "LaurentPoly":
        if not self.is_unit():
            raise LaurentError(f"not invertible: {self}")
        if self.terms == _ONE_TERMS:
            return ONE
        ((a, b), c), = self.terms.items()
        return LaurentPoly({(-a, -b): _quo(1, c)})

    def exponent_bounds(self):
        """Componentwise (min, max) of the exponent vectors; None if zero."""
        if not self.terms:
            return None
        ta = [e[0] for e in self.terms]
        qa = [e[1] for e in self.terms]
        return (min(ta), min(qa)), (max(ta), max(qa))

    # -- text form -----------------------------------------------------

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"LaurentPoly({format_poly(self)!r})"


def _wrap(terms: dict) -> LaurentPoly:
    p = LaurentPoly.__new__(LaurentPoly)
    p.terms = terms
    p._hash = None
    return p


def _matrix(rows: int, cols: int, entries: dict) -> "PolyMatrix":
    """A PolyMatrix over entries known to be nonzero and in range."""
    m = PolyMatrix.__new__(PolyMatrix)
    m.rows, m.cols, m.entries, m.is_identity = rows, cols, entries, False
    return m


def _mul(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """p * q, with no ring multiplication when a factor is 1: the other
    factor is returned itself, which is safe because values are never
    mutated."""
    if p.terms == _ONE_TERMS:
        return q
    if q.terms == _ONE_TERMS:
        return p
    return p * q


def _coerce(x) -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentPoly.const(x) if x else ZERO
    raise LaurentError(f"cannot coerce {x!r} to LaurentPoly")


_PRIME = 2**61 - 1  # the modulus of pivot_rows_at and of braidcat's residue row

ZERO = LaurentPoly()
ONE = LaurentPoly.const(1)
_ONE_TERMS = ONE.terms
T = LaurentPoly.monomial(1, 1, 0)
Q = LaurentPoly.monomial(1, 0, 1)
T_INV = LaurentPoly.monomial(1, -1, 0)


@dataclass(frozen=True)
class EvaluationPoint:
    """A rational substitution point for t and q; both must be nonzero.

    Integers are stored as Fraction, so that t**-1 and q**-1 stay exact; a
    float or any other non-rational value is rejected."""

    t_value: Fraction
    q_value: Fraction

    def __post_init__(self):
        for name in ("t_value", "q_value"):
            value = getattr(self, name)
            if not isinstance(value, (int, Fraction)):
                raise LaurentError(f"evaluation point needs rational values, got {value!r}")
            object.__setattr__(self, name, Fraction(value))
        if self.t_value == 0 or self.q_value == 0:
            raise LaurentError("evaluation requires t and q nonzero")


@lru_cache(maxsize=64)
def seeded_points(count: int, seed: int) -> tuple[EvaluationPoint, ...]:
    """Deterministic tuple of random nonzero rational points.

    Values avoid 0 and ±1 so that evaluations do not collapse units.  The
    tuple is stored, so every caller with the same seed sees the same point
    objects, which the per-point tables then match by identity.
    """
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        t = Fraction(rng.choice([-1, 1]) * rng.randint(2, 9), rng.randint(1, 7))
        q = Fraction(rng.choice([-1, 1]) * rng.randint(2, 9), rng.randint(1, 7))
        if abs(t) in (0, 1) or abs(q) in (0, 1):
            continue
        points.append(EvaluationPoint(t, q))
    return tuple(points)


# ---------------------------------------------------------------------------
# Text grammar
#
#   poly    := ["+"|"-"] term (("+"|"-") term)*
#   term    := (coeff | mono) ("*" mono)*
#   mono    := ("t"|"q") ("^" integer)?
#   coeff   := integer ("/" integer)?
#   integer := ["-"] digits
#
# Whitespace may separate any two tokens, and a number token is unsigned, so
# "t-1" and "t - 1" are both t minus 1; "t - -1" is t plus 1.
#
# Printing and parsing round-trip: terms are emitted in ascending order of
# the exponent pair (t first, then q).
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+|[tq^*+/-])")


def parse_poly(text: str) -> LaurentPoly:
    """The polynomial that `text` spells in the grammar above; anything
    else, such as a dangling "*" or a doubled sign in an exponent, raises
    LaurentError."""
    tokens = []
    pos = 0
    while text[pos:].strip():
        m = _TOKEN.match(text, pos)
        if not m:
            raise LaurentError(f"cannot parse polynomial near {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    # A stack: the next token is last, and None marks the end of the text.
    tokens = [None, *reversed(tokens)]

    def accept(token) -> bool:
        if tokens[-1] != token:
            return False
        tokens.pop()
        return True

    def integer() -> int:
        sign = -1 if accept("-") else 1
        digits = tokens.pop()
        if digits is None or not digits.isdigit():
            raise LaurentError(f"expected integer in {text!r}")
        return sign * int(digits)

    def mono(exps: list[int]) -> None:
        var = tokens.pop()
        if var not in ("t", "q"):
            raise LaurentError(f"expected t or q in {text!r}")
        exps[0 if var == "t" else 1] += integer() if accept("^") else 1

    def term(sign: int) -> LaurentPoly:
        coeff = Fraction(sign)
        exps = [0, 0]
        if tokens[-1] in ("t", "q"):
            mono(exps)
        else:
            coeff *= integer()
            if accept("/"):
                den = integer()
                if den == 0:
                    raise LaurentError(f"zero denominator in {text!r}")
                coeff /= den
        while accept("*"):
            mono(exps)
        return LaurentPoly.monomial(coeff, exps[0], exps[1])

    def signed_term() -> LaurentPoly:
        if accept("-"):
            return term(-1)
        accept("+")
        return term(1)

    result = signed_term()
    while tokens[-1] is not None:
        if tokens[-1] not in ("+", "-"):
            raise LaurentError(f"expected '+' or '-' in {text!r}")
        result = result + signed_term()
    return result


def _format_term(exps, coeff: Fraction) -> str:
    a, b = exps
    monos = []
    if a:
        monos.append("t" if a == 1 else f"t^{a}")
    if b:
        monos.append("q" if b == 1 else f"q^{b}")
    mag = abs(coeff)
    if not monos:
        return str(mag)
    if mag == 1:
        return "*".join(monos)
    return str(mag) + "*" + "*".join(monos)


def format_poly(p: LaurentPoly) -> str:
    if not p.terms:
        return "0"
    parts = []
    for exps in sorted(p.terms):
        coeff = p.terms[exps]
        body = _format_term(exps, coeff)
        if not parts:
            parts.append(body if coeff > 0 else "-" + body)
        else:
            parts.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Exact division (the divisions of the Montante elimination)
# ---------------------------------------------------------------------------


def exact_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact quotient num/den in the Laurent ring, as _montante divides.

    Raises LaurentError if den does not divide num.  Division is reduced to
    ordinary-polynomial long division by the leading monomial in lex order;
    monomial factors are split off first, which is always possible because
    monomials are units here.
    """
    if den.is_zero():
        raise LaurentError("division by zero")
    if num.is_zero():
        return ZERO
    if den.is_unit():
        ((a, b), c), = den.terms.items()
        return _wrap({(ea - a, eb - b): _quo(v, c) for (ea, eb), v in num.terms.items()})
    nmin = num.exponent_bounds()[0]
    dmin = den.exponent_bounds()[0]
    # Shift both operands to ordinary polynomials (min exponents 0).
    n_terms = {(a - nmin[0], b - nmin[1]): c for (a, b), c in num.terms.items()}
    d_terms = {(a - dmin[0], b - dmin[1]): c for (a, b), c in den.terms.items()}
    quot: dict = {}
    lead_d = max(d_terms)
    cd = d_terms[lead_d]
    while n_terms:
        lead_n = max(n_terms)
        ea, eb = lead_n[0] - lead_d[0], lead_n[1] - lead_d[1]
        if ea < 0 or eb < 0:
            raise LaurentError("not an exact division")
        c = _quo(n_terms[lead_n], cd)
        quot[(ea, eb)] = c
        for (fa, fb), d in d_terms.items():
            key = (fa + ea, fb + eb)
            s = n_terms.get(key, 0) - c * d
            if s:
                n_terms[key] = s
            else:
                n_terms.pop(key, None)
    shift = (nmin[0] - dmin[0], nmin[1] - dmin[1])
    return _wrap({(a + shift[0], b + shift[1]): c for (a, b), c in quot.items()})


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------


class PolyMatrix:
    """A rows × cols matrix over the Laurent ring, stored sparsely.

    Zero-sized matrices (0×0, 0×k, k×0) are legal and represent maps to or
    from the zero module.  The dense row-major entry list is available via
    to_rows() for serialization.  is_identity marks what identity() makes.
    """

    __slots__ = ("rows", "cols", "entries", "is_identity")

    def __init__(self, rows: int, cols: int, entries: dict | None = None):
        if rows < 0 or cols < 0:
            raise LaurentError("negative matrix dimension")
        self.rows = rows
        self.cols = cols
        self.is_identity = False
        clean = {}
        if entries:
            for (r, c), p in entries.items():
                p = _coerce(p)
                if not (0 <= r < rows and 0 <= c < cols):
                    raise LaurentError(f"entry ({r},{c}) out of range")
                if p.terms:
                    clean[(r, c)] = p
        self.entries = clean

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_rows(rows_data) -> "PolyMatrix":
        rows = len(rows_data)
        cols = len(rows_data[0]) if rows else 0
        entries = {}
        for r, row in enumerate(rows_data):
            if len(row) != cols:
                raise LaurentError("ragged rows")
            for c, v in enumerate(row):
                p = _coerce(v) if not isinstance(v, LaurentPoly) else v
                if p.terms:
                    entries[(r, c)] = p
        return PolyMatrix(rows, cols, entries)

    @staticmethod
    def identity(n: int) -> "PolyMatrix":
        if n < 0:
            raise LaurentError("negative matrix dimension")
        m = _matrix(n, n, {(i, i): ONE for i in range(n)})
        m.is_identity = True
        return m

    @staticmethod
    def zeros(rows: int, cols: int) -> "PolyMatrix":
        if rows < 0 or cols < 0:
            raise LaurentError("negative matrix dimension")
        return _matrix(rows, cols, {})

    # -- access ------------------------------------------------------

    def entry(self, r: int, c: int) -> LaurentPoly:
        return self.entries.get((r, c), ZERO)

    def to_rows(self) -> list[list[LaurentPoly]]:
        return [[self.entry(r, c) for c in range(self.cols)] for r in range(self.rows)]

    def to_strings(self) -> list[list[str]]:
        return [[format_poly(v) for v in row] for row in self.to_rows()]

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.entries.items())))

    def __repr__(self):
        return f"PolyMatrix({self.rows}x{self.cols}, {self.to_strings()})"

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LaurentError("dimension mismatch in matrix addition")
        entries = dict(self.entries)
        for key, p in other.entries.items():
            s = entries.get(key, ZERO) + p
            if s.terms:
                entries[key] = s
            else:
                entries.pop(key, None)
        return _matrix(self.rows, self.cols, entries)

    def matmul(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise LaurentError(
                f"dimension mismatch: {self.rows}x{self.cols} * {other.rows}x{other.cols}"
            )
        return _product(self, other)

    def scale(self, p: LaurentPoly) -> "PolyMatrix":
        p = _coerce(p)
        if p.is_zero():
            return PolyMatrix.zeros(self.rows, self.cols)
        if p.terms == _ONE_TERMS:
            return self
        return _matrix(
            self.rows, self.cols, {key: _mul(v, p) for key, v in self.entries.items()}
        )

    def direct_sum(self, other: "PolyMatrix") -> "PolyMatrix":
        entries = dict(self.entries)
        for (r, c), p in other.entries.items():
            entries[(r + self.rows, c + self.cols)] = p
        return _matrix(self.rows + other.rows, self.cols + other.cols, entries)

    def kron(self, other: "PolyMatrix") -> "PolyMatrix":
        """Kronecker product; block (r, c) of the result is entry(r,c) * other."""
        entries = {}
        for (r, c), p in self.entries.items():
            for (r2, c2), p2 in other.entries.items():
                entries[(r * other.rows + r2, c * other.cols + c2)] = _mul(p, p2)
        return _matrix(self.rows * other.rows, self.cols * other.cols, entries)

    def submatrix(self, row_idx, col_idx) -> "PolyMatrix":
        rmap = {r: i for i, r in enumerate(row_idx)}
        cmap = {c: i for i, c in enumerate(col_idx)}
        entries = {}
        for (r, c), p in self.entries.items():
            if r in rmap and c in cmap:
                entries[(rmap[r], cmap[c])] = p
        return _matrix(len(row_idx), len(col_idx), entries)

    # -- elimination ---------------------------------------------------

    def _moved_columns(self) -> list[int]:
        """The support C: the columns j whose column is not the unit vector
        e_j, in increasing order.  A zero diagonal entry, which the sparse
        entries do not store, puts its column in C."""
        moved = {c for (r, c), p in self.entries.items() if r != c or p != ONE}
        moved.update(j for j in range(self.cols) if (j, j) not in self.entries)
        return sorted(moved)

    def det(self) -> LaurentPoly:
        """Exact determinant, det M = det M[C,C] over the support C.

        Proof: list C before the other columns R, permuting rows and
        columns alike (no sign change).  Each column in R is a unit vector,
        so M = [[A, 0], [B, I]] with A = M[C,C], B = M[R,C], which is block
        lower triangular.  det A is the last pivot of the Montante
        elimination of A; when C is every column, A is M.
        """
        if self.rows != self.cols:
            raise LaurentError("determinant of a non-square matrix")
        moved = self._moved_columns()
        rows: list[dict] = [{} for _ in moved]
        for (r, c), p in self.submatrix(moved, moved).entries.items():
            rows[r][c] = p
        return _montante(rows, len(moved), complete=False)

    def inverse(self) -> "PolyMatrix":
        """Inverse over the ring; exists iff det is a unit.

        Only the block A = M[C,C] over the support C is eliminated: the
        columns outside C are the unit columns on the rows outside C, so
        complete_inverse(M[:,C], C, A^{-1}) gives the rows of M^{-1}.
        Since det M = det A, M is singular or has a non-unit determinant
        exactly when A does, and the error names that determinant.
        """
        if self.rows != self.cols:
            raise LaurentError("inverse of a non-square matrix")
        moved = self._moved_columns()
        block_inv = _montante_inverse(self.submatrix(moved, moved))
        top, bottom, fixed = complete_inverse(
            self.submatrix(range(self.rows), moved), moved, block_inv
        )
        entries = {(moved[i], c): p for (i, c), p in top.entries.items()}
        entries.update(((fixed[i], c), p) for (i, c), p in bottom.entries.items())
        return PolyMatrix(self.rows, self.rows, entries)

    # -- numeric evaluation ---------------------------------------------

    def rank_at(self, point: EvaluationPoint) -> int:
        """The rank at the point mod _PRIME: rank mod p <= rank over Q at
        the point <= generic rank."""
        return len(self.pivot_rows_at(point))

    def pivot_rows_at(self, point: EvaluationPoint) -> list[int]:
        """Row indices carrying pivots when the matrix at the point mod
        _PRIME is reduced by columns, or none when a denominator vanishes
        mod p; a guess of a complement of the column span, which callers
        certify.  A column pivots on a row whose entry in it is a unit when
        it can, so that the seeded points do not all repeat one non-unit
        pivot.  Each basis vector is zero on the earlier pivot rows, so a
        reduced column is zero on every row already used."""
        p = _PRIME
        columns: dict[int, dict[int, int]] = {}
        try:
            t, q = (x.numerator * pow(x.denominator, -1, p) for x in (point.t_value, point.q_value))
            for (r, c), poly in self.entries.items():
                value = sum(
                    x.numerator * pow(x.denominator, -1, p) * pow(t, a, p) * pow(q, b, p)
                    for (a, b), x in poly.terms.items()
                ) % p
                if value:
                    columns.setdefault(c, {})[r] = value
        except ValueError:  # a denominator, or t or q, vanishes mod p
            return []
        basis: list[tuple[int, dict[int, int]]] = []
        for c in sorted(columns):
            v = columns[c]
            for bp, bv in basis:
                factor = v.get(bp)
                if factor:
                    for r, x in bv.items():
                        v[r] = (v.get(r, 0) - factor * x) % p
            live = [r for r in sorted(v) if v[r]]
            if live:
                piv = next((r for r in live if self.entries.get((r, c), ZERO).is_unit()), live[0])
                scale = pow(v[piv], -1, p)
                basis.append((piv, {r: v[r] * scale % p for r in live}))
        return sorted(bp for bp, _ in basis)


def _product(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """The matrix product a * b; the caller has checked the shapes.  Kept
    apart from PolyMatrix.matmul so that the product in complete_inverse is
    not one of the matmul calls that perfbench's per-layer trace counts.

    A factor made by PolyMatrix.identity is the unit: the other factor is
    returned itself, which is safe because values are never mutated.

    An entry's first contribution is stored as it is, with no addition; it
    is nonzero, since the ring is an integral domain and stored entries are
    nonzero.  Later contributions are added, and a sum that cancels is
    dropped, as a later contribution may start the entry afresh."""
    if a.is_identity or b.is_identity:
        return b if a.is_identity else a
    by_row: dict[int, list] = {}
    for (k, c), p in b.entries.items():
        by_row.setdefault(k, []).append((c, p))
    acc: dict = {}
    for (r, k), p in a.entries.items():
        for c, q2 in by_row.get(k, ()):
            key = (r, c)
            term = _mul(p, q2)
            s = acc.get(key)
            if s is None:
                acc[key] = term
                continue
            s = s + term
            if s.terms:
                acc[key] = s
            else:
                del acc[key]
    return _matrix(a.rows, b.cols, acc)


def complete_inverse(cols: PolyMatrix, pivots: list[int], a_inv: PolyMatrix):
    """The inverse of S = [cols | the unit columns on the rows M not in
    pivots], given A^{-1} for the pivot block A = cols[pivots].

    Returns the row blocks (top, bottom) of S^{-1} and M, in increasing
    order: top is A^{-1} placed in the pivot columns, and bottom is I on M
    and -cols[M] A^{-1} on the pivots.  Proof: list the pivot rows P before
    M.  Then S = [[A, 0], [B, I]] with B = cols[M], and multiplying out
    shows that its unique inverse is [[A^{-1}, 0], [-B A^{-1}, I]].  So only
    A is ever eliminated, and det S = ±det A.  When B has no entries, as
    for a monomial inclusion, no product is formed.
    """
    pivot_set = set(pivots)
    missing = [r for r in range(cols.rows) if r not in pivot_set]
    top = {(i, pivots[j]): p for (i, j), p in a_inv.entries.items()}
    bottom = {(i, r): ONE for i, r in enumerate(missing)}
    lower = cols.submatrix(missing, range(cols.cols))
    if lower.entries:
        for (i, j), p in _product(lower, a_inv).entries.items():
            bottom[(i, pivots[j])] = -p
    return (
        _matrix(a_inv.rows, cols.rows, top),
        _matrix(len(missing), cols.rows, bottom),
        missing,
    )


def _rescaled(row: dict, level: LaurentPoly, old: LaurentPoly) -> dict:
    """row * level / old, exactly; the row itself when the two agree."""
    if level == old:
        return row
    return {j: exact_div(_mul(x, level), old) for j, x in row.items()}


def _montante(rows: list[dict], n: int, complete: bool) -> LaurentPoly:
    """Fraction-free (Montante) elimination of the first n columns of the
    sparse rows {column: nonzero entry}, in place; returns the signed last
    pivot, or ZERO when a column has no pivot.

    Each step clears a pivot column, dividing exactly by the previous pivot.
    By Sylvester's identity the pivot of step k is the leading (k+1)-minor
    of the row-swapped matrix, so the signed last pivot is the determinant.
    The complete pass clears every other row, leaving the last pivot d on
    the diagonal and d times the solution past column n; otherwise only
    the rows below each pivot are updated (Bareiss order).

    Only a row with an entry in the pivot column is rewritten, over the
    union of its support and the pivot row's.  A row with none would just
    be scaled by the pivot over the previous one; it keeps its level, the
    pivot it was last brought to, and is brought to the current pivot
    (each quotient a minor, so exact) when it becomes the pivot row and at
    the end of the complete pass; an update divides by the row's level.
    """
    sign = 1
    prev = ONE
    level = [ONE] * n
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if k in rows[i]), None)
        if pivot_row is None:
            return ZERO
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            level[k], level[pivot_row] = level[pivot_row], level[k]
            sign = -sign
        top = rows[k] = _rescaled(rows[k], prev, level[k])
        p = top[k]
        rest = [(j, y) for j, y in top.items() if j != k]
        for i in range(n) if complete else range(k + 1, n):
            row = rows[i]
            coef = row.get(k)
            if coef is None or i == k:
                continue
            new = {j: _mul(p, x) for j, x in row.items() if j != k}
            for j, y in rest:
                s = new.get(j, ZERO) - _mul(coef, y)
                if s.terms:
                    new[j] = s
                else:
                    del new[j]
            rows[i] = _rescaled(new, ONE, level[i])
            level[i] = p
        level[k] = p
        prev = p
    if complete:
        rows[:] = [_rescaled(row, prev, old) for row, old in zip(rows, level)]
    return prev if sign == 1 else -prev


def _montante_inverse(a: PolyMatrix) -> PolyMatrix:
    """Inverse of a square matrix: _montante on [A | I] leaves det(A)·A^{-1}
    in the right half, which is divided by the determinant, a unit."""
    n = a.rows
    if n == 0:
        return a
    rows = [{n + r: ONE} for r in range(n)]  # [A | I]
    for (r, c), p in a.entries.items():
        rows[r][c] = p
    det = _montante(rows, n, complete=True)
    if not det:
        raise LaurentError("matrix is singular")
    if not det.is_unit():
        raise LaurentError(f"determinant {det} is not a unit; no inverse over the ring")
    d = rows[n - 1][n - 1]
    d_inv = d.unit_inverse()
    entries = {}
    for r, row in enumerate(rows):
        if row.get(r) != d:
            raise LaurentError("elimination failed to reach scalar form")
        entries.update(((r, c - n), _mul(v, d_inv)) for c, v in row.items() if c >= n)
    return _matrix(n, n, entries)


def rank_probabilistic(a: PolyMatrix, points: list[EvaluationPoint]) -> int:
    """Max of rank_at over the given points.

    As rank mod p <= rank over Q at a point <= generic rank, this bounds the
    generic rank from below, and equals it unless at every point all top
    minors vanish mod p; adding points drives that probability to zero.
    """
    if not points:
        raise LaurentError("at least one evaluation point required")
    return max(a.rank_at(p) for p in points)
