"""Computable functors from the bracket category to modules over the
Laurent ring.

A BraidFunctor packages the data that determines such a functor on a
finite range of objects: a dimension per level n, a matrix per signed
letter s_i^{±1} per level and the one-step stabilization n -> n+1; on
Quillen's bracket construction that data fixes the functor
(Randal-Williams–Wahl).  Every family and combinator below states one
step and the matrices of both letter signs; none inverts a letter at run
time.  With stab(n, n') the composite of the one-step maps, the package's
evaluation rule for a morphism [n'-n, w] is

    mat(w at level n') * stab(n, n'),

and check_functor verifies what makes this assignment well defined: the
intertwining of stabilizations with group elements up to juxtaposition by
braids of the added strands.  Stabilizations compose by construction, and
the identities multiply along words and paste along one-step
stabilizations, so signed letters and one or two added strands decide them.

All matrices act on column vectors; see laurent module docstring.  Where a
classical display in the literature is written for the row convention, the
stored matrix is its transpose; the test fixtures record that orientation
choice per family.
"""

from __future__ import annotations

import operator

from .laurent import LaurentError, LaurentPoly, PolyMatrix, ONE, ZERO, _matrix, complete_inverse
from .laurent import T as VAR_T, Q as VAR_Q
from .freegroup import GroupRingElement
from .memo import remember
from .braidcat import (
    BracketMorphism,
    BraidWord,
    LocalSystem,
    artin_relations,
    lk_generator_columns,
    router,
    shift_letter,
    signed_letters,
)


class FunctorError(ValueError):
    pass


class SplitData:
    """Splitting data for one stabilization map `incl`.

    retraction * incl = Id, coprojection * incl = 0,
    retraction * complement = 0, coprojection * complement = Id, and
    incl * retraction + complement * coprojection = Id; together these say
    [incl | complement] is invertible with inverse stacking retraction over
    coprojection, so the complement spans an explicit cokernel.
    """

    __slots__ = ("retraction", "complement", "coprojection")

    def __init__(self, retraction: PolyMatrix, complement: PolyMatrix, coprojection: PolyMatrix):
        self.retraction = retraction
        self.complement = complement
        self.coprojection = coprojection

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.retraction, self.complement, self.coprojection) == (
            other.retraction, other.complement, other.coprojection
        )

    def __hash__(self):
        return hash((self.retraction, self.complement, self.coprojection))

    def certify(self, incl: PolyMatrix) -> bool:
        """Check the splitting identities; the fifth follows from the
        other four and the shapes, so it is not multiplied out.

        With P = [incl | complement] and S = [retraction; coprojection],
        the four block identities say S * P = Id.  When P is square
        (incl.cols + complement.cols == incl.rows), det S * det P = 1 over
        the commutative ring, so P is invertible with inverse S, and
        P * S = incl * retraction + complement * coprojection = Id follows.
        Data of any other shape is refused before a product is formed.
        """
        d, d2 = incl.cols, incl.rows
        shapes = [(m.rows, m.cols) for m in (self.retraction, self.complement, self.coprojection)]
        if shapes != [(d, d2), (d2, d2 - d), (d2 - d, d2)]:
            return False
        if self.retraction.matmul(incl) != PolyMatrix.identity(incl.cols):
            return False
        if not self.coprojection.matmul(incl).is_zero():
            return False
        if not self.retraction.matmul(self.complement).is_zero():
            return False
        return self.coprojection.matmul(self.complement) == PolyMatrix.identity(
            self.complement.cols
        )


def split_at_rows(incl: PolyMatrix, pivots: list[int], a_inv: PolyMatrix) -> SplitData:
    """The split of incl fixed by its pivot rows P, given A^{-1} for A = incl[P].

    The complement is the unit columns on the other rows M, in increasing
    order, so the retraction over the coprojection is the inverse of
    [incl | complement] that laurent.complete_inverse builds.
    """
    retraction, coprojection, missing = complete_inverse(incl, pivots, a_inv)
    complement = {(r, i): ONE for i, r in enumerate(missing)}
    return SplitData(
        retraction, _matrix(incl.rows, len(missing), complement), coprojection
    )


def partial_permutation_split(incl: PolyMatrix) -> SplitData | None:
    """Split a column monomial matrix: one unit entry per column, distinct
    rows.  Its pivot block is monomial too, so A^{-1} is read off from the
    entries' unit inverses, with no elimination: exact by construction."""
    placed = {}
    for (r, c), p in incl.entries.items():
        if c in placed or not p.is_unit():
            return None
        placed[c] = (r, p)
    pivots = sorted({r for r, _ in placed.values()})
    if len(pivots) != incl.cols:
        return None
    index = {r: i for i, r in enumerate(pivots)}
    a_inv = {(c, index[r]): p.unit_inverse() for c, (r, p) in placed.items()}
    return split_at_rows(incl, pivots, _matrix(incl.cols, incl.cols, a_inv))


class BraidFunctor:
    """Dimensions, generator matrices and stabilizations on a range.

    Rules are memoized; instances behave as immutable values and the memo
    tables are idempotent, so concurrent readers are safe.  The tables are
    _dims, _gens, _stabs, _words (routers and group-ring images; the checks
    read letters from _gens) and _resolutions, filled by
    polyfun.resolution with the resolved splits; each stores through
    memo.remember.
    gen_rule(n, letter) takes a signed letter, ±i for s_i^{±1}, and is
    called once per (n, letter); check_functor tests that the two signs
    are inverse to each other.  stab_rule(n) is the map n -> n+1; a longer
    stabilization is the memoized composite stab(n2 - 1, n2) *
    stab(n, n2 - 1), so stabilizations compose by construction.  The
    functor carries no splitting data: polyfun.resolve_inclusion finds
    every split, exact by construction or certified.
    """

    def __init__(
        self,
        name: str,
        dim_rule,
        gen_rule,
        stab_rule,
        eval_range: int = 16,
    ):
        self.name = name
        self._dim_rule = dim_rule
        self._gen_rule = gen_rule
        self._stab_rule = stab_rule
        self.eval_range = eval_range
        self._dims: dict = {}
        self._gens: dict = {}
        self._stabs: dict = {}
        self._resolutions: dict = {}
        self._words: dict = {}

    # -- core data ------------------------------------------------------

    def dim(self, n: int) -> int:
        hit = self._dims.get(n)
        if hit is not None:
            return hit
        if n < 0:
            raise FunctorError("negative level")
        if n > self.eval_range:
            raise FunctorError(
                f"{self.name}: level {n} beyond evaluation range {self.eval_range}"
            )
        d = int(self._dim_rule(n))
        remember(self._dims, n, d)
        return d

    def gen_matrix(self, n: int, letter: int) -> PolyMatrix:
        """The matrix of a signed letter.  A rule that raises LaurentError
        (a letter with no inverse over the ring) is memoized too: the error
        is raised again on later lookups, without calling the rule again."""
        key = (n, letter)
        hit = self._gens.get(key)
        if hit is None:
            if letter == 0 or abs(letter) > n - 1:
                raise FunctorError(f"s{letter} is not a generator on {n} strands")
            d = self.dim(n)  # a level out of range fails here, not in a part's rule
            try:
                hit = self._gen_rule(n, letter)
            except LaurentError as exc:
                hit = exc
            else:
                if (hit.rows, hit.cols) != (d, d):
                    raise FunctorError(
                        f"{self.name}: generator matrix at level {n} has wrong shape"
                    )
            remember(self._gens, key, hit)
        if isinstance(hit, LaurentError):
            raise hit.with_traceback(None)
        return hit

    def stab(self, n: int, n2: int) -> PolyMatrix:
        if not 0 <= n <= n2:
            raise FunctorError("stabilization requires 0 <= n <= n'")
        key = (n, n2)
        if key not in self._stabs:
            if n == n2:
                m = PolyMatrix.identity(self.dim(n))
            elif n2 == n + 1:
                m = self._stab_rule(n)
            else:
                m = self.stab(n2 - 1, n2).matmul(self.stab(n, n2 - 1))
            if (m.rows, m.cols) != (self.dim(n2), self.dim(n)):
                raise FunctorError(
                    f"{self.name}: stabilization {n}->{n2} has wrong shape"
                )
            remember(self._stabs, key, m)
        return self._stabs[key]

    # -- evaluation -------------------------------------------------------

    def word_matrix(self, word: BraidWord) -> PolyMatrix:
        """Matrix of a braid word at its own strand count (letters in
        composition order, so the product is taken in list order)."""
        n = word.strands
        key = (n, word.letters)
        m = self._words.get(key)
        if m is None:
            self.dim(n)  # a level out of range fails before any letter
            m = self._product(n, word.letters)
            remember(self._words, key, m)
        return m

    def _product(self, n: int, letters) -> PolyMatrix:
        """The letter matrices at level n multiplied in list order, as given:
        nothing cancels and nothing is memoized."""
        if not letters:
            return PolyMatrix.identity(self.dim(n))
        m = self.gen_matrix(n, letters[0])
        for letter in letters[1:]:
            m = m.matmul(self.gen_matrix(n, letter))
        return m

    def apply(self, phi: BracketMorphism) -> PolyMatrix:
        """Evaluate on a bracket-category morphism."""
        return self.word_matrix(phi.word).matmul(self.stab(phi.source, phi.target))

    def to_json(self, n: int) -> dict:
        gens = {}
        for i in range(1, n):
            gens[f"s{i}"] = self.gen_matrix(n, i).to_strings()
        stabs = {}
        for n2 in range(n + 1, min(n + 3, self.eval_range) + 1):
            stabs[str(n2)] = self.stab(n, n2).to_strings()
        return {
            "name": self.name,
            "n": n,
            "dim": self.dim(n),
            "generators": gens,
            "stab_to": stabs,
        }


# ---------------------------------------------------------------------------
# Built-in functor families
# ---------------------------------------------------------------------------


def _coordinate_family(name: str, dim, eval_range: int, gen=None) -> BraidFunctor:
    """A family whose stabilization n -> n+1 includes level n as the last
    dim(n) coordinates of level n+1.  Letters act by gen(n, letter), or by
    the identity when no rule is given."""

    def stab(n):
        d, d2 = dim(n), dim(n + 1)
        return PolyMatrix(d2, d, {(d2 - d + i, i): ONE for i in range(d)})

    return BraidFunctor(
        name,
        dim,
        gen or (lambda n, i: PolyMatrix.identity(dim(n))),
        stab,
        eval_range=eval_range,
    )


def _unit_parameter(stem: str, param: LaurentPoly):
    """The family's name, and its parameter with the inverse; the default
    parameter t is left out of the name."""
    if not param.is_unit():
        raise FunctorError(f"{stem} parameter must be a unit")
    name = stem if param == VAR_T else f"{stem}({param})"
    return name, param, param.unit_inverse()


def _block_family(stem: str, param: LaurentPoly, blocks, trim: int = 0) -> BraidFunctor:
    """Level n on n - trim coordinates; s_i^{±1} acts by its sign's block of
    blocks(y, y^-1), both in closed form, at coordinate i-1 of n + trim
    padded coordinates cut to the middle n - trim: trim 0 for a 2x2 block
    on coordinates i-1 and i, trim 1 for a 3x3 block cut at an end letter."""
    name, y, y_inv = _unit_parameter(stem, param)
    block, inv_block = blocks(y, y_inv)

    def dim(n):
        return max(n - trim, 0)

    def gen(n, letter):
        d, m = dim(n), block if letter > 0 else inv_block
        offset = abs(letter) - 1 - trim
        entries = {(k, k): ONE for k in range(offset)}
        for (r, c), v in m.entries.items():
            if 0 <= offset + r < d and 0 <= offset + c < d:
                entries[(offset + r, offset + c)] = v
        entries.update({(k, k): ONE for k in range(offset + m.rows, d)})
        return _matrix(d, d, entries)

    return _coordinate_family(name, dim, 16, gen)


def constant_functor() -> BraidFunctor:
    return _coordinate_family("constant", lambda n: 1, 24)


def burau_functor(param: LaurentPoly = VAR_T) -> BraidFunctor:
    """Unreduced Burau at an invertible parameter.

    The classical 2x2 display [[1-y, y], [1, 0]] is written for row vectors;
    the stored block is its transpose so that it acts on columns.  The
    inverse letter's block is stored in closed form:
    [[1-y, 1], [y, 0]]^-1 = [[0, y^-1], [1, 1-y^-1]].
    """
    return _block_family("burau", param, lambda y, y_inv: (
        PolyMatrix.from_rows([[ONE - y, ONE], [y, ZERO]]),
        PolyMatrix.from_rows([[ZERO, y_inv], [ONE, ONE - y_inv]]),
    ))


def tym_functor(param: LaurentPoly = VAR_T) -> BraidFunctor:
    """The other irreducible 2x2-block family: blocks [[0, y], [1, 0]]."""
    return _block_family("tym", param, lambda y, y_inv: (
        PolyMatrix.from_rows([[ZERO, y], [ONE, ZERO]]),
        PolyMatrix.from_rows([[ZERO, ONE], [y_inv, ZERO]]),
    ))


def reduced_burau_functor(param: LaurentPoly = VAR_T) -> BraidFunctor:
    """Reduced Burau; the stored blocks are transposes of the usual displays.
    One 3x3 block per sign moves one row, [y, -y, 1] for s_i and, in closed
    form, [1, -y^-1, y^-1] for s_i^-1, cut at an end letter (_block_family):
    [[-y, 1], [0, 1]]^-1 = [[-y^-1, y^-1], [0, 1]] for s_1 on three strands."""
    return _block_family("reduced-burau", param, lambda y, y_inv: (
        PolyMatrix.from_rows([[ONE, ZERO, ZERO], [y, -y, ONE], [ZERO, ZERO, ONE]]),
        PolyMatrix.from_rows([[ONE, ZERO, ZERO], [ONE, -y_inv, y_inv], [ZERO, ZERO, ONE]]),
    ), trim=1)


def lk_functor() -> BraidFunctor:
    """The two-variable family on the rank-one summands v_{j,k}, j < k,
    ordered lexicographically; generator action of both signs given
    columnwise by the table in braidcat, so no letter is inverted here.
    The stabilization v_{j,k} -> v_{j+1,k+1} is the last-coordinates
    inclusion: the pairs without strand 1 come last, in the same order."""

    def dim(n):
        return n * (n - 1) // 2

    def gen(n, letter):
        cols = lk_generator_columns(n, letter, VAR_T, VAR_Q, ONE)
        entries = {(r, c): v for c, col in enumerate(cols) for r, v in col.items()}
        return PolyMatrix(dim(n), dim(n), entries)

    return _coordinate_family("lk", dim, 14, gen)


def atomic_functor(k: int) -> BraidFunctor:
    """Supported at the single level k, identity there, zero elsewhere; the
    zero map out of level k is the one stabilization with no split."""
    if k < 0:
        raise FunctorError(f"atomic({k}): the level must be nonnegative")

    def dim(n):
        return 1 if n == k else 0

    return BraidFunctor(
        f"atomic({k})",
        dim,
        lambda n, i: PolyMatrix.identity(dim(n)),
        lambda n: PolyMatrix.zeros(dim(n + 1), dim(n)),
        eval_range=24,
    )


def t1_functor() -> BraidFunctor:
    """The subfunctor of the constant functor that vanishes at level 0."""
    return _coordinate_family("t1", lambda n: min(n, 1), 24)


def power_functor(l: int) -> BraidFunctor:
    """Dimension n^l with identity braid action; factors through the poset
    of natural numbers.  Very useful as a degree-l yardstick."""
    if l < 0:
        raise FunctorError(f"e({l}): the power must be nonnegative")
    return _coordinate_family(f"e({l})", lambda n: n**l, 14)


def zero_functor() -> BraidFunctor:
    return _coordinate_family("zero", lambda n: 0, 24)


# ---------------------------------------------------------------------------
# Combinators
# ---------------------------------------------------------------------------


def _blockwise(name: str, f: BraidFunctor, g: BraidFunctor, size, op) -> BraidFunctor:
    """f and g combined level by level: dimensions by size, letters and
    one-step stabilizations by the matrix operation op."""
    return BraidFunctor(
        name,
        lambda n: size(f.dim(n), g.dim(n)),
        lambda n, i: op(f.gen_matrix(n, i), g.gen_matrix(n, i)),
        lambda n: op(f.stab(n, n + 1), g.stab(n, n + 1)),
        eval_range=min(f.eval_range, g.eval_range),
    )


def direct_sum(f: BraidFunctor, g: BraidFunctor) -> BraidFunctor:
    return _blockwise(f"({f.name})+({g.name})", f, g, operator.add, PolyMatrix.direct_sum)


def tensor(f: BraidFunctor, g: BraidFunctor) -> BraidFunctor:
    return _blockwise(f"({f.name})x({g.name})", f, g, operator.mul, PolyMatrix.kron)


def _relettered(name: str, f: BraidFunctor, gen) -> BraidFunctor:
    """f's levels and stabilizations, with the letter matrices
    gen(n, letter) in place of f's."""
    return BraidFunctor(name, f.dim, gen, lambda n: f.stab(n, n + 1), eval_range=f.eval_range)


def scalar_twist(f: BraidFunctor, y: LaurentPoly) -> BraidFunctor:
    """Multiply every generator matrix by the unit y; stabilizations are
    unchanged.  The result need not satisfy the bracket-category criterion
    (the twist is a groupoid-level operation)."""
    if not y.is_unit():
        raise FunctorError("twist must be a unit")
    y_inv = y.unit_inverse()
    return _relettered(
        f"{y}*({f.name})",
        f,
        lambda n, i: f.gen_matrix(n, i).scale(y if i > 0 else y_inv),
    )


def translate(f: BraidFunctor, k: int) -> BraidFunctor:
    """Precompose with juxtaposition by k: level n sees level k+n of f.

    Letter s_i^{±1} becomes f(s_{k+i}^{±1}); the stabilization n -> n+1
    picks up the inverse braiding router(k, n, n+1) that routes the k fixed
    strands past the added one.

    A zero one-step map f.stab(k+n, k+n+1) is returned itself: the router's
    matrix is square of size dim f(k+n+1), so its product with the zero map
    is that zero map.  The router's letters are then not read, so a letter
    with no inverse over the ring (only `corrupted` makes one) is not met
    here; check_functor still reports it on f's relations.
    """
    if k < 0:
        raise FunctorError("translation amount must be >= 0")
    if k > f.eval_range:
        raise FunctorError(f"{f.name} has evaluation range {f.eval_range}, below the shift {k}")
    if k == 0:
        return f

    def stab(n):
        step = f.stab(k + n, k + n + 1)
        if step.is_zero():
            return step
        return f.word_matrix(router(k, n, n + 1)).matmul(step)

    return BraidFunctor(
        f"tau({k};{f.name})",
        lambda n: f.dim(k + n),
        lambda n, i: f.gen_matrix(k + n, shift_letter(i, k)),
        stab,
        eval_range=f.eval_range - k,
    )


def corrupted(f: BraidFunctor, n: int, i: int, r: int, c: int, delta: LaurentPoly) -> BraidFunctor:
    """Negative control: add delta to one entry of letter i at level n.

    The opposite letter -i at level n is the inverse of the bumped matrix,
    the one place where a rule inverts at run time (it may be singular)."""

    def gen(level, idx):
        if (level, idx) == (n, -i):
            return gen(level, i).inverse()
        m = f.gen_matrix(level, idx)
        if (level, idx) == (n, i):
            bump = PolyMatrix(m.rows, m.cols, {(r, c): delta})
            return m + bump
        return m

    return _relettered(f"corrupted({f.name})", f, gen)


# ---------------------------------------------------------------------------
# Group-ring evaluation through a local system
# ---------------------------------------------------------------------------


def group_ring_matrix(
    f: BraidFunctor, n: int, system: LocalSystem, c: GroupRingElement
) -> PolyMatrix:
    """The linear extension of (f composed with the local system) at level
    n+1: each word w contributes its coefficient times f of the braid
    image of w, summed from the first term."""
    if c.rank != n:
        raise FunctorError("group ring element rank must equal the level")
    d = f.dim(n + 1)
    total = None
    for w, coeff in c.terms.items():
        term = f.word_matrix(system.evaluate(w)).scale(coeff)
        total = term if total is None else total + term
    return PolyMatrix.zeros(d, d) if total is None else total


# ---------------------------------------------------------------------------
# Functor and natural-transformation checks
# ---------------------------------------------------------------------------


class CheckReport:
    """Outcome of an exact identity check over an explicit range."""

    __slots__ = ("name", "params", "failures", "checked")

    def __init__(self, name: str, params: dict, failures: list | None = None, checked: int = 0):
        self.name = name
        self.params = params
        self.failures = [] if failures is None else failures
        self.checked = checked

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.params, self.failures, self.checked) == (
            other.name, other.params, other.failures, other.checked
        )

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, **witness):
        self.failures.append(witness)

    def expect(self, ok: bool, **witness):
        """Count one check, and record its witness when it fails."""
        self.checked += 1
        if not ok:
            self.record(**witness)

    def to_json(self) -> dict:
        return {
            "check": self.name,
            "verdict": "pass" if self.passed else "fail",
            "range": self.params,
            "checked": self.checked,
            "witness": self.failures[0] if self.failures else None,
            "failure_count": len(self.failures),
        }


def check_functor(f: BraidFunctor, big_n: int, word_len: int = 3) -> CheckReport:
    """Verify that f's data satisfies the functor criterion on levels <= big_n.

    Checks, exactly: the relations of B_n at every level n, in
    braidcat.artin_relations order (braid relations, then per i the far
    commutations and the inverse pair), each side multiplied out letter by
    letter with no cancellation; then, for word_len >= 1, (a) stab(n,n+1) * mat(s) =
    mat(shift_1 s) * stab(n,n+1) for each signed letter s on n strands, and
    (b) mat(s_1^{±1} # id_n) * stab(n,n+2) = stab(n,n+2).

    These decide stab(n,n') * mat(w) = mat(psi # w) * stab(n,n') for all
    n <= n' <= big_n, words w on n strands and braids psi on the added
    strands: on Quillen's bracket construction a functor is fixed by its
    braid action and one-step stabilizations (Randal-Williams–Wahl).  Proof:
    n' = n is an identity, and BraidFunctor.stab composes one-step maps.
    mat and shift act letter by letter, so letters suffice for w and for
    psi, and psi # w splits into psi # id and w.  A letter's square for
    n -> n' pastes from the squares (a) at n, ..., n'-1.  On k = n' - n
    added strands, s_j # id_n for j >= 2 is shift_1 of s_{j-1} # id_n on
    k - 1 added strands, which (a) at n+k-1 moves past stab(n+k-1, n+k);
    s_1 # id_n moves the two newest strands only, and (b) at n+k-2 absorbs
    it into stab(n+k-2, n+k).  So by induction on k, k = 2 is the only psi
    check.  The kept checks run in the order of the loop over every
    n <= n'; `checked` and `failure_count` count the identities computed.

    A letter whose matrix has no inverse over the ring fails each relation
    that reads it (its inverse pair), with a witness that carries the
    error naming the determinant; the intertwining checks that need that
    inverse are skipped.
    """
    report = CheckReport("functor-criterion", {"N": big_n, "L": word_len, "functor": f.name})
    for n in range(2, big_n + 1):
        for kind, where, lhs, rhs in artin_relations(n):
            try:
                ok = f._product(n, lhs) == f._product(n, rhs)
            except LaurentError as exc:
                report.expect(False, kind=kind, n=n, **where, error=str(exc))
            else:
                report.expect(ok, kind=kind, n=n, **where)
    if word_len < 1:
        return report
    for n in range(0, big_n):
        stab = f.stab(n, n + 1)
        for letter in signed_letters(n):
            try:
                lhs = stab.matmul(f.gen_matrix(n, letter))
                rhs = f.gen_matrix(n + 1, shift_letter(letter, 1)).matmul(stab)
            except LaurentError:
                continue  # a singular letter, already an inverse failure
            report.expect(
                lhs == rhs, kind="intertwining", n=n, n2=n + 1, word=[letter], psi=[]
            )
        for letter in signed_letters(2) if n + 2 <= big_n else ():
            try:
                m_psi = f.gen_matrix(n + 2, letter)
            except LaurentError:
                continue
            stab = f.stab(n, n + 2)
            report.expect(
                m_psi.matmul(stab) == stab, kind="intertwining", n=n, n2=n + 2, word=[], psi=[letter]
            )
    return report


class NaturalMap:
    """A prospective natural transformation: one matrix per level."""

    __slots__ = ("source", "target", "components", "name")

    def __init__(self, source: BraidFunctor, target: BraidFunctor, components, name: str = "natural-map"):
        self.source = source
        self.target = target
        self.components = components
        self.name = name

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.source, self.target, self.components, self.name) == (
            other.source, other.target, other.components, other.name
        )

    def component(self, n: int) -> PolyMatrix:
        m = self.components(n)
        if (m.rows, m.cols) != (self.target.dim(n), self.source.dim(n)):
            raise FunctorError(f"{self.name}: component at {n} has wrong shape")
        return m


def check_natural(
    eta: NaturalMap, big_n: int, include_stab: bool = True
) -> CheckReport:
    """Exact intertwining of components with generators and, optionally,
    with one-step stabilizations (groupoid-level equivalences, whose
    components only intertwine the braid actions, use include_stab=False).
    The one-step squares decide every n <= n': n' = n is an identity, and
    both functors build stab(n, n') from one-step maps, so the squares at
    n, ..., n'-1 paste into the one for n -> n'.  `checked` and
    `failure_count` count the identities computed."""
    report = CheckReport(
        "natural-transformation",
        {"N": big_n, "map": eta.name, "stab": include_stab},
    )
    for n in range(0, big_n + 1):
        comp = eta.component(n)
        for i in range(1, n):
            lhs = comp.matmul(eta.source.gen_matrix(n, i))
            rhs = eta.target.gen_matrix(n, i).matmul(comp)
            report.expect(lhs == rhs, kind="generator", n=n, i=i)
        if include_stab and n < big_n:
            lhs = eta.component(n + 1).matmul(eta.source.stab(n, n + 1))
            rhs = eta.target.stab(n, n + 1).matmul(comp)
            report.expect(lhs == rhs, kind="stabilization", n=n, n2=n + 1)
    return report


# ---------------------------------------------------------------------------
# Named constructors
# ---------------------------------------------------------------------------


# Each family name, its constructor, and the keyword that carries the
# family's parameter (None for a family without one).
BUILTINS = {
    "constant": (constant_functor, None),
    "x": (constant_functor, None),
    "burau": (burau_functor, "param"),
    "reduced-burau": (reduced_burau_functor, "param"),
    "tym": (tym_functor, "param"),
    "lk": (lk_functor, None),
    "atomic": (atomic_functor, "k"),
    "t1": (t1_functor, None),
    "e": (power_functor, "l"),
    "zero": (zero_functor, None),
}


def builtin(name: str, **params) -> BraidFunctor:
    """The named family, built from its constructor's keyword parameters."""
    name = name.lower()
    if name not in BUILTINS:
        raise FunctorError(f"unknown functor {name!r}")
    return BUILTINS[name][0](**params)
