"""Braid words, the braid groupoid's monoidal structure, and the bracket
category built from it.

Conventions fixed once here and relied on everywhere:

* A braid word stores its letters in composition order: letters[0] is the
  leftmost factor, and words apply right to left, so the LAST letter acts
  first.  The matrix of a word under any representation is the product of
  the letter matrices in list order.
* The juxtaposition u ♮ v of braids on m and n strands keeps u's letters
  and shifts v's generator indices up by m.
* A morphism n -> n' of the bracket category is a class [n'-n, w] with w a
  braid on n' strands, two representatives being equal when they differ by
  precomposition with a braid of the first n'-n strands.

The coherence checks decide their braid identities exactly on the Artin
action (artin_images, artin_witness).  Artin's theorem (1925):
B_n -> Aut(F_n) is faithful.  The letter s_i acts as the standard
sigma_i^-1 (g_i -> g_(i+1)), and the mirror sigma_i -> sigma_i^-1 is an
automorphism of B_n, so faithfulness carries over: two words are equal
braids exactly when their images of g1..gn agree.  Those images can grow
exponentially with the length of a word: an l-letter word on n strands
has at most n·3^l image letters in all (on 4 strands, about 9·10^5 for
40-letter random words).  The coherence words, a shifted letter times
local-system images, stay short.

General word equality (braid_equal_witness) first cancels the longest
common prefix and then the longest common suffix of what is left: in a
group p x s = p y s exactly when x = y, and since every letter matrix is
invertible (Lawrence-Krammer at every seeded point, Burau over Z[t^±1]),
each comparison of the cores has the verdict of the full one, so the
answer and its witness do not change.

The run step then splits the cores into aligned run pairs.  Cores of
equal length pair their maximal runs of differing positions, with equal
letters between them; cores of different lengths are one run pair.  Write
u = a0 x1 a1 ... xk ak and v = a0 y1 a1 ... yk ak.  If xi = yi in B_n for
every i, then u = v, by substitution in a group.  When every run has at
most _RUN_BOUND = 8 letters on each side (a measured bound, stated where
it is set), the Artin action decides each
xi = yi exactly, and equal images on every run return "equal", exact and
with no point evaluated.  In every other case (a longer run, or a run
whose images differ, since words can be equal although their runs are
not) the step decides nothing and the representations below run.  The
step cannot change an output: when it answers, u = v, and both
representations are homomorphisms evaluated exactly, so they would have
answered "equal" with no witness too.

The representations are the Lawrence-Krammer matrices at seeded rational
points (a faithful representation: Bigelow 2001, Krammer 2002) combined
with a fully symbolic unreduced Burau comparison.  A negative answer
always carries a concrete witness; a positive answer that reaches them is
exact on the Burau side and probabilistic (faithfulness of
Lawrence-Krammer plus random evaluation) on the Lawrence-Krammer side.

The Lawrence-Krammer side runs on plain integers: at each point every
signed generator is scaled by one common denominator, the scale, so a
word of length L evaluates to scale**L times its matrix, and the
shorter side of a comparison is multiplied by the scale to the gap in
length.  A letter s_i^±1 mixes only n-1 of the n(n-1)/2 columns and moves
the others without arithmetic, so each column carries its own scale
exponent until the end brings it to scale**L.  Each column is one int,
the sum of entry_r·2**(w·r) over its rows r, so a linear combination of
columns is the same combination of their ints.  Let S be the largest
column 1-norm of the scaled letters, a unit column counting as the scale.
The 1-norm is submultiplicative, so every entry of either side, the
shorter one times scale**gap <= S**gap, is at most S**L_max in absolute
value.  With w = L_max·bitlen(S) + 1 (L_max >= 1), S**L_max < 2**(w-1):
every entry is a balanced digit of its slot, so packing is injective and
the comparison is as exact as one over Fraction.

At the first seeded point, before any packed matrix, a comparison folds
one row through each side: x^T times the word's Lawrence-Krammer matrix
mod p = _PRIME = 2**61 - 1, with x_r = _ROW_BASE**(r+1) mod p fixed.  The
row and the residue letters sit in the same table entry as the scaled
letters: each mixed entry times scale^-1 mod p, so a moved column copies
one entry and a mixed column is one short sum.  When p does not divide
the scale, reduction Z[1/scale] -> F_p is a ring homomorphism, so equal
matrices give equal rows: rows that differ prove LK(u) != LK(v), the
answer the packed comparison gives.  Rows that agree, or a scale that p
divides, decide nothing, and the packed comparison runs.  At the later
points the packed comparison decides alone: a row there could only reach
the same answer sooner, and a pair whose first point agreed is almost
always equal, so its rows would agree and be work for nothing.

The Burau side runs on plain integers by the same substitution, t = 2**w
with the rows in the low slots.  burau_symbolic(word, neg, pos) returns
the columns of t**neg times the unreduced Burau matrix, for neg and pos
at least the word's counts of inverse and of positive letters; a
comparison gives both cores the larger count of each.  The term c·t^e in
row r is the balanced digit of slot (e + neg)·n + r of its column's int,
with w = bitlen(3**(neg+pos)) + 1, so t^±1 is a shift by step = n·w
bits.  A letter s_i sets (c_i, c_(i+1)) to
(c_i - (c_i << step) + c_(i+1), c_i << step), and s_i^-1 sets them to
(c_(i+1) >> step, c_(i+1) - (c_(i+1) >> step) + c_i).

* The arithmetic is exact: sums and << are integer arithmetic, the image
  of the Laurent one under t -> 2**step.
* >> is an exact division.  Before the k-th inverse letter (k <= neg) the
  word so far has k-1 inverse letters, so every exponent of t**neg times
  its matrix is at least neg - k + 1 >= 1: the lowest n slots are empty.
* The comparison is injective.  Every letter column has 1-norm at most 3
  (the sum of the absolute coefficients over its rows and powers of t),
  and the 1-norm is submultiplicative, so every coefficient of a word of
  at most neg + pos letters is at most 3**(neg+pos) < 2**(w-1) in
  absolute value: a balanced digit of its slot.  Equal ints are equal
  matrices.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .laurent import _PRIME, EvaluationPoint, seeded_points
from .freegroup import FreeWord, artin_generator_map, reduced_words
from .memo import remember


class BraidError(ValueError):
    pass


def _free_cancel(letters):
    out = []
    for letter in letters:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def shift_letter(letter: int, k: int) -> int:
    """The signed letter of id_k ♮ s, for s the signed letter `letter`."""
    return letter + k if letter > 0 else letter - k


class BraidWord:
    """A word in the Artin generators of the braid group on `strands` strands."""

    __slots__ = ("strands", "letters")

    def __init__(self, strands: int, letters: tuple[int, ...] = ()):
        self.strands = strands
        self.letters = _free_cancel(letters)
        for letter in self.letters:
            if letter == 0 or abs(letter) > strands - 1:
                raise BraidError(f"letter s{letter} not a generator on {strands} strands")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.strands, self.letters) == (other.strands, other.letters)

    def __hash__(self):
        return hash((self.strands, self.letters))

    @staticmethod
    def identity(strands: int) -> "BraidWord":
        return BraidWord(strands, ())

    def compose(self, other: "BraidWord") -> "BraidWord":
        """self ∘ other: other applies first."""
        if self.strands != other.strands:
            raise BraidError("strand mismatch in composition")
        return BraidWord(self.strands, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-l for l in reversed(self.letters)))

    def __pow__(self, k: int) -> "BraidWord":
        base = self if k >= 0 else self.inverse()
        return BraidWord(self.strands, base.letters * abs(k))

    def monoidal(self, other: "BraidWord") -> "BraidWord":
        """self ♮ other: lay other to the right, shifting its indices."""
        m = self.strands
        shifted = tuple(shift_letter(l, m) for l in other.letters)
        return BraidWord(m + other.strands, self.letters + shifted)

    def shift(self, k: int, strands: int) -> "BraidWord":
        """id_k ♮ self, on the given total strand count."""
        if strands < self.strands + k:
            raise BraidError("shift target too small")
        return BraidWord(strands, tuple(shift_letter(l, k) for l in self.letters))

    def writhe(self) -> int:
        return sum(1 if l > 0 else -1 for l in self.letters)

    def permutation(self) -> tuple[int, ...]:
        """Underlying permutation, as images of positions 1..n."""
        perm = list(range(self.strands + 1))
        for letter in reversed(self.letters):
            i = abs(letter)
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
        return tuple(perm[1:])

    def __str__(self):
        if not self.letters:
            return "id"
        return " ".join(f"s{l}" if l > 0 else f"s{-l}^-1" for l in self.letters)

    def __repr__(self):
        return f"BraidWord({self.strands}, {str(self)!r})"


def _braid(strands: int, letters: tuple[int, ...]) -> BraidWord:
    """A BraidWord from letters known to be reduced and in range."""
    word = object.__new__(BraidWord)
    word.strands = strands
    word.letters = letters
    return word


def braiding(n: int, m: int) -> BraidWord:
    """The groupoid braiding n ♮ m -> m ♮ n on n+m strands.

    In composition order it is the concatenation, for j = 1..n, of the
    descending runs s_{m+j-1} s_{m+j-2} ... s_j; with n = 0 or m = 0 it is
    the empty word.
    """
    if n < 0 or m < 0:
        raise BraidError("negative strand counts")
    letters = []
    for j in range(1, n + 1):
        letters.extend(range(m + j - 1, j - 1, -1))
    return BraidWord(n + m, tuple(letters))


@lru_cache(maxsize=256)
def router(k: int, n: int, n2: int) -> BraidWord:
    """The word of id_k ♮ [n2-n, id] on k + n2 strands: the inverse braiding
    routing k fixed strands past the n2-n added ones, then id_n; stored."""
    return braiding(k, n2 - n).inverse().monoidal(BraidWord.identity(n))


def signed_letters(strands: int) -> tuple[int, ...]:
    """The signed Artin letters on `strands` strands, 1, -1, 2, -2, ...: the
    order of the length-one words of freegroup.reduced_words."""
    return tuple(l for i in range(1, strands) for l in (i, -i))


def artin_relations(n: int):
    """The defining relations of B_n as (kind, where, lhs, rhs), lhs and rhs
    signed-letter tuples, where {"i": i} or {"i": i, "j": j}: the braid
    relations for i = 1..n-2, then per i the far commutations (j >= i+2)
    and the inverse pair (i, -i) = (), which a check multiplies out."""
    for i in range(1, n - 1):
        yield "braid-relation", {"i": i}, (i, i + 1, i), (i + 1, i, i + 1)
    for i in range(1, n):
        for j in range(i + 2, n):
            yield "commutation", {"i": i, "j": j}, (i, j), (j, i)
        yield "inverse", {"i": i}, (i, -i), ()


# ---------------------------------------------------------------------------
# Bracket category morphisms
# ---------------------------------------------------------------------------


class BracketMorphism:
    """A morphism [target-source, word]: source -> target, word on `target`
    strands."""

    __slots__ = ("source", "target", "word")

    def __init__(self, source: int, target: int, word: BraidWord):
        if source < 0 or target < source:
            raise BraidError("need 0 <= source <= target")
        if word.strands != target:
            raise BraidError("representative word must live on `target` strands")
        self.source = source
        self.target = target
        self.word = word

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.source, self.target, self.word) == (other.source, other.target, other.word)

    def __hash__(self):
        return hash((self.source, self.target, self.word))

    @staticmethod
    def identity(n: int) -> "BracketMorphism":
        return BracketMorphism(n, n, BraidWord.identity(n))

    @staticmethod
    def stabilization(source: int, target: int) -> "BracketMorphism":
        """[target-source, id]: the canonical morphism source -> target."""
        return BracketMorphism(source, target, BraidWord.identity(target))

    @staticmethod
    def from_braid(word: BraidWord) -> "BracketMorphism":
        return BracketMorphism(word.strands, word.strands, word)

    def to_json(self) -> dict:
        return {"source": self.source, "target": self.target, "word": list(self.word.letters)}

    def __str__(self):
        return f"[{self.target - self.source}, {self.word} : B_{self.target}]"


def bracket_compose(g: BracketMorphism, f: BracketMorphism) -> BracketMorphism:
    """g ∘ f = [n''-n, word(g) ∘ (id ♮ word(f))]."""
    if f.target != g.source:
        raise BraidError(f"cannot compose {g} after {f}")
    lifted = f.word.shift(g.target - g.source, g.target)
    return BracketMorphism(f.source, g.target, g.word.compose(lifted))


def bracket_monoidal(g: BracketMorphism, f: BracketMorphism) -> BracketMorphism:
    """g ♮ f, with the inverse braiding inserted to route the new strands:

    [m'-m, u] ♮ [n'-n, v] = [m'-m+n'-n, (u ♮ v) ∘ (id_{m'-m} ♮ b_{m, n'-n}^{-1} ♮ id_n)]
    """
    m, mp = g.source, g.target
    n, np_ = f.source, f.target
    side = g.word.monoidal(f.word)
    routed = router(m, n, np_).shift(mp - m, mp + np_)
    return BracketMorphism(m + n, mp + np_, side.compose(routed))


_COSET_BOUND = 4
# The certainty of a verdict the run step leaves open: Lawrence-Krammer
# points per comparison.  A run-decided "equal" is exact and evaluates none.
_CERTAINTY = 3
# The longest run the oracle decides on the Artin action.  An l-letter word
# has at most n·3^l image letters in all; the worst signed word of 8 letters
# on 3 and on 4 strands, alternating s1 s2^-1, has 347 and 348 (Intel Xeon,
# 2 vCPUs, Python 3.11.7: 0.07 ms, against about 0.65 ms for the three
# Lawrence-Krammer points and Burau that an equal benchmark pair's cores
# cost, and about 0.09 ms for one unequal pair's point, decided on its
# residue row).  At 12 letters it has 2431 (0.47 ms), at 16 letters 16715
# (2.8 ms).
_RUN_BOUND = 8


def bracket_equal(
    g: BracketMorphism,
    f: BracketMorphism,
    seed: int = 0,
) -> bool | None:
    """Equality of bracket-category morphisms: True, False, or None.

    Representatives are equal when they differ by precomposition with a
    braid of the first target-source strands.  Different source or target,
    or a trivial coset group (k <= 1, word equality), give a definite
    answer; otherwise coset representatives up to length _COSET_BOUND are
    searched, and a failed search is None ("not found within bound").
    Each word comparison is braid_equal's: exact when the run step settles
    it, else seeded Lawrence-Krammer points, where a residue row at the
    first point that differs proves "unequal" before any packed matrix,
    plus symbolic Burau.
    """
    if (g.source, g.target) != (f.source, f.target):
        return False
    k = g.target - g.source
    if k <= 1:
        return braid_equal(g.word, f.word, seed)
    for letters in reduced_words(k - 1, _COSET_BOUND):
        psi = BraidWord(k, letters)
        candidate = f.word.compose(psi.monoidal(BraidWord.identity(g.source)))
        if braid_equal(g.word, candidate, seed):
            return True
    return None


# ---------------------------------------------------------------------------
# Word-equality oracle
# ---------------------------------------------------------------------------

def burau_symbolic(word: BraidWord, neg: int, pos: int) -> list[int]:
    """Columns of t**neg times the unreduced Burau matrix of a word, each
    one int with the term c·t^e in row r in slot (e + neg)·n + r; neg and
    pos bound the word's counts of inverse and positive letters (see the
    module notes).  Letters multiply on the right, in letter order."""
    n = word.strands
    width = (3 ** (neg + pos)).bit_length() + 1
    step = n * width
    state = [1 << (width * (neg * n + r)) for r in range(n)]
    for letter in word.letters:
        i = abs(letter) - 1
        ci, cj = state[i], state[i + 1]
        if letter > 0:
            # columns of the generator: e_i -> (1-t) e_i + e_{i+1},  e_{i+1} -> t e_i
            up = ci << step
            state[i], state[i + 1] = ci - up + cj, up
        else:
            # e_i -> t^-1 e_{i+1},  e_{i+1} -> e_i + (1-t^-1) e_{i+1}
            down = cj >> step
            state[i], state[i + 1] = down, cj - down + ci
    return state


def lk_index(n: int):
    """The Lawrence-Krammer basis v_{j,k}, 1 <= j < k <= n, in lexicographic
    order, and the position of each pair (j, k) in it."""
    pairs = [(j, k) for j in range(1, n + 1) for k in range(j + 1, n + 1)]
    return pairs, {p: i for i, p in enumerate(pairs)}


def lk_generator_columns(n: int, letter: int, t, q, one) -> list[dict]:
    """Columns {row: entry} of the Lawrence-Krammer matrix of the signed
    letter s_i^{±1} on n strands, over any commutative ring containing t,
    q, their inverses and one.

    This is the one copy of the table, for both signs: the oracle evaluates
    it at rational points and repfun.lk_functor builds it over the Laurent
    ring.  The columns of s_i^{-1} are the closed-form inverse of those of
    s_i, written in t^{-1} and q^{-1}; tests check that the two multiply
    to the identity both ways.
    """
    pairs, idx = lk_index(n)
    i = abs(letter)
    # t, q for s_i and t^-1, q^-1 for s_i^-1; each entry computed once.
    x, y = (t, q) if letter > 0 else (t**-1, q**-1)
    x2, one_x, corner = x * x - x, one - x, -y * x * x
    x2y = -x2 * y
    cols = []
    for (j, k) in pairs:
        if letter > 0:
            if i == j and i == k - 1:
                col = {(i, i + 1): corner}
            elif i == j - 1:
                col = {(i, k): x, (i, i + 1): x2, (i + 1, k): one_x}
            elif i == j:  # here k > i + 1
                col = {(i + 1, k): one}
            elif i == k - 1:  # here j < i
                col = {(j, i): x, (j, i + 1): one_x, (i, i + 1): x2y}
            elif i == k:
                col = {(j, i + 1): one}
            else:
                col = {(j, k): one}
        else:
            if i == j and i == k - 1:
                col = {(i, i + 1): corner}
            elif i == j - 1:
                col = {(i, k): one}
            elif i == j:  # here k > i + 1
                col = {(i, k): one_x, (i + 1, k): x, (i, i + 1): x2y}
            elif i == k - 1:  # here j < i
                col = {(j, i): one}
            elif i == k:
                col = {(j, i): one_x, (j, i + 1): x, (i, i + 1): x2}
            else:
                col = {(j, k): one}
        cols.append({idx[p]: v for p, v in col.items()})
    return cols


# The residue row of the module notes: x_r = _ROW_BASE**(r+1) mod _PRIME.
_ROW_BASE = 3


@lru_cache(maxsize=64)
def _lk_scaled_generators(n: int, point: EvaluationPoint):
    """The Lawrence-Krammer table of the oracle on n strands at a point:
    (scale, bitlen(S), letters, row, residues).

    scale is the least common denominator of the columns of every signed
    generator s_i^{±1} at the point, and S the bound of the module notes.
    letters maps each signed letter to its columns at the point times the
    scale, as integers, split into (moved, mixed).  moved lists (c, r) for
    each column c that is the unit vector e_r with r != c, so the
    product's column c becomes its column r; mixed lists (c, entries) for
    each column that is not a unit vector.  Columns e_c are in neither
    list.  row is the residue row x of the module notes, and residues the
    same (moved, mixed) split with each mixed entry times scale^-1 mod
    _PRIME, or None when _PRIME divides the scale.  One entry per
    (n, point) holds every letter, as the scale is the common denominator
    of all of them.
    """
    t, q = point.t_value, point.q_value
    rational = {
        letter: lk_generator_columns(n, letter, t, q, Fraction(1)) for letter in signed_letters(n)
    }
    scale = lcm(
        *(v.denominator for cols in rational.values() for col in cols for v in col.values())
    )
    inv = pow(scale, -1, _PRIME) if scale % _PRIME else None
    norm = scale
    letters, residues = {}, {}
    for letter, cols in rational.items():
        moved, mixed, reduced = [], [], []
        for c, col in enumerate(cols):
            if list(col.values()) == [1]:
                (r,) = col
                if r != c:
                    moved.append((c, r))
            else:
                entries = tuple((r, v.numerator * (scale // v.denominator)) for r, v in col.items())
                mixed.append((c, entries))
                norm = max(norm, sum(abs(v) for _, v in entries))
                if inv is not None:
                    reduced.append((c, tuple((r, v * inv % _PRIME) for r, v in entries)))
        letters[letter] = (tuple(moved), tuple(mixed))
        residues[letter] = (tuple(moved), tuple(reduced))
    row = [pow(_ROW_BASE, r + 1, _PRIME) for r in range(n * (n - 1) // 2)]
    return scale, norm.bit_length(), letters, row, residues if inv is not None else None


def lk_width(table, length: int) -> int:
    """The slot width w of the module notes, for words of at most `length`
    letters, given the table _lk_scaled_generators(n, point)."""
    return max(length, 1) * table[1] + 1


def lk_numeric(word: BraidWord, table, width: int) -> list[int]:
    """Columns of scale**len(word) times the Lawrence-Krammer matrix of a
    word at a rational point, each packed into one int in slots of `width`
    bits (see the module notes); table is _lk_scaled_generators(n, point)
    for the word's strand count n, and scale is its first item.

    Column c of the running product is held over scale**e[c].  A letter
    moves its unit and permutation columns with their exponents; a mixed
    column brings its inputs to their largest exponent in one multiply-add
    per entry, and its exponent is that plus one.  At the end every column
    is multiplied up to scale**len(word).
    """
    n = word.strands
    scale, _, letters, _, _ = table
    dim = n * (n - 1) // 2
    state = [1 << (width * r) for r in range(dim)]
    exps = [0] * dim
    for letter in word.letters:
        moved, mixed = letters[letter]
        new_state, new_exps = state[:], exps[:]
        for c, r in moved:
            new_state[c] = state[r]
            new_exps[c] = exps[r]
        for c, entries in mixed:
            top = 0
            for r, _ in entries:
                if exps[r] > top:
                    top = exps[r]
            acc = 0
            for r, v in entries:
                e = exps[r]
                acc += v * state[r] if e == top else v * scale ** (top - e) * state[r]
            new_state[c] = acc
            new_exps[c] = top + 1
        state, exps = new_state, new_exps
    length = len(word.letters)
    return [col * scale ** (length - e) if e < length else col for col, e in zip(state, exps)]


def _lk_row(word: BraidWord, row: list[int], residues) -> list[int]:
    """row^T times the Lawrence-Krammer matrix of a word mod _PRIME, the
    residue letters multiplied on the right in letter order."""
    p = _PRIME
    for letter in word.letters:
        moved, mixed = residues[letter]
        new_row = row[:]
        for c, r in moved:
            new_row[c] = row[r]
        for c, entries in mixed:
            acc = 0
            for r, v in entries:
                acc += v * row[r]
            new_row[c] = acc % p
        row = new_row
    return row


def _lk_scaled_equal(u: BraidWord, v: BraidWord, point: EvaluationPoint, fold_row: bool) -> bool:
    """LK(u) == LK(v) at the point, exactly.  With fold_row, residue rows
    that differ answer False (see the module notes); otherwise the shorter
    side makes up the gap in scale powers, both packed in the slots of the
    longer one."""
    if len(u.letters) > len(v.letters):
        u, v = v, u
    table = _lk_scaled_generators(u.strands, point)
    scale, _, _, row, residues = table
    if fold_row and residues is not None and _lk_row(u, row, residues) != _lk_row(v, row, residues):
        return False
    width = lk_width(table, len(v.letters))
    mu, mv = lk_numeric(u, table, width), lk_numeric(v, table, width)
    gap = len(v.letters) - len(u.letters)
    if gap:
        factor = scale ** gap
        mu = [x * factor for x in mu]
    return mu == mv


def _cores(u: BraidWord, v: BraidWord) -> tuple[BraidWord, BraidWord]:
    """u and v without their longest common prefix and then the longest
    common suffix of the rest; the two affixes never overlap."""
    a, b = u.letters, v.letters
    short = min(len(a), len(b))
    head = 0
    while head < short and a[head] == b[head]:
        head += 1
    tail = 0
    while tail < short - head and a[-1 - tail] == b[-1 - tail]:
        tail += 1
    n = u.strands
    return _braid(n, a[head : len(a) - tail]), _braid(n, b[head : len(b) - tail])


def _runs_equal(u: BraidWord, v: BraidWord) -> bool:
    """True when u and v split into aligned run pairs, each side of at most
    _RUN_BOUND letters, with equal Artin images (see the module notes).

    Cores of equal length pair their maximal runs of differing positions,
    the letters between runs being equal; cores of different lengths are
    one run pair.  False means "not decided here", not "unequal".
    """
    a, b = u.letters, v.letters
    if len(a) != len(b):
        runs = [(a, b)]
    else:
        runs, lo = [], None
        for k, (x, y) in enumerate(zip(a, b)):
            if x != y and lo is None:
                lo = k
            elif x == y and lo is not None:
                runs.append((a[lo:k], b[lo:k]))
                lo = None
        # The cores end in differing letters, so the last run is still open.
        runs.append((a[lo:], b[lo:]))
    n = u.strands
    return all(len(x) <= _RUN_BOUND and len(y) <= _RUN_BOUND for x, y in runs) and all(
        artin_images(_braid(n, x)) == artin_images(_braid(n, y)) for x, y in runs
    )


def braid_equal(
    u: BraidWord, v: BraidWord, seed: int = 0
) -> bool:
    ok, _ = braid_equal_witness(u, v, seed=seed)
    return ok


def braid_equal_witness(
    u: BraidWord, v: BraidWord, certainty: int = _CERTAINTY, seed: int = 0
):
    """Decide u = v in the braid group; on failure return a witness.

    Both words lose their common prefix and suffix.  When the cores' run
    pairs are all short and have equal Artin images, the answer is an
    exact "equal" (the run step of the module notes).  Otherwise the test
    combines Lawrence-Krammer evaluation at `certainty` seeded rational
    points (faithful representation, probabilistic detection) with an
    exact symbolic unreduced Burau comparison of the cores.  At the first
    point one residue row mod _PRIME is compared first; rows that differ
    prove that point's "unequal" exactly, so the witness is the one the
    packed matrices would give.  Later points compare the packed matrices
    only.
    """
    if u.strands != v.strands:
        return False, {"reason": "strand mismatch"}
    if u.letters == v.letters:
        return True, None
    u, v = _cores(u, v)
    if _runs_equal(u, v):
        return True, None
    # Words with different letters have one, so n >= 2 here.
    for k, point in enumerate(seeded_points(max(1, certainty), seed)):
        if not _lk_scaled_equal(u, v, point, fold_row=k == 0):
            return False, {
                "reason": "lawrence-krammer evaluation differs",
                "t": str(point.t_value),
                "q": str(point.q_value),
            }
    inverse = [sum(letter < 0 for letter in w.letters) for w in (u, v)]
    neg, pos = max(inverse), max(len(u.letters) - inverse[0], len(v.letters) - inverse[1])
    if burau_symbolic(u, neg, pos) != burau_symbolic(v, neg, pos):
        return False, {"reason": "symbolic burau matrices differ"}
    return True, None


def _substituted(word: FreeWord, images) -> tuple[int, ...]:
    """word with each gj replaced by images[j-1], freely reduced."""
    letters = []
    for gen, exp in word.syllables:
        image = images[gen - 1]
        if exp < 0:
            image = tuple(-x for x in reversed(image))
        letters.extend(image * abs(exp))
    return _free_cancel(letters)


def artin_images(word: BraidWord) -> tuple[tuple[int, ...], ...]:
    """The images of g1..gn under the Artin automorphism of a braid word on
    n strands, each a freely reduced tuple of signed generators (-j for
    gj^-1).

    A word acts by its letters' maps composed in list order, so the fold
    runs left to right: appending a letter substitutes the current images
    into that letter's rule, read from freegroup.artin_generator_map.  The
    letter s_i^±1 moves g_i and g_(i+1) only, so only those are rewritten.
    """
    n = word.strands
    images = [(j,) for j in range(1, n + 1)]
    for letter in word.letters:
        i = abs(letter)
        rule = artin_generator_map(n, letter).images
        images[i - 1], images[i] = _substituted(rule[i - 1], images), _substituted(rule[i], images)
    return tuple(images)


def artin_witness(lhs: BraidWord, rhs: BraidWord) -> dict | None:
    """None when lhs = rhs in the braid group; otherwise the first gj whose
    images under the two words' Artin automorphisms differ, and both images
    (see the module notes).  Each whole word is folded once: comparing the
    cores instead would decide the same, as a common prefix and suffix act
    by automorphisms, and the witness is read off the whole words."""
    if lhs.letters == rhs.letters:
        return None
    images = artin_images(lhs), artin_images(rhs)
    if images[0] == images[1]:
        return None

    def text(image):
        return str(FreeWord(lhs.strands, tuple((abs(x), 1 if x > 0 else -1) for x in image)))

    j, (a, b) = next((j, pair) for j, pair in enumerate(zip(*images), 1) if pair[0] != pair[1])
    return {"reason": "artin action differs", "image_of": f"g{j}", "lhs": text(a), "rhs": text(b)}


# ---------------------------------------------------------------------------
# Local systems: homomorphisms from free groups into one-larger braid groups
# ---------------------------------------------------------------------------


# Braid images stored per local-system rule: generator images under
# (rule, n, i) and evaluated words under (rule, word), so every system,
# configuration and nested image built on one rule evaluates each word once
# (63 distinct Fox-coefficient words in the splitting and degree-growth
# checks at N=5).  Rules are pure functions of their arguments, and a key
# holds its rule, so a rule's identity is never reused while it has entries.
_GENERATOR_IMAGES: dict = {}
_EVALUATED: dict = {}


class LocalSystem:
    """A family of homomorphisms F_n -> B_{n+1}, given per free generator.

    rule(n, i) is the image of gi; the extension to arbitrary words is the
    unique multiplicative one, which exists by freeness.  Images are stored
    in module tables keyed by the rule object itself (memo.remember, oldest
    dropped first); equality ignores the rule, and two same-name systems
    over different rules share no entry.
    """

    __slots__ = ("name", "rule")

    def __init__(self, name: str, rule):
        self.name = name
        self.rule = rule

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.name == other.name

    def __hash__(self):
        return hash((self.name,))

    def generator_image(self, n: int, i: int) -> BraidWord:
        key = (self.rule, n, i)
        word = _GENERATOR_IMAGES.get(key)
        if word is None:
            if not 1 <= i <= n:
                raise BraidError(f"g{i} outside free group of rank {n}")
            word = self.rule(n, i)
            if word.strands != n + 1:
                raise BraidError("local system rule must produce words on n+1 strands")
            remember(_GENERATOR_IMAGES, key, word)
        return word

    def evaluate(self, w: FreeWord) -> BraidWord:
        """The braid image of w in one pass: the generator images, inverted
        for negative exponents and repeated |exp| times, joined and freely
        reduced once.  Free reduction is confluent, so this is the word a
        fold of compose gives."""
        key = (self.rule, w)
        out = _EVALUATED.get(key)
        if out is None:
            letters = []
            for gen, exp in w.syllables:
                image = self.generator_image(w.rank, gen)
                letters.extend((image if exp > 0 else image.inverse()).letters * abs(exp))
            out = _braid(w.rank + 1, _free_cancel(letters))
            remember(_EVALUATED, key, out)
        return out


def _pure_braid_rule(n: int, i: int) -> BraidWord:
    # s_1^-1 s_2^-1 ... s_{i-1}^-1 s_i^2 s_{i-1} ... s_1, on n+1 strands.
    letters = [-j for j in range(1, i)] + [i, i] + list(range(i - 1, 0, -1))
    return BraidWord(n + 1, tuple(letters))


def pure_braid_system() -> LocalSystem:
    """Conjugates of squared generators: the classical pure-braid local system."""
    return LocalSystem("pure-braid", _pure_braid_rule)


def _trivial_rule(n: int, i: int) -> BraidWord:
    return BraidWord.identity(n + 1)


def trivial_system() -> LocalSystem:
    return LocalSystem("trivial", _trivial_rule)


def _corrupted_rule(n: int, i: int) -> BraidWord:
    # A deliberately broken pure-braid system: g1 goes to one positive crossing.
    if i == 1:
        return BraidWord(n + 1, (1,))
    return _pure_braid_rule(n, i)


def local_system(name: str) -> LocalSystem:
    if name in ("pure-braid", "pure_braid"):
        return pure_braid_system()
    if name == "trivial":
        return trivial_system()
    if name == "corrupted-demo":
        return LocalSystem("corrupted-demo", _corrupted_rule)
    raise BraidError(f"unknown local system {name!r}")
