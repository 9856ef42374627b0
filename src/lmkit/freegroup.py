"""Free groups, their group rings, Fox calculus, and braid actions on them.

Words live in a free group of explicit rank n with generators g1..gn.
Every FreeWord is freely reduced (no zero exponent, no two adjacent
syllables on one generator) and in range (every generator in 1..rank).
The public constructor establishes both by reducing and checking its
input.  The operations keep them without re-checking, through the private
constructor _word: a product of two reduced words can only cancel where
the factors meet, so __mul__ merges at the junction and stops at the
first syllable that survives; an inverse reverses a reduced word; and an
image under a map is the one reduction of its images' syllables, which are
in the target's range.

The augmentation ideal of the group ring is a free right module on the
differences (gi - 1); fox_derivatives computes the coordinates of a word
in that basis using the right-sided product rule

    d(uv) = d(u)·v + d(v),

which is the convention under which  w - 1 = sum_i (gi - 1)·d_i(w)  holds
with coefficients on the right.  (The classical left-sided convention
differs; everything downstream depends on this choice.)

Braid generators act through local pairs (W, V) on adjacent generators:
the seven classified kinds (Wada 1992), of which kind 1 at m = 1 is the
Artin action.  A negative letter acts through the inverse pair, read from
a stored table (kind 1 has a closed form at every parameter), not searched
for at run time; see _WADA_TABLE for where the entries came from and how
they are certified.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from .laurent import ONE, ZERO, LaurentPoly


class FreeGroupError(ValueError):
    pass


def _reduce(syllables):
    out = []
    for gen, exp in syllables:
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            merged = out[-1][1] + exp
            out.pop()
            if merged:
                out.append((gen, merged))
        else:
            out.append((gen, exp))
    return tuple(out)


@dataclass(frozen=True)
class FreeWord:
    """A freely reduced word in the free group of the given rank."""

    rank: int
    syllables: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "syllables", _reduce(self.syllables))
        for gen, _ in self.syllables:
            if not 1 <= gen <= self.rank:
                raise FreeGroupError(f"generator g{gen} outside rank {self.rank}")

    @staticmethod
    def identity(rank: int) -> "FreeWord":
        return _word(rank, ())

    @staticmethod
    def generator(rank: int, i: int, exp: int = 1) -> "FreeWord":
        if not 1 <= i <= rank:
            raise FreeGroupError(f"generator g{i} outside rank {rank}")
        return _word(rank, ((i, exp),) if exp else ())

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        if self.rank != other.rank:
            raise FreeGroupError("rank mismatch in word product")
        left, right = self.syllables, other.syllables
        if not right:
            return self
        if not left:
            return other
        i, j = len(left), 0
        while i and j < len(right) and left[i - 1][0] == right[j][0]:
            gen, merged = right[j][0], left[i - 1][1] + right[j][1]
            if merged:
                return _word(self.rank, left[: i - 1] + ((gen, merged),) + right[j + 1 :])
            i, j = i - 1, j + 1
        return _word(self.rank, left[:i] + right[j:])

    def inverse(self) -> "FreeWord":
        return _word(self.rank, tuple((g, -e) for g, e in reversed(self.syllables)))

    def __pow__(self, k: int) -> "FreeWord":
        if k == 0:
            return FreeWord.identity(self.rank)
        base = self if k > 0 else self.inverse()
        return FreeWord(base.rank, base.syllables * abs(k))

    def length(self) -> int:
        return sum(abs(e) for _, e in self.syllables)

    def shifted(self, k: int, new_rank: int) -> "FreeWord":
        """Image under gi -> g(i+k) into the free group of rank new_rank."""
        return FreeWord(new_rank, tuple((g + k, e) for g, e in self.syllables))

    def __str__(self):
        if not self.syllables:
            return "e"
        return "*".join(f"g{g}" if e == 1 else f"g{g}^{e}" for g, e in self.syllables)

    def __repr__(self):
        return f"FreeWord({self.rank}, {str(self)!r})"


def _word(rank: int, syllables: tuple) -> FreeWord:
    """A FreeWord from syllables that keep the module invariant as they are."""
    word = object.__new__(FreeWord)
    object.__setattr__(word, "rank", rank)
    object.__setattr__(word, "syllables", syllables)
    return word


_WORD_SYLLABLE = re.compile(r"g(\d+)(?:\^(-?\d+))?")


def parse_word(text: str, rank: int) -> FreeWord:
    text = text.strip()
    if text in ("e", "1", ""):
        return FreeWord.identity(rank)
    syllables = []
    for part in text.split("*"):
        m = _WORD_SYLLABLE.fullmatch(part.strip())
        if not m:
            raise FreeGroupError(f"cannot parse word syllable {part!r}")
        syllables.append((int(m.group(1)), int(m.group(2) or 1)))
    return FreeWord(rank, tuple(syllables))


class GroupRingElement:
    """A finite K-linear combination of free-group words (K = Laurent ring)."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms=None):
        self.rank = rank
        clean = {}
        if terms:
            for word, coeff in terms.items():
                if word.rank != rank:
                    raise FreeGroupError("word rank mismatch in group ring element")
                if not isinstance(coeff, LaurentPoly):
                    coeff = LaurentPoly.const(coeff)
                if coeff.terms:
                    clean[word] = coeff
        self.terms = clean

    @staticmethod
    def zero(rank: int) -> "GroupRingElement":
        return GroupRingElement(rank)

    @staticmethod
    def one(rank: int) -> "GroupRingElement":
        return GroupRingElement.from_word(FreeWord.identity(rank))

    @staticmethod
    def from_word(word: FreeWord, coeff: LaurentPoly = ONE) -> "GroupRingElement":
        return GroupRingElement(word.rank, {word: coeff})

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        if self.rank != other.rank:
            raise FreeGroupError("rank mismatch in group ring sum")
        terms = dict(self.terms)
        for w, c in other.terms.items():
            s = terms.get(w, ZERO) + c
            if s.terms:
                terms[w] = s
            else:
                terms.pop(w, None)
        return GroupRingElement(self.rank, terms)

    def __neg__(self):
        return GroupRingElement(self.rank, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        if self.rank != other.rank:
            raise FreeGroupError("rank mismatch in group ring product")
        out: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 * w2
                s = out.get(w, ZERO) + c1 * c2
                if s.terms:
                    out[w] = s
                else:
                    out.pop(w, None)
        return GroupRingElement(self.rank, out)

    def right_mul_word(self, word: FreeWord) -> "GroupRingElement":
        return GroupRingElement(self.rank, {w * word: c for w, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, GroupRingElement)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.rank, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = [f"({c})[{w}]" for w, c in sorted(self.terms.items(), key=lambda kv: str(kv[0]))]
        return " + ".join(parts)

    __repr__ = __str__


class AugIdealElement:
    """An augmentation-ideal element in coordinates on the basis (gi - 1).

    coords[i-1] is the right coefficient of (gi - 1); the representation is
    unique because the basis is free.
    """

    __slots__ = ("rank", "coords")

    def __init__(self, rank: int, coords):
        coords = tuple(coords)
        if len(coords) != rank:
            raise FreeGroupError("coordinate count must equal rank")
        for c in coords:
            if c.rank != rank:
                raise FreeGroupError("coordinate rank mismatch")
        self.rank = rank
        self.coords = coords

    def __eq__(self, other):
        return (
            isinstance(other, AugIdealElement)
            and self.rank == other.rank
            and self.coords == other.coords
        )

    def __repr__(self):
        return "AugIdeal[" + ", ".join(str(c) for c in self.coords) + "]"


# ---------------------------------------------------------------------------
# Fox calculus (right convention)
# ---------------------------------------------------------------------------


def _syllable_derivative(rank: int, gen: int, exp: int) -> GroupRingElement:
    # d(g^m) = 1 + g + ... + g^{m-1}        for m > 0
    # d(g^m) = -(g^{-1} + ... + g^{m})      for m < 0
    terms = {}
    if exp > 0:
        for k in range(exp):
            terms[FreeWord.generator(rank, gen, k) if k else FreeWord.identity(rank)] = ONE
    else:
        for k in range(1, -exp + 1):
            terms[FreeWord.generator(rank, gen, -k)] = LaurentPoly.const(-1)
    return GroupRingElement(rank, terms)


def fox_derivatives(w: FreeWord) -> AugIdealElement:
    """Coordinates of w - 1 on the free basis (gi - 1).

    Built from the right product rule: for w = s1 s2 ... sk (syllables),
    d_i(w) = sum_r d_i(s_r) · (s_{r+1} ... s_k).
    """
    rank = w.rank
    coords = [GroupRingElement.zero(rank) for _ in range(rank)]
    syllables = w.syllables
    # Right tails, computed from the back.
    tail = FreeWord.identity(rank)
    tails = [tail]
    for gen, exp in reversed(syllables[1:]):
        tail = FreeWord(rank, ((gen, exp),)) * tail
        tails.append(tail)
    tails.reverse()
    for (gen, exp), tail in zip(syllables, tails):
        d = _syllable_derivative(rank, gen, exp).right_mul_word(tail)
        coords[gen - 1] = coords[gen - 1] + d
    return AugIdealElement(rank, coords)


# ---------------------------------------------------------------------------
# Homomorphisms between free groups
# ---------------------------------------------------------------------------


class FreeGroupMap:
    """A homomorphism F_source -> F_target given by generator images.

    Never mutated after construction (the images are a tuple of frozen
    words), so the generator maps below are stored and shared."""

    __slots__ = ("source_rank", "target_rank", "images")

    def __init__(self, source_rank: int, target_rank: int, images):
        images = tuple(images)
        if len(images) != source_rank:
            raise FreeGroupError("need one image per generator")
        for w in images:
            if w.rank != target_rank:
                raise FreeGroupError("image rank mismatch")
        self.source_rank = source_rank
        self.target_rank = target_rank
        self.images = images

    @staticmethod
    def identity(rank: int) -> "FreeGroupMap":
        return FreeGroupMap(rank, rank, [FreeWord.generator(rank, i) for i in range(1, rank + 1)])

    def apply_word(self, w: FreeWord) -> FreeWord:
        if w.rank != self.source_rank:
            raise FreeGroupError("rank mismatch in apply")
        out = []
        for gen, exp in w.syllables:
            img = self.images[gen - 1].syllables
            if exp < 0:
                img = tuple((g, -e) for g, e in reversed(img))
            out.extend(img * abs(exp))
        return _word(self.target_rank, _reduce(out))

    def compose(self, other: "FreeGroupMap") -> "FreeGroupMap":
        """self ∘ other (other applied first)."""
        if other.target_rank != self.source_rank:
            raise FreeGroupError("rank mismatch in composition")
        return FreeGroupMap(
            other.source_rank,
            self.target_rank,
            [self.apply_word(w) for w in other.images],
        )

    def __eq__(self, other):
        return (
            isinstance(other, FreeGroupMap)
            and self.source_rank == other.source_rank
            and self.target_rank == other.target_rank
            and self.images == other.images
        )

    def __repr__(self):
        imgs = ", ".join(f"g{i+1}->{w}" for i, w in enumerate(self.images))
        return f"FreeGroupMap({self.source_rank}->{self.target_rank}: {imgs})"

    def is_identity(self) -> bool:
        return self == FreeGroupMap.identity(self.source_rank) and self.source_rank == self.target_rank


# ---------------------------------------------------------------------------
# Braid actions on free groups
# ---------------------------------------------------------------------------


def _pair_map(n: int, i: int, w_img: FreeWord, v_img: FreeWord) -> FreeGroupMap:
    """The rank-n map acting by (W, V) on generators (gi, g(i+1)) and fixing
    the rest.  W and V are rank-2 words in the slot generators."""
    def place(word2: FreeWord) -> FreeWord:
        return FreeWord(n, tuple((i if g == 1 else i + 1, e) for g, e in word2.syllables))

    images = [FreeWord.generator(n, j) for j in range(1, n + 1)]
    images[i - 1] = place(w_img)
    images[i] = place(v_img)
    return FreeGroupMap(n, n, images)


@dataclass(frozen=True)
class WadaPair:
    """A pair of rank-2 words (W, V) defining a local braid action."""

    w: FreeWord
    v: FreeWord

    def __post_init__(self):
        if self.w.rank != 2 or self.v.rank != 2:
            raise FreeGroupError("Wada pair words must have rank 2")


def _w2(text: str) -> FreeWord:
    return parse_word(text, 2)


# Kinds 2-7 of the classified local pairs: the pair (W, V), then the images
# of (g1, g2) under its inverse automorphism.  The inverses are the output
# of invert_map's bounded search, stored so that no process repeats it.
# ActionFamily.verify_relations certifies every inverse it uses (pair ∘
# inverse = identity on generators) and the tests compose both ways.  One
# side suffices: a free group of finite rank is Hopfian, so a surjective
# endomorphism is an automorphism and a one-sided inverse is two-sided.
# Kind 1 carries a parameter and is built in _wada_pairs.
_WADA_TABLE = {
    kind: (WadaPair(_w2(w), _w2(v)), WadaPair(_w2(w_inv), _w2(v_inv)))
    for kind, (w, v, w_inv, v_inv) in {
        2: ("g1", "g2", "g1", "g2"),
        3: ("g2", "g1^-1", "g2^-1", "g1"),
        # Kind 4 is the half-twist type g1 -> g2, g2 -> g2 g1^-1 g2; the
        # conjugated variant (g2, g2^-1 g1^-1 g2) sometimes seen in print
        # fails the braid relation and is rejected by the instantiation check.
        4: ("g2", "g2*g1^-1*g2", "g1*g2^-1*g1", "g1"),
        5: ("g2^-1", "g1^-1", "g2^-1", "g1^-1"),
        6: ("g2^-1", "g2*g1*g2", "g1*g2*g1", "g1^-1"),
        7: ("g1*g2^-1*g1^-1", "g1*g2^2", "g1^2*g2", "g2^-1*g1^-1*g2"),
    }.items()
}


@lru_cache(maxsize=64)
def _wada_pairs(kind: int, m: int) -> tuple[WadaPair, WadaPair]:
    """The kind-k local pair and the pair of its inverse automorphism."""
    if kind == 1:
        g1 = FreeWord.generator(2, 1)
        g2 = FreeWord.generator(2, 2)
        # Closed-form inverse, valid at every m.
        return (
            WadaPair(g2, (g2 ** (-m)) * g1 * (g2 ** m)),
            WadaPair((g1 ** m) * g2 * (g1 ** (-m)), g1),
        )
    if kind not in _WADA_TABLE:
        raise FreeGroupError(f"unknown local action kind {kind}")
    return _WADA_TABLE[kind]


def wada_pair(kind: int, m: int = 1) -> WadaPair:
    """The seven classified local braid-action pairs.

    Kind 1 carries an integer parameter; its sign is normalized here so
    that kind 1 with m = 1 is exactly the Artin action (the classification
    lists the pair only up to duality, which flips that sign).
    """
    return _wada_pairs(kind, m)[0]


def reduced_words(rank: int, max_len: int):
    """Every freely reduced word of length <= max_len in the letters
    ±1..±rank, as a tuple of signed letters, breadth first: by length, and
    within a length in the letter order 1, -1, 2, -2, ..."""
    letters = [l for i in range(1, rank + 1) for l in (i, -i)]
    frontier = [()]
    yield ()
    for _ in range(max_len):
        nxt = []
        for word in frontier:
            for letter in letters:
                if not word or word[-1] != -letter:
                    ext = word + (letter,)
                    nxt.append(ext)
                    yield ext
        frontier = nxt


def invert_map(phi: FreeGroupMap, search_bound: int = 8) -> FreeGroupMap | None:
    """Search for the inverse automorphism by bounded generator-image search.

    A map with a two-sided inverse is injective, and an injective map sends
    at most one reduced word to each gi, so the first reduced word whose
    image is gi^{±1} is the only candidate for psi(gi).  The search keeps
    that one preimage per generator and stops once every generator has one;
    the candidate is certified by composing both ways to the identity on
    generators, never assumed.
    """
    n = phi.source_rank
    if phi.target_rank != n:
        return None
    preimages: dict[int, FreeWord] = {}
    for letters in reduced_words(n, search_bound):
        w = FreeWord(n, tuple((abs(l), 1 if l > 0 else -1) for l in letters))
        img = phi.apply_word(w)
        if img.length() == 1:
            gen, exp = img.syllables[0]
            preimages.setdefault(gen, w if exp == 1 else w.inverse())
            if len(preimages) == n:
                break
    if len(preimages) < n:
        return None
    psi = FreeGroupMap(n, n, [preimages[i] for i in range(1, n + 1)])
    if psi.compose(phi).is_identity() and phi.compose(psi).is_identity():
        return psi
    return None


def artin_generator_map(n: int, gen: int) -> FreeGroupMap:
    """The classical action of a signed braid generator on F_n,

        si:  gi -> g(i+1),  g(i+1) -> g(i+1)^-1 gi g(i+1),  else fixed,

    which is the kind-1 Wada pair at m = 1, so it is read from that table.
    """
    return wada_generator_map(n, gen, 1)


@lru_cache(maxsize=1024)
def wada_generator_map(n: int, gen: int, kind: int, m: int = 1) -> FreeGroupMap:
    """Action of a signed braid generator through the kind-k local pair."""
    i = abs(gen)
    if not 1 <= i <= n - 1:
        raise FreeGroupError(f"generator s{gen} outside braid group on {n} strands")
    pair = _wada_pairs(kind, m)[gen < 0]
    return _pair_map(n, i, pair.w, pair.v)
