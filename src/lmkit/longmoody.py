"""The Long-Moody construction as an executable operation on braid
functors, together with the coherence and reliability checks on the input
data and the router blocks of the splitting morphisms that the degree
calculus certifies.

The construction consumes an action family a_n: B_n -> Aut(F_n) and a
local system F_n -> B_{n+1}; coherent pairs produce a functor whose value
at level n is the augmentation ideal of the rank-n group ring tensored
with the input functor at level n+1.  In the free basis (g_i - 1) that
module is n blocks of the translate τ₁F(n) = F(n+1), and the matrix of a
braid letter has block (r, c) equal to

    (F ∘ localsystem)(fox_r(action(letter)(g_c))) * τ₁F(letter),

the Fox-coordinate expansion of the action on basis differences.  That
Fox Jacobian depends on the action and the letter only, never on the input
functor or the configuration, so one module table stores it under (action
rule, level, signed letter): the nonzero (r, c, coefficient, unit) entries,
expanded once however many configurations, nested images and functors are
built over that rule (stored by memo.remember, oldest dropped first).  Its
image under the local system is stored the same way, per system rule
(braidcat.LocalSystem).  A coefficient equal to the unit 1·[e] of the group
ring, flagged once in the table, contributes τ₁F(letter) itself, so that
block is placed without a group-ring matrix or a product; the other blocks
are multiplied out as above.  The stabilization from n to n+1 is τ₁F's
own on each of the n blocks, which land after one wholly new block; τ₁F
carries the inverse-braiding router.  Longer stabilizations compose these.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, reduce

from .laurent import LaurentPoly, PolyMatrix, ONE, _matrix
from .freegroup import (
    FreeGroupMap,
    FreeWord,
    GroupRingElement,
    artin_generator_map,
    fox_derivatives,
    wada_generator_map,
)
from .braidcat import (
    BraidWord,
    LocalSystem,
    artin_relations,
    artin_witness,
    pure_braid_system,
    router,
    shift_letter,
    signed_letters,
    trivial_system,
)
from .repfun import (
    BraidFunctor,
    CheckReport,
    constant_functor,
    group_ring_matrix,
    scalar_twist,
    translate,
)
from .memo import remember


class CoherenceError(ValueError):
    pass


@dataclass(frozen=True)
class ActionFamily:
    """A family of braid-group actions on free groups, one level at a time.

    rule(n, letter) must return the automorphism of F_n for the signed
    Artin letter; the extension to words is multiplicative.  artin_family
    and wada_family store one family per action, over one rule object, and
    spot-verify it when built: the relations of B_n, inverse pairs
    included, must hold as exact word identities on a small range.
    """

    name: str
    rule: object

    def generator_map(self, n: int, letter: int) -> FreeGroupMap:
        return self.rule(n, letter)

    def verify_relations(self, max_n: int = 5) -> None:
        """Raise at the first relation of braidcat.artin_relations(n), n <=
        max_n, that the letter maps break, each side composed uncancelled."""
        for n in range(2, max_n + 1):
            for kind, where, lhs, rhs in artin_relations(n):
                if self._product(n, lhs) != self._product(n, rhs):
                    fails = _RELATION_FAILS[kind].format(n=n, **where)
                    raise CoherenceError(f"{self.name}: {fails}")

    def _product(self, n: int, letters) -> FreeGroupMap:
        maps = [self.rule(n, letter) for letter in letters]
        return reduce(FreeGroupMap.compose, maps) if maps else FreeGroupMap.identity(n)


_RELATION_FAILS = {
    "braid-relation": "braid relation fails at n={n}, i={i}",
    "commutation": "commutation fails at n={n}, ({i},{j})",
    "inverse": "inverse fails at n={n}, i={i}",
}


@lru_cache(maxsize=1)
def artin_family() -> ActionFamily:
    family = ActionFamily("artin", artin_generator_map)
    family.verify_relations()
    return family


def wada_family(kind: int, m: int = 1) -> ActionFamily:
    """The kind-k Wada action, stored once per (kind, m) by _wada_family,
    which always receives both, so wada_family(k) is wada_family(k, 1)."""
    return _wada_family(kind, m)


@lru_cache(maxsize=64)
def _wada_family(kind: int, m: int) -> ActionFamily:
    # One rule per (kind, m), called positionally: a keyword partial cost 90 ns more a call.
    name = f"wada{kind}" + (f"(m={m})" if kind == 1 and m != 1 else "")
    family = ActionFamily(name, lambda n, letter: wada_generator_map(n, letter, kind, m))
    family.verify_relations()
    return family


def action_family(name: str) -> ActionFamily:
    if name == "artin":
        return artin_family()
    match = re.fullmatch(r"wada([1-9]\d*)(?::(0|-?[1-9]\d*))?", name)
    if match:
        if match[2] is not None and match[1] != "1":
            raise CoherenceError(f"{name!r}: only wada1 takes a parameter")
        return wada_family(int(match[1]), int(match[2] or 1))
    raise CoherenceError(f"unknown action family {name!r}")


# Fox Jacobians keyed by (action rule, level, signed letter), so every
# configuration built on one rule expands each once.  Rules are pure, and a
# key holds its rule, so a rule's identity is never reused while it has
# entries.  Only moved columns are expanded (two per letter for Artin); a
# fixed one is the unit.
_FOX: dict = {}


@dataclass(frozen=True)
class LongMoodyConfig:
    """Parameters of one Long-Moody application.

    pre_twist scales the input functor's braid action by a unit before the
    construction; post_scale scales every generator matrix of the output.
    Both are optional and must be units.  The Fox-Jacobian table is keyed
    by the action's rule, so two same-name actions over different rules
    never share entries.
    """

    action: ActionFamily
    system: LocalSystem
    pre_twist: LaurentPoly | None = None
    post_scale: LaurentPoly | None = None

    def __post_init__(self):
        for twist in (self.pre_twist, self.post_scale):
            if twist is not None and not twist.is_unit():
                raise CoherenceError("twists must be units of the coefficient ring")

    def fox_jacobian(self, n: int, letter: int) -> tuple:
        """The nonzero (r, c, fox_r(action(letter)(g_c)), unit) at level n,
        with c outer and r inner, unit telling whether the coefficient is
        1·[e]; stored under (action rule, n, letter).  Column c is fixed
        when the action maps g_c to g_c itself: by the free calculus
        fox_r(g_c) is 1 for r = c and 0 otherwise, so the column is
        (c, c, 1, True) with no expansion.  fox_derivatives runs on the
        moved columns only."""
        key = (self.action.rule, n, letter)
        hit = _FOX.get(key)
        if hit is None:
            images = self.action.generator_map(n, letter).images
            unit = GroupRingElement.one(n)
            entries = []
            for c, image in enumerate(images, 1):
                if image.syllables == ((c, 1),):
                    entries.append((c, c, unit, True))
                    continue
                for r, coeff in enumerate(fox_derivatives(image).coords, 1):
                    if not coeff.is_zero():
                        entries.append((r, c, coeff, coeff == unit))
            hit = tuple(entries)
            remember(_FOX, key, hit)
        return hit

    def label(self) -> str:
        parts = [self.action.name, self.system.name]
        if self.pre_twist is not None:
            parts.append(f"pre={self.pre_twist}")
        if self.post_scale is not None:
            parts.append(f"post={self.post_scale}")
        return ",".join(parts)


def standard_config(pre: LaurentPoly | None = None, post: LaurentPoly | None = None) -> LongMoodyConfig:
    """The classical coherent reliable pair: Artin action, pure-braid system."""
    return LongMoodyConfig(artin_family(), pure_braid_system(), pre, post)


# ---------------------------------------------------------------------------
# The construction
# ---------------------------------------------------------------------------


def _pretwisted(cfg: LongMoodyConfig, f: BraidFunctor) -> BraidFunctor:
    return scalar_twist(f, cfg.pre_twist) if cfg.pre_twist is not None else f


def long_moody(cfg: LongMoodyConfig, f: BraidFunctor) -> BraidFunctor:
    """Apply the construction once; requires f defined one level higher.

    Level n is n blocks of tau = translate(pre-twisted f, 1) at n.  The
    stabilization n -> n+1 is tau's, one copy per block, placed after the
    one new block of the target, of size f.dim(n+2).
    """
    base = _pretwisted(cfg, f)
    tau = translate(base, 1)
    post = cfg.post_scale

    def dim(n):
        return n * f.dim(n + 1)

    def gen(n, letter):
        d = f.dim(n + 1)
        right = tau.gen_matrix(n, letter)
        scale = ONE if post is None else post if letter > 0 else post.unit_inverse()
        unit_block = right.scale(scale)
        entries = {}
        for r, c, coeff, unit in cfg.fox_jacobian(n, letter):
            if unit:
                block = unit_block
            else:
                block = group_ring_matrix(base, n, cfg.system, coeff).matmul(right).scale(scale)
            for (br, bc), val in block.entries.items():
                entries[((r - 1) * d + br, (c - 1) * d + bc)] = val
        return _matrix(n * d, n * d, entries)

    def stab(n):
        blocks = PolyMatrix.identity(n).kron(tau.stab(n, n + 1))
        return PolyMatrix.zeros(f.dim(n + 2), 0).direct_sum(blocks)

    label = f"lm({cfg.label()};{f.name})"
    return BraidFunctor(label, dim, gen, stab, eval_range=f.eval_range - 1)


def long_moody_power(cfg: LongMoodyConfig, f: BraidFunctor, iterations: int) -> BraidFunctor:
    out = f
    for _ in range(iterations):
        out = long_moody(cfg, out)
    return out


# ---------------------------------------------------------------------------
# Coherence and reliability
# ---------------------------------------------------------------------------


@dataclass
class ConditionResult:
    condition: str
    params: dict
    witness: dict | None
    seed: int

    @property
    def verdict(self) -> bool:
        return self.witness is None

    def to_json(self) -> dict:
        return {
            "condition": self.condition,
            "verdict": "pass" if self.verdict else "fail",
            "range": self.params,
            "witness": self.witness,
            "seed": self.seed,
        }


@dataclass
class CoherenceReport:
    results: list

    @property
    def passed(self) -> bool:
        return all(r.verdict for r in self.results)

    def to_json(self) -> list:
        return [r.to_json() for r in self.results]


def check_coherence(
    cfg: LongMoodyConfig,
    big_n: int,
    word_len: int,
    seed: int = 0,
) -> CoherenceReport:
    """The three conditions a pair must satisfy for the construction to be
    functorial: stability of the local system, compatibility of the action
    with the level inclusions, and the semidirect-product factorization.

    Every identity is decided exactly.  Free-group identities are word
    comparisons; braid-word identities compare Artin automorphisms
    (artin_witness).  Artin's theorem (1925): B_n -> Aut(F_n) is
    faithful.  Here s_i acts as the standard sigma_i^-1, and the mirror
    sigma_i -> sigma_i^-1 is an automorphism of B_n, so faithfulness
    carries over: two words are equal braids exactly when their images of
    g1..gn agree.  No verdict depends on the seed, which is only reported.
    Each condition reports its first failure in enumeration order as the
    witness.

    Both braid-word conditions are decided on signed letters, whose maps
    the action stores, which proves them for every word; word_len 0 checks
    neither, and every word_len >= 1 checks the same letters.

    Action compatibility, a(psi ♮ sigma)(g_{k+i}) = shift_k a(sigma)(g_i) on
    k = n' - n added strands, is checked like repfun.check_functor: at
    n' = n+1 for (sigma, id), sigma a signed letter on n strands, and at
    n' = n+2 for (id, s_1^{±1}).  This decides every n < n' and all words:
    psi ♮ sigma = (psi ♮ id)(id ♮ sigma), and the identity composes over
    factors and along words, so letters suffice.  The one-step identity
    holds on all of F_n, both sides being homomorphisms, and shift_k sigma
    = shift_1(shift_{k-1} sigma), so pasting the one-step identity of
    shift_{k-1} sigma at level n+k-1 gives every k by induction.
    s_j ♮ id_n with j >= 2 is shift_1 of s_{j-1} ♮ id_n, handled the same
    way; s_1 ♮ id_n must fix g_{k+1}..g_{n+k}, which are among the
    g_3..g_{n+k} that the k = 2 check at level n+k-2 covers.  The checks
    kept are a subsequence of those over every n < n', so the first witness
    may be a later one: the one-step square a failing composite pastes from.
    Semidirect: for a fixed sigma both sides are homomorphisms
    F_n -> B_{n+1} in g, and the identity composes in sigma because a word
    acts by its letters' maps multiplied in the order of shift.  Letters
    lead the nonempty words breadth first, so the first failure, and with
    it the witness, is the one all words would give.
    """
    action, system = cfg.action, cfg.system

    def letters(n):
        return signed_letters(n) if word_len >= 1 else ()

    def stability():
        # Routing the new strand past one added strand commutes with the
        # system, on free generators (both sides are multiplicative).
        for n in range(0, big_n):
            cross = BraidWord(n + 2, (-1,))
            for i in range(1, n + 1):
                lhs = cross.compose(system.generator_image(n, i).shift(1, n + 2))
                rhs = system.generator_image(n + 1, i + 1).compose(cross)
                why = artin_witness(lhs, rhs)
                if why:
                    yield {"n": n, "generator": f"g{i}", "detail": why}

    def action_compatibility():
        # (sigma, id) one step up and (id, s1^±1) two steps up decide all.
        for n in range(0, big_n):
            for letter in letters(n):
                up = action.generator_map(n + 1, shift_letter(letter, 1)).images
                images = action.generator_map(n, letter).images
                for i in range(1, n + 1):
                    if up[i] != images[i - 1].shifted(1, n + 1):
                        yield {"n": n, "n2": n + 1, "word": [letter], "psi": [],
                               "generator": f"g{i}"}
            for letter in letters(2) if n + 2 <= big_n else ():
                up = action.generator_map(n + 2, letter).images
                for i in range(1, n + 1):
                    if up[i + 1] != FreeWord.generator(n + 2, i + 2):
                        yield {"n": n, "n2": n + 2, "word": [], "psi": [letter],
                               "generator": f"g{i}"}

    def semidirect():
        # Conjugating the system through the shifted letter equals the
        # system of the acted generator (see the docstring).
        for n in range(0, big_n):
            for letter in letters(n):
                shifted = BraidWord(n + 1, (shift_letter(letter, 1),))
                images = action.generator_map(n, letter).images
                for i in range(1, n + 1):
                    lhs = shifted.compose(system.generator_image(n, i))
                    acted = system.evaluate(images[i - 1])
                    why = artin_witness(lhs, acted.compose(shifted))
                    if why:
                        yield {"n": n, "word": [letter], "generator": f"g{i}", "detail": why}

    return CoherenceReport([
        ConditionResult("stability", {"N": big_n}, next(stability(), None), seed),
        ConditionResult("action-compatibility", {"N": big_n, "L": word_len},
                        next(action_compatibility(), None), seed),
        ConditionResult("semidirect", {"N": big_n, "L": word_len}, next(semidirect(), None), seed),
    ])


def check_reliability(
    cfg: LongMoodyConfig, big_n: int, word_len: int, seed: int = 0
) -> CoherenceReport:
    """The two extra conditions for the splitting machinery, both exact
    free-group word identities: the routed first generator returns to g1,
    and juxtaposed braids fix the first generators.

    The first, a(router(1, n, n'))(g_{n'-n+1}) = g1 in F_{n'+1} for n < n',
    is decided on stored letter maps.  The router is s1^-1 ... sm^-1, m =
    n' - n, and its last letter acts first, so every identity holds when,
    at each rank r = 2..N+1, a(r, -i) sends g_{i+1} to g_i for all i < r.
    Conversely, at the least failing i of the least failing r the letters
    s1^-1 .. s_{i-1}^-1 act by an automorphism sending g_i to g1, so not
    a(r, -i)(g_{i+1}) != g_i: the identity for (n' - i, n'), n' = r - 1,
    fails.  Only that router's image is computed, for the witness.

    The second, for sigma on n strands shifted past k = n' - n added ones,
    is decided on signed letters (word_len 0 checks nothing): a shifted
    word acts by the product of its letters' maps, and maps fixing g1..gk
    compose to one that fixes them; the empty word fixes every generator.
    Only s_1^{±1} is read: the identity for (s_j, k) at n, "a(n', ±(j+k))
    fixes g1..gk", is part of the one for (s_1, j+k-1) at n-j+1 < n, which
    the loop visits first.  So the verdict and the first witness are those
    of every letter.
    """
    action = cfg.action

    def first_generator_return():
        # n2 = n is the empty router, which returns g1 itself.
        for n2 in range(1, big_n + 1):
            for i in range(1, n2 + 1):
                got = action.generator_map(n2 + 1, -i).images[i]
                if got != FreeWord.generator(n2 + 1, i):
                    for j in range(i - 1, 0, -1):
                        got = action.generator_map(n2 + 1, -j).apply_word(got)
                    yield {"n": n2 - i, "n2": n2, "image": str(got)}

    def first_generators_fixed():
        for n in range(2, big_n + 1) if word_len >= 1 else ():
            for n2 in range(n + 1, big_n + 1):
                k = n2 - n
                for letter in signed_letters(2):
                    images = action.generator_map(n2, shift_letter(letter, k)).images
                    for p in range(1, k + 1):
                        if images[p - 1] != FreeWord.generator(n2, p):
                            yield {"n": n, "n2": n2, "word": [letter], "generator": f"g{p}"}

    return CoherenceReport([
        ConditionResult(
            "first-generator-return", {"N": big_n}, next(first_generator_return(), None), seed
        ),
        ConditionResult("first-generators-fixed", {"N": big_n, "L": word_len},
                        next(first_generators_fixed(), None), seed),
    ])


def check_coherent_reliable(
    cfg: LongMoodyConfig, big_n: int, word_len: int, seed: int = 0
) -> CoherenceReport:
    """All five conditions in one report."""
    return CoherenceReport(
        check_coherence(cfg, big_n, word_len, seed).results
        + check_reliability(cfg, big_n, word_len, seed).results
    )


# ---------------------------------------------------------------------------
# Splitting morphisms
# ---------------------------------------------------------------------------


def router_blocks(cfg: LongMoodyConfig, f: BraidFunctor, n: int):
    """F(r) and F(r^-1), for F the pre-twisted input and r = router(1, n,
    n+1) the inverse braiding on n+2 strands: the blocks of the two
    inclusions that decompose the translate of the image functor.

    new_block : F(n+2) -> translate(LM F)(n), hitting the first block
                (the basis difference of the added generator);
    old_blocks: LM(translate F)(n) -> translate(LM F)(n), shifting block j
                to block j+1 and twisting by F(r).

    So with d = F(n+2) their concatenation [new_block | old_blocks] is
    I_d ⊕ (I_n ⊗ F(r)), with inverse I_d ⊕ (I_n ⊗ F(r^-1)) exactly when
    F(r) F(r^-1) = I.
    """
    base, word = _pretwisted(cfg, f), router(1, n, n + 1)
    return base.word_matrix(word), base.word_matrix(word.inverse())


def check_inclusion_lemma(cfg: LongMoodyConfig, f: BraidFunctor, big_n: int):
    """Exact identity: old_blocks ∘ (LM of the inclusion) equals the image
    functor's own stabilization by one.  LM of the canonical inclusion of f
    is I_n ⊗ f.stab(n+1, n+2), block diagonal copies of that stabilization.

    This check cannot fail: long_moody builds LM(f).stab(n, n+1) as 0 ⊕
    (I_n ⊗ tau.stab(n, n+1)), and tau = translate(F, 1), F the pre-twisted
    f with f's stabilizations, has the one-step map F(router(1, n, n+1)) ·
    F.stab(n+1, n+2): the product placed here, on every input."""
    report = CheckReport(
        "inclusion-lemma", {"N": big_n, "functor": f.name, "cfg": cfg.label()}
    )
    lm_f = long_moody(cfg, f)
    for n in range(0, big_n + 1):
        q_mat = router_blocks(cfg, f, n)[0].matmul(f.stab(n + 1, n + 2))
        lhs = PolyMatrix.zeros(f.dim(n + 2), 0).direct_sum(PolyMatrix.identity(n).kron(q_mat))
        report.expect(lhs == lm_f.stab(n, n + 1), n=n)
    return report


def check_factorization(action: ActionFamily, f: BraidFunctor, big_n: int):
    """With the trivial local system the construction factors as a
    Kronecker product: LM(F) = LM(constant) ⊗ translate(F), exactly,
    on generator matrices and one-step stabilizations, which decide every
    n -> n': n' = n is I = I ⊗ I, and (A ⊗ B)(C ⊗ D) = AC ⊗ BD."""
    cfg = LongMoodyConfig(action, trivial_system())
    lm_f = long_moody(cfg, f)
    # The constant functor's range is at least f's, and lm_f is evaluated
    # first below, so a level out of range is reported against lm_f.
    lm_x = long_moody(cfg, constant_functor())
    tau_f = translate(f, 1)
    report = CheckReport(
        "trivial-system-factorization", {"N": big_n, "functor": f.name, "action": action.name}
    )
    for n in range(0, big_n + 1):
        for i in signed_letters(n):
            ok = lm_f.gen_matrix(n, i) == lm_x.gen_matrix(n, i).kron(tau_f.gen_matrix(n, i))
            report.expect(ok, kind="generator", n=n, i=i)
        if n < big_n:
            ok = lm_f.stab(n, n + 1) == lm_x.stab(n, n + 1).kron(tau_f.stab(n, n + 1))
            report.expect(ok, kind="stabilization", n=n, n2=n + 1)
    return report
