import random
import sys
from functools import partial

import pytest

from lmkit.laurent import LaurentPoly, ONE, PolyMatrix, T, ZERO
from lmkit.freegroup import (
    FreeGroupMap,
    FreeWord,
    GroupRingElement,
    artin_generator_map,
    fox_derivatives,
    wada_generator_map,
)
from lmkit import braidcat, laurent, longmoody, memo, polyfun, repfun
from lmkit.braidcat import (
    BraidWord,
    LocalSystem,
    artin_witness,
    local_system,
    pure_braid_system,
    shift_letter,
    signed_letters,
    trivial_system,
)
from lmkit.repfun import (
    BraidFunctor,
    burau_functor,
    check_functor,
    constant_functor,
    direct_sum,
    group_ring_matrix,
    lk_functor,
    scalar_twist,
    translate,
    tym_functor,
    zero_functor,
)
from lmkit.longmoody import (
    ActionFamily,
    CoherenceError,
    LongMoodyConfig,
    action_family,
    artin_family,
    check_coherence,
    check_coherent_reliable,
    check_factorization,
    check_inclusion_lemma,
    check_reliability,
    long_moody,
    long_moody_power,
    router_blocks,
    standard_config,
    wada_family,
)
from lmkit.cli import parse_functor
from lmkit.polyfun import resolution

import reference_kernels
from display_fixtures import oriented
from reference_kernels import (
    apply_aug,
    enumerate_words,
    full_action_compatibility,
    full_check_factorization,
    full_first_generator_return,
    two_block_splitting,
    word_map,
)

T_INV = T.unit_inverse()
T2 = T * T


def twisted_constant_image():
    return long_moody(standard_config(pre=T, post=T_INV), constant_functor())


def conjugated_artin(name, pick):
    """The classical action conjugated by the generator g_pick(n) of F_n:
    still a braid action, but conjugating by g1 breaks compatibility with
    the level inclusions, and by g_n moves the first generators of the
    bigger group."""

    def rule(n, letter):
        c = FreeWord.generator(n, pick(n))
        gens = [FreeWord.generator(n, i) for i in range(1, n + 1)]
        conj = FreeGroupMap(n, n, [c * g * c.inverse() for g in gens])
        conj_inv = FreeGroupMap(n, n, [c.inverse() * g * c for g in gens])
        return conj.compose(artin_generator_map(n, letter)).compose(conj_inv)

    family = ActionFamily(name, rule)
    family.verify_relations(4)
    return family


def planted_s3_fault():
    """The classical action, except that s3^{±1} on 5 strands also inverts
    g1; relations are verified on levels up to 4 only, which it passes."""

    def rule(n, letter):
        amap = artin_generator_map(n, letter)
        if n == 5 and abs(letter) == 3:
            amap = FreeGroupMap(5, 5, [amap.images[0].inverse(), *amap.images[1:]])
        return amap

    family = ActionFamily("artin-s3-moves-g1-at-5", rule)
    family.verify_relations(4)
    return family


def planted_router_fault(rank, i=1):
    """The classical action, except that s_i^-1 on `rank` strands is the
    identity, so it sends g_{i+1} to itself and not to g_i; relations are
    verified below that rank only."""

    def rule(n, letter):
        if (n, letter) == (rank, -i):
            return FreeGroupMap.identity(n)
        return artin_generator_map(n, letter)

    family = ActionFamily(f"artin-s{i}-inverse-is-the-identity-at-{rank}", rule)
    family.verify_relations(rank - 1)
    return family


def all_words_compatibility(action, big_n, word_len):
    """Reference for action compatibility: every pair of words, no letter
    argument."""
    for n in range(big_n + 1):
        for n2 in range(n + 1, big_n + 1):
            k = n2 - n
            for sigma in enumerate_words(n, word_len):
                sigma_map = word_map(action, n, sigma)
                for psi in enumerate_words(k, word_len):
                    full_map = word_map(action, n2, psi.monoidal(sigma))
                    for i in range(1, n + 1):
                        want = sigma_map.apply_word(FreeWord.generator(n, i)).shifted(k, n2)
                        if full_map.apply_word(FreeWord.generator(n2, i + k)) != want:
                            return {
                                "n": n,
                                "n2": n2,
                                "word": list(sigma.letters),
                                "psi": list(psi.letters),
                                "generator": f"g{i}",
                            }
    return None


def all_words_first_generators_fixed(action, big_n, word_len):
    """Reference for first-generators-fixed over every word."""
    for n in range(big_n + 1):
        for n2 in range(n + 1, big_n + 1):
            k = n2 - n
            for sigma in enumerate_words(n, word_len):
                amap = word_map(action, n2, sigma.shift(k, n2))
                for p in range(1, k + 1):
                    if amap.apply_word(FreeWord.generator(n2, p)) != FreeWord.generator(n2, p):
                        return {"n": n, "n2": n2, "word": list(sigma.letters), "generator": f"g{p}"}
    return None


def all_words_semidirect(cfg, big_n, word_len):
    """Reference for the semidirect condition over every word, no letter
    argument, decided on the Artin action as the check decides it."""
    action, system = cfg.action, cfg.system
    for n in range(big_n):
        for sigma in enumerate_words(n, word_len)[1:]:
            shifted = sigma.shift(1, n + 1)
            amap = word_map(action, n, sigma)
            for i in range(1, n + 1):
                lhs = shifted.compose(system.generator_image(n, i))
                acted = system.evaluate(amap.apply_word(FreeWord.generator(n, i)))
                why = artin_witness(lhs, acted.compose(shifted))
                if why:
                    return {"n": n, "word": list(sigma.letters), "generator": f"g{i}",
                            "detail": why}
    return None


def condition(report, name):
    """The result of the named condition in a coherence report."""
    return next(r for r in report.results if r.condition == name)


class TestConstruction:
    def test_dimension_rule(self):
        m = long_moody(standard_config(), burau_functor())
        for n in range(5):
            assert m.dim(n) == n * (n + 1)
        assert twisted_constant_image().dim(4) == 4

    def test_classical_block_reproduction(self):
        # The twisted image of the constant functor: every generator is the
        # recorded 2x2 block pattern (fixture carries the orientation flag).
        m = twisted_constant_image()
        block = oriented("lm-constant-block")
        for n in range(2, 7):
            for i in range(1, n):
                expected = (
                    PolyMatrix.identity(i - 1)
                    .direct_sum(block)
                    .direct_sum(PolyMatrix.identity(n - i - 1))
                )
                assert m.gen_matrix(n, i) == expected

    @pytest.mark.parametrize("pre,post", [(T, None), (None, T_INV), (T, T_INV)])
    def test_twisted_split_certifies(self, pre, post):
        for base in (burau_functor(), tym_functor(), lk_functor()):
            image = long_moody(standard_config(pre, post), base)
            for n in range(0, 5):
                assert resolution(image, n).certify(image.stab(n, n + 1)), (base.name, n)

    def test_negative_letter_is_inverse(self):
        m = twisted_constant_image()
        assert m.gen_matrix(3, -1) == m.gen_matrix(3, 1).inverse()

    def test_image_passes_functor_criterion(self):
        for base in (constant_functor(), burau_functor()):
            image = long_moody(standard_config(), base)
            assert check_functor(image, 4, 2).passed

    def test_trivial_system_blockdiag(self):
        # With the identity-pair action and trivial system the image is a
        # block diagonal of translated copies.
        cfg = LongMoodyConfig(wada_family(2), trivial_system())
        for base in (constant_functor(), burau_functor()):
            image = long_moody(cfg, base)
            shifted = translate(base, 1)
            for n in range(1, 5):
                for i in range(1, n):
                    blk = shifted.gen_matrix(n, i)
                    expected = blk
                    for _ in range(n - 1):
                        expected = expected.direct_sum(blk)
                    assert image.gen_matrix(n, i) == expected

    def test_half_twist_pattern(self):
        # Kind-3 action, trivial system, twisted: blocks [[0,-1],[1,0]].
        cfg = LongMoodyConfig(wada_family(3), trivial_system(), pre_twist=T, post_scale=T_INV)
        image = long_moody(cfg, constant_functor())
        block = PolyMatrix.from_rows([[ZERO, LaurentPoly.const(-1)], [ONE, ZERO]])
        for n in range(2, 6):
            for i in range(1, n):
                expected = (
                    PolyMatrix.identity(i - 1)
                    .direct_sum(block)
                    .direct_sum(PolyMatrix.identity(n - i - 1))
                )
                assert image.gen_matrix(n, i) == expected

    def test_reversal_conjugation(self):
        # Antidiagonal conjugation lands on the flipped generator index;
        # composing with the half-twist matrix matches indices exactly.
        m = twisted_constant_image()
        target = burau_functor(T2)
        for n in range(2, 7):
            reversal = PolyMatrix(n, n, {(i, n - 1 - i): ONE for i in range(n)})
            for i in range(1, n):
                conj = reversal.matmul(m.gen_matrix(n, i)).matmul(reversal)
                assert conj == target.gen_matrix(n, n - i)
            letters = []
            for k in range(1, n):
                letters.extend(range(k, 0, -1))
            half = target.word_matrix(BraidWord(n, tuple(letters)))
            s = half.matmul(reversal)
            s_inv = s.inverse()
            for i in range(1, n):
                assert s.matmul(m.gen_matrix(n, i)).matmul(s_inv) == target.gen_matrix(n, i)

    def test_iterated_dimensions(self):
        cfg = standard_config()
        m2 = long_moody_power(cfg, constant_functor(), 2)
        for n in range(5):
            assert m2.dim(n) == n * (n + 1)

    def test_zero_functor_maps_to_zero(self):
        image = long_moody(standard_config(), zero_functor())
        assert image.dim(3) == 0

    def test_additivity_up_to_block_permutation(self):
        # LM(F ⊕ G) equals LM(F) ⊕ LM(G) after reordering the interleaved
        # block basis, exactly, for generators and stabilizations.
        cfg = standard_config()
        f, g = burau_functor(), tym_functor()
        both = long_moody(cfg, direct_sum(f, g))
        split_sum = direct_sum(long_moody(cfg, f), long_moody(cfg, g))

        def perm(n):
            df, dg = f.dim(n + 1), g.dim(n + 1)
            entries = {}
            for j in range(n):
                for r in range(df):
                    entries[(j * df + r, j * (df + dg) + r)] = ONE
                for r in range(dg):
                    entries[(n * df + j * dg + r, j * (df + dg) + df + r)] = ONE
            return PolyMatrix(n * (df + dg), n * (df + dg), entries)

        for n in range(0, 4):
            p = perm(n)
            for i in range(1, n):
                assert p.matmul(both.gen_matrix(n, i)) == split_sum.gen_matrix(n, i).matmul(p)
            for n2 in range(n, 4):
                p2 = perm(n2)
                assert p2.matmul(both.stab(n, n2)) == split_sum.stab(n, n2).matmul(p)

    def test_tensor_relation_wellformed(self):
        # Moving a group-ring coefficient through the tensor: for any basis
        # difference times a word, the block column transforms by the
        # word's matrix on the right.
        cfg = standard_config()
        f = burau_functor()
        image = long_moody(cfg, f)
        rng = random.Random(3)
        n = 3
        d = f.dim(n + 1)

        def vec_matrix(x):
            entries = {}
            for r in range(n):
                block = group_ring_matrix(f, n, cfg.system, x.coords[r])
                for (br, bc), val in block.entries.items():
                    entries[(r * d + br, bc)] = val
            return PolyMatrix(n * d, d, entries)

        for _ in range(6):
            letter = rng.choice([1, -1]) * rng.randint(1, n - 1)
            word = FreeWord(n, tuple((rng.randint(1, n), rng.choice([1, -1])) for _ in range(3)))
            amap = cfg.action.generator_map(n, letter)
            for j in range(1, n + 1):
                x = fox_derivatives(FreeWord.generator(n, j) * word)
                x = type(x)(n, [c - fox_derivatives(word).coords[idx] for idx, c in enumerate(x.coords)])
                # x now holds the coordinates of (g_j - 1) * word.
                lhs = image.gen_matrix(n, letter).matmul(vec_matrix(x))
                shifted = BraidWord(n + 1, (shift_letter(letter, 1),))
                rhs = vec_matrix(apply_aug(amap, x)).matmul(f.word_matrix(shifted))
                assert lhs == rhs


class TestCoherence:
    def test_classical_pair_passes(self):
        report = check_coherent_reliable(standard_config(), 4, 3)
        assert report.passed
        names = [r.condition for r in report.results]
        assert names == [
            "stability",
            "action-compatibility",
            "semidirect",
            "first-generator-return",
            "first-generators-fixed",
        ]

    def test_trivial_system_vacuous_conditions(self):
        for kind in range(1, 8):
            cfg = LongMoodyConfig(wada_family(kind), trivial_system())
            report = check_coherence(cfg, 3, 2)
            assert report.passed, (kind, [r.to_json() for r in report.results])

    def test_corrupted_system_fails_semidirect(self):
        cfg = LongMoodyConfig(artin_family(), local_system("corrupted-demo"))
        report = check_coherence(cfg, 3, 2)
        semidirect = condition(report, "semidirect")
        assert not semidirect.verdict
        assert semidirect.witness["n"] == 2
        assert semidirect.witness["word"] == [1]
        assert semidirect.witness["generator"] == "g1"

    def test_conjugated_action_fails_reliability(self):
        family = conjugated_artin("artin-conjugated", lambda n: n)
        cfg = LongMoodyConfig(family, pure_braid_system())
        report = check_reliability(cfg, 4, 2)
        assert not report.passed
        assert condition(report, "first-generators-fixed").witness is not None

    def test_conjugated_action_fails_compatibility(self):
        family = conjugated_artin("artin-conjugated-first", lambda n: 1)
        report = check_coherence(LongMoodyConfig(family, trivial_system()), 4, 2)
        assert condition(report, "action-compatibility").witness == {
            "n": 1, "n2": 3, "word": [], "psi": [1], "generator": "g1",
        }

    def test_letter_checks_read_stored_generator_maps(self, monkeypatch):
        # Every condition reads stored generator maps and composes none:
        # first-generator-return reads s_i^-1 on r strands, i < r, and
        # first-generators-fixed s1^{±1} shifted past k strands only.
        letters, composed = [], []
        generator_map, compose = ActionFamily.generator_map, FreeGroupMap.compose

        def recording_generator_map(self, n, letter):
            letters.append((n, letter))
            return generator_map(self, n, letter)

        def recording_compose(self, other):
            composed.append((self, other))
            return compose(self, other)

        cfg = standard_config()
        assert not hasattr(ActionFamily, "word_map")
        monkeypatch.setattr(ActionFamily, "generator_map", recording_generator_map)
        monkeypatch.setattr(FreeGroupMap, "compose", recording_compose)
        assert check_coherence(cfg, 5, 4).passed
        # Compatibility: two maps per letter on 2..4 strands and per s1^{±1}
        # two steps up from 0..3; semidirect: one per letter on 2..4 strands.
        assert len(letters) == 2 * 12 + 8 + 12
        letters.clear()
        assert check_reliability(cfg, 5, 4).passed
        assert letters == [(r, -i) for r in range(2, 7) for i in range(1, r)] + [
            (n2, sign * (n2 - n + 1))
            for n in range(2, 6) for n2 in range(n + 1, 6) for sign in (1, -1)
        ]
        assert composed == []

    def test_first_generators_fixed_planted_fault(self):
        # a(5, s3) is s1 on 3 strands shifted past two added ones, so both
        # loops fail first at n=3, n'=5 on g1; at N=4 nothing reads that map.
        family = planted_s3_fault()
        cfg = LongMoodyConfig(family, trivial_system())
        witness = {"n": 3, "n2": 5, "word": [1], "generator": "g1"}
        assert condition(check_reliability(cfg, 5, 1), "first-generators-fixed").witness == witness
        assert all_words_first_generators_fixed(family, 5, 1) == witness
        assert condition(check_reliability(cfg, 4, 1), "first-generators-fixed").verdict

    @pytest.mark.parametrize(
        "system", [trivial_system(), pure_braid_system()], ids=lambda s: s.name
    )
    def test_first_generator_return_matches_every_router(self, system):
        # One stored image per (rank, index) gives the verdict and the first
        # witness of the loop over every router, for families that fail
        # uniformly in the level or not at all.
        families = [action_family(a) for a in ["artin", "wada1:2"]]
        families += [wada_family(kind) for kind in range(1, 8)]
        families += [
            conjugated_artin("artin-conjugated-first", lambda n: 1),
            conjugated_artin("artin-conjugated", lambda n: n),
        ]
        failing = set()
        for family in families:
            cfg = LongMoodyConfig(family, system)
            for big_n in range(0, 7):
                got = condition(check_reliability(cfg, big_n, 1), "first-generator-return")
                full = next(full_first_generator_return(family, big_n), None)
                assert (got.verdict, got.witness) == (full is None, full), (family.name, big_n)
                if full is not None:
                    failing.add(family.name)
        assert failing  # the comparison covers failing families as well

    @pytest.mark.parametrize(
        "rank, i, witness, first",
        [
            (3, 1, {"n": 1, "n2": 2, "image": "g2"}, {"n": 0, "n2": 2, "image": "g2"}),
            (4, 1, {"n": 2, "n2": 3, "image": "g2"}, {"n": 0, "n2": 3, "image": "g2"}),
            (4, 2, {"n": 1, "n2": 3, "image": "g3"}, {"n": 0, "n2": 3, "image": "g3"}),
        ],
    )
    def test_first_generator_return_planted_fault(self, rank, i, witness, first):
        # s_i^-1 fixes g_{i+1} on `rank` strands only: the letter check
        # reports the router of i letters there, while the loop over every
        # router meets the fault first on the longest router into that rank.
        family = planted_router_fault(rank, i)
        cfg = LongMoodyConfig(family, trivial_system())
        full = list(full_first_generator_return(family, 5))
        assert condition(check_reliability(cfg, 5, 1), "first-generator-return").witness == witness
        assert full[0] == first
        assert witness in full
        assert condition(check_reliability(cfg, rank - 2, 1), "first-generator-return").verdict

    @pytest.mark.parametrize("word_len", [0, 1, 2, 3])
    @pytest.mark.parametrize("big_n", [3, 4, 5])
    def test_letter_checks_match_all_words(self, big_n, word_len):
        # Conditions (ii) and (v) run on letters; an all-words enumeration
        # must give the same verdict and the same witness.
        families = [artin_family()] + [wada_family(kind) for kind in range(1, 8)]
        families += [
            conjugated_artin("artin-conjugated-first", lambda n: 1),
            conjugated_artin("artin-conjugated", lambda n: n),
            planted_s3_fault(),
        ]
        for family in families:
            cfg = LongMoodyConfig(family, trivial_system())
            compat = condition(check_coherence(cfg, big_n, word_len), "action-compatibility")
            fixed = condition(check_reliability(cfg, big_n, word_len), "first-generators-fixed")
            assert compat.witness == all_words_compatibility(family, big_n, word_len), family.name
            assert fixed.witness == all_words_first_generators_fixed(
                family, big_n, word_len
            ), family.name

    @pytest.mark.parametrize("word_len", [0, 1, 2, 3])
    @pytest.mark.parametrize("big_n", [3, 4])
    @pytest.mark.parametrize(
        "system", [trivial_system(), pure_braid_system()], ids=lambda s: s.name
    )
    def test_semidirect_on_letters_matches_all_words(self, system, big_n, word_len):
        families = [artin_family()] + [wada_family(kind) for kind in range(1, 8)]
        families += [
            conjugated_artin("artin-conjugated-first", lambda n: 1),
            conjugated_artin("artin-conjugated", lambda n: n),
            # Not an action: inverse letters act like positive ones, so with
            # the pure-braid system only the inverse letters fail.
            ActionFamily("artin-positive-inverses", lambda n, l: artin_generator_map(n, abs(l))),
        ]
        for family in families:
            cfg = LongMoodyConfig(family, system)
            report = condition(check_coherence(cfg, big_n, word_len), "semidirect")
            assert report.params == {"N": big_n, "L": word_len}
            assert report.witness == all_words_semidirect(cfg, big_n, word_len), family.name

    @pytest.mark.parametrize(
        "action, verdicts, witness",
        [
            ("artin", [True, True, True], None),
            ("wada3", [True, True, False], {"n": 2, "word": [1], "generator": "g2"}),
        ],
    )
    def test_braid_identities_reach_no_oracle(self, monkeypatch, action, verdicts, witness):
        # Stability and semidirect are decided on the Artin action: with the
        # word oracle and its representations made to raise, every verdict
        # stands, and with an oracle that calls every pair equal, wada3 still
        # fails semidirect where the exact decision says it does.
        cfg = LongMoodyConfig(action_family(action), pure_braid_system())

        def patch(name, replacement):
            for module_name, module in list(sys.modules.items()):
                if module_name.partition(".")[0] == "lmkit" and hasattr(module, name):
                    monkeypatch.setattr(module, name, replacement)

        def refuse(*args, **kwargs):
            raise AssertionError("coherence reached the word oracle")

        def positions(report):
            semidirect = condition(report, "semidirect").witness
            return [r.verdict for r in report.results], semidirect and {
                k: v for k, v in semidirect.items() if k != "detail"
            }

        for name in ("lk_numeric", "burau_symbolic", "braid_equal_witness", "seeded_points"):
            patch(name, refuse)
        assert positions(check_coherence(cfg, 5, 1)) == (verdicts, witness)
        patch("braid_equal_witness", lambda *args, **kwargs: (True, None))
        assert positions(check_coherence(cfg, 5, 1)) == (verdicts, witness)

    @pytest.mark.parametrize(
        "u, v",
        [((3, 1, 3), (3, -1, 3)), ((2, 1, 1), (1, 1, 2)), ((1, 2, 1, 3), (1, 2, 2, 3))],
    )
    def test_artin_witness_names_the_images_of_the_whole_words(self, u, v):
        # A miss reports the first generator whose images under the whole
        # words differ, as the composed letter maps give them; equal braids
        # with a common affix have no witness.
        lhs, rhs = BraidWord(4, u), BraidWord(4, v)
        left, right = (word_map(artin_family(), 4, w).images for w in (lhs, rhs))
        j = next(j for j in range(4) if left[j] != right[j])
        assert artin_witness(lhs, rhs) == {
            "reason": "artin action differs", "image_of": f"g{j + 1}",
            "lhs": str(left[j]), "rhs": str(right[j]),
        }
        assert artin_witness(lhs, lhs) is None
        braid_relation = BraidWord(4, (3, 1, 2, 1, 3)), BraidWord(4, (3, 2, 1, 2, 3))
        assert artin_witness(*braid_relation) is None

    def test_twists_must_be_units(self):
        with pytest.raises(CoherenceError):
            LongMoodyConfig(artin_family(), pure_braid_system(), pre_twist=ONE + T)


def compatibility_families():
    return [artin_family()] + [wada_family(kind) for kind in range(1, 8)] + [
        conjugated_artin("artin-conjugated-first", lambda n: 1),
        conjugated_artin("artin-conjugated", lambda n: n),
    ]


class TestOneStepCoherenceChecks:
    """Action compatibility and the factorization check decide on one-step
    data (two steps for s1 in compatibility); each is held to the loop over
    every n < n' it replaced, in tests/reference_kernels.py."""

    @pytest.mark.parametrize("word_len", [0, 1, 3])
    @pytest.mark.parametrize("big_n", [3, 4, 5])
    @pytest.mark.parametrize(
        "system", [trivial_system(), pure_braid_system()], ids=lambda s: s.name
    )
    def test_action_compatibility_matches_full(self, system, big_n, word_len):
        failing = 0
        for family in compatibility_families():
            cfg = LongMoodyConfig(family, system)
            got = condition(check_coherence(cfg, big_n, word_len), "action-compatibility").witness
            assert got == next(full_action_compatibility(family, big_n, word_len), None), family.name
            failing += got is not None
        assert failing == (word_len > 0)  # artin-conjugated-first, at n=1, n'=3

    def test_pasted_compatibility_witness_moves(self):
        # Conjugating by g1 at level 4 only: the full loop fails first on
        # s1 over three added strands at n=1, which the one-step data
        # decides through s1 over two added strands at n=2.
        family = conjugated_artin("artin-conjugated-first-at-4", lambda n: 1 if n == 4 else n)
        cfg = LongMoodyConfig(family, trivial_system())
        got = condition(check_coherence(cfg, 5, 1), "action-compatibility").witness
        full = list(full_action_compatibility(family, 5, 1))
        assert got == {"n": 2, "n2": 4, "word": [], "psi": [1], "generator": "g1"}
        assert full[0] == {"n": 1, "n2": 4, "word": [], "psi": [1], "generator": "g1"}
        assert got in full

    @pytest.mark.parametrize("big_n", [3, 4, 5])
    def test_factorization_matches_full(self, big_n):
        # One stabilization per level below big_n, not one per n <= n'.
        dropped = (big_n + 1) * (big_n + 2) // 2 - big_n
        for family in compatibility_families():
            for f in (burau_functor(), lk_functor()):
                reduced = check_factorization(family, f, big_n)
                full = full_check_factorization(family, f, big_n)
                assert (reduced.passed, reduced.failures[:1]) == (full.passed, full.failures[:1])
                assert reduced.checked == full.checked - dropped

    def test_pasted_factorization_witness_moves(self, monkeypatch):
        # LM(constant) replaced by LM of a constant whose stabilization
        # 3 -> 4 is -1: the image's one-step map 2 -> 3 changes sign, which
        # the full loop sees first in the composite 1 -> 3.
        def flipped():
            return BraidFunctor(
                "flipped-constant",
                lambda n: 1,
                lambda n, i: PolyMatrix.identity(1),
                lambda n: PolyMatrix.identity(1).scale(-ONE if n == 3 else ONE),
            )

        for module in (longmoody, reference_kernels):
            monkeypatch.setattr(module, "constant_functor", flipped)
        reduced = check_factorization(artin_family(), burau_functor(), 5)
        full = full_check_factorization(artin_family(), burau_functor(), 5)
        assert reduced.failures == [{"kind": "stabilization", "n": 2, "n2": 3}]
        assert full.failures[0] == {"kind": "stabilization", "n": 1, "n2": 3}
        assert reduced.failures[0] in full.failures


class TestSplittingMaps:
    def test_constant_base_gives_permutation(self):
        # For the constant base the router matrix is trivial, so the
        # concatenation is a permutation matrix: here the identity.
        cfg = standard_config()
        x = constant_functor()
        for n in range(0, 4):
            assert router_blocks(cfg, x, n) == (PolyMatrix.identity(1),) * 2
            concat, _ = two_block_splitting(x, n)
            assert concat == PolyMatrix.identity(n + 1)

    def test_concat_square_and_unit_det(self):
        # [new_block | old_blocks] is I_d ⊕ (I_n ⊗ F(r)) and its inverse
        # I_d ⊕ (I_n ⊗ F(r^-1)), so F(r) F(r^-1) = I decides it.
        cfg = standard_config()
        for f in (burau_functor(), lk_functor(), tym_functor()):
            for n in range(0, 4):
                q, q_inv = router_blocks(cfg, f, n)
                concat, inv = two_block_splitting(f, n)
                lead, blocks = PolyMatrix.identity(f.dim(n + 2)), PolyMatrix.identity(n).kron
                assert concat == lead.direct_sum(blocks(q))
                assert inv == lead.direct_sum(blocks(q_inv))
                assert q.matmul(q_inv) == PolyMatrix.identity(f.dim(n + 2))
                assert concat.rows == concat.cols == (n + 1) * f.dim(n + 2)
                assert concat.det().is_unit()
                assert concat.matmul(inv) == PolyMatrix.identity(concat.rows)

    def test_inclusion_lemma(self):
        cfg = standard_config()
        assert check_inclusion_lemma(cfg, constant_functor(), 5).passed
        assert check_inclusion_lemma(cfg, burau_functor(), 4).passed

    def test_inclusion_lemma_negative_control(self):
        # Dropping the braiding router from the shifted-blocks inclusion
        # breaks the identity at the first level with a nontrivial router.
        cfg = standard_config()
        f = burau_functor()
        image = long_moody(cfg, f)
        n = 2
        d2 = f.dim(n + 2)
        naive = PolyMatrix(
            (n + 1) * d2,
            n * d2,
            {((1 + j) * d2 + r, j * d2 + r): ONE for j in range(n) for r in range(d2)},
        )
        lhs = naive.matmul(PolyMatrix.identity(n).kron(f.stab(n + 1, n + 2)))
        assert lhs != image.stab(n, n + 1)

    def test_factorization_reports(self):
        assert check_factorization(artin_family(), burau_functor(), 4).passed
        assert check_factorization(wada_family(3), tym_functor(), 4).passed
        assert check_factorization(artin_family(), constant_functor(), 4).passed


class TestActionFamilies:
    def test_verification_catches_bad_family(self):
        def broken(n, letter):
            # Sends every generator to the swap map regardless of sign:
            # fails the inverse check.
            return artin_generator_map(n, abs(letter))

        family = ActionFamily("broken", broken)
        with pytest.raises(CoherenceError):
            family.verify_relations(3)

    @staticmethod
    def conjugated_s3(n, letter):
        """Artin, with s3^{±1} on 4 strands conjugated by s2: the braid
        relations and the inverse pairs hold, s1 s3 = s3 s1 does not."""
        if n == 4 and abs(letter) == 3:
            maps = [artin_generator_map(4, l) for l in (2, letter, -2)]
            return maps[0].compose(maps[1]).compose(maps[2])
        return artin_generator_map(n, letter)

    def test_one_far_commutation_raises_its_message(self):
        family = ActionFamily("conjugated", self.conjugated_s3)
        family.verify_relations(3)
        with pytest.raises(CoherenceError, match=r"^conjugated: commutation fails at n=4, \(1,3\)$"):
            family.verify_relations(5)

    def test_commutations_come_before_the_inverse_pair(self):
        # Also s1^-1 acting as s1 at level 4: both relations of i = 1 fail,
        # and the commutation is read first, as check_functor reads it.
        def rule(n, letter):
            return self.conjugated_s3(n, 1 if (n, letter) == (4, -1) else letter)

        with pytest.raises(CoherenceError, match=r"commutation fails at n=4, \(1,3\)$"):
            ActionFamily("both", rule).verify_relations(4)

        def inverse_only(n, letter):
            return artin_generator_map(n, 1 if (n, letter) == (4, -1) else letter)

        with pytest.raises(CoherenceError, match=r"inverse fails at n=4, i=1$"):
            ActionFamily("inverse", inverse_only).verify_relations(4)

    def test_word_map_composition_order(self):
        family = artin_family()
        word = BraidWord(3, (1, 2))
        direct = word_map(family, 3, word)
        composed = family.generator_map(3, 1).compose(family.generator_map(3, 2))
        assert direct == composed

    @pytest.mark.parametrize("action", ["artin"] + [f"wada{k}" for k in range(1, 8)])
    def test_word_map_equals_the_identity_started_fold(self, action):
        family = action_family(action)
        for n in (1, 2, 3, 4):
            for word in enumerate_words(n, 3):
                fold = FreeGroupMap.identity(n)
                for letter in word.letters:
                    fold = fold.compose(family.rule(n, letter))
                assert word_map(family, n, word) == fold, (action, n, word.letters)

    def test_kind_one_large_parameter(self):
        # The inverse of the kind-1 pair sends g1 to g1^m g2 g1^-m, of
        # length 2|m| + 1; construction verifies the relations with it.
        for m in (-5, -4, 4, 5, 6):
            assert action_family(f"wada1:{m}").name == f"wada1(m={m})"

    def test_action_family_names(self):
        assert action_family("wada3").name == "wada3"
        for bad in ("wada", "wadax", "wada1:x", "wada1:2:3", "burau", "wada2:3", "wada7:1",
                    "wada01", "wada1:02", "wada1:-0"):
            with pytest.raises(CoherenceError):
                action_family(bad)


def reference_gen_matrix(cfg, f, n, letter):
    """The generator matrix of long_moody(cfg, f) assembled block by block:
    a Fox expansion per column and a group-ring matrix times τ₁F(letter)
    per nonzero block, unit blocks included, over a local system whose rule
    wraps the configuration's, so that no stored image is shared with the
    code under test (the tables are keyed by rule)."""
    rule = cfg.system.rule
    system = LocalSystem(cfg.system.name, lambda n, i: rule(n, i))
    base = f if cfg.pre_twist is None else scalar_twist(f, cfg.pre_twist)
    right = translate(base, 1).gen_matrix(n, letter)
    d = f.dim(n + 1)
    amap = cfg.action.generator_map(n, letter)
    entries = {}
    for c in range(1, n + 1):
        coords = fox_derivatives(amap.apply_word(FreeWord.generator(n, c)))
        for r in range(1, n + 1):
            coeff = coords.coords[r - 1]
            if coeff.is_zero():
                continue
            block = group_ring_matrix(base, n, system, coeff).matmul(right)
            if cfg.post_scale is not None:
                post = cfg.post_scale
                block = block.scale(post if letter > 0 else post.unit_inverse())
            for (br, bc), val in block.entries.items():
                entries[((r - 1) * d + br, (c - 1) * d + bc)] = val
    return PolyMatrix(n * d, n * d, entries)


@pytest.fixture
def empty_tables(monkeypatch):
    """Fresh module tables for the Fox Jacobians and the local-system images,
    so that a test counting expansions does not depend on what ran before."""
    monkeypatch.setattr(longmoody, "_FOX", {})
    monkeypatch.setattr(braidcat, "_GENERATOR_IMAGES", {})
    monkeypatch.setattr(braidcat, "_EVALUATED", {})


def counting_fox(monkeypatch):
    """The words longmoody expands, in call order."""
    calls = []

    def counting(w):
        calls.append(w)
        return fox_derivatives(w)

    monkeypatch.setattr(longmoody, "fox_derivatives", counting)
    return calls


def moved_images(action_rule, keys):
    """The images of the generators that each (level, letter) moves."""
    return [
        image
        for n, letter in keys
        for c, image in enumerate(action_rule(n, letter).images, 1)
        if image != FreeWord.generator(n, c)
    ]


class TestFoxTable:
    @pytest.mark.parametrize("action", ["artin"] + [f"wada{k}" for k in range(1, 8)])
    def test_matches_per_block_assembly(self, action):
        bases = (constant_functor(), burau_functor(), tym_functor(), lk_functor())
        for system in (trivial_system(), pure_braid_system()):
            for pre, post in ((None, None), (T, None), (None, T_INV)):
                cfg = LongMoodyConfig(action_family(action), system, pre, post)
                for f in bases:
                    image = long_moody(cfg, f)
                    for n in range(2, 5):
                        for letter in signed_letters(n):
                            want = reference_gen_matrix(cfg, f, n, letter)
                            assert image.gen_matrix(n, letter) == want, (
                                cfg.label(), f.name, n, letter
                            )

    def test_one_expansion_per_letter(self, monkeypatch, empty_tables):
        calls = counting_fox(monkeypatch)
        cfg = standard_config()
        keys = [(n, letter) for n in range(2, 5) for letter in signed_letters(n)]
        for f in (burau_functor(), tym_functor()):
            image = long_moody(cfg, f)
            for n, letter in keys:
                image.gen_matrix(n, letter)
        # One expansion per moved column of each (level, letter), for both
        # images together: s_i^{±1} moves g_i and g_{i+1} and fixes the other
        # generators, whose columns need no expansion.
        moved = moved_images(artin_generator_map, keys)
        assert len(moved) == 2 * len(keys)
        assert calls == moved

    @pytest.mark.parametrize("action", ["artin"] + [f"wada{k}" for k in range(1, 8)])
    def test_fixed_columns_are_the_unit(self, action):
        family = action_family(action)
        cfg = LongMoodyConfig(family, pure_braid_system())
        fixed_seen = 0
        for n in range(2, 6):
            for letter in signed_letters(n):
                amap = family.generator_map(n, letter)
                images = [amap.apply_word(FreeWord.generator(n, c)) for c in range(1, n + 1)]
                table = cfg.fox_jacobian(n, letter)
                one = GroupRingElement.one(n)
                full = tuple(
                    (r, c, coeff, coeff == one)
                    for c, image in enumerate(images, 1)
                    for r, coeff in enumerate(fox_derivatives(image).coords, 1)
                    if not coeff.is_zero()
                )
                assert table == full, (n, letter)
                for c, image in enumerate(images, 1):
                    if image == FreeWord.generator(n, c):
                        fixed_seen += 1
                        column = [(r, coeff, unit) for r, cc, coeff, unit in table if cc == c]
                        assert column == [(c, one, True)], (n, letter, c)
        assert fixed_seen

    def test_same_name_systems_share_nothing(self):
        good = pure_braid_system()
        bad_rule = local_system("corrupted-demo").rule
        bad = LocalSystem(good.name, bad_rule)
        assert good == bad  # equality ignores the rule
        g1 = FreeWord.generator(2, 1)
        assert good.evaluate(g1) != bad.evaluate(g1)
        assert bad.evaluate(g1) == BraidWord(3, (1,))
        cfg_good = LongMoodyConfig(artin_family(), good)
        cfg_bad = LongMoodyConfig(artin_family(), bad)
        assert cfg_good == cfg_bad
        for f in (burau_functor(), constant_functor()):
            good_image, bad_image = long_moody(cfg_good, f), long_moody(cfg_bad, f)
            for n in range(2, 4):
                for letter in signed_letters(n):
                    assert good_image.gen_matrix(n, letter) == reference_gen_matrix(
                        cfg_good, f, n, letter
                    )
                    assert bad_image.gen_matrix(n, letter) == reference_gen_matrix(
                        cfg_bad, f, n, letter
                    )
        assert long_moody(cfg_good, burau_functor()).gen_matrix(2, 1) != long_moody(
            cfg_bad, burau_functor()
        ).gen_matrix(2, 1)

    def test_same_name_actions_share_nothing(self):
        plain = LongMoodyConfig(artin_family(), pure_braid_system())
        conjugated = LongMoodyConfig(
            conjugated_artin("artin", lambda n: 1), pure_braid_system()
        )
        assert plain.fox_jacobian(2, 1) != conjugated.fox_jacobian(2, 1)
        for cfg in (plain, conjugated):
            image = long_moody(cfg, burau_functor())
            for letter in signed_letters(3):
                assert image.gen_matrix(3, letter) == reference_gen_matrix(
                    cfg, burau_functor(), 3, letter
                )

    @staticmethod
    def counting_pure_braid_rule(monkeypatch):
        """pure_braid_system's rule, replaced before any system is built by
        a wrapper recording each (n, i) it is called on."""
        calls, rule = [], braidcat._pure_braid_rule

        def counting(n, i):
            calls.append((n, i))
            return rule(n, i)

        monkeypatch.setattr(braidcat, "_pure_braid_rule", counting)
        return calls

    @staticmethod
    def coefficient_generators(cfg, keys):
        """The (n, i) of every g_i in a word of a Fox coefficient at n."""
        return {
            (n, gen)
            for n, letter in keys
            for _, _, coeff, _ in cfg.fox_jacobian(n, letter)
            for w in coeff.terms
            for gen, _ in w.syllables
        }

    def test_configurations_share_one_expansion(self, monkeypatch, empty_tables):
        rule_calls = self.counting_pure_braid_rule(monkeypatch)
        calls = counting_fox(monkeypatch)
        first, second = standard_config(), standard_config()
        assert first is not second and first.system.rule is second.system.rule
        keys = [(n, letter) for n in range(2, 5) for letter in signed_letters(n)]
        built = [
            (cfg, f, n, letter, long_moody(cfg, f).gen_matrix(n, letter))
            for cfg, f in ((first, burau_functor()), (second, tym_functor()), (second, burau_functor()))
            for n, letter in keys
        ]
        # Each moved column of each (level, letter) is expanded once for the
        # two configurations, and the rule runs once per (n, i) they read.
        assert calls == moved_images(artin_generator_map, keys)
        assert rule_calls and len(rule_calls) == len(set(rule_calls))
        assert set(rule_calls) == self.coefficient_generators(first, keys)
        for cfg, f, n, letter, matrix in built:
            assert matrix == reference_gen_matrix(cfg, f, n, letter)

    def test_nested_images_share_one_expansion(self, monkeypatch, empty_tables):
        rule_calls = self.counting_pure_braid_rule(monkeypatch)
        calls = counting_fox(monkeypatch)
        image = parse_functor("lm(artin,pure-braid;lm(artin,pure-braid;constant))")
        for n in range(2, 7):
            for letter in signed_letters(n):
                image.gen_matrix(n, letter)
        # The outer configuration reads levels up to 6, the inner one up to
        # 7; each (level, letter) of either is expanded once, for both.
        keys = [(n, letter) for rule, n, letter in longmoody._FOX]
        assert {rule for rule, _, _ in longmoody._FOX} == {artin_generator_map}
        assert {n for n, _ in keys} == set(range(2, 8))
        assert sorted(calls, key=str) == sorted(moved_images(artin_generator_map, keys), key=str)
        assert rule_calls and len(rule_calls) == len(set(rule_calls))
        assert set(rule_calls) == self.coefficient_generators(standard_config(), keys)

    def test_distinct_rules_get_separate_entries(self, monkeypatch, empty_tables):
        # A hand-built family beside the stored wada2 carries another rule
        # object: equal names, equal maps, yet neither reads the other's
        # expansions.
        calls = counting_fox(monkeypatch)
        first = wada_family(2)
        second = ActionFamily("wada2", partial(wada_generator_map, kind=2, m=1))
        assert first.name == second.name and first.rule is not second.rule
        tables = [
            LongMoodyConfig(family, pure_braid_system()).fox_jacobian(3, 1)
            for family in (first, second)
        ]
        assert tables[0] == tables[1]
        assert calls == 2 * moved_images(first.rule, [(3, 1)])
        assert [rule for rule, _, _ in longmoody._FOX] == [first.rule, second.rule]
        # A same-name system over the corrupted-demo rule: its own entries.
        good = pure_braid_system()
        bad = LocalSystem(good.name, local_system("corrupted-demo").rule)
        g1 = FreeWord.generator(2, 1)
        assert good.evaluate(g1) == BraidWord(3, (1, 1)) and bad.evaluate(g1) == BraidWord(3, (1,))
        assert braidcat._GENERATOR_IMAGES == {
            (good.rule, 2, 1): BraidWord(3, (1, 1)),
            (bad.rule, 2, 1): BraidWord(3, (1,)),
        }
        assert list(braidcat._EVALUATED) == [(good.rule, g1), (bad.rule, g1)]

    def test_one_family_per_kind_and_parameter(self):
        assert wada_family(2) is wada_family(2, 1) is action_family("wada2")
        assert wada_family(1, 3) is action_family("wada1:3") is not wada_family(1)
        assert artin_family() is action_family("artin") is standard_config().action

    def test_separately_parsed_wada_images_share_entries(self, empty_tables):
        image = parse_functor("lm(wada2,pure-braid;lm(wada2,pure-braid;constant))")
        for n in range(5):
            for letter in signed_letters(n):
                image.gen_matrix(n, letter)
        rules = {rule for rule, _, _ in longmoody._FOX}
        keys = {(n, letter) for _, n, letter in longmoody._FOX}
        assert rules == {wada_family(2).rule}
        assert len(longmoody._FOX) == len(keys) == 18

    def test_memos_stay_within_caps(self, monkeypatch, empty_tables):
        monkeypatch.setattr(memo, "MEMO_CAP", 3)
        cfg = standard_config()
        action_rule, system_rule = cfg.action.rule, cfg.system.rule
        keys = [(n, letter) for n in range(2, 6) for letter in signed_letters(n)]
        for n, letter in keys:
            cfg.fox_jacobian(n, letter)
            assert len(longmoody._FOX) <= 3
        # The oldest are dropped first.
        assert list(longmoody._FOX) == [(action_rule, *key) for key in keys[-3:]]
        image = long_moody(cfg, burau_functor())
        for n, letter in keys:
            assert image.gen_matrix(n, letter) == reference_gen_matrix(
                cfg, burau_functor(), n, letter
            )
            assert len(longmoody._FOX) <= 3
            assert len(braidcat._GENERATOR_IMAGES) <= 3
            assert len(braidcat._EVALUATED) <= 3
        words = [FreeWord.generator(4, i, e) for i in range(1, 5) for e in (1, -1, 2)]
        for w in words:
            cfg.system.evaluate(w)
        assert list(braidcat._EVALUATED) == [(system_rule, w) for w in words[-3:]]
        assert list(braidcat._GENERATOR_IMAGES) == [(system_rule, 4, i) for i in (2, 3, 4)]
        # Every table of a functor stores through the same policy.
        steps = [(n, n + 1) for n in range(6)]
        word_keys = [(n, (1, 1)) for n in range(2, 8)]
        level_seeds = [(n, seed) for n in range(3) for seed in (0, 1)]
        tables = {
            "_dims": (lambda f, n: f.dim(n), list(range(7))),
            "_gens": (lambda f, key: f.gen_matrix(*key), keys),
            "_stabs": (lambda f, key: f.stab(*key), steps),
            "_words": (lambda f, key: f.word_matrix(BraidWord(*key)), word_keys),
            "_resolutions": (lambda f, key: resolution(f, *key), level_seeds),
        }
        for name, (fill, table_keys) in tables.items():
            f = burau_functor()
            for key in table_keys:
                fill(f, key)
                assert len(getattr(f, name)) <= 3, name
            assert list(getattr(f, name)) == table_keys[-3:], name
        # A family is stored and spot-verified once per (kind, m).
        verified, verify = [], ActionFamily.verify_relations

        def counting(family, *args):
            verified.append(family.name)
            verify(family, *args)

        monkeypatch.setattr(ActionFamily, "verify_relations", counting)
        longmoody._wada_family.cache_clear()
        for m in range(2, 6):
            for _ in range(2):
                assert wada_family(1, m) is action_family(f"wada1:{m}")
        assert verified == [f"wada1(m={m})" for m in range(2, 6)]


class TestUncheckedMatrices:
    """long_moody's generator matrices, and split_at_rows,
    partial_permutation_split and complete_inverse behind resolution, build
    their matrices without the validating PolyMatrix constructor; each must
    be what that constructor gives: LaurentPoly entries, in range, none of
    them zero."""

    @pytest.mark.parametrize("action", ["artin"] + [f"wada{k}" for k in range(1, 8)])
    def test_built_matrices_are_what_the_constructor_gives(self, action, monkeypatch):
        made = {}

        def record(module, name, pieces):
            inner = getattr(module, name)

            def recording(*args):
                out = inner(*args)
                if out is not None:
                    made.setdefault(name, []).extend(pieces(out))
                return out

            monkeypatch.setattr(module, name, recording)

        def split_pieces(data):
            return data.retraction, data.complement, data.coprojection

        for module in (repfun, polyfun):
            record(module, "split_at_rows", split_pieces)
        record(polyfun, "partial_permutation_split", split_pieces)
        for module in (repfun, laurent):
            record(module, "complete_inverse", lambda out: out[:2])

        for system in (trivial_system(), pure_braid_system()):
            cfg = LongMoodyConfig(action_family(action), system)
            for f in (constant_functor(), burau_functor(), tym_functor(), lk_functor()):
                image = long_moody(cfg, f)
                for n in range(0, 5):
                    for letter in signed_letters(n):
                        made.setdefault("gen", []).append(image.gen_matrix(n, letter))
                    resolution(image, n)

        names = {"gen", "split_at_rows", "partial_permutation_split", "complete_inverse"}
        assert set(made) == names
        for name, matrices in made.items():
            for m in matrices:
                assert all(isinstance(p, LaurentPoly) and p.terms for p in m.entries.values()), name
                assert m == PolyMatrix(m.rows, m.cols, m.entries), name
