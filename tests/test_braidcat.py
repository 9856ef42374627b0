import functools
import importlib.util
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import find, given, settings, strategies as st

from lmkit.laurent import seeded_points
from lmkit.freegroup import FreeGroupMap, FreeWord, artin_generator_map, parse_word, reduced_words
from lmkit.braidcat import (
    BracketMorphism,
    BraidError,
    BraidWord,
    LocalSystem,
    _cores,
    artin_images,
    artin_relations,
    artin_witness,
    bracket_compose,
    bracket_equal,
    bracket_monoidal,
    braid_equal,
    braid_equal_witness,
    braiding,
    burau_symbolic,
    lk_numeric,
    lk_width,
    local_system,
    pure_braid_system,
    router,
    signed_letters,
    trivial_system,
    _lk_scaled_generators,
    lk_generator_columns,
)
from lmkit import braidcat
from lmkit.repfun import burau_functor, lk_functor
from lmkit.laurent import ONE, LaurentPoly, PolyMatrix, Q, T, T_INV, ZERO
from reference_kernels import (
    artin_images_by_compose, artin_witness_by_cores, burau_dicts, enumerate_words,
    evaluate_by_compose, evaluated, lk_scaled_equal_packed,
)


def bw(letters, strands):
    return BraidWord(strands, tuple(letters))


class TestWords:
    def test_free_cancellation(self):
        assert bw([1, -1], 2) == BraidWord.identity(2)
        assert bw([2, 1, -1, -2, 1], 3) == bw([1], 3)

    def test_strand_bound(self):
        with pytest.raises(BraidError):
            bw([3], 3)

    def test_compose_reads_right_to_left(self):
        u, v = bw([1], 3), bw([2], 3)
        assert u.compose(v).letters == (1, 2)

    def test_monoidal_shift(self):
        # id_1 # s_i = s_{i+1}
        assert BraidWord.identity(1).monoidal(bw([2, -1], 3)).letters == (3, -2)
        assert BraidWord.identity(0).monoidal(bw([1], 2)) == bw([1], 2)

    def test_permutation_and_writhe(self):
        assert bw([1], 3).permutation() == (2, 1, 3)
        assert bw([1, 2], 3).writhe() == 2
        assert bw([1, 1], 3).permutation() == (1, 2, 3)


class TestBraiding:
    def test_small_cases_derived(self):
        # Substituting into the descending-run formula:
        #   (n,m) = (1,1): s1;  (1,2): s2 s1;  (2,1): s1 s2.
        assert braiding(1, 1).letters == (1,)
        assert braiding(1, 2).letters == (2, 1)
        assert braiding(2, 1).letters == (1, 2)
        assert braiding(0, 3) == BraidWord.identity(3)
        assert braiding(3, 0) == BraidWord.identity(3)

    def test_composed_with_inverse_is_trivial(self):
        for n in range(0, 4):
            for m in range(0, 4):
                if 2 <= n + m <= 6:
                    b = braiding(n, m)
                    assert braid_equal(b.compose(b.inverse()), BraidWord.identity(n + m))

    def test_double_braiding_is_pure(self):
        # The composite of the two braidings is a nontrivial pure braid
        # (the category is braided, not symmetric): check purity, and check
        # nontriviality in the smallest case.
        for n in range(1, 3):
            for m in range(1, 3):
                both = braiding(m, n).compose(braiding(n, m))
                assert both.permutation() == tuple(range(1, n + m + 1))
        assert not braid_equal(braiding(1, 1).compose(braiding(1, 1)), BraidWord.identity(2))


class TestRouter:
    def test_router_is_a_stored_word(self):
        for k in range(0, 4):
            for n2 in range(0, 9):
                for n in range(0, n2 + 1):
                    word = router(k, n, n2)
                    assert word is router(k, n, n2)
                    assert word == braiding(k, n2 - n).inverse().monoidal(BraidWord.identity(n))
                    assert word.strands == k + n2

    def test_negative_range_still_raises(self):
        # A failed call stores nothing, so the second call raises too.
        for _ in range(2):
            with pytest.raises(BraidError, match="negative strand counts"):
                router(1, 3, 2)
        with pytest.raises(BraidError):
            router(-1, 0, 1)

    def test_router_table_is_bounded(self):
        maxsize = router.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize < 10_000


class TestBracketCategory:
    def test_identity_compose(self):
        f = BracketMorphism(1, 3, bw([2, 1], 3))
        assert bracket_compose(BracketMorphism.identity(3), f) == f

    def test_stabilization_compose(self):
        lhs = bracket_compose(BracketMorphism.stabilization(2, 3), BracketMorphism.stabilization(1, 2))
        assert lhs == BracketMorphism.stabilization(1, 3)

    def test_compose_with_shift(self):
        g = BracketMorphism(1, 2, bw([1], 2))
        f = BracketMorphism.stabilization(0, 1)
        assert bracket_compose(g, f) == BracketMorphism(0, 2, bw([1], 2))

    def test_monoidal_units(self):
        u = BracketMorphism.from_braid(bw([1], 2))
        v = BracketMorphism.from_braid(bw([1, -2], 3))
        assert bracket_monoidal(u, v) == BracketMorphism.from_braid(u.word.monoidal(v.word))

    def test_monoidal_stabilization_formula(self):
        # id_1 # [k, id] = [k, inverse braiding # id_n]
        for n in range(0, 3):
            for k in range(1, 3):
                lhs = bracket_monoidal(
                    BracketMorphism.identity(1), BracketMorphism.stabilization(n, n + k)
                )
                expected = braiding(1, k).inverse().monoidal(BraidWord.identity(n))
                assert lhs == BracketMorphism(1 + n, 1 + n + k, expected)

    def test_associativity_on_the_nose(self):
        rng = random.Random(4)
        for _ in range(10):
            n0 = rng.randint(0, 2)
            n1 = n0 + rng.randint(0, 2)
            n2 = n1 + rng.randint(0, 2)
            n3 = n2 + rng.randint(0, 2)

            def arb(a, b):
                letters = [
                    rng.choice([1, -1]) * rng.randint(1, max(b - 1, 1))
                    for _ in range(rng.randint(0, 3))
                    if b >= 2
                ]
                return BracketMorphism(a, b, BraidWord(b, tuple(letters)))

            f, g, h = arb(n0, n1), arb(n1, n2), arb(n2, n3)
            left = bracket_compose(h, bracket_compose(g, f))
            right = bracket_compose(bracket_compose(h, g), f)
            assert left == right

    def test_monoidal_of_identities(self):
        for m in range(0, 3):
            for n in range(0, 3):
                got = bracket_monoidal(BracketMorphism.identity(m), BracketMorphism.identity(n))
                assert got == BracketMorphism.identity(m + n)

    def test_interchange_with_identities(self):
        # g # f agrees with (g # id) ∘ (id # f) as bracket morphisms.
        rng = random.Random(11)
        for _ in range(8):
            m, mp = 1, 1 + rng.randint(0, 1)
            n, np_ = rng.randint(0, 2), 0
            np_ = n + rng.randint(0, 2)
            g = BracketMorphism(
                m, mp, BraidWord(mp, (rng.choice([1, -1]),) if mp >= 2 else ())
            )
            f = BracketMorphism(
                n, np_, BraidWord(np_, (rng.choice([1, -1]),) if np_ >= 2 else ())
            )
            direct = bracket_monoidal(g, f)
            staged = bracket_compose(
                bracket_monoidal(g, BracketMorphism.identity(np_)),
                bracket_monoidal(BracketMorphism.identity(m), f),
            )
            assert (direct.source, direct.target) == (staged.source, staged.target)
            assert bracket_equal(direct, staged) is True

    def test_bracket_equal_is_tri_state(self):
        # Representatives that differ by the coset element s1^j on the two
        # added strands: found within _COSET_BOUND = 4, "not found" (None,
        # never False) beyond it; a different target is a definite False.
        g = BracketMorphism(1, 3, BraidWord.identity(3))
        for power, want in ((4, True), (5, None)):
            f = BracketMorphism(1, 3, bw([-1] * power, 3))
            assert bracket_equal(g, f) is want, power
        assert bracket_equal(g, BracketMorphism(1, 2, BraidWord.identity(2))) is False

    def test_morphism_json(self):
        phi = BracketMorphism(1, 3, bw([2, -1], 3))
        assert phi.to_json() == {"source": 1, "target": 3, "word": [2, -1]}

    def test_prebraided_failure_witness(self):
        # The pre-braiding is not a braiding: routing one new strand around
        # two existing ones differs from inserting it on the other side.
        lhs = bracket_compose(
            BracketMorphism.from_braid(braiding(1, 2)),
            bracket_monoidal(BracketMorphism.stabilization(0, 1), BracketMorphism.identity(2)),
        )
        rhs = bracket_monoidal(BracketMorphism.identity(2), BracketMorphism.stabilization(0, 1))
        assert lhs.word.letters == (2, 1)
        assert rhs.word.letters == (-2, -1)
        assert bracket_equal(lhs, rhs) is False
        ok, witness = braid_equal_witness(lhs.word, rhs.word)
        assert not ok and witness is not None


class TestEqualityOracle:
    def test_braid_relation(self):
        assert braid_equal(bw([1, 2, 1], 3), bw([2, 1, 2], 3))

    def test_commutation(self):
        assert braid_equal(bw([1, 3], 4), bw([3, 1], 4))

    def test_distinct_generators(self):
        ok, witness = braid_equal_witness(bw([1], 3), bw([2], 3))
        assert not ok
        assert witness["reason"].startswith("lawrence-krammer")

    def test_detects_subtle_inequality(self):
        # Same writhe and permutation, different braids.
        u = bw([1, 2, 2, 1], 3)
        v = bw([2, 1, 1, 2], 3)
        assert u.permutation() == v.permutation() and u.writhe() == v.writhe()
        assert braid_equal(u, v) == braid_equal(v, u)

    def test_lk_oracle_matches_symbolic_functor(self):
        # Cross-validation: the fast column evaluator agrees with the
        # symbolic Lawrence-Krammer functor evaluated at the same point.
        from lmkit.repfun import lk_functor

        lk = lk_functor()
        point = seeded_points(1, 5)[0]
        rng = random.Random(6)
        for strands in (3, 4):
            for _ in range(5):
                word = BraidWord(
                    strands,
                    tuple(
                        rng.choice([1, -1]) * rng.randint(1, strands - 1)
                        for _ in range(rng.randint(0, 6))
                    ),
                )
                sym = evaluated(lk.word_matrix(word), point)
                cols = _lk_columns(word, point)
                scale = Fraction(_lk_scaled_generators(strands, point)[0]) ** len(word.letters)
                dim = strands * (strands - 1) // 2
                for c in range(dim):
                    for r in range(dim):
                        assert cols[c].get(r, 0) / scale == sym[r][c]

    def test_lk_numeric_matches_fraction_reference(self):
        # The integer product, divided by the scale, is the product of the
        # rational letter matrices taken over Fraction: short words on 3-6
        # strands, and thirty letters of both signs on 6 and 7 strands,
        # where the columns' scale exponents drift apart.
        rng = random.Random(12)

        def word(strands, length):
            return BraidWord(
                strands,
                tuple(rng.choice([1, -1]) * rng.randint(1, strands - 1) for _ in range(length)),
            )

        cases = [
            (word(strands, rng.randint(0, 8)), point)
            for seed in (0, 5)
            for point in seeded_points(3, seed)
            for strands in range(3, 7)
            for _ in range(3)
        ]
        cases += [(word(strands, 30), point) for point in seeded_points(2, 1) for strands in (6, 7)]
        for word, point in cases:
            table = _lk_scaled_generators(word.strands, point)
            width = lk_width(table, len(word.letters))
            packed = lk_numeric(word, table, width)
            assert all(type(x) is int for x in packed)
            cols = _unpack(packed, width, len(packed))
            assert all(type(v) is int for col in cols for v in col.values())
            scale = Fraction(table[0]) ** len(word.letters)
            got = [{r: v / scale for r, v in col.items()} for col in cols]
            assert got == _lk_fraction_reference(word, point)

    @pytest.mark.parametrize("strands", range(3, 8))
    def test_lk_numeric_stays_inside_its_slots_on_long_words(self, strands):
        # Sixty letters: the letter of largest column 1-norm repeated, and
        # random words of both signs.  Every entry of the exact product
        # (scale**60 times the rational reference) is a balanced digit of
        # the slot width, and the packed columns decode to it.
        rng = random.Random(strands)
        length = 60
        for seed in (0, 1, 2):
            for point in seeded_points(3, seed):
                table = _lk_scaled_generators(strands, point)
                scale, _, letters = table

                def norm(letter):
                    return max(
                        [scale] + [sum(abs(v) for _, v in e) for _, e in letters[letter][1]]
                    )

                heaviest = max(letters, key=norm)
                words = [BraidWord(strands, (heaviest,) * length)]
                words += [
                    BraidWord(
                        strands,
                        tuple(
                            rng.choice([1, -1]) * rng.randint(1, strands - 1)
                            for _ in range(length)
                        ),
                    )
                    for _ in range(2)
                ]
                width = lk_width(table, length)
                for word in words:
                    power = Fraction(scale) ** len(word.letters)
                    want = [
                        {r: v * power for r, v in col.items()}
                        for col in _lk_fraction_reference(word, point)
                    ]
                    assert all(
                        v.denominator == 1 and abs(v) < 2 ** (width - 1)
                        for col in want
                        for v in col.values()
                    )
                    assert _lk_columns(word, point, width) == want

    def test_words_of_different_lengths_compare_equal(self):
        # s1 s2 s1 = s2 s1 s2, so s1 s2 s1 s2^-1 = s2 s1; the integer
        # matrices differ by the scale squared and must still compare equal.
        long_word, short_word = bw([1, 2, 1, -2], 3), bw([2, 1], 3)
        assert braid_equal_witness(long_word, short_word) == (True, None)
        assert braid_equal_witness(short_word, long_word) == (True, None)

    def test_words_of_different_lengths_keep_their_witness(self):
        point = seeded_points(1, 0)[0]
        expected = {
            "reason": "lawrence-krammer evaluation differs",
            "t": str(point.t_value),
            "q": str(point.q_value),
        }
        assert expected["t"] == "8" and expected["q"] == "9/4"
        assert braid_equal_witness(bw([1, 2, 1], 3), bw([1], 3)) == (False, expected)
        assert braid_equal_witness(bw([1], 3), bw([1, 2, 1], 3)) == (False, expected)

    def test_burau_symbolic_homomorphism(self):
        u, v = bw([1, -2], 3), bw([2, 2, 1], 3)
        neg, pos = _bounds(u.compose(v), u, v)
        prod = burau_symbolic(u.compose(v), neg, pos)
        assert prod == burau_symbolic(u.compose(v), neg, pos)
        assert burau_symbolic(u, neg, pos) != burau_symbolic(v, neg, pos)
        product = _ring_matrix(_burau_reference(u)).matmul(_ring_matrix(_burau_reference(v)))
        assert _ring_matrix(_burau_decode(prod, 3, neg, pos)) == product

    def test_burau_symbolic_matches_laurent_reference(self):
        # The packed columns decode to the product of the Burau letter
        # matrices over the Laurent ring, on 2-10 strands and words of
        # lengths 0-100.
        for word in _burau_words():
            neg, pos = _bounds(word)
            decoded = _burau_decode(burau_symbolic(word, neg, pos), word.strands, neg, pos)
            assert decoded == _burau_reference(word), word

    def test_burau_leg_decides_when_lawrence_krammer_agrees(self, monkeypatch):
        # No benchmark pair reaches the Burau leg, so it is planted: with
        # every Lawrence-Krammer comparison forced to "equal", the symbolic
        # Burau comparison alone decides, with its own witness.
        monkeypatch.setattr(braidcat, "_lk_scaled_equal", lambda u, v, point: True)
        differs = (False, {"reason": "symbolic burau matrices differ"})
        assert braid_equal_witness(bw([1], 3), bw([2], 3)) == differs
        assert braid_equal_witness(bw([1, 2, 2, 1], 3), bw([2, 1, 1, 2], 3)) == differs
        assert braid_equal_witness(bw([1, 2, 1, -2], 3), bw([2, 1], 3)) == (True, None)
        assert braid_equal_witness(bw([2, 1], 3), bw([1, 2, 1, -2], 3)) == (True, None)


def _burau_words():
    """Seeded words on 2-10 strands of lengths 0-100: mixed signs, only
    positive letters and only inverse letters (every shift then reaches
    the bottom of the offset)."""
    rng = random.Random(30)
    for strands in range(2, 11):
        for length in (0, 1, 2, 5, 13, 40, 100):
            for signs in ((1, -1), (1,), (-1,)):
                letters = (rng.choice(signs) * rng.randint(1, strands - 1) for _ in range(length))
                yield BraidWord(strands, tuple(letters))


def _flipped(rng, word):
    """word with the sign of one seeded letter flipped (then reduced)."""
    letters = list(word.letters)
    k = rng.randrange(len(letters))
    letters[k] = -letters[k]
    return BraidWord(word.strands, tuple(letters))


def _oracle_and_flipped_pairs(monkeypatch, seeds=(0, 1, 2)):
    """The benchmark oracle pairs of the seeds (by default 0-2, 360 pairs),
    and each again with one letter of one side sign-flipped."""
    workloads = _load_perfbench(monkeypatch, "workloads")
    rng = random.Random(31)
    pairs = []
    for seed in seeds:
        for pair in workloads.oracle_pairs(seed):
            u, v = BraidWord(pair.strands, pair.u), BraidWord(pair.strands, pair.v)
            pairs.append((u, v))
            pairs.append((u, _flipped(rng, v)) if rng.random() < 0.5 else (_flipped(rng, u), v))
    return pairs


class TestPackedBurau:
    """burau_symbolic packs each column into one int; burau_dicts, the
    dict kernel it replaced, and the product over the Laurent ring are the
    references."""

    def test_packed_columns_equal_the_dict_kernels(self):
        for word in _burau_words():
            neg, pos = _bounds(word)
            assert _burau_keys(burau_symbolic(word, neg, pos), word.strands, neg, pos) == (
                burau_dicts(word)
            ), word
            # More room than the word needs moves no coefficient.
            cols = burau_symbolic(word, neg + 2, pos + 3)
            assert _burau_keys(cols, word.strands, neg + 2, pos + 3) == burau_dicts(word), word

    def test_an_empty_core_is_compared_at_the_offset(self):
        # s1 (s1 s2 s1 s2^-1 s1^-1 s2^-1) s3 = s1 s3: u's core is empty, and
        # t^neg times the identity must equal the other core's columns.
        u, v = bw([1, 3], 4), bw([1, 1, 2, 1, -2, -1, -2, 3], 4)
        a, b = _cores(u, v)
        assert a.letters == () and b.letters == (1, 2, 1, -2, -1, -2)
        neg, pos = _bounds(a, b)
        assert burau_symbolic(a, neg, pos) == burau_symbolic(b, neg, pos)
        assert braid_equal_witness(u, v) == (True, None)
        # Dropping the last inverse letter leaves s2 in the core.
        w = bw([1, 1, 2, 1, -2, -1, 3], 4)
        a, b = _cores(u, w)
        neg, pos = _bounds(a, b)
        assert a.letters == () and burau_symbolic(a, neg, pos) != burau_symbolic(b, neg, pos)

    def test_oracle_pairs_keep_the_dict_kernels_verdicts(self, monkeypatch):
        # On the benchmark's pairs and their sign-flipped variants the packed
        # leg returns what the dict kernel returned, verdict and witness,
        # also when the Burau leg alone decides.
        pairs = _oracle_and_flipped_pairs(monkeypatch)

        def verdicts():
            return [braid_equal_witness(u, v, 3) for u, v in pairs]

        packed = verdicts()
        with monkeypatch.context() as m:
            m.setattr(braidcat, "burau_symbolic", lambda word, neg, pos: burau_dicts(word))
            assert verdicts() == packed
            m.setattr(braidcat, "_lk_scaled_equal", lambda u, v, point: True)
            by_dicts = verdicts()
        monkeypatch.setattr(braidcat, "_lk_scaled_equal", lambda u, v, point: True)
        assert verdicts() == by_dicts
        assert {ok for ok, _ in by_dicts} == {True, False}

    def test_a_zero_offset_is_caught(self, monkeypatch):
        # Planted fault: with neg = 0 the shift of an inverse letter drops
        # the lowest slots instead of dividing exactly.
        stored = braidcat.burau_symbolic

        def unshifted(word, neg, pos):
            return stored(word, 0, pos + neg)

        for word in _burau_words():
            neg, pos = _bounds(word)
            keys = _burau_keys(unshifted(word, neg, pos), word.strands, 0, pos + neg)
            if neg == 0:
                assert keys == burau_dicts(word), word
            elif pos == 0:
                # The first letter already shifts a unit column out.
                assert keys != burau_dicts(word), word
        pairs = _oracle_and_flipped_pairs(monkeypatch)
        monkeypatch.setattr(braidcat, "_lk_scaled_equal", lambda u, v, point: True)
        exact = [braid_equal_witness(u, v, 3)[0] for u, v in pairs]
        monkeypatch.setattr(braidcat, "burau_symbolic", unshifted)
        assert [braid_equal_witness(u, v, 3)[0] for u, v in pairs] != exact


def test_cores_are_the_validated_slices(monkeypatch):
    # _cores builds its slices unchecked: each equals the word the
    # validating constructor makes of the same letters.
    for u, v in _oracle_and_flipped_pairs(monkeypatch):
        for core in _cores(u, v):
            assert core == BraidWord(core.strands, core.letters), (u, v)


def _frac_gauss_jordan(a):
    """Rows of the inverse of a dense square Fraction matrix, by
    Gauss-Jordan elimination of every column."""
    dim = len(a)
    a = [row[:] for row in a]
    inv = [[Fraction(1) if r == c else Fraction(0) for c in range(dim)] for r in range(dim)]
    for k in range(dim):
        piv = next((r for r in range(k, dim) if a[r][k]), None)
        if piv is None:
            raise BraidError("generator matrix unexpectedly singular")
        a[k], a[piv] = a[piv], a[k]
        inv[k], inv[piv] = inv[piv], inv[k]
        pv = a[k][k]
        a[k] = [x / pv if x else x for x in a[k]]
        inv[k] = [x / pv if x else x for x in inv[k]]
        for r in range(dim):
            if r != k and a[r][k]:
                f = a[r][k]
                a[r] = [x - f * y if y else x for x, y in zip(a[r], a[k])]
                inv[r] = [x - f * y if y else x for x, y in zip(inv[r], inv[k])]
    return inv


def _full_frac_inverse(cols, dim):
    """Reference for the stored inverse letters: Gauss-Jordan over every
    column of the positive letter's rational matrix."""
    a = [[Fraction(0)] * dim for _ in range(dim)]
    for c, col in enumerate(cols):
        for r, v in col.items():
            a[r][c] = v
    inv = _frac_gauss_jordan(a)
    return [{r: inv[r][c] for r in range(dim) if inv[r][c]} for c in range(dim)]


@functools.lru_cache(maxsize=None)
def _reference_letter(n, letter, point):
    """Rational Lawrence-Krammer columns of a signed letter at a point: the
    positive letter's table, and its Gauss-Jordan inverse for s_i^-1."""
    cols = lk_generator_columns(n, abs(letter), point.t_value, point.q_value, Fraction(1))
    if letter < 0:
        cols = _full_frac_inverse(cols, n * (n - 1) // 2)
    return cols


def _lk_fraction_reference(word, point):
    """Lawrence-Krammer columns of a word at a point as a product of the
    rational letter matrices, accumulated over Fraction."""
    n = word.strands
    dim = n * (n - 1) // 2
    state = [{r: Fraction(1)} for r in range(dim)]
    for letter in word.letters:
        cols = _reference_letter(n, letter, point)
        new_state = []
        for col in cols:
            acc = {}
            for r, v in col.items():
                for rr, vv in state[r].items():
                    acc[rr] = acc.get(rr, Fraction(0)) + v * vv
            new_state.append({r: v for r, v in acc.items() if v})
        state = new_state
    return state


def _unpack(packed, width, dim):
    """Entries {row: int} of packed columns, read as `dim` balanced digits
    of `width` bits each; nothing may be left above the last slot."""
    mask, half = (1 << width) - 1, 1 << (width - 1)
    cols = []
    for x in packed:
        col = {}
        for r in range(dim):
            digit = x & mask
            if digit >= half:
                digit -= 1 << width
            x = (x - digit) >> width
            if digit:
                col[r] = digit
        assert x == 0
        cols.append(col)
    return cols


def _lk_columns(word, point, width=None):
    """lk_numeric's columns as {row: int}, packed at `width` (by default
    the least width for the word's length) and unpacked."""
    n = word.strands
    table = _lk_scaled_generators(n, point)
    if width is None:
        width = lk_width(table, len(word.letters))
    return _unpack(lk_numeric(word, table, width), width, n * (n - 1) // 2)


def _burau_reference(word):
    """Unreduced Burau columns {row: LaurentPoly} of a word, by right
    multiplication with the letter matrices over the Laurent ring."""
    n = word.strands
    state = [{r: ONE} for r in range(n)]

    def scaled(col, p):
        return {r: v * p for r, v in col.items()}

    def added(a, b):
        out = dict(a)
        for r, v in b.items():
            s = out.get(r, ZERO) + v
            if s.terms:
                out[r] = s
            else:
                out.pop(r, None)
        return out

    for letter in word.letters:
        i = abs(letter) - 1
        ci, cj = state[i], state[i + 1]
        if letter > 0:
            # columns of the generator: e_i -> (1-t) e_i + e_{i+1},  e_{i+1} -> t e_i
            state[i] = added(scaled(ci, ONE - T), cj)
            state[i + 1] = scaled(ci, T)
        else:
            state[i] = scaled(cj, T_INV)
            state[i + 1] = added(ci, scaled(cj, ONE - T_INV))
    return state


def _bounds(*words):
    """(neg, pos) for burau_symbolic: the largest count of inverse letters
    and of positive letters among the words."""
    return (
        max(sum(l < 0 for l in w.letters) for w in words),
        max(sum(l > 0 for l in w.letters) for w in words),
    )


def _burau_keys(cols, n, neg, pos):
    """burau_symbolic's packed columns as burau_dicts keys them,
    {e·n + r: c}: slot (e + neg)·n + r of a column's int is key e·n + r.
    No slot may hold anything above exponent pos."""
    width = (3 ** (neg + pos)).bit_length() + 1
    return [
        {slot - neg * n: c for slot, c in col.items()}
        for col in _unpack(cols, width, (neg + pos + 1) * n)
    ]


def _burau_decode(cols, n, neg, pos):
    """burau_symbolic's packed columns as {row: LaurentPoly}."""
    out = []
    for col in _burau_keys(cols, n, neg, pos):
        rows = {}
        for key, c in col.items():
            e, r = divmod(key, n)
            rows.setdefault(r, {})[(e, 0)] = c
        out.append({r: LaurentPoly(terms) for r, terms in rows.items()})
    return out


def dense_braid_equal_witness(u, v, certainty=3, seed=0):
    """Reference for braid_equal_witness: the whole words, no affix
    cancelled, with every column of every Lawrence-Krammer letter
    multiplied out (over Fraction, so no scale is involved)."""
    if u.strands != v.strands:
        return False, {"reason": "strand mismatch"}
    if u.letters == v.letters:
        return True, None
    if u.strands >= 2:
        for point in seeded_points(max(1, certainty), seed):
            if _lk_fraction_reference(u, point) != _lk_fraction_reference(v, point):
                return False, {
                    "reason": "lawrence-krammer evaluation differs",
                    "t": str(point.t_value),
                    "q": str(point.q_value),
                }
    if _burau_reference(u) != _burau_reference(v):
        return False, {"reason": "symbolic burau matrices differ"}
    return True, None


@st.composite
def affixed_pairs(draw):
    """(u, v, equal) with u = p x s and v = p y s: x = y by one braid
    relation, or x != y because y is x with one letter changed."""
    n = draw(st.integers(3, 6), label="strands")
    letter = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from([i, -i]))
    prefix = draw(st.lists(letter, max_size=8), label="prefix")
    suffix = draw(st.lists(letter, max_size=8), label="suffix")
    i = draw(st.integers(1, n - 2), label="site")
    sign = draw(st.sampled_from([1, -1]), label="sign")
    x = (sign * i, sign * (i + 1), sign * i)
    equal = draw(st.booleans(), label="equal")
    if equal:
        y = (sign * (i + 1), sign * i, sign * (i + 1))
    else:
        # s_i s_j s_i against s_i s_j s_j: they differ by s_i^-1 s_j,
        # whose permutation is not the identity.
        y = (sign * i, sign * (i + 1), sign * (i + 1))
    return bw(prefix + list(x) + suffix, n), bw(prefix + list(y) + suffix, n), equal


class TestAffixCancellation:
    @settings(max_examples=25, deadline=None)
    @given(pair=affixed_pairs())
    def test_matches_dense_reference(self, pair):
        u, v, equal = pair
        for a, b in ((u, v), (v, u)):
            got = braid_equal_witness(a, b)
            assert got == dense_braid_equal_witness(a, b)
            assert got[0] is equal

    @pytest.mark.parametrize(
        "u,v",
        [
            # u = v s: the common prefix is all of v, so no suffix is left.
            ((1, 2, 1, -2), (1, 2)),
            # u = s v: the common suffix is all of v.
            ((-1, 2, 1), (2, 1)),
            # A prefix and a suffix that would overlap: the cores are () and s1.
            ((1, 1), (1, 1, 1)),
            ((2, 1, 2), (2, 1, 2, 1, 2)),
            # One core empty, the other a trivial braid.
            ((1, 2, 1, -2, -1, -2, 3), (3,)),
            # Both affixes cancelled; the cores differ by a braid relation.
            ((3, 1, 2, 1, 3), (3, 2, 1, 2, 3)),
        ],
    )
    def test_edge_cases_match_dense_reference(self, u, v):
        a, b = bw(u, 4), bw(v, 4)
        assert braid_equal_witness(a, b) == dense_braid_equal_witness(a, b)
        assert braid_equal_witness(b, a) == dense_braid_equal_witness(b, a)


def _site(draw, n, letter):
    """(x, y, kind) for one site: x = y by a braid relation or a far
    commutation, or y is x's one letter changed; letter draws a signed
    letter on n strands."""
    kinds = ["relation", "change"] + (["commutation"] if n >= 4 else [])
    kind = draw(st.sampled_from(kinds), label="kind")
    sign = draw(st.sampled_from([1, -1]), label="sign")
    if kind == "relation":
        i = draw(st.integers(1, n - 2), label="i")
        j = i + 1
        x, y = draw(
            st.sampled_from([((i, j, i), (j, i, j)), ((i, j, -i), (-j, i, j))]), label="relation"
        )
        x, y = tuple(sign * l for l in x), tuple(sign * l for l in y)
    elif kind == "commutation":
        i = draw(st.integers(1, n - 3), label="i")
        j = draw(st.integers(i + 2, n - 1), label="j")
        x, y = (sign * i, j), (j, sign * i)
    else:
        x = sign * draw(st.integers(1, n - 1), label="letter")
        x, y = (x,), (draw(letter.filter(lambda l: l != x), label="changed"),)
    return (x, y, kind) if draw(st.booleans(), label="swap") else (y, x, kind)


@st.composite
def site_pairs(draw):
    """(u, v, changes): 1-4 sites between shared filler, the number of
    one-letter changes among them.  Filler of zero letters joins sites
    into runs longer than _RUN_BOUND."""
    n = draw(st.integers(3, 7), label="strands")
    letter = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from([i, -i]))
    u = draw(st.lists(letter, max_size=6), label="filler")
    v, changes = list(u), 0
    for _ in range(draw(st.integers(1, 4), label="sites")):
        x, y, kind = _site(draw, n, letter)
        changes += kind == "change"
        filler = draw(st.lists(letter, max_size=3), label="filler")
        u += list(x) + filler
        v += list(y) + filler
    return bw(u, n), bw(v, n), changes


def _lk_calls(monkeypatch):
    """A list that grows by one per Lawrence-Krammer point evaluated."""
    calls, compare = [], braidcat._lk_scaled_equal

    def counting(u, v, point):
        calls.append(point)
        return compare(u, v, point)

    monkeypatch.setattr(braidcat, "_lk_scaled_equal", counting)
    return calls


# (u, v, strands, whether u = v, whether the run step decides the pair)
RUN_EDGE_CASES = [
    # Equal words whose every run is unequal: s2^-1 s1 s2 s1 = s1 s2 =
    # s2 s1 s2 s1^-1, with runs s2^-1 | s2 and s1 | s1^-1.
    ((-2, 1, 2, 1, -2), (2, 1, 2, -1, -2), 3, True, False),
    # Three braid relations side by side: one equal run of 9 letters.
    ((1, 2, 1, 1, 2, 1, 1, 2, 1), (2, 1, 2, 2, 1, 2, 2, 1, 2), 3, True, False),
    # Short cores of different lengths, one run: s1 s2 s1 s2^-1 = s2 s1.
    ((1, 2, 1, -2), (2, 1), 3, True, True),
    # Short cores of different lengths that differ: s2 s1 != id.
    ((1, 2, 1), (1,), 3, False, False),
    # Two equal runs, a braid relation and a far commutation.
    ((3, 1, 2, 1, 3, 1, 4, 2), (3, 2, 1, 2, 3, 4, 1, 2), 5, True, True),
    # Two runs of which one is a changed letter.
    ((3, 1, 2, 1, 3, 1, 4, 2), (3, 2, 1, 2, 3, 1, -4, 2), 5, False, False),
]


class TestRunStep:
    """The run step of braid_equal_witness returns exactly what the
    Lawrence-Krammer and Burau legs return on whole words."""

    @settings(max_examples=60, deadline=None)
    @given(pair=site_pairs())
    def test_matches_dense_reference(self, pair):
        u, v, changes = pair
        for a, b in ((u, v), (v, u)):
            got = braid_equal_witness(a, b)
            assert got == dense_braid_equal_witness(a, b)
            if changes == 0:
                assert got == (True, None)
            elif changes == 1:
                assert got[0] is False

    @pytest.mark.parametrize("u,v,strands,equal,decided", RUN_EDGE_CASES)
    def test_edge_cases_match_dense_reference(self, monkeypatch, u, v, strands, equal, decided):
        calls = _lk_calls(monkeypatch)
        a, b = bw(u, strands), bw(v, strands)
        assert braidcat._runs_equal(*_cores(a, b)) is decided
        for x, y in ((a, b), (b, a)):
            calls.clear()
            got = braid_equal_witness(x, y)
            assert got == dense_braid_equal_witness(x, y) and got[0] is equal
            assert bool(calls) is not decided

    def test_the_longest_decided_run_is_the_bound(self, monkeypatch):
        # s1 s2 s1 = s2 s1 s2 repeated: a run of 3k letters is decided on
        # the Artin action exactly when 3k <= _RUN_BOUND.
        calls = _lk_calls(monkeypatch)
        for k in range(1, 5):
            calls.clear()
            a, b = bw((1, 2, 1) * k, 3), bw((2, 1, 2) * k, 3)
            assert braid_equal_witness(a, b) == (True, None)
            assert bool(calls) is (3 * k > braidcat._RUN_BOUND), k

    def test_a_run_decision_that_accepts_a_differing_run_is_caught(self, monkeypatch):
        # Planted fault: the runs compared by their permutations, which a
        # sign flip keeps, instead of their Artin images.
        def cases():
            for u, v, strands, _, _ in RUN_EDGE_CASES:
                a, b = bw(u, strands), bw(v, strands)
                yield a, b
                yield b, a

        def differs(a, b):
            return braid_equal_witness(a, b) != dense_braid_equal_witness(a, b)

        assert not any(differs(a, b) for a, b in cases())
        monkeypatch.setattr(braidcat, "artin_images", BraidWord.permutation)
        wrong = [(a, b) for a, b in cases() if differs(a, b)]
        assert wrong
        assert all(braid_equal_witness(a, b) == (True, None) for a, b in wrong)
        found = find(
            site_pairs(),
            lambda pair: differs(pair[0], pair[1]),
            settings=settings(max_examples=200, database=None, deadline=None, derandomize=True),
        )
        assert found[2] > 0


@st.composite
def strand_range_pairs(draw):
    """(u, v) on 2-8 strands: 1-3 sites between shared filler.  On 2
    strands a site is a flipped letter; on more it is a site of site_pairs
    or a chain of 3-4 braid relations, an equal run of 9-12 letters that
    the run step declines, so that equal pairs reach Lawrence-Krammer."""
    n = draw(st.integers(2, 8), label="strands")
    letter = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from([i, -i]))
    u = draw(st.lists(letter, max_size=6), label="filler")
    v = list(u)
    for _ in range(draw(st.integers(1, 3), label="sites")):
        if n == 2:
            x = draw(letter, label="letter")
            x, y = (x,), (-x,)
        elif draw(st.booleans(), label="chain"):
            i = draw(st.integers(1, n - 2), label="i")
            sign = draw(st.sampled_from([1, -1]), label="sign")
            k = draw(st.integers(3, 4), label="links")
            x = (sign * i, sign * (i + 1), sign * i) * k
            y = (sign * (i + 1), sign * i, sign * (i + 1)) * k
        else:
            x, y, _ = _site(draw, n, letter)
        filler = draw(st.lists(letter, max_size=3), label="filler")
        u += list(x) + filler
        v += list(y) + filler
    return bw(u, n), bw(v, n)


def _both_orders(pairs):
    return [p for u, v in pairs for p in ((u, v), (v, u))]


def _nine_letter_run():
    """RUN_EDGE_CASES' equal 9-letter run, which reaches Lawrence-Krammer."""
    (u, v, strands, equal, decided), = [c for c in RUN_EDGE_CASES if len(c[0]) == 9]
    assert equal and not decided
    return bw(u, strands), bw(v, strands)


class TestResidueRow:
    """_lk_scaled_equal answers "unequal" when one row mod _PRIME differs,
    and otherwise on the packed matrices; every verdict and witness is the
    one the packed comparison alone gives."""

    def test_oracle_pairs_keep_the_packed_verdicts(self, monkeypatch):
        # The oracle pairs of seeds 0-11, each also with one letter
        # sign-flipped, and RUN_EDGE_CASES, in both orders.
        pairs = _oracle_and_flipped_pairs(monkeypatch, range(12))
        pairs += [(bw(u, n), bw(v, n)) for u, v, n, _, _ in RUN_EDGE_CASES]
        pairs = _both_orders(pairs)
        got = [braid_equal_witness(u, v) for u, v in pairs]
        monkeypatch.setattr(braidcat, "_lk_scaled_equal", lk_scaled_equal_packed)
        assert got == [braid_equal_witness(u, v) for u, v in pairs]
        assert {ok for ok, _ in got} == {True, False}

    @settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @given(pair=strand_range_pairs())
    def test_generated_pairs_keep_the_packed_verdicts(self, pair):
        # Each of the three seeded points decides as the packed comparison
        # does, and so does the whole oracle, in both orders.
        u, v = pair
        for a, b in ((u, v), (v, u)):
            for point in seeded_points(3, 0):
                assert braidcat._lk_scaled_equal(a, b, point) is lk_scaled_equal_packed(a, b, point)
            got = braid_equal_witness(a, b)
            with pytest.MonkeyPatch.context() as m:
                m.setattr(braidcat, "_lk_scaled_equal", lk_scaled_equal_packed)
                assert got == braid_equal_witness(a, b)

    def test_the_row_decides_the_unequal_oracle_pairs(self, monkeypatch):
        # Every unequal benchmark pair of seed 11 exits on the row: no
        # packed matrix is built.
        workloads = _load_perfbench(monkeypatch, "workloads")
        packed = []
        monkeypatch.setattr(braidcat, "lk_numeric", lambda *args: packed.append(args))
        for pair in workloads.oracle_pairs(11):
            if not pair.equal:
                u, v = BraidWord(pair.strands, pair.u), BraidWord(pair.strands, pair.v)
                assert braid_equal_witness(u, v, 3)[0] is False
        assert packed == []

    def test_a_wrong_scale_inverse_is_caught(self, monkeypatch):
        # Planted fault: residue letters built with the inverse of scale + 1
        # are no longer a representation, so an equal pair that reaches
        # Lawrence-Krammer gets a false "unequal".
        u, v = _nine_letter_run()
        assert braid_equal_witness(u, v) == (True, None)
        build = braidcat._lk_residues
        monkeypatch.setattr(braidcat, "_LK_RESIDUES", {})
        monkeypatch.setattr(
            braidcat, "_lk_residues", lambda n, table: build(n, (table[0] + 1,) + table[1:])
        )
        assert braid_equal_witness(u, v)[0] is False

    def test_a_row_that_always_agrees_changes_nothing(self, monkeypatch):
        # With x = 0 every row is zero, so the packed comparison decides
        # every pair, with the same verdicts and witnesses.
        pairs = _both_orders(_oracle_and_flipped_pairs(monkeypatch))
        pairs.append(_nine_letter_run())
        expected = [braid_equal_witness(u, v) for u, v in pairs]
        rows, fold = [], braidcat._lk_row

        def recording(word, row, residues):
            rows.append(fold(word, row, residues))
            return rows[-1]

        monkeypatch.setattr(braidcat, "_ROW_BASE", 0)
        monkeypatch.setattr(braidcat, "_LK_RESIDUES", {})
        monkeypatch.setattr(braidcat, "_lk_row", recording)
        assert [braid_equal_witness(u, v) for u, v in pairs] == expected
        assert rows and not any(any(row) for row in rows)

    def test_a_prime_dividing_the_scale_skips_the_row(self, monkeypatch):
        # A prime dividing the scale at every point of seed 0 leaves no
        # residue letters: the row is never folded, and nothing changes.
        pairs = _both_orders(_oracle_and_flipped_pairs(monkeypatch))
        pairs.append(_nine_letter_run())
        expected = [braid_equal_witness(u, v) for u, v in pairs]
        scales = [_lk_scaled_generators(n, p)[0] for n in range(3, 7) for p in seeded_points(3, 0)]
        common = math.gcd(*scales)
        prime = next(p for p in range(2, common + 1) if common % p == 0)

        def unreachable(*args):
            raise AssertionError("the row should have been skipped")

        monkeypatch.setattr(braidcat, "_PRIME", prime)
        monkeypatch.setattr(braidcat, "_LK_RESIDUES", {})
        monkeypatch.setattr(braidcat, "_lk_row", unreachable)
        assert [braid_equal_witness(u, v) for u, v in pairs] == expected
        assert all(letters is None for _, letters in braidcat._LK_RESIDUES.values())

    def test_residues_are_stored_beside_the_letter_table(self, monkeypatch):
        # One bounded entry per (n, point); the letter table keeps its shape.
        monkeypatch.setattr(braidcat, "_LK_RESIDUES", {})
        u, v = _nine_letter_run()
        braid_equal_witness(u, v)
        points = seeded_points(3, 0)
        assert list(braidcat._LK_RESIDUES) == [(3, point) for point in points]
        for point in points:
            letters = _lk_scaled_generators(3, point)[2]
            row, residues = braidcat._LK_RESIDUES[3, point]
            assert row == [3, 9, 27] and residues.keys() == letters.keys()


def _as_map(images):
    """The automorphism of F_n with the given signed-generator images."""
    n = len(images)
    words = [FreeWord(n, tuple((abs(x), 1 if x > 0 else -1) for x in w)) for w in images]
    return FreeGroupMap(n, n, words)


class TestArtinImages:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_braid_relations_hold(self, n):
        for i in range(1, n - 1):
            for a, b in ((i, i + 1), (-i, -(i + 1)), (i + 1, i)):
                assert artin_images(bw([a, b, a], n)) == artin_images(bw([b, a, b], n))
            # s_i s_(i+1) s_i^-1 = s_(i+1)^-1 s_i s_(i+1)
            assert artin_images(bw([i, i + 1, -i], n)) == artin_images(bw([-(i + 1), i, i + 1], n))
        for i in range(1, n):
            for j in range(i + 2, n):
                for a, b in ((i, j), (-i, j), (i, -j), (-i, -j)):
                    assert artin_images(bw([a, b], n)) == artin_images(bw([b, a], n))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_inverse_letters_invert(self, n):
        identity = FreeGroupMap.identity(n)
        for i in range(1, n):
            pos, neg = _as_map(artin_images(bw([i], n))), _as_map(artin_images(bw([-i], n)))
            assert pos.compose(neg) == identity and neg.compose(pos) == identity
            assert pos != identity
            # s_i^2 is a nontrivial pure braid.
            assert artin_images(bw([i, i], n)) != artin_images(BraidWord.identity(n))

    def test_equals_the_composed_letter_maps(self):
        rng = random.Random("artin-images")
        for _ in range(200):
            n = rng.randint(2, 6)
            word = bw([rng.choice(signed_letters(n)) for _ in range(rng.randint(0, 10))], n)
            assert artin_images(word) == artin_images_by_compose(word), word


class TestArtinWitness:
    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(pair=affixed_pairs())
    def test_matches_the_core_fold(self, pair):
        # Words sharing a prefix and a suffix, equal and unequal, both ways
        # round, and a word against itself.
        u, v, _ = pair
        for a, b in ((u, v), (v, u), (u, u)):
            assert artin_witness(a, b) == artin_witness_by_cores(a, b)

    @pytest.mark.parametrize(
        "u,v,equal",
        [((3, 1, 2, 1, 3), (3, 2, 1, 2, 3), True), ((1, 2, 1, 3), (1, 2, 2, 3), False)],
    )
    def test_folds_each_word_once(self, u, v, equal, monkeypatch):
        folded, fold = [], braidcat.artin_images

        def counting(word):
            folded.append(word)
            return fold(word)

        monkeypatch.setattr(braidcat, "artin_images", counting)
        lhs, rhs = bw(u, 4), bw(v, 4)
        assert (artin_witness(lhs, rhs) is None) is equal
        assert folded == [lhs, rhs]


def _listed_relations(n):
    """The relations of B_n in the order check_functor listed them by hand
    before artin_relations: braid relations, then per i the far
    commutations and the inverse pair."""
    out = [("braid-relation", {"i": i}, (i, i + 1, i), (i + 1, i, i + 1)) for i in range(1, n - 1)]
    for i in range(1, n):
        out += [("commutation", {"i": i, "j": j}, (i, j), (j, i)) for j in range(i + 2, n)]
        out.append(("inverse", {"i": i}, (i, -i), ()))
    return out


def _letter_product(letters, letter_map, identity, mul):
    """The letters' maps multiplied in list order, with no cancellation."""
    out = identity
    for letter in letters:
        out = mul(out, letter_map(letter))
    return out


class TestArtinRelations:
    @pytest.mark.parametrize("n", range(0, 9))
    def test_counts_and_order(self, n):
        relations = list(artin_relations(n))
        kinds = [kind for kind, *_ in relations]
        top = max(n - 2, 0)
        assert kinds.count("braid-relation") == top
        assert kinds.count("commutation") == top * (top - 1) // 2
        assert kinds.count("inverse") == max(n - 1, 0)
        assert relations == _listed_relations(n)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_relations_hold_for_artin_burau_and_lawrence_krammer(self, n):
        # The inverse pair is multiplied out, not cancelled as a BraidWord
        # would cancel it.
        burau, lk = burau_functor(), lk_functor()
        sides = [
            (lambda l: artin_generator_map(n, l), FreeGroupMap.identity(n), FreeGroupMap.compose),
            (lambda l: burau.gen_matrix(n, l), PolyMatrix.identity(n), PolyMatrix.matmul),
            (lambda l: lk.gen_matrix(n, l), PolyMatrix.identity(lk.dim(n)), PolyMatrix.matmul),
        ]
        for kind, where, lhs, rhs in artin_relations(n):
            for letter_map, identity, mul in sides:
                left = _letter_product(lhs, letter_map, identity, mul)
                right = _letter_product(rhs, letter_map, identity, mul)
                assert left == right, (kind, where, identity)

    def test_a_broken_relation_fails_its_fold(self):
        # A positive letter in place of the inverse breaks only the inverse
        # pairs, so the fold is not vacuous.
        def product(letters):
            return _letter_product(
                letters, lambda l: artin_generator_map(4, abs(l)),
                FreeGroupMap.identity(4), FreeGroupMap.compose,
            )

        broken = [kind for kind, _, lhs, rhs in artin_relations(4) if product(lhs) != product(rhs)]
        assert broken == ["inverse"] * 3


def _load_perfbench(monkeypatch, name):
    """A module of perfbench/, loaded without writing anything beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_oracle_pairs_keep_their_verdicts(monkeypatch):
    # The benchmark's oracle table: every pair gets its constructed verdict,
    # and every "unequal" a witness.
    workloads = _load_perfbench(monkeypatch, "workloads")
    for seed in (1, 2):
        for pair in workloads.oracle_pairs(seed):
            u, v = BraidWord(pair.strands, pair.u), BraidWord(pair.strands, pair.v)
            ok, witness = braid_equal_witness(u, v, 3)
            assert ok is pair.equal, (seed, pair)
            assert ok or witness


def test_artin_action_decides_the_benchmark_oracle_pairs(monkeypatch):
    # Equal Artin images of the cores, the exact decision, give every pair
    # the verdict of the oracle and of its construction.
    workloads = _load_perfbench(monkeypatch, "workloads")
    for seed in (0, 1, 2):
        for pair in workloads.oracle_pairs(seed):
            u, v = BraidWord(pair.strands, pair.u), BraidWord(pair.strands, pair.v)
            a, b = _cores(u, v)
            exact = artin_images(a) == artin_images(b)
            assert exact is braid_equal_witness(u, v, 3)[0] is pair.equal, (seed, pair)


def test_benchmark_oracle_pairs_make_no_laurent_arithmetic(monkeypatch):
    # A timing-free guard on the oracle: both of its legs run on plain
    # integers, so the benchmark's pairs make no Laurent product or sum.
    workloads = _load_perfbench(monkeypatch, "workloads")
    calls = {"__mul__": 0, "__add__": 0}
    for op in calls:
        original = vars(LaurentPoly)[op]

        def counted(*args, _op=op, _original=original):
            calls[_op] += 1
            return _original(*args)

        for name, value in list(vars(LaurentPoly).items()):
            if value is original:
                monkeypatch.setattr(LaurentPoly, name, counted)
    assert ONE * T + T == T * 2 and calls == {"__mul__": 2, "__add__": 1}
    calls.update(dict.fromkeys(calls, 0))
    for pair in workloads.oracle_pairs(11):
        u, v = BraidWord(pair.strands, pair.u), BraidWord(pair.strands, pair.v)
        assert braid_equal_witness(u, v, 3)[0] is pair.equal
    assert calls == {"__mul__": 0, "__add__": 0}


def test_oracle_reads_the_letter_table_once_per_point(monkeypatch):
    # Each LK comparison of the benchmark's pairs looks the scaled letter
    # table up once per seeded point it evaluates: its width, both words
    # and the scale of the gap all come from that one read.  The unequal
    # pairs reach Lawrence-Krammer and the equal ones are settled by their
    # runs; with the run step declining, the equal pairs reach it too.
    workloads = _load_perfbench(monkeypatch, "workloads")
    points = _lk_calls(monkeypatch)

    def check(reaches_lk):
        for pair in workloads.oracle_pairs(11):
            u, v = BraidWord(pair.strands, pair.u), BraidWord(pair.strands, pair.v)
            points.clear()
            before = _lk_scaled_generators.cache_info()
            assert braid_equal_witness(u, v, 3)[0] is pair.equal
            after = _lk_scaled_generators.cache_info()
            lookups = after.hits + after.misses - before.hits - before.misses
            assert bool(points) is reaches_lk(pair) and lookups == len(points), pair

    check(lambda pair: not pair.equal)
    monkeypatch.setattr(braidcat, "_runs_equal", lambda u, v: False)
    check(lambda pair: True)


def test_equal_oracle_pairs_are_settled_by_their_runs(monkeypatch):
    # Every equal benchmark pair differs only at short relation sites, so
    # the Artin action decides it before any Lawrence-Krammer point or
    # Burau column is computed.
    workloads = _load_perfbench(monkeypatch, "workloads")

    def unreachable(*args):
        raise AssertionError("the run step should have decided this pair")

    monkeypatch.setattr(braidcat, "_lk_scaled_equal", unreachable)
    monkeypatch.setattr(braidcat, "burau_symbolic", unreachable)
    settled = 0
    for seed in (0, 1, 2):
        for pair in workloads.oracle_pairs(seed):
            if pair.equal:
                u, v = BraidWord(pair.strands, pair.u), BraidWord(pair.strands, pair.v)
                assert braid_equal_witness(u, v, 3) == (True, None), (seed, pair)
                assert braid_equal_witness(v, u, 3) == (True, None), (seed, pair)
                settled += 1
    assert settled == 180


def test_benchmark_tracer_ops_resolve(monkeypatch):
    # Every op the per-layer tracer wraps still exists, so that removing or
    # renaming one cannot silently break a traced benchmark run.
    tracer = _load_perfbench(monkeypatch, "tracer")
    for prefix, module, path, _mode in tracer.OPS:
        importlib.import_module(module)
        assert callable(tracer._resolve(module, path)[2]), prefix


def test_benchmark_jobs_run_and_score(monkeypatch):
    # Every job of every benchmark workload builds, runs and gets its
    # expected verdict, so that what perfbench reads of lmkit stays callable.
    workloads = _load_perfbench(monkeypatch, "workloads")
    for name in workloads.WORKLOADS:
        for job in workloads.setup(name, 11):
            assert workloads.score(job, *job.run()) is None, (name, job.id)


def _canonical_table(table):
    """A scaled letter table with each mixed column's entries as a dict, so
    that tables listing the same entries in another order compare equal."""
    scale, bits, letters = table
    return scale, bits, {
        letter: (moved, tuple((c, dict(entries)) for c, entries in mixed))
        for letter, (moved, mixed) in letters.items()
    }


def _ring_matrix(cols):
    return PolyMatrix(
        len(cols), len(cols), {(r, c): v for c, col in enumerate(cols) for r, v in col.items()}
    )


def _is_inverse_pair(pos_cols, neg_cols):
    pos, neg = _ring_matrix(pos_cols), _ring_matrix(neg_cols)
    eye = PolyMatrix.identity(len(pos_cols))
    return pos.matmul(neg) == eye and neg.matmul(pos) == eye


class TestLetterTable:
    """lk_generator_columns stores the inverse letters in closed form; the
    Gauss-Jordan elimination of the positive letters is the reference."""

    def test_letter_table_equals_the_full_elimination_one(self, monkeypatch):
        build = _lk_scaled_generators.__wrapped__
        keys = [(n, point) for n in range(2, 8) for seed in (0, 7) for point in seeded_points(3, seed)]
        tables = {key: _canonical_table(build(*key)) for key in keys}
        stored = lk_generator_columns

        def reference(n, letter, t, q, one):
            if letter > 0:
                return stored(n, letter, t, q, one)
            return _full_frac_inverse(stored(n, -letter, t, q, one), n * (n - 1) // 2)

        monkeypatch.setattr(braidcat, "lk_generator_columns", reference)
        assert {key: _canonical_table(build(*key)) for key in keys} == tables

    def test_closed_form_inverts_the_letter_over_the_ring(self):
        for n in range(2, 15):
            for i in range(1, n):
                pos = lk_generator_columns(n, i, T, Q, ONE)
                assert _is_inverse_pair(pos, lk_generator_columns(n, -i, T, Q, ONE)), (n, i)
        # Negative control: changing any one entry of s_2^-1 on 5 strands
        # breaks the identity.
        n, i = 5, 2
        pos = lk_generator_columns(n, i, T, Q, ONE)
        neg = lk_generator_columns(n, -i, T, Q, ONE)
        for c, col in enumerate(neg):
            for r in col:
                corrupted = [dict(cc) for cc in neg]
                corrupted[c][r] = col[r] + T
                assert not _is_inverse_pair(pos, corrupted), (c, r)


class TestLocalSystems:
    def test_pure_braid_generator_images(self):
        system = pure_braid_system()
        assert system.generator_image(3, 1).letters == (1, 1)
        assert system.generator_image(3, 2).letters == (-1, 2, 2, 1)

    def test_trivial(self):
        system = trivial_system()
        word = parse_word("g1*g2^-1", 2)
        assert system.evaluate(word) == BraidWord.identity(3)
        # One rule for every trivial system, so they share stored images.
        assert trivial_system().rule is system.rule

    def test_homomorphism_property(self):
        system = pure_braid_system()
        rng = random.Random(8)
        for _ in range(8):
            n = rng.randint(1, 3)
            u = FreeWord(n, tuple((rng.randint(1, n), rng.choice([1, -1])) for _ in range(3)))
            v = FreeWord(n, tuple((rng.randint(1, n), rng.choice([1, -1])) for _ in range(3)))
            assert braid_equal(
                system.evaluate(u * v),
                system.evaluate(u).compose(system.evaluate(v)),
            )

    @pytest.mark.parametrize("name", ["trivial", "pure-braid", "corrupted-demo"])
    def test_one_pass_evaluate_is_the_compose_fold(self, name):
        # Seeded free words of ranks 1-5 with syllable exponents ±1 to ±3,
        # the empty word included: joining the generator images and reducing
        # once gives the word the fold of compose gives.
        system = local_system(name)
        rng = random.Random(2024)
        words = [FreeWord.identity(rank) for rank in range(1, 6)]
        for _ in range(200):
            rank = rng.randint(1, 5)
            syllables = tuple(
                (rng.randint(1, rank), rng.choice([1, -1]) * rng.randint(1, 3))
                for _ in range(rng.randint(1, 6))
            )
            words.append(FreeWord(rank, syllables))
        for w in words:
            assert system.evaluate(w) == evaluate_by_compose(system, w), w

    def test_generator_image_refuses_on_every_call(self):
        # Nothing is stored for a refused image, so a repeated call refuses
        # again rather than reading a table entry.
        system = pure_braid_system()
        wrong_strands = LocalSystem("short", lambda n, i: BraidWord.identity(n))
        for _ in range(2):
            for i in (0, 4, -1):
                with pytest.raises(BraidError, match="outside free group"):
                    system.generator_image(3, i)
            with pytest.raises(BraidError, match="n\\+1 strands"):
                wrong_strands.generator_image(3, 1)
            with pytest.raises(BraidError, match="n\\+1 strands"):
                wrong_strands.evaluate(FreeWord.generator(3, 2))

    def test_named_lookup(self):
        assert local_system("pure-braid").name == "pure-braid"
        assert local_system("trivial").name == "trivial"
        with pytest.raises(BraidError):
            local_system("nope")

    @pytest.mark.parametrize("name", ["trivial", "pure-braid", "corrupted-demo"])
    def test_each_named_system_has_one_rule(self, name):
        # Two lookups share one rule, so they share its stored images.
        assert local_system(name).rule is local_system(name).rule


def test_signed_letters_are_the_words_of_length_one():
    assert signed_letters(3) == (1, -1, 2, -2)
    for n in range(6):
        assert signed_letters(n) == tuple(w[0] for w in reduced_words(n - 1, 1) if w)


def test_enumerate_words_counts():
    # Freely reduced words over two letter pairs: 1, 4, 4*3, 4*9 ...
    words = enumerate_words(3, 2)
    assert len(words) == 1 + 4 + 12
    assert len(enumerate_words(1, 5)) == 1
