import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from lmkit.laurent import ONE
from lmkit.freegroup import (
    AugIdealElement,
    FreeGroupError,
    FreeGroupMap,
    FreeWord,
    GroupRingElement,
    _WADA_TABLE,
    artin_generator_map,
    fox_derivatives,
    invert_map,
    parse_word,
    reduced_words,
    wada_generator_map,
    wada_pair,
)
from reference_kernels import apply_aug, apply_ring, expand


def w(text, rank):
    return parse_word(text, rank)


def random_word(rng, rank, max_len):
    letters = []
    for _ in range(rng.randint(0, max_len)):
        letters.append((rng.randint(1, rank), rng.choice([1, -1])))
    return FreeWord(rank, tuple(letters))


class TestWords:
    def test_mul_inverse_examples(self):
        g1 = FreeWord.generator(2, 1)
        assert g1 * g1.inverse() == FreeWord.identity(2)
        assert w("g1*g2", 2).inverse() == w("g2^-1*g1^-1", 2)
        assert w("g2^-1*g1", 2) * w("g1^-1*g2", 2) == FreeWord.identity(2)

    def test_rank_mismatch(self):
        with pytest.raises(FreeGroupError):
            FreeWord.generator(2, 1) * FreeWord.generator(3, 1)

    def test_parse_roundtrip(self):
        for text in ["g1*g2^-1*g1^2", "e", "g3^-4"]:
            word = w(text, 3)
            assert parse_word(str(word), 3) == word

    @given(st.lists(st.tuples(st.integers(1, 4), st.sampled_from([1, -1])), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_group_axioms(self, letters):
        word = FreeWord(4, tuple(letters))
        assert word * word.inverse() == FreeWord.identity(4)
        assert (word * FreeWord.identity(4)) == word


def assert_reduced_in_range(word):
    for gen, exp in word.syllables:
        assert exp != 0 and 1 <= gen <= word.rank, word
    for (a, _), (b, _) in zip(word.syllables, word.syllables[1:]):
        assert a != b, word


def reference_apply(phi, word):
    # The product-of-powers loop, every step through the validating
    # constructor, which reduces the whole word again.
    out = FreeWord.identity(phi.target_rank)
    for gen, exp in word.syllables:
        img = phi.images[gen - 1].syllables
        if exp < 0:
            img = tuple((g, -e) for g, e in reversed(img))
        power = FreeWord(phi.target_rank, img * abs(exp))
        out = FreeWord(out.rank, out.syllables + power.syllables)
    return out


class TestKernel:
    """The junction-only product and the one-pass apply_word against the
    validating constructor, on seeded random reduced words."""

    def junction_pairs(self, rng, rank):
        u = random_word(rng, rank, 12)
        tail = u.syllables[rng.randint(0, len(u.syllables)):]
        cancel = FreeWord(rank, tuple((g, -e) for g, e in reversed(tail)))
        yield u, random_word(rng, rank, 12)
        yield u, u.inverse()
        # Partial cancellation: v starts by undoing a suffix of u.
        yield u, FreeWord(rank, cancel.syllables + random_word(rng, rank, 6).syllables)
        if u.syllables:
            # The last syllable merges without vanishing.
            gen, exp = u.syllables[-1]
            yield u, FreeWord(rank, ((gen, 1 - exp),) + random_word(rng, rank, 6).syllables)
        yield u, FreeWord.identity(rank)
        yield FreeWord.identity(rank), u

    def test_product_matches_validated_path(self):
        rng = random.Random(13)
        for _ in range(300):
            rank = rng.randint(2, 5)
            for u, v in self.junction_pairs(rng, rank):
                product = u * v
                assert product == FreeWord(rank, u.syllables + v.syllables), (u, v)
                assert_reduced_in_range(product)
        g = FreeWord.generator(3, 2)
        assert g * FreeWord.identity(3) is g and FreeWord.identity(3) * g is g

    def test_inverse_and_generator_keep_invariant(self):
        rng = random.Random(14)
        for _ in range(100):
            u = random_word(rng, rng.randint(2, 5), 12)
            assert_reduced_in_range(u.inverse())
            assert u.inverse() == FreeWord(u.rank, tuple((g, -e) for g, e in reversed(u.syllables)))
        assert FreeWord.generator(3, 2, 0) == FreeWord.identity(3)
        for bad in (0, 4):
            with pytest.raises(FreeGroupError):
                FreeWord.generator(3, bad)

    def test_apply_word_matches_power_loop(self):
        rng = random.Random(15)
        for n in range(2, 6):
            maps = [artin_generator_map(n, s * i) for i in range(1, n) for s in (1, -1)]
            maps += [
                wada_generator_map(n, s * i, kind)
                for kind in range(1, 8)
                for i in range(1, n)
                for s in (1, -1)
            ]
            maps.append(maps[0].compose(maps[-1]).compose(maps[len(maps) // 2]))
            for phi in maps:
                for _ in range(8):
                    u = random_word(rng, n, 12)
                    image = phi.apply_word(u)
                    assert image == reference_apply(phi, u), (phi, u)
                    assert_reduced_in_range(image)


class TestFox:
    def test_conjugated_generator(self):
        # The worked expansion of g2^-1 g1 g2 - 1 over the free basis.
        word = w("g2^-1*g1*g2", 2)
        coords = fox_derivatives(word)
        assert coords.coords[0] == GroupRingElement.from_word(w("g2", 2))
        expected = GroupRingElement.one(2) - GroupRingElement.from_word(word)
        assert coords.coords[1] == expected

    def test_basis_element(self):
        coords = fox_derivatives(FreeWord.generator(3, 2))
        assert coords.coords[1] == GroupRingElement.one(3)
        assert coords.coords[0].is_zero() and coords.coords[2].is_zero()

    def test_square(self):
        # Oracle: (g1 - 1)(1 + g1) = g1^2 - 1, checked by expansion.
        one = GroupRingElement.one(1)
        g1 = GroupRingElement.from_word(FreeWord.generator(1, 1))
        expansion = (g1 - one) * (one + g1)
        sq = GroupRingElement.from_word(w("g1^2", 1))
        assert expansion == sq - one
        assert fox_derivatives(w("g1^2", 1)).coords[0] == one + g1

    def fox_identity_holds(self, word):
        expanded = expand(fox_derivatives(word)) + GroupRingElement.one(word.rank)
        return expanded == GroupRingElement.from_word(word)

    def test_fox_identity_seeded(self):
        rng = random.Random(0)
        for _ in range(200):
            rank = rng.randint(1, 5)
            assert self.fox_identity_holds(random_word(rng, rank, 8))

    def test_product_rule(self):
        rng = random.Random(1)
        for _ in range(40):
            rank = rng.randint(1, 4)
            u, v = random_word(rng, rank, 5), random_word(rng, rank, 5)
            product = fox_derivatives(u * v)
            du, dv = fox_derivatives(u), fox_derivatives(v)
            for i in range(rank):
                assert product.coords[i] == du.coords[i].right_mul_word(v) + dv.coords[i]


class TestMaps:
    def test_apply_functorial(self):
        rng = random.Random(2)
        phi = FreeGroupMap(3, 3, [random_word(rng, 3, 4) for _ in range(3)])
        psi = artin_generator_map(3, 2)
        composed = psi.compose(phi)
        for _ in range(10):
            word = random_word(rng, 3, 5)
            assert composed.apply_word(word) == psi.apply_word(phi.apply_word(word))
        ring = GroupRingElement(3, {random_word(rng, 3, 3): ONE, random_word(rng, 3, 2): -ONE})
        assert apply_ring(composed, ring) == apply_ring(psi, apply_ring(phi, ring))
        aug = fox_derivatives(random_word(rng, 3, 5))
        assert apply_aug(composed, aug) == apply_aug(psi, apply_aug(phi, aug))

    def test_aug_reexpansion_examples(self):
        n, i = 3, 1
        a = artin_generator_map(n, i)
        basis = lambda j: AugIdealElement(
            n,
            [GroupRingElement.one(n) if k == j else GroupRingElement.zero(n) for k in range(1, n + 1)],
        )
        # (g_i - 1) maps to (g_{i+1} - 1) * 1.
        assert apply_aug(a, basis(i)) == basis(i + 1)
        # (g_{i+1} - 1) maps to (g_i - 1) g_{i+1} + (g_{i+1} - 1)(1 - g2^-1 g1 g2).
        image = apply_aug(a, basis(i + 1))
        g2 = GroupRingElement.from_word(FreeWord.generator(n, 2))
        conj = GroupRingElement.from_word(w("g2^-1*g1*g2", 3))
        assert image.coords[0] == g2
        assert image.coords[1] == GroupRingElement.one(n) - conj
        assert image.coords[2].is_zero()

    def test_identity_map(self):
        ident = FreeGroupMap.identity(3)
        word = w("g1*g3^-2", 3)
        assert ident.apply_word(word) == word

    def test_inclusions(self):
        # The last-copies identification is shifted(k, n + k), the
        # first-copies one shifted(0, n + k).
        assert FreeWord.generator(2, 1).shifted(3, 5) == FreeWord.generator(5, 4)
        assert FreeWord.generator(2, 2).shifted(3, 5) == FreeWord.generator(5, 5)
        assert FreeWord.generator(2, 1).shifted(0, 5) == FreeWord.generator(5, 1)
        word = w("g1*g3^-2*g2", 3)
        assert word.shifted(0, 3) == word


class TestArtin:
    def test_generator_images(self):
        a = artin_generator_map(3, 1)
        assert [str(img) for img in a.images] == ["g2", "g2^-1*g1*g2", "g3"]

    def test_inverse_letter(self):
        a = artin_generator_map(4, 2)
        assert a.compose(artin_generator_map(4, -2)).is_identity()

    def test_braid_relation_derived(self):
        # Compute both composite maps and compare reduced generator images.
        a1, a2 = artin_generator_map(3, 1), artin_generator_map(3, 2)
        assert a1.compose(a2).compose(a1) == a2.compose(a1).compose(a2)

    def test_relations_through_rank_six(self):
        for n in range(2, 7):
            for i in range(1, n - 1):
                a, b = artin_generator_map(n, i), artin_generator_map(n, i + 1)
                assert a.compose(b).compose(a) == b.compose(a).compose(b)
            for i in range(1, n):
                for j in range(i + 2, n):
                    a, b = artin_generator_map(n, i), artin_generator_map(n, j)
                    assert a.compose(b) == b.compose(a)


class TestWada:
    def test_kind_two_is_identity(self):
        assert wada_generator_map(4, 2, 2).is_identity()

    def test_kind_one_unit_parameter_is_artin(self):
        for n in range(2, 5):
            for i in range(1, n):
                assert wada_generator_map(n, i, 1, 1) == artin_generator_map(n, i)

    def test_kind_four_pair(self):
        # The half-twist type; the conjugated variant printed in some
        # sources fails the braid relation; the instantiation check rejects it.
        pair = wada_pair(4)
        assert (str(pair.w), str(pair.v)) == ("g2", "g2*g1^-1*g2")

    def test_all_kinds_satisfy_relations(self):
        for kind in range(1, 8):
            for n in range(2, 7):
                for i in range(1, n - 1):
                    a = wada_generator_map(n, i, kind)
                    b = wada_generator_map(n, i + 1, kind)
                    assert a.compose(b).compose(a) == b.compose(a).compose(b), (kind, n, i)
                for i in range(1, n):
                    assert wada_generator_map(n, i, kind).compose(
                        wada_generator_map(n, -i, kind)
                    ).is_identity()
                    for j in range(i + 2, n):
                        a = wada_generator_map(n, i, kind)
                        b = wada_generator_map(n, j, kind)
                        assert a.compose(b) == b.compose(a)

    def test_stored_inverses_are_the_search_output(self):
        # Where the stored inverses of kinds 2-7 came from: invert_map's
        # bounded search finds exactly each one.
        for kind, (pair, inverse) in _WADA_TABLE.items():
            found = invert_map(FreeGroupMap(2, 2, [pair.w, pair.v]))
            assert found == FreeGroupMap(2, 2, [inverse.w, inverse.v]), kind

    def test_invert_map_failure_bound(self):
        # g1 -> g1^2 is injective but not invertible; the search must fail.
        phi = FreeGroupMap(1, 1, [w("g1^2", 1)])
        assert invert_map(phi, search_bound=5) is None

    def test_invert_map_has_one_candidate(self):
        # For the stored pairs (kinds 2-7, kind 1 at m in [-3, 3]) and their
        # pairwise composites: every reduced word of length <= the stored
        # inverse's longest image that maps to gi^{±1} is the same preimage,
        # so exactly one image tuple is certified, and invert_map returns
        # it.  Maps whose inverse is longer than the bound are not found.
        bound = 5
        cases = [(k, 1) for k in range(2, 8)] + [(1, m) for m in range(-3, 4)]
        maps = [(wada_generator_map(2, 1, k, m), wada_generator_map(2, -1, k, m)) for k, m in cases]
        maps += [(a.compose(b), b_inv.compose(a_inv)) for a, a_inv in maps for b, b_inv in maps]
        found_within_bound = 0
        for phi, inv in maps:
            length = max(image.length() for image in inv.images)
            if length > bound:
                assert invert_map(phi, search_bound=bound) is None
                continue
            found_within_bound += 1
            candidates = [set(), set()]
            for letters in reduced_words(2, length):
                word = FreeWord(2, tuple((abs(l), 1 if l > 0 else -1) for l in letters))
                image = phi.apply_word(word)
                if image.length() == 1:
                    gen, exp = image.syllables[0]
                    candidates[gen - 1].add(word if exp == 1 else word.inverse())
            certified = [
                psi
                for psi in (FreeGroupMap(2, 2, list(imgs)) for imgs in itertools.product(*candidates))
                if psi.compose(phi).is_identity() and phi.compose(psi).is_identity()
            ]
            assert [len(c) for c in candidates] == [1, 1]
            assert certified == [inv]
            assert invert_map(phi, search_bound=length) == inv
        assert (len(maps), found_within_bound) == (182, 104)

    def test_stored_pairs_compose_to_the_identity_both_ways(self):
        # Every stored inverse pair composes to the identity both ways on
        # the rank-2 map.
        cases = [(kind, 1) for kind in range(1, 8)] + [(1, m) for m in range(-5, 6)]
        for kind, m in cases:
            pos = wada_generator_map(2, 1, kind, m)
            neg = wada_generator_map(2, -1, kind, m)
            assert pos.compose(neg).is_identity(), (kind, m)
            assert neg.compose(pos).is_identity(), (kind, m)

    def test_generator_maps_are_stored(self):
        assert artin_generator_map(4, -2) is wada_generator_map(4, -2, 1)
        assert wada_generator_map(4, 3, 7) is wada_generator_map(4, 3, 7)
        assert wada_generator_map(3, 1, 1, -3) is wada_generator_map(3, 1, 1, -3)
        assert wada_generator_map.cache_info().maxsize is not None

    def test_bad_letters_raise_on_every_call(self):
        # Exceptions are not stored: a bad letter raises again each time.
        for _ in range(2):
            with pytest.raises(FreeGroupError):
                artin_generator_map(3, 3)
            with pytest.raises(FreeGroupError):
                wada_generator_map(3, -3, 4)
            with pytest.raises(FreeGroupError):
                wada_generator_map(3, 1, 8)

    def test_reduced_words_order(self):
        assert list(reduced_words(1, 2)) == [(), (1,), (-1,), (1, 1), (-1, -1)]
        words = list(reduced_words(2, 3))
        assert len(words) == 1 + 4 + 12 + 36
        assert words[1:5] == [(1,), (-1,), (2,), (-2,)]


class TestCompatibility:
    def test_action_commutes_with_inclusion(self):
        # The last-copies identification gi -> g(i+k) intertwines the action
        # at level n with the action of the shifted word at level n+k, on
        # generators.
        rng = random.Random(3)
        for family in (
            lambda n, letter: artin_generator_map(n, letter),
            lambda n, letter: wada_generator_map(n, letter, 5),
        ):
            for n in range(2, 5):
                for n2 in range(n, 6):
                    k = n2 - n
                    for _ in range(6):
                        letters = [
                            rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(3)
                        ]
                        amap = FreeGroupMap.identity(n)
                        shifted = FreeGroupMap.identity(n2)
                        for letter in letters:
                            amap = amap.compose(family(n, letter))
                            sign = 1 if letter > 0 else -1
                            shifted = shifted.compose(family(n2, sign * (abs(letter) + k)))
                        for i in range(1, n + 1):
                            lhs = amap.apply_word(FreeWord.generator(n, i)).shifted(k, n2)
                            rhs = shifted.apply_word(FreeWord.generator(n2, i + k))
                            assert lhs == rhs
