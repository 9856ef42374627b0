import functools
import hashlib
import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from lmkit.cli import parse_functor
from lmkit import laurent
from lmkit.laurent import ONE, ZERO, LaurentError, PolyMatrix, Q, T, seeded_points
from lmkit.freegroup import FreeWord, GroupRingElement, parse_word
from lmkit.braidcat import (
    BracketMorphism,
    BraidWord,
    bracket_monoidal,
    lk_index,
    pure_braid_system,
    trivial_system,
)
from lmkit.memo import MEMO_CAP
from lmkit.polyfun import difference, resolution, unit_line_equivalence
from lmkit.repfun import (
    BraidFunctor,
    FunctorError,
    NaturalMap,
    SplitData,
    atomic_functor,
    builtin,
    burau_functor,
    check_functor,
    check_natural,
    constant_functor,
    corrupted,
    direct_sum,
    group_ring_matrix,
    lk_functor,
    partial_permutation_split,
    power_functor,
    reduced_burau_functor,
    scalar_twist,
    split_at_rows,
    t1_functor,
    tensor,
    translate,
)

from display_fixtures import oriented
from reference_kernels import enumerate_words, full_check_functor, full_check_natural


ALL_BUILTINS = [
    ("burau", {}),
    ("reduced-burau", {}),
    ("tym", {}),
    ("lk", {}),
    ("constant", {}),
    ("t1", {}),
    ("atomic", {"k": 2}),
    ("e", {"l": 2}),
]


class TestDimensions:
    def test_dims(self):
        assert [builtin("burau").dim(n) for n in range(4)] == [0, 1, 2, 3]
        assert [builtin("reduced-burau").dim(n) for n in range(4)] == [0, 0, 1, 2]
        assert builtin("lk").dim(4) == 6
        assert builtin("atomic", k=2).dim(2) == 1 and builtin("atomic", k=2).dim(3) == 0
        assert [builtin("t1").dim(n) for n in range(3)] == [0, 1, 1]
        assert builtin("e", l=2).dim(3) == 9

    def test_range_guard(self):
        f = builtin("burau")
        with pytest.raises(FunctorError):
            f.dim(f.eval_range + 1)


class TestStoredBlocks:
    def test_burau_orientation(self):
        assert builtin("burau").gen_matrix(2, 1) == oriented("burau-block")

    def test_tym_orientation(self):
        assert builtin("tym").gen_matrix(2, 1) == oriented("tym-block")

    def test_reduced_burau_orientation(self):
        f = builtin("reduced-burau")
        assert f.gen_matrix(2, 1) == PolyMatrix.from_rows([[-T]])
        assert f.gen_matrix(3, 1) == oriented("reduced-burau-bottom")
        assert f.gen_matrix(3, 2) == oriented("reduced-burau-top")
        assert f.gen_matrix(4, 2) == PolyMatrix.identity(0).direct_sum(
            oriented("reduced-burau-middle")
        )

    def test_lk_action_values(self):
        lk = builtin("lk")
        m = lk.gen_matrix(4, 2)
        pairs = [(j, k) for j in range(1, 5) for k in range(j + 1, 5)]
        idx = {p: i for i, p in enumerate(pairs)}
        # The double case: s_i v_{i,i+1} = -q t^2 v_{i,i+1}.
        assert m.entry(idx[(2, 3)], idx[(2, 3)]) == -Q * T * T
        # i = j: s_2 v_{2,4} = v_{3,4}.
        assert m.entry(idx[(3, 4)], idx[(2, 4)]) == ONE
        # i = k: s_2 v_{1,2} = v_{1,3}.
        assert m.entry(idx[(1, 3)], idx[(1, 2)]) == ONE
        # untouched: s_2 v_{1,4} = v_{1,4}.
        assert m.entry(idx[(1, 4)], idx[(1, 4)]) == ONE
        # i = j - 1: s_2 v_{3,4} = t v_{2,4} + (t^2-t) v_{2,3} + (1-t) v_{3,4}.
        col = idx[(3, 4)]
        assert m.entry(idx[(2, 4)], col) == T
        assert m.entry(idx[(2, 3)], col) == T * T - T
        assert m.entry(idx[(3, 4)], col) == ONE - T

    # sha256 of the JSON {"n:letter": to_strings()} of gen_matrix(n, ±i),
    # 2 <= n <= 4.  emit prints only the letters s_i, so these are the pins
    # of the stored closed-form inverse blocks and of the Lawrence-Krammer
    # table that the braid oracle reads too.
    SIGNED_LETTER_DIGESTS = {
        "burau": "83c712d84f2fdb998371e7bf1e525575ec82d776eeadc9b2ddb19f364ed12e0e",
        "tym": "4da462f300d0b80f1991633aee576e685e7d9a0d2573334ef0cec1a7416dc4db",
        "reduced-burau": "b6512a4b8e209d93340d7d8536fdeec84810fcbf13604ef98b61dcaab0a525e7",
        "lk": "3f9de0c51158badc1aba5c6d2b40d64b3b0a168a33777e5a07b721c4fa0500c4",
    }

    @pytest.mark.parametrize("name", sorted(SIGNED_LETTER_DIGESTS))
    def test_both_letter_signs_are_pinned(self, name):
        f = builtin(name)
        table = {
            f"{n}:{letter}": f.gen_matrix(n, letter).to_strings()
            for n in range(2, 5)
            for i in range(1, n)
            for letter in (i, -i)
        }
        digest = hashlib.sha256(json.dumps(table, sort_keys=True).encode()).hexdigest()
        assert digest == self.SIGNED_LETTER_DIGESTS[name]

    def test_stab_is_index_shift(self):
        lk = builtin("lk")
        s = lk.stab(2, 4)
        pairs4 = [(j, k) for j in range(1, 5) for k in range(j + 1, 5)]
        assert s.entry(pairs4.index((3, 4)), 0) == ONE
        assert s.rows == 6 and s.cols == 1

    @pytest.mark.parametrize("n", range(0, 13))
    def test_lk_stab_is_the_last_coordinates_inclusion(self, n):
        # v_{j,k} -> v_{j+1,k+1}, placed pair by pair, is the inclusion of
        # level n as the last coordinates of level n+1.
        idx2 = lk_index(n + 1)[1]
        shifted = {(idx2[(j + 1, k + 1)], c): ONE for c, (j, k) in enumerate(lk_index(n)[0])}
        d, d2 = n * (n - 1) // 2, (n + 1) * n // 2
        last = {(d2 - d + c, c): ONE for c in range(d)}
        assert shifted == last
        assert lk_functor().stab(n, n + 1) == PolyMatrix(d2, d, shifted)


def hand_placed_reduced_burau(param, n, letter):
    """Reduced Burau's letter as four hand-placed blocks (single, bottom,
    middle, top) for the moving row [a, -u, b], the reference for the one
    cut 3x3 block."""
    y, y_inv = param, param.unit_inverse()
    a, u, b = (y, y, ONE) if letter > 0 else (ONE, y_inv, y_inv)
    i = abs(letter)

    def placed(offset, block):
        rest = PolyMatrix.identity(n - 1 - offset - block.rows)
        return PolyMatrix.identity(offset).direct_sum(block).direct_sum(rest)

    if n == 2:
        return PolyMatrix.from_rows([[-u]])
    if i == 1:
        return placed(0, PolyMatrix.from_rows([[-u, b], [ZERO, ONE]]))
    if i == n - 1:
        return placed(n - 3, PolyMatrix.from_rows([[ONE, ZERO], [a, -u]]))
    return placed(i - 2, PolyMatrix.from_rows([[ONE, ZERO, ZERO], [a, -u, b], [ZERO, ZERO, ONE]]))


@pytest.mark.parametrize("param", [T, T * T, -T.unit_inverse()], ids=["t", "t^2", "-t^-1"])
def test_reduced_burau_letters_are_the_hand_placed_blocks(param):
    f = reduced_burau_functor(param)
    for n in range(2, 9):
        for i in range(1, n):
            for letter in (i, -i):
                assert f.gen_matrix(n, letter) == hand_placed_reduced_burau(param, n, letter)


class TestEvaluation:
    def test_identity_morphism(self):
        f = builtin("tym")
        assert f.apply(BracketMorphism.identity(3)) == PolyMatrix.identity(3)

    def test_stabilization_is_last_coordinates(self):
        f = builtin("tym")
        m = f.apply(BracketMorphism.stabilization(2, 3))
        assert m == PolyMatrix(3, 2, {(1, 0): ONE, (2, 1): ONE})

    def test_burau_generator_value(self):
        # The stored value is the display up to the recorded orientation.
        f = builtin("burau")
        got = f.apply(BracketMorphism.from_braid(BraidWord(2, (1,))))
        assert got == oriented("burau-block")

    def test_word_matrix_multiplicative(self):
        f = builtin("lk")
        rng = random.Random(0)
        for _ in range(6):
            n = rng.randint(2, 4)
            u = BraidWord(n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(3)))
            v = BraidWord(n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(3)))
            assert f.word_matrix(u.compose(v)) == f.word_matrix(u).matmul(f.word_matrix(v))

    def test_word_matrix_starts_from_the_first_letter(self):
        f = builtin("burau")
        assert f.word_matrix(BraidWord(3, (2,))) is f.gen_matrix(3, 2)
        assert f.word_matrix(BraidWord.identity(3)) == PolyMatrix.identity(3)
        f.eval_range = 3
        with pytest.raises(FunctorError, match="^burau: level 5 beyond evaluation range 3$"):
            f.word_matrix(BraidWord(5, (4, -1)))

    def test_apply_respects_composition(self):
        rng = random.Random(1)
        f = builtin("burau")
        for _ in range(8):
            n0 = rng.randint(0, 2)
            n1 = n0 + rng.randint(0, 2)
            n2 = n1 + rng.randint(0, 2)

            def arb(a, b):
                letters = tuple(
                    rng.choice([1, -1]) * rng.randint(1, b - 1)
                    for _ in range(rng.randint(0, 3))
                ) if b >= 2 else ()
                return BracketMorphism(a, b, BraidWord(b, letters))

            lo, hi = arb(n0, n1), arb(n1, n2)
            from lmkit.braidcat import bracket_compose

            assert f.apply(bracket_compose(hi, lo)) == f.apply(hi).matmul(f.apply(lo))


class TestCriterion:
    @pytest.mark.parametrize("name,kw", ALL_BUILTINS)
    def test_builtins_pass(self, name, kw):
        report = check_functor(builtin(name, **kw), 4, 2)
        assert report.passed, report.failures[:3]

    def test_corruption_detected_with_witness(self):
        bad = corrupted(builtin("burau"), 3, 1, 0, 0, ONE)
        report = check_functor(bad, 4, 2)
        assert not report.passed
        witness = report.failures[0]
        assert witness["n"] == 3

    def test_constant_passes_any_range(self):
        assert check_functor(builtin("constant"), 6, 2).passed


def all_words_functor_failures(f, big_n, word_len):
    """Reference for check_functor: the loop over every n <= n' in the same
    order, with the intertwining identities on every word up to word_len
    and the psi identity on every passing word.  A letter with no inverse over the ring
    is an inverse failure, and words that need that inverse are skipped."""
    for n in range(2, big_n + 1):
        for i in range(1, n - 1):
            a, b = f.gen_matrix(n, i), f.gen_matrix(n, i + 1)
            if a.matmul(b).matmul(a) != b.matmul(a).matmul(b):
                yield {"kind": "braid-relation", "n": n, "i": i}
        for i in range(1, n):
            for j in range(i + 2, n):
                a, b = f.gen_matrix(n, i), f.gen_matrix(n, j)
                if a.matmul(b) != b.matmul(a):
                    yield {"kind": "commutation", "n": n, "i": i, "j": j}
            try:
                inverse = f.gen_matrix(n, -i)
            except LaurentError as exc:
                yield {"kind": "inverse", "n": n, "i": i, "error": str(exc)}
                continue
            if f.gen_matrix(n, i).matmul(inverse) != PolyMatrix.identity(f.dim(n)):
                yield {"kind": "inverse", "n": n, "i": i}
    for n in range(big_n + 1):
        for n1 in range(n, big_n + 1):
            for n2 in range(n1, big_n + 1):
                if f.stab(n1, n2).matmul(f.stab(n, n1)) != f.stab(n, n2):
                    yield {"kind": "stab-composition", "n": n, "mid": n1, "top": n2}
    for n in range(big_n + 1):
        for n2 in range(n, big_n + 1):
            stab, k = f.stab(n, n2), n2 - n
            passing = []
            for sigma in enumerate_words(n, word_len):
                try:
                    lhs = stab.matmul(f.word_matrix(sigma))
                    rhs = f.word_matrix(sigma.shift(k, n2)).matmul(stab)
                except LaurentError:
                    continue
                if lhs != rhs:
                    yield {"kind": "intertwining", "n": n, "n2": n2,
                           "word": list(sigma.letters), "psi": []}
                else:
                    passing.append((sigma, lhs))
            for psi in enumerate_words(k, word_len)[1:]:
                try:
                    m_psi = f.word_matrix(psi.monoidal(BraidWord.identity(n)))
                except LaurentError:
                    continue
                for sigma, lhs in passing:
                    if m_psi.matmul(lhs) != lhs:
                        yield {"kind": "intertwining", "n": n, "n2": n2,
                               "word": list(sigma.letters), "psi": list(psi.letters)}


def functor_outcomes(f, big_n, word_len):
    """(passed, first witness) of check_functor and of the reference.
    Neither may raise: a singular letter is an inverse failure on both."""
    letters = check_functor(f, big_n, word_len).failures
    words = list(all_words_functor_failures(f, big_n, word_len))[:1]
    return [(not failures, failures[0] if failures else None) for failures in (letters, words)]


@functools.cache
def reference_functor(spec):
    return parse_functor(spec)


class TestCriterionOnLetters:
    @pytest.mark.parametrize("word_len", [0, 1, 2, 3])
    @pytest.mark.parametrize("big_n", [3, 4])
    @pytest.mark.parametrize(
        "spec",
        [
            "burau",
            "tym",
            "reduced-burau",
            "lk",
            "tensor(burau; tym)",
            "lm(artin,pure-braid; burau)",
            # Fails only the psi identity: mat(psi # id) * stab = t * stab.
            "twist(t; burau)",
        ],
    )
    def test_letters_match_all_words(self, spec, big_n, word_len):
        f = reference_functor(spec)
        letters, words = functor_outcomes(f, big_n, word_len)
        assert letters == words, spec

    @settings(max_examples=30, deadline=None)
    @given(
        base=st.sampled_from(["burau", "tym", "lk"]),
        level=st.integers(2, 4),
        data=st.data(),
        delta=st.sampled_from([ONE, -ONE, T, T.unit_inverse(), Q, ONE + T]),
    )
    def test_corruptions_match_all_words(self, base, level, data, delta):
        f = reference_functor(base)
        i = data.draw(st.integers(1, level - 1), label="generator")
        r = data.draw(st.integers(0, f.dim(level) - 1), label="row")
        c = data.draw(st.integers(0, f.dim(level) - 1), label="column")
        bad = corrupted(f, level, i, r, c, delta)
        letters, words = functor_outcomes(bad, 4, 2)
        assert letters == words

    @pytest.mark.parametrize("word_len", [1, 2, 3])
    def test_corrupted_burau_count_is_pinned(self, word_len):
        # Criterion 2's corruption: the one-step count does not grow with L.
        report = check_functor(corrupted(builtin("burau"), 4, 2, 1, 1, T), 5, word_len)
        assert report.checked == 40
        assert report.failures[0] == {"kind": "braid-relation", "n": 4, "i": 1}

    def test_singular_letter_is_an_inverse_failure(self):
        # (1,1) of s1 at level 2 shifted by 1 + t: det = 1 - t - t^2, no
        # inverse over the ring; reported, not raised, and the checks that
        # need s1^-1 at level 2 are skipped.
        bad = corrupted(builtin("burau"), 2, 1, 1, 1, ONE + T)
        report = check_functor(bad, 4, 1)
        assert report.failures[0] == {
            "kind": "inverse",
            "n": 2,
            "i": 1,
            "error": "determinant 1 - t - t^2 is not a unit; no inverse over the ring",
        }
        assert report.to_json()["checked"] == 20

    def test_singular_inverse_letter_keeps_its_witness(self):
        # Burau with s1^-1 at level 3 alone singular: the inverse pair at
        # (3, 1) is the one failure, and it carries the error.
        b = burau_functor()

        def gen(n, letter):
            if (n, letter) == (3, -1):
                return b.gen_matrix(3, 1).scale(ONE + T).inverse()
            return b.gen_matrix(n, letter)

        f = BraidFunctor("singular", b.dim, gen, lambda n: b.stab(n, n + 1))
        report = check_functor(f, 5, 1).to_json()
        assert (report["checked"], report["failure_count"]) == (38, 1)
        assert report["witness"] == {
            "kind": "inverse", "n": 3, "i": 1,
            "error": "determinant -t - 3*t^2 - 3*t^3 - t^4 is not a unit; no inverse over the ring",
        }

    def test_singular_positive_letter_fails_its_first_relation(self):
        # A LaurentError from any letter of a relation is that relation's
        # failure: here s1 at level 3, read first by the braid relation.
        b = burau_functor()

        def gen(n, letter):
            if (n, letter) == (3, 1):
                raise LaurentError("no s1")
            return b.gen_matrix(n, letter)

        f = BraidFunctor("raising", b.dim, gen, lambda n: b.stab(n, n + 1))
        failures = check_functor(f, 3, 0).failures
        assert failures == [
            {"kind": "braid-relation", "n": 3, "i": 1, "error": "no s1"},
            {"kind": "inverse", "n": 3, "i": 1, "error": "no s1"},
        ]

    def test_one_far_commutation_fails_alone(self):
        # s3^{±1} at level 4 conjugated by s2 keeps the braid relations and
        # the inverse pairs but no longer commutes with s1.
        b = burau_functor()

        def gen(n, letter):
            if n == 4 and abs(letter) == 3:
                conj = b.gen_matrix(4, 2).matmul(b.gen_matrix(4, letter))
                return conj.matmul(b.gen_matrix(4, -2))
            return b.gen_matrix(n, letter)

        f = BraidFunctor("conjugated", b.dim, gen, lambda n: b.stab(n, n + 1))
        assert check_functor(f, 5, 0).failures == [{"kind": "commutation", "n": 4, "i": 1, "j": 3}]

    def test_singular_letter_is_eliminated_once(self, monkeypatch):
        # The failed inversion of s1 at level 2 is memoized like a success
        # and raised again, so no later check repeats the elimination.
        inverted = []
        inverse = PolyMatrix.inverse
        monkeypatch.setattr(PolyMatrix, "inverse", lambda m: inverted.append(m) or inverse(m))
        bad = corrupted(builtin("burau"), 2, 1, 1, 1, ONE + T)
        report = check_functor(bad, 5, 1).to_json()
        error = "determinant 1 - t - t^2 is not a unit; no inverse over the ring"
        assert report == {
            "check": "functor-criterion",
            "checked": 38,
            "failure_count": 2,
            "range": {"L": 1, "N": 5, "functor": "corrupted(burau)"},
            "verdict": "fail",
            "witness": {"error": error, "i": 1, "kind": "inverse", "n": 2},
        }
        assert len(inverted) <= 10
        assert sum(m == bad.gen_matrix(2, 1) for m in inverted) == 1
        with pytest.raises(LaurentError, match=re.escape(error)):
            bad.gen_matrix(2, -1)
        assert sum(m == bad.gen_matrix(2, 1) for m in inverted) == 1


def swapped_stabilization(f, m):
    """f with its one-step stabilization m -> m+1 followed by swapping
    coordinates 0 and 1 of level m + 1."""
    d = f.dim(m + 1)
    swap = PolyMatrix(d, d, {(r, {0: 1, 1: 0}.get(r, r)): ONE for r in range(d)})
    return BraidFunctor(
        f"swapped({m}; {f.name})",
        f.dim,
        f.gen_matrix,
        lambda n: swap.matmul(f.stab(n, n + 1)) if n == m else f.stab(n, n + 1),
    )


def assert_reduced_matches_full(reduced, full):
    """Same verdict and first witness; the reduced checks are a subsequence
    of the full ones, run in the same order, so their failures are too."""
    assert (reduced.passed, reduced.failures[:1]) == (full.passed, full.failures[:1])
    rest = iter(full.failures)
    assert all(w in rest for w in reduced.failures)
    assert reduced.checked <= full.checked


REDUCED_GRID = (
    [(spec, reference_functor(spec)) for spec in (
        "burau", "reduced-burau", "tym", "lk", "constant", "t1", "atomic(2)", "e(2)", "zero",
        "twist(t;burau)",
        "lm(wada3,pure-braid;burau)",
        "tau(1;lm(wada3,pure-braid;burau))",
        "lm(wada5,pure-braid;tym)",
    )]
    + [
        (f"corrupted({base}) at {level}", corrupted(reference_functor(base), level, 1, 0, 0, T))
        for base in ("burau", "tym", "lk")
        for level in (2, 3, 4, 5)
    ]
    + [
        (f"swapped({base}) at {m}", swapped_stabilization(reference_functor(base), m))
        for base in ("burau", "tym", "reduced-burau")
        for m in (1, 2, 3, 4)
        if reference_functor(base).dim(m + 1) >= 2
    ]
)


class TestReducedCriterion:
    """check_functor decides on one-step letters and two-strand psi; the
    full loop over every n <= n' is tests/reference_kernels.py's."""

    @pytest.mark.parametrize("word_len", [0, 1])
    @pytest.mark.parametrize("name,f", REDUCED_GRID, ids=[name for name, _ in REDUCED_GRID])
    def test_reduced_matches_full(self, name, f, word_len):
        assert_reduced_matches_full(check_functor(f, 5, word_len), full_check_functor(f, 5, word_len))

    @settings(max_examples=30, deadline=None)
    @given(
        base=st.sampled_from(["burau", "tym", "lk"]),
        level=st.integers(2, 4),
        data=st.data(),
        delta=st.sampled_from([ONE, -ONE, T, T.unit_inverse(), Q, ONE + T]),
    )
    def test_corruptions_match_full(self, base, level, data, delta):
        f = reference_functor(base)
        i = data.draw(st.integers(1, level - 1), label="generator")
        r = data.draw(st.integers(0, f.dim(level) - 1), label="row")
        c = data.draw(st.integers(0, f.dim(level) - 1), label="column")
        bad = corrupted(f, level, i, r, c, delta)
        assert_reduced_matches_full(check_functor(bad, 4, 2), full_check_functor(bad, 4, 2))

    def test_two_strand_psi_check_is_needed(self):
        # Swapping after stab(1, 2) leaves every one-step letter square
        # intact (level 1 has no letters); only s1^{±1} on the two added
        # strands of stab(1, 3) sees it.  Without the k = 2 checks this
        # would pass.
        report = check_functor(swapped_stabilization(builtin("burau"), 1), 5, 1)
        assert report.failures == [
            {"kind": "intertwining", "n": 1, "n2": 3, "word": [], "psi": [letter]}
            for letter in (1, -1)
        ]

    def test_word_length_zero_checks_relations_only(self):
        report = check_functor(swapped_stabilization(builtin("burau"), 1), 5, 0)
        assert report.passed and report.checked == 20

    def test_builds_no_long_stabilization_and_pins_the_products(self, monkeypatch):
        # A re-added loop over n' - n >= 3, or over the identities the
        # composition proves, shows up here as a longer stabilization or
        # more products.
        products = []
        matmul = PolyMatrix.matmul
        monkeypatch.setattr(PolyMatrix, "matmul", lambda a, b: products.append(1) or matmul(a, b))
        f = burau_functor()
        assert check_functor(f, 5, 3).checked == 40
        assert max(n2 - n for n, n2 in f._stabs) == 2
        # 42 for the relations (6 braid relations of 4 products, 4
        # commutations of 2, 10 inverses of 1), 24 for the 12 one-step
        # letter squares, 8 for the psi checks and 4 for the composites
        # stab(n, n + 2).
        assert len(products) == 78


SIGNED_LETTER_SPECS = [
    f"{family}({y})" for family in ("burau", "reduced-burau", "tym") for y in ("t", "t^2", "-1")
] + [
    "lk", "constant", "t1", "atomic(2)", "e(2)", "zero",
    "sum(burau; lk)", "tensor(reduced-burau; tym(-1))",
    "tau(1; reduced-burau(t^2))", "tau(2; burau)", "twist(t^-1; tym)",
    "lm(artin,pure-braid; burau)", "lm(wada3,trivial,t,t^-1; reduced-burau)",
]


def assert_signed_letters_inverse(f, top=5):
    """Reference: each negative letter is the inverse of the positive one,
    computed by elimination."""
    for n in range(2, min(top, f.eval_range) + 1):
        for i in range(1, n):
            assert f.gen_matrix(n, -i) == f.gen_matrix(n, i).inverse(), (f.name, n, i)


class TestSignedLetterRules:
    @pytest.mark.parametrize("spec", SIGNED_LETTER_SPECS)
    def test_negative_letter_is_the_inverse(self, spec):
        assert_signed_letters_inverse(parse_functor(spec))

    def test_corrupted_unit_bump(self):
        # s1 at level 3 gains t below its block; det stays -t, so the
        # bumped letter and its stated inverse are both defined.
        bad = corrupted(builtin("burau"), 3, 1, 2, 0, T)
        assert bad.gen_matrix(3, 1) != builtin("burau").gen_matrix(3, 1)
        assert_signed_letters_inverse(bad)

    def test_wrong_inverse_letter_is_a_witness(self):
        f = builtin("burau")
        wrong = BraidFunctor(
            "wrong-inverse",
            f.dim,
            lambda n, i: f.gen_matrix(n, 1 if i == -1 else i),
            lambda n: f.stab(n, n + 1),
        )
        failures = check_functor(wrong, 4, 1).failures
        assert failures[0] == {"kind": "inverse", "n": 2, "i": 1}
        inverse = [w for w in failures if w["kind"] == "inverse"]
        assert inverse == [{"kind": "inverse", "n": n, "i": 1} for n in (2, 3, 4)]


class TestNatural:
    def test_identity_passes(self):
        f = builtin("burau")
        eta = NaturalMap(f, f, lambda n: PolyMatrix.identity(f.dim(n)), "id")
        assert check_natural(eta, 4).passed

    def test_random_map_fails_with_witness(self):
        f = builtin("burau")
        eta = NaturalMap(
            f, f, lambda n: PolyMatrix(f.dim(n), f.dim(n), {(r, 0): ONE for r in range(f.dim(n))}), "junk"
        )
        report = check_natural(eta, 3)
        assert not report.passed and report.failures

    @staticmethod
    def unit_line_maps():
        d1 = difference(reduced_burau_functor(), 8)
        yield unit_line_equivalence(d1, t1_functor(), 6), 6
        yield unit_line_equivalence(difference(d1, 6), atomic_functor(0), 5), 5
        yield unit_line_equivalence(difference(atomic_functor(3), 5), atomic_functor(2), 4), 4
        for k, j in ((1, 2), (1, 3), (2, 3)):
            yield unit_line_equivalence(translate(atomic_functor(j), k), atomic_functor(j - k), 4), 4

    def test_unit_line_equivalences_match_full(self):
        for eta, big_n in self.unit_line_maps():
            assert eta is not None
            reduced, full = check_natural(eta, big_n), full_check_natural(eta, big_n)
            assert reduced.passed
            assert_reduced_matches_full(reduced, full)
            assert reduced.checked == full.checked - big_n * (big_n + 1) // 2 - 1

    @pytest.mark.parametrize("big_n", [3, 5])
    def test_scaled_coordinate_matches_full(self, big_n):
        # Not natural: coordinate 0 scaled by t at every level.
        f = builtin("burau")

        def component(n):
            return PolyMatrix(f.dim(n), f.dim(n), {(r, r): T if r == 0 else ONE for r in range(f.dim(n))})

        eta = NaturalMap(f, f, component, "scale-coordinate-0")
        reduced = check_natural(eta, big_n)
        assert reduced.failures[0] == {"kind": "stabilization", "n": 1, "n2": 2}
        assert_reduced_matches_full(reduced, full_check_natural(eta, big_n))

    def test_scaled_level_fails_on_the_one_step_square(self):
        # Level 3 scaled by t: the verdict is the same, but the full loop's
        # first witness is the composite square 1 -> 3, which the reduced
        # check decides through the one-step square 2 -> 3 it pastes from.
        f = builtin("burau")
        eta = NaturalMap(
            f, f, lambda n: PolyMatrix.identity(f.dim(n)).scale(T if n == 3 else ONE), "scale-level-3"
        )
        reduced, full = check_natural(eta, 5), full_check_natural(eta, 5)
        assert reduced.failures == [
            {"kind": "stabilization", "n": 2, "n2": 3},
            {"kind": "stabilization", "n": 3, "n2": 4},
        ]
        assert full.failures[0] == {"kind": "stabilization", "n": 1, "n2": 3}
        assert all(w in full.failures for w in reduced.failures)


class TestCombinators:
    def test_scalar_twist_generators(self):
        t_x = scalar_twist(constant_functor(), T)
        assert t_x.gen_matrix(3, 2) == PolyMatrix.from_rows([[T]])
        assert t_x.gen_matrix(3, -2) == PolyMatrix.from_rows([[T.unit_inverse()]])
        assert t_x.stab(1, 3) == PolyMatrix.from_rows([[ONE]])

    def test_translate_dimension(self):
        assert translate(builtin("burau"), 1).dim(4) == 5

    def test_translate_generator_shift(self):
        f = builtin("tym")
        assert translate(f, 2).gen_matrix(2, 1) == f.gen_matrix(4, 3)

    @pytest.mark.parametrize("k", [1, 2])
    def test_translate_stab_is_bracket_monoidal(self, k):
        # Translation by k evaluates F on id_k ♮ [n2-n, id].
        for name in ("burau", "lk"):
            f = builtin(name)
            tau = translate(f, k)
            for n in range(0, 4):
                for n2 in range(n, 4):
                    phi = bracket_monoidal(
                        BracketMorphism.identity(k), BracketMorphism.stabilization(n, n2)
                    )
                    assert tau.stab(n, n2) == f.apply(phi), (name, n, n2)

    def test_translate_twice_composes(self):
        f = builtin("burau")
        assert translate(translate(f, 1), 1).dim(3) == translate(f, 2).dim(3)

    def test_direct_sum_blockwise(self):
        f, g = builtin("burau"), builtin("tym")
        s = direct_sum(f, g)
        assert s.gen_matrix(3, 1) == f.gen_matrix(3, 1).direct_sum(g.gen_matrix(3, 1))
        assert s.dim(3) == 6
        assert check_functor(s, 4, 2).passed

    def test_tensor_kron(self):
        f, g = builtin("tym"), builtin("constant")
        p = tensor(f, g)
        assert p.gen_matrix(3, 1) == f.gen_matrix(3, 1).kron(g.gen_matrix(3, 1))
        assert check_functor(p, 4, 2).passed

    def test_split_data_propagates(self):
        for f in (
            translate(builtin("burau"), 1),
            direct_sum(builtin("burau"), builtin("tym")),
            tensor(builtin("burau"), builtin("tym")),
        ):
            assert resolution(f, 2).certify(f.stab(2, 3)), f.name


class TestSplitData:
    @pytest.mark.parametrize("name,kw", ALL_BUILTINS[:6])
    def test_builtin_split_certifies(self, name, kw):
        f = builtin(name, **kw)
        for n in range(0, 4):
            assert resolution(f, n).certify(f.stab(n, n + 1)), (name, n)

    def test_complement_one_column_short_fails(self):
        # The four block identities still hold, but [incl | complement] is
        # not square, so it cannot be invertible.
        f = builtin("burau")
        incl, sd = f.stab(3, 4), resolution(f, 3)
        keep = range(sd.complement.cols - 1)
        short = SplitData(
            sd.retraction,
            sd.complement.submatrix(range(sd.complement.rows), keep),
            sd.coprojection.submatrix(keep, range(sd.coprojection.cols)),
        )
        assert sd.certify(incl)
        assert not short.certify(incl)

    def test_split_at_rows_of_a_monomial_block(self):
        # Rows 1 and 3 carry the pivots; row 0 and row 2 are the complement.
        incl = PolyMatrix.from_rows([[1 + T, Q], [0, T], [2, 0], [1, 0]])
        a_inv = PolyMatrix.from_rows([[0, 1], [T.unit_inverse(), 0]])
        sd = split_at_rows(incl, [1, 3], a_inv)
        assert sd.certify(incl)
        assert sd.complement == PolyMatrix.from_rows([[1, 0], [0, 0], [0, 1], [0, 0]])

    def test_stab_full_column_rank_at_points(self):
        points = seeded_points(2, 3)
        for name, kw in ALL_BUILTINS[:6]:
            f = builtin(name, **kw)
            for n in range(0, 4):
                s = f.stab(n, n + 2)
                assert max(s.rank_at(p) for p in points) == f.dim(n)


class TestGroupRingMatrix:
    def test_writhe_square(self):
        t_x = scalar_twist(constant_functor(), T)
        c = GroupRingElement.from_word(FreeWord.generator(3, 2))
        assert group_ring_matrix(t_x, 3, pure_braid_system(), c) == PolyMatrix.from_rows([[T * T]])

    def test_unit_word_is_identity(self):
        f = builtin("burau")
        assert group_ring_matrix(
            f, 3, pure_braid_system(), GroupRingElement.one(3)
        ) == PolyMatrix.identity(4)

    def test_trivial_system_gives_augmentation(self):
        f = builtin("burau")
        c = GroupRingElement(
            3,
            {
                parse_word("g1*g2", 3): T,
                parse_word("g3^-1", 3): ONE - T,
            },
        )
        got = group_ring_matrix(f, 3, trivial_system(), c)
        assert got == PolyMatrix.identity(4).scale(sum(c.terms.values(), ZERO))

    def test_multiplicative_on_words(self):
        f = builtin("burau")
        system = pure_braid_system()
        rng = random.Random(2)
        for _ in range(6):
            u = FreeWord(2, tuple((rng.randint(1, 2), rng.choice([1, -1])) for _ in range(2)))
            v = FreeWord(2, tuple((rng.randint(1, 2), rng.choice([1, -1])) for _ in range(2)))
            lhs = group_ring_matrix(f, 2, system, GroupRingElement.from_word(u * v))
            rhs = group_ring_matrix(f, 2, system, GroupRingElement.from_word(u)).matmul(
                group_ring_matrix(f, 2, system, GroupRingElement.from_word(v))
            )
            assert lhs == rhs


def test_functor_json_shape():
    payload = builtin("burau").to_json(3)
    assert payload["dim"] == 3
    assert set(payload["generators"]) == {"s1", "s2"}
    assert payload["generators"]["s1"][0][0] == "1 - t"
    assert "4" in payload["stab_to"]


def test_word_memo_is_capped_and_drops_the_oldest():
    f = builtin("burau")
    words = enumerate_words(3, 6)
    assert len(words) > MEMO_CAP
    for word in words:
        f.word_matrix(word)
    assert len(f._words) == MEMO_CAP
    kept = [(w.strands, w.letters) for w in words[-MEMO_CAP:]]
    assert list(f._words) == kept
    oldest = words[1]
    assert (3, oldest.letters) not in f._words
    assert f.word_matrix(oldest) == f.gen_matrix(3, oldest.letters[0])
    assert len(f._words) == MEMO_CAP


def reference_partial_permutation_split(incl):
    """The per-column construction that split_at_rows replaced."""
    rows_used = {}
    for c in range(incl.cols):
        col = [(r, p) for (r, cc), p in incl.entries.items() if cc == c]
        if len(col) != 1 or not col[0][1].is_unit():
            return None
        r, p = col[0]
        if r in rows_used:
            return None
        rows_used[r] = (c, p)
    retr = {(c, r): p.unit_inverse() for r, (c, p) in rows_used.items()}
    missing = [r for r in range(incl.rows) if r not in rows_used]
    return SplitData(
        PolyMatrix(incl.cols, incl.rows, retr),
        PolyMatrix(incl.rows, len(missing), {(r, i): ONE for i, r in enumerate(missing)}),
        PolyMatrix(len(missing), incl.rows, {(i, r): ONE for i, r in enumerate(missing)}),
    )


def reference_atomic_split(k, n):
    """The split of stab(n, n+1) that atomic_functor declared before the
    default covered it."""

    def dim(m):
        return 1 if m == k else 0

    # The inclusion is the zero map; the whole target is the cokernel.
    d2 = dim(n + 1)
    return SplitData(
        PolyMatrix.zeros(dim(n), d2),
        PolyMatrix.identity(d2),
        PolyMatrix.identity(d2),
    ) if dim(n) == 0 else None


class TestSplitBuilder:
    UNITS = [ONE, T, -(Q * Q), T.unit_inverse() * Q, -ONE]

    def test_partial_permutation_split_matches_reference(self):
        rng = random.Random(14)
        for _ in range(200):
            rows = rng.randint(0, 7)
            cols = rng.randint(0, rows)
            placed = rng.sample(range(rows), cols)
            entries = {(r, c): rng.choice(self.UNITS) for c, r in enumerate(placed)}
            incl = PolyMatrix(rows, cols, entries)
            got = partial_permutation_split(incl)
            assert got == reference_partial_permutation_split(incl)
            assert got.certify(incl)

    def test_monomial_inclusions_make_no_product(self, monkeypatch):
        # incl[M] is zero off the pivot rows, so the coprojection needs no
        # product.
        products = []
        product = laurent._product

        def recording(a, b):
            products.append((a.rows, b.cols))
            return product(a, b)

        monkeypatch.setattr(laurent, "_product", recording)
        for f, n, shape in ((burau_functor(), 3, (4, 3)), (power_functor(2), 8, (81, 64))):
            incl = f.stab(n, n + 1)
            assert (incl.rows, incl.cols) == shape
            got = partial_permutation_split(incl)
            assert got == reference_partial_permutation_split(incl)
            assert products == [], f.name

    def test_partial_permutation_split_refusals_match_reference(self):
        for rows in (
            [[T, 0], [0, 1 + T], [0, 0]],  # a non-unit entry
            [[T, 0], [Q, 0], [0, 1]],  # two entries in one column
            [[T, 1], [0, 0], [0, 0]],  # two columns on one row
            [[T, 0], [0, 0], [0, 0]],  # an empty column
        ):
            incl = PolyMatrix.from_rows(rows)
            assert reference_partial_permutation_split(incl) is None
            assert partial_permutation_split(incl) is None

    def test_atomic_default_split_matches_the_deleted_rule(self):
        for k in range(4):
            f = atomic_functor(k)
            for n in range(7):
                got = partial_permutation_split(f.stab(n, n + 1))
                assert got == reference_atomic_split(k, n), (k, n)
