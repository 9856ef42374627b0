"""Acceptance suite: every criterion at its stated range, exactly.

Each test prints one PASS/FAIL line (run with -s or -v to see them).  All
identities are checked in exact Laurent-polynomial arithmetic; there are
no tolerances to tune.  Criterion 7's power-functor row asserts the
claimed degree faithfully and fails: the claim is provably false for the
defining data (see tests and the analysis in the failure message).
"""

import random
import time

from lmkit.laurent import LaurentPoly, ONE, PolyMatrix, T, ZERO
from lmkit.freegroup import FreeWord, GroupRingElement, fox_derivatives
from lmkit.braidcat import (
    BracketMorphism,
    BraidWord,
    bracket_compose,
    bracket_equal,
    bracket_monoidal,
    braid_equal_witness,
    braiding,
    trivial_system,
)
from lmkit.repfun import (
    atomic_functor,
    builtin,
    burau_functor,
    check_functor,
    constant_functor,
    corrupted,
    direct_sum,
    lk_functor,
    power_functor,
    reduced_burau_functor,
    t1_functor,
    translate,
    tym_functor,
)
from lmkit.longmoody import (
    LongMoodyConfig,
    check_coherence,
    check_coherent_reliable,
    check_factorization,
    long_moody,
    long_moody_power,
    standard_config,
    wada_family,
)
from lmkit.polyfun import (
    difference,
    estimate_strong_degree,
    evanescence,
    unit_line_equivalence,
    verify_degree_growth,
    verify_difference_splitting,
)

from display_fixtures import oriented
from reference_kernels import expand

T2 = T * T
T_INV = T.unit_inverse()


def verdict(number: int, ok: bool, description: str):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number}: {description}"


def test_criterion_1_braid_relation_suite():
    start = time.time()
    families = [burau_functor(), reduced_burau_functor(), tym_functor(), lk_functor()]
    ok = True
    for f in families:
        for n in range(2, 8):
            for i in range(1, n - 1):
                a, b = f.gen_matrix(n, i), f.gen_matrix(n, i + 1)
                ok &= a.matmul(b).matmul(a) == b.matmul(a).matmul(b)
            for i in range(1, n):
                for j in range(i + 2, n):
                    a, b = f.gen_matrix(n, i), f.gen_matrix(n, j)
                    ok &= a.matmul(b) == b.matmul(a)
    elapsed = time.time() - start
    ok &= elapsed < 10
    verdict(1, ok, f"braid/commutation relations exact for n<=7, {elapsed:.2f}s")


def test_criterion_2_functor_criteria():
    builtins = [
        ("burau", {}),
        ("reduced-burau", {}),
        ("tym", {}),
        ("lk", {}),
        ("constant", {}),
        ("t1", {}),
        ("atomic", {"k": 2}),
        ("e", {"l": 2}),
    ]
    ok = True
    for name, kw in builtins:
        report = check_functor(builtin(name, **kw), 5, 3)
        ok &= report.passed
    bad = corrupted(builtin("burau"), 4, 2, 1, 1, T)
    bad_report = check_functor(bad, 5, 2)
    located = (not bad_report.passed) and bad_report.failures[0]["n"] == 4
    ok &= located
    verdict(2, ok, "functor criterion N=5 L=3 for all built-ins; corruption located")


def test_criterion_3_fox_oracle():
    rng = random.Random(0)
    ok = True
    for _ in range(1000):
        rank = rng.randint(1, 5)
        letters = tuple(
            (rng.randint(1, rank), rng.choice([1, -1])) for _ in range(rng.randint(0, 8))
        )
        word = FreeWord(rank, letters)
        expanded = expand(fox_derivatives(word)) + GroupRingElement.one(rank)
        ok &= expanded == GroupRingElement.from_word(word)
    verdict(3, ok, "1000 seeded words: sum (gi-1) d_i(w) + 1 = w exactly")


def test_criterion_4_coherence_and_reliability():
    report = check_coherent_reliable(standard_config(), 5, 4, seed=0)
    ok = report.passed
    for kind in range(1, 8):
        cfg = LongMoodyConfig(wada_family(kind), trivial_system())
        ok &= check_coherence(cfg, 4, 2, seed=0).passed
    verdict(4, ok, "classical pair: all five conditions N=5 L=4; each local action with trivial system: coherence")


def test_criterion_5_classical_reproduction():
    image = long_moody(standard_config(pre=T, post=T_INV), constant_functor())
    block = oriented("lm-constant-block")
    target = burau_functor(T2)
    ok = True
    for n in range(2, 7):
        for i in range(1, n):
            expected = (
                PolyMatrix.identity(i - 1)
                .direct_sum(block)
                .direct_sum(PolyMatrix.identity(n - i - 1))
            )
            ok &= image.gen_matrix(n, i) == expected
        reversal = PolyMatrix(n, n, {(i, n - 1 - i): ONE for i in range(n)})
        # Antidiagonal conjugation holds exactly on every generator, landing
        # on the flipped index; composing with the half twist
        # gives the same-index equivalence.
        for i in range(1, n):
            conj = reversal.matmul(image.gen_matrix(n, i)).matmul(reversal)
            ok &= conj == target.gen_matrix(n, n - i)
        letters = []
        for k in range(1, n):
            letters.extend(range(k, 0, -1))
        s = target.word_matrix(BraidWord(n, tuple(letters))).matmul(reversal)
        s_inv = s.inverse()
        for i in range(1, n):
            ok &= s.matmul(image.gen_matrix(n, i)).matmul(s_inv) == target.gen_matrix(n, i)
    verdict(5, ok, "twisted constant image: recorded blocks and reversal conjugation to squared-parameter Burau, n<=6")


def test_criterion_6_other_action_reproductions():
    ok = True
    cfg2 = LongMoodyConfig(wada_family(2), trivial_system())
    for base in (constant_functor(), burau_functor()):
        image = long_moody(cfg2, base)
        shifted = translate(base, 1)
        for n in range(1, 6):
            for i in range(1, n):
                blk = shifted.gen_matrix(n, i)
                expected = blk
                for _ in range(n - 1):
                    expected = expected.direct_sum(blk)
                ok &= image.gen_matrix(n, i) == expected
    cfg3 = LongMoodyConfig(wada_family(3), trivial_system(), pre_twist=T, post_scale=T_INV)
    image3 = long_moody(cfg3, constant_functor())
    pattern = PolyMatrix.from_rows([[ZERO, LaurentPoly.const(-1)], [ONE, ZERO]])
    for n in range(2, 6):
        for i in range(1, n):
            expected = (
                PolyMatrix.identity(i - 1)
                .direct_sum(pattern)
                .direct_sum(PolyMatrix.identity(n - i - 1))
            )
            ok &= image3.gen_matrix(n, i) == expected
    verdict(6, ok, "identity-pair action gives block-diagonal copies (n<=5); kind-3 twisted blocks [[0,-1],[1,0]] (n<=5)")


def test_criterion_7_degree_table():
    ok = True
    table = [
        (burau_functor(), 1, True),
        (tym_functor(), 1, True),
        (reduced_burau_functor(), 2, False),
        (lk_functor(), 2, True),
        (atomic_functor(2), 2, False),
        (atomic_functor(3), 3, False),
    ]
    for f, degree, very in table:
        report = estimate_strong_degree(f, 8)
        ok &= report.strong_degree == degree and report.very_strong == very
    # Reduced Burau chain: explicit natural equivalences.
    d1 = difference(reduced_burau_functor(), 8)
    ok &= unit_line_equivalence(d1, t1_functor(), 6) is not None
    ok &= unit_line_equivalence(difference(d1, 6), atomic_functor(0), 5) is not None
    # Difference of the two-variable family matches the recorded block.
    d_lk = difference(lk_functor(), 8)
    block = oriented("difference-lk-block")
    for n in range(2, 7):
        for i in range(1, n):
            expected = (
                PolyMatrix.identity(i - 1)
                .direct_sum(block)
                .direct_sum(PolyMatrix.identity(n - i - 1))
            )
            ok &= d_lk.gen_matrix(n, i) == expected
    verdict(7, ok, "degree table at N=8 with explicit equivalences and block patterns")


def test_criterion_7_power_functor_degrees():
    """Honest red: the claimed degrees are unattainable for this family.

    For any functor factoring through the poset of naturals the braid
    action is trivial, so the braiding router acts as the identity and the
    translated stabilization factors through the canonical inclusion
    (stab(1+n, 1+n') = stab(n', 1+n') . stab(1+n, n')).  Every induced
    transition map of the difference functor is therefore exactly zero,
    the difference never vanishes, and no strong degree is concluded at
    any range.  Verified computationally by
    test_polyfun.TestDegrees.test_power_functor_difference_has_zero_transitions.
    """
    results = {}
    ok = True
    for level in (1, 2, 3):
        report = estimate_strong_degree(power_functor(level), 8, d_max=5)
        results[level] = (report.strong_degree, report.very_strong)
        ok &= report.strong_degree == level and report.very_strong
    verdict(
        7,
        ok,
        f"power functors claimed (l, very strong) for l<=3; computed {results} "
        "(zero difference transitions; see the test docstring)",
    )


def test_criterion_8_splitting_theorem():
    cfg = standard_config()
    ok = True
    for f in (constant_functor(), burau_functor(), tym_functor()):
        report = verify_difference_splitting(cfg, f, 4)
        ok &= report.passed
    # Nonzero evanescence case.
    a2 = atomic_functor(2)
    report = verify_difference_splitting(cfg, a2, 3)
    ok &= report.passed
    image = long_moody(cfg, a2)
    ok &= evanescence(image, 3).dim(1) == 1
    ok &= long_moody(cfg, evanescence(a2, 4)).dim(1) == 1
    verdict(8, ok, "splitting: unit-determinant natural concatenation, inclusion lemma, difference identification, evanescence commutation (n<=4)")


def test_criterion_9_degree_growth():
    cfg = standard_config()
    ok = True
    for f in (constant_functor(), burau_functor(), tym_functor()):
        result = verify_degree_growth(cfg, f, 5)
        ok &= result["verdict"] == "pass"
    m2 = long_moody_power(cfg, constant_functor(), 2)
    report = estimate_strong_degree(m2, 6)
    ok &= report.strong_degree == 2 and report.very_strong
    verdict(9, ok, "degree(LM F) = degree(F)+1 with very-strong preservation (N=5); iterated image degree 2 (N=6)")


def test_criterion_10_additivity_and_factorization():
    cfg = standard_config()
    f, g = burau_functor(), tym_functor()
    both = long_moody(cfg, direct_sum(f, g))
    split_sum = direct_sum(long_moody(cfg, f), long_moody(cfg, g))
    ok = True

    def perm(n):
        df, dg = f.dim(n + 1), g.dim(n + 1)
        entries = {}
        for j in range(n):
            for r in range(df):
                entries[(j * df + r, j * (df + dg) + r)] = ONE
            for r in range(dg):
                entries[(n * df + j * dg + r, j * (df + dg) + df + r)] = ONE
        return PolyMatrix(n * (df + dg), n * (df + dg), entries)

    for n in range(0, 5):
        p = perm(n)
        for i in range(1, n):
            ok &= p.matmul(both.gen_matrix(n, i)) == split_sum.gen_matrix(n, i).matmul(p)
        for n2 in range(n, 5):
            ok &= perm(n2).matmul(both.stab(n, n2)) == split_sum.stab(n, n2).matmul(p)
    ok &= long_moody(cfg, builtin("zero")).dim(4) == 0
    # Trivial-system Kronecker factorization for two distinct actions.
    ok &= check_factorization(wada_family(1, 1), burau_functor(), 4).passed
    ok &= check_factorization(wada_family(3), tym_functor(), 4).passed
    verdict(10, ok, "additivity after block reordering (n<=4); Kronecker factorization for two actions (n<=4)")


def test_criterion_11_prebraided_failure_witness():
    lhs = bracket_compose(
        BracketMorphism.from_braid(braiding(1, 2)),
        bracket_monoidal(BracketMorphism.stabilization(0, 1), BracketMorphism.identity(2)),
    )
    rhs = bracket_monoidal(BracketMorphism.identity(2), BracketMorphism.stabilization(0, 1))
    equal = bracket_equal(lhs, rhs)
    word_ok, witness = braid_equal_witness(lhs.word, rhs.word, certainty=3, seed=0)
    ok = equal is False and (not word_ok) and witness is not None
    verdict(11, ok, f"pre-braided failure: {lhs.word} != {rhs.word}, witness {witness}")
