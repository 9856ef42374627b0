import json
from collections import Counter
from fractions import Fraction

import pytest

from lmkit import cli, laurent, longmoody, polyfun, repfun
from lmkit.cli import parse_functor
from lmkit.laurent import ONE, EvaluationPoint, LaurentPoly, PolyMatrix, T, seeded_points
from lmkit.braidcat import BraidWord, braiding, lk_index, router
from lmkit.repfun import (
    BUILTINS,
    BraidFunctor,
    NaturalMap,
    SplitData,
    atomic_functor,
    builtin,
    burau_functor,
    check_functor,
    check_natural,
    constant_functor,
    lk_functor,
    partial_permutation_split,
    power_functor,
    reduced_burau_functor,
    split_at_rows,
    t1_functor,
    translate,
    tym_functor,
)
from lmkit.longmoody import long_moody, long_moody_power, standard_config
from lmkit.polyfun import (
    SplitCertificationError,
    difference,
    estimate_strong_degree,
    evanescence,
    resolution,
    resolve_inclusion,
    translation_degree_checks,
    unit_line_equivalence,
    verify_degree_growth,
    verify_difference_splitting,
)

from display_fixtures import oriented
from reference_kernels import (
    allocating_unit_inverse,
    fraction_pivot_rows,
    hstack,
    resolve_with_rows_zero_split,
    router_first_translate,
)


def non_split_functor():
    """One-step stabilizations multiply by 1 + t, which has no retraction;
    n -> n' multiplies by (1 + t)^(n' - n)."""
    return BraidFunctor(
        "non-split",
        lambda n: 1,
        lambda n, i: PolyMatrix.identity(1),
        lambda n: PolyMatrix.from_rows([[ONE + T]]),
        eval_range=8,
    )


def conjugated_burau():
    """Burau with the stabilization 2 -> 3 composed with s2, so it is no
    longer monomial, the declared coordinate split no longer applies there
    and the evaluation search must run.  (Composing with s1 keeps it
    monomial.)  BraidFunctor.stab composes the one-step maps, so stab(2, 4)
    carries s2 too."""
    f = burau_functor()
    q = f.gen_matrix(3, 2)
    return BraidFunctor(
        "conjugated",
        f.dim,
        f.gen_matrix,
        lambda n: q.matmul(f.stab(2, 3)) if n == 2 else f.stab(n, n + 1),
        eval_range=8,
    )


class TestResolution:
    def test_coordinate_split(self):
        f = tym_functor()
        res = resolve_inclusion(f, 3)
        assert res.retraction.rows == f.dim(3) and res.complement.cols == 1
        # Retraction is the coordinate projection onto the last copies.
        assert res.retraction == PolyMatrix(3, 4, {(i, i + 1): ONE for i in range(3)})

    def test_zero_map_at_atomic_top(self):
        a2 = atomic_functor(2)
        res = resolve_inclusion(a2, 2)
        assert res.retraction.rows == 0
        assert a2.dim(2) - res.retraction.rows == 1 and res.complement.cols == 0

    def test_zero_source(self):
        a2 = atomic_functor(2)
        res = resolve_inclusion(a2, 1)
        assert res.retraction.rows == a2.dim(1) and res.complement.cols == a2.dim(2)

    def test_constant(self):
        f = constant_functor()
        res = resolve_inclusion(f, 4)
        assert res.retraction.rows == f.dim(4) and res.complement.cols == 0

    def test_zero_maps_resolve_to_the_empty_split(self):
        # The zero map at level 2 and the zero source at level 1 of
        # atomic(2), and every zero map of the difference of e(1): no
        # retraction rows, identity complement and coprojection on F(n+1),
        # flagged so that products through them are not formed.
        a2 = atomic_functor(2)
        for f, levels in ((a2, (1, 2)), (difference(power_functor(1), 6), range(5))):
            for n in levels:
                rows = f.dim(n + 1)
                empty = split_at_rows(PolyMatrix.zeros(rows, 0), [], PolyMatrix.zeros(0, 0))
                res = resolution(f, n)
                assert f.stab(n, n + 1).is_zero() and res == empty, (f.name, n)
                assert res.retraction.rows == 0
                assert res.complement == res.coprojection == PolyMatrix.identity(rows)
                assert res.complement.is_identity and res.coprojection.is_identity

    def test_search_certifies_non_coordinate_complement(self):
        conjugated = conjugated_burau()
        res = resolve_inclusion(conjugated, 2)
        assert res.retraction.rows == conjugated.dim(2)
        assert res.certify(conjugated.stab(2, 3))

    def test_uncertified_raises(self):
        with pytest.raises(SplitCertificationError):
            resolve_inclusion(non_split_functor(), 2)


GRID_WRAPPERS = ["{}", "tau(1;{})", "tau(2;{})", "twist(t;{})"]
GRID_LM = [
    f"lm({params};{{}})"
    for params in (
        "artin,pure-braid", "artin,trivial", "wada3,pure-braid", "wada5,trivial",
        "wada1:2,pure-braid", "artin,pure-braid,t,t^-1",
    )
]
# leaf: the complement dimensions at levels 0-4 of the leaf under each of
# GRID_WRAPPERS, then under every one of GRID_LM (all six agree).
GRID_LEAVES = {
    "constant": [(0, 0, 0, 0, 0), (0, 0, 0, 0, 0), (0, 0, 0, 0, 0), (0, 0, 0, 0, 0), (1, 1, 1, 1, 1)],
    "burau": [(1, 1, 1, 1, 1), (1, 1, 1, 1, 1), (1, 1, 1, 1, 1), (1, 1, 1, 1, 1), (2, 4, 6, 8, 10)],
    "burau(t^2)": [(1, 1, 1, 1, 1), (1, 1, 1, 1, 1), (1, 1, 1, 1, 1), (1, 1, 1, 1, 1), (2, 4, 6, 8, 10)],
    "reduced-burau": [(0, 1, 1, 1, 1), (1, 1, 1, 1, 1), (1, 1, 1, 1, 1), (0, 1, 1, 1, 1), (1, 3, 5, 7, 9)],
    "tym": [(1, 1, 1, 1, 1), (1, 1, 1, 1, 1), (1, 1, 1, 1, 1), (1, 1, 1, 1, 1), (2, 4, 6, 8, 10)],
    "tym(q)": [(1, 1, 1, 1, 1), (1, 1, 1, 1, 1), (1, 1, 1, 1, 1), (1, 1, 1, 1, 1), (2, 4, 6, 8, 10)],
    "lk": [(0, 1, 2, 3, 4), (1, 2, 3, 4, 5), (2, 3, 4, 5, 6), (0, 1, 2, 3, 4), (1, 5, 12, 22, 35)],
    "atomic(1)": [(1, 0, 0, 0, 0), (0, 0, 0, 0, 0), (0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (0, 0, 0, 0, 0)],
    "atomic(2)": [(0, 1, 0, 0, 0), (1, 0, 0, 0, 0), (0, 0, 0, 0, 0), (0, 1, 0, 0, 0), (1, 0, 0, 0, 0)],
    "t1": [(1, 0, 0, 0, 0), (0, 0, 0, 0, 0), (0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (1, 1, 1, 1, 1)],
    "e(1)": [(1, 1, 1, 1, 1), (1, 1, 1, 1, 1), (1, 1, 1, 1, 1), (1, 1, 1, 1, 1), (2, 4, 6, 8, 10)],
    "e(2)": [(1, 3, 5, 7, 9), (3, 5, 7, 9, 11), (5, 7, 9, 11, 13), (1, 3, 5, 7, 9), (4, 14, 30, 52, 80)],
    "zero": [(0, 0, 0, 0, 0), (0, 0, 0, 0, 0), (0, 0, 0, 0, 0), (0, 0, 0, 0, 0), (0, 0, 0, 0, 0)],
}
# None: no certified complement (a proper, nonzero kernel; ROADMAP item 10).
GRID_COMPOSITES = {
    "sum(burau;lk)": (1, 2, 3, 4, 5),
    "sum(atomic(2);lk)": (0, 2, None, 3, 4),
    "sum(constant;atomic(1))": (1, None, 0, 0, 0),
    "sum(t1;burau)": (2, 1, 1, 1, 1),
    "tensor(burau;tym)": (1, 3, 5, 7, 9),
    "tensor(burau;burau)": (1, 3, 5, 7, 9),
    "tensor(lk;constant)": (0, 1, 2, 3, 4),
    "tensor(t1;e(1))": (1, 1, 1, 1, 1),
    "tau(1;tensor(burau;tym))": (3, 5, 7, 9, 11),
    "tau(1;lm(artin,pure-braid;burau))": (4, 6, 8, 10, 12),
    "lm(artin,pure-braid;sum(burau;lk))": (3, 9, 18, 30, 45),
    "twist(t;tensor(lk;lk))": (0, 1, 8, 27, 64),
    "lm(artin,pure-braid;tau(1;lk))": (3, 9, 18, 30, 45),
    "tensor(lm(artin,pure-braid;constant);burau)": (1, 3, 5, 7, 9),
}


def grid_pins():
    for leaf, (*plain, lm) in GRID_LEAVES.items():
        yield from ((w.format(leaf), dims) for w, dims in zip(GRID_WRAPPERS, plain))
        yield from ((w.format(leaf), lm) for w in GRID_LM)
    yield from GRID_COMPOSITES.items()


def grid_complements(f):
    """The complement dimension of f's resolution at levels 0-4, None where
    none is certified.  resolve_inclusion trusts a monomial split, exact by
    construction; here each one is certified as well."""
    got = []
    for n in range(5):
        try:
            res = resolution(f, n)
        except SplitCertificationError:
            got.append(None)
            continue
        incl = f.stab(n, n + 1)
        if not incl.is_zero() and partial_permutation_split(incl) is not None:
            assert res.certify(incl), (f.name, n)
        got.append(res.complement.cols)
    return tuple(got)


class TestResolutionGrid:
    """The complement dimension of every resolution at levels 0-4, over the
    leaves under each wrapper and over nested sums, tensors and
    constructions, each one certified or refused."""

    @pytest.mark.parametrize("spec,dims", list(grid_pins()))
    def test_complement_dimensions(self, spec, dims):
        assert grid_complements(parse_functor(spec)) == dims

    def test_a_wrong_monomial_split_is_caught(self, monkeypatch):
        # One entry of A^-1, placed in the retraction's pivot columns, bumped
        # by 1 at every monomial split that resolve_inclusion takes.
        def bumped(incl):
            split = partial_permutation_split(incl)
            if split is None:
                return None
            pivot = next(c for r, c in split.retraction.entries)
            one = PolyMatrix(split.retraction.rows, incl.rows, {(0, pivot): ONE})
            return SplitData(split.retraction + one, split.complement, split.coprojection)

        monkeypatch.setattr(polyfun, "partial_permutation_split", bumped)
        with pytest.raises(AssertionError, match="burau"):
            grid_complements(parse_functor("burau"))


def reference_split(incl, pivots):
    """The split as the search built it before split_at_rows: the row blocks
    of the inverse of the whole square [incl | complement]."""
    d_src, d_tgt = incl.cols, incl.rows
    missing = [r for r in range(d_tgt) if r not in set(pivots)]
    complement = PolyMatrix(d_tgt, len(missing), {(r, i): ONE for i, r in enumerate(missing)})
    inverse = hstack(incl, complement).inverse()
    return SplitData(
        inverse.submatrix(range(d_src), range(d_tgt)),
        complement,
        inverse.submatrix(range(d_src, d_tgt), range(d_tgt)),
    )


def searched_levels(f, levels, seed=0):
    """(level, inclusion, pivot rows) for each level where resolve_inclusion
    reaches the complement search, past the zero map and any column monomial
    inclusion, with the pivots of its first full-rank point."""
    out = []
    for n in levels:
        incl = f.stab(n, n + 1)
        if incl.is_zero() or partial_permutation_split(incl) is not None:
            continue
        for point in seeded_points(polyfun._PIVOT_POINTS, seed):
            pivots = incl.pivot_rows_at(point)
            if len(pivots) == incl.cols:
                out.append((n, incl, pivots))
                break
    return out


@pytest.fixture(scope="module")
def l2_difference():
    """The first difference of L2 = LM(LM(burau)) as degree --N 6 builds it."""
    l2 = long_moody_power(standard_config(), burau_functor(), 2)
    return difference(l2, 5)


class TestSplitBuilder:
    def check_against_reference(self, f, levels):
        found = searched_levels(f, levels)
        for n, incl, pivots in found:
            a_inv = incl.submatrix(pivots, range(incl.cols)).inverse()
            built = split_at_rows(incl, pivots, a_inv)
            assert built == reference_split(incl, pivots), n
            assert resolve_inclusion(f, n) == built, n
        return [n for n, _, _ in found]

    def test_conjugated_inclusion_matches_full_square_inverse(self):
        assert self.check_against_reference(conjugated_burau(), range(4)) == [2]

    def test_l2_difference_matches_full_square_inverse(self, l2_difference):
        assert self.check_against_reference(l2_difference, range(5))

    def test_search_eliminates_no_block_beyond_the_source(self, l2_difference, monkeypatch):
        incl = l2_difference.stab(4, 5)
        sizes = []
        montante = laurent._montante_inverse

        def recording(a):
            sizes.append(a.rows)
            return montante(a)

        monkeypatch.setattr(laurent, "_montante_inverse", recording)
        res = resolve_inclusion(l2_difference, 4)
        assert res.retraction.rows == l2_difference.dim(4) and res.certify(incl)
        # The full square [incl | complement] would be incl.rows (126) wide.
        assert sizes and max(sizes) <= incl.cols < incl.rows


def counting_certify(monkeypatch):
    """The inclusions SplitData.certify is called on, in call order."""
    calls, certify = [], SplitData.certify

    def counting(self, incl):
        calls.append(incl)
        return certify(self, incl)

    monkeypatch.setattr(SplitData, "certify", counting)
    return calls


class TestCertifiedOnlyWhenSearched:
    """resolve_inclusion certifies the searched splits only: the zero map's
    and the monomial split are exact by construction."""

    @pytest.mark.parametrize("spec,big_n", [("burau", 10), ("e(3)", 12)])
    def test_zero_and_monomial_levels_are_not_certified(self, spec, big_n, monkeypatch):
        calls = counting_certify(monkeypatch)
        estimate_strong_degree(parse_functor(spec), big_n)
        assert calls == []

    def test_a_searched_level_is_certified(self, l2_difference, monkeypatch):
        found = searched_levels(l2_difference, range(5))
        calls = counting_certify(monkeypatch)
        for n, incl, _ in found:
            resolve_inclusion(l2_difference, n)
            assert calls and calls[-1] is incl, n
        assert found


class TestPivotGuess:
    """pivot_rows_at reads the pivots mod a prime; the column reduction over
    Fraction is the reference."""

    def test_every_pivot_call_of_l2_at_6_matches_fraction(self, monkeypatch):
        calls = []
        guess = PolyMatrix.pivot_rows_at

        def recording(m, point):
            pivots = guess(m, point)
            calls.append((m, point, pivots))
            return pivots

        monkeypatch.setattr(PolyMatrix, "pivot_rows_at", recording)
        l2 = long_moody_power(standard_config(), burau_functor(), 2)
        assert estimate_strong_degree(l2, 6).strong_degree == 3
        assert calls
        for m, point, pivots in calls:
            assert pivots == fraction_pivot_rows(m, point)

    def test_a_point_with_no_image_mod_p_moves_on_to_the_next(self, monkeypatch):
        # With the prime 10007, a point with denominator 10007 has no image:
        # its guess has too few rows, and the search takes the next point.
        f = conjugated_burau()
        expected = resolve_inclusion(f, 2)
        planted = EvaluationPoint(Fraction(2, 10007), Fraction(3))
        seeded = seeded_points

        def points(count, seed):
            return (planted, *seeded(count - 1, seed))

        guesses = []
        guess = PolyMatrix.pivot_rows_at
        monkeypatch.setattr(laurent, "_PRIME", 10007)
        monkeypatch.setattr(polyfun, "seeded_points", points)
        monkeypatch.setattr(
            PolyMatrix, "pivot_rows_at", lambda m, point: guesses.append(point) or guess(m, point)
        )
        assert guess(f.stab(2, 3), planted) == []
        assert resolve_inclusion(f, 2) == expected
        assert guesses == [planted, seeded(1, 0)[0]]


class TestInclusionCache:
    """The resolutions stored on each functor by polyfun.resolution."""

    @staticmethod
    def _count_resolutions(monkeypatch) -> Counter:
        calls = Counter()
        resolve = polyfun.resolve_inclusion

        def counting(f, n, seed=0):
            calls[(id(f), n, seed)] += 1
            return resolve(f, n, seed)

        monkeypatch.setattr(polyfun, "resolve_inclusion", counting)
        return calls

    def test_failed_search_is_stored_and_raised_again(self, monkeypatch):
        f = non_split_functor()
        calls = self._count_resolutions(monkeypatch)
        with pytest.raises(SplitCertificationError) as first:
            resolution(f, 2)
        with pytest.raises(SplitCertificationError) as second:
            resolution(f, 2)
        assert second.value is first.value
        assert calls == {(id(f), 2, 0): 1}

    def test_each_level_is_resolved_once(self, monkeypatch):
        # lm(artin,pure-braid;e(1)) has an uncertified inclusion at level 1
        # of its first difference, which both the kappa loop and the next
        # difference look up.
        calls = self._count_resolutions(monkeypatch)
        base = long_moody(standard_config(), power_functor(1))
        report = estimate_strong_degree(base, 6)
        assert report.strong_degree is None
        assert calls and max(calls.values()) == 1
        # The splitting check builds the difference and the evanescence of
        # both F and LM(F); each pair shares its functor's resolutions.
        calls.clear()
        report = verify_difference_splitting(standard_config(), burau_functor(), 5)
        assert report.passed
        assert calls and max(calls.values()) == 1


class TestEvanescence:
    def test_vanishes_for_split_families(self):
        for f in (burau_functor(), tym_functor(), lk_functor(), t1_functor()):
            k = evanescence(f, 5)
            assert all(k.dim(n) == 0 for n in range(6))

    def test_atomic_is_its_own_kernel(self):
        a3 = atomic_functor(3)
        k = evanescence(a3, 5)
        assert [k.dim(n) for n in range(6)] == [0, 0, 0, 1, 0, 0]
        assert k.stab(3, 5) == PolyMatrix.zeros(0, 1)


class TestDifference:
    def test_exact_sequence_dimensions(self):
        for f in (burau_functor(), lk_functor(), atomic_functor(2), t1_functor()):
            d = difference(f, 4)
            k = evanescence(f, 4)
            for n in range(5):
                res = resolve_inclusion(f, n)
                rank = res.retraction.rows
                assert rank + k.dim(n) == f.dim(n)
                assert d.dim(n) == translate(f, 1).dim(n) - rank

    def test_constant_rank_one_with_identity_morphisms(self):
        d = difference(tym_functor(), 6)
        assert all(d.dim(n) == 1 for n in range(7))
        for n in range(2, 6):
            for i in range(1, n):
                assert d.gen_matrix(n, i) == PolyMatrix.identity(1)
        assert d.stab(1, 5) == PolyMatrix.identity(1)

    def test_difference_of_lk_block_pattern(self):
        d = difference(lk_functor(), 6)
        assert [d.dim(n) for n in range(6)] == [0, 1, 2, 3, 4, 5]
        block = oriented("difference-lk-block")
        for n in range(2, 6):
            for i in range(1, n):
                expected = (
                    PolyMatrix.identity(i - 1)
                    .direct_sum(block)
                    .direct_sum(PolyMatrix.identity(n - i - 1))
                )
                assert d.gen_matrix(n, i) == expected

    def test_difference_passes_criterion(self):
        d = difference(lk_functor(), 5)
        assert check_functor(d, 4, 2).passed

    def test_difference_of_constant_vanishes(self):
        d = difference(constant_functor(), 5)
        assert all(d.dim(n) == 0 for n in range(6))

    def test_atomic_difference_is_shifted_atomic(self):
        d = difference(atomic_functor(3), 5)
        a2 = atomic_functor(2)
        assert [d.dim(n) for n in range(5)] == [a2.dim(n) for n in range(5)]
        eta = unit_line_equivalence(d, a2, 4)
        assert eta is not None


class TestThinEquivalences:
    def test_reduced_burau_chain(self):
        d1 = difference(reduced_burau_functor(), 8)
        eta = unit_line_equivalence(d1, t1_functor(), 6)
        assert eta is not None
        d2 = difference(d1, 6)
        eta2 = unit_line_equivalence(d2, atomic_functor(0), 5)
        assert eta2 is not None

    def test_no_equivalence_between_distinct_families(self):
        assert unit_line_equivalence(t1_functor(), constant_functor(), 4) is None


class TestDegrees:
    def test_degree_table(self):
        table = {
            "burau": (burau_functor(), 1, True),
            "tym": (tym_functor(), 1, True),
            "reduced-burau": (reduced_burau_functor(), 2, False),
            "lk": (lk_functor(), 2, True),
            "atomic(3)": (atomic_functor(3), 3, False),
            "t1": (t1_functor(), 1, False),
            "constant": (constant_functor(), 0, True),
        }
        for name, (f, degree, very) in table.items():
            report = estimate_strong_degree(f, 6)
            assert report.strong_degree == degree, name
            assert report.very_strong == very, name

    def test_monotone_in_range(self):
        for f in (reduced_burau_functor(), lk_functor()):
            d_small = estimate_strong_degree(f, 5).strong_degree
            d_large = estimate_strong_degree(f, 8).strong_degree
            assert d_small is not None and d_large >= d_small

    def test_zero_functor_degree(self):
        report = estimate_strong_degree(builtin("zero"), 4)
        assert report.strong_degree == -1

    def test_power_functor_difference_has_zero_transitions(self):
        # Computed behavior of the poset-factoring family: the inclusion
        # factors through the image of every later inclusion, so the
        # induced transition maps of the difference vanish and the degree
        # never concludes.
        d = difference(power_functor(1), 5)
        assert [d.dim(n) for n in range(5)] == [1, 1, 1, 1, 1]
        for n in range(4):
            assert d.stab(n, n + 1).is_zero()
        report = estimate_strong_degree(power_functor(1), 6, d_max=4)
        assert report.strong_degree is None

    def test_order_bound_past_the_range_changes_nothing(self):
        # The N-th difference has an empty window, so no order past N is
        # examined: a bound of N-1 and any larger one give the same report,
        # and its note names the last order examined.
        reports = [estimate_strong_degree(power_functor(1), 4, d_max=d) for d in (3, 4, 10)]
        assert reports[0].strong_degree is None and reports[0].evidence[-1][0] == 4
        assert reports[0].note == "no vanishing difference up to order 4 on N=4"
        assert all(report == reports[0] for report in reports)

    def test_json_shape(self):
        payload = estimate_strong_degree(burau_functor(), 5).to_json()
        assert payload["strong_degree_at_range"] == 1
        assert payload["very_strong"] is True
        assert payload["evidence"][0]["d"] == 0


class TestCommutations:
    def _translation_difference_intertwiner(self, f, tau_f, n):
        # Both sides are subquotients of f at level n+2; the braiding
        # router carries one realization onto the other.
        router = braiding(1, 1).inverse().monoidal(BraidWord.identity(n))
        q = f.word_matrix(router)
        return resolution(tau_f, n).coprojection.matmul(q).matmul(resolution(f, n + 1).complement)

    @pytest.mark.parametrize("factory", [burau_functor, tym_functor, lk_functor])
    def test_translation_commutes_with_difference(self, factory):
        f = factory()
        tau_f = translate(f, 1)
        lhs = translate(difference(f, 6), 1)
        rhs = difference(tau_f, 5)
        comps = {n: self._translation_difference_intertwiner(f, tau_f, n) for n in range(5)}
        eta = NaturalMap(lhs, rhs, lambda n: comps[n], "translation-difference")
        report = check_natural(eta, 4)
        assert report.passed, report.failures[:2]
        for n in range(1, 5):
            assert comps[n].det().is_unit()

    def test_translation_commutes_with_evanescence(self):
        # Both vanish for split families; for atomics both sides agree with
        # the shifted atomic.
        a3 = atomic_functor(3)
        lhs = translate(evanescence(a3, 6), 1)
        rhs = evanescence(translate(a3, 1), 5)
        assert [lhs.dim(n) for n in range(5)] == [rhs.dim(n) for n in range(5)]
        f = burau_functor()
        assert all(translate(evanescence(f, 6), 1).dim(n) == 0 for n in range(5))
        assert all(evanescence(translate(f, 1), 5).dim(n) == 0 for n in range(5))

    def test_translated_atomic_is_smaller_atomic(self):
        # Computed resolution of the translation of an atomic functor: a
        # single copy, not a direct sum of copies.
        for k in (1, 2):
            for j in (2, 3):
                if j - k >= 0:
                    shifted = translate(atomic_functor(j), k)
                    target = atomic_functor(j - k)
                    assert [shifted.dim(n) for n in range(5)] == [target.dim(n) for n in range(5)]
                    eta = unit_line_equivalence(shifted, target, 4)
                    assert eta is not None


class TestTheorems:
    def test_splitting_for_classical_bases(self):
        cfg = standard_config()
        for f in (constant_functor(), burau_functor(), tym_functor()):
            report = verify_difference_splitting(cfg, f, 3)
            assert report.passed, report.to_json()

    def test_splitting_detects_nonzero_evanescence_case(self):
        cfg = standard_config()
        report = verify_difference_splitting(cfg, atomic_functor(2), 3)
        assert report.passed
        image = long_moody(cfg, atomic_functor(2))
        k = evanescence(image, 3)
        assert k.dim(1) == 1  # the nonzero level is genuinely exercised

    @staticmethod
    def _burau_with_scaled_inverse(level, scale):
        """Burau, except that s1^-1 at `level` is scaled, so it is no longer
        the inverse of s1 there."""
        b = burau_functor()

        def gen(n, i):
            m = b.gen_matrix(n, i)
            return m.scale(scale) if (n, i) == (level, -1) else m

        return BraidFunctor("burau-scaled-inverse", b.dim, gen, lambda n: b.stab(n, n + 1))

    def test_splitting_fails_on_a_router_without_inverse(self, monkeypatch, capsys):
        # The router of level n is s1^-1 on n+2 strands.  Scaled by the unit
        # 2t at 3 strands, [new | old] at n = 1 has no inverse but a unit
        # determinant; scaled by 1 + t at 4 strands, the determinant at
        # n = 2 is (1 + t)^8 t^-2, and the difference at that level has no
        # certified complement, so (iii) is not determined and the report
        # fails on (i) with a note.
        report = verify_difference_splitting(
            standard_config(), self._burau_with_scaled_inverse(3, T + T), 4
        )
        unit = report.sections[0]
        assert (unit.name, unit.checked, unit.failures) == (
            "concat-invertible", 10, [{"kind": "inverse", "n": 1}]
        )
        assert report.note is None
        scaled = self._burau_with_scaled_inverse(4, ONE + T)
        report = verify_difference_splitting(standard_config(), scaled, 4)
        det = "t^-2 + 8*t^-1 + 28 + 56*t + 70*t^2 + 56*t^3 + 28*t^4 + 8*t^5 + t^6"
        assert [(r.name, r.checked, r.failures) for r in report.sections] == [
            ("concat-invertible", 10,
             [{"kind": "inverse", "n": 2}, {"kind": "determinant", "n": 2, "det": det}]),
            ("concat-natural", 10, [
                {"kind": "stabilization", "n": 1, "n2": 2},
                {"kind": "generator", "n": 2, "i": 1},
                {"kind": "stabilization", "n": 2, "n2": 3},
            ]),
            ("inclusion-lemma", 5, []),
        ]
        assert report.note.startswith("section (iii) is not determined: ")
        assert report.note.endswith("no certified complement for the inclusion at level 2")
        # The command line reports it as a failure (exit 1), note included.
        monkeypatch.setattr(cli, "parse_functor", lambda spec: scaled)
        code = cli.main(["verify", "splitting", "--base", "scaled", "--N", "4"])
        out = json.loads(capsys.readouterr().out)
        assert (code, out["verdict"], out["note"]) == (1, "fail", report.note)

    def test_uncertified_splitting_without_a_failure_raises(self, monkeypatch):
        # With no section failed, a complement left uncertified in (iii) is
        # an error (exit 2), never a failing verdict.
        def uncertified(f, n, seed=0):
            raise SplitCertificationError(f"{f.name}: no certified complement at level {n}")

        monkeypatch.setattr(polyfun, "resolve_inclusion", uncertified)
        with pytest.raises(SplitCertificationError, match="no certified complement"):
            verify_difference_splitting(standard_config(), burau_functor(), 3)
        assert cli.main(["verify", "splitting", "--base", "burau", "--N", "3"]) == 2

    def test_degree_growth(self):
        cfg = standard_config()
        for f in (constant_functor(), tym_functor()):
            result = verify_degree_growth(cfg, f, 4)
            assert result["verdict"] == "pass"

    def test_iterated_image_degree(self):
        cfg = standard_config()
        m2 = long_moody_power(cfg, constant_functor(), 2)
        report = estimate_strong_degree(m2, 5)
        assert report.strong_degree == 2 and report.very_strong

    def test_translation_preserves_very_strong_degree(self):
        result = translation_degree_checks(burau_functor(), 6)
        assert result["verdict"] == "pass"
        assert result["shifted"][1]["strong_degree_at_range"] == 1


def _builtin_spec(name, key):
    return f"{name}(2)" if key in ("k", "l") else name


ACTIONS = ["artin"] + [f"wada{k}" for k in range(1, 8)]
COMPOSED_SPECS = (
    [_builtin_spec(name, key) for name, (_, key) in BUILTINS.items()]
    + ["sum(burau;lk)", "tensor(burau;tym)", "twist(t;burau)"]
    + [f"tau({k};{f})" for k in (1, 2) for f in ("lk", "lm(artin,pure-braid;burau)")]
    + [f"lm({a},{s};burau)" for a in ACTIONS for s in ("trivial", "pure-braid")]
)


def closed_form_stab(spec):
    """The stabilization n -> n' of the functor named by spec in the closed
    form its construction states: the multi-step rule each family and
    combinator had before rules took one level.  Parts are read through
    their own stab."""
    head, _, args = spec[:-1].partition("(")
    inner = parse_functor(args.split(";", 1)[-1]) if ";" in args else None
    if head in ("sum", "tensor"):
        f, g = (parse_functor(part) for part in args.split(";"))
        op = PolyMatrix.direct_sum if head == "sum" else PolyMatrix.kron
        return lambda n, n2: op(f.stab(n, n2), g.stab(n, n2))
    if head == "twist":
        return inner.stab
    if head == "tau":
        k = int(args.split(";")[0])
        return lambda n, n2: inner.word_matrix(router(k, n, n2)).matmul(inner.stab(k + n, k + n2))
    if head == "lm":
        # tau's stabilization on each of the n blocks, after n' - n new ones.
        tau = translate(inner, 1)
        return lambda n, n2: PolyMatrix.zeros((n2 - n) * inner.dim(n2 + 1), 0).direct_sum(
            PolyMatrix.identity(n).kron(tau.stab(n, n2))
        )
    f = parse_functor(spec)
    if head == "lk":
        # v_{j,k} -> v_{j+d,k+d} on d = n' - n added strands.
        return lambda n, n2: PolyMatrix(f.dim(n2), f.dim(n), {
            (lk_index(n2)[1][(j + n2 - n, k + n2 - n)], c): ONE
            for c, (j, k) in enumerate(lk_index(n)[0])
        })
    if head == "atomic":
        return lambda n, n2: PolyMatrix.zeros(f.dim(n2), f.dim(n))
    # A coordinate family: level n is the last dim(n) coordinates of level n'.
    return lambda n, n2: PolyMatrix(
        f.dim(n2), f.dim(n), {(f.dim(n2) - f.dim(n) + i, i): ONE for i in range(f.dim(n))}
    )


class TestComposedStabilizations:
    """Every family and combinator states its stabilization n -> n+1 only;
    n -> n' is the composite stab(n'-1, n') * stab(n, n'-1).  The composite
    must be the closed form each construction states for n -> n', and each
    one-step map must have a certified resolution."""

    @staticmethod
    def assert_closed_form_is_the_composite(f, closed):
        top = min(6, f.eval_range)
        for n in range(top + 1):
            for n2 in range(n + 1, top + 1):
                assert closed(n, n2) == f.stab(n, n2), (f.name, n, n2)

    @pytest.mark.parametrize("spec", COMPOSED_SPECS)
    def test_rule_equals_the_composite(self, spec):
        self.assert_closed_form_is_the_composite(parse_functor(spec), closed_form_stab(spec))

    @pytest.mark.parametrize("base", ["burau", "lk", "atomic(2)"])
    def test_derived_rule_equals_the_composite(self, base):
        f = parse_functor(base)
        tau = translate(f, 1)

        def compressed(n, n2):
            hi, lo = resolution(f, n2), resolution(f, n)
            return hi.coprojection.matmul(tau.stab(n, n2)).matmul(lo.complement)

        self.assert_closed_form_is_the_composite(difference(f, 6), compressed)
        kappa = evanescence(f, 6)

        def restricted(n, n2):
            if kappa.dim(n) and kappa.dim(n2):
                return f.stab(n, n2)
            return PolyMatrix.zeros(kappa.dim(n2), kappa.dim(n))

        self.assert_closed_form_is_the_composite(kappa, restricted)

    @pytest.mark.parametrize("spec", COMPOSED_SPECS)
    def test_one_step_split_certifies(self, spec):
        f = parse_functor(spec)
        for n in range(min(6, f.eval_range)):
            incl = f.stab(n, n + 1)
            # A zero map is resolved on its kernel's complement, which is zero.
            source = PolyMatrix.zeros(incl.rows, 0) if incl.is_zero() else incl
            assert resolution(f, n).certify(source), (spec, n)


def use_reference_rules(monkeypatch):
    """Swap in the zero-map rules of tests/reference_kernels.py: every
    translate's one-step map multiplies its router in, a zero inclusion
    splits on unflagged identities and the inverse of 1 is a new
    polynomial.  Functors parsed afterwards are built on these rules."""
    for module in (repfun, longmoody, polyfun, cli):
        monkeypatch.setattr(module, "translate", router_first_translate)
    monkeypatch.setattr(polyfun, "resolve_inclusion", resolve_with_rows_zero_split)
    monkeypatch.setattr(LaurentPoly, "unit_inverse", allocating_unit_inverse)


def calculus_json(spec, big_n):
    """The degree report of the functor at big_n, and the matrices of its
    first two differences at every level their window keeps (or the error
    of a level with no certified complement)."""
    f = parse_functor(spec)
    out = [estimate_strong_degree(f, big_n).to_json()]
    for _ in range(2):
        big_n -= 1
        f = difference(f, big_n)
        for n in range(big_n + 1):
            try:
                out.append(f.to_json(n))
            except SplitCertificationError as exc:
                out.append(str(exc))
    return out


def router_calls_into_zero_steps(monkeypatch, run):
    """How many word_matrix calls `run` makes for a one-level router
    router(1, n, n+1) of a functor whose one-step map n+1 -> n+2 is zero."""
    calls = []
    word_matrix = BraidFunctor.word_matrix

    def recording(f, word):
        calls.append((f, word))
        return word_matrix(f, word)

    with monkeypatch.context() as patched:
        patched.setattr(BraidFunctor, "word_matrix", recording)
        run()
    return sum(
        1 for f, w in calls
        if w.strands >= 2 and w == router(1, w.strands - 2, w.strands - 1)
        and f.stab(w.strands - 1, w.strands).is_zero()
    )


ZERO_MAP_GRID = [
    ("e(0)", 8), ("e(1)", 8), ("e(2)", 8), ("e(3)", 6),
    ("atomic(0)", 8), ("atomic(1)", 8), ("atomic(2)", 8), ("atomic(3)", 8),
    ("zero", 8), ("t1", 8), ("constant", 8), ("burau", 8), ("reduced-burau", 8), ("lk", 8),
    ("sum(atomic(3);burau)", 8), ("tau(1;atomic(2))", 8),
    ("lm(artin,pure-braid;e(1))", 6), ("lm(artin,pure-braid;atomic(2))", 6),
]


class TestZeroMaps:
    """Zero maps cost no products: a translate whose one-step map is zero
    skips its router, a zero inclusion splits on flagged identities and the
    inverse of 1 is ONE.  Each agrees with the reference rule it replaced."""

    def test_no_router_is_built_into_a_zero_step(self, monkeypatch):
        def degree():
            estimate_strong_degree(parse_functor("e(2)"), 10)

        assert router_calls_into_zero_steps(monkeypatch, degree) == 0
        # The reference rule builds them, so the count above is not vacuous.
        use_reference_rules(monkeypatch)
        assert router_calls_into_zero_steps(monkeypatch, degree) > 0

    @pytest.mark.parametrize("spec,big_n", ZERO_MAP_GRID)
    def test_degree_calculus_matches_the_reference_rules(self, monkeypatch, spec, big_n):
        got = calculus_json(spec, big_n)
        use_reference_rules(monkeypatch)
        assert got == calculus_json(spec, big_n)

    @pytest.mark.parametrize("spec", ["atomic(2)", "e(1)", "zero"])
    def test_theorems_match_the_reference_rules(self, monkeypatch, spec):
        def theorems():
            cfg = standard_config()
            return (
                verify_difference_splitting(cfg, parse_functor(spec), 3).to_json(),
                verify_degree_growth(cfg, parse_functor(spec), 4),
            )

        got = theorems()
        use_reference_rules(monkeypatch)
        assert got == theorems()
