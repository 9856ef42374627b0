"""The polynomiality calculus: translation, evanescence, and difference of
braid functors, range-relative strong-degree estimation, and executable
verification of the splitting and degree-growth theorems for the
Long-Moody construction.

Kernels and cokernels of the canonical inclusion F -> translate(F) are
read off one exact SplitData of it on a complement of its kernel: the
rank is the retraction's rows, the cokernel the complement's columns.  A
zero inclusion, which incl.is_zero() decides exactly, gets the empty
inclusion's split, and a column monomial inclusion gets its monomial split;
both are exact by construction.  Any other split is a complement found by
evaluation pivoting and is certified symbolically.
Degree conclusions are therefore exact but range-relative: a report says
"the (d+1)-st difference vanishes on levels <= N", never more.  Each
resolution is stored on its functor (see resolution), so the evanescence,
the difference and every check built on one functor instance share one
complement per level and seed.
"""

from __future__ import annotations


from .laurent import LaurentError, PolyMatrix, seeded_points
from .memo import remember
from .repfun import (
    BraidFunctor,
    CheckReport,
    NaturalMap,
    SplitData,
    check_natural,
    direct_sum,
    partial_permutation_split,
    split_at_rows,
    translate,
)
from .longmoody import (
    CoherenceError,
    LongMoodyConfig,
    check_inclusion_lemma,
    long_moody,
    router_blocks,
)


class SplitCertificationError(RuntimeError):
    """Raised when no certified complement of a stabilization is found."""


_PIVOT_POINTS = 4


def resolve_inclusion(f: BraidFunctor, n: int, seed: int = 0) -> SplitData:
    """Split the inclusion at level n on a complement of its kernel,
    uncached (see resolution).

    Resolution order: a zero map (kernel everything), decided exactly by
    incl.is_zero(); the monomial split of a column monomial inclusion;
    complement search at _PIVOT_POINTS seeded evaluation points.  The first
    two are correct by construction and skip SplitData.certify.  The zero
    map's split has no retraction rows and flagged identities as complement
    and coprojection, which the difference compresses through with no
    product.  A column monomial inclusion's pivot block A = incl[P] has one
    unit per row and column, so A^{-1} is read off exactly; every row off P
    is zero, and laurent.complete_inverse (see its proof) then gives the
    exact inverse of [incl | complement].  The searched split is certified
    symbolically; an unresolvable inclusion raises SplitCertificationError.
    """
    incl = f.stab(n, n + 1)
    if incl.is_zero():
        eye = PolyMatrix.identity(incl.rows)
        return SplitData(PolyMatrix.zeros(0, incl.rows), eye, eye)
    monomial = partial_permutation_split(incl)
    if monomial is not None:
        return monomial
    # Guess the pivot rows at random points, eliminate only the pivot block,
    # then certify the split exactly.
    for point in seeded_points(_PIVOT_POINTS, seed):
        pivots = incl.pivot_rows_at(point)
        if len(pivots) != incl.cols:
            continue
        try:
            a_inv = incl.submatrix(pivots, range(incl.cols)).inverse()
        except LaurentError:
            continue
        data = split_at_rows(incl, pivots, a_inv)
        if data.certify(incl):
            return data
    raise SplitCertificationError(
        f"{f.name}: no certified complement for the inclusion at level {n}"
    )


def resolution(f: BraidFunctor, n: int, seed: int = 0) -> SplitData:
    """The split resolve_inclusion(f, n, seed), stored once per (functor
    instance, level, seed) in f's resolution table, so that differences and
    the identifications built on them share complements.  A failed search
    is stored too: later lookups raise the same SplitCertificationError."""
    key = (n, seed)
    hit = f._resolutions.get(key)
    if hit is None:
        try:
            hit = resolve_inclusion(f, n, seed)
        except SplitCertificationError as exc:
            hit = exc
        remember(f._resolutions, key, hit)
    if isinstance(hit, SplitCertificationError):
        raise hit.with_traceback(None)
    return hit


def evanescence(f: BraidFunctor, big_n: int, seed: int = 0) -> BraidFunctor:
    """The kernel of the canonical inclusion into the translate.

    On the certified range every inclusion is either split injective
    (kernel zero) or the zero map (kernel everything); intermediate cases
    raise rather than guess.  A kernel vector at n is one the inclusion
    sends to zero, so every stabilization of the kernel is zero.
    """
    def dim(n):
        return f.dim(n) - resolution(f, n, seed).retraction.rows

    def gen(n, letter):
        if dim(n) == 0:
            return PolyMatrix.zeros(0, 0)
        return f.gen_matrix(n, letter)

    return BraidFunctor(
        f"kappa({f.name})",
        dim,
        gen,
        lambda n: PolyMatrix.zeros(dim(n + 1), dim(n)),
        eval_range=min(big_n, f.eval_range - 1),
    )


def difference(f: BraidFunctor, big_n: int, seed: int = 0) -> BraidFunctor:
    """The cokernel of the canonical inclusion into the translate, realized
    on the certified complements.

    Generator matrices and one-step stabilizations compress the translated
    ones; compressing is exact, and commutes with composing, because the
    translated morphisms preserve the image of the inclusion (functor criterion).
    """
    tau = translate(f, 1)

    def dim(n):
        return resolution(f, n, seed).complement.cols

    def gen(n, letter):
        res = resolution(f, n, seed)
        return res.coprojection.matmul(tau.gen_matrix(n, letter)).matmul(res.complement)

    def stab(n):
        lo, hi = resolution(f, n, seed), resolution(f, n + 1, seed)
        return hi.coprojection.matmul(tau.stab(n, n + 1)).matmul(lo.complement)

    return BraidFunctor(
        f"delta({f.name})",
        dim,
        gen,
        stab,
        eval_range=min(big_n, f.eval_range - 1),
    )


# ---------------------------------------------------------------------------
# Degree estimation
# ---------------------------------------------------------------------------


class DegreeReport:
    __slots__ = ("functor", "range_n", "strong_degree", "very_strong", "evidence", "note")

    def __init__(
        self,
        functor: str,
        range_n: int,
        strong_degree: int | None,
        very_strong: bool,
        evidence: list,
        note: str = "",
    ):
        self.functor = functor
        self.range_n = range_n
        self.strong_degree = strong_degree
        self.very_strong = very_strong
        self.evidence = evidence
        self.note = note

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.functor, self.range_n, self.strong_degree, self.very_strong, self.evidence, self.note
        ) == (
            other.functor, other.range_n, other.strong_degree, other.very_strong, other.evidence, other.note
        )

    def to_json(self) -> dict:
        return {
            "functor": self.functor,
            "range": self.range_n,
            "strong_degree_at_range": self.strong_degree,
            "very_strong": self.very_strong,
            "evidence": [
                {"d": d, "max_nonzero_dim": m, "kappa_zero": k}
                for (d, m, k) in self.evidence
            ],
            "note": self.note,
        }


def estimate_strong_degree(
    f: BraidFunctor, big_n: int, d_max: int | None = None, seed: int = 0
) -> DegreeReport:
    """Iterate the difference functor and report the least d whose (d+1)-st
    difference vanishes on the examined window.

    The window shrinks by one level per iteration (each difference consumes
    one translation).  Conclusions are range-relative by construction; the
    very-strong flag additionally requires the evanescence of every iterate
    up to the concluded degree to vanish on its window.  When an inclusion
    of the previous iterate has no certified complement, the order-d
    difference is not determined: the report stops there with no degree.
    An uncertified inclusion inside the evanescence check leaves kappa_zero
    unknown (None, never False) unless another level has a certified
    nonzero kernel; the note names the level, and very_strong is never
    claimed from an unknown.
    """
    if d_max is None:
        d_max = big_n - 1
    current = f
    evidence = []
    unknown = []
    degree: int | None = None
    note = None
    # The last order examined: the window big_n - d must stay >= 0.
    last = min(d_max + 1, big_n)
    for d in range(0, last + 1):
        window = big_n - d
        try:
            dims = [current.dim(n) for n in range(0, window + 1)]
        except SplitCertificationError as exc:
            note = f"the order-{d} difference is not determined: {exc}"
            break
        max_dim = max(dims) if dims else 0
        if max_dim == 0:
            degree = d - 1
            evidence.append((d, 0, True))
            break
        kappa_zero, uncertified = True, None
        kappa = evanescence(current, window, seed)
        for n in range(0, window):
            try:
                if kappa.dim(n):
                    kappa_zero = False
                    break
            except SplitCertificationError as exc:
                uncertified = uncertified or exc
        if kappa_zero and uncertified:
            kappa_zero = None
            unknown.append(f"kappa of the order-{d} difference is unknown: {uncertified}")
        evidence.append((d, max_dim, kappa_zero))
        if d == last:
            break
        current = difference(current, window - 1, seed)
    very_strong = degree is not None and degree >= 0 and all(
        k is True for (d, _, k) in evidence if d <= degree
    )
    if note is None and degree is not None:
        note = f"differences iterated on shrinking windows from N={big_n}"
    elif note is None:
        note = f"no vanishing difference up to order {last} on N={big_n}"
    note = "; ".join([note] + unknown)
    return DegreeReport(f.name, big_n, degree, very_strong, evidence, note)


# ---------------------------------------------------------------------------
# Equivalences between thin functors
# ---------------------------------------------------------------------------


def unit_line_equivalence(
    f: BraidFunctor, g: BraidFunctor, big_n: int
) -> NaturalMap | None:
    """An explicit natural equivalence between functors whose levels are all
    zero- or one-dimensional, found by propagating unit components along
    stabilizations and then certified by the naturality check."""
    dims = [(f.dim(n), g.dim(n)) for n in range(big_n + 1)]
    if any(df != dg or df > 1 for df, dg in dims):
        return None
    comps: dict[int, PolyMatrix] = {}
    prev: int | None = None
    for n in range(big_n + 1):
        if dims[n][0] == 0:
            comps[n] = PolyMatrix.zeros(0, 0)
            continue
        if prev is None:
            comps[n] = PolyMatrix.identity(1)
        else:
            fs = f.stab(prev, n).entry(0, 0)
            gs = g.stab(prev, n).entry(0, 0)
            if fs.is_zero() or not fs.is_unit() or not gs.is_unit():
                return None
            comps[n] = comps[prev].scale(gs * fs.unit_inverse())
        prev = n
    eta = NaturalMap(f, g, lambda n: comps[n], name=f"{f.name}~{g.name}")
    report = check_natural(eta, big_n)
    return eta if report.passed else None


# ---------------------------------------------------------------------------
# Splitting-theorem verification
# ---------------------------------------------------------------------------


class TheoremReport:
    __slots__ = ("name", "params", "sections", "note")

    def __init__(self, name: str, params: dict, sections: list | None = None, note: str | None = None):
        self.name = name
        self.params = params
        self.sections = [] if sections is None else sections
        self.note = note

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.params, self.sections, self.note) == (
            other.name, other.params, other.sections, other.note
        )

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.sections)

    def add(self, report: CheckReport):
        self.sections.append(report)

    def to_json(self) -> dict:
        out = {
            "theorem": self.name,
            "verdict": "pass" if self.passed else "fail",
            "range": self.params,
            "sections": [r.to_json() for r in self.sections],
        }
        if self.note:
            out["note"] = self.note
        return out


def verify_difference_splitting(
    cfg: LongMoodyConfig, f: BraidFunctor, big_n: int, seed: int = 0
) -> TheoremReport:
    """The splitting of the difference of a Long-Moody image:

    (i)   [new | old] is invertible with unit determinant and natural as a
          map from translate(F, 2) ⊕ LM(translate F) to translate(LM F);
    (ii)  old ∘ LM(inclusion) equals the image's own inclusion (the lemma
          that aligns the two subobjects);
    (iii) the induced map on cokernels identifies difference(LM F) with
          translate(F, 2) ⊕ LM(difference F), by an explicit invertible
          intertwiner;
    (iv)  evanescence commutes with the construction, dimensionwise, with
          an explicit intertwiner when both sides are nonzero.

    A complement that (iii) or (iv) cannot certify raises
    SplitCertificationError, since "not determined" is never a failure;
    but when an earlier section has already failed, the failing report is
    returned, with a note naming the section and level not determined.

    Twisted configurations are refused: the side functor in (i) does not
    carry the pre-twist or post-scale, so (i) and (iii) fail on stabilizations
    even for coherent data, and no twisted form of the statement is derived.
    """
    if cfg.pre_twist is not None or cfg.post_scale is not None:
        raise CoherenceError(
            "difference splitting is verified only for untwisted configurations"
            f" (got {cfg.label()}): the side functor translate(F,2) + LM(translate F)"
            " does not carry the twist"
        )
    report = TheoremReport(
        "difference-splitting", {"N": big_n, "functor": f.name, "cfg": cfg.label()}
    )
    lm_f = long_moody(cfg, f)

    # (i) unit determinant, explicit inverse, and naturality.  [new | old]
    # is I_d ⊕ (I_n ⊗ F(r)), inverse to I_d ⊕ (I_n ⊗ F(r^-1)) when the one
    # block product is I (both are I_d at n = 0); then det(concat) is a unit.
    blocks = {n: router_blocks(cfg, f, n) for n in range(big_n + 1)}
    concat_components = {
        n: PolyMatrix.identity(f.dim(n + 2)).direct_sum(PolyMatrix.identity(n).kron(q))
        for n, (q, _) in blocks.items()
    }
    unit_check = CheckReport("concat-invertible", {"N": big_n})
    for n, (q, q_inv) in blocks.items():
        unit_check.checked += 2
        if n and q.matmul(q_inv) != PolyMatrix.identity(q.rows):
            unit_check.record(kind="inverse", n=n)
            det = concat_components[n].det()
            if not det.is_unit():
                unit_check.record(kind="determinant", n=n, det=str(det))
    report.add(unit_check)

    side = direct_sum(translate(f, 2), long_moody(cfg, translate(f, 1)))
    eta = NaturalMap(side, translate(lm_f, 1), lambda n: concat_components[n], "concat")
    nat = check_natural(eta, big_n)
    nat.name = "concat-natural"
    report.add(nat)

    # (ii) the inclusion lemma.
    report.add(check_inclusion_lemma(cfg, f, big_n))

    # (iii) and (iv) resolve complements.  One left uncertified leaves the
    # theorem undetermined, which stays an error unless a section has failed.
    try:
        # (iii) identification of the difference.
        section = "(iii)"
        delta_lm = difference(lm_f, big_n, seed)
        delta_f = difference(f, big_n + 1, seed)
        target = direct_sum(translate(f, 2), long_moody(cfg, delta_f))

        def identification(n: int) -> PolyMatrix:
            # The projector I_d ⊕ (I_n ⊗ P) times the inverse of [new | old].
            res_v = resolution(lm_f, n, seed)
            p_block = resolution(f, n + 1, seed).coprojection.matmul(blocks[n][1])
            lead = PolyMatrix.identity(f.dim(n + 2))
            return lead.direct_sum(PolyMatrix.identity(n).kron(p_block)).matmul(res_v.complement)

        psi_components = {n: identification(n) for n in range(big_n + 1)}
        unit_psi = CheckReport("identification-invertible", {"N": big_n})
        for n in range(big_n + 1):
            m = psi_components[n]
            unit_psi.expect(m.rows == m.cols, kind="shape", n=n, rows=m.rows, cols=m.cols)
            if m.rows == m.cols and m.rows and not m.det().is_unit():
                unit_psi.record(kind="determinant", n=n)
        report.add(unit_psi)
        eta2 = NaturalMap(delta_lm, target, lambda n: psi_components[n], "identification")
        nat2 = check_natural(eta2, big_n)
        nat2.name = "difference-identification"
        report.add(nat2)

        # (iv) evanescence commutation, dimensionwise plus intertwiner.
        section = "(iv)"
        kap_lm = evanescence(lm_f, big_n, seed)
        kap_f = evanescence(f, big_n + 1, seed)
        lm_kap = long_moody(cfg, kap_f)
        kap_check = CheckReport("evanescence-commutation", {"N": big_n})
        for n in range(big_n + 1):
            left, right = kap_lm.dim(n), lm_kap.dim(n)
            kap_check.expect(left == right, kind="dimension", n=n, left=left, right=right)
        if kap_check.passed and any(kap_lm.dim(n) for n in range(big_n + 1)):
            eta3 = NaturalMap(
                kap_lm, lm_kap, lambda n: PolyMatrix.identity(kap_lm.dim(n)), "evanescence"
            )
            sub = check_natural(eta3, big_n)
            for fail in sub.failures:
                kap_check.record(kind="intertwiner", **fail)
            kap_check.checked += sub.checked
        report.add(kap_check)
    except SplitCertificationError as exc:
        if report.passed:
            raise
        report.note = f"section {section} is not determined: {exc}"
    return report


def verify_degree_growth(
    cfg: LongMoodyConfig, f: BraidFunctor, big_n: int, seed: int = 0
) -> dict:
    """Degrees before and after one application of the construction; the
    image's strong degree must exceed the input's by exactly one, with the
    very-strong property preserved."""
    before = estimate_strong_degree(f, big_n, seed=seed)
    after = estimate_strong_degree(long_moody(cfg, f), big_n, seed=seed)
    ok = (
        before.strong_degree is not None
        and after.strong_degree == before.strong_degree + 1
        and (not before.very_strong or after.very_strong)
    )
    return {
        "verdict": "pass" if ok else "fail",
        "input": before.to_json(),
        "image": after.to_json(),
    }


def translation_degree_checks(f: BraidFunctor, big_n: int, ks=(1, 2), seed: int = 0) -> dict:
    """Translation preserves the very-strong degree; recorded per shift."""
    base = estimate_strong_degree(f, big_n, seed=seed)
    shifts = {}
    ok = base.very_strong
    for k in ks:
        shifted = estimate_strong_degree(translate(f, k), big_n - k, seed=seed)
        shifts[k] = shifted.to_json()
        if shifted.strong_degree != base.strong_degree or not shifted.very_strong:
            ok = False
    return {"verdict": "pass" if ok else "fail", "base": base.to_json(), "shifted": shifts}
