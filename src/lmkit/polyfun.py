"""The polynomiality calculus: translation, evanescence, and difference of
braid functors, range-relative strong-degree estimation, and executable
verification of the splitting and degree-growth theorems for the
Long-Moody construction.

Kernels and cokernels of the canonical inclusion F -> translate(F) are
computed only from certified split stabilizations: either data declared by
the functor (all built-ins, and everything the construction propagates) or
a complement found by evaluation pivoting and then certified symbolically.
Degree conclusions are therefore exact but range-relative: a report says
"the (d+1)-st difference vanishes on levels <= N", never more.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .laurent import LaurentError, PolyMatrix, ONE, seeded_points
from .repfun import (
    BraidFunctor,
    CheckReport,
    NaturalMap,
    SplitData,
    check_natural,
    direct_sum,
    translate,
)
from .longmoody import (
    CoherenceError,
    LongMoodyConfig,
    check_inclusion_lemma,
    long_moody,
    splitting_concat_inverse,
    splitting_maps,
)


class SplitCertificationError(RuntimeError):
    """Raised when no certified complement of a stabilization is found."""


@dataclass
class SplitStabilization:
    """A certified analysis of one canonical inclusion F(n) -> F(n+1).

    kind is "split" when the inclusion is split injective with an explicit
    retraction and complement, or "zero" when it is the zero map out of a
    nonzero module (then the kernel is everything and the whole target is
    the cokernel).
    """

    inclusion: PolyMatrix
    kind: str
    data: SplitData | None = None

    @property
    def kernel_dim(self) -> int:
        return 0 if self.kind == "split" else self.inclusion.cols

    @property
    def coker_dim(self) -> int:
        if self.kind == "split":
            return self.data.complement.cols
        return self.inclusion.rows

    @property
    def complement(self) -> PolyMatrix:
        if self.kind == "split":
            return self.data.complement
        return PolyMatrix.identity(self.inclusion.rows)

    @property
    def coprojection(self) -> PolyMatrix:
        if self.kind == "split":
            return self.data.coprojection
        return PolyMatrix.identity(self.inclusion.rows)


_PIVOT_POINTS = 4


def resolve_inclusion(f: BraidFunctor, n: int, seed: int = 0) -> SplitStabilization:
    """Classify and certify the canonical inclusion at level n.

    Resolution order: trivial source; splitting data declared by the
    functor; literal zero map; complement search at _PIVOT_POINTS seeded
    evaluation points followed by symbolic certification.  An unresolvable
    inclusion raises SplitCertificationError rather than silently degrading.
    """
    incl = f.stab(n, n + 1)
    d_src, d_tgt = incl.cols, incl.rows
    if d_src == 0:
        data = SplitData(
            PolyMatrix.zeros(0, d_tgt),
            PolyMatrix.identity(d_tgt),
            PolyMatrix.identity(d_tgt),
        )
        return SplitStabilization(incl, "split", data)
    declared = f.split(n, n + 1)
    if declared is not None and declared.certify(incl):
        return SplitStabilization(incl, "split", declared)
    if incl.is_zero():
        return SplitStabilization(incl, "zero")
    # Guess a complement from the pivot structure at random points, then
    # certify it exactly.
    for point in seeded_points(_PIVOT_POINTS, seed):
        pivots = incl.pivot_rows_at(point)
        if len(pivots) != d_src:
            continue
        missing = [r for r in range(d_tgt) if r not in set(pivots)]
        complement = PolyMatrix(
            d_tgt, len(missing), {(r, i): ONE for i, r in enumerate(missing)}
        )
        square = incl.hstack(complement)
        try:
            inverse = square.inverse()
        except LaurentError:
            continue
        retraction = inverse.submatrix(range(d_src), range(d_tgt))
        coprojection = inverse.submatrix(range(d_src, d_tgt), range(d_tgt))
        data = SplitData(retraction, complement, coprojection)
        if data.certify(incl):
            return SplitStabilization(incl, "split", data)
    raise SplitCertificationError(
        f"{f.name}: no certified complement for the inclusion at level {n}"
    )


class InclusionCache:
    """Shared per-functor resolution cache so that difference functors and
    the identifications built on top of them use the same complements."""

    def __init__(self, f: BraidFunctor, seed: int = 0):
        self.functor = f
        self.seed = seed
        self._cache: dict = {}

    def at(self, n: int) -> SplitStabilization:
        if n not in self._cache:
            self._cache[n] = resolve_inclusion(self.functor, n, self.seed)
        return self._cache[n]


def evanescence(f: BraidFunctor, big_n: int, seed: int = 0) -> BraidFunctor:
    """The kernel of the canonical inclusion into the translate.

    On the certified range every inclusion is either split injective
    (kernel zero) or the zero map (kernel everything); intermediate cases
    raise rather than guess.
    """
    cache = InclusionCache(f, seed)

    def dim(n):
        return cache.at(n).kernel_dim

    def gen(n, letter):
        if dim(n) == 0:
            return PolyMatrix.zeros(0, 0)
        return f.gen_matrix(n, letter)

    def stab(n, n2):
        if dim(n) and dim(n2):
            return f.stab(n, n2)
        return PolyMatrix.zeros(dim(n2), dim(n))

    return BraidFunctor(
        f"kappa({f.name})",
        dim,
        gen,
        stab,
        neg_rule=lambda n, i: gen(n, -i),
        eval_range=min(big_n, f.eval_range - 1),
    )


def difference(
    f: BraidFunctor, big_n: int, seed: int = 0, cache: InclusionCache | None = None
) -> BraidFunctor:
    """The cokernel of the canonical inclusion into the translate, realized
    on the certified complements.

    Generator matrices and stabilizations are the compressions of the
    translated ones; compression is exact because the translated morphisms
    preserve the image of the inclusion (the functor criterion).
    """
    cache = cache or InclusionCache(f, seed)
    tau = translate(f, 1)

    def dim(n):
        return cache.at(n).coker_dim

    def gen(n, letter):
        res = cache.at(n)
        return res.coprojection.matmul(tau.gen_matrix(n, letter)).matmul(res.complement)

    def stab(n, n2):
        lo, hi = cache.at(n), cache.at(n2)
        return hi.coprojection.matmul(tau.stab(n, n2)).matmul(lo.complement)

    return BraidFunctor(
        f"delta({f.name})",
        dim,
        gen,
        stab,
        neg_rule=lambda n, i: gen(n, -i),
        eval_range=min(big_n, f.eval_range - 1),
    )


# ---------------------------------------------------------------------------
# Degree estimation
# ---------------------------------------------------------------------------


@dataclass
class DegreeReport:
    functor: str
    range_n: int
    strong_degree: int | None
    very_strong: bool
    evidence: list
    note: str = ""

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
    for d in range(0, d_max + 2):
        window = big_n - d
        if window < 0:
            break
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
        cache = InclusionCache(current, seed)
        kappa_zero, uncertified = True, None
        for n in range(0, window):
            try:
                if cache.at(n).kernel_dim:
                    kappa_zero = False
                    break
            except SplitCertificationError as exc:
                uncertified = uncertified or exc
        if kappa_zero and uncertified:
            kappa_zero = None
            unknown.append(f"kappa of the order-{d} difference is unknown: {uncertified}")
        evidence.append((d, max_dim, kappa_zero))
        if d == d_max + 1:
            break
        current = difference(current, window - 1, seed, cache)
    very_strong = degree is not None and degree >= 0 and all(
        k is True for (d, _, k) in evidence if d <= degree
    )
    if note is None and degree is not None:
        note = f"differences iterated on shrinking windows from N={big_n}"
    elif note is None:
        note = f"no vanishing difference up to order {d_max + 1} on N={big_n}"
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
    stabilizations and then certified by the full naturality check."""
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


@dataclass
class TheoremReport:
    name: str
    params: dict
    sections: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.sections)

    def add(self, report: CheckReport):
        self.sections.append(report)

    def to_json(self) -> dict:
        return {
            "theorem": self.name,
            "verdict": "pass" if self.passed else "fail",
            "range": self.params,
            "sections": [r.to_json() for r in self.sections],
        }


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

    # (i) unit determinant, explicit inverse, and naturality.
    concat_components = {}
    unit_check = CheckReport("concat-invertible", {"N": big_n})
    for n in range(big_n + 1):
        new_block, old_blocks = splitting_maps(cfg, f, n)
        concat = new_block.hstack(old_blocks)
        concat_components[n] = concat
        inv = splitting_concat_inverse(cfg, f, n)
        unit_check.checked += 1
        if concat.matmul(inv) != PolyMatrix.identity(concat.rows):
            unit_check.record(kind="inverse", n=n)
        det = concat.det()
        unit_check.checked += 1
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

    # (iii) identification of the difference.
    f_cache = InclusionCache(f, seed)
    lm_cache = InclusionCache(lm_f, seed)
    delta_lm = difference(lm_f, big_n, seed, cache=lm_cache)
    delta_f = difference(f, big_n + 1, seed, cache=f_cache)
    target = direct_sum(translate(f, 2), long_moody(cfg, delta_f))

    def identification(n: int) -> PolyMatrix:
        res_v = lm_cache.at(n)
        p_inv = splitting_concat_inverse(cfg, f, n)
        p_block = f_cache.at(n + 1).coprojection
        projector = PolyMatrix.identity(f.dim(n + 2)).direct_sum(
            PolyMatrix.identity(n).kron(p_block)
        )
        return projector.matmul(p_inv).matmul(res_v.complement)

    psi_components = {n: identification(n) for n in range(big_n + 1)}
    unit_psi = CheckReport("identification-invertible", {"N": big_n})
    for n in range(big_n + 1):
        m = psi_components[n]
        unit_psi.checked += 1
        if m.rows != m.cols:
            unit_psi.record(kind="shape", n=n, rows=m.rows, cols=m.cols)
            continue
        if m.rows and not m.det().is_unit():
            unit_psi.record(kind="determinant", n=n)
    report.add(unit_psi)
    eta2 = NaturalMap(delta_lm, target, lambda n: psi_components[n], "identification")
    nat2 = check_natural(eta2, big_n)
    nat2.name = "difference-identification"
    report.add(nat2)

    # (iv) evanescence commutation, dimensionwise plus intertwiner.
    kap_lm = evanescence(lm_f, big_n, seed)
    kap_f = evanescence(f, big_n + 1, seed)
    lm_kap = long_moody(cfg, kap_f)
    kap_check = CheckReport("evanescence-commutation", {"N": big_n})
    for n in range(big_n + 1):
        kap_check.checked += 1
        if kap_lm.dim(n) != lm_kap.dim(n):
            kap_check.record(kind="dimension", n=n, left=kap_lm.dim(n), right=lm_kap.dim(n))
    if kap_check.passed and any(kap_lm.dim(n) for n in range(big_n + 1)):
        eta3 = NaturalMap(
            kap_lm, lm_kap, lambda n: PolyMatrix.identity(kap_lm.dim(n)), "evanescence"
        )
        sub = check_natural(eta3, big_n)
        for fail in sub.failures:
            kap_check.record(kind="intertwiner", **fail)
        kap_check.checked += sub.checked
    report.add(kap_check)
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
