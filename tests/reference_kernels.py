"""Reference versions of the exact kernels of lmkit.laurent, kept for the
tests to compare against: the dense-row Montante elimination, the inverse
built on it, the evaluation of a polynomial and of a matrix over Fraction and
the pivot guess over Fraction; the functor and naturality checks of
lmkit.repfun, and the action-compatibility and factorization checks of
lmkit.longmoody, on every identity, before they were reduced to one-step
data; first-generator-return on every router, before it was decided on
stored letter maps, and the splitting maps of the Long-Moody image as the
two matrices they were before one router block decided them;
enumerate_words and word_map, the all-words enumeration and the action of
a word that those loops and the all-words references run on;
artin_images_by_compose, the Artin action of a braid word as the composite
of its letters' free-group maps; artin_witness_by_cores, the coherence
witness as it was decided on the words' cores before each whole word was
folded once; evaluate_by_compose, a local system's image of a free word
as the fold of compose over its syllables, before
evaluate joined them in one pass; burau_dicts, the oracle's unreduced Burau
matrix with each column a dict before the columns were packed into ints;
lk_scaled_equal_packed, the oracle's Lawrence-Krammer comparison at one
point on the packed matrices alone, before a residue row decided most of
its "unequal" answers; hstack, the side-by-side matrix that the split references assemble; and the
free-group oracles: Fox's formula expanded back into the group ring, and a
free-group map pushed forward on the group ring and on the augmentation
ideal; and the zero-map rules of the degree calculus before zero maps cost
nothing: router_first_translate, whose one-step map multiplies F(router)
into F's one-step map even when that map is zero, resolve_with_rows_zero_split,
which splits a zero inclusion through split_at_rows with unflagged
identities, and allocating_unit_inverse, which builds a new polynomial for
the inverse of 1."""

from fractions import Fraction

from lmkit.braidcat import (
    BraidWord, _cores, _lk_scaled_generators, artin_images, lk_numeric, lk_width, router,
    shift_letter, signed_letters, trivial_system,
)
from lmkit.freegroup import (
    AugIdealElement, FreeGroupMap, FreeWord, GroupRingElement, fox_derivatives, reduced_words,
)
from lmkit.laurent import ONE, ZERO, LaurentError, LaurentPoly, PolyMatrix, _matrix, _quo, exact_div
from lmkit.longmoody import LongMoodyConfig, artin_family, long_moody
from lmkit.polyfun import resolve_inclusion
from lmkit.repfun import BraidFunctor, CheckReport, constant_functor, split_at_rows, translate


def enumerate_words(strands, max_len):
    """All freely reduced braid words of length at most max_len, breadth
    first in the letter order of lmkit.braidcat.signed_letters."""
    return [BraidWord(strands, w) for w in reduced_words(strands - 1, max_len)]


def word_map(action, n, word):
    """The automorphism of F_n by which a braid word on n strands acts: its
    letters' stored maps composed in list order, the first outermost."""
    assert word.strands == n, "word strand count must match the level"
    acc = action.generator_map(n, word.letters[0]) if word.letters else FreeGroupMap.identity(n)
    for letter in word.letters[1:]:
        acc = acc.compose(action.generator_map(n, letter))
    return acc


def artin_images_by_compose(word):
    """The images of g1..gn under a braid word on n strands, as
    lmkit.braidcat.artin_images returns them (signed-generator tuples), from
    word_map: artin_generator_map of each letter, composed in list order."""
    images = word_map(artin_family(), word.strands, word).images
    return tuple(
        tuple(gen if exp > 0 else -gen for gen, exp in image.syllables for _ in range(abs(exp)))
        for image in images
    )


def artin_witness_by_cores(lhs, rhs):
    """lmkit.braidcat.artin_witness as it was before each word was folded
    once: the cores (the words less their longest common prefix and suffix)
    decide, and a miss folds the two whole words again for the witness."""
    if lhs.letters == rhs.letters:
        return None
    u, v = _cores(lhs, rhs)
    images = artin_images(u), artin_images(v)
    if images[0] == images[1]:
        return None
    if (u, v) != (lhs, rhs):
        images = artin_images(lhs), artin_images(rhs)

    def text(image):
        return str(FreeWord(lhs.strands, tuple((abs(x), 1 if x > 0 else -1) for x in image)))

    j, (a, b) = next((j, pair) for j, pair in enumerate(zip(*images), 1) if pair[0] != pair[1])
    return {"reason": "artin action differs", "image_of": f"g{j}", "lhs": text(a), "rhs": text(b)}


def evaluate_by_compose(system, w):
    """system's braid image of the free word w, composed syllable by
    syllable from the generator images raised to their exponents, each
    composite freely reduced."""
    out = BraidWord.identity(w.rank + 1)
    for gen, exp in w.syllables:
        out = out.compose(system.generator_image(w.rank, gen) ** exp)
    return out


def burau_dicts(word):
    """Unreduced Burau matrix of a braid word as sparse columns
    {e·n + r: c}, c the coefficient of t^e in row r, accumulated by right
    multiplication in letter order.  (e, r) -> e·n + r is a bijection from
    Z x [0, n) to Z, so the dicts are canonical, and t^±1 adds ±n to every
    key; lmkit.braidcat.burau_symbolic keeps the same coefficient in slot
    e·n + r + neg·n of an int."""
    n = word.strands

    def mix(a, b, shift):
        # a - t^±1·a + b, t^±1 adding shift = ±n to a key; zero
        # coefficients are dropped, so equal columns are equal dicts.
        out = dict(a)
        for k, v in a.items():
            out[k + shift] = out.get(k + shift, 0) - v
        for k, v in b.items():
            out[k] = out.get(k, 0) + v
        return {k: v for k, v in out.items() if v}

    state = [{r: 1} for r in range(n)]
    for letter in word.letters:
        i = abs(letter) - 1
        ci, cj = state[i], state[i + 1]
        if letter > 0:
            # columns of the generator: e_i -> (1-t) e_i + e_{i+1},  e_{i+1} -> t e_i
            state[i] = mix(ci, cj, n)
            state[i + 1] = {k + n: v for k, v in ci.items()}
        else:
            # e_i -> t^-1 e_{i+1},  e_{i+1} -> e_i + (1-t^-1) e_{i+1}
            state[i] = {k - n: v for k, v in cj.items()}
            state[i + 1] = mix(cj, ci, -n)
    return state


def lk_scaled_equal_packed(u, v, point):
    """LK(u) == LK(v) at the point, exactly, as lmkit.braidcat's
    _lk_scaled_equal decided it on the packed matrices alone: the shorter
    side makes up the gap in scale powers, both packed in the slots of the
    longer one."""
    if len(u.letters) > len(v.letters):
        u, v = v, u
    table = _lk_scaled_generators(u.strands, point)
    width = lk_width(table, len(v.letters))
    mu, mv = lk_numeric(u, table, width), lk_numeric(v, table, width)
    gap = len(v.letters) - len(u.letters)
    if gap:
        factor = table[0] ** gap
        mu = [x * factor for x in mu]
    return mu == mv


def dense_montante(m, n):
    """Fraction-free complete (Montante) elimination of the first n columns
    of the dense rows m, in place; returns the signed last pivot, or ZERO
    when a column has no pivot.

    With columns past n every other row is cleared, and at the end every
    diagonal entry is the last pivot d and the columns past n hold d times
    their solution.  With none only the determinant is wanted, and each
    step updates only the rows below the pivot, right of the pivot column
    (Bareiss order)."""
    sign = 1
    prev = ONE
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if m[i][k].terms), None)
        if pivot_row is None:
            return ZERO
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        p = m[k][k]
        first = k + 1 if len(m[k]) == n else 0
        for i in range(first, n):
            if i == k:
                continue
            coef = m[i][k]
            for j in range(first, len(m[k])):
                if j == k:
                    continue
                num = p * m[i][j]
                if coef.terms:
                    num = num - coef * m[k][j]
                m[i][j] = exact_div(num, prev) if num.terms else ZERO
            m[i][k] = ZERO
        prev = p
    return prev if sign == 1 else -prev


def dense_det(a):
    """The last pivot of the dense Montante pass over the whole matrix."""
    return dense_montante(a.to_rows(), a.rows)


def dense_inverse(a):
    """Inverse of a square matrix: dense_montante on [A | I] leaves
    det(A)·A^{-1} in the right half, which is divided by the determinant."""
    n = a.rows
    if n == 0:
        return a
    m = [row + [ONE if r == c else ZERO for c in range(n)] for r, row in enumerate(a.to_rows())]
    det = dense_montante(m, n)
    if not det:
        raise LaurentError("matrix is singular")
    if not det.is_unit():
        raise LaurentError(f"determinant {det} is not a unit; no inverse over the ring")
    d = m[n - 1][n - 1]
    d_inv = d.unit_inverse()
    entries = {}
    for r in range(n):
        if m[r][r] != d:
            raise LaurentError("elimination failed to reach scalar form")
        for c in range(n):
            v = m[r][n + c]
            if v.terms:
                entries[(r, c)] = v * d_inv
    return PolyMatrix(n, n, entries)


def value_at(p, point):
    """The exact value of the Laurent polynomial p at the point."""
    t, q = point.t_value, point.q_value
    return sum((c * t**a * q**b for (a, b), c in p.terms.items()), Fraction(0))


def evaluated(a, point):
    """The dense rows of the matrix a evaluated at the point, over Fraction."""
    out = [[Fraction(0)] * a.cols for _ in range(a.rows)]
    for (r, c), p in a.entries.items():
        out[r][c] = value_at(p, point)
    return out


def fraction_pivot_rows(a, point):
    """Row indices carrying pivots when the matrix evaluated over Fraction
    at the point is reduced by columns, a column pivoting on a row whose
    entry in it is a unit when it can."""
    m = evaluated(a, point)
    rows = range(a.rows)
    basis: list[tuple[int, list[Fraction]]] = []
    for c in range(a.cols):
        v = [m[r][c] for r in rows]
        for bp, bv in basis:
            factor = v[bp]
            if factor:
                for r in rows:
                    v[r] -= factor * bv[r]
        live = [r for r in rows if v[r]]
        if not live:
            continue
        piv = next((r for r in live if a.entry(r, c).is_unit()), live[0])
        scale = v[piv]
        basis.append((piv, [x / scale for x in v]))
    return sorted(bp for bp, _ in basis)


def full_check_functor(f, big_n, word_len=3):
    """check_functor as it was before it decided on one-step data: the
    stab-composition loop, the intertwining of every signed letter and the
    empty word at every n <= n', and the psi checks at every n' - n.  The
    reduced check gives the same verdict by proof; the tests hold its first
    witness to this one's on a grid of functors."""
    report = CheckReport("functor-criterion", {"N": big_n, "L": word_len, "functor": f.name})
    for n in range(2, big_n + 1):
        for i in range(1, n - 1):
            a, b = f.gen_matrix(n, i), f.gen_matrix(n, i + 1)
            report.expect(
                a.matmul(b).matmul(a) == b.matmul(a).matmul(b),
                kind="braid-relation", n=n, i=i,
            )
        for i in range(1, n):
            for j in range(i + 2, n):
                a, b = f.gen_matrix(n, i), f.gen_matrix(n, j)
                report.expect(a.matmul(b) == b.matmul(a), kind="commutation", n=n, i=i, j=j)
            try:
                inverse = f.gen_matrix(n, -i)
            except LaurentError as exc:
                report.expect(False, kind="inverse", n=n, i=i, error=str(exc))
            else:
                ok = f.gen_matrix(n, i).matmul(inverse) == PolyMatrix.identity(f.dim(n))
                report.expect(ok, kind="inverse", n=n, i=i)
    for n in range(0, big_n + 1):
        for n1 in range(n, big_n + 1):
            for n2 in range(n1, big_n + 1):
                report.expect(
                    f.stab(n1, n2).matmul(f.stab(n, n1)) == f.stab(n, n2),
                    kind="stab-composition", n=n, mid=n1, top=n2,
                )
    for n in range(0, big_n + 1):
        for n2 in range(n, big_n + 1):
            stab = f.stab(n, n2)
            k = n2 - n
            for sigma in enumerate_words(n, min(word_len, 1)):
                try:
                    lhs = stab.matmul(f.word_matrix(sigma))
                    rhs = f.word_matrix(sigma.shift(k, n2)).matmul(stab)
                except LaurentError:
                    continue  # a singular letter, already an inverse failure
                report.expect(
                    lhs == rhs, kind="intertwining", n=n, n2=n2, word=list(sigma.letters), psi=[]
                )
            for psi in enumerate_words(k, min(word_len, 1))[1:]:
                try:
                    m_psi = f.word_matrix(psi.monoidal(BraidWord.identity(n)))
                except LaurentError:
                    continue
                report.expect(
                    m_psi.matmul(stab) == stab,
                    kind="intertwining", n=n, n2=n2, word=[], psi=list(psi.letters),
                )
    return report


def full_check_natural(eta, big_n, include_stab=True):
    """check_natural as it was before it kept only the one-step
    stabilization squares: every n <= n' <= big_n."""
    report = CheckReport(
        "natural-transformation",
        {"N": big_n, "map": eta.name, "stab": include_stab},
    )
    for n in range(0, big_n + 1):
        comp = eta.component(n)
        for i in range(1, n):
            lhs = comp.matmul(eta.source.gen_matrix(n, i))
            rhs = eta.target.gen_matrix(n, i).matmul(comp)
            report.expect(lhs == rhs, kind="generator", n=n, i=i)
        if include_stab:
            for n2 in range(n, big_n + 1):
                lhs = eta.component(n2).matmul(eta.source.stab(n, n2))
                rhs = eta.target.stab(n, n2).matmul(comp)
                report.expect(lhs == rhs, kind="stabilization", n=n, n2=n2)
    return report


def full_action_compatibility(action, big_n, word_len):
    """The witnesses of action compatibility as check_coherence found them
    before it kept only the one-step (sigma, id) and two-step (id, s1^±1)
    pairs: (id, psi) and (sigma, id) for every n < n' <= big_n, the empty
    words included, in enumeration order."""
    for n in range(0, big_n + 1):
        sigma_words = enumerate_words(n, min(word_len, 1))
        sigma_maps = [(w, word_map(action, n, w)) for w in sigma_words]
        for n2 in range(n + 1, big_n + 1):
            k = n2 - n
            psi_words = enumerate_words(k, min(word_len, 1))
            for sigma, sigma_map in sigma_maps:
                shifted_images = [
                    sigma_map.apply_word(FreeWord.generator(n, i)).shifted(k, n2)
                    for i in range(1, n + 1)
                ]
                for psi in psi_words if not sigma.letters else psi_words[:1]:
                    full_map = word_map(action, n2, psi.monoidal(sigma))
                    for i in range(1, n + 1):
                        got = full_map.apply_word(FreeWord.generator(n2, i + k))
                        if got != shifted_images[i - 1]:
                            yield {
                                "n": n,
                                "n2": n2,
                                "word": list(sigma.letters),
                                "psi": list(psi.letters),
                                "generator": f"g{i}",
                            }


def full_first_generator_return(action, big_n):
    """The witnesses of first-generator-return as check_reliability found
    them before it read one stored letter image per (rank, index): the
    action of every router(1, n, n') on g_{n'-n+1}, 0 <= n < n' <= big_n, in
    that order."""
    for n in range(0, big_n + 1):
        for n2 in range(n + 1, big_n + 1):
            got = word_map(action, n2 + 1, router(1, n, n2)).apply_word(
                FreeWord.generator(n2 + 1, n2 - n + 1)
            )
            if got != FreeWord.generator(n2 + 1, 1):
                yield {"n": n, "n2": n2, "image": str(got)}


def two_block_splitting(f, n):
    """[new_block | old_blocks] and its inverse as verify_difference_splitting
    assembled them before they were read off the router blocks: new_block
    hits the first of the n+1 blocks of size f.dim(n+2), old_blocks shifts
    block j to j+1 and twists it by f of router(1, n, n+1) (an untwisted
    configuration), and the inverse is assembled from f of the inverse
    router."""
    d2 = f.dim(n + 2)
    new_block = _matrix((n + 1) * d2, d2, {(r, r): ONE for r in range(d2)})
    word = router(1, n, n + 1)
    old_blocks = PolyMatrix.zeros(d2, 0).direct_sum(PolyMatrix.identity(n).kron(f.word_matrix(word)))
    inverse = PolyMatrix.identity(d2).direct_sum(
        PolyMatrix.identity(n).kron(f.word_matrix(word.inverse()))
    )
    return hstack(new_block, old_blocks), inverse


def hstack(a, b):
    """The columns of a followed by those of b (PolyMatrix.hstack before it
    left src)."""
    assert a.rows == b.rows
    entries = dict(a.entries)
    entries.update({(r, c + a.cols): p for (r, c), p in b.entries.items()})
    return _matrix(a.rows, a.cols + b.cols, entries)


def full_check_factorization(action, f, big_n):
    """check_factorization as it was before it kept only the one-step
    stabilizations: every n <= n' <= big_n."""
    cfg = LongMoodyConfig(action, trivial_system())
    lm_f = long_moody(cfg, f)
    lm_x = long_moody(cfg, constant_functor())
    tau_f = translate(f, 1)
    report = CheckReport(
        "trivial-system-factorization", {"N": big_n, "functor": f.name, "action": action.name}
    )
    for n in range(0, big_n + 1):
        for i in signed_letters(n):
            ok = lm_f.gen_matrix(n, i) == lm_x.gen_matrix(n, i).kron(tau_f.gen_matrix(n, i))
            report.expect(ok, kind="generator", n=n, i=i)
        for n2 in range(n, big_n + 1):
            ok = lm_f.stab(n, n2) == lm_x.stab(n, n2).kron(tau_f.stab(n, n2))
            report.expect(ok, kind="stabilization", n=n, n2=n2)
    return report


def expand(x):
    """The group-ring element sum_i (gi - 1)·coords[i] of the
    augmentation-ideal element x: Fox's formula read backwards."""
    one = GroupRingElement.one(x.rank)
    total = GroupRingElement.zero(x.rank)
    for i, c in enumerate(x.coords, start=1):
        total = total + (GroupRingElement.from_word(FreeWord.generator(x.rank, i)) - one) * c
    return total


def apply_ring(phi, x):
    """The free-group map phi extended linearly to the group ring."""
    out = GroupRingElement.zero(phi.target_rank)
    for w, c in x.terms.items():
        out = out + GroupRingElement.from_word(phi.apply_word(w), c)
    return out


def apply_aug(phi, x):
    """phi pushed forward on the augmentation ideal: the image phi(gi) - 1
    of (gi - 1) is re-expanded on the target basis by its Fox coordinates,
    and the coefficients travel through phi as ring elements."""
    out = [GroupRingElement.zero(phi.target_rank)] * phi.target_rank
    for image, ci in zip(phi.images, x.coords):
        pushed = apply_ring(phi, ci)
        for j, d in enumerate(fox_derivatives(image).coords):
            out[j] = out[j] + d * pushed
    return AugIdealElement(phi.target_rank, out)


def router_first_translate(f, k):
    """repfun.translate as it was before a zero one-step map skipped its
    router: every one-step map is F(router(k, n, n+1)) times F's one-step
    map k+n -> k+n+1, the router's matrix built first."""
    if k == 0:
        return f
    return BraidFunctor(
        f"tau({k};{f.name})",
        lambda n: f.dim(k + n),
        lambda n, i: f.gen_matrix(k + n, shift_letter(i, k)),
        lambda n: f.word_matrix(router(k, n, n + 1)).matmul(f.stab(k + n, k + n + 1)),
        eval_range=f.eval_range - k,
    )


def resolve_with_rows_zero_split(f, n, seed=0):
    """polyfun.resolve_inclusion as it was before a zero inclusion split on
    flagged identities: the zero map gets split_at_rows of the empty
    inclusion, whose complement and coprojection are identities by value
    only, so every product through them is formed."""
    incl = f.stab(n, n + 1)
    if incl.is_zero():
        return split_at_rows(PolyMatrix.zeros(incl.rows, 0), [], PolyMatrix.zeros(0, 0))
    return resolve_inclusion(f, n, seed)


def allocating_unit_inverse(p):
    """LaurentPoly.unit_inverse as it was before the inverse of 1 was ONE
    itself: a new polynomial for every unit."""
    if not p.is_unit():
        raise LaurentError(f"not invertible: {p}")
    ((a, b), c), = p.terms.items()
    return LaurentPoly({(-a, -b): _quo(1, c)})
