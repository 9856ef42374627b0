"""Value semantics of lmkit's record classes: the per-point tables key on
evaluation points, the module tables on rules, and callers compare words,
morphisms, configurations and reports by value.  Every class is built once
positionally and once by keyword, so the signatures and defaults are held
too."""

from fractions import Fraction

import pytest

from lmkit import braidcat
from lmkit.laurent import EvaluationPoint, LaurentError, ONE, PolyMatrix, T
from lmkit.freegroup import FreeGroupError, FreeWord, WadaPair, artin_generator_map, parse_word
from lmkit.braidcat import (
    BraidError,
    BraidWord,
    BracketMorphism,
    LocalSystem,
    _lk_scaled_generators,
    trivial_system,
)
from lmkit.repfun import CheckReport, NaturalMap, SplitData, constant_functor
from lmkit.longmoody import (
    ActionFamily,
    CoherenceError,
    CoherenceReport,
    ConditionResult,
    LongMoodyConfig,
    artin_family,
)
from lmkit.polyfun import DegreeReport, TheoremReport

CONSTANT = constant_functor()


def _identity_rule(n, i):
    return BraidWord.identity(n + 1)


def _crossing_rule(n, i):
    return BraidWord(n + 1, (1,))


def _component(n):
    return PolyMatrix.identity(1)


def _w2(text):
    return parse_word(text, 2)


# Per class: built positionally, the same value built by keyword, a
# different value, and whether the class is hashable.
VALUES = {
    "EvaluationPoint": (
        lambda: EvaluationPoint(2, Fraction(3, 4)),
        lambda: EvaluationPoint(q_value=Fraction(3, 4), t_value=Fraction(2)),
        lambda: EvaluationPoint(2, Fraction(4, 3)),
        True,
    ),
    "FreeWord": (
        lambda: FreeWord(2, ((1, 1), (2, 1), (2, -2))),
        lambda: FreeWord(syllables=((1, 1), (2, -1)), rank=2),
        lambda: FreeWord(3, ((1, 1), (2, -1))),
        True,
    ),
    "WadaPair": (
        lambda: WadaPair(_w2("g2"), _w2("g1^-1")),
        lambda: WadaPair(v=_w2("g1^-1"), w=_w2("g2")),
        lambda: WadaPair(_w2("g1^-1"), _w2("g2")),
        True,
    ),
    "BraidWord": (
        lambda: BraidWord(3, (1, 2, -2, -2)),
        lambda: BraidWord(letters=(1, -2), strands=3),
        lambda: BraidWord(4, (1, -2)),
        True,
    ),
    "BracketMorphism": (
        lambda: BracketMorphism(1, 3, BraidWord(3, (2,))),
        lambda: BracketMorphism(word=BraidWord(3, (2,)), target=3, source=1),
        lambda: BracketMorphism(2, 3, BraidWord(3, (2,))),
        True,
    ),
    # Equality ignores the rule.
    "LocalSystem": (
        lambda: LocalSystem("s", _identity_rule),
        lambda: LocalSystem(rule=_crossing_rule, name="s"),
        lambda: LocalSystem("t", _identity_rule),
        True,
    ),
    "SplitData": (
        lambda: SplitData(PolyMatrix.identity(1), PolyMatrix.zeros(1, 0), PolyMatrix.zeros(0, 1)),
        lambda: SplitData(
            coprojection=PolyMatrix.zeros(0, 1),
            complement=PolyMatrix.zeros(1, 0),
            retraction=PolyMatrix.identity(1),
        ),
        lambda: SplitData(PolyMatrix.identity(1).scale(T), PolyMatrix.zeros(1, 0), PolyMatrix.zeros(0, 1)),
        True,
    ),
    "ActionFamily": (
        lambda: ActionFamily("artin", artin_generator_map),
        lambda: ActionFamily(rule=artin_generator_map, name="artin"),
        lambda: ActionFamily("artin", _identity_rule),
        True,
    ),
    "LongMoodyConfig": (
        lambda: LongMoodyConfig(artin_family(), trivial_system(), T),
        lambda: LongMoodyConfig(pre_twist=T, post_scale=None, system=trivial_system(), action=artin_family()),
        lambda: LongMoodyConfig(artin_family(), trivial_system(), None, T),
        True,
    ),
    "CheckReport": (
        lambda: CheckReport("c", {"N": 2}, [], 0),
        lambda: CheckReport(params={"N": 2}, name="c"),
        lambda: CheckReport("c", {"N": 2}, checked=1),
        False,
    ),
    "NaturalMap": (
        lambda: NaturalMap(CONSTANT, CONSTANT, _component, "natural-map"),
        lambda: NaturalMap(components=_component, target=CONSTANT, source=CONSTANT),
        lambda: NaturalMap(CONSTANT, CONSTANT, _component, "other"),
        False,
    ),
    "ConditionResult": (
        lambda: ConditionResult("stability", {"N": 2}, None, 0),
        lambda: ConditionResult(seed=0, witness=None, params={"N": 2}, condition="stability"),
        lambda: ConditionResult("stability", {"N": 2}, {"n": 1}, 0),
        False,
    ),
    "CoherenceReport": (
        lambda: CoherenceReport([ConditionResult("stability", {}, None, 0)]),
        lambda: CoherenceReport(results=[ConditionResult("stability", {}, None, 0)]),
        lambda: CoherenceReport([]),
        False,
    ),
    "DegreeReport": (
        lambda: DegreeReport("burau", 4, 1, True, [(0, 1, False)], ""),
        lambda: DegreeReport(
            evidence=[(0, 1, False)], very_strong=True, strong_degree=1, range_n=4, functor="burau"
        ),
        lambda: DegreeReport("burau", 4, 1, True, [(0, 1, False)], "window too small"),
        False,
    ),
    "TheoremReport": (
        lambda: TheoremReport("splitting", {"N": 3}, [], None),
        lambda: TheoremReport(params={"N": 3}, name="splitting"),
        lambda: TheoremReport("splitting", {"N": 3}, note="no evanescence"),
        False,
    ),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equality_and_hashing(name):
    positional, keyword, different, hashable = VALUES[name]
    a, b, c = positional(), keyword(), different()
    assert a == b and not a != b and a is not b
    assert a != c and not a == c
    assert a != (a,) and (a == object()) is False
    if hashable:
        assert hash(a) == hash(b) and len({a, b, c}) == 2
    else:
        with pytest.raises(TypeError):
            hash(a)


def test_equal_points_share_one_letter_table():
    p, q = EvaluationPoint(Fraction(11, 3), Fraction(-13, 5)), EvaluationPoint(Fraction(11, 3), Fraction(-13, 5))
    first = _lk_scaled_generators(3, p)
    before = _lk_scaled_generators.cache_info()
    assert _lk_scaled_generators(3, q) is first
    after = _lk_scaled_generators.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)


def test_same_name_systems_share_no_image(monkeypatch):
    monkeypatch.setattr(braidcat, "_GENERATOR_IMAGES", {})
    plain, crossed = LocalSystem("s", _identity_rule), LocalSystem("s", _crossing_rule)
    assert plain == crossed and hash(plain) == hash(crossed)
    assert plain.generator_image(2, 1) == BraidWord.identity(3)
    assert crossed.generator_image(2, 1) == BraidWord(3, (1,))
    assert set(braidcat._GENERATOR_IMAGES) == {(_identity_rule, 2, 1), (_crossing_rule, 2, 1)}


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: EvaluationPoint(0.5, 2), LaurentError, "evaluation point needs rational values, got 0.5"),
        (lambda: EvaluationPoint(2, "3"), LaurentError, "evaluation point needs rational values, got '3'"),
        (lambda: EvaluationPoint(Fraction(0), 2), LaurentError, "evaluation requires t and q nonzero"),
        (lambda: FreeWord(2, ((3, 1),)), FreeGroupError, "generator g3 outside rank 2"),
        (lambda: FreeWord(2, ((1, 1), (0, -1))), FreeGroupError, "generator g0 outside rank 2"),
        (lambda: WadaPair(FreeWord(3), _w2("g1")), FreeGroupError, "Wada pair words must have rank 2"),
        (lambda: WadaPair(_w2("g1"), FreeWord(1)), FreeGroupError, "Wada pair words must have rank 2"),
        (lambda: BraidWord(3, (1, 3)), BraidError, "letter s3 not a generator on 3 strands"),
        (lambda: BraidWord(3, (0,)), BraidError, "letter s0 not a generator on 3 strands"),
        (lambda: BraidWord(2, (-2,)), BraidError, "letter s-2 not a generator on 2 strands"),
        (lambda: BracketMorphism(2, 1, BraidWord(1)), BraidError, "need 0 <= source <= target"),
        (
            lambda: BracketMorphism(1, 3, BraidWord(2)),
            BraidError,
            "representative word must live on `target` strands",
        ),
        (
            lambda: LongMoodyConfig(artin_family(), trivial_system(), T + ONE),
            CoherenceError,
            "twists must be units of the coefficient ring",
        ),
        (
            lambda: LongMoodyConfig(artin_family(), trivial_system(), post_scale=T * 0),
            CoherenceError,
            "twists must be units of the coefficient ring",
        ),
    ],
)
def test_validation_errors(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert str(raised.value) == message


def test_construction_reduces_words():
    assert FreeWord(2, ((1, 2), (1, -2))).syllables == ()
    assert FreeWord(2, ((1, 1), (2, 0), (1, 1))).syllables == ((1, 2),)
    assert BraidWord(3, (1, 2, -2, -1, 2)).letters == (2,)
    assert EvaluationPoint(2, 3).t_value.__class__ is Fraction


def test_reports_share_no_default_list():
    a, b = CheckReport("a", {}), CheckReport("b", {})
    a.record(n=1)
    assert a.failures == [{"n": 1}] and b.failures == []
    theorem_a, theorem_b = TheoremReport("a", {}), TheoremReport("b", {})
    theorem_a.add(a)
    assert theorem_a.sections == [a] and theorem_b.sections == []


def test_words_keep_their_repr():
    assert repr(BraidWord(3, (1, -2))) == "BraidWord(3, 's1 s2^-1')"
    assert repr(BraidWord(2)) == "BraidWord(2, 'id')"
    assert repr(FreeWord(2, ((1, 2), (2, -1)))) == "FreeWord(2, 'g1^2*g2^-1')"
    assert repr(FreeWord(3)) == "FreeWord(3, 'e')"
