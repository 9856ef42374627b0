"""Structural checks on the source tree of lmkit itself."""

import ast
from pathlib import Path

import lmkit

SRC = Path(__file__).resolve().parents[1] / "src" / "lmkit"

# Functions and methods that nothing in src calls, each with why it stays.
# Names exported by lmkit.__all__ are allowed as well.
NO_SRC_CALLER = {
    # Bound by the per-layer tracer's OPS table in perfbench/tracer.py.
    "rank_at": "traced as laurent.rank_eval; reached from rank_probabilistic only",
    "rank_probabilistic": "traced as laurent.rank_eval; tests compare ranks with it",
    "invert_map": "traced as freegroup.invert_map; reached from wada_dual only",
    "burau_symbolic": "traced as braidcat.burau_symbolic; tests compare Burau with it",
    # Reached only from tests or perfbench; ROADMAP item 9 gives each a
    # verdict path in src or moves it to tests/reference_kernels.py.
    "writhe": "perfbench's oracle self-check reads it",
    "wada_pair": "the public name of a stored Wada pair",
    "bracket_compose": "composition in Quillen's bracket category",
    "bracket_monoidal": "the monoidal product of the bracket category",
    "bracket_equal": "equality of bracket-category morphisms",
    "from_braid": "a braid as a bracket-category automorphism",
    "check_coherent_reliable": "all five input conditions in one report",
    "unit_line_equivalence": "criterion 7's chain from reduced-burau to atomic(0)",
    "translation_degree_checks": "translation keeps the very strong degree",
    "wada_dual": "the swap-, backward- and inverse-duals of a Wada pair, for tests",
    "apply_aug": "push-forward on the augmentation ideal, which tests check",
    "by_name": "looks a condition up in a coherence report, for tests",
    # Reached only from tests, and not yet on ROADMAP item 9's list.
    "apply": "a functor evaluated on a bracket-category morphism",
    "stabilization": "the canonical bracket-category morphism n -> n'",
    "permutation": "the permutation of a braid word, for tests",
    "corrupted": "the negative-control functor of the acceptance tests",
    "eval": "a Laurent polynomial's value at a point, for tests",
    "augmentation": "the augmentation of a group-ring element, for tests",
    "expand": "Fox's fundamental formula, which tests check",
}


class _References(ast.NodeVisitor):
    """Every function defined and every name or attribute read, a read
    inside a function of the same name (recursion) not counting."""

    def __init__(self):
        self.defined, self.read, self._inside = set(), set(), []

    def visit_FunctionDef(self, node):
        self.defined.add(node.name)
        for child in node.decorator_list + [node.args] + ([node.returns] if node.returns else []):
            self.visit(child)
        self._inside.append(node.name)
        for child in node.body:
            self.visit(child)
        self._inside.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _read(self, name):
        if name not in self._inside:
            self.read.add(name)

    def visit_Name(self, node):
        self._read(node.id)

    def visit_Attribute(self, node):
        self._read(node.attr)
        self.generic_visit(node)


def _src_references():
    refs = _References()
    for path in sorted(SRC.glob("*.py")):
        refs.visit(ast.parse(path.read_text(), str(path)))
    return refs


def test_every_function_has_a_src_caller_or_a_reason():
    refs = _src_references()
    allowed = set(lmkit.__all__) | set(NO_SRC_CALLER)
    orphans = {
        name for name in refs.defined - refs.read
        if not (name.startswith("__") and name.endswith("__"))
    }
    assert sorted(orphans - allowed) == []
    # An entry outlives its function only by mistake.
    assert sorted(set(NO_SRC_CALLER) - refs.defined) == []
