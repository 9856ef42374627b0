"""Structural checks on the source tree of lmkit itself and on its test references."""

import ast
import importlib
import sys
from pathlib import Path

import lmkit

SRC = Path(__file__).resolve().parents[1] / "src" / "lmkit"
TESTS = Path(__file__).resolve().parent

# Functions and methods that nothing in src calls, each with the non-test
# consumer or the ROADMAP item that keeps it.  Names exported by
# lmkit.__all__ are allowed as well.
NO_SRC_CALLER = {
    # perfbench/ reads these; they leave src only with a benchmark change
    # (ROADMAP item 8).
    "rank_probabilistic": "perfbench/tracer.py binds it in OPS as laurent.rank_eval",
    "invert_map": "perfbench/tracer.py binds it in OPS as freegroup.invert_map",
    "writhe": "perfbench/selfcheck.py reads it in oracle-invariants",
    "permutation": "perfbench/selfcheck.py reads it in oracle-invariants",
    "corrupted": "perfbench/workloads.py builds the functor workload's negative control",
    # Quillen's bracket category UB, which acceptance criterion 11 exercises
    # and ROADMAP item 9 gives a verdict path.
    "bracket_compose": "acceptance criterion 11: composition in UB",
    "bracket_monoidal": "acceptance criterion 11: the monoidal product of UB",
    "bracket_equal": "acceptance criterion 11: equality of UB morphisms",
    "from_braid": "acceptance criterion 11: a braid as a UB automorphism",
    "stabilization": "acceptance criterion 11: the canonical UB morphism n -> n'",
    "apply": "ROADMAP item 9: a functor on UB evaluated on a morphism",
    # Checks that open items will call.
    "check_coherent_reliable": "acceptance criterion 4; ROADMAP item 1 runs it in verify degree",
    "unit_line_equivalence": "acceptance criterion 7; ROADMAP item 2",
    "translation_degree_checks": "ROADMAP item 2: translation keeps the very strong degree",
    "wada_pair": "ROADMAP item 9: the public name of a stored Wada pair",
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


def _orphans():
    """The functions and methods, dunders aside, that nothing in src reads."""
    refs = _References()
    for path in sorted(SRC.glob("*.py")):
        refs.visit(ast.parse(path.read_text(), str(path)))
    return {
        name for name in refs.defined - refs.read
        if not (name.startswith("__") and name.endswith("__"))
    }


def test_every_function_has_a_src_caller_or_a_reason():
    assert sorted(_orphans() - set(lmkit.__all__) - set(NO_SRC_CALLER)) == []


def test_every_allowlisted_name_is_an_orphan():
    # An entry outlives its function, or its reason once src calls it, only
    # by mistake.
    assert sorted(set(NO_SRC_CALLER) - _orphans()) == []


def test_every_reference_kernel_is_read_by_a_test():
    # A reference that no test compares against checks nothing.
    kernels = ast.parse((TESTS / "reference_kernels.py").read_text())
    defined = {node.name for node in kernels.body if isinstance(node, ast.FunctionDef)}
    refs = _References()
    for path in sorted(TESTS.glob("test_*.py")):
        refs.visit(ast.parse(path.read_text(), str(path)))
    assert sorted(defined - refs.read) == []


def test_benchmark_bindings_check_passes(monkeypatch, capsys):
    # perfbench/selfcheck.py's bindings check reads five names that lmkit
    # modules bind by import (longmoody.fox_derivatives and
    # .group_ring_matrix, polyfun.seeded_points, cli.check_coherence and
    # .estimate_strong_degree); dropping one of those imports breaks it.
    # Loaded with perfbench/ on the path, writing no bytecode beside it; the
    # path and the perfbench modules are put back afterwards.
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    names = ("selfcheck", "run", "tracer", "worker", "workloads")
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "path", [str(perfbench)] + sys.path)
    for name in names:
        monkeypatch.delitem(sys.modules, name, raising=False)
    try:
        assert importlib.import_module("selfcheck").bindings_check()
    finally:
        for name in names:
            sys.modules.pop(name, None)
    assert capsys.readouterr().out == "PASS bindings\n"
