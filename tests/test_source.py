"""Structural checks on the source tree of lmkit itself and on its test references."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def _is_named(node, *names):
    return getattr(node, "id", getattr(node, "attr", None)) in names


def _is_bounded_lru_cache(node):
    """True for a call lru_cache(maxsize=k) or lru_cache(k), k an integer."""
    if not (isinstance(node, ast.Call) and _is_named(node.func, "lru_cache")):
        return False
    sizes = [kw.value for kw in node.keywords if kw.arg == "maxsize"] + node.args[:1]
    return bool(sizes) and isinstance(sizes[0], ast.Constant) and type(sizes[0].value) is int


def _unbounded_caches(source, filename="<planted>"):
    """Each cache in source that could grow without bound (ROADMAP aim 3,
    "Caches are bounded"): an lru_cache without an integer maxsize, a bare
    functools.cache, and a store into a module-level dict, inside a
    function, other than through memo.remember."""
    tree = ast.parse(source, filename)
    tables = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and (
            isinstance(node.value, ast.Dict)
            or isinstance(node.value, ast.Call) and _is_named(node.value.func, "dict")
        ):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            tables.update(t.id for t in targets if isinstance(t, ast.Name))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _is_named(node.func, "lru_cache"):
            if not _is_bounded_lru_cache(node):
                found.add(f"{filename}:{node.lineno}: lru_cache without an integer maxsize")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in node.decorator_list:
                if _is_named(deco, "lru_cache", "cache"):
                    found.add(f"{filename}:{deco.lineno}: unbounded cache on {node.name}")
            for inner in ast.walk(node):
                if isinstance(inner, ast.Subscript) and isinstance(inner.ctx, ast.Store):
                    stored = inner.value
                elif isinstance(inner, ast.AugAssign):
                    stored = inner.target
                elif isinstance(inner, ast.Call) and _is_named(
                    inner.func, "update", "setdefault", "__setitem__", "__ior__"
                ):
                    stored = getattr(inner.func, "value", None)
                else:
                    continue
                if isinstance(stored, ast.Name) and stored.id in tables:
                    found.add(f"{filename}:{inner.lineno}: {stored.id} stored into not by remember")
    return sorted(found)


def test_every_cache_in_src_is_bounded():
    # Module tables store through memo.remember, which caps them at
    # MEMO_CAP; lru_caches name their maxsize.
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _unbounded_caches(path.read_text(), path.name)
    assert found == []


@pytest.mark.parametrize(
    "source",
    [
        "from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(x):\n    return x\n",
        "import functools\n@functools.lru_cache\ndef f(x):\n    return x\n",
        "from functools import cache\n@cache\ndef f(x):\n    return x\n",
        "TABLE = {}\ndef f(key, v):\n    TABLE[key] = v\n",
        "TABLE: dict = dict()\ndef f(key, v):\n    return TABLE.setdefault(key, v)\n",
    ],
)
def test_the_cache_guard_rejects_an_unbounded_cache(source):
    assert _unbounded_caches(source)


def test_the_cache_guard_accepts_bounded_caches():
    source = (
        "from functools import lru_cache\nfrom .memo import remember\nTABLE: dict = {}\n"
        "@lru_cache(maxsize=64)\ndef f(key):\n    hit = TABLE.get(key)\n"
        "    if hit is None:\n        remember(TABLE, key, 1)\n    return hit\n"
    )
    assert _unbounded_caches(source) == []


def _rules_built_per_call(source, filename="<planted>"):
    """Each ActionFamily(...) or LocalSystem(...) made inside a function
    that builds its rule on every call: a lambda, a call such as
    partial(...), or a name that the function itself defines or assigns.
    The module tables of Fox Jacobians and braid images are keyed by the
    rule object, so such a rule shares no entry with the last call's.  A
    module-level function passes, and so does any rule built in a function
    carrying an lru_cache with an integer maxsize, once per key."""
    found = []

    def built_per_call(func, rule):
        if any(_is_bounded_lru_cache(deco) for deco in func.decorator_list):
            return False
        if isinstance(rule, (ast.Lambda, ast.Call)):
            return True
        inner = list(ast.walk(func))[1:]
        defined = {n.name for n in inner if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
        assigned = {n.id for n in inner if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        return isinstance(rule, ast.Name) and rule.id in defined | assigned

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child)
                continue
            if func and isinstance(child, ast.Call) and _is_named(
                child.func, "ActionFamily", "LocalSystem"
            ):
                rules = child.args[1:2] + [kw.value for kw in child.keywords if kw.arg == "rule"]
                if rules and built_per_call(func, rules[0]):
                    found.append(f"{filename}:{child.lineno}: {func.name} builds a rule per call")
            visit(child, func)

    visit(ast.parse(source, filename), None)
    return found


def test_every_family_and_system_rule_is_built_once():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _rules_built_per_call(path.read_text(), path.name)
    assert found == []


@pytest.mark.parametrize(
    "source",
    [
        "def wada_family(kind):\n"
        "    return ActionFamily('wada', lambda n, letter: wada_map(n, letter, kind))\n",
        "def local_system(name):\n"
        "    def rule(n, i):\n        return image(n, i)\n"
        "    return LocalSystem(name, rule)\n",
        "def wada_family(kind):\n"
        "    return ActionFamily('wada', rule=partial(wada_map, kind=kind))\n",
        "from functools import lru_cache\n@lru_cache(maxsize=None)\ndef wada_family(kind):\n"
        "    return ActionFamily('wada', partial(wada_map, kind=kind))\n",
    ],
)
def test_the_rule_guard_rejects_a_rule_built_per_call(source):
    assert _rules_built_per_call(source)


def test_the_rule_guard_accepts_rules_built_once():
    source = (
        "from functools import lru_cache\n"
        "def _rule(n, i):\n    return image(n, i)\n"
        "def local_system(name):\n    return LocalSystem(name, _rule)\n"
        "@lru_cache(maxsize=64)\ndef _wada_family(kind, m):\n"
        "    return ActionFamily('wada', lambda n, letter: wada_map(n, letter, kind, m))\n"
        "TRIVIAL = LocalSystem('trivial', lambda n, i: identity(n + 1))\n"
    )
    assert _rules_built_per_call(source) == []


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


def _dataclass_imports(source, filename="<planted>"):
    """Each import of the dataclasses module: its decorator generates and
    execs the methods of every class at import, which each fresh process
    (a CLI run, a benchmark worker) pays again."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module]
        else:
            continue
        if any(m and m.split(".")[0] == "dataclasses" for m in modules):
            found.append(f"{filename}:{node.lineno}: imports dataclasses")
    return found


def test_no_module_imports_dataclasses():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _dataclass_imports(path.read_text(), path.name)
    assert found == []


@pytest.mark.parametrize(
    "source",
    [
        "from dataclasses import dataclass\n",
        "import dataclasses\n",
        "import os, dataclasses as dc\n",
        "def f():\n    from dataclasses import field\n    return field\n",
    ],
)
def test_the_dataclass_guard_rejects_an_import(source):
    assert _dataclass_imports(source)


def test_a_fresh_cli_import_loads_neither_dataclasses_nor_inspect():
    # -S: no site hooks, so whatever loads them is lmkit.
    probe = "import sys, lmkit.cli\nprint(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
