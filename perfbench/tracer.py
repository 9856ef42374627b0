"""Outside-in tracer for lmkit's seven layers.

The tracer wraps public functions and methods of the lmkit modules from
outside the package.  Several modules bind names with `from .x import f`,
so patching only the defining module would miss their calls: `install`
replaces every binding of each wrapped object in every loaded lmkit module
(and every alias of a method in its class, such as `__rmul__ = __mul__`).

Span ops record a span per call: a name, a start, an end, the enclosing
span and the current trace id (one per job).  Spans are kept in memory in
flat arrays and written out by the caller when the run ends.  The hottest
scalar ops (`poly_mul`, `poly_add`, `word_mul`, `seeded_points`) only count
calls; their time stays in the self time of the enclosing span.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

SPAN, COUNT = "span", "count"

# (metric prefix, module, attribute path, mode).  Several entries may share
# one prefix; their spans are then counted together.
OPS = (
    ("laurent.poly_mul", "lmkit.laurent", "LaurentPoly.__mul__", COUNT),
    ("laurent.poly_add", "lmkit.laurent", "LaurentPoly.__add__", COUNT),
    ("laurent.matmul", "lmkit.laurent", "PolyMatrix.matmul", SPAN),
    ("laurent.det", "lmkit.laurent", "PolyMatrix.det", SPAN),
    ("laurent.inverse", "lmkit.laurent", "PolyMatrix.inverse", SPAN),
    ("laurent.exact_div", "lmkit.laurent", "exact_div", SPAN),
    ("laurent.rank_eval", "lmkit.laurent", "PolyMatrix.rank_at", SPAN),
    ("laurent.rank_eval", "lmkit.laurent", "PolyMatrix.pivot_rows_at", SPAN),
    ("laurent.rank_eval", "lmkit.laurent", "rank_probabilistic", SPAN),
    ("laurent.seeded_points", "lmkit.laurent", "seeded_points", COUNT),
    ("freegroup.word_mul", "lmkit.freegroup", "FreeWord.__mul__", COUNT),
    ("freegroup.apply_word", "lmkit.freegroup", "FreeGroupMap.apply_word", SPAN),
    ("freegroup.map_compose", "lmkit.freegroup", "FreeGroupMap.compose", SPAN),
    ("freegroup.invert_map", "lmkit.freegroup", "invert_map", SPAN),
    ("freegroup.fox_derivatives", "lmkit.freegroup", "fox_derivatives", SPAN),
    ("braidcat.braid_equal", "lmkit.braidcat", "braid_equal_witness", SPAN),
    ("braidcat.lk_numeric", "lmkit.braidcat", "lk_numeric", SPAN),
    ("braidcat.burau_symbolic", "lmkit.braidcat", "burau_symbolic", SPAN),
    ("repfun.check_functor", "lmkit.repfun", "check_functor", SPAN),
    ("repfun.check_natural", "lmkit.repfun", "check_natural", SPAN),
    ("repfun.word_matrix", "lmkit.repfun", "BraidFunctor.word_matrix", SPAN),
    ("repfun.gen_matrix", "lmkit.repfun", "BraidFunctor.gen_matrix", SPAN),
    ("repfun.group_ring_matrix", "lmkit.repfun", "group_ring_matrix", SPAN),
    ("longmoody.action_family", "lmkit.longmoody", "action_family", SPAN),
    ("longmoody.check_coherence", "lmkit.longmoody", "check_coherence", SPAN),
    ("longmoody.check_reliability", "lmkit.longmoody", "check_reliability", SPAN),
    ("longmoody.check_inclusion_lemma", "lmkit.longmoody", "check_inclusion_lemma", SPAN),
    ("polyfun.resolve_inclusion", "lmkit.polyfun", "resolve_inclusion", SPAN),
    ("polyfun.estimate_strong_degree", "lmkit.polyfun", "estimate_strong_degree", SPAN),
    ("polyfun.verify_difference_splitting", "lmkit.polyfun", "verify_difference_splitting", SPAN),
    ("polyfun.verify_degree_growth", "lmkit.polyfun", "verify_degree_growth", SPAN),
    ("cli.parse_functor", "lmkit.cli", "parse_functor", SPAN),
)

# gen_matrix on a Long-Moody image or a difference functor is reported as
# that layer's generator matrix, told apart by the functor's name.
GEN_MATRIX_BY_PREFIX = (
    ("lm(", "longmoody.lm_gen_matrix"),
    ("delta(", "polyfun.difference_gen_matrix"),
)

ORACLE_OUTCOMES = ("identical", "lk_differs", "burau_differs", "equal")


def span_names() -> list[str]:
    names = [p for p, _, _, mode in OPS if mode == SPAN]
    names += [name for _, name in GEN_MATRIX_BY_PREFIX]
    return list(dict.fromkeys(names))


def count_names() -> list[str]:
    return list(dict.fromkeys(p for p, _, _, mode in OPS if mode == COUNT))


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *head, attr = path.split(".")
    for part in head:
        owner = getattr(owner, part)
    return owner, attr, vars(owner)[attr]


def _bindings(owner, original):
    """Every (container, name) bound to `original` that lmkit code can reach."""
    if isinstance(owner, type):
        containers = [owner]
    else:
        containers = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == "lmkit" or name.startswith("lmkit.")
        ]
    for container in containers:
        for name, value in list(vars(container).items()):
            if value is original:
                yield container, name


class Tracer:
    """Spans and counts for the lmkit ops in OPS, patched in from outside."""

    def __init__(self):
        self.names = span_names()
        self._name_ids = {name: i for i, name in enumerate(self.names)}
        self.counts = dict.fromkeys(count_names(), 0)
        self.tallies = {f"braidcat.braid_equal.{o}": 0 for o in ORACLE_OUTCOMES}
        self.tallies["polyfun.resolve_inclusion.cert_errors"] = 0
        self.trace_id = 0
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_trace = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]
        self._patched: list = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, name_of):
        names, parents, traces = self.span_name, self.span_parent, self.span_trace
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            i = len(names)
            names.append(name_of(args))
            parents.append(stack[-1])
            traces.append(self.trace_id)
            starts.append(0)
            ends.append(0)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()

        return wrapped

    def _count(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _oracle_outcomes(self, fn):
        """Classify each braid_equal_witness call by how it was decided."""
        tallies = self.tallies

        @functools.wraps(fn)
        def wrapped(u, v, *args, **kwargs):
            ok, why = result = fn(u, v, *args, **kwargs)
            if ok:
                same = u.strands == v.strands and u.letters == v.letters
                key = "identical" if same else "equal"
            elif "lawrence-krammer" in why.get("reason", ""):
                key = "lk_differs"
            else:
                key = "burau_differs"
            tallies[f"braidcat.braid_equal.{key}"] += 1
            return result

        return wrapped

    def _cert_errors(self, fn):
        from lmkit.polyfun import SplitCertificationError

        tallies = self.tallies

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except SplitCertificationError:
                tallies["polyfun.resolve_inclusion.cert_errors"] += 1
                raise

        return wrapped

    def _wrap(self, prefix: str, fn, mode: str):
        if mode == COUNT:
            return self._count(fn, prefix)
        if prefix == "repfun.gen_matrix":
            ids = [(p, self._name_ids[n]) for p, n in GEN_MATRIX_BY_PREFIX]
            default = self._name_ids[prefix]

            def name_of(args):
                label = args[0].name
                return next((i for p, i in ids if label.startswith(p)), default)

            return self._span(fn, name_of)
        name_id = self._name_ids[prefix]
        wrapped = self._span(fn, lambda args: name_id)
        if prefix == "braidcat.braid_equal":
            return self._oracle_outcomes(wrapped)
        if prefix == "polyfun.resolve_inclusion":
            return self._cert_errors(wrapped)
        return wrapped

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Patch every binding of every op; lmkit must already be imported."""
        for module in {m for _, m, _, _ in OPS}:
            __import__(module)
        for prefix, module, path, mode in OPS:
            owner, _, original = _resolve(module, path)
            wrapped = self._wrap(prefix, original, mode)
            for container, name in list(_bindings(owner, original)):
                self._patched.append((container, name, original))
                setattr(container, name, wrapped)

    def uninstall(self) -> None:
        for container, name, original in reversed(self._patched):
            setattr(container, name, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def span_count(self) -> int:
        return len(self.span_name)

    def write_spans(self, path: str) -> None:
        """One line per span: name, start_ns, end_ns, parent index, trace id."""
        with open(path, "w") as out:
            out.write("name\tstart_ns\tend_ns\tparent\ttrace\n")
            for i in range(len(self.span_name)):
                out.write(
                    f"{self.names[self.span_name[i]]}\t{self.span_start[i]}\t"
                    f"{self.span_end[i]}\t{self.span_parent[i]}\t{self.span_trace[i]}\n"
                )

    def layer_metrics(self, seconds) -> dict:
        """`<op>.calls` and `<op>.self_s` per span op, `<op>.calls` per
        counted op, the oracle outcome tallies and `burau_share`, the share
        of the oracle's time spent in the symbolic Burau leg.  `seconds`
        maps a span's clock reading in nanoseconds to seconds."""
        starts = [seconds(t) for t in self.span_start]
        ends = [seconds(t) for t in self.span_end]
        totals = summarize(self.span_name, self.span_parent, starts, ends)
        out = {}
        for i, name in enumerate(self.names):
            calls, self_s, _ = totals.get(i, (0, 0, 0))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out.update({f"{key}.calls": value for key, value in self.counts.items()})
        out.update(self.tallies)
        oracle = totals.get(self._name_ids["braidcat.braid_equal"], (0, 0, 0))[2]
        burau = totals.get(self._name_ids["braidcat.burau_symbolic"], (0, 0, 0))[2]
        out["braidcat.braid_equal.burau_share"] = burau / oracle if oracle else 0.0
        return out


def summarize(names, parents, starts, ends) -> dict:
    """Per span name: (calls, self time, summed duration), in clock units.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.  The
    summed duration counts a recursive op (parse_functor) once per level,
    so it is only read for ops that do not call themselves.
    """
    selfs = [ends[i] - starts[i] for i in range(len(names))]
    for i, p in enumerate(parents):
        if p >= 0:
            selfs[p] -= ends[i] - starts[i]
    totals: dict = {}
    for i, n in enumerate(names):
        calls, self_t, total = totals.get(n, (0, 0, 0))
        totals[n] = (calls + 1, self_t + selfs[i], total + ends[i] - starts[i])
    return totals
