"""Command-line front end.

Every run is fully determined by its arguments plus the seed (--seed flag,
LMKIT_SEED environment variable, default 0); `check coherence` and `check
reliability` decide exactly and only report the seed.  Output is
deterministic JSON (sorted keys) or plain text.  Exit codes: 0 = pass,
1 = a check failed (the witness is in the output), 2 = usage or
configuration error, 3 = internal fault (traceback on stderr).

Functors are named by a small prefix grammar, nestable via ';':

    burau           tym(-1)          reduced-burau     lk
    constant        t1               atomic(2)         e(2)
    sum(F; G)       tensor(F; G)     tau(k; F)         twist(y; F)
    lm(action,system[,pre[,post]]; F)      (at most four parameters)

so the classical twisted image of the constant functor is
    lm(artin,pure-braid,t,t^-1; constant).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from .laurent import LaurentError, LaurentPoly, PolyMatrix, ONE, parse_poly
from .braidcat import BraidError, local_system
from .freegroup import FreeGroupError
from . import repfun
from .repfun import (
    BUILTINS,
    BraidFunctor,
    NaturalMap,
    check_functor,
    check_natural,
    direct_sum,
    scalar_twist,
    tensor,
    translate,
)
from .longmoody import (
    CoherenceError,
    LongMoodyConfig,
    action_family,
    check_coherence,
    check_factorization,
    check_inclusion_lemma,
    check_reliability,
    long_moody,
    long_moody_power,
    standard_config,
)
from . import polyfun
from .polyfun import (
    estimate_strong_degree,
    verify_degree_growth,
    verify_difference_splitting,
)
from .braidcat import BraidWord


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Functor expression grammar
# ---------------------------------------------------------------------------


def _split_top(text: str, sep: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _two_args(head: str, body: str) -> list[str]:
    parts = _split_top(body, ";")
    if len(parts) != 2:
        raise UsageError(f"{head} takes exactly two ';'-separated arguments")
    return parts


def _int_arg(head: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{head} expects an integer, got {text.strip()!r}") from None


def parse_functor(spec: str) -> BraidFunctor:
    spec = spec.strip()
    if "(" not in spec:
        head, body = spec, ""
    else:
        if not spec.endswith(")"):
            raise UsageError(f"unbalanced functor expression {spec!r}")
        head, body = spec[: spec.index("(")], spec[spec.index("(") + 1 : -1]
    head = head.strip().lower()

    if head in ("sum", "tensor"):
        args = [parse_functor(p) for p in _two_args(head, body)]
        return (direct_sum if head == "sum" else tensor)(*args)
    if head == "tau":
        k_text, f_text = _two_args(head, body)
        return translate(parse_functor(f_text), _int_arg(head, k_text))
    if head == "twist":
        y_text, f_text = _two_args(head, body)
        return scalar_twist(parse_functor(f_text), parse_poly(y_text))
    if head == "lm":
        params_text, f_text = _two_args(head, body)
        params = [p.strip() for p in params_text.split(",")]
        if not 2 <= len(params) <= 4:
            raise UsageError("lm(action,system[,pre[,post]]; functor)")
        cfg = _config(*params)
        return long_moody(cfg, parse_functor(f_text))

    if head in BUILTINS:
        make, key = BUILTINS[head]
        if key is None:
            if body.strip():
                raise UsageError(f"{head} takes no argument, got {body.strip()!r}")
            return make()
        if key == "param":
            return make(param=parse_poly(body)) if body else make()
        return make(**{key: _int_arg(head, body)})
    raise UsageError(f"unknown functor {spec!r}")


def _config(action: str, sigma: str, pre=None, post=None) -> LongMoodyConfig:
    return LongMoodyConfig(
        action_family(action),
        local_system(sigma),
        parse_poly(pre) if pre else None,
        parse_poly(post) if post else None,
    )


def _config_from_args(args) -> LongMoodyConfig:
    return _config(args.action, args.sigma, args.pre, args.post)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _emit(payload: dict, fmt: str) -> None:
    try:
        if fmt == "json":
            print(json.dumps(payload, sort_keys=True, indent=2))
        else:
            _emit_text(payload, "")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (say, `| head`): stop writing, and point stdout
        # at devnull so that the interpreter's final flush does not raise too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit_text(value, indent: str) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            inner = value[key]
            if isinstance(inner, (dict, list)):
                print(f"{indent}{key}:")
                _emit_text(inner, indent + "  ")
            else:
                print(f"{indent}{key}: {inner}")
    elif isinstance(value, list):
        if value and all(not isinstance(v, (dict, list)) for v in value):
            print(f"{indent}[{', '.join(str(v) for v in value)}]")
            return
        for inner in value:
            _emit_text(inner, indent)
            if isinstance(inner, dict):
                print(f"{indent}-")
    else:
        print(f"{indent}{value}")


def _verdict_exit(payload: dict, fmt: str, passed: bool) -> int:
    _emit(payload, fmt)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_emit(args) -> int:
    functor = parse_functor(args.functor)
    _emit(functor.to_json(args.n), args.format)
    return 0


def cmd_check(args) -> int:
    if args.kind == "functor":
        report = check_functor(parse_functor(args.functor), args.N, args.L)
        return _verdict_exit(report.to_json(), args.format, report.passed)
    if args.kind == "coherence":
        report = check_coherence(
            _config_from_args(args), args.N, args.L, seed=args.seed
        )
        return _verdict_exit(
            {"conditions": report.to_json()}, args.format, report.passed
        )
    if args.kind == "reliability":
        report = check_reliability(_config_from_args(args), args.N, args.L, args.seed)
        return _verdict_exit(
            {"conditions": report.to_json()}, args.format, report.passed
        )
    if args.kind == "natural":
        eta, stab = _named_natural_map(args)
        report = check_natural(eta, args.N, include_stab=stab)
        return _verdict_exit(report.to_json(), args.format, report.passed)
    raise UsageError(f"unknown check kind {args.kind!r}")


def _named_natural_map(args):
    """Built-in natural maps addressable from the command line.

    burau-reversal is a groupoid-level equivalence (components intertwine
    the braid actions only), so it is checked without stabilizations.
    """
    name = args.map
    if name == "identity":
        functor = parse_functor(args.functor)
        return (
            NaturalMap(
                functor, functor, lambda n: PolyMatrix.identity(functor.dim(n)), name
            ),
            True,
        )
    if name == "burau-reversal":
        return (_burau_reversal_map()[0], False)
    raise UsageError(f"unknown natural map {name!r}")


def _reversal(n: int) -> PolyMatrix:
    return PolyMatrix(n, n, {(i, n - 1 - i): ONE for i in range(n)})


def _burau_reversal_map():
    """Components of the groupoid-level equivalence from the twisted image
    of the constant functor to the squared-parameter Burau family.

    Conjugation by the plain reversal lands on the flipped generator, so a
    half-twist matrix is composed in to match indices.
    """
    t = LaurentPoly.monomial(1, 1, 0)
    cfg = standard_config(pre=t, post=t.unit_inverse())
    source = long_moody(cfg, repfun.constant_functor())
    target = repfun.burau_functor(t * t)

    def component(n):
        letters = []
        for k in range(1, n):
            letters.extend(range(k, 0, -1))
        half_twist = BraidWord(n, tuple(letters))
        return target.word_matrix(half_twist).matmul(_reversal(n))

    return NaturalMap(source, target, component, "burau-reversal"), source, target


def cmd_lm(args) -> int:
    cfg = _config_from_args(args)
    functor = parse_functor(args.base)
    _emit(long_moody_power(cfg, functor, args.iterations).to_json(args.n), args.format)
    return 0


def cmd_degree(args) -> int:
    report = estimate_strong_degree(
        parse_functor(args.functor), args.N, d_max=args.d_max, seed=args.seed
    )
    _emit(report.to_json(), args.format)
    return 0


def cmd_verify(args) -> int:
    if args.theorem == "splitting":
        report = verify_difference_splitting(
            _config_from_args(args), parse_functor(args.base), args.N, args.seed
        )
        return _verdict_exit(report.to_json(), args.format, report.passed)
    if args.theorem == "degree":
        result = verify_degree_growth(
            _config_from_args(args), parse_functor(args.base), args.N, args.seed
        )
        return _verdict_exit(result, args.format, result["verdict"] == "pass")
    if args.theorem == "xi-lemma":
        report = check_inclusion_lemma(
            _config_from_args(args), parse_functor(args.base), args.N
        )
        return _verdict_exit(report.to_json(), args.format, report.passed)
    if args.theorem == "factorization":
        report = check_factorization(
            action_family(args.action), parse_functor(args.base), args.N
        )
        return _verdict_exit(report.to_json(), args.format, report.passed)
    if args.theorem == "burau-equivalence":
        return _verify_burau_equivalence(args)
    raise UsageError(f"unknown theorem {args.theorem!r}")


def _verify_burau_equivalence(args) -> int:
    eta, source, target = _burau_reversal_map()
    failures = []
    checked = 0
    for n in range(2, args.N + 1):
        reversal = _reversal(n)
        for i in range(1, n):
            checked += 1
            conj = reversal.matmul(source.gen_matrix(n, i)).matmul(reversal)
            if conj != target.gen_matrix(n, n - i):
                failures.append({"kind": "reversal-conjugation", "n": n, "i": i})
    report = check_natural(eta, args.N, include_stab=False)
    checked += report.checked
    failures.extend(report.failures)
    payload = {
        "check": "burau-equivalence",
        "range": {"N": args.N},
        "verdict": "pass" if not failures else "fail",
        "checked": checked,
        "witness": failures[0] if failures else None,
        "note": (
            "reversal conjugation maps generator i to the flipped generator; "
            "the natural-map components include a half-twist to match indices"
        ),
    }
    return _verdict_exit(payload, args.format, not failures)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _count(text: str) -> int:
    """A level, range bound or iteration count: an integer >= 0.  A negative
    range is refused here rather than checked as an empty, vacuous pass."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmkit",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    # A string default goes through type=int at parse time, so a bad
    # LMKIT_SEED is reported as a usage error.
    default_seed = os.environ.get("LMKIT_SEED", "0")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, functor=False, base=False, cfg=False):
        p.add_argument("--seed", type=int, default=default_seed)
        p.add_argument("--format", choices=["json", "text"], default="json")
        if functor:
            p.add_argument("--functor", required=True, help="functor expression")
        if base:
            p.add_argument("--base", required=True, help="base functor expression")
        if cfg:
            p.add_argument("--action", default="artin")
            p.add_argument("--sigma", default="pure-braid")
            p.add_argument("--pre", default=None, help="unit pre-twist polynomial")
            p.add_argument("--post", default=None, help="unit post-scale polynomial")

    p = sub.add_parser("emit", help="dump dimension, generator, stabilization data")
    common(p, functor=True)
    p.add_argument("--n", type=_count, required=True)
    p.set_defaults(func=cmd_emit)

    p = sub.add_parser("check", help="run an exact identity check")
    p.add_argument("kind", choices=["functor", "coherence", "reliability", "natural"])
    common(p, cfg=True)
    p.add_argument("--functor", default="constant")
    p.add_argument("--map", default="identity", help="natural map name for `natural`")
    p.add_argument("--N", type=_count, default=4)
    p.add_argument(
        "--L", type=_count, default=3,
        help="word length bound; checks are decided on letters, so any L >= 1 "
        "gives the same verdict and witness",
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("lm", help="apply the construction and dump matrices")
    common(p, base=True, cfg=True)
    p.add_argument("--iterations", type=_count, default=1)
    p.add_argument("--n", type=_count, required=True)
    p.set_defaults(func=cmd_lm)

    p = sub.add_parser("degree", help="estimate the strong polynomial degree")
    common(p, functor=True)
    p.add_argument("--N", type=_count, default=6)
    p.add_argument("--d-max", type=_count, default=None, dest="d_max")
    p.set_defaults(func=cmd_degree)

    p = sub.add_parser("verify", help="verify one of the package's theorems")
    p.add_argument(
        "theorem",
        choices=["splitting", "degree", "burau-equivalence", "xi-lemma", "factorization"],
    )
    common(p, cfg=True)
    p.add_argument("--base", default="constant")
    p.add_argument("--N", type=_count, default=4)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (
        UsageError,
        LaurentError,
        BraidError,
        FreeGroupError,
        CoherenceError,
        repfun.FunctorError,
        polyfun.SplitCertificationError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
