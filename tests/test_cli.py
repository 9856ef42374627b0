import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lmkit.cli import main, parse_functor, UsageError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestEmit:
    def test_burau_contains_blocks(self, capsys):
        code, out = run(capsys, "emit", "--functor", "burau", "--n", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["dim"] == 3
        assert payload["generators"]["s1"][0][0] == "1 - t"

    def test_constant_all_ones(self, capsys):
        code, out = run(capsys, "emit", "--functor", "constant", "--n", "5")
        payload = json.loads(out)
        assert all(m == [["1"]] for m in payload["generators"].values())

    def test_lk_dimension(self, capsys):
        code, out = run(capsys, "emit", "--functor", "lk", "--n", "4")
        payload = json.loads(out)
        assert payload["dim"] == 6
        assert len(payload["generators"]["s1"]) == 6

    def test_unknown_functor_exit_2(self, capsys):
        code = main(["emit", "--functor", "bogus", "--n", "2"])
        assert code == 2

    def test_deterministic_output(self, capsys):
        _, first = run(capsys, "degree", "--functor", "lk", "--N", "5", "--seed", "3")
        _, second = run(capsys, "degree", "--functor", "lk", "--N", "5", "--seed", "3")
        assert first == second


class TestCheck:
    def test_coherence_pass(self, capsys):
        code, out = run(
            capsys, "check", "coherence", "--action", "artin",
            "--sigma", "pure-braid", "--N", "3", "--L", "2",
        )
        assert code == 0
        verdicts = [c["verdict"] for c in json.loads(out)["conditions"]]
        assert verdicts == ["pass", "pass", "pass"]

    def test_functor_pass(self, capsys):
        code, out = run(capsys, "check", "functor", "--functor", "lk", "--N", "3", "--L", "2")
        assert code == 0

    def test_corrupted_sigma_fails_with_witness(self, capsys):
        code, out = run(
            capsys, "check", "coherence", "--action", "artin",
            "--sigma", "corrupted-demo", "--N", "3", "--L", "2",
        )
        assert code == 1
        conditions = json.loads(out)["conditions"]
        failing = [c for c in conditions if c["verdict"] == "fail"]
        assert failing and failing[-1]["witness"] is not None

    def test_reliability(self, capsys):
        code, _ = run(capsys, "check", "reliability", "--N", "3", "--L", "2")
        assert code == 0

    def test_natural_identity(self, capsys):
        code, _ = run(capsys, "check", "natural", "--map", "identity", "--functor", "tym", "--N", "3")
        assert code == 0

    def test_natural_burau_reversal(self, capsys):
        code, _ = run(capsys, "check", "natural", "--map", "burau-reversal", "--N", "4")
        assert code == 0


class TestLongMoody:
    def test_classical_blocks(self, capsys):
        code, out = run(
            capsys, "lm", "--base", "constant", "--pre", "t", "--post", "t^-1", "--n", "4",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["generators"]["s1"][0] == ["0", "t^2", "0", "0"]
        assert payload["generators"]["s1"][1] == ["1", "1 - t^2", "0", "0"]

    def test_iterated_dimension(self, capsys):
        code, out = run(capsys, "lm", "--base", "constant", "--iterations", "2", "--n", "4")
        assert json.loads(out)["dim"] == 20

    def test_blockdiag_action(self, capsys):
        code, out = run(
            capsys, "lm", "--action", "wada2", "--sigma", "trivial", "--base", "burau", "--n", "2",
        )
        payload = json.loads(out)
        assert payload["dim"] == 6


class TestDegreeAndVerify:
    def test_degree_reduced_burau(self, capsys):
        code, out = run(capsys, "degree", "--functor", "reduced-burau", "--N", "6")
        assert code == 0
        payload = json.loads(out)
        assert payload["strong_degree_at_range"] == 2
        assert payload["very_strong"] is False

    def test_degree_lk_at_n12(self, capsys):
        # LK generators at n = 12 are 66 x 66; their inverses eliminate
        # only the 21 columns each generator moves.
        code, out = run(capsys, "degree", "--functor", "lk", "--N", "12")
        assert code == 0
        payload = json.loads(out)
        assert payload["strong_degree_at_range"] == 2
        assert payload["very_strong"] is True
        assert [e["max_nonzero_dim"] for e in payload["evidence"]] == [66, 11, 1, 0]

    def test_verify_burau_equivalence(self, capsys):
        code, out = run(capsys, "verify", "burau-equivalence", "--N", "4")
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_verify_splitting(self, capsys):
        code, out = run(capsys, "verify", "splitting", "--base", "burau", "--N", "3")
        assert code == 0

    def test_degree_reports_undetermined_difference(self, capsys):
        code, out = run(capsys, "degree", "--functor", "lm(artin,pure-braid;e(1))", "--N", "6")
        assert code == 0
        payload = json.loads(out)
        assert payload["strong_degree_at_range"] is None
        assert payload["note"].startswith("the order-2 difference is not determined")
        assert "inclusion at level 1" in payload["note"]

    def test_degree_reports_uncertified_evanescence_as_unknown(self, capsys):
        code, out = run(capsys, "degree", "--functor", "lm(artin,pure-braid;e(1))", "--N", "6")
        assert code == 0
        payload = json.loads(out)
        assert [e["kappa_zero"] for e in payload["evidence"]] == [True, None]
        assert payload["very_strong"] is False
        assert (
            "kappa of the order-1 difference is unknown: delta(lm(artin,pure-braid;e(1))): "
            "no certified complement for the inclusion at level 1"
        ) in payload["note"]

    def test_verify_splitting_refuses_twists(self, capsys):
        code = main(
            ["verify", "splitting", "--base", "tym", "--pre", "t", "--post", "t^-1", "--N", "3"]
        )
        assert code == 2
        assert "untwisted" in capsys.readouterr().err

    def test_verify_xi_lemma(self, capsys):
        code, _ = run(capsys, "verify", "xi-lemma", "--base", "constant", "--N", "4")
        assert code == 0

    def test_verify_factorization(self, capsys):
        code, _ = run(capsys, "verify", "factorization", "--base", "tym", "--action", "wada3", "--N", "3")
        assert code == 0

    def test_verify_degree(self, capsys):
        code, out = run(capsys, "verify", "degree", "--base", "constant", "--N", "4")
        assert code == 0
        assert json.loads(out)["image"]["strong_degree_at_range"] == 1


class TestFunctorGrammar:
    def test_nested_expression(self):
        f = parse_functor("lm(artin,pure-braid,t,t^-1; constant)")
        assert f.dim(3) == 3

    def test_combinators(self):
        assert parse_functor("sum(burau; tym)").dim(3) == 6
        assert parse_functor("tensor(burau; tym)").dim(3) == 9
        assert parse_functor("tau(2; burau)").dim(1) == 3
        assert parse_functor("twist(t; constant)").dim(4) == 1
        assert parse_functor("atomic(2)").dim(2) == 1
        assert parse_functor("e(2)").dim(3) == 9
        assert parse_functor("burau(t^2)").gen_matrix(2, 1).entry(1, 0).is_unit()

    def test_bad_expressions(self):
        for text in ["sum(burau)", "lm(artin; constant", "wat(1)"]:
            with pytest.raises((UsageError, ValueError)):
                parse_functor(text)

    def test_usage_exit_code(self):
        assert main(["degree", "--functor", "sum(burau)", "--N", "3"]) == 2

    def test_bad_arguments_are_usage_errors(self, capsys):
        for spec in ["atomic(x)", "e(1.5)", "tau(x; burau)", "tau(1; burau; tym)",
                     "twist(t)", "lm(artin,pure-braid)"]:
            assert main(["emit", "--functor", spec, "--n", "2"]) == 2, spec
        assert main(["check", "coherence", "--action", "wada1:x"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_seed_environment_is_usage_error(self, monkeypatch):
        monkeypatch.setenv("LMKIT_SEED", "x")
        assert main(["emit", "--functor", "burau", "--n", "2"]) == 2

    def test_internal_fault_is_not_usage_error(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("internal bug")

        monkeypatch.setattr("lmkit.cli.check_functor", broken)
        assert main(["check", "functor", "--functor", "burau", "--N", "2"]) == 3
        err = capsys.readouterr().err
        assert "Traceback" in err and "internal bug" in err


def test_python_dash_m_runs_the_cli(capsys):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = ["emit", "--functor", "burau", "--n", "3"]
    done = subprocess.run(
        [sys.executable, "-m", "lmkit", *argv], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0
    assert done.stdout == run(capsys, *argv)[1]
    bad = subprocess.run(
        [sys.executable, "-m", "lmkit", "emit", "--functor", "bogus", "--n", "2"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert bad.returncode == 2
