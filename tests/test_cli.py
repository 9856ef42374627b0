import hashlib
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

    def test_functor_letters_decide_any_length(self, capsys):
        payloads = []
        for word_len in ("1", "3"):
            code, out = run(capsys, "check", "functor", "--functor", "lk", "--N", "5", "--L", word_len)
            assert code == 0
            payloads.append(json.loads(out))
        short, long = payloads
        assert (short["verdict"], short["witness"]) == (long["verdict"], long["witness"])
        assert short["checked"] == long["checked"]

    @pytest.mark.parametrize(
        "action,lengths", [("artin", ("1", "4")), ("wada3", ("1", "3"))]
    )
    def test_coherence_letters_decide_any_length(self, capsys, action, lengths):
        runs = []
        for word_len in lengths:
            code, out = run(
                capsys, "check", "coherence", "--action", action,
                "--sigma", "pure-braid", "--N", "5", "--L", word_len,
            )
            runs.append((code, json.loads(out)["conditions"]))
        (code_short, short), (code_long, long) = runs
        assert code_short == code_long
        for a, b in zip(short, long):
            assert (a["condition"], a["verdict"], a["witness"]) == (
                b["condition"], b["verdict"], b["witness"]
            )
        semidirect = next(c for c in long if c["condition"] == "semidirect")
        assert set(semidirect["range"]) == {"N", "L"}

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

    @pytest.mark.parametrize("spec", ["burau", "tym", "reduced-burau"])
    def test_degree_of_a_tensor_pivots_on_a_unit(self, capsys, spec):
        # delta(tensor(burau; burau)) includes level 0 as the column
        # [t^-1 - t^-2, t^-2, t^-1 - t^-2]: the first row is nonzero at every
        # seeded point but no unit, and only the unit t^-2 as pivot certifies.
        code, out = run(capsys, "degree", "--functor", f"tensor(burau;{spec})", "--N", "6")
        payload = json.loads(out)
        assert code == 0
        assert (payload["strong_degree_at_range"], payload["very_strong"]) == (2, True)

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
        for spec in ["atomic(x)", "atomic(-1)", "e(1.5)", "e(-1)", "tau(x; burau)",
                     "tau(1; burau; tym)", "twist(t)", "lm(artin,pure-braid)", "burau(1/0)",
                     "lk(7)", "constant(burau)", "x(1)", "t1(t)", "zero(0)",
                     "lm(artin,pure-braid,t,t^-1,junk;constant)"]:
            assert main(["emit", "--functor", spec, "--n", "2"]) == 2, spec
        for action in ["wada1:x", "wada2:3", "wada01", "wada1:02"]:
            assert main(["check", "coherence", "--action", action]) == 2, action
        assert main(["lm", "--base", "constant", "--pre", "1/0", "--n", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "functor", "--functor", "burau", "--N", "-3", "--L", "-1"],
            ["check", "functor", "--functor", "burau", "--N", "3", "--L", "-1"],
            ["check", "coherence", "--N", "-1"],
            ["check", "reliability", "--N", "2", "--L", "-2"],
            ["verify", "splitting", "--base", "burau", "--N", "-1"],
            ["degree", "--functor", "burau", "--N", "-2"],
            ["degree", "--functor", "burau", "--N", "4", "--d-max", "-1"],
            ["lm", "--base", "burau", "--iterations", "-1", "--n", "2"],
            ["emit", "--functor", "burau", "--n", "-1"],
        ],
    )
    def test_negative_ranges_are_usage_errors(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be >= 0" in captured.err

    @pytest.mark.parametrize(
        "argv, refused",
        [
            (["emit", "--functor", "tau(30;constant)", "--n", "0"],
             "constant has evaluation range 24, below the shift 30"),
            # lk's range is 14; the fifteenth application translates by one
            # an image whose range is 0.
            (["lm", "--base", "lk", "--iterations", "20", "--n", "0"],
             "has evaluation range 0, below the shift 1"),
        ],
    )
    def test_translation_beyond_the_range_is_refused_when_built(self, capsys, argv, refused):
        # These exit 2 either way; built, they used to report a negative range.
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert refused in captured.err and "range -" not in captured.err

    @pytest.mark.parametrize(
        "argv, refused",
        [
            (["check", "functor", "--functor", "lm(artin,pure-braid;burau)", "--N", "17", "--L", "1"],
             "lm(artin,pure-braid;burau): level 16 beyond evaluation range 15"),
            (["check", "functor", "--functor", "tau(2;burau)", "--N", "16", "--L", "1"],
             "tau(2;burau): level 15 beyond evaluation range 14"),
            (["check", "functor", "--functor", "sum(burau;lk)", "--N", "15", "--L", "1"],
             "(burau)+(lk): level 15 beyond evaluation range 14"),
            (["emit", "--functor", "lm(artin,pure-braid;burau)", "--n", "16"],
             "lm(artin,pure-braid;burau): level 16 beyond evaluation range 15"),
        ],
        ids=["check-lm", "check-tau", "check-sum", "emit-lm"],
    )
    def test_a_level_beyond_the_range_names_the_functor_asked_for(self, capsys, argv, refused):
        # Its letter rule reads a part one level higher; the part's range
        # error must not be the one reported.
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {refused}\n"

    def test_zero_ranges_are_accepted(self, capsys):
        code, out = run(capsys, "check", "functor", "--functor", "burau", "--N", "0", "--L", "0")
        assert code == 0 and json.loads(out)["verdict"] == "pass"

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


# Stdout digests at --seed 0.  Any change to a verdict, a count, a witness
# or a matrix entry of these commands shows here; update a digest only for
# an intended change of output, and record it in CHANGES.md.
PINNED_STDOUT = [
    (["check", "functor", "--functor", "burau"], 0,
     "47b88ff34be721a2d6ab5a994ca718c13c18818f9b2d84832404072cce93a57f"),
    (["check", "functor", "--functor", "reduced-burau"], 0,
     "ba75fa24e7b420fefdda7638c16f142a3f1be5825bcf44271b549c53fa3fdf20"),
    (["check", "functor", "--functor", "lk"], 0,
     "dff17d4ae2d2418cb0617f8b253093bcb745d850f86c298f156b725e4965272d"),
    (["check", "functor", "--functor", "tensor(burau;tym)"], 0,
     "3078433be6e042bae7272949aeced932964701bb77f96ce786ee73da1be569d4"),
    (["check", "functor", "--functor", "lm(artin,pure-braid;burau)"], 0,
     "3b4182ac9d9cb24d4d283458a0e964761f6fa9b4df3c8c85de92179c177a5f8b"),
    (["emit", "--functor", "lm(artin,pure-braid,t,t^-1;constant)", "--n", "4"], 0,
     "b2017840567aa89ea35b4f85e5c35a8286ba4728403cfb790708870056aa99c6"),
    (["verify", "splitting", "--base", "burau", "--N", "4"], 0,
     "a01c5ec1af6e1b05bf3383d0f7e2112640968a000b65edf443a84ae044234234"),
    (["check", "natural", "--map", "burau-reversal", "--N", "6"], 0,
     "222c2792aa553b7474d09fa0128d0c447922252250a99ef37c90c2540f5a34e2"),
    (["check", "coherence", "--N", "5", "--L", "4"], 0,
     "02dbceb948d58196f1d34153c2e275dc3412328dc067fc02f79423f024c158e2"),
    (["check", "coherence", "--N", "10", "--L", "1"], 0,
     "2ad4ea61119c6c9d727d699b22fa49d3a837296cd20dbf22a40858ff610c8bce"),
    (["check", "coherence", "--action", "wada3", "--sigma", "pure-braid", "--N", "4", "--L", "3"], 1,
     "741815f18db56ec9821e82cbd4f9ba93f40035b03b8e4bf6f9a77375cc9f64dd"),
    (["check", "coherence", "--action", "wada1:2", "--sigma", "pure-braid", "--N", "4", "--L", "2"], 1,
     "d4819fd20f00c3b3c0785268ab96cbca202dac6107679b1054b5791378eb78f0"),
    (["check", "reliability", "--N", "5", "--L", "4"], 0,
     "3911523606d20ac60c6b0cc9b579db25b53e2c9e65c304a711fdfa374dee9166"),
    # A reliability fail (first-generator-return), in JSON and as text.
    (["check", "reliability", "--action", "wada5", "--N", "4", "--L", "1"], 1,
     "fa77079ad3520af2f2eb1193a9595b4cceb2725367b58813eaf12ca9c0b4cb38"),
    (["check", "reliability", "--action", "wada5", "--N", "4", "--L", "1", "--format", "text"], 1,
     "53de9513c6fedf071a0227d6cc0e4d432ba91369985ab87bae4146a67cd45da6"),
    (["degree", "--functor", "lk", "--N", "10"], 0,
     "907e4a3d9ba6624a0c1804d433df25b87a0b27c08f83caa754e90d4ad63b5fbd"),
    (["degree", "--functor", "atomic(2)", "--N", "6"], 0,
     "c3c422a17828def1f6d363af3b30f7fc0b3ee50ec675a8e1bd1ecbc22c074611"),
    (["degree", "--functor", "lm(artin,pure-braid;lm(artin,pure-braid;burau))", "--N", "6"], 0,
     "d92b77126b37bfaf63a14cac567069c274fdc70a3ce5543c2cf3c362a10ce43d"),
    (["verify", "degree", "--base", "tym", "--N", "5"], 0,
     "2e50b86a2ffbc138045e72ef53173b89770842ef90fa5b238a3054576c5d5d59"),
    (["verify", "splitting", "--base", "atomic(2)", "--N", "5"], 0,
     "15e2dabd00dcc2209f9f7415324cca02d6521db4cb4d4e24f5c17f550a004e76"),
    (["verify", "splitting", "--base", "lk", "--N", "4"], 0,
     "2b6b732a105d4aa4b4485227cea1cd34deaa756401f7e57a45eb3b4764a7f787"),
    (["verify", "splitting", "--base", "tym", "--N", "6"], 0,
     "0b858e6938eb1c55153e99cd9fea0c105c093389b8f0a1e35b8497513f3861c1"),
    (["verify", "splitting", "--base", "constant", "--N", "5"], 0,
     "3ce49ae81cee78c1fb34496bb65bad4c70dd9d5c361d79180759db367d681042"),
    # Long-Moody images over Wada actions: fixed Fox columns and unchecked
    # matrices, on a pass and on a fail (witness {kind: inverse, n: 2, i: 1}).
    (["check", "functor", "--functor", "lm(wada5,trivial;burau)", "--N", "4"], 0,
     "60793b10a5b5937b893430d3a859b72967c17739d94b756d89aa4f39c1156ab3"),
    (["check", "functor", "--functor", "lm(wada3,pure-braid;burau)", "--N", "5", "--L", "1"], 1,
     "8baa5e32d1dd58241500baa76fb7ad5167957d2f013151bf304092ff4315f4f6"),
    # Translations of Long-Moody images: multi-step stabilizations of a
    # compound functor, on an emit, a pass and a fail (a non-functor image).
    (["emit", "--functor", "tau(2;lm(artin,pure-braid;burau))", "--n", "3"], 0,
     "197e456a6ba52f9bc48cb2e1ebb94bcc7663cbbaa8c2e2f64a3dbf6b6ef2fdf9"),
    (["check", "functor", "--functor", "tau(1;lm(artin,pure-braid;tym))", "--N", "5"], 0,
     "2a3a10ab465ac04adca34f96f161778e88251efad5087a8bd623b192fc7daa0f"),
    (["check", "functor", "--functor", "tau(1;lm(wada3,pure-braid;burau))", "--N", "5", "--L", "1"], 1,
     "b9a7b1e579680c2a168c0a1fc14d40c7e3a2c8826d24984c4d013802c6e8ace6"),
    (["verify", "factorization", "--base", "burau", "--N", "4"], 0,
     "40200b04653e3d0630ba8e01307f2ee5d0369dfa08af01b18aab96183da0b6e5"),
    (["verify", "xi-lemma", "--base", "burau", "--N", "4"], 0,
     "aa9cc426b29b29da97f838625f885da3df9f2ff4bf79202eea34420e63ab0ba8"),
    # One emit per built-in family and combinator, so a rewrite of the
    # families is checked on its matrices and not only through verdicts.
    (["emit", "--functor", "constant", "--n", "4"], 0,
     "52b3aa8ddf047bf6b1759786eb68d79209150ce70ff8c12fb6b4027fd8dafbba"),
    (["emit", "--functor", "t1", "--n", "4"], 0,
     "c0c3195dfdf956b6a9d8f55490f54c9bea05ceea5ea64224c2f8443686d502c3"),
    (["emit", "--functor", "zero", "--n", "4"], 0,
     "f52f50b7eea877347dfed553e2feeb22933b5fe453c993adc5bd9e501d52b7da"),
    (["emit", "--functor", "e(2)", "--n", "4"], 0,
     "3f0b323e3eaa8d047f35fa62f167851fe9347bc8bae6fe8b161839753b63bb6b"),
    (["emit", "--functor", "atomic(2)", "--n", "4"], 0,
     "06fcdd251b62e76988c87b8e4a319cefc7ac06eb4d41392e24615fa4d5810878"),
    (["emit", "--functor", "burau", "--n", "4"], 0,
     "add1a390345119ad7037e844041847c9aa2bc8d0058553eb3a40dee2d66c26e1"),
    (["emit", "--functor", "burau(t^2)", "--n", "4"], 0,
     "29595a3aee473aef6654f4472c0c4707150dffcb3d1baf03a524d8e33ab041dc"),
    (["emit", "--functor", "tym(-1)", "--n", "4"], 0,
     "6c65ff789b5453e89c655472ec514a9be7d1428a2ff13d96f9cbfc5fc7228a9a"),
    (["emit", "--functor", "reduced-burau", "--n", "4"], 0,
     "4c28437d59e2058b942b03a9996a0d1520e5b2a90e67a09ba82ebe6ef6fd3c29"),
    (["emit", "--functor", "reduced-burau(t^2)", "--n", "4"], 0,
     "e66f82449c76266fa17ed2e9c51e5acf67ed2051a5012ea24cb08834a330a13c"),
    (["emit", "--functor", "lk", "--n", "4"], 0,
     "af560884db4dcd5f2667c5db49750639415f76b821c05d17c4e37e342815385c"),
    (["emit", "--functor", "sum(burau;lk)", "--n", "4"], 0,
     "833268a2e796816a4e80cfd0874e818f07adc31bfe1122469351cc919057fb8b"),
    (["emit", "--functor", "tensor(burau;tym)", "--n", "4"], 0,
     "c5aa68945a2a451bd22499d3d81a5064c9db57b28c383dc0304d0b6cf8e3946b"),
    (["emit", "--functor", "twist(t;burau)", "--n", "4"], 0,
     "0d71e039864336a6fcee6e0acf2ce83eaaa97f8981c4a35454803ee204429064"),
    # Functors with zero transition maps, pinned before zero maps became
    # free: a zero one-step map skips its router, and a zero inclusion
    # splits on flagged identities.
    (["degree", "--functor", "e(2)", "--N", "10"], 0,
     "5b7f9c31e3755c46fd56158dfb4987a95f256c0631fcacc13980f5fc956f11c4"),
    (["degree", "--functor", "e(3)", "--N", "8"], 0,
     "1e1b8f8c4f4eca4b32b4351d0538cb311f8c824a51721c3f696f98a816dfea8c"),
    (["degree", "--functor", "atomic(3)", "--N", "8"], 0,
     "6e7d30e237aa5f48ce813400ec8691c76dd6ed674397c744401dd384aaa6cfe9"),
    (["degree", "--functor", "tau(1;atomic(2))", "--N", "6"], 0,
     "76399ff849e583a7400f81f17ee8900bacb8abf1ab0f59a82b61b7333d6fc0f6"),
    (["verify", "splitting", "--base", "e(1)", "--N", "3"], 0,
     "27073010810eacf5232db6e2418fd4d9b3e35d2fe4ed15e4b31555cd5ab6d849"),
    (["verify", "degree", "--base", "atomic(2)", "--N", "5"], 1,
     "965273be14692738112c67f724161bcab8765d83345d4b1993a2a3f60c0ca6b2"),
]


def test_stdout_digests_are_pinned(capsys):
    for argv, code, digest in PINNED_STDOUT:
        got, out = run(capsys, *argv, "--seed", "0")
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest), argv


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


def test_closed_stdout_is_not_an_internal_fault():
    # The reader keeps a few bytes of the 364 KB emit output and closes the
    # pipe; the command still exits 0, with nothing on stderr.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "lmkit", "emit", "--functor", "lk", "--n", "10"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(10) == b'{\n  "dim":'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (0, b"")


def test_triple_long_moody_burau_degree_is_pinned(capsys):
    # The main theorem three times over: LM raises the very strong degree
    # of burau (1) by one at each application, so L3 has degree 4.
    l3 = "lm(artin,pure-braid;lm(artin,pure-braid;lm(artin,pure-braid;burau)))"
    code, out = run(capsys, "degree", "--functor", l3, "--N", "5", "--seed", "0")
    payload = json.loads(out)
    assert (code, payload["strong_degree_at_range"], payload["very_strong"]) == (0, 4, True)
    digest = "a0fc19773059ada25094aa4ec8b4027cffa85feafcfd2b3828f66d4e7dfc7e8c"
    assert hashlib.sha256(out.encode()).hexdigest() == digest
