"""Command-line behavior: outputs, JSON schema, exit codes."""

import json

import pytest

from actualcause.cli import run_command
from actualcause.corpus import model_path
from actualcause.dsl import parse_model


HOPKINS = str(model_path("hopkins_pearl"))
RT = str(model_path("rock_throwing_detailed"))
SCANNER = str(model_path("scanner_vote_direct"))


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_prints_world(capsys):
    code, out, _ = run(capsys, "solve", "-m", RT, "-c", "u1")
    assert code == 0
    assert out.splitlines() == ["ST = 1", "BT = 1", "SH = 1", "BH = 0", "BS = 1"]


def test_eval_exit_codes(capsys):
    code, out, _ = run(capsys, "eval", "-m", HOPKINS, "-c", "u",
                       "-f", "[A<-1, C<-0](D=0)")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "eval", "-m", HOPKINS, "-c", "u", "-f", "D=0")
    assert code == 1 and out.strip() == "false"


def test_cause_text_and_exit(capsys):
    code, out, _ = run(capsys, "cause", "-m", HOPKINS, "-c", "u",
                       "--cause", "A=1", "--effect", "D=1",
                       "--variant", "original")
    assert code == 0
    assert "is_cause: true" in out
    assert "W={B, C} w=(1, 0) x'=(0,)" in out
    code, out, _ = run(capsys, "cause", "-m", HOPKINS, "-c", "u",
                       "--cause", "A=1", "--effect", "D=1",
                       "--variant", "updated")
    assert code == 1
    assert "is_cause: false" in out and "AC2(b)" in out


def test_cause_json_schema(capsys):
    code, out, _ = run(capsys, "cause", "-m", HOPKINS, "-c", "u",
                       "--cause", "A=1", "--effect", "D=1",
                       "--variant", "original", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "is_cause", "witnesses", "failure_reason", "variant", "model", "context"
    }
    assert payload["is_cause"] is True
    assert payload["variant"] == "original"
    assert payload["model"] == "hopkins_pearl" and payload["context"] == "u"
    assert payload["witnesses"] == [{"vars": ["B", "C"], "values": [1, 0], "alt": [0]}]
    assert out.endswith("\n")


def test_causes_enumeration(capsys):
    code, out, _ = run(capsys, "causes", "-m", str(model_path("glymour_naive")),
                       "-c", "u", "--effect", "O=1", "--json")
    assert code == 0
    payload = json.loads(out)
    found = [entry["cause"] for entry in payload]
    assert found == [{"A1": 1}, {"A2": 1}, {"A3": 0}, {"A4": 0}, {"A5": 0}]


def test_conservative_exit_codes(capsys):
    code, out, _ = run(capsys, "conservative",
                       "-m1", str(model_path("rock_throwing_naive")), "-m2", RT)
    assert code == 0 and "conservative: true" in out
    code, out, _ = run(capsys, "conservative",
                       "-m1", RT, "-m2", str(model_path("rock_throwing_cheat")))
    assert code == 1 and "counterexample" in out


def test_ce_command(capsys):
    code, out, _ = run(capsys, "ce",
                       "-m1", str(model_path("scanner_vote")), "-m2", SCANNER)
    assert code == 0 and "conservative: true" in out


def test_kill_witnesses_emits_parseable_model(capsys):
    code, out, _ = run(capsys, "kill-witnesses", "-m", HOPKINS, "-c", "u",
                       "--cause", "A=1", "--effect", "D=1")
    assert code == 0
    emitted = parse_model(out)
    assert "NW1" in emitted.model.endogenous_names
    followup = run_command(["cause", "-m", HOPKINS, "-c", "u",
                            "--cause", "A=1", "--effect", "D=1",
                            "--variant", "original"])
    assert followup == 0  # original file untouched


def test_stability_command(capsys):
    code, out, _ = run(capsys, "stability", "--n", "3")
    assert code == 0
    doc = parse_model(out)
    assert doc.model.endogenous_names == ("A", "B", "X1", "X2", "Y1")


def test_respects_command(capsys):
    code, out, _ = run(capsys, "respects", "-m", SCANNER, "-c", "u",
                       "--vars", "D'")
    assert code == 0 and out.strip() == "true"


def test_corpus_run(capsys):
    code, out, _ = run(capsys, "corpus", "run")
    assert code == 0
    assert "corpus:" in out and "0 failed" in out
    assert "FAIL" not in out


def test_corpus_list(capsys):
    code, out, _ = run(capsys, "corpus", "list")
    assert code == 0
    assert "model hopkins_pearl" in out
    assert "[heavy]" in out  # the full-size plurality case is marked


def test_usage_error_is_64(capsys):
    code, _, err = run(capsys, "cause", "-m", HOPKINS)
    assert code == 64 and "usage error" in err
    assert run_command(["no-such-command"]) == 64
    capsys.readouterr()


def test_engine_error_is_2(capsys):
    code, _, err = run(capsys, "solve", "-m", HOPKINS, "-c", "nope")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "solve", "-m", "/no/such/file.cm", "-c", "u")
    assert code == 2
    code, _, err = run(capsys, "cause", "-m", HOPKINS, "-c", "u",
                       "--cause", "A=1", "--effect", "D=1", "--budget", "3")
    assert code == 2 and "budget" in err


def test_over_deep_equation_is_an_engine_error(capsys, tmp_path):
    arms = " ".join(f"U = {i} -> 1;" for i in range(250))
    path = tmp_path / "deep.cm"
    path.write_text("model deep\nexogenous U: {0,1}\n"
                    f"endogenous A: {{0,1}} = case {{ {arms} default -> 0 }}\n"
                    "context u { U = 1 }\n")
    code, out, err = run(capsys, "solve", "-m", str(path), "-c", "u")
    assert code == 2 and "nested too deeply" in err and out == ""


_CAUSE = ("cause", "-m", HOPKINS, "-c", "u", "--cause", "A=1", "--effect", "D=1")
_CAUSES = ("causes", "-m", HOPKINS, "-c", "u", "--effect", "D=1")
_KILL = ("kill-witnesses", "-m", HOPKINS, "-c", "u", "--cause", "A=1", "--effect", "D=1")


@pytest.mark.parametrize("argv", [
    (*_CAUSE, "--budget", "0"),
    (*_CAUSE, "--budget", "-5"),
    (*_CAUSES, "--budget", "0"),
    (*_CAUSES, "--max-conjuncts", "0"),
    (*_CAUSES, "--max-conjuncts", "-1"),
    (*_KILL, "--budget", "0"),
    ("corpus", "run", "--budget", "0"),
])
def test_non_positive_limits_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 64 and "not a positive integer" in err
    assert out == ""
