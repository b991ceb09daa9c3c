"""Command-line behavior: outputs, JSON schema, exit codes."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import actualcause
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
        "is_cause", "witnesses", "failure_reason", "ac3_violation",
        "search_complete", "variant", "model", "context",
    }
    assert payload["is_cause"] is True
    assert payload["ac3_violation"] is None and payload["search_complete"] is True
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


def test_conservative_decides_an_unchanged_full_size_vote(capsys):
    """The 19-voter model against itself, each file parsed on its own: no
    base equation changes, so the check needs no solve and answers."""
    vote = str(model_path("livengood_17_2_0"))
    code, out, _ = run(capsys, "conservative", "-m1", vote, "-m2", vote)
    assert code == 0 and out.splitlines() == ["conservative: true"]


def test_ce_command(capsys):
    code, out, _ = run(capsys, "ce",
                       "-m1", str(model_path("scanner_vote")), "-m2", SCANNER)
    assert code == 0 and "conservative: true" in out


def _write_pair(tmp_path, base_text, ext_text):
    """The base and the extension written as .cm files, base first."""
    paths = tmp_path / "base.cm", tmp_path / "ext.cm"
    for path, text in zip(paths, (base_text, ext_text)):
        path.write_text(text)
    return [str(p) for p in paths]


# X reads U only through the new variable N, and differs at U=1, A=1
PLAIN_BASE = ("model base\nexogenous U: {0,1}\nexogenous W: {0,1}\n"
              "endogenous A: {0,1} = W\nendogenous X: {0,1} = A\n"
              "context u { U = 1; W = 0 }\nnormality ranks { default -> 0 }\n")
PLAIN_EXT = ("model ext\nexogenous U: {0,1}\nexogenous W: {0,1}\n"
             "endogenous A: {0,1} = W\nendogenous N: {0,1} = U\n"
             "endogenous X: {0,1} = case { N = 1 & A = 1 -> 0; default -> A }\n"
             "context u { U = 1; W = 0 }\nnormality ranks { default -> 0 }\n")
PLAIN_LINE = "context {U=1, W=0}, variable X, setting {A=1}, base 1, extension 0"


def test_conservative_prints_the_counterexample(capsys, tmp_path):
    base, ext = _write_pair(tmp_path, PLAIN_BASE, PLAIN_EXT)
    code, out, _ = run(capsys, "conservative", "-m1", base, "-m2", ext)
    assert code == 1
    assert out.splitlines() == ["conservative: false", f"counterexample: {PLAIN_LINE}"]


def test_ce_prints_both_kinds_of_counterexample(capsys, tmp_path):
    """An equation counterexample with its context, setting and values, as
    `conservative` prints it, and a normality-threshold one with its
    context: the same equations, but the extension ranks A=0 abnormal."""
    base, ext = _write_pair(tmp_path, PLAIN_BASE, PLAIN_EXT)
    code, out, _ = run(capsys, "ce", "-m1", base, "-m2", ext)
    assert code == 1
    assert out.splitlines() == ["conservative: false", f"equation counterexample: {PLAIN_LINE}"]
    ranked = PLAIN_BASE.replace("{ default", "{ A = 0 -> 1; default")
    base, ext = _write_pair(tmp_path, PLAIN_BASE, ranked)
    code, out, _ = run(capsys, "ce", "-m1", base, "-m2", ext)
    assert code == 1
    assert out.splitlines() == [
        "conservative: false",
        "normality-threshold counterexample: context {U=0, W=1}, setting {A=0}: "
        "base true, extension false",
    ]


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


@pytest.mark.parametrize("n, message", [("-1", "not a nonnegative integer"),
                                        ("x", "invalid int value")])
def test_stability_index_is_a_nonnegative_int(capsys, n, message):
    code, out, err = run(capsys, "stability", "--n", n)
    assert code == 64 and message in err
    assert out == ""
    assert run(capsys, "stability", "--n", "0")[0] == 0


def test_respects_command(capsys):
    code, out, _ = run(capsys, "respects", "-m", SCANNER, "-c", "u",
                       "--vars", "D'")
    assert code == 0 and out.strip() == "true"


@pytest.mark.parametrize("names", ["", ",", " , "])
def test_respects_needs_a_variable(capsys, names):
    code, out, err = run(capsys, "respects", "-m", SCANNER, "-c", "u", "--vars", names)
    assert code == 64 and "no variable names" in err
    assert out == ""


def test_corpus_run(capsys):
    code, out, _ = run(capsys, "corpus", "run")
    assert code == 0
    assert "corpus:" in out and "0 failed" in out
    assert "FAIL" not in out


def test_corpus_list(capsys):
    code, out, _ = run(capsys, "corpus", "list")
    assert code == 0
    assert "model hopkins_pearl" in out
    # the full-size plurality case, and only it, is marked
    marked = [line for line in out.splitlines() if line.endswith("[stated witness]")]
    assert len(marked) == 1 and marked[0].startswith("case liv1720_v18:")


def test_corpus_run_has_no_heavy_option(capsys):
    code, _, err = run(capsys, "corpus", "run", "--include-heavy")
    assert code == 64 and "usage error" in err


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


def test_json_reports_the_smaller_cause_and_completeness(capsys):
    scanner = str(model_path("scanner_vote"))
    query = ("-m", scanner, "-c", "u", "--effect", "WIN=1", "--variant", "extended")
    code, out, _ = run(capsys, "cause", *query, "--cause", "B=1 & C=1")
    assert code == 1 and "smaller cause: B=1" in out
    code, out, _ = run(capsys, "cause", *query, "--cause", "B=1 & C=1", "--json")
    payload = json.loads(out)
    assert code == 1 and payload["failure_reason"] == "AC3"
    assert payload["ac3_violation"] == [["B", 1]]
    assert payload["search_complete"] is True
    code, out, _ = run(capsys, "causes", *query, "--json")
    entries = json.loads(out)
    assert code == 0 and len(entries) == 3
    assert all(e["ac3_violation"] is None and e["search_complete"] for e in entries)


def test_over_deep_equation_is_an_engine_error(capsys, tmp_path):
    arms = " ".join(f"U = {i} -> 1;" for i in range(250))
    path = tmp_path / "deep.cm"
    path.write_text("model deep\nexogenous U: {0,1}\n"
                    f"endogenous A: {{0,1}} = case {{ {arms} default -> 0 }}\n"
                    "context u { U = 1 }\n")
    code, out, err = run(capsys, "solve", "-m", str(path), "-c", "u")
    assert code == 2 and "nested too deeply" in err and out == ""


def test_a_non_total_equation_is_refused_at_load(capsys, tmp_path):
    path = tmp_path / "sum.cm"
    path.write_text("model sum\nexogenous U: {0,1}\nendogenous A: {0,1} = U\n"
                    "endogenous B: {0,1} = U\nendogenous N: {0,1} = A + B\n"
                    "context u { U = 0 }\n")
    code, out, err = run(capsys, "cause", "-m", str(path), "-c", "u",
                         "--cause", "A=0", "--effect", "B=0")
    assert code == 2 and out == ""
    assert err == "error: value 2 is not in the range of 'N', given by its equation at A=1, B=1\n"


def test_eval_decides_a_long_chain(capsys):
    # a chain of one connective is walked, not recursed into, operand by operand
    conjunction = " & ".join(["BS=1"] * 1000)
    code, out, _ = run(capsys, "eval", "-m", RT, "-c", "u1", "-f", conjunction)
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "eval", "-m", RT, "-c", "u1",
                       "-f", conjunction + " & BH=1")
    assert code == 1 and out.strip() == "false"
    # true by its last operand only; false once Suzy does not throw
    disjunction = " | ".join(["BS=0"] * 999 + ["SH=1"])
    code, out, _ = run(capsys, "eval", "-m", RT, "-c", "u1", "-f", disjunction)
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "eval", "-m", RT, "-c", "u1",
                       "-f", f"[ST<-0]({disjunction})")
    assert code == 1 and out.strip() == "false"


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


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_a_closed_output_pipe_ends_the_program_by_sigpipe():
    """Writing into a pipe whose reader has gone ends the program by
    SIGPIPE, as `cat` does, with no traceback and no exit 1 (which means a
    negative verdict)."""
    src = str(Path(actualcause.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "actualcause.cli", "corpus", "list"],
                              stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    assert proc.stderr == b""
    assert proc.returncode == -signal.SIGPIPE
