"""Command-line exit codes: bad parameters, unusable paths, a closed stdout,
unknown commands."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from compalign.cli import main

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"
CLASS_PARSE = (
    "parse",
    "--grammar", str(FIXTURES / "class_grammar.sp"),
    "--new", str(FIXTURES / "class_new.sp"),
)
REPEAT_LEARN = ("learn", "--corpus", str(FIXTURES / "corpus_repeat.sp"))
NEURAL = (
    "neural",
    "--grammar", str(FIXTURES / "class_grammar.sp"),
    "--input", str(FIXTURES / "neural_input.sp"),
)


@pytest.mark.parametrize(
    "argv, message",
    [
        (CLASS_PARSE + ("--top", "0"), "top_k must be at least 1, got 0"),
        (CLASS_PARSE + ("--beam", "-1"), "alignment_beam must be at least 1, got -1"),
        (CLASS_PARSE + ("--workers", "0"), "workers must be at least 1, got 0"),
        (REPEAT_LEARN + ("--grammar-beam", "0"), "grammar_beam must be at least 2, got 0"),
        (REPEAT_LEARN + ("--workers", "0"), "workers must be at least 1, got 0"),
        (NEURAL + ("--steps", "-5"), "steps must be at least 0, got -5"),
        # a beam of 1 holds only the empty grammar, which the pool always keeps
        (REPEAT_LEARN + ("--grammar-beam", "1"), "grammar_beam must be at least 2, got 1"),
    ],
)
def test_bad_parameters_exit_2_with_one_line(argv, message, capsys):
    assert main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == message + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("parse", "--grammar", str(FIXTURES), "--new", str(FIXTURES / "class_new.sp")),
        ("validate", "--grammar", str(FIXTURES)),
        CLASS_PARSE + ("--audit", "{tmp}/a_file"),
        REPEAT_LEARN + ("--workers", "1", "--out", "{tmp}/missing/g.sp"),
    ],
    ids=["parse-dir", "validate-dir", "audit-file", "out-missing-dir"],
)
def test_unusable_paths_exit_1_with_one_line(argv, tmp_path, capsys):
    (tmp_path / "a_file").write_text("")
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_bench_is_an_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as info:
        main(["bench", "--suite", "workers"])
    assert info.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_closed_stdout_exits_quietly():
    # a pipe whose reader is already gone, as in `compalign parse ... | true`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "compalign", *CLASS_PARSE, "--top", "5"],
            cwd=REPO,
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""
