import os
import subprocess
import sys

import pytest

import tensorcanon
from tensorcanon import cli

SRC = os.path.dirname(os.path.dirname(tensorcanon.__file__))


def test_canon_prints_result(capsys):
    assert cli.main(["canon", "--declare", "tensor A rank=2 asym=1..2", "A_{2 1}"]) == 0
    assert capsys.readouterr().out == "-A_{1 2}\n"


@pytest.mark.parametrize("argv", [
    ["canon", "--declare", "tensor T rank=x", "T_{a}"],
    ["canon", "--declare", "tensor T rank=2", "T_{a}"],
    ["canon", "--decls", "no-such-dir/decls.txt", "T_{a}"],
    # one slot more than a fast-engine configuration holds: refused at
    # declaration for one factor, at parse for two
    ["canon", "--declare", "tensor T rank=254",
     "T_{" + " ".join(f"a{k}" for k in range(127)) + "}^{" + " ".join(f"a{k}" for k in range(127)) + "}"],
    ["canon", "--declare", "tensor T rank=127",
     "T_{" + " ".join(f"a{k}" for k in range(127)) + "} T^{" + " ".join(f"a{k}" for k in range(127)) + "}"],
])
def test_canon_input_error_is_one_line_and_status_2(argv, capsys):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["bench", "--engines", "fst", "--sizes", "2"], "error: --engines: unknown 'fst'; known: fast, baseline\n"),
    (["bench", "--sizes", "x"], "error: --sizes: bad item 'x'\n"),
    (["oracle-check", "--families", "nope"], "error: --families: unknown 'nope'; known: "),
    (["bench", "--families", "riemann", "--sizes", "0"], "error: --sizes: must be positive, got 0\n"),
    (["oracle-check", "--sizes", "2,-1"], "error: --sizes: must be positive, got -1\n"),
    (["bench", "--sizes", "2", "--trials", "0"], "error: --trials: must be positive, got 0\n"),
    (["oracle-check", "--trials", "-2"], "error: --trials: must be positive, got -2\n"),
    (["bench", "--sizes", "2", "--time-budget", "0"], "error: --time-budget: must be positive, got 0\n"),
    (["bench", "--sizes", "2", "--time-budget", "inf"], "error: --time-budget: must be at most 1e+09, got inf\n"),
    (["bench", "--sizes", "2", "--time-budget", "1e10"], "error: --time-budget: must be at most 1e+09, got 1e+10\n"),
    (["oracle-check", "--max-slots", "0"], "error: --max-slots: must be positive, got 0\n"),
    (["oracle-check", "--cap", "0"], "error: --cap: must be positive, got 0\n"),
    (["bench", "--sizes", ","], "error: --sizes: no items\n"),
    (["oracle-check", "--sizes", ","], "error: --sizes: no items\n"),
    (["bench", "--sizes", "2", "--out", "no-such-dir/x.csv"], "error: --out: cannot write 'no-such-dir/x.csv': "),
    (["oracle-check", "--sizes", "11"], "error: no instance checked: every case is over --max-slots 10 or --cap "),
], ids=["engines", "sizes", "families", "bench-sizes-0", "oracle-sizes-negative", "bench-trials",
        "oracle-trials", "time-budget", "time-budget-inf", "time-budget-1e10", "max-slots", "cap", "bench-sizes-empty", "oracle-sizes-empty", "out",
        "oracle-nothing-checked"])
def test_bad_argument_is_one_line_and_status_2(argv, message, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(message)
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_canon_reads_a_declarations_file(tmp_path, capsys):
    decls = tmp_path / "decls.txt"
    decls.write_text("# an antisymmetric pair\n\ntensor A rank=2 asym=1..2\n")
    assert cli.main(["canon", "--decls", str(decls), "A_{2 1}"]) == 0
    assert capsys.readouterr().out == "-A_{1 2}\n"


def test_import_leaves_numpy_unloaded():
    # numpy is for the oracle only; the command line should not pay for it
    code = "import sys, tensorcanon.cli; assert 'numpy' not in sys.modules, 'numpy loaded'"
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": SRC})


# the oracle is independent of the engines, the frontend runs only the fast
# one, and the command line loads the baseline and the bench harness only
# for the subcommands that use them
@pytest.mark.parametrize("module, engine", [
    ("oracle", "canon_fast"), ("frontend", "canon_baseline"), ("cli", "bench"), ("cli", "canon_baseline"),
])
def test_import_leaves_an_engine_it_does_not_run_unloaded(module, engine):
    code = f"import sys, tensorcanon.{module}; assert 'tensorcanon.{engine}' not in sys.modules, '{engine} loaded'"
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": SRC})
