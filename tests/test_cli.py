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


def test_two_pairs_across_subsets_of_opposite_sign_print_zero(capsys):
    # the sweep's third case under a symmetric, no and an antisymmetric
    # metric, and its twins: two pairs across subsets of one sign, and
    # metric-less pairs whose lower legs lie in different subsets
    argv = ["canon", "--engine", "both", "--declare", "bundle n metric=none", "--declare", "bundle m metric=antisymmetric",
            "--declare", "tensor M rank=2 sym=1..2", "--declare", "tensor A rank=2 asym=1..2",
            "M^{a b} A_{a b}", "A^{a b} A_{a b}", "M^{n1}_{n2} A_{n1}^{n2}", "M^{n1 n2} A_{n1 n2}", "M^{m1}_{m2} A_{m1}^{m2}"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == "0\nA^{a b} A_{a b}\n-M_{n1}^{n2} A^{n1}_{n2}\n0\n0\n"


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
    # the package has no runtime dependency
    code = "import sys, tensorcanon.cli; assert 'numpy' not in sys.modules, 'numpy loaded'"
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": SRC})


# refuses every numpy import, installed or not
BLOCK_NUMPY = """
import sys

class BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)

sys.meta_path.insert(0, BlockNumpy())
"""


def test_oracle_check_runs_with_numpy_blocked():
    argv = ["oracle-check", "--families", "riemann", "--sizes", "2,4", "--max-slots", "16", "--trials", "1"]
    code = BLOCK_NUMPY + f"from tensorcanon import cli; sys.exit(cli.main({argv!r}))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "checked 2 instances, 0 mismatches\n", "")


# the oracle is independent of the engines, the frontend runs only the fast
# one, and the command line loads the baseline and the bench harness only
# for the subcommands that use them
@pytest.mark.parametrize("module, engine", [
    ("oracle", "canon_fast"), ("frontend", "canon_baseline"), ("cli", "bench"), ("cli", "canon_baseline"),
])
def test_import_leaves_an_engine_it_does_not_run_unloaded(module, engine):
    code = f"import sys, tensorcanon.{module}; assert 'tensorcanon.{engine}' not in sys.modules, '{engine} loaded'"
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": SRC})
