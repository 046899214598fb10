import pytest

from tensorcanon import cli


def test_canon_prints_result(capsys):
    assert cli.main(["canon", "--declare", "tensor A rank=2 asym=1..2", "A_{2 1}"]) == 0
    assert capsys.readouterr().out == "-A_{1 2}\n"


@pytest.mark.parametrize("argv", [
    ["canon", "--declare", "tensor T rank=x", "T_{a}"],
    ["canon", "--declare", "tensor T rank=2", "T_{a}"],
])
def test_canon_input_error_is_one_line_and_status_2(argv, capsys):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
