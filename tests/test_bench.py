import csv
import gc
import io
import math
import os
import signal
import subprocess
import sys
import time

import pytest

import tensorcanon
from tensorcanon import bench
from tensorcanon.bench import (
    CSV_COLUMNS,
    FAMILIES,
    budget,
    fit_exponent,
    generate,
    oracle_result,
    run_bench,
    run_case,
)


def test_csv_columns_exact():
    assert CSV_COLUMNS == [
        "family", "n", "trial", "seed", "engine",
        "is_zero", "result_digest", "elapsed_us", "max_configs",
    ]


def test_generate_is_deterministic():
    a = generate("riemann", 2, 5)
    b = generate("riemann", 2, 5)
    assert a.expression == b.expression
    assert a.declarations == b.declarations
    assert a.seed == b.seed
    assert a.problem.g_init == b.problem.g_init
    # a different trial reseeds
    c = generate("riemann", 2, 6)
    assert c.seed != a.seed


def test_generate_unknown_family():
    with pytest.raises(ValueError):
        generate("nope", 3, 0)


def test_frustrated_case_structure():
    # two totally symmetric rank-6 factors: one symmetric subset per factor
    case = generate("totalsym-frustrated", 6, 1)
    assert case.problem.n == 12
    assert case.problem.subsets[1:] == [1] * 6 + [2] * 6


def test_riemann_case_group_order():
    # each Riemann factor contributes a slot group of order 8
    case = generate("riemann", 3, 7)
    assert case.problem.n == 12
    assert case.problem.S.group_order == 8 ** 3


def test_sym_frees_trivial_case():
    case = generate("sym-frees", 1, 0)
    assert case.problem.n == 1
    assert case.problem.canonicalize().g == case.problem.g_init


def test_engines_agree_on_digests():
    for family in FAMILIES:
        for size in (2, 3):
            case = generate(family, size, 0)
            row_f, res_f = run_case(case, "fast")
            row_b, res_b = run_case(case, "baseline")
            assert row_f["result_digest"] == row_b["result_digest"], (family, size)
            assert row_f["is_zero"] == row_b["is_zero"]
            assert res_f == res_b


def test_run_case_row_shape():
    case = generate("nosym-dummies", 2, 0)
    row, _ = run_case(case, "fast")
    assert sorted(row) == sorted(CSV_COLUMNS)
    assert row["family"] == "nosym-dummies"
    assert row["n"] == 4
    assert row["engine"] == "fast"
    assert row["max_configs"] >= 1


def test_oracle_result_respects_cap():
    case = generate("totalsym-frustrated", 6, 0)
    # |S| = (6!)^2 alone blows the default cap
    assert oracle_result(case, cap=10**4) is None
    small = generate("totalsym-frustrated", 3, 0)
    res = oracle_result(small)
    assert res is not None
    assert res == run_case(small, "fast")[1]


def test_run_bench_csv_stream(monkeypatch):
    # these timings are under the fit floor; lift it so both series fit
    monkeypatch.setattr(bench, "FIT_FLOOR_S", 0.0)
    out = io.StringIO()
    exponents = run_bench(["cyclic-dummies"], [2, 3, 4], 2, ["fast", "baseline"], out)
    text = out.getvalue()
    header_lines = [l for l in text.splitlines() if l.startswith("#")]
    assert any("random.Random" in l for l in header_lines)
    rows = list(csv.DictReader(l for l in text.splitlines() if not l.startswith("#")))
    # 3 sizes x 2 trials x 2 engines
    assert len(rows) == 12
    assert all(sorted(r) == sorted(CSV_COLUMNS) for r in rows)
    for key in (("cyclic-dummies", "fast"), ("cyclic-dummies", "baseline")):
        assert key in exponents
    # per-case digests agree across engines
    by_case = {}
    for r in rows:
        by_case.setdefault((r["n"], r["trial"]), set()).add(r["result_digest"])
    assert all(len(v) == 1 for v in by_case.values())


def test_run_bench_skips_slow_engine():
    out = io.StringIO()
    run_bench(
        ["totalsym-frustrated"], [8, 9], 1, ["fast", "baseline"], out,
        time_budget=0.05,
    )
    rows = list(csv.DictReader(l for l in out.getvalue().splitlines() if not l.startswith("#")))
    # the baseline exceeds the budget at size 8 (about 0.5 s), is aborted
    # mid-run, and never gets to size 9; the fast engine covers both sizes
    engines_by_size = {}
    for r in rows:
        engines_by_size.setdefault(r["n"], set()).add(r["engine"])
    assert engines_by_size == {"16": {"fast"}, "18": {"fast"}}


def test_fit_exponent_recovers_power_law():
    sizes = [4, 8, 16, 32]
    times = [s ** 2.5 for s in sizes]
    assert abs(fit_exponent(sizes, times) - 2.5) < 1e-6
    assert fit_exponent([4], [1.0]) != fit_exponent([4], [1.0])  # NaN


def test_fit_exponent_needs_two_distinct_sizes():
    assert math.isnan(fit_exponent([2, 4, 8, 8], [1.0, 2.0, 3.0, 4.0]))


def test_budget_interrupts_the_body_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    with pytest.raises(TimeoutError):
        with budget(0.05):
            while True:
                pass
    assert time.perf_counter() - t0 < 1.0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with budget(5.0):  # a body that finishes leaves the timer disarmed
        pass
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


class _SlowFinalizer:
    """Cyclic garbage whose __del__ busy-waits 10 ms: a SIGALRM handled
    there raises in a finalizer, where Python drops the exception."""

    def __init__(self):
        self.cycle = self

    def __del__(self):
        end = time.perf_counter() + 0.01
        while time.perf_counter() < end:
            pass


@pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")
def test_budget_fires_again_after_a_finalizer_drops_its_timeout():
    t0 = time.perf_counter()
    with pytest.raises(TimeoutError):
        with budget(0.05):
            for _ in range(90):
                _SlowFinalizer()
            gc.collect()  # about 0.9 s of __del__, over the deadline
            end = time.perf_counter() + 0.1
            while time.perf_counter() < end:
                pass
    assert time.perf_counter() - t0 < 2.0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_budget_none_leaves_signal_state_alone():
    def mine(signum, frame):
        pass

    previous = signal.signal(signal.SIGALRM, mine)
    try:
        with budget(None):
            assert signal.getsignal(signal.SIGALRM) is mine
            assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("seconds", [0, -1.0])
def test_spent_budget_raises_before_the_body(seconds):
    ran = []
    with pytest.raises(TimeoutError):
        with budget(seconds):
            ran.append(1)
    assert ran == []


# A tiny budget at the command line, then one in-process; prints the exit
# status and whether the timer is disarmed and the handler restored.
_TINY_BUDGET = """
import signal
from tensorcanon import cli
from tensorcanon.bench import budget

status = cli.main(["bench", "--families", "riemann", "--sizes", "1,2", "--trials", "1", "--time-budget", "1e-6"])
before = signal.getsignal(signal.SIGALRM)
try:
    with budget(1e-6):
        while True:
            pass
except TimeoutError:
    pass
print(status, signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0), signal.getsignal(signal.SIGALRM) is before)
"""


def test_tiny_budget_ends_and_disarms_its_timer():
    # a timer repeating as often as it first fires flooded the process with
    # signals; run apart, so that a hang fails the test
    src = os.path.dirname(os.path.dirname(tensorcanon.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _TINY_BUDGET],
        capture_output=True, text=True, timeout=30, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert "# riemann: set-up over 1e-06s at size 1, skipping larger sizes" in proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 True True"


def test_run_bench_budget_bounds_set_up(capsys, monkeypatch):
    # set-up at size 48 sleeps far past the budget; SIGALRM interrupts
    # the sleep, so the budget alone ends the family
    def slow_generate(family, size, trial=0):
        if size == 48:
            time.sleep(60)
        return generate(family, size, trial)

    monkeypatch.setattr(bench, "generate", slow_generate)
    out = io.StringIO()
    t0 = time.perf_counter()
    run_bench(["sym-frees"], [4, 48], 1, ["fast"], out, time_budget=0.5)
    assert time.perf_counter() - t0 < 3.0
    rows = list(csv.DictReader(l for l in out.getvalue().splitlines() if not l.startswith("#")))
    assert [r["n"] for r in rows] == ["4"]
    assert "# sym-frees: set-up over 0.5s at size 48" in capsys.readouterr().err


def test_run_bench_stops_generating_once_every_engine_is_skipped(monkeypatch):
    generated = []

    def recording_generate(family, size, trial=0):
        generated.append(size)
        return generate(family, size, trial)

    monkeypatch.setattr(bench, "generate", recording_generate)
    out = io.StringIO()
    run_bench(["totalsym-frustrated"], [6, 10, 40], 1, ["baseline"], out, time_budget=1.0)
    assert generated == [6, 10]


def test_run_bench_reports_only_finite_fits():
    # with two sizes the largest half is one point: no slope to fit
    exponents = run_bench(["sym-frees", "riemann"], [2, 3], 1, ["fast"], io.StringIO())
    assert exponents == {}


def test_run_bench_fits_only_times_above_the_floor(monkeypatch):
    # sym-frees at sizes 2-4 runs in well under a millisecond: two fitted
    # points, but both below the floor, so no exponent
    args = (["sym-frees"], [2, 3, 4], 1, ["fast"], io.StringIO())
    assert run_bench(*args) == {}
    monkeypatch.setattr(bench, "FIT_FLOOR_S", 0.0)
    assert set(run_bench(*args)) == {("sym-frees", "fast")}
