"""Pipeline benchmark for tensorcanon.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

One process, one thread, a closed loop with one caller: each monomial of
the workload's seeded input goes through ``Registry.declare_all`` (once,
before timing) -> ``parse`` -> ``build_problem`` ->
``CanonProblem.canonicalize`` -> ``render``, from a fresh ``Registry``,
once, in rounds that each write every pattern of the workload's panel
once, until a round ends after ``--seconds`` of wall time.  Every output
is then checked (see ``checks.py``).  An extra line on standard output
gives the check counts, the tail percentile used, the result digest, the
per-size scaling and the machine; the last line is the result object.

``--trace 0`` reports the end-to-end metrics, with times scaled to a
reference speed (see ``REFERENCE_S``).  ``--trace 1`` also takes
each monomial through a second pipeline with timing wrappers installed
(see ``tracing.py``), reports the per-layer metrics and the tracing
overhead, and writes the spans to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
DIGESTS = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 1
SETUP_BEFORE = 5  # set-up samples before the timed loop; one more follows each round

# The host's speed drifts by a fifth or more within seconds, for every
# pure-Python workload alike, so raw times of runs a minute apart differ
# by more than any change worth gating on.  Every timed monomial is
# followed by reference_s(), which calls nothing in tensorcanon; each
# round's times are scaled by REFERENCE_S over the median reference time
# in that round, which gives times on a host where the reference takes
# REFERENCE_S.  The raw times are in the report line.
REFERENCE_S = 0.0015
_REFERENCE_PERM = tuple((7 * i + 3) % 64 for i in range(64))
_S5_GENERATORS = ((1, 2, 3, 4, 0), (1, 0, 2, 3, 4))

# Time to import tensorcanon and declare the initial registry, measured
# inside a fresh interpreter so that nothing is cached yet.
_SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from tensorcanon.frontend import Registry
Registry().declare_all(sys.argv[2])
print(time.perf_counter() - t0)
"""


frontend = None  # tensorcanon.frontend, imported by main() once src/ is on the path


class Overrun(Exception):
    """The per-monomial budget ran out."""


def _on_alarm(signum, frame):
    raise Overrun()


def guarded(budget_s, fn, *args):
    """Run ``fn(*args)``, raising :class:`Overrun` after ``budget_s`` seconds."""
    signal.setitimer(signal.ITIMER_REAL, budget_s)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def pipeline(text, registry):
    """One monomial from text to rendered text; returns (output, engine seconds)."""
    mono = frontend.parse(text, registry)
    problem = frontend.build_problem(mono, registry)
    t0 = perf_counter()
    result = problem.canonicalize()
    engine_s = perf_counter() - t0
    return frontend.render(result, mono, registry), engine_s


def attempt(workload, step, text, registry):
    """Run one monomial under the budget: (output or None, engine s, error or None, seconds)."""
    t0 = perf_counter()
    output, engine_s, error = None, None, None
    try:
        output, engine_s = guarded(workload.budget_s, step, text, registry)
    except Overrun:
        error = f"pipeline over {workload.budget_s} s budget"
    except Exception:  # a failed monomial is counted, not fatal
        error = traceback.format_exc(limit=-1).strip()
    return output, engine_s, error, perf_counter() - t0


class Pass:
    """One pass over a workload's rounds.

    The pass stops at the first round boundary after ``seconds`` of
    pipeline time.  With a ``tracer``, each monomial also goes through a second,
    traced pipeline with a registry of its own, right before or after the
    untraced one (alternately), so that both see the machine in the same
    state.
    """

    def __init__(self, workload, panel, rounds, seconds, tracer=None, between_rounds=None):
        self.registry = frontend.Registry()
        self.registry.declare_all(workload.decls)
        self.texts, self.patterns, self.outputs = [], [], []
        self.latency, self.engine = [], []  # seconds, untraced
        self.traced_latency = []
        self.errors = {}  # monomial index -> message
        self.round_of = []  # monomial index -> round
        self.round_wall = []  # seconds of pipeline work per round, the reference loop excluded
        self.round_speed = []  # REFERENCE_S / median reference time, per round
        if tracer is not None:
            traced_registry = frontend.Registry()
            traced_step = tracer.wrap("bench.pipeline", pipeline)
            with tracer.installed():
                traced_registry.declare_all(workload.decls)
        for row in rounds:
            if self.round_wall and sum(self.round_wall) >= seconds:
                break
            wall, reference = 0.0, []
            for pattern, text in enumerate(row):
                start = perf_counter()
                done = len(self.texts)
                if tracer is not None and done % 2:
                    traced = self._traced(workload, tracer, traced_step, text, traced_registry, done)
                output, engine_s, error, seconds_taken = attempt(workload, pipeline, text, self.registry)
                if tracer is not None and not done % 2:
                    traced = self._traced(workload, tracer, traced_step, text, traced_registry, done)
                if tracer is not None:
                    self.traced_latency.append(traced[3])
                    if error is None and traced[0] != output:
                        error = traced[2] or "the traced pipeline gave another output"
                if error is not None:
                    self.errors[done] = error
                self.latency.append(seconds_taken)
                self.engine.append(engine_s)
                self.texts.append(text)
                self.patterns.append(pattern)
                self.outputs.append(output)
                self.round_of.append(len(self.round_wall))
                wall += perf_counter() - start
                reference.append(reference_s())
            self.round_wall.append(wall)
            self.round_speed.append(REFERENCE_S / statistics.median(reference))
            if between_rounds is not None:
                between_rounds()
        self.sizes = [panel[p].size for p in self.patterns]

    @staticmethod
    def _traced(workload, tracer, step, text, registry, index):
        tracer.monomial = index
        with tracer.installed():
            return attempt(workload, step, text, registry)


def reference_s():
    """Seconds taken by three fixed pure-Python loops.

    Permutation composition, integer arithmetic and an orbit closure each
    follow the host's drift a little differently; their sum follows the
    pipeline's time more closely than any one of them.
    """
    start = perf_counter()
    p = _REFERENCE_PERM
    for _ in range(170):
        p = tuple(p[i] for i in _REFERENCE_PERM)
    total = 0
    for i in range(8000):
        total += i * i % 7
    for _ in range(2):
        identity = tuple(range(5))
        seen, todo = {identity}, [identity]
        while todo:
            p = todo.pop()
            for g in _S5_GENERATORS:
                q = tuple(p[i] for i in g)
                if q not in seen:
                    seen.add(q)
                    todo.append(q)
    return perf_counter() - start


def setup_sample(decls):
    """(raw, scaled) set-up seconds of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", _SETUP_CHILD, SRC, decls],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    raw = float(proc.stdout)
    return raw, raw * REFERENCE_S / statistics.median(reference_s() for _ in range(5))


def tail(latency, percentile):
    """Nearest-rank percentile, and how many samples lie beyond it."""
    ordered = sorted(latency)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _slope(points):
    """Least-squares slope of log(y) against log(x)."""
    pts = [(math.log(x), math.log(y)) for x, y in points if y and y > 0]
    if len(pts) < 2:
        return float("nan")
    mx = statistics.fmean(p[0] for p in pts)
    my = statistics.fmean(p[1] for p in pts)
    den = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / den if den else float("nan")


def scaling(run):
    by_size = {}
    for size, lat, eng in zip(run.sizes, run.latency, run.engine):
        if eng is not None:
            by_size.setdefault(size, ([], []))
            by_size[size][0].append(lat)
            by_size[size][1].append(eng)
    table = {
        n: {"pipeline_ms": statistics.median(l) * 1e3, "engine_ms": statistics.median(e) * 1e3, "count": len(l)}
        for n, (l, e) in sorted(by_size.items())
    }
    return {
        "sizes": table,
        "pipeline_slope": _slope([(n, r["pipeline_ms"]) for n, r in table.items()]),
        "engine_slope": _slope([(n, r["engine_ms"]) for n, r in table.items()]),
    }


def digest(outputs):
    text = "\n".join("<failed>" if o is None else o for o in outputs)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_checks(workload, run, seed, failed):
    """Check every output; the first presentation of each pattern in full, the rest against it."""
    from checks import check, without_variance  # imports tensorcanon, so only once src/ is on the path

    rng = random.Random(f"check/{seed}")
    tally = Counter()
    first = {}  # pattern -> index of its first presentation
    for idx, (pattern, text, output) in enumerate(zip(run.patterns, run.texts, run.outputs)):
        if output is None:
            failed.add(idx)
            continue
        ref = first.setdefault(pattern, idx)
        if ref != idx:
            tally["repeat"] += 1
            if ref in failed or without_variance(output) != without_variance(run.outputs[ref]):
                failed.add(idx)
                run.errors.setdefault(idx, f"repeat check failed against monomial {ref}")
            continue
        try:
            bad = guarded(3 * workload.budget_s, check, text, output, run.registry, rng, tally)
        except Overrun:
            bad = ["check over budget"]
        except Exception:  # a failed check is counted, not fatal
            bad = [traceback.format_exc(limit=-1).strip()]
        if bad:
            failed.add(idx)
            run.errors.setdefault(idx, f"check failed: {', '.join(bad)}")
    return dict(tally)


def machine():
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__, "nproc": os.cpu_count(), "cpu": cpu}


def time_figures(latency, wall, setup, percentile):
    return {
        "monomials_per_s": (len(latency) / wall, "1/s"),
        "latency_p50_ms": (statistics.median(latency) * 1e3, "ms"),
        "latency_tail_ms": (tail(latency, percentile)[0] * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
    }


def end_to_end_metrics(run, percentile, setup, peak_rss_kb, report):
    """The times scaled to the reference speed, and peak memory; the raw times go to ``report``."""
    speed = run.round_speed
    scaled = [lat * speed[r] for lat, r in zip(run.latency, run.round_of)]
    scaled_wall = sum(w * v for w, v in zip(run.round_wall, speed))
    metrics = time_figures(scaled, scaled_wall, [t for _raw, t in setup], percentile)
    metrics["peak_rss_mb"] = (peak_rss_kb / 1024, "MB")
    raw = time_figures(run.latency, sum(run.round_wall), [raw for raw, _t in setup], percentile)
    report["raw"] = {k: v for k, (v, _unit) in raw.items()}
    report["host_speed"] = {"median": statistics.median(speed), "min": min(speed), "max": max(speed)}
    report["tail"] = {"percentile": percentile, "samples": len(scaled), "beyond": tail(scaled, percentile)[1]}
    return metrics


def per_layer_metrics(tracer, totals, run, engine_counts):
    n = len(run.texts)

    def ms(name, field=1):
        return totals[name][field] / n * 1e3, "ms/mono"

    def calls(name):
        return tracer.counts[name] / n, "calls/mono"

    ss_calls = totals["perm_group.schreier_sims"][0]
    m = {
        "frontend.Registry.declare_all.ms": (totals["frontend.Registry.declare_all"][1] * 1e3, "ms"),
        "frontend.Registry.declare.ms": (totals["frontend.Registry.declare"][1] * 1e3, "ms"),
        "frontend.parse.ms": ms("frontend.parse"),
        "frontend.build_problem.self_ms": ms("frontend.build_problem", 2),
        "frontend.render.ms": ms("frontend.render"),
        "perm_group.schreier_sims.ms": ms("perm_group.schreier_sims"),
        "perm_group.schreier_sims.calls": (ss_calls / n, "calls/mono"),
        "perm_group.schreier_sims.strong_gens": (
            tracer.counts["perm_group.schreier_sims.strong_gens"] / max(1, ss_calls), "count"),
        "perm_group.detect_symmetric_subsets.ms": ms("perm_group.detect_symmetric_subsets"),
        "perm_group.Bsgs.contains.calls": calls("perm_group.Bsgs.contains.calls"),
        "perm_group.compose.calls": calls("perm_group.compose.calls"),
        "label_context.build.ms": ms("label_context.build"),
        "label_context.update_context.ms": ms("label_context.update_context"),
        "label_context.label_permutation_from_group.ms": ms("label_context.label_permutation_from_group"),
        "canon_fast.canonicalize.self_ms": ms("canon_fast.canonicalize", 2),
        "canon_fast.get_least_value_instances.ms": ms("canon_fast.get_least_value_instances"),
        "canon_fast.update_propagated_symmetries.ms": ms("canon_fast.update_propagated_symmetries"),
        "canon_fast.zero_due_to_propagated_symmetries.ms": ms("canon_fast.zero_due_to_propagated_symmetries"),
        "canon_fast.append_non_redundant_instances.ms": ms("canon_fast.append_non_redundant_instances"),
        "canon_fast.compose.calls": calls("canon_fast.compose.calls"),
    }
    for name in ("configs.total", "configs.max", "instances.attempted", "instances.kept",
                 "dedup.dropped", "zero.results", "zero.early"):
        m["canon_fast." + name] = (engine_counts["canon_fast." + name], "count")
    for layer, seconds in tracer.layer_self_seconds(totals).items():
        m[f"layer.{layer}.self_ms"] = (seconds / n * 1e3, "ms/mono")
    m["trace.monomials"] = (n, "count")
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tensorcanon", "frontend.py")):
        print(f"perfbench: no tensorcanon sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    global frontend
    from tensorcanon import frontend
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)
    panel, rounds = workload.rounds(args.seed, args.seconds)
    report = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "loop": "closed, one caller, one process, one thread"}

    if args.trace == 0:
        setup = [setup_sample(workload.decls) for _ in range(SETUP_BEFORE)]
        run = Pass(workload, panel, rounds, args.seconds,
                   between_rounds=lambda: setup.append(setup_sample(workload.decls)))
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        from tracing import EngineCounts, Tracer

        tracer = Tracer()
        run = Pass(workload, panel, rounds, args.seconds, tracer)
        counts = EngineCounts()
        for text, output in zip(run.texts[: len(panel)], run.outputs):
            if output is not None:
                mono = frontend.parse(text, run.registry)
                guarded(workload.budget_s, counts.add, frontend.build_problem(mono, run.registry))
        parent, totals = tracer.resolve()
        metrics = per_layer_metrics(tracer, totals, run, counts.counts)
        untraced_s = sum(run.latency)
        metrics["trace.overhead_ratio"] = ((sum(run.traced_latency) - untraced_s) / untraced_s, "ratio")
        layer_s = tracer.layer_self_seconds(totals)
        report["layer_share"] = {k: v / sum(layer_s.values()) for k, v in layer_s.items()}
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans-{workload.name}-{args.seed}.tsv"), parent)

    failed = set(run.errors)
    report["rounds"] = len(run.round_wall)
    report["checks"] = run_checks(workload, run, args.seed, failed)
    if args.trace == 0:
        metrics = end_to_end_metrics(run, workload.tail_percentile, setup, peak_rss_kb, report)
        report["scaling"] = scaling(run)
    else:
        metrics["failed_ratio"] = (len(failed) / len(run.texts), "ratio")
        for kind in ("recanon", "coset", "repeat"):
            metrics[f"checks.{kind}"] = (report["checks"].get(kind, 0), "count")
        sc = scaling(run)
        metrics["scaling.pipeline_slope"] = (sc["pipeline_slope"], "exponent")
        metrics["scaling.engine_slope"] = (sc["engine_slope"], "exponent")

    got = digest(run.outputs[: len(panel)])
    report["digest"] = {"count": len(panel), "sha256_16": got}
    correct = not failed
    with open(DIGESTS) as fh:
        expected = json.load(fh).get(workload.name)
    if expected and expected["seed"] == args.seed:
        report["digest"]["expected"] = expected["sha256_16"]
        correct = correct and got == expected["sha256_16"]
    report["errors"] = {str(i): run.errors[i] for i in sorted(run.errors)[:5]}
    report["machine"] = machine()
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(run.texts),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
