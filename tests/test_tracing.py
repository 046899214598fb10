"""The benchmark tracer's contract with the pipeline.

``perfbench/tracing.py`` wraps pipeline functions it looks up by owner
and name, and counts the fast engine's children through a wrapper that
takes ``append_non_redundant_instances``'s leading arguments by
position.  A helper renamed, removed or called other than through its
module's globals would break ``perfbench/run.py --trace 1``; these tests
catch that without running the benchmark.
"""

import importlib.util
from pathlib import Path

from tensorcanon.bench import generate

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_every_name_and_restore_puts_them_back():
    tracing = load_tracing()
    names = tracing.SPANS + tracing.COUNTERS
    missing = [name for owner, attr, name in names if not callable(getattr(owner, attr, None))]
    assert not missing
    originals = [getattr(owner, attr) for owner, attr, _ in names]
    tracer = tracing.Tracer()
    restore = tracer.install()
    try:
        for (owner, attr, name), orig in zip(names, originals):
            assert getattr(owner, attr) is not orig, name
        # the engine reaches its helpers through the wrapped names
        generate("riemann", 4, 0).problem.canonicalize()
    finally:
        restore()
    for (owner, attr, name), orig in zip(names, originals):
        assert getattr(owner, attr) is orig, name
    traced = {span[0] for span in tracer.spans}
    engine = {name for owner, _attr, name in tracing.SPANS if owner is tracing.canon_fast}
    assert engine <= traced, engine - traced


def test_engine_counts_wrap_append_non_redundant_instances():
    tracing = load_tracing()
    orig = tracing.canon_fast.append_non_redundant_instances
    counts = tracing.EngineCounts()
    result = counts.add(generate("riemann", 4, 0).problem)
    assert tracing.canon_fast.append_non_redundant_instances is orig
    assert result == generate("riemann", 4, 0).problem.canonicalize()
    c = counts.counts
    assert c["canon_fast.instances.attempted"] >= c["canon_fast.instances.kept"] > 0
    assert c["canon_fast.configs.total"] > 0
