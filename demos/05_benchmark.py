"""A small benchmark run: CSV records and fitted scaling exponents.

Runs the fast engine over three families at a few sizes and prints the
CSV stream plus the fitted log-log slopes. A series is fitted only when
its fitted engine times clear ``FIT_FLOOR_S`` (10 ms), because shorter
times are mostly timer and interpreter noise; at these sizes only some
series do. The same harness backs the ``tensorcanon bench`` command.
"""

import io

from tensorcanon.bench import FIT_FLOOR_S, run_bench

out = io.StringIO()
exponents = run_bench(
    families=["sym-frees", "cyclic-dummies", "totalsym-frustrated"],
    sizes=[4, 8, 16, 32],
    trials=3,
    engines=["fast"],
    out=out,
)

print(out.getvalue())
for (family, engine), exp in sorted(exponents.items()):
    print(f"fit {family}/{engine}: O(n^{exp:.2f})")
if not exponents:
    print(f"no fit: every series has a fitted time under {FIT_FLOOR_S * 1e3:g} ms")
