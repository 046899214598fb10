"""Cross-checking the engines against exhaustive double-coset search.

The oracle enumerates every element of the slot group S and, for each
s, takes the least l.g.s over the label group by one scan in slot order
built from the class list: slow, exponential in the slot group's size,
but an independent ground truth for both search engines.
"""

from tensorcanon.bench import generate, oracle_result, run_case
from tensorcanon.frontend import render

checked = 0
for family in ("riemann", "nosym-dummies", "pairwise-frustrated"):
    for size in (2, 3):
        for trial in range(5):
            case = generate(family, size, trial)
            expected = oracle_result(case)
            if expected is None:  # groups too large to enumerate
                continue
            _, fast = run_case(case, "fast")
            _, base = run_case(case, "baseline")
            assert fast == expected and base == expected, case.expression
            checked += 1
            tag = render(expected, case.monomial, case.registry)
            print(f"{family:20s} n={case.problem.n:2d} trial={trial} -> {tag}")

print(f"\n{checked} cases, all three results identical")
