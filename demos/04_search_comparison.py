"""Factorial vs. single-configuration search on the frustrated contraction.

Two totally symmetric rank-6 tensors, fully contracted with shuffled
wiring: the classic worst case for the classical double-coset search.
The baseline's configuration list swells to 6! = 720 entries, while the
propagation-aware engine keeps exactly one configuration per slot.
"""

from tensorcanon.canon_baseline import butler_portugal
from tensorcanon.frontend import Registry, parse, build_problem, render

reg = Registry()
reg.declare_all("tensor T rank=6 sym=1..6\ntensor S rank=6 sym=1..6")
mono = parse("T_{b d c f a e} S^{e b f d a c}", reg)
prob = build_problem(mono, reg)

trace = {}
result = butler_portugal(prob.g_init, prob.S, prob.classes, trace=trace)
counts = trace["configs_per_slot"]
print("baseline configurations per slot:", counts)
print("peak:", max(counts), " visited through slot 6:", 1 + sum(counts[:6]))

trace = {}
fast = prob.canonicalize(trace=trace)
print("fast engine configurations per slot:", trace["configs_per_slot"])

assert fast == result
print("both engines agree:", render(fast, mono, reg))
