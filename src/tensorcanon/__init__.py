"""Tensor-monomial canonicalization via signed permutation double cosets.

The package canonicalizes tensor monomials with mono-term slot symmetries
and free/dummy/component index relabelling.  Two engines are provided: a
classic Butler-Portugal double-coset search (``canon_baseline``) and an
improved single-pass engine with symmetry propagation (``canon_fast``),
plus a brute-force oracle for small instances and a benchmark harness.
"""
