"""The Hecke algebra of a pair (G, H) on its double-coset basis.

Basis elements are indicators of double cosets; they act on the coset space
H\\G by integer matrices, products come from structure constants, and the
vector state at the base coset is a faithful trace.  The tests check all of
it against the group-algebra corner p_H C[G] p_H.
"""

import numpy as np

from heckelab.hecke import HeckePair, PairSpec, convolve, trace_inner_product
from heckelab.permgroup import dihedral_square, symmetric_group

# Start small: (S_4, D_4) is two-dimensional.
pair = HeckePair(symmetric_group(4), dihedral_square(), name="(S_4, D_4)")
print(pair)
e0, e1 = pair.basis()
print("λ(e_H) is the identity:\n", pair.lambda_matrix(e0.exact.to_complex()).real)
print("λ(e_D) for the size-16 class:\n", pair.basis_matrix(1))

# Products through structure constants: e_D * e_D = 2·e_H + e_D here.
product = convolve(e1, e1)
print("e_D * e_D coefficients:", [product.exact.coeff(j) for j in range(2)])

# The canonical trace reads off the coefficient at the base class, and its
# GNS norm of a basis element is the R-index of its class.
print("τ(e_H) =", e0.trace(), " τ(e_D) =", e1.trace())
print("τ(e_D* e_D) =", trace_inner_product(e1, e1))

# The depth pairs of the binary tree: commutative at depth 2, and from
# depth 3 on the algebra stops being commutative.
for l in (2, 3):
    p = PairSpec.depth(2, l).pair()
    verdict = p.is_commutative()
    print(f"\n{p.name}: dimension {p.dim}, commutative = {verdict.commutative}")
    if not verdict.commutative:
        d, e = verdict.witness
        row, col, value = verdict.entry
        print(f"  witness basis pair ({d}, {e}): commutator entry "
              f"[{row},{col}] = {value}")
        A, B = p.basis_matrix(d), p.basis_matrix(e)
        print("  |[λ(e_d), λ(e_e)]| has",
              np.count_nonzero(A @ B - B @ A), "nonzero entries")
