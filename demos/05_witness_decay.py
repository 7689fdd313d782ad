"""Witness unitaries, commutator moments, and tensor-power decay.

In the noncommutative algebra of (S_8, Q_3) we search for unitaries
u = exp(ia), v = exp(ib) whose commutator w = u v u* v* keeps every moment
τ(w^k), 1 <= k <= 1024, strictly inside the unit disc.  Moments of tensor
powers are then plain powers τ(w^k)^N, so the whole table decays
geometrically in the level size N = |V_n| = 2^n, and trigonometric averages
converge to their circle means.
"""

import numpy as np

from heckelab.hecke import PairSpec
from heckelab.treefam import TreeShape
from heckelab.witness import (decay_table, fejer_coefficients,
                              haar_convergence_check, search_witness,
                              verify_certificate)

pair = PairSpec.depth(2, 3).pair()
print(pair)

# Deterministic search: same seed, same certificate, bit for bit.
certificate = search_witness(pair, seed=0)
print(f"max |τ(w^k)| over 1 <= k <= {certificate.k_max}: "
      f"{certificate.max_abs_moment:.6f}")
print(f"first few moments: {np.round(certificate.moments[:4], 4)}")

# Independent re-verification from scratch: rebuilds the pair, the basis,
# the matrices, the moments, and the spectral reconstruction.
report = verify_certificate(certificate, pair)
print("\nindependent verification:", "PASS" if report.ok else report.failures)
print("  visible spectral resonance scan:",
      f"min |(λ_j/λ_j')^m - 1| = {report.diagnostics['root_scan_min_distance']:.2e}",
      f"at m = {report.diagnostics['root_scan_m']}")

# Decay: the per-level maxima of |τ(w^k)|^(2^n), with the plain-power
# convention alongside.
shape = TreeShape(2, 2)
decay = decay_table(certificate, shape, n_max=12)
print("\n n  |V_n|   max_k |τ^k|^|V_n|   max_k |τ^k|^n")
for row in decay.rows():
    print(f"{row['n']:>2}  {row['tensor_count']:>5}   {row['max_abs_tensor']:>12.3e}"
          f"      {row['max_abs_plain']:>12.3e}")
print(f"drops below {decay.threshold} at n = {decay.first_level_below}")

# Circle averages of a positive trigonometric polynomial (the Fejér kernel
# of order 8 scaled to constant coefficient 0.1) converge to that constant.
coefficients = fejer_coefficients()
rows = haar_convergence_check(certificate, coefficients, range(1, 13), shape)
print("\n n   Σ c_k τ(w^k)^|V_n|      |average - c_0|")
for row in rows:
    print(f"{row['n']:>2}   {row['value'].real:>+.6f}{row['value'].imag:+.1e}i"
          f"      {row['deviation']:.3e}")
