"""Trace-preserving embeddings of invariant corners into wreath corners.

Two copies of S_4 carry the dihedral tree subgroup Q_2 in each block; the
top S_2 swaps the blocks.  The swap-invariant part of the corner of
(S_4², Q_2²) embeds into the corner of the semidirect product by x ↦ x·p_Γ,
exactly multiplicatively and trace-preservingly, and commutes with the
embedded top corner.  Composing with the identification Q_2² ⋊ P_1 = Q_3
lands everything inside the flagship algebra of (S_8, Q_3).

The suite itself runs in the double-coset bases of the three Hecke pairs;
the illustration below redoes the invariant embedding by convolution in the
group algebra C[S_4 ≀ S_2] and reads the result in the flagship basis.
"""

from heckelab.embed import scenario_report, scenario_s4_d4
from heckelab.groupalg import (EnumeratedGroup, convolve, corner_basis, corner_trace,
                               hecke_image, invariant_subalgebra, projector)
from heckelab.hecke import PairSpec, convolve as hecke_convolve
from heckelab.permgroup import DoubleCosetTable
from heckelab.treefam import q_group

scenario = scenario_s4_d4()
print(scenario)

# Per-axiom verification, all in exact rational arithmetic.
report = scenario_report(scenario)
for axiom, ok in report.rows():
    print(f"  {axiom:<28} {'PASS' if ok else 'FAIL'}")

# The invariant corner here is the symmetric part of a 2 x 2 tensor square;
# in C[V ⋊ G] its basis is the swap-orbit sums of p_{V0} δ_x p_{V0}.
carrier = EnumeratedGroup(scenario.big)
invariant = invariant_subalgebra(
    corner_basis(carrier, scenario.V0, DoubleCosetTable(scenario.V, scenario.V0)),
    scenario.gamma_embedded)
p_gamma = projector(carrier, scenario.gamma_embedded)
print(f"\ninvariant corner dimension: {len(invariant)}")

# The joint subgroup of the wreath realization is the depth-3 tree group,
# so embedded elements are bi-invariant functions on S_8 and expand in the
# double-coset basis of (S_8, Q_3).
print("V_0 ⋊ Γ equals Q_3:", scenario.V0_gamma.same_group(q_group(2, 3)))
flagship = PairSpec.depth(2, 3).pair()
images = [convolve(x, p_gamma) for x in invariant]
lifted = [hecke_image(y, flagship) for y in images]
for h in lifted:
    print("  lifted:", h)

# Products and traces survive the whole chain of identifications.
x, y = invariant[1], invariant[2]
via_big = hecke_image(convolve(convolve(x, y), p_gamma), flagship)
direct = hecke_convolve(lifted[1], lifted[2])
print("products agree through the tower:", via_big == direct)
print("traces agree:",
      all(corner_trace(images[i], scenario.V0_gamma.order()) == lifted[i].trace()
          for i in range(len(invariant))))
