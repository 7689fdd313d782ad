"""Trace-preserving embeddings of invariant corners into wreath corners.

Two copies of S_4 carry the dihedral tree subgroup Q_2 in each block; the
top S_2 swaps the blocks.  The swap-invariant part of the corner of
(S_4², Q_2²) embeds into the corner of the semidirect product by x ↦ x·p_Γ,
exactly multiplicatively and trace-preservingly, and commutes with the
embedded top corner.  Composing with the identification Q_2² ⋊ P_1 = Q_3
lands everything inside the flagship algebra of (S_8, Q_3).

Everything runs in the double-coset bases of the three Hecke pairs, as the
suite does; the group algebra C[S_4 ≀ S_2] is only the tests' oracle.
"""

from heckelab.embed import double_coset_map, embed_invariant, scenario_report, scenario_s4_d4
from heckelab.hecke import PairSpec, convolve
from heckelab.treefam import q_group

scenario = scenario_s4_d4()
print(scenario)

# Per-axiom verification, all in exact rational arithmetic.
report = scenario_report(scenario)
for axiom, ok in report.rows():
    print(f"  {axiom:<28} {'PASS' if ok else 'FAIL'}")

# The invariant corner here is the symmetric part of a 2 x 2 tensor square;
# its basis is the swap-orbit sums of the classes D of (V, V_0), each class
# weighted 1/R(D): in double-coset coordinates, p_{V0} δ_r p_{V0} is e_D/R(D).
pair_v = scenario.pair_V
r_index = pair_v.r_index.tolist()
invariant = [pair_v.element_from_fractions(
                 [x.exact.coeff(j)[0] / r for j, r in enumerate(r_index)])
             for x in scenario.invariant_basis()]
print(f"\ninvariant corner dimension: {len(invariant)}")

# The joint subgroup of the wreath realization is the depth-3 tree group,
# so each double coset of (V ⋊ G, V_0 ⋊ Γ) lies in one of (S_8, Q_3), and
# embedded elements are read in the double-coset basis of the flagship.
print("V_0 ⋊ Γ equals Q_3:", scenario.V0_gamma.same_group(q_group(2, 3)))
flagship = PairSpec.depth(2, 3).pair()
pair_big = scenario.pair_big
to_flagship = double_coset_map(pair_big, pair_big.representatives, flagship)
lifted = [to_flagship(embed_invariant(scenario, x)) for x in invariant]
for h in lifted:
    print("  lifted:", h)

# Products and traces survive the whole chain of identifications.
x, y = invariant[1], invariant[2]
via_big = to_flagship(embed_invariant(scenario, convolve(x, y)))
direct = convolve(lifted[1], lifted[2])
print("products agree through the tower:", via_big == direct)
print("traces agree:", all(x.trace() == h.trace() for x, h in zip(invariant, lifted)))
