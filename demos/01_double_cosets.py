"""Double cosets of finite permutation-group pairs.

Walks through the basic vocabulary: permutations, stabilizer chains,
right-coset indices, and the double-coset table with its R-indices.
"""

from heckelab.permgroup import (CosetIndex, DoubleCosetTable, Permutation,
                                dihedral_square, r_index, symmetric_group)

# The classic warm-up pair: S_4 over the dihedral group of the square.
G = symmetric_group(4)
H = dihedral_square()
print(f"|G| = {G.order()}, |H| = {H.order()}")

# Right cosets H\G: canonical representatives are the lexicographic minima
# of their cosets, so the identity always represents H itself at index 0.
cosets = CosetIndex(G, H)
print(f"{len(cosets)} right cosets, representatives:")
for i, row in enumerate(cosets.rows.tolist()):
    print(f"  {i}: {Permutation(row).cycle_string()}")

# Double cosets H\G/H partition G; sizes are |H| times the number of right
# cosets swallowed by each class.  The table keeps its classes as arrays:
# representatives as rows, R-indices, and the class of each inverse.
table = DoubleCosetTable(G, H)
print(f"\n{len(table)} double cosets:")
for rep, size, r, r_inv in zip(table.representatives.tolist(), table.sizes,
                               table.r_index.tolist(),
                               table.r_index[table.inverse_class].tolist()):
    print(f"  rep {Permutation(rep).cycle_string():<10} size {size:>3}  "
          f"R = {r}, R(inverse) = {r_inv}")

# R(x) counts the right cosets inside HxH and equals [H : H ∩ x^{-1}Hx].
x = Permutation(table.representatives[1].tolist())
print(f"\nr_index of {x.cycle_string()}: {r_index(x, H)}")
print(f"r_index of the identity: {r_index(Permutation.identity(4), H)}")

# The flagship pair of the package: S_8 over the depth-3 binary tree group.
from heckelab.treefam import q_group

Q3 = q_group(2, 3)
big = DoubleCosetTable(symmetric_group(8), Q3)
print(f"\n(S_8, Q_3): |Q_3| = {Q3.order()}, index {len(big.cosets)}, "
      f"{len(big)} double cosets")
print("sizes:", big.sizes)
print("sum  :", sum(big.sizes), "= 8! =", 40320)
print("unimodular (R(x) = R(x^-1) everywhere):", big.is_unimodular())
