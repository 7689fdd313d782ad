"""Rooted-tree automorphism towers and the wreath identification.

The tree with root degree k and branching degree d has level sets V_n of
size k·d^(n-1); automorphisms of the radius-n ball act on the ordered level
set, giving the tower P_1 < P_2 < ... realized as permutation groups.
"""

from heckelab.treefam import (TreeShape, ball_aut_group, closed_form_order,
                              q_group, wreath_group)

shape = TreeShape(d=2, k=2)
print("level sizes:", [shape.level_size(n) for n in range(6)])
print("level-2 addresses:", ["".join(map(str, v)) for v in shape.vertices(2)])

# Ball automorphism groups, built as iterated wreath products: S_k at the
# root, then P_{j+1} = S_d ≀ P_j, from at most two generators per level.
for n in (1, 2, 3, 4):
    group = ball_aut_group(shape, n)
    print(f"|Aut(B_{n})| = {group.order()}  (closed form "
          f"{closed_form_order(shape, n)})")

# For the regular tree (k = d) the same groups appear as depth quotients.
q2 = q_group(2, 2)
print("\nQ_2 elements:", sorted(p.cycle_string() for p in q2.elements()))

# The identification Q_l^{|V_n|} ⋊ P_n = P_{n+l}: block copies of the depth
# group and rigid block permutations together generate exactly the deeper
# ball group.  Blocks are contiguous runs of addresses sharing a prefix.
level = shape.vertices(3)
blocks = [[j for j, v in enumerate(level) if v[:1] == prefix] for prefix in shape.vertices(1)]
print(f"\nwreath embedding blocks: {blocks}")
spanned = wreath_group(shape, l=2, n=1)
target = ball_aut_group(shape, 3)
print(f"spanned order {spanned.order()}, ball group order {target.order()}")
print("exact identification:", spanned.same_group(target))

# A ternary tree with a binary root, for contrast.
mixed = TreeShape(d=3, k=2)
print(f"\nd=3, k=2: |V_2| = {mixed.level_size(2)}, "
      f"|Aut(B_2)| = {ball_aut_group(mixed, 2).order()}")
