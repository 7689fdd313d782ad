"""Rooted trees with root degree k and branching degree d, and their
ball automorphism groups realized as permutation groups on ordered levels.

Vertices are addressed by words: the root is the empty word, a level-n
vertex is c_1 c_2 ... c_n with c_1 in {0..k-1} and c_i in {0..d-1} for
i >= 2.  Level sets are totally ordered lexicographically by address;
this ordering pins every group embedding to a concrete permutation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ScaleError
from .permgroup import PermGroup, Permutation

#: largest level set realized as explicit permutations (desk-scale cap)
LEVEL_POINT_CAP = 64


@dataclass(frozen=True)
class TreeShape:
    """Branching data: root has k children, every other vertex has d."""

    d: int
    k: int

    def __post_init__(self):
        if self.d < 2 or self.k < 2:
            raise ValueError("tree degrees must be at least 2")

    def level_size(self, n: int) -> int:
        if n < 0:
            raise ValueError("level must be nonnegative")
        if n == 0:
            return 1
        return self.k * self.d ** (n - 1)

    def arity(self, address: tuple) -> int:
        """Number of children of the vertex at `address`."""
        return self.k if len(address) == 0 else self.d

    def vertices(self, n: int) -> list:
        """All level-n addresses in lexicographic order."""
        level = [()]
        for _ in range(n):
            level = [v + (c,) for v in level for c in range(self.arity(v))]
        return level


def closed_form_order(shape: TreeShape, n: int) -> int:
    """Order of the ball automorphism group: k! times d! per deeper internal
    vertex.  d! is formed only when there is one: at n = 1, d is unbounded."""
    internal = sum(shape.level_size(j) for j in range(1, n))
    return math.factorial(shape.k) * (math.factorial(shape.d) ** internal if internal else 1)


def check_level(shape: TreeShape, n: int, level="level n", size_name="|V_n|") -> int:
    """|V_n|, refusing n < 1 and level sets above LEVEL_POINT_CAP.  |V_n| is at
    least 2^n, k and (for n > 1) d, so any of them above the cap is refused first."""
    if n < 1:
        raise ScaleError(f"{level} must be at least 1")
    if max(n, shape.k, shape.d if n > 1 else 0) > LEVEL_POINT_CAP:
        raise ScaleError(f"{size_name} exceeds the point cap {LEVEL_POINT_CAP}")
    size = shape.level_size(n)
    if size > LEVEL_POINT_CAP:
        raise ScaleError(f"{size_name} = {size} exceeds the point cap {LEVEL_POINT_CAP}")
    return size


def block_element(i: int, g: Permutation, blocks: int) -> Permutation:
    """The base-group element g acting inside block i of `blocks` blocks."""
    m0 = g.degree
    images = list(range(blocks * m0))
    for r in range(m0):
        images[i * m0 + r] = i * m0 + g(r)
    return Permutation(images)


def block_permutation(sigma: Permutation, m0: int) -> Permutation:
    """The rigid permutation of `sigma.degree` blocks of size m0."""
    return Permutation([sigma(i) * m0 + r for i in range(sigma.degree) for r in range(m0)])


def _subtree_swap(shape: TreeShape, n: int, vertex: tuple, c: int) -> Permutation:
    """Swap the subtrees below children c and c+1 of `vertex`, seen on level n."""
    leaves = shape.vertices(n)
    position = {addr: i for i, addr in enumerate(leaves)}
    depth = len(vertex)
    images = list(range(len(leaves)))
    a, b = vertex + (c,), vertex + (c + 1,)
    for i, addr in enumerate(leaves):
        if addr[:depth + 1] == a:
            images[i] = position[b + addr[depth + 1:]]
        elif addr[:depth + 1] == b:
            images[i] = position[a + addr[depth + 1:]]
    return Permutation(images)


def ball_aut_group(shape: TreeShape, n: int) -> PermGroup:
    """Automorphisms of the radius-n ball acting on the ordered level set V_n.

    Generated by child swaps at every internal vertex; the order matches
    closed_form_order(shape, n).
    """
    if n < 1:
        raise ValueError("ball automorphism groups are built for n >= 1")
    check_level(shape, n)
    gens = []
    for depth in range(n):
        for vertex in shape.vertices(depth):
            for c in range(shape.arity(vertex) - 1):
                gens.append(_subtree_swap(shape, n, vertex, c))
    group = PermGroup(shape.level_size(n), gens)
    assert group.order() == closed_form_order(shape, n)
    return group


def q_group(d: int, l: int) -> PermGroup:
    """Depth-l quotient of the automorphism group of the regular tree (k = d)."""
    return ball_aut_group(TreeShape(d, d), l)


def wreath_group(shape: TreeShape, l: int, n: int) -> PermGroup:
    """Q_l^{|V_n|} ⋊ P_n inside S_{|V_{n+l}|}: a copy of Q_l (on d^l points) in
    every block, and P_n moving the |V_n| blocks rigidly.

    Level-(n+l) addresses are grouped by their level-n prefix; each block is
    a contiguous run of d^l addresses in lexicographic order, matching the
    level-l ordering of the regular tree with k = d.  The result equals
    `ball_aut_group(shape, n + l)`.
    """
    points = check_level(shape, n + l)
    blocks = shape.level_size(n)
    base = q_group(shape.d, l)
    gens = [block_element(i, g, blocks) for i in range(blocks) for g in base.generators]
    gens.extend(block_permutation(s, shape.d ** l)
                for s in ball_aut_group(shape, n).generators)
    return PermGroup(points, gens)
