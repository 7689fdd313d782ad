import math

import pytest

from heckelab.errors import ScaleError
from heckelab.permgroup import COSET_INDEX_CAP, PermGroup, Permutation, symmetric_group
from heckelab.treefam import (LEVEL_POINT_CAP, TreeShape, ball_aut_group, block_element,
                              block_permutation, check_level, closed_form_order, q_group,
                              wreath_group)

import oracles


def test_level_sizes():
    assert TreeShape(2, 2).level_size(1) == 2
    assert TreeShape(2, 2).level_size(3) == 8
    assert TreeShape(3, 2).level_size(2) == 6
    assert TreeShape(3, 2).level_size(0) == 1


def test_degenerate_shapes_rejected():
    with pytest.raises(ValueError):
        TreeShape(1, 2)
    with pytest.raises(ValueError):
        TreeShape(2, 1)


def test_check_level_refuses_before_the_power():
    # a deep branching degree is fine at n = 1, where |V_1| = k
    assert check_level(TreeShape(10 ** 6, 3), 1) == 3
    for shape, n, message in ((TreeShape(2, 2), 7, "|V_n| = 128 exceeds"),
                              (TreeShape(64, 64), 64, f"|V_n| = {64 ** 64} exceeds"),
                              (TreeShape(2, 2), 10 ** 9, "|V_n| exceeds"),
                              (TreeShape(10 ** 6, 2), 2, "|V_n| exceeds"),
                              (TreeShape(2, 65), 1, "|V_n| exceeds")):
        with pytest.raises(ScaleError, match=message.replace("|", r"\|")):
            check_level(shape, n)


def test_vertices_are_lexicographically_sorted():
    shape = TreeShape(3, 2)
    for n in range(4):
        verts = shape.vertices(n)
        assert verts == sorted(verts)
        assert len(verts) == shape.level_size(n)


#: every (d, k, n) with |V_n| <= 16; d plays no part at n = 1, so only d = 2 there
SMALL_LEVELS = [(d, k, n) for d in range(2, 17) for k in range(2, 17) for n in range(1, 5)
                if TreeShape(d, k).level_size(n) <= 16 and (n > 1 or d == 2)]


def _index(d, k, n):
    shape = TreeShape(d, k)
    return math.factorial(shape.level_size(n)) // closed_form_order(shape, n)


#: every level pair (S_{|V_n|}, P_n) with 2 to COSET_INDEX_CAP cosets; n = 1
#: gives one coset, and |V_n| <= 64 needs n <= 6 and d, k <= 32
IN_CAP_LEVEL_PAIRS = [(d, k, n) for d in range(2, 33) for k in range(2, 33) for n in range(2, 7)
                      if TreeShape(d, k).level_size(n) <= LEVEL_POINT_CAP
                      and 1 < _index(d, k, n) <= COSET_INDEX_CAP]


class TestBallAutGroup:
    def test_small_orders(self):
        assert ball_aut_group(TreeShape(2, 2), 1).order() == 2
        assert ball_aut_group(TreeShape(2, 3), 1).order() == 6
        assert ball_aut_group(TreeShape(2, 2), 3).order() == 128

    def test_orders_match_closed_form(self):
        cases = [(2, 2, 1), (2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 2, 5),
                 (3, 2, 1), (3, 2, 2), (2, 3, 1), (2, 3, 2), (2, 3, 3),
                 (3, 3, 1), (3, 3, 2)]
        for d, k, n in cases:
            shape = TreeShape(d, k)
            assert ball_aut_group(shape, n).order() == closed_form_order(shape, n)

    def test_closed_form_needs_no_factorial_of_an_unused_degree(self):
        # at n = 1 no vertex has d children, so d may be any size
        assert closed_form_order(TreeShape(2 ** 70, 3), 1) == 6

    def test_binary_depth3_equals_portrait_enumeration(self):
        shape = TreeShape(2, 2)
        oracle = oracles.enumerate_ball_automorphisms(shape, 3)
        assert len(oracle) == 128
        assert {p.images for p in ball_aut_group(shape, 3).elements()} == oracle

    def test_ternary_depth2_equals_portrait_enumeration(self):
        shape = TreeShape(3, 2)
        oracle = oracles.enumerate_ball_automorphisms(shape, 2)
        group = ball_aut_group(shape, 2)
        assert group.order() == len(oracle)
        assert {p.images for p in group.elements()} == oracle

    def test_scale_cap(self):
        with pytest.raises(ScaleError):
            ball_aut_group(TreeShape(2, 2), 7)
        with pytest.raises(ScaleError, match="level n must be at least 1"):
            ball_aut_group(TreeShape(2, 2), 0)

    @pytest.mark.parametrize("d,k,n", SMALL_LEVELS + [(8, 8, 2), (2, 2, 6), (2, 4, 5)])
    def test_wreath_recursion_equals_child_swaps(self, d, k, n):
        shape = TreeShape(d, k)
        assert ball_aut_group(shape, n).same_group(oracles.ball_group_by_child_swaps(shape, n))

    def test_at_most_two_generators_per_level(self):
        assert len(IN_CAP_LEVEL_PAIRS) == 17
        for d, k, n in IN_CAP_LEVEL_PAIRS:
            assert len(ball_aut_group(TreeShape(d, k), n).generators) <= 2 * n, (d, k, n)

    def test_restriction_is_onto(self):
        shape = TreeShape(2, 2)
        for n in (1, 2, 3):
            upper = ball_aut_group(shape, n + 1)
            restricted = PermGroup(
                shape.level_size(n),
                [oracles.restriction_to_level(shape, n, g) for g in upper.generators])
            assert restricted.same_group(ball_aut_group(shape, n))


class TestQGroup:
    def test_depth_one_is_symmetric(self):
        assert q_group(2, 1).same_group(symmetric_group(2))

    def test_depth_two_is_the_dihedral_sylow(self):
        q2 = q_group(2, 2)
        assert q2.order() == 8
        sylow = PermGroup(4, [Permutation.from_cycles(4, (0, 1)),
                              Permutation.from_cycles(4, (2, 3)),
                              Permutation.from_cycles(4, (0, 2), (1, 3))])
        assert q2.same_group(sylow)
        orders = sorted(_element_order(p) for p in q2.elements())
        assert orders == [1, 2, 2, 2, 2, 2, 4, 4]

    def test_depth_three_order(self):
        assert q_group(2, 3).order() == 128


def _element_order(p: Permutation) -> int:
    e = Permutation.identity(p.degree)
    q = p
    order = 1
    while q != e:
        q = q * p
        order += 1
    return order


class TestWreathEmbedding:
    @pytest.mark.parametrize("l,n", [(1, 1), (1, 2), (2, 1)])
    def test_block_group_equals_ball_group(self, l, n):
        shape = TreeShape(2, 2)
        assert wreath_group(shape, l, n).same_group(ball_aut_group(shape, n + l))

    def test_small_case_order(self):
        assert wreath_group(TreeShape(2, 2), 1, 1).order() == 8

    def test_order_product(self):
        q2 = q_group(2, 2)
        p1 = ball_aut_group(TreeShape(2, 2), 1)
        assert wreath_group(TreeShape(2, 2), 2, 1).order() == q2.order() ** 2 * p1.order() == 128

    def test_top_copy_meets_blocks_trivially(self):
        # two blocks of 4 points: S_4 in each block, S_2 moving them rigidly
        blocks_only = PermGroup(8, [block_element(i, g, 2)
                                    for i in range(2) for g in symmetric_group(4).generators])
        for sigma in symmetric_group(2).elements():
            embedded = block_permutation(sigma, 4)
            if not sigma.is_identity():
                assert embedded not in blocks_only
            else:
                assert embedded in blocks_only

    def test_blocks_are_contiguous_prefix_runs(self):
        # a block copy of Q_2 moves exactly the level-3 addresses below one
        # level-1 vertex, and they are a contiguous run of 4
        shape = TreeShape(2, 2)
        level = shape.vertices(3)
        prefixes = shape.vertices(1)
        q2 = q_group(2, 2)
        for i in range(len(prefixes)):
            moved = sorted({j for g in q2.generators
                            for j, image in enumerate(block_element(i, g, 2).images)
                            if image != j})
            assert moved == list(range(4 * i, 4 * i + 4))
            assert [level[j][:1] for j in moved] == [prefixes[i]] * 4

    def test_scale_cap(self):
        with pytest.raises(ScaleError):
            wreath_group(TreeShape(2, 2), 4, 3)
