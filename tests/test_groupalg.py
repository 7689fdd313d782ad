import random
from fractions import Fraction

import pytest

from heckelab.errors import ContainmentError, InvarianceError, PairMismatchError, ScaleError
from heckelab.permgroup import (PermGroup, Permutation, dihedral_square,
                                symmetric_group, trivial_group)
from heckelab.embed import block_element, block_permutation

import groupalg
from groupalg import (AlgebraElement, EnumeratedGroup, convolve, corner_basis,
                      corner_trace, invariant_subalgebra, projector)
import oracles


@pytest.fixture(scope="module")
def s4():
    return EnumeratedGroup(symmetric_group(4))


def _random_element(carrier, rng, complex_part=True):
    coeffs = {}
    for _ in range(rng.randrange(1, 5)):
        p = oracles.sample(carrier.group, rng)
        if complex_part:
            coeffs[p] = (Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)),
                         Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)))
        else:
            coeffs[p] = Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
    return oracles.algebra_element(carrier, coeffs)


class TestConvolution:
    def test_delta_identity_is_the_unit(self, s4):
        rng = random.Random(2)
        e = AlgebraElement.delta(s4, Permutation.identity(4))
        f = _random_element(s4, rng)
        assert convolve(e, f) == f
        assert convolve(f, e) == f

    def test_deltas_multiply_like_the_group(self, s4):
        rng = random.Random(4)
        for _ in range(30):
            a = oracles.sample(s4.group, rng)
            b = oracles.sample(s4.group, rng)
            lhs = convolve(AlgebraElement.delta(s4, a), AlgebraElement.delta(s4, b))
            assert lhs == AlgebraElement.delta(s4, a * b)

    def test_projector_is_idempotent(self, s4):
        p = projector(s4, dihedral_square())
        assert convolve(p, p) == p

    def test_associativity_on_random_triples(self, s4):
        rng = random.Random(6)
        for _ in range(15):
            f, g, h = (_random_element(s4, rng) for _ in range(3))
            assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))

    def test_star_reverses_products(self, s4):
        rng = random.Random(8)
        for _ in range(15):
            f, g = _random_element(s4, rng), _random_element(s4, rng)
            assert convolve(f, g).star() == convolve(g.star(), f.star())
            assert f.star().star() == f

    def test_trace_is_cyclic(self, s4):
        rng = random.Random(10)
        for _ in range(15):
            f, g = _random_element(s4, rng), _random_element(s4, rng)
            assert convolve(f, g).trace() == convolve(g, f).trace()

    def test_carrier_mismatch(self, s4):
        other = EnumeratedGroup(symmetric_group(3))
        with pytest.raises(PairMismatchError):
            convolve(AlgebraElement.zero(s4), AlgebraElement.zero(other))

    def test_large_carrier_uses_elementwise_path(self, monkeypatch):
        # S_8 is above the Cayley-table cap; ranked products keep convolution exact
        monkeypatch.setattr(groupalg, "ORACLE_CAP", 50_000)
        big = EnumeratedGroup(symmetric_group(8))
        rng = random.Random(12)
        a, b = oracles.sample(big.group, rng), oracles.sample(big.group, rng)
        lhs = convolve(AlgebraElement.delta(big, a), AlgebraElement.delta(big, b))
        assert lhs == AlgebraElement.delta(big, a * b)


class TestProjector:
    def test_trivial_subgroup_gives_delta_e(self, s4):
        assert projector(s4, trivial_group(4)) == \
            AlgebraElement.delta(s4, Permutation.identity(4))

    def test_d4_coefficients(self, s4):
        p = projector(s4, dihedral_square())
        for q in dihedral_square().elements():
            assert p.coeff(q) == (Fraction(1, 8), Fraction(0))
        assert len(p.vec.support()) == 8

    def test_self_adjoint(self, s4):
        for H in (dihedral_square(), trivial_group(4), symmetric_group(4)):
            p = projector(s4, H)
            assert p.star() == p
            assert convolve(p, p) == p

    def test_averaging_absorbs_subgroup_deltas(self, s4):
        p = projector(s4, dihedral_square())
        for h in dihedral_square().elements():
            d = AlgebraElement.delta(s4, h)
            assert convolve(convolve(p, d), p) == p

    def test_commuting_projectors_in_semidirect_product(self):
        # two blocks of S_2 swapped by the top S_2: the block subgroup is
        # normalized by the swap, so the two averaging projections commute
        s2 = symmetric_group(2)
        v_gens = [block_element(i, g, 2) for i in range(2) for g in s2.generators]
        swap = block_permutation(Permutation([1, 0]), 2)
        big = EnumeratedGroup(PermGroup(4, v_gens + [swap]))
        p_v = projector(big, PermGroup(4, v_gens))
        p_g = projector(big, PermGroup(4, [swap]))
        assert convolve(p_v, p_g) == convolve(p_g, p_v)
        # and their product is the averaging projection of the join
        assert convolve(p_v, p_g) == projector(big, big.group)

    def test_not_a_subgroup(self, s4):
        with pytest.raises(ContainmentError):
            projector(s4, symmetric_group(5))


class TestCornerBasis:
    def test_s4_d4_has_two_elements(self, s4):
        basis = corner_basis(s4, dihedral_square())
        assert len(basis) == 2

    def test_trivial_subgroup_gives_all_deltas(self):
        carrier = EnumeratedGroup(symmetric_group(3))
        basis = corner_basis(carrier, trivial_group(3))
        assert len(basis) == 6
        deltas = {AlgebraElement.delta(carrier, p) for p in carrier.elements}
        assert set(basis) == deltas

    def test_full_group_gives_projector(self, s4):
        basis = corner_basis(s4, symmetric_group(4))
        assert basis == [projector(s4, symmetric_group(4))]

    def test_linear_independence_by_disjoint_supports(self, s4):
        basis = corner_basis(s4, dihedral_square())
        supports = [set(b.vec.support()) for b in basis]
        assert supports[0].isdisjoint(supports[1])

    def test_scale_cap(self):
        with pytest.raises(ScaleError):
            EnumeratedGroup(symmetric_group(8))


class TestInvariantSubalgebra:
    def test_trivial_action_returns_everything(self, s4):
        basis = corner_basis(s4, dihedral_square())
        assert invariant_subalgebra(basis, trivial_group(4)) == basis

    def test_swap_action_on_two_klein_blocks(self):
        # the group (S_2 x S_2)^2 with the two factors swapped: 16 elements,
        # 4 diagonal + 6 off-diagonal pairs = 10 orbit sums
        klein = PermGroup(4, [Permutation.from_cycles(4, (0, 1)),
                              Permutation.from_cycles(4, (2, 3))])
        assert klein.order() == 4
        v_gens = [block_element(i, g, 2) for i in range(2) for g in klein.generators]
        swap = block_permutation(Permutation([1, 0]), 4)
        carrier = EnumeratedGroup(PermGroup(8, v_gens + [swap]))
        product = PermGroup(8, v_gens)
        basis = [AlgebraElement.delta(carrier, p) for p in product.elements()]
        assert len(basis) == 16
        sums = invariant_subalgebra(basis, PermGroup(8, [swap]))
        assert len(sums) == 10
        # independent count via the averaging formula
        elements = [p.images for p in product.elements()]
        swap_t = swap.images
        inv_swap = swap.inverse().images

        def act(x):
            return oracles.mul(oracles.mul(swap_t, x), inv_swap)

        assert oracles.orbit_count_burnside(elements, [lambda x: x, act]) == 10

    def test_conjugation_invariants_are_class_functions(self):
        carrier = EnumeratedGroup(symmetric_group(3))
        basis = [AlgebraElement.delta(carrier, p) for p in carrier.elements]
        sums = invariant_subalgebra(basis, symmetric_group(3))
        assert len(sums) == 3

    def test_rejects_action_that_leaves_the_basis(self, s4):
        basis = corner_basis(s4, dihedral_square())[:1]
        odd = PermGroup(4, [Permutation.from_cycles(4, (0, 1, 2))])
        with pytest.raises((InvarianceError, ContainmentError)):
            invariant_subalgebra(
                [AlgebraElement.delta(s4, Permutation.from_cycles(4, (0, 1)))],
                odd)


def test_corner_trace_normalization(s4):
    p = projector(s4, dihedral_square())
    assert corner_trace(p, 8) == (Fraction(1), Fraction(0))
