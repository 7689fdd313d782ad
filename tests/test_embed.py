import pytest

from heckelab.errors import InvarianceError
from heckelab.embed import (SCENARIOS, WreathScenario, check_commutation,
                            embed_invariant, embed_top, hecke_image,
                            scenario_report, scenario_s2_cubed,
                            scenario_s2_squared, scenario_s4_d4)
from heckelab.groupalg import convolve, corner_trace, projector
from heckelab.hecke import PairSpec, convolve as hecke_convolve
from heckelab.permgroup import symmetric_group, trivial_group
from heckelab.treefam import q_group


@pytest.fixture(scope="module")
def s2sq():
    return scenario_s2_squared()


@pytest.fixture(scope="module")
def s4sq():
    return scenario_s4_d4()


class TestScenarioConstruction:
    def test_semidirect_order(self, s4sq):
        assert s4sq.V.order() == 576
        assert s4sq.V0.order() == 64
        assert s4sq.big.order() == 1152
        assert s4sq.V0_gamma.order() == 128

    def test_projector_factorization(self, s4sq):
        # the joint averaging projection splits as a commuting product
        p_v0 = s4sq.projector_V0()
        p_gamma = s4sq.projector_gamma()
        joint = s4sq.projector_V0_gamma()
        assert convolve(p_v0, p_gamma) == joint
        assert convolve(p_gamma, p_v0) == joint

    def test_gamma_invariance_checked_at_construction(self):
        # blocks carrying different subgroups cannot be swapped
        s2 = symmetric_group(2)
        with pytest.raises(InvarianceError):
            WreathScenario(symmetric_group(4),
                           [q_group(2, 2), trivial_group(4)],
                           2, s2, s2)

    def test_unbalanced_blocks_allowed_with_trivial_gamma(self):
        s2 = symmetric_group(2)
        scenario = WreathScenario(symmetric_group(4),
                                  [q_group(2, 2), trivial_group(4)],
                                  2, s2, trivial_group(2))
        assert scenario.V0.order() == 8
        # the Prop hypothesis holds (gamma trivial) but the Corollary's
        # stronger hypothesis fails: the full top group moves V_0
        basis = scenario.corner_basis_top()
        with pytest.raises(InvarianceError):
            embed_top(scenario, basis[0])


class TestInvariantEmbedding:
    def test_projector_maps_to_joint_projector(self, s4sq):
        image = embed_invariant(s4sq, projector(s4sq.carrier_V, s4sq.V0))
        assert image == s4sq.projector_V0_gamma()

    def test_invariant_basis_dimension(self, s2sq, s4sq):
        assert len(s2sq.invariant_corner_basis()) == 3
        assert len(s4sq.invariant_corner_basis()) == 3

    def test_rejects_non_invariant_elements(self, s4sq):
        basis = s4sq.corner_basis_V()
        # a single off-diagonal tensor factor is moved by the swap
        lopsided = basis[1]
        with pytest.raises(InvarianceError):
            embed_invariant(s4sq, lopsided)

    def test_full_axiom_suite_small(self, s2sq):
        report = scenario_report(s2sq)
        assert report.ok, report.rows()

    def test_full_axiom_suite_flagship(self, s4sq):
        report = scenario_report(s4sq)
        assert report.ok, report.rows()

    def test_full_axiom_suite_three_blocks(self):
        report = scenario_report(scenario_s2_cubed())
        assert report.ok, report.rows()


class TestTopEmbedding:
    def test_projector_maps_to_joint_projector(self, s4sq):
        image = embed_top(s4sq, projector(s4sq.carrier_top, s4sq.gamma))
        assert image == s4sq.projector_V0_gamma()

    def test_two_element_basis_with_trivial_gamma(self):
        # same blocks, but gamma trivial: the top corner is all of C[S_2]
        scenario = WreathScenario(symmetric_group(4), q_group(2, 2), 2,
                                  symmetric_group(2), trivial_group(2),
                                  name="s4-squared-free-top")
        basis = scenario.corner_basis_top()
        assert len(basis) == 2
        images = [embed_top(scenario, y) for y in basis]
        assert images[0] != images[1]
        for y, image in zip(basis, images):
            assert corner_trace(image, scenario.V0_gamma.order()) == \
                corner_trace(y, scenario.gamma.order())
        report = scenario_report(scenario)
        assert report.ok, report.rows()


class TestCommutation:
    def test_trivial_top_group(self):
        scenario = WreathScenario(symmetric_group(2), trivial_group(2), 2,
                                  trivial_group(2), trivial_group(2),
                                  name="no-top")
        assert check_commutation(scenario)

    def test_pinned_catalog(self, s2sq, s4sq):
        assert check_commutation(s2sq)
        assert check_commutation(s4sq)
        assert check_commutation(scenario_s2_cubed())

    def test_commutation_with_free_top(self):
        scenario = WreathScenario(symmetric_group(4), q_group(2, 2), 2,
                                  symmetric_group(2), trivial_group(2))
        assert check_commutation(scenario)


class TestTowerIdentification:
    def test_joint_subgroup_is_the_tree_group(self, s4sq):
        assert s4sq.V0_gamma.same_group(q_group(2, 3))

    def test_composite_lands_in_the_flagship_algebra(self, s4sq, flagship_pair):
        invariant = s4sq.invariant_corner_basis()
        images = [embed_invariant(s4sq, x) for x in invariant]
        lifted = [hecke_image(y, flagship_pair) for y in images]
        # unit goes to unit
        assert lifted[0] == flagship_pair.unit()
        # multiplicative and trace-preserving through the identification
        for i, x in enumerate(invariant):
            for j, y in enumerate(invariant):
                via_big = hecke_image(embed_invariant(s4sq, convolve(x, y)),
                                      flagship_pair)
                assert via_big == hecke_convolve(lifted[i], lifted[j])
            assert corner_trace(images[i], s4sq.V0_gamma.order()) == lifted[i].trace()

    def test_composite_depth_one(self):
        # l = 1: the base corner is one-dimensional, the composite is unital
        scenario = WreathScenario(symmetric_group(2), q_group(2, 1), 2,
                                  symmetric_group(2), symmetric_group(2))
        pair = PairSpec.depth(2, 2).pair()
        invariant = scenario.invariant_corner_basis()
        assert len(invariant) == 1
        image = hecke_image(embed_invariant(scenario, invariant[0]), pair)
        assert image == pair.unit()


def test_scenario_catalog_names():
    assert set(SCENARIOS) == {"s2-squared", "s4-squared", "s2-cubed"}
    for factory in SCENARIOS.values():
        assert factory().big.order() > 1
