import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from heckelab.errors import ContainmentError, InvarianceError
from heckelab.embed import (SCENARIOS, WreathScenario, check_commutation,
                            double_coset_map, embed_invariant, embed_top,
                            scenario_report, scenario_s2_cubed,
                            scenario_s2_squared, scenario_s4_d4)
from heckelab.hecke import PairSpec
from heckelab.permgroup import PermGroup, Permutation, symmetric_group, trivial_group
from heckelab.treefam import block_permutation, q_group

from groupalg import EnumeratedGroup, convolve, corner_basis, hecke_image, projector
import oracles


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
        big = EnumeratedGroup(s4sq.big)
        p_v0 = projector(big, s4sq.V0)
        p_gamma = projector(big, PermGroup(s4sq.degree, s4sq.gamma_gens))
        joint = projector(big, s4sq.V0_gamma)
        assert convolve(p_v0, p_gamma) == joint
        assert convolve(p_gamma, p_v0) == joint

    def test_gamma_invariance_checked_at_construction(self):
        # blocks carrying different subgroups cannot be swapped
        s2 = symmetric_group(2)
        with pytest.raises(InvarianceError):
            WreathScenario(symmetric_group(4),
                           [q_group(2, 2), trivial_group(4)],
                           2, s2, s2)

    def test_refuses_groups_that_do_not_fit_the_blocks(self):
        s2, s3, s4, d4 = (symmetric_group(2), symmetric_group(3), symmetric_group(4),
                          q_group(2, 2))
        with pytest.raises(ValueError, match="permute exactly the blocks"):
            WreathScenario(s4, d4, 2, s3, s3)
        with pytest.raises(ValueError, match="one base subgroup per block"):
            WreathScenario(s4, [d4, d4, d4], 2, s2, s2)
        with pytest.raises(ContainmentError, match="base subgroup"):
            WreathScenario(d4, s4, 2, s2, s2)
        with pytest.raises(ContainmentError, match="gamma"):
            WreathScenario(s4, d4, 2, trivial_group(2), s2)

    def test_unbalanced_blocks_allowed_with_trivial_gamma(self):
        s2 = symmetric_group(2)
        scenario = WreathScenario(symmetric_group(4),
                                  [q_group(2, 2), trivial_group(4)],
                                  2, s2, trivial_group(2))
        assert scenario.V0.order() == 8
        # the Prop hypothesis holds (gamma trivial) but the Corollary's
        # stronger hypothesis fails: the full top group moves V_0
        with pytest.raises(InvarianceError):
            embed_top(scenario, scenario.pair_top.unit())


class TestInvariantEmbedding:
    def test_projector_maps_to_joint_projector(self, s4sq):
        image = embed_invariant(s4sq, s4sq.pair_V.unit())
        assert image == s4sq.pair_big.unit()

    def test_invariant_basis_dimension(self, s2sq, s4sq):
        assert len(s2sq.invariant_basis()) == 3
        assert len(s4sq.invariant_basis()) == 3

    def test_rejects_elements_of_another_scenario(self, s2sq, s4sq):
        with pytest.raises(ValueError, match=r"pair \(V, V_0\)"):
            embed_invariant(s2sq, s4sq.pair_V.unit())
        with pytest.raises(ValueError, match=r"pair \(G, Γ\)"):
            embed_top(s2sq, s4sq.pair_top.unit())

    def test_rejects_non_invariant_elements(self, s4sq):
        # a single off-diagonal tensor factor is moved by the swap
        lopsided = s4sq.pair_V.basis_element(1)
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
        image = embed_top(s4sq, s4sq.pair_top.unit())
        assert image == s4sq.pair_big.unit()

    def test_two_element_basis_with_trivial_gamma(self):
        # same blocks, but gamma trivial: the top corner is all of C[S_2]
        scenario = WreathScenario(symmetric_group(4), q_group(2, 2), 2,
                                  symmetric_group(2), trivial_group(2),
                                  name="s4-squared-free-top")
        basis = scenario.pair_top.basis()
        assert len(basis) == 2
        images = [embed_top(scenario, y) for y in basis]
        assert images[0] != images[1]
        for y, image in zip(basis, images):
            assert image.trace() == y.trace()
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
        # V_0 ⋊ Γ = Q_3, so a double coset of it in V ⋊ G is one in S_8
        to_flagship = _to_tree_pair(s4sq, flagship_pair)
        invariant = s4sq.invariant_basis()
        images = [embed_invariant(s4sq, x) for x in invariant]
        lifted = [to_flagship(y) for y in images]
        # unit goes to unit
        assert lifted[0] == flagship_pair.unit()
        # multiplicative and trace-preserving through the identification
        for i, x in enumerate(invariant):
            for j, y in enumerate(invariant):
                via_big = to_flagship(embed_invariant(s4sq, x * y))
                assert via_big == lifted[i] * lifted[j]
            assert images[i].trace() == lifted[i].trace()

    def test_composite_depth_one(self):
        # l = 1: the base corner is one-dimensional, the composite is unital
        scenario = WreathScenario(symmetric_group(2), q_group(2, 1), 2,
                                  symmetric_group(2), symmetric_group(2))
        pair = PairSpec.depth(2, 2).pair()
        invariant = scenario.invariant_basis()
        assert len(invariant) == 1
        image = _to_tree_pair(scenario, pair)(embed_invariant(scenario, invariant[0]))
        assert image == pair.unit()


def _to_tree_pair(scenario, pair):
    """H(V⋊G, V_0⋊Γ) into H(S_m, V_0⋊Γ), for a tree pair whose subgroup is V_0⋊Γ."""
    assert scenario.V0_gamma.same_group(pair.subgroup)
    return double_coset_map(scenario.pair_big, scenario.pair_big.representatives,
                            pair)


def test_scenario_catalog_names():
    assert set(SCENARIOS) == {"s2-squared", "s4-squared", "s2-cubed"}
    for factory in SCENARIOS.values():
        assert factory().big.order() > 1


# -- the group algebra C[V ⋊ G] as the oracle -----------------------------------------

def _free_top():
    return WreathScenario(symmetric_group(4), q_group(2, 2), 2,
                          symmetric_group(2), trivial_group(2), name="free-top")


def _no_top():
    return WreathScenario(symmetric_group(2), trivial_group(2), 2,
                          trivial_group(2), trivial_group(2), name="no-top")


def _depth_one():
    return WreathScenario(symmetric_group(2), q_group(2, 1), 2,
                          symmetric_group(2), symmetric_group(2), name="depth-one")


def _unbalanced():
    s2 = symmetric_group(2)
    return WreathScenario(symmetric_group(4), [q_group(2, 2), trivial_group(4)],
                          2, s2, trivial_group(2), name="unbalanced")


ORACLE_SCENARIOS = {**SCENARIOS, "free-top": _free_top, "no-top": _no_top,
                    "depth-one": _depth_one}


@pytest.mark.parametrize("name", list(ORACLE_SCENARIOS))
def test_hecke_maps_match_the_group_algebra(name):
    scenario = ORACLE_SCENARIOS[name]()
    big = EnumeratedGroup(scenario.big)
    for gens in (scenario.gamma_gens, scenario.top_gens):
        # the same orbits: the group-algebra sums are of 1_D/|D| = e_D/R(D)
        sums = oracles.wreath_invariant_basis(scenario, big, gens)
        assert [hecke_image(x, scenario.pair_V).exact.support() for x in sums] == \
            [x.exact.support() for x in scenario.invariant_basis(gens)]
    for x in oracles.wreath_invariant_basis(scenario, big, scenario.gamma_gens):
        assert embed_invariant(scenario, hecke_image(x, scenario.pair_V)) == \
            hecke_image(oracles.wreath_embed_invariant(scenario, big, x), scenario.pair_big)
    top = EnumeratedGroup(scenario.top)
    for y in corner_basis(top, scenario.gamma, scenario.pair_top):
        assert embed_top(scenario, hecke_image(y, scenario.pair_top)) == \
            hecke_image(oracles.wreath_embed_top(scenario, big, y), scenario.pair_big)


def _assert_maps_agree(source, rows, target):
    # the integer matrix against one scaled basis image per support entry
    fast = double_coset_map(source, rows, target)
    slow = oracles.double_coset_map_by_support(source, rows, target)
    rng = np.random.default_rng(len(rows))
    elements = source.basis() + [oracles.random_exact_element(source, rng, span)
                                 for span in (0, 3, 2 ** 70)]
    elements += [x.scaled((Fraction(1, 6), Fraction(-5, 4))) for x in elements[-2:]]
    for x in elements:
        image = fast(x)
        assert image.pair is target and image == slow(x)
        assert hash(image) == hash(slow(x))


@pytest.mark.parametrize("name", list(ORACLE_SCENARIOS))
def test_matrix_maps_match_the_support_loop(name):
    scenario = ORACLE_SCENARIOS[name]()
    m0 = scenario.base_group.degree
    # the top representatives lifted one block permutation at a time
    lifted = np.array([block_permutation(Permutation(row.tolist()), m0).images
                       for row in scenario.pair_top.representatives])
    _assert_maps_agree(scenario.pair_V, scenario.pair_V.representatives,
                       scenario.pair_big)
    _assert_maps_agree(scenario.pair_top, lifted, scenario.pair_big)


def test_matrix_map_into_the_flagship_matches_the_support_loop(s4sq, flagship_pair):
    # the arguments of `_to_tree_pair`: V_0 ⋊ Γ = Q_3
    assert s4sq.V0_gamma.same_group(flagship_pair.subgroup)
    _assert_maps_agree(s4sq.pair_big, s4sq.pair_big.representatives, flagship_pair)


def test_unbalanced_scenario_fails_in_both_pictures():
    scenario = _unbalanced()
    big = EnumeratedGroup(scenario.big)
    y = corner_basis(EnumeratedGroup(scenario.top), scenario.gamma, scenario.pair_top)[0]
    with pytest.raises(InvarianceError):
        oracles.wreath_embed_top(scenario, big, y)
    with pytest.raises(InvarianceError):
        embed_top(scenario, hecke_image(y, scenario.pair_top))
    with pytest.raises(InvarianceError):
        oracles.wreath_invariant_basis(scenario, big, scenario.top_gens)
    with pytest.raises(InvarianceError):
        scenario.invariant_basis(scenario.top_gens)
    for run in (scenario_report, check_commutation):
        with pytest.raises(InvarianceError):
            run(scenario)


LIBRARY = Path(__file__).resolve().parent.parent / "src" / "heckelab"


@pytest.mark.parametrize("module", sorted(path.stem for path in LIBRARY.glob("*.py")))
def test_library_imports_no_test_module(module):
    # the library works in Hecke coordinates; the group algebra and the other
    # slow paths are only the tests' oracles, and the package does not ship them
    imported = set()
    for node in ast.walk(ast.parse((LIBRARY / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not any(test_module in name for name in imported
                   for test_module in ("groupalg", "oracles")), imported
