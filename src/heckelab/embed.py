"""Trace-preserving embeddings of invariant Hecke corners into wreath corners.

Setting: a finite group G permutes b blocks, each carrying a copy of a base
group; V is the product of the copies, V_0 the product of base subgroups,
and Γ ≤ G leaves V_0 invariant.  Everything is realized inside one
permutation group on b·m0 points (blocks are contiguous runs), where the
semidirect product V ⋊ G is literally the subgroup generated by the block
copies and the rigid block permutations.

The two maps verified here, in exact rational arithmetic, are x ↦ x·p_Γ on
the Γ-invariant part of the Hecke algebra H(V, V_0) and y ↦ p_{V0}·y on
H(G, Γ) (which needs all of G to leave V_0 invariant).  Both land in
H(V⋊G, V_0⋊Γ), multiplicative, star- and trace-preserving, with commuting
images.  They are computed in the double-coset bases of the three pairs, not
in the group algebra C[V⋊G], which the tests keep as the oracle
(`tests/groupalg.py`, whose `hecke_image` translates).  With e_D = 1_D/|H|
on each pair, e_D·p_Γ = 1_{DΓ}/|V_0⋊Γ| and p_{V0}·e_E = 1_{V_0 E}/|V_0⋊Γ|,
so both maps send e_D to R(D)/R(F)·e_F, F the double coset of V_0⋊Γ
holding D's lifted representative; a Γ-orbit sum of e_D goes to e_F.  Each
map is built once, by `double_coset_map`, as one integer matrix over the
least common denominator of the R(F), and applied as one product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._exactvec import ExactVector
from .errors import ContainmentError, InvarianceError
from .hecke import HeckeElement, HeckePair
from .permgroup import PermGroup, orbit_roots, symmetric_group, trivial_group
from .treefam import block_element, block_permutation, q_group


def _normalizes(gens, group: PermGroup) -> bool:
    return all(t * h * t.inverse() in group for t in gens for h in group.generators)


def double_coset_map(source: HeckePair, rows, target: HeckePair):
    """The linear map e_D ↦ R(D)/R(F)·e_F from H(source) into H(target).

    Row i of `rows` is the representative of source class i as an element
    of the target group, and F is the target class that holds it.  The map
    is one integer matrix M over the common denominator L = lcm R(F), with
    M[D, F] = R(D)·L/R(F), so applying it is one product x·M over x.den·L.
    """
    classes = target.class_of_coset[target.cosets.cosets_of(rows)]
    r_target = target.r_index[classes].tolist()
    common = math.lcm(*r_target)
    matrix = np.zeros((source.dim, target.dim), dtype=object)
    matrix[np.arange(source.dim), classes] = [
        r * (common // r_f) for r, r_f in zip(source.r_index.tolist(), r_target)]

    def apply(x: HeckeElement) -> HeckeElement:
        return HeckeElement(target, ExactVector(x.exact.den * common, x.exact.re.dot(matrix),
                                                x.exact.im.dot(matrix)))

    return apply


class WreathScenario:
    """One verified instance of the wreath-embedding setting.

    `base_subgroup` may be a single group (the same subgroup in every block)
    or one group per block; Γ must permute blocks carrying equal subgroups,
    which is checked at construction.
    """

    def __init__(self, base_group: PermGroup, base_subgroup,
                 blocks: int, top: PermGroup, gamma: PermGroup, name: str = ""):
        if top.degree != blocks:
            raise ValueError("top group must permute exactly the blocks")
        subgroups = (list(base_subgroup) if isinstance(base_subgroup, (list, tuple))
                     else [base_subgroup] * blocks)
        if len(subgroups) != blocks:
            raise ValueError("need one base subgroup per block")
        for sub in subgroups:
            if not base_group.contains_group(sub):
                raise ContainmentError("base subgroup not contained in base group")
        if not top.contains_group(gamma):
            raise ContainmentError("gamma not contained in the top group")
        self.name = name
        self.base_group = base_group
        self.base_subgroups = subgroups
        self.blocks = blocks
        self.top = top
        self.gamma = gamma
        m0 = base_group.degree
        self.degree = blocks * m0
        v_gens = [block_element(i, g, blocks)
                  for i in range(blocks) for g in base_group.generators]
        v0_gens = [block_element(i, g, blocks)
                   for i in range(blocks) for g in subgroups[i].generators]
        self.V = PermGroup(self.degree, v_gens)
        self.V0 = PermGroup(self.degree, v0_gens)
        self.top_gens = [block_permutation(s, m0) for s in top.generators]
        self.gamma_gens = [block_permutation(s, m0) for s in gamma.generators]
        self.big = PermGroup(self.degree, v_gens + self.top_gens)
        self.V0_gamma = PermGroup(self.degree, v0_gens + self.gamma_gens)
        if self.big.order() != self.V.order() * top.order():
            raise RuntimeError("block realization of V ⋊ G is not faithful")
        if not _normalizes(self.gamma_gens, self.V0):
            raise InvarianceError("gamma does not leave V_0 invariant")

    # -- the three Hecke pairs, built on first use ------------------------------

    @cached_property
    def pair_V(self) -> HeckePair:  # the source of x ↦ x·p_Γ
        return HeckePair(self.V, self.V0)

    @cached_property
    def pair_top(self) -> HeckePair:  # the source of y ↦ p_{V0}·y, on the blocks
        return HeckePair(self.top, self.gamma)

    @cached_property
    def pair_big(self) -> HeckePair:  # where both embeddings land
        return HeckePair(self.big, self.V0_gamma)

    @cached_property
    def _maps(self) -> tuple:
        """The double-coset maps of x ↦ x·p_Γ and y ↦ p_{V0}·y; the top
        representatives are lifted through the rigid block permutations."""
        m0 = self.base_group.degree
        sigma = self.pair_top.representatives.astype(np.intp)
        lifted = (sigma[:, :, None] * m0 + np.arange(m0)).reshape(len(sigma), -1)
        return (double_coset_map(self.pair_V, self.pair_V.representatives, self.pair_big),
                double_coset_map(self.pair_top, lifted, self.pair_big))

    @cached_property
    def _gamma_roots(self) -> np.ndarray:
        return self._class_orbits(self.gamma_gens)

    def _class_orbits(self, gens) -> np.ndarray:
        """The least class in the orbit of each double coset D of (V, V_0)
        under conjugation by `gens`; t⁻¹·D·t is a double coset, the class of
        t⁻¹·r_D·t, when t normalizes V_0."""
        if not _normalizes(gens, self.V0):
            raise InvarianceError("conjugation does not leave V_0 invariant")
        pair, reps = self.pair_V, self.pair_V.representatives
        # (t⁻¹·r·t)[i] = t[r[t⁻¹[i]]]; the inverse of a row is its argsort
        maps = [pair.class_of_coset[pair.cosets.cosets_of(t[reps[:, np.argsort(t)]])]
                for t in (np.asarray(g.images) for g in gens)]
        return orbit_roots(maps, pair.dim)

    def invariant_basis(self, gens=None) -> list:
        """Orbit sums of the e_D under conjugation by `gens` (default Γ), in
        order of their least class: a basis of the invariant part of H(V, V_0)."""
        roots = self._gamma_roots if gens is None else self._class_orbits(gens)
        return [self.pair_V.element_from_fractions((roots == root).astype(int).tolist())
                for root in sorted(set(roots.tolist()))]

    def __repr__(self):
        return (f"WreathScenario({self.name or 'unnamed'}: |V|={self.V.order()}, "
                f"|V0|={self.V0.order()}, blocks={self.blocks}, "
                f"|G|={self.top.order()}, |Γ|={self.gamma.order()})")


def embed_invariant(scenario: WreathScenario, x: HeckeElement) -> HeckeElement:
    """x ↦ x·p_Γ, from the Γ-invariant part of H(V, V_0) into H(V⋊G, V_0⋊Γ)."""
    if x.pair is not scenario.pair_V:
        raise ValueError("element does not belong to the scenario's pair (V, V_0)")
    if x.exact.permuted(scenario._gamma_roots) != x.exact:
        raise InvarianceError("element is not Γ-invariant")
    return scenario._maps[0](x)


def embed_top(scenario: WreathScenario, y: HeckeElement) -> HeckeElement:
    """y ↦ p_{V0}·y, from H(G, Γ) into H(V⋊G, V_0⋊Γ); all of G, not only Γ,
    must leave V_0 invariant."""
    if y.pair is not scenario.pair_top:
        raise ValueError("element does not belong to the scenario's pair (G, Γ)")
    if not _normalizes(scenario.top_gens, scenario.V0):
        raise InvarianceError("the top group does not leave V_0 invariant")
    return scenario._maps[1](y)


def check_commutation(scenario: WreathScenario) -> bool:
    """Do the embedded H(G, Γ) and the embedded G-invariant (not only
    Γ-invariant) part of H(V, V_0) commute?"""
    images_v = [embed_invariant(scenario, x)
                for x in scenario.invariant_basis(scenario.top_gens)]
    images_t = [embed_top(scenario, y) for y in scenario.pair_top.basis()]
    return all(a * b == b * a for a in images_v for b in images_t)


@dataclass
class ScenarioReport:
    """Per-axiom outcome of the embedding suite for one scenario."""

    scenario: str
    invariant_axioms: dict
    top_axioms: dict
    commutation: bool

    @property
    def ok(self) -> bool:
        return (all(self.invariant_axioms.values())
                and all(self.top_axioms.values()) and self.commutation)

    def rows(self) -> list:
        out = [(f"invariant:{k}", v) for k, v in self.invariant_axioms.items()]
        out += [(f"top:{k}", v) for k, v in self.top_axioms.items()]
        out.append(("commutation", self.commutation))
        return out


def _axiom_suite(basis, embed, unit, image_unit):
    """Shared axiom battery for either embedding direction."""
    pairs = [(x, embed(x)) for x in basis]
    return {
        "unital": embed(unit) == image_unit,
        "star": all(embed(x.star()) == im.star() for x, im in pairs),
        "trace": all(im.trace() == x.trace() for x, im in pairs),
        "multiplicative": all(embed(x * y) == ix * iy for x, ix in pairs for y, iy in pairs),
        # injectivity through the faithful trace: ||im(x)||² = ||x||² > 0
        "injective": all((im.star() * im).trace() == (x.star() * x).trace() != (0, 0)
                         for x, im in pairs),
    }


def scenario_report(scenario: WreathScenario) -> ScenarioReport:
    """Run the full embedding axiom suite, exactly."""
    big_unit = scenario.pair_big.unit()
    return ScenarioReport(
        scenario=scenario.name,
        invariant_axioms=_axiom_suite(scenario.invariant_basis(),
                                      lambda x: embed_invariant(scenario, x),
                                      scenario.pair_V.unit(), big_unit),
        top_axioms=_axiom_suite(scenario.pair_top.basis(),
                                lambda y: embed_top(scenario, y),
                                scenario.pair_top.unit(), big_unit),
        commutation=check_commutation(scenario),
    )


# -- pinned scenario catalog -------------------------------------------------------

def scenario_s2_squared() -> WreathScenario:
    """Two swapped copies of S_2, trivial base subgroup."""
    s2 = symmetric_group(2)
    return WreathScenario(s2, trivial_group(2), 2, s2, s2, name="s2-squared")


def scenario_s4_d4() -> WreathScenario:
    """Two swapped copies of S_4 over the dihedral tree subgroup Q_2."""
    s2 = symmetric_group(2)
    return WreathScenario(symmetric_group(4), q_group(2, 2), 2, s2, s2,
                          name="s4-squared")


def scenario_s2_cubed() -> WreathScenario:
    """Three copies of S_2 permuted by S_3, trivial base subgroup."""
    s3 = symmetric_group(3)
    return WreathScenario(symmetric_group(2), trivial_group(2), 3, s3, s3,
                          name="s2-cubed")


SCENARIOS = {
    "s2-squared": scenario_s2_squared,
    "s4-squared": scenario_s4_d4,
    "s2-cubed": scenario_s2_cubed,
}
