"""Trace-preserving embeddings of invariant Hecke corners into wreath corners.

Setting: a finite group G permutes b blocks, each carrying a copy of a base
group; V is the product of the copies, V_0 the product of base subgroups,
and Γ ≤ G leaves V_0 invariant.  Everything is realized inside one
permutation group on b·m0 points (blocks are contiguous runs), where the
semidirect product V ⋊ G is literally the subgroup generated by the block
copies and the rigid block permutations.

The two maps verified here, in exact rational arithmetic:

  * x ↦ x·p_Γ on the Γ-invariant part of the corner p_{V0} C[V] p_{V0},
  * y ↦ p_{V0}·y on the corner p_Γ C[G] p_Γ (needs all of G to leave V_0
    invariant),

both landing in p_{V0⋊Γ} C[V⋊G] p_{V0⋊Γ}, multiplicative, star- and
trace-preserving, with commuting images.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from ._exactvec import ExactVector
from .errors import ContainmentError, InvarianceError
from .groupalg import (AlgebraElement, EnumeratedGroup, convolve, corner_basis,
                       corner_trace, invariant_subalgebra, projector)
from .hecke import HeckeElement, HeckePair
from .permgroup import DoubleCosetTable, PermGroup, symmetric_group, trivial_group
from .treefam import block_element, block_permutation, q_group


def _normalizes(gens, group: PermGroup) -> bool:
    return all(t * h * t.inverse() in group for t in gens for h in group.generators)


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
            if not sub.is_subgroup_of(base_group):
                raise ContainmentError("base subgroup not contained in base group")
        if not gamma.is_subgroup_of(top):
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
        self.gamma_embedded = PermGroup(self.degree, self.gamma_gens)
        self.V0_gamma = PermGroup(self.degree, v0_gens + self.gamma_gens)
        if self.big.order() != self.V.order() * top.order():
            raise RuntimeError("block realization of V ⋊ G is not faithful")
        if not _normalizes(self.gamma_gens, self.V0):
            raise InvarianceError("gamma does not leave V_0 invariant")

    # -- carriers, built on first use ------------------------------------------

    @cached_property
    def carrier_V(self) -> EnumeratedGroup:
        return EnumeratedGroup(self.V)

    @cached_property
    def carrier_big(self) -> EnumeratedGroup:
        return EnumeratedGroup(self.big)

    @cached_property
    def carrier_top(self) -> EnumeratedGroup:
        """The top group G on its own block domain (for the corner of (G, Γ))."""
        return EnumeratedGroup(self.top)

    @cached_property
    def _table_V(self) -> DoubleCosetTable:
        return DoubleCosetTable(self.V, self.V0)

    @cached_property
    def _table_top(self) -> DoubleCosetTable:
        return DoubleCosetTable(self.top, self.gamma)

    # -- corners ------------------------------------------------------------------

    def corner_basis_V(self) -> list:
        """Basis p_{V0} δ_x p_{V0} of the corner of (V, V_0)."""
        return corner_basis(self.carrier_V, self.V0, self._table_V)

    def invariant_corner_basis(self) -> list:
        """Γ-orbit sums of the corner basis: a basis of the invariant part."""
        return invariant_subalgebra(self.corner_basis_V(), self.gamma_embedded)

    def corner_basis_top(self) -> list:
        """Basis p_Γ δ_σ p_Γ of the corner of (G, Γ), on the block domain."""
        return corner_basis(self.carrier_top, self.gamma, self._table_top)

    def projector_gamma(self) -> AlgebraElement:
        return projector(self.carrier_big, self.gamma_embedded)

    def projector_V0(self) -> AlgebraElement:
        return projector(self.carrier_big, self.V0)

    def projector_V0_gamma(self) -> AlgebraElement:
        return projector(self.carrier_big, self.V0_gamma)

    def lift_from_V(self, x: AlgebraElement) -> AlgebraElement:
        """Reindex an element of C[V] as an element of C[V ⋊ G]."""
        return self._lift(x, x.carrier.images)

    def lift_from_top(self, y: AlgebraElement) -> AlgebraElement:
        """Reindex an element of C[G] through the rigid block permutations."""
        m0 = self.base_group.degree
        sigma = y.carrier.images.astype(np.intp)
        rows = (sigma[:, :, None] * m0 + np.arange(m0)).reshape(len(sigma), -1)
        return self._lift(y, rows)

    def _lift(self, x: AlgebraElement, rows) -> AlgebraElement:
        """Scatter x's numerators to the big-carrier indices of `rows`, the
        images of x's carrier elements in V ⋊ G."""
        big = self.carrier_big
        idx = big.rank(rows)

        def scatter(values):
            if values is None:
                return None
            out = np.zeros(len(big), dtype=object)
            out[idx] = values
            return out

        return AlgebraElement(big, ExactVector(x.vec.den, scatter(x.vec.re),
                                               scatter(x.vec.im)))

    def __repr__(self):
        return (f"WreathScenario({self.name or 'unnamed'}: |V|={self.V.order()}, "
                f"|V0|={self.V0.order()}, blocks={self.blocks}, "
                f"|G|={self.top.order()}, |Γ|={self.gamma.order()})")


def is_gamma_invariant(scenario: WreathScenario, x: AlgebraElement) -> bool:
    return all(x.conjugated_by(t) == x for t in scenario.gamma_gens)


def embed_invariant(scenario: WreathScenario, x: AlgebraElement) -> AlgebraElement:
    """x ↦ x·p_Γ, from the Γ-invariant corner of (V, V_0) into the big corner."""
    if x.carrier is not scenario.carrier_V:
        raise ValueError("element does not live on the scenario's V carrier")
    if not is_gamma_invariant(scenario, x):
        raise InvarianceError("element is not Γ-invariant")
    return convolve(scenario.lift_from_V(x), scenario.projector_gamma())


def embed_top(scenario: WreathScenario, y: AlgebraElement) -> AlgebraElement:
    """y ↦ p_{V0}·y, from the corner of (G, Γ) into the big corner.

    Requires all of G (not only Γ) to leave V_0 invariant.
    """
    if y.carrier is not scenario.carrier_top:
        raise ValueError("element does not live on the scenario's top carrier")
    if not _normalizes(scenario.top_gens, scenario.V0):
        raise InvarianceError("the top group does not leave V_0 invariant")
    return convolve(scenario.projector_V0(), scenario.lift_from_top(y))


def check_commutation(scenario: WreathScenario) -> bool:
    """Do the embedded G-invariant corner and the embedded top corner commute?

    Invariance under all of G is required, so the invariant part is taken
    with respect to G rather than Γ.
    """
    g_invariant = invariant_subalgebra(
        scenario.corner_basis_V(),
        PermGroup(scenario.degree, scenario.top_gens))
    images_v = [embed_invariant(scenario, x) for x in g_invariant]
    images_t = [embed_top(scenario, y) for y in scenario.corner_basis_top()]
    return all(convolve(a, b) == convolve(b, a)
               for a in images_v for b in images_t)


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


def _axiom_suite(basis, embed, star_of, trace_of, unit, image_unit,
                 big_trace, multiply):
    """Shared axiom battery for either embedding direction."""
    images = [embed(x) for x in basis]
    pairs = list(zip(basis, images))

    def norm_preserved(x, im):
        # injectivity through the faithful trace: ||im(x)||² = ||x||² > 0
        lhs = big_trace(convolve(im.star(), im))
        return lhs == trace_of(multiply(star_of(x), x)) and lhs != (Fraction(0), Fraction(0))

    return {
        "unital": embed(unit) == image_unit,
        "star": all(embed(star_of(x)) == im.star() for x, im in pairs),
        "trace": all(big_trace(im) == trace_of(x) for x, im in pairs),
        "multiplicative": all(embed(multiply(x, y)) == convolve(ix, iy)
                              for x, ix in pairs for y, iy in pairs),
        "injective": all(norm_preserved(x, im) for x, im in pairs),
    }


def scenario_report(scenario: WreathScenario) -> ScenarioReport:
    """Run the full embedding axiom suite, exactly."""
    v0_order = scenario.V0.order()
    gamma_order = scenario.gamma.order()
    big_sub_order = scenario.V0_gamma.order()

    inv_basis = scenario.invariant_corner_basis()
    p_v0 = projector(scenario.carrier_V, scenario.V0)
    inv_axioms = _axiom_suite(
        inv_basis,
        lambda x: embed_invariant(scenario, x),
        star_of=lambda x: x.star(),
        trace_of=lambda x: corner_trace(x, v0_order),
        unit=p_v0,
        image_unit=scenario.projector_V0_gamma(),
        big_trace=lambda y: corner_trace(y, big_sub_order),
        multiply=convolve,
    )

    top_basis = scenario.corner_basis_top()
    top_axioms = _axiom_suite(
        top_basis,
        lambda y: embed_top(scenario, y),
        star_of=lambda y: y.star(),
        trace_of=lambda y: corner_trace(y, gamma_order),
        unit=projector(scenario.carrier_top, scenario.gamma),
        image_unit=scenario.projector_V0_gamma(),
        big_trace=lambda y: corner_trace(y, big_sub_order),
        multiply=convolve,
    )

    return ScenarioReport(
        scenario=scenario.name,
        invariant_axioms=inv_axioms,
        top_axioms=top_axioms,
        commutation=check_commutation(scenario),
    )


def hecke_image(embedded: AlgebraElement, pair: HeckePair) -> HeckeElement:
    """Expand a bi-invariant element of the big algebra in an ambient Hecke basis.

    The ambient pair's group must contain the support; the element must be
    constant on each double coset it meets and cover it entirely (that is
    exactly bi-invariance plus extension by zero).  Coefficients carry the
    canonical corner normalization e_D = |H| · (value on D), under which the
    expansion is an algebra isomorphism onto its image.
    """
    values = [Fraction(0)] * pair.dim
    values_im = [Fraction(0)] * pair.dim
    counts = [0] * pair.dim
    support = embedded.vec.support()
    classes = pair.class_of_coset[pair.cosets.cosets_of(embedded.carrier.images[support])]
    for i, cls in zip(support, classes.tolist()):
        re, im = embedded.vec.coeff(i)
        if counts[cls] == 0:
            values[cls], values_im[cls] = re, im
        elif (values[cls], values_im[cls]) != (re, im):
            raise ValueError("element is not constant on a double coset")
        counts[cls] += 1
    for cls, c in enumerate(counts):
        if c and c != pair.table.entries[cls].size:
            raise ValueError("support covers a double coset only partially")
    h_order = pair.subgroup.order()
    return pair.element_from_fractions(
        [(re * h_order, im * h_order) for re, im in zip(values, values_im)])


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
