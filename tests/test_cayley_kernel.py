"""The permutation-ranking kernel of the group-algebra oracle against the
per-element slow paths it replaced.

`EnumeratedGroup` composes whole arrays of permutation rows and ranks them
by their byte keys; `oracles.cayley_table_by_pairs`,
`oracles.inverse_index_by_dict` and `oracles.conjugation_index_by_dict`
multiply image tuples one pair at a time.
Both must agree exactly.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from heckelab._exactvec import ExactVector
from heckelab.embed import SCENARIOS, block_element, block_permutation
from heckelab.errors import ContainmentError
from heckelab.permgroup import PermGroup, Permutation, symmetric_group

from groupalg import AlgebraElement, EnumeratedGroup, convolve
import oracles
from conftest import examples


def _indexed(carrier):
    # distinct coefficients, so a reindexing is read off the result exactly
    re = np.arange(1, len(carrier) + 1, dtype=np.int64).astype(object)
    return AlgebraElement(carrier, ExactVector(1, re, reduce_terms=False))


def assert_kernel_matches_oracle(carrier, conjugators=()):
    assert carrier.elements == tuple(sorted(carrier.group.elements()))
    assert [tuple(r) for r in carrier.images.tolist()] == \
        [p.images for p in carrier.elements]
    table = carrier.table()
    assert table.dtype == np.int32
    assert np.array_equal(table, oracles.cayley_table_by_pairs(carrier))
    assert carrier.inverse_index.dtype == np.int32
    assert np.array_equal(carrier.inverse_index, oracles.inverse_index_by_dict(carrier))
    f = _indexed(carrier)
    for a in list(carrier.group.generators) + list(conjugators):
        expected = oracles.conjugation_index_by_dict(carrier, a)
        if expected is None:
            with pytest.raises(ContainmentError):
                f.conjugated_by(a)
        else:
            assert f.conjugated_by(a).vec.re.tolist() == f.vec.re[expected].tolist()


# the groups the wreath-embedding oracle enumerates, for each pinned scenario
CARRIER_GROUPS = {"carrier_V": lambda s: s.V, "carrier_big": lambda s: s.big,
                  "carrier_top": lambda s: s.top}
SCENARIO_CARRIERS = [(name, which) for name in SCENARIOS for which in CARRIER_GROUPS]


@pytest.fixture(scope="module")
def scenarios():
    return {name: make() for name, make in SCENARIOS.items()}


@pytest.mark.parametrize("name, which", SCENARIO_CARRIERS)
def test_scenario_carriers(scenarios, name, which):
    scenario = scenarios[name]
    # the oracle conjugates V by the embedded top group
    conjugators = scenario.top_gens if which == "carrier_V" else ()
    assert_kernel_matches_oracle(EnumeratedGroup(CARRIER_GROUPS[which](scenario)),
                                 conjugators)


def test_degree_sixteen_group():
    # eight blocks of S_2: 256 elements whose rows are 16 points long
    swap = Permutation([1, 0])
    G = PermGroup(16, [block_element(i, swap, 8) for i in range(8)])
    carrier = EnumeratedGroup(G)
    assert carrier.order == 256
    shift = block_permutation(Permutation.from_cycles(8, list(range(8))), 2)
    outside = Permutation.from_cycles(16, [0, 2])
    assert_kernel_matches_oracle(carrier, [shift, outside])


def test_rank_rejects_rows_outside_the_group():
    carrier = EnumeratedGroup(PermGroup(4, [Permutation.from_cycles(4, [0, 1, 2, 3])]))
    assert carrier.rank(carrier.images[::-1]).tolist() == list(range(3, -1, -1))
    with pytest.raises(ContainmentError):
        carrier.rank(np.array([[1, 0, 2, 3]]))
    with pytest.raises(ContainmentError):
        carrier.rank(np.array([[0, 1, 2]]))
    with pytest.raises(ContainmentError):
        carrier.index_of(Permutation([3, 2, 1, 0]))


@st.composite
def small_groups(draw):
    m = draw(st.integers(1, 6))
    perm = st.permutations(list(range(m))).map(Permutation)
    G = PermGroup(m, draw(st.lists(perm, min_size=1, max_size=3)))
    assume(G.order() <= 120)
    return G, draw(st.lists(perm, max_size=2))


@settings(max_examples=examples(40), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_groups())
def test_random_small_groups(group_and_conjugators):
    G, conjugators = group_and_conjugators
    assert_kernel_matches_oracle(EnumeratedGroup(G), conjugators)


def _random_support_element(carrier, rng, size):
    coeffs = {}
    for i in rng.sample(range(len(carrier)), size):
        coeffs[carrier.elements[i]] = (Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)),
                                       Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)))
    return oracles.algebra_element(carrier, coeffs)


@pytest.mark.parametrize("group", [symmetric_group(4), SCENARIOS["s4-squared"]().V])
def test_convolve_above_table_cap_matches_table(group):
    # `convolve` ranks products at every order; the oracle gathers each
    # product p_i·p_j from the full Cayley table and sums Fractions
    carrier = EnumeratedGroup(group)
    table = carrier.table()
    rng = random.Random(len(carrier))
    sizes = range(1, min(len(carrier), 40))
    for _ in range(12):
        f = _random_support_element(carrier, rng, rng.choice(sizes))
        g = _random_support_element(carrier, rng, rng.choice(sizes))
        values = [(Fraction(0), Fraction(0))] * len(carrier)
        for i in f.vec.support():
            a, b = f.vec.coeff(i)
            for j in g.vec.support():
                c, d = g.vec.coeff(j)
                re, im = values[table[i, j]]
                values[table[i, j]] = (re + a * c - b * d, im + a * d + b * c)
        assert convolve(f, g) == AlgebraElement(carrier, ExactVector.from_fractions(values))
