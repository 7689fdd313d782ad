"""The array kernels against the slow paths they replaced.

`HeckePair` derives its λ-cell table and structure constants from the right
action of G's generators on H\\G; `oracles.dense_cell_table` and
`oracles.lambda_structure_constants` are the per-cell slow paths.  The coset
space, its action and tree, the double-coset classes, R-indices and minimal
double-coset elements come from whole-array orbits in `permgroup`;
`oracles.coset_enumeration`, `oracles.double_coset_classes`,
`oracles.r_index` and `oracles.min_in_double_coset` walk them one coset at
a time.  Both must agree exactly.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from heckelab import hecke
from heckelab.errors import ScaleError
from heckelab.hecke import HeckePair, PairSpec, corner_isomorphism_check
from heckelab.permgroup import (DoubleCosetTable, PermGroup, Permutation, r_index,
                                symmetric_group)
from heckelab.treefam import LEVEL_POINT_CAP, TreeShape, ball_aut_group, closed_form_order

import oracles


def assert_kernel_matches_oracle(pair):
    cell = oracles.dense_cell_table(pair)
    assert pair.cell_class.dtype == np.int32
    assert np.array_equal(pair.cell_class, cell)
    struct = pair.structure_constants()
    assert struct.dtype == np.int64
    assert np.array_equal(struct, oracles.lambda_structure_constants(pair, cell))
    report = pair.is_commutative()
    assert (report.commutative, report.witness, report.entry) == \
        oracles.dense_gelfand_report(pair, cell)


@pytest.mark.parametrize("name", ["s4_d4_pair", "s3_s2_pair", "flagship_pair"])
def test_fixtures(name, request):
    assert_kernel_matches_oracle(request.getfixturevalue(name))


@pytest.mark.parametrize("make, size", [
    (lambda: PairSpec.level(2, 4, 2).pair(), 105),
    (lambda: PairSpec.depth(3, 2).pair(), 280),
])
def test_level_pairs(make, size):
    pair = make()
    assert pair.size == size
    assert_kernel_matches_oracle(pair)


def test_structure_constants_are_lazy_and_cell_table_on_demand():
    pair = PairSpec.depth(2, 2).pair()
    assert "cell_class" not in vars(pair)
    pair.structure_constants()
    assert "cell_class" not in vars(pair)
    assert pair.basis_matrix(0).trace() == pair.size


def test_gelfand_entry_needs_no_lambda_matrix():
    pair = PairSpec.depth(2, 3).pair()
    report = pair.is_commutative()
    assert (report.witness, report.entry) == ((1, 4), (0, 28, -1))
    assert "cell_class" not in vars(pair)


def test_lambda_matrices_refused_above_cap(monkeypatch):
    monkeypatch.setattr(hecke, "LAMBDA_CAP", 2)
    pair = PairSpec.depth(2, 2).pair()
    with pytest.raises(ScaleError, match="above cap 2"):
        pair.cell_class
    with pytest.raises(ScaleError):
        pair.basis_matrix(0)
    # structure constants and the Gelfand test need no λ-matrix
    assert pair.structure_constants().shape == (pair.dim,) * 3
    assert pair.is_commutative().commutative
    monkeypatch.setattr(hecke, "LAMBDA_CAP", pair.size)
    assert pair.cell_class.shape == (pair.size, pair.size)


def test_translations_are_right_translations(flagship_pair):
    cosets = flagship_pair.cosets
    H = flagship_pair.subgroup
    reps = [Permutation(r) for r in cosets.rows.tolist()]
    seen = []
    for j, R in cosets.translations():
        seen.append(j)
        # H·r_i·w_j⁻¹ and H·r_i·r_j⁻¹ lie in one double coset
        for i in (0, 1, j, len(cosets) - 1):
            assert flagship_pair.class_of_coset[R[i]] == flagship_pair.class_of_coset[
                cosets.coset_of(reps[i] * reps[j].inverse())]
        assert sorted(R.tolist()) == list(range(len(cosets)))
    assert sorted(seen) == list(range(len(cosets)))
    assert H.order() * len(cosets) == flagship_pair.group.order()


def test_action_arrays(flagship_pair):
    cosets = flagship_pair.cosets
    gens = flagship_pair.group.generators
    assert cosets.action.shape == (len(gens), len(cosets))
    for s, g in enumerate(gens):
        for i in range(0, len(cosets), 7):
            assert cosets.action[s, i] == cosets.coset_of(Permutation(cosets.rows[i].tolist()) * g)
    for j in range(1, len(cosets)):
        parent, s = cosets.tree_parent[j], cosets.tree_generator[j]
        assert cosets.action[s, parent] == j


def test_bi_invariance_failure_still_raises(s4_d4_pair):
    # a partition of the cosets that is not the double-coset partition
    pair = HeckePair(s4_d4_pair.group, s4_d4_pair.subgroup)
    pair.class_of_coset = np.array([1, 0, 1], dtype=np.int32)
    with pytest.raises(AssertionError, match="not bi-invariant"):
        pair.structure_constants()
    with pytest.raises(AssertionError, match="not bi-invariant"):
        oracles.lambda_structure_constants(pair, oracles.dense_cell_table(pair))


@st.composite
def small_pairs(draw):
    """A random group G of degree <= 6 and a subgroup H generated by
    random elements of G."""
    m = draw(st.integers(2, 6))
    perm = st.permutations(list(range(m))).map(Permutation)
    G = PermGroup(m, draw(st.lists(perm, min_size=1, max_size=2)))
    # the group-algebra oracle enumerates G and multiplies in it exactly
    assume(G.order() <= 120)
    words = draw(st.lists(st.lists(st.integers(0, len(G.generators) - 1),
                                   min_size=1, max_size=6), max_size=2))
    h_gens = []
    for word in words:
        h = Permutation.identity(m)
        for s in word:
            h = h * G.generators[s]
        h_gens.append(h)
    return G, PermGroup(m, h_gens)


@settings(max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_pairs())
def test_random_small_pairs(gh):
    G, H = gh
    pair = HeckePair(G, H)
    assert_kernel_matches_oracle(pair)
    ok, detail = corner_isomorphism_check(pair)
    assert ok, detail


@st.composite
def symmetric_over_cyclic(draw):
    """(S_m, ⟨g⟩) for m in {4, 5}: mostly noncommutative, unlike the pairs
    of `small_pairs`."""
    m = draw(st.integers(4, 5))
    g = draw(st.permutations(list(range(m))).map(Permutation))
    return symmetric_group(m), PermGroup(m, [g])


@settings(max_examples=25, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(symmetric_over_cyclic())
def test_gelfand_entry_matches_dense_commutator(gh):
    pair = HeckePair(*gh)
    report = pair.is_commutative()
    assert (report.commutative, report.witness, report.entry) == \
        oracles.dense_gelfand_report(pair, oracles.dense_cell_table(pair))


# -- the whole-array coset kernel against the scalar paths it replaced ---------------

def assert_cosets_match_oracle(G, H):
    table = DoubleCosetTable(G, H)
    cosets = table.cosets
    reps, action, parent, generator = oracles.coset_enumeration(G, H)
    assert [tuple(r) for r in cosets.rows.tolist()] == reps
    for got, want in ((cosets.action, action), (cosets.tree_parent, parent),
                      (cosets.tree_generator, generator)):
        assert got.dtype == np.int32 and np.array_equal(got, want)
    blocks, class_of, inverse = oracles.double_coset_classes(H, reps)
    assert [tuple(np.flatnonzero(table.class_of_coset == d).tolist())
            for d in range(len(table))] == blocks
    assert [tuple(r) for r in table.representatives.tolist()] == [reps[b[0]] for b in blocks]
    assert tuple(table.class_of_coset.tolist()) == class_of
    assert tuple(table.inverse_class.tolist()) == inverse
    for rep, r_got, size in zip(table.representatives.tolist(), table.r_index.tolist(),
                                table.sizes):
        r = oracles.r_index(tuple(rep), H)
        assert r_got == r_index(Permutation(rep), H) == r
        assert size == H.order() * r
    assert table.r_index[table.inverse_class].tolist() == \
        [table.r_index[c] for c in inverse]


def tree_pairs(max_cosets):
    """(d, k, n) of every level pair (S_{|V_n|}, P_n) inside the point cap
    with 1 < |H\\G| <= max_cosets."""
    pairs = []
    for d in range(2, LEVEL_POINT_CAP + 1):
        for k in range(2, LEVEL_POINT_CAP + 1):
            shape, n = TreeShape(d, k), 2
            while shape.level_size(n) <= LEVEL_POINT_CAP:
                cosets = math.factorial(shape.level_size(n)) // closed_form_order(shape, n)
                if 1 < cosets <= max_cosets:
                    pairs.append((d, k, n))
                n += 1
    return pairs


@pytest.mark.parametrize("d, k, n", tree_pairs(945))
def test_tree_pairs_match_the_scalar_cosets(d, k, n):
    spec = PairSpec.level(d, k, n)
    assert_cosets_match_oracle(symmetric_group(spec.points), spec.subgroup())


@settings(max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_pairs())
def test_random_small_pairs_match_the_scalar_cosets(gh):
    assert_cosets_match_oracle(*gh)


@pytest.mark.parametrize("d, k, n", [(2, 2, 3), (2, 3, 2), (3, 2, 2)])
def test_min_in_double_coset_matches_the_scalar_orbit(d, k, n):
    H = ball_aut_group(TreeShape(d, k), n)
    rng = random.Random(f"{d}{k}{n}")
    for _ in range(100):
        images = list(range(H.degree))
        rng.shuffle(images)
        x = Permutation(images)
        assert H.min_in_double_coset(x).images == oracles.min_in_double_coset(H, x.images)
        assert r_index(x, H) == oracles.r_index(x.images, H)
