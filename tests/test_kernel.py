"""The array kernels against the slow paths they replaced.

`HeckePair` derives its λ-cell table from the right action of G's and H's
generators on H\\G, row by row along the tree of the walk that enumerated
the cosets, and its structure constants from one row of that table per
double coset, gathered along the same tree; `oracles.dense_cell_table` and
`oracles.lambda_structure_constants` are the per-cell slow paths,
`oracles.all_rows_structure_constants` counts every row of the table along
a tree of its own, and `oracles.per_class_structure_constants` counts one
row per class by canonicalising every coset row again.  Exact products
read the int64 constants directly; `oracles.convolve_by_blocks` sums them
block by block on an object copy.  The coset
space, its action, the double-coset classes, R-indices and minimal
double-coset elements come from whole-array orbits in `permgroup`;
`oracles.coset_enumeration`, `oracles.double_coset_classes`,
`oracles.r_index` and `oracles.min_in_double_coset` walk them one coset at
a time, and `oracles.action_by_ranking` ranks the canonical image of every
coset row under each generator.  Both must agree exactly.
`min_in_double_coset` keys its memo by one row canonicalised on tuples, the
canonical row itself; `oracles.canonical_row_by_array` is the numpy descent
it replaced.
"""

import functools
import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from heckelab import hecke
from heckelab.embed import SCENARIOS
from heckelab.errors import ScaleError
from heckelab.hecke import HeckePair, PairSpec
from heckelab.permgroup import (ROW, DoubleCosetTable, PermGroup, Permutation, r_index,
                                symmetric_group)
from heckelab.treefam import LEVEL_POINT_CAP, TreeShape, ball_aut_group, closed_form_order

from groupalg import corner_isomorphism_check
import oracles
from conftest import BALL_SHAPES, examples


def assert_walk_tree(cosets):
    """`walk` orders the cosets from the root 0, and every other coset is
    the image of its parent, found earlier, under its move."""
    position = np.empty(len(cosets), dtype=np.int64)
    position[cosets.walk] = np.arange(len(cosets))
    assert sorted(cosets.walk.tolist()) == list(range(len(cosets)))
    assert cosets.walk[0] == cosets.parent[0] == cosets.move[0] == 0
    rest = cosets.walk[1:]
    assert np.array_equal(cosets.action[cosets.move[rest], cosets.parent[rest]], rest)
    assert (position[cosets.parent[rest]] < position[rest]).all()


def assert_kernel_matches_oracle(pair):
    assert_walk_tree(pair.cosets)
    # G's generators, then H's: one walk numbers the images of both
    G_rows, H_rows = pair.group.generator_rows, pair.subgroup.generator_rows
    assert np.array_equal(pair.cosets.action, oracles.action_by_ranking(
        pair.cosets, np.concatenate([G_rows, H_rows])))
    assert np.array_equal(pair.table.subgroup_action,
                          oracles.action_by_ranking(pair.cosets, H_rows))
    cell = oracles.dense_cell_table(pair)
    assert pair.cell_class.dtype == np.int32
    assert np.array_equal(pair.cell_class, cell)
    struct = pair.structure_constants()
    assert struct.dtype == np.int64
    assert np.array_equal(struct, oracles.lambda_structure_constants(pair, cell))
    assert np.array_equal(struct, oracles.all_rows_structure_constants(pair))
    assert np.array_equal(struct, oracles.per_class_structure_constants(pair))
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


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_wreath_pairs(name):
    # G = V⋊G_top has 3 to 5 generators, so the walk's tree moves by
    # several action arrays
    scenario = SCENARIOS[name]()
    pair = HeckePair(scenario.big, scenario.V0_gamma)
    assert len(pair.group.generators) >= 3
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
    # cell[i, j] is the class of H·r_i·r_j⁻¹, sampled on every column
    cosets = flagship_pair.cosets
    H = flagship_pair.subgroup
    cell = flagship_pair.cell_class
    reps = [Permutation(r) for r in cosets.rows.tolist()]
    for j in range(len(cosets)):
        for i in (0, 1, j, len(cosets) - 1):
            coset = cosets.cosets_of([(reps[i] * reps[j].inverse()).images])[0]
            assert cell[i, j] == flagship_pair.class_of_coset[coset]
    assert H.order() * len(cosets) == flagship_pair.group.order()


def test_action_arrays(flagship_pair):
    # the rows of G's generators, then those of H's
    cosets = flagship_pair.cosets
    gens = flagship_pair.group.generators + flagship_pair.subgroup.generators
    assert cosets.action.shape == (len(gens), len(cosets))
    assert np.array_equal(flagship_pair.table.subgroup_action,
                          cosets.action[len(flagship_pair.group.generators):])
    for s, g in enumerate(gens):
        for i in range(0, len(cosets), 7):
            image = Permutation(cosets.rows[i].tolist()) * g
            assert cosets.action[s, i] == cosets.cosets_of([image.images])[0]


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


@settings(max_examples=examples(40), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_pairs())
def test_random_small_pairs(gh):
    G, H = gh
    pair = HeckePair(G, H)
    assert_kernel_matches_oracle(pair)
    ok, detail = corner_isomorphism_check(pair)
    assert ok, detail


@pytest.mark.parametrize("span", [3, 2 ** 70], ids=["span-3", "span-2^70"])
@pytest.mark.parametrize("name", ["flagship", *SCENARIOS])
def test_convolve_matches_block_loop(flagship_pair, name, span):
    # coefficients past 2^63 show that no sum is taken in int64
    pair = flagship_pair if name == "flagship" else SCENARIOS[name]().pair_big
    rng = np.random.default_rng(11)
    for _ in range(3):
        f = oracles.random_exact_element(pair, rng, span)
        g = oracles.random_exact_element(pair, rng, span)
        assert hecke.convolve(f, g) == oracles.convolve_by_blocks(f, g)
    for j in (0, pair.dim - 1):
        basis = pair.basis_element(j)
        assert hecke.convolve(basis, f) == oracles.convolve_by_blocks(basis, f)
        assert hecke.convolve(f, basis) == oracles.convolve_by_blocks(f, basis)


def test_pair_keeps_no_object_arrays(flagship_pair):
    # the structure constants are held once, as int64
    flagship_pair.structure_constants()
    assert not [name for name, value in vars(flagship_pair).items()
                if isinstance(value, np.ndarray) and value.dtype == object]


def test_structure_constants_need_no_cell_table(monkeypatch):
    def no_cell_table(self):
        raise AssertionError("the λ-cell table was built")

    monkeypatch.setattr(HeckePair, "cell_class", property(no_cell_table))
    pair = PairSpec.depth(2, 3).pair()
    assert pair.structure_constants().shape == (16, 16, 16)
    assert not pair.is_commutative().commutative


def test_nothing_is_canonicalised_once_the_pair_is_built(monkeypatch):
    # the constants, the Gelfand test and the cell table are gathers along
    # the walk's tree; only the double-coset table canonicalises rows
    pair = PairSpec.depth(2, 3).pair()
    cell = oracles.dense_cell_table(pair)
    struct = oracles.per_class_structure_constants(pair)

    def refuse(self, rows):
        raise AssertionError("a coset row was canonicalised")

    monkeypatch.setattr(PermGroup, "canonical_rows", refuse)
    assert np.array_equal(pair.structure_constants(), struct)
    assert not pair.is_commutative().commutative
    assert np.array_equal(pair.cell_class, cell)


def test_walk_tree_and_constants_past_the_dense_oracles():
    # (S_18, P_2), 24,310 cosets: too many for the dense and all-rows oracles
    pair = PairSpec.level(9, 2, 2).pair()
    assert pair.size == 24310
    assert_walk_tree(pair.cosets)
    assert np.array_equal(pair.structure_constants(),
                          oracles.per_class_structure_constants(pair))


def test_walk_tree_without_generators():
    # a generator-less G: one coset, the root, and no action array
    pair = HeckePair(PermGroup(3, []), PermGroup(3, []))
    assert pair.cosets.action.shape == (0, 1)
    assert_walk_tree(pair.cosets)
    assert pair.cell_class.tolist() == [[0]]
    assert pair.structure_constants().tolist() == [[[1]]]


@st.composite
def symmetric_over_cyclic(draw):
    """(S_m, ⟨g⟩) for m in {4, 5}: mostly noncommutative, unlike the pairs
    of `small_pairs`."""
    m = draw(st.integers(4, 5))
    g = draw(st.permutations(list(range(m))).map(Permutation))
    return symmetric_group(m), PermGroup(m, [g])


@settings(max_examples=examples(25), deadline=None,
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
    reps, action = oracles.coset_enumeration(G, H)
    assert [tuple(r) for r in cosets.rows.tolist()] == reps
    assert cosets.action.dtype == np.int32
    assert np.array_equal(cosets.action[:len(G.generators)], action)
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


@settings(max_examples=examples(40), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_pairs())
def test_random_small_pairs_match_the_scalar_cosets(gh):
    assert_cosets_match_oracle(*gh)


@pytest.mark.parametrize("d, k, n", tree_pairs(10395))
def test_tree_pairs_match_the_all_rows_count(d, k, n):
    pair = PairSpec.level(d, k, n).pair()
    assert np.array_equal(pair.structure_constants(),
                          oracles.all_rows_structure_constants(pair))


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


@functools.cache
def ball_group(d, k, n):
    return ball_aut_group(TreeShape(d, k), n)


@settings(max_examples=examples(100), deadline=None)
@given(st.sampled_from(BALL_SHAPES), st.randoms(use_true_random=False))
def test_single_row_descent_matches_the_array_descent(shape, rng):
    # the canonical row of H·x, and of H·h·x for some h in H: one right coset
    H = ball_group(*shape)
    x = tuple(rng.sample(range(H.degree), H.degree))
    key = oracles.canonical_row_by_array(H, x)
    assert H._canonical_images(x) == key
    h = oracles.sample(H, rng)
    assert H._canonical_images(oracles.mul(h.images, x)) == key


@pytest.mark.parametrize("d, k, n", [(2, 2, 3), (2, 3, 2), (3, 2, 2)])
def test_min_in_double_coset_is_the_table_representative(d, k, n):
    # the key of every coset is its Hecke basis representative, whether the
    # group has walked its double coset before (warm) or not (fresh)
    shape = TreeShape(d, k)
    warm = ball_aut_group(shape, n)
    table = DoubleCosetTable(symmetric_group(warm.degree), warm)
    for row, d_class in zip(table.cosets.rows.tolist(), table.class_of_coset.tolist()):
        rep = tuple(table.representatives[d_class].tolist())
        assert warm.min_in_double_coset(Permutation(row)).images == rep
        assert ball_aut_group(shape, n).min_in_double_coset(Permutation(row)).images == rep


@pytest.mark.parametrize("d, k, n", [(2, 2, 3), (2, 3, 2), (3, 2, 2)])
def test_min_in_double_coset_walks_each_double_coset_once(d, k, n, monkeypatch):
    H = ball_aut_group(TreeShape(d, k), n)
    elements = H.elements()
    rng = random.Random(f"memo{d}{k}{n}")
    images = list(range(H.degree))
    rng.shuffle(images)
    x = Permutation(images)
    least = H.min_in_double_coset(x)

    def refuse(*args):
        raise AssertionError("an orbit was walked again")

    monkeypatch.setattr(PermGroup, "coset_orbit", refuse)
    for _ in range(50):
        h1, h2 = rng.choice(elements), rng.choice(elements)
        assert H.min_in_double_coset(h1 * x * h2) == least


@pytest.mark.parametrize("d, k, n", [(2, 2, 3), (2, 3, 2), (3, 2, 2)])
def test_min_in_double_coset_memo_holds_canonical_rows(d, k, n):
    # every key is a canonical row, and every walk files the least of its
    # own keys under each of them
    H = ball_aut_group(TreeShape(d, k), n)
    rng = random.Random(f"keys{d}{k}{n}")
    for _ in range(4):
        H.min_in_double_coset(Permutation(rng.sample(range(H.degree), H.degree)))
    walks = {}
    for key, least in H._double_coset_min.items():
        assert H._canonical_images(key) == key
        walks.setdefault(least.images, []).append(key)
    assert all(least == min(keys) for least, keys in walks.items())


@pytest.mark.parametrize("which", ["flagship", "s4-squared"])
def test_row_arrays_are_big_endian(which, flagship_pair):
    # the bytes of every row array sort like its image tuples
    pair = flagship_pair if which == "flagship" else SCENARIOS[which]().pair_big
    G, H = pair.group, pair.subgroup
    assert H.coset_orbit(np.arange(G.degree), G.generator_rows)[0].dtype == ROW
    assert pair.cosets.rows.dtype == ROW
    assert pair.table.representatives.dtype == ROW
