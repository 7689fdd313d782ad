import math
import random
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from heckelab import permgroup
from heckelab.errors import ContainmentError, MalformedPermutationError, ScaleError
from heckelab.permgroup import (CosetIndex, DoubleCosetTable, PermGroup,
                                Permutation, dihedral_square, r_index,
                                symmetric_group, trivial_group)
from heckelab.embed import SCENARIOS
from heckelab.treefam import TreeShape, ball_aut_group, q_group, wreath_group

import oracles
from conftest import examples


def test_permutation_rejects_non_bijections():
    with pytest.raises(MalformedPermutationError):
        Permutation([0, 0, 1])
    with pytest.raises(MalformedPermutationError):
        Permutation([0, 2])


def test_permutation_arithmetic():
    rng = random.Random(3)
    s5 = symmetric_group(5)
    e = Permutation.identity(5)
    for _ in range(50):
        p, q, r = (oracles.sample(s5, rng) for _ in range(3))
        assert (p * q) * r == p * (q * r)
        assert p * p.inverse() == e
        assert p.inverse() * p == e
        assert (p * q).inverse() == q.inverse() * p.inverse()
        assert (p * q)(0) == q(p(0))


def test_build_chain_s4():
    g = PermGroup(4, [[1, 0, 2, 3], [1, 2, 3, 0]])
    assert g.order() == 24


def test_build_chain_q3_matches_exhaustive_count():
    g = q_group(2, 3)
    assert g.order() == 128
    assert len({p.images for p in g.elements()}) == 128


def test_build_chain_empty_generators():
    assert PermGroup(5, []).order() == 1


def test_chain_order_equals_mulclose_on_catalog():
    catalog = [symmetric_group(4), symmetric_group(5), symmetric_group(6),
               dihedral_square(), q_group(2, 2), q_group(2, 3), q_group(3, 2)]
    for group in catalog:
        assert group.order() <= 10_000
        closure = oracles.mulclose([g.images for g in group.generators])
        assert group.order() == len(closure)
        assert {p.images for p in group.elements()} == closure


def test_membership_agrees_with_exhaustive_search():
    rng = random.Random(9)
    H = dihedral_square()
    members = {p.images for p in H.elements()}
    s4 = symmetric_group(4)
    for _ in range(100):
        p = oracles.sample(s4, rng)
        assert (p in H) == (p.images in members)


def test_sampling_covers_the_group():
    rng = random.Random(1)
    H = dihedral_square()
    counts = {}
    for _ in range(2000):
        p = oracles.sample(H, rng)
        assert p in H
        counts[p.images] = counts.get(p.images, 0) + 1
    assert len(counts) == 8
    assert min(counts.values()) > 2000 / 8 / 2


def assert_chain_matches_closure(G, rng):
    """G's chain against the fixed-point closure of the same generators:
    orbit sets, order, membership, canonical rows and (up to order 5040)
    the element set."""
    m = G.degree
    orbits, order = oracles.closure_chain(m, [g.images for g in G.generators])
    assert [set(orbit) for orbit in G._transversals] == [set(o) for o in orbits]
    assert G.order() == order
    for _ in range(20):
        p = oracles.sample(G, rng)
        assert p in G and oracles.chain_contains(orbits, p.images)
    # products of generators are members whatever either chain holds
    word = Permutation.identity(m)
    for g in rng.choices(G.generators + (word,), k=20):
        word = word * g
        assert word in G and oracles.chain_contains(orbits, word.images)
    rows = np.array([rng.sample(range(m), m) for _ in range(20)])
    levels = [(base, orbit) for base, orbit in enumerate(orbits) if len(orbit) > 1]
    assert G.canonical_rows(rows).tolist() == [
        list(oracles.min_coset_images(levels, row)) for row in rows.tolist()]
    if order <= 5040:
        assert {p.images for p in G.elements()} == oracles.mulclose(
            [g.images for g in G.generators]) | {tuple(range(m))}


#: (d, k, n) of the ball groups P_n on 8 to 64 level points
BALL_SHAPES = [(2, 2, 3), (2, 4, 2), (3, 3, 2), (4, 2, 2), (2, 3, 3), (6, 2, 2),
               (2, 2, 4), (4, 4, 2), (8, 2, 2), (3, 2, 3), (10, 2, 2), (2, 3, 4),
               (3, 3, 3), (2, 2, 5), (4, 2, 3), (3, 2, 4), (2, 2, 6), (8, 8, 2)]


@pytest.mark.parametrize("d, k, n", BALL_SHAPES)
def test_ball_group_chain_matches_closure(d, k, n):
    assert_chain_matches_closure(ball_aut_group(TreeShape(d, k), n), random.Random(d * k * n))


def test_scenario_and_wreath_chains_match_closure():
    rng = random.Random(7)
    for build in SCENARIOS.values():
        s = build()
        for G in (s.base_group, *s.base_subgroups, s.top, s.gamma, s.V, s.V0, s.big,
                  PermGroup(s.degree, s.gamma_gens), s.V0_gamma):
            assert_chain_matches_closure(G, rng)
    assert_chain_matches_closure(wreath_group(TreeShape(2, 2), 3, 2), rng)


@settings(max_examples=examples(60), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 9).flatmap(
    lambda m: st.lists(st.permutations(range(m)), min_size=1, max_size=4)))
def test_random_generators_chain_matches_closure(gens):
    assert_chain_matches_closure(PermGroup(len(gens[0]), gens), random.Random(0))


@pytest.mark.parametrize("m", range(1, 13))
def test_symmetric_group_chain_matches_schreier_sims(m):
    # the closure of the same generators, and the closed form: level i has
    # orbit {i..m-1}
    G = symmetric_group(m)
    assert G.order() == math.factorial(m)
    assert [set(orbit) for orbit in G._transversals] == [set(range(i, m)) for i in range(m)]
    rng = random.Random(m)
    assert_chain_matches_closure(G, rng)
    identity = tuple(range(m))
    for _ in range(30):
        p = Permutation(rng.sample(range(m), m))
        # every permutation is a member and strips down to the identity
        assert G._sift_images(p.images) == (identity, m)


def test_chain_build_does_not_recurse():
    # a recursive Schreier–Sims nests one call per orbit point of the cycle;
    # the build must not raise the recursion limit either
    limit = sys.getrecursionlimit()
    assert PermGroup(1000, [list(range(1, 1000)) + [0]]).order() == 1000
    assert symmetric_group(20).order() == math.factorial(20)
    assert sys.getrecursionlimit() == limit


class TestCosetIndex:
    def test_s4_d4(self):
        ci = CosetIndex(symmetric_group(4), dihedral_square())
        assert len(ci) == 3
        assert ci.rows[0].tolist() == list(range(4))

    def test_group_against_itself(self):
        g = symmetric_group(4)
        ci = CosetIndex(g, g)
        assert len(ci) == 1
        assert ci.rows[0].tolist() == list(range(4))

    def test_flagship_index(self):
        ci = CosetIndex(symmetric_group(8), q_group(2, 3))
        assert len(ci) == 315

    def test_each_element_maps_to_exactly_one_coset(self):
        G = symmetric_group(4)
        H = dihedral_square()
        ci = CosetIndex(G, H)
        oracle = {frozenset(c): None for c in
                  oracles.right_cosets([p.images for p in G.elements()],
                                       [p.images for p in H.elements()])}
        assert len(oracle) == 3
        buckets = [set() for _ in range(len(ci))]
        for p in G.elements():
            buckets[ci.cosets_of([p.images])[0]].add(p.images)
        assert {frozenset(b) for b in buckets} == set(oracle)

    def test_not_a_subgroup(self):
        s3_in_4 = PermGroup(4, [Permutation.from_cycles(4, (0, 1, 2))])
        with pytest.raises(ContainmentError):
            CosetIndex(s3_in_4, symmetric_group(4))

    def test_scale_cap(self):
        with pytest.raises(ScaleError):
            CosetIndex(symmetric_group(10), trivial_group(10))


class TestDoubleCosets:
    def test_s4_d4_against_set_multiplication(self):
        G = symmetric_group(4)
        H = dihedral_square()
        table = DoubleCosetTable(G, H)
        oracle = oracles.double_cosets([p.images for p in G.elements()],
                                       [p.images for p in H.elements()])
        assert sorted(len(c) for c in oracle) == [8, 16]
        assert table.sizes == [8, 16]
        got = [frozenset(oracles.double_coset_of(tuple(rep),
                                                 [p.images for p in H.elements()]))
               for rep in table.representatives.tolist()]
        assert set(got) == oracle

    def test_group_against_itself(self):
        g = symmetric_group(4)
        table = DoubleCosetTable(g, g)
        assert len(table) == 1
        assert table.sizes[0] == 24

    def test_flagship_sizes_sum(self):
        table = DoubleCosetTable(symmetric_group(8), q_group(2, 3))
        assert sum(table.sizes) == 40320
        assert len(table) == 16

    def test_entry_size_formula(self):
        table = DoubleCosetTable(symmetric_group(8), q_group(2, 3))
        for d, (size, r) in enumerate(zip(table.sizes, table.r_index.tolist())):
            assert size == 128 * r
            assert r == np.count_nonzero(table.class_of_coset == d)

    def test_representative_is_class_minimum(self):
        G = symmetric_group(4)
        H = dihedral_square()
        table = DoubleCosetTable(G, H)
        h_elements = [p.images for p in H.elements()]
        for rep in table.representatives.tolist():
            coset = oracles.double_coset_of(tuple(rep), h_elements)
            assert tuple(rep) == min(coset)

    def test_canonicalization_is_coset_invariant(self):
        rng = random.Random(17)
        G = symmetric_group(8)
        H = q_group(2, 3)
        for _ in range(40):
            x = oracles.sample(G, rng)
            h1, h2 = oracles.sample(H, rng), oracles.sample(H, rng)
            assert H.min_in_double_coset(h1 * x * h2) == H.min_in_double_coset(x)
            assert (H.canonical_rows([(h1 * x).images]) == H.canonical_rows([x.images])).all()

    def test_load_refuses_without_opening_the_path(self, tmp_path):
        # tables are never stored: a missing file is not an OSError
        with pytest.raises(ValueError):
            DoubleCosetTable.load(tmp_path / "missing.json")


class TestRIndex:
    def test_identity(self):
        assert r_index(Permutation.identity(4), dihedral_square()) == 1

    def test_s4_d4_large_class(self):
        table = DoubleCosetTable(symmetric_group(4), dihedral_square())
        rep = Permutation(table.representatives[1].tolist())
        assert r_index(rep, dihedral_square()) == 2

    def test_flagship_symmetry(self, flagship_pair):
        H = flagship_pair.subgroup
        for rep in map(Permutation, flagship_pair.table.representatives.tolist()):
            assert r_index(rep, H) == r_index(rep.inverse(), H)

    def test_index_formula_against_intersection(self):
        rng = random.Random(23)
        G = symmetric_group(8)
        H = q_group(2, 3)
        h_elements = [p.images for p in H.elements()]
        for _ in range(8):
            x = oracles.sample(G, rng)
            intersection = oracles.conjugate_intersection(x.images, set(h_elements))
            assert r_index(x, H) * len(intersection) == H.order()


def _shuffled(degree: int, seed) -> Permutation:
    images = list(range(degree))
    random.Random(seed).shuffle(images)
    return Permutation(images)


class TestCosetOrbit:
    def test_blocks_do_not_change_the_walk(self, monkeypatch):
        # S_8 on Q_3's cosets, and ball groups on generic double cosets
        cases = [(q_group(2, 3), np.arange(8), symmetric_group(8).generator_rows)]
        for d, k, n in ((2, 2, 3), (2, 3, 2), (3, 2, 2)):
            H = ball_aut_group(TreeShape(d, k), n)
            cases.append((H, _shuffled(H.degree, f"walk{d}{k}{n}").images, H.generator_rows))
        whole = [H.coset_orbit(start, gens) for H, start, gens in cases]
        monkeypatch.setattr(permgroup, "WALK_BLOCK_ROWS", 5)
        for (H, start, gens), (rows, images) in zip(cases, whole):
            blocked_rows, blocked_images = H.coset_orbit(start, gens)
            assert np.array_equal(blocked_rows, rows)
            assert np.array_equal(blocked_images, images)
            assert len(images) == len(rows) * len(gens)

    def test_walk_refuses_past_the_coset_cap(self, monkeypatch):
        H = ball_aut_group(TreeShape(2, 2), 3)
        x = _shuffled(8, "cap")
        size = r_index(x, H)
        assert size > 2
        monkeypatch.setattr(permgroup, "COSET_INDEX_CAP", size - 1)
        for walk in (lambda: r_index(x, H), lambda: H.min_in_double_coset(x)):
            with pytest.raises(ScaleError, match=f"found more than {size - 1} right cosets"):
                walk()
        assert not H._double_coset_min  # a refused walk files nothing
        monkeypatch.setattr(permgroup, "COSET_INDEX_CAP", size)
        assert r_index(x, H) == size
        assert H.min_in_double_coset(x).images == oracles.min_in_double_coset(H, x.images)
