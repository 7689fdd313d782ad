"""The one-pass refinement, the Kraft completeness check, the worklist
canonical form and the level map read off the canonical form against the
paths they replaced, the canonical-form and double-coset-key properties,
and guards on the number of elements a refinement builds.

`oracles.refine_by_expansion` splits one leaf per validated element,
`oracles.check_complete_by_vertices` walks the vertex set,
`oracles.canonical_by_restarts` rescans the leaves after every merge,
`oracles.canonical_by_depth_sweep` rescans them once per depth,
`oracles.level_permutation_by_refinement` refines the canonical form to the
n-ball and `oracles.level_permutation_by_vertices` maps each vertex of V_n
on its own; all six are the slow paths of `spheromorph`.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from heckelab import spheromorph
from heckelab.errors import LevelError
from heckelab.permgroup import Permutation
from heckelab.spheromorph import (AlmostAutomorphism, canonical_form, compose,
                                  double_coset_key, is_in_level_subgroup,
                                  level_permutation, random_portrait,
                                  random_tree_automorphism)
from heckelab.treefam import TreeShape

import oracles
from conftest import BALL_SHAPES, examples

# (d, k, n) of the benchmark elements
LEVEL_SHAPES = ((2, 2, 3), (2, 3, 2), (3, 2, 2))
SHAPES = tuple(TreeShape(d, k) for d, k, _ in LEVEL_SHAPES)
# the trees of every ball of at most 16 points, (2|3, 2|3) among them
BALL_TREES = tuple(TreeShape(d, k) for d, k in sorted({(d, k) for d, k, _ in BALL_SHAPES}))
SETTINGS = settings(max_examples=examples(120), deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def random_leaves(shape, rng, max_depth, expansions):
    """Leaves of a random complete subtree of depth <= max_depth."""
    leaves = [()]
    for _ in range(expansions):
        splittable = [a for a in leaves if len(a) < max_depth]
        if not splittable:
            break
        pick = rng.choice(splittable)
        leaves.remove(pick)
        leaves.extend(pick + (c,) for c in range(shape.arity(pick)))
    return leaves


def prefixes(leaves):
    return {leaf[:j] for leaf in leaves for j in range(len(leaf) + 1)}


@st.composite
def elements(draw, shapes=SHAPES):
    shape = draw(st.sampled_from(shapes))
    rng = draw(st.randoms(use_true_random=False))
    return oracles.random_element(shape, rng, expansions=rng.randrange(6))


@st.composite
def elements_and_targets(draw, shapes=SHAPES):
    g = draw(elements(shapes))
    rng = draw(st.randoms(use_true_random=False))
    return g, prefixes(random_leaves(g.shape, rng, 4, rng.randrange(16)))


@st.composite
def leaf_sets(draw):
    """Complete subtrees, some with a leaf dropped, a stray address added, a
    leaf extended or a leaf's last letter replaced; letters run from -1 to 3,
    so some are out of range."""
    shape = draw(st.sampled_from(SHAPES))
    rng = draw(st.randoms(use_true_random=False))
    leaves = set(random_leaves(shape, rng, 3, rng.randrange(8)))
    for _ in range(draw(st.integers(0, 2))):
        edit = rng.randrange(4)
        letter = rng.randrange(-1, 4)
        if edit == 0 and leaves:
            leaves.discard(rng.choice(sorted(leaves)))
        elif edit == 1:
            leaves.add(tuple(rng.randrange(-1, 4) for _ in range(rng.randrange(4))))
        elif edit == 2 or not any(leaves):
            base = rng.choice(sorted(leaves)) if leaves else ()
            leaves.add(base + (letter,))
        else:
            leaf = rng.choice([v for v in sorted(leaves) if v])
            leaves.remove(leaf)
            leaves.add(leaf[:-1] + (letter,))
    return shape, leaves


@st.composite
def level_elements(draw, shapes=LEVEL_SHAPES):
    """(g, n) with g in the level-n subgroup: a random level permutation with
    random twists below V_n, between two random tree automorphisms."""
    d, k, n = draw(st.sampled_from(shapes))
    shape = TreeShape(d, k)
    rng = draw(st.randoms(use_true_random=False))
    images = list(range(shape.level_size(n)))
    rng.shuffle(images)
    twists = {a: random_portrait(shape, a, rng, depth=1)
              for a in shape.vertices(n) if rng.random() < 0.4}
    g = AlmostAutomorphism.from_level_permutation(shape, n, Permutation(images), twists)
    if rng.random() < 0.5:
        g = compose(compose(random_tree_automorphism(shape, rng, depth=n), g),
                    random_tree_automorphism(shape, rng, depth=n))
    return g, n


def refined_to_image(g, target):
    """g split until no image leaf has children in `target`: how `compose`
    refines its left factor."""
    return AlmostAutomorphism(g.shape, *spheromorph._split_leaves(g, target, True))


# -- against the slow paths ------------------------------------------------------

@SETTINGS
@given(elements_and_targets())
def test_refinement_matches_stepwise_expansion(case):
    g, target = case
    assert oracles.refined_to_domain(g, target).data_equal(
        oracles.refine_by_expansion(g, target))
    assert refined_to_image(g, target).data_equal(
        oracles.refine_by_expansion(g, target, by_image=True))


@SETTINGS
@given(elements(), st.randoms(use_true_random=False))
def test_compose_acts_as_apply_g_then_h(g, rng):
    # the second h has g's image leaves for its domain, as g⁻¹ has: no leaf is split
    images = list(g.leaf_map.values())
    aligned = AlmostAutomorphism(g.shape, dict(zip(images, rng.sample(images, len(images)))),
                                 {b: random_portrait(g.shape, b, rng) for b in images})
    for h in (oracles.random_element(g.shape, rng, expansions=rng.randrange(6)), aligned):
        gh = compose(g, h)
        # deep enough to lie below the leaves of g, of h after g, and of g·h
        depth = 2 + 2 * max(map(len, (*g.leaf_map, *g.leaf_map.values(), *h.leaf_map)))
        for _ in range(8):
            x = tuple(rng.randrange(g.shape.arity(()) if j == 0 else g.shape.d)
                      for j in range(depth))
            assert gh.apply_to_address(x) == h.apply_to_address(g.apply_to_address(x))


@settings(max_examples=examples(300), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(leaf_sets())
def test_completeness_checks_agree(case):
    shape, leaves = case

    def accepts(check):
        try:
            check(shape, leaves)
        except ValueError:
            return False
        return True

    fast = accepts(spheromorph._check_complete)
    slow = accepts(oracles.check_complete_by_vertices)
    out_of_range = any(not 0 <= c < (shape.d if j else shape.k)
                       for v in leaves for j, c in enumerate(v))
    if slow and (out_of_range or not leaves):
        # the vertex-set check takes these; they are not complete subtrees
        assert not fast
    else:
        assert fast == slow


@SETTINGS
@given(elements_and_targets())
def test_canonical_form_matches_greedy_restarts(case):
    g, target = case
    for x in (g, oracles.refined_to_domain(g, target), refined_to_image(g, target)):
        assert canonical_form(x).data_equal(oracles.canonical_by_restarts(x))


@SETTINGS
@given(elements_and_targets(BALL_TREES))
def test_canonical_form_matches_the_depth_sweep(case):
    g, target = case
    for x in (g, oracles.refined_to_domain(g, target), refined_to_image(g, target)):
        assert canonical_form(x).data_equal(oracles.canonical_by_depth_sweep(x))


@SETTINGS
@given(level_elements(BALL_SHAPES), st.randoms(use_true_random=False))
def test_level_permutation_matches_the_vertex_walk(case, rng):
    g, n = case
    other = oracles.random_element(g.shape, rng, expansions=rng.randrange(6))
    for x in (g, other):
        expected = oracles.level_permutation_by_vertices(x, n)
        if expected is None:
            with pytest.raises(LevelError):
                level_permutation(x, n)
        else:
            assert level_permutation(x, n) == expected


@pytest.mark.parametrize("d, k", [(2, 2), (2, 3), (3, 2)])
def test_level_map_matches_refinement(d, k):
    shape = TreeShape(d, k)
    rng = random.Random(1000 * d + k)
    inside = outside = 0
    for _ in range(600):
        g = oracles.random_element(shape, rng, expansions=rng.randrange(6))
        for n in range(5):
            expected = oracles.level_permutation_by_refinement(g, n)
            assert is_in_level_subgroup(g, n) == (expected is not None)
            if expected is None:
                outside += 1
                with pytest.raises(LevelError):
                    level_permutation(g, n)
            else:
                inside += 1
                assert level_permutation(g, n) == expected
    assert inside >= 500 and outside >= 500


# -- properties ------------------------------------------------------------------

@SETTINGS
@given(elements_and_targets())
def test_canonical_form_is_idempotent_and_refinement_invariant(case):
    g, target = case
    c = canonical_form(g)
    assert canonical_form(c).data_equal(c)
    assert canonical_form(oracles.refined_to_domain(g, target)).data_equal(c)
    assert canonical_form(refined_to_image(g, target)).data_equal(c)


@SETTINGS
@given(level_elements(), st.randoms(use_true_random=False))
def test_double_coset_key_is_bi_invariant(case, rng):
    g, n = case
    k1 = random_tree_automorphism(g.shape, rng, depth=n + 1)
    k2 = random_tree_automorphism(g.shape, rng, depth=n + 1)
    assert double_coset_key(compose(compose(k1, g), k2), n) == double_coset_key(g, n)


@SETTINGS
@given(level_elements(), st.randoms(use_true_random=False))
def test_level_permutation_is_multiplicative(case, rng):
    g, n = case
    images = list(range(g.shape.level_size(n)))
    rng.shuffle(images)
    h = AlmostAutomorphism.from_level_permutation(g.shape, n, Permutation(images))
    for x, y in ((g, h), (h, g), (g, g)):
        assert level_permutation(compose(x, y), n) == \
            level_permutation(x, n) * level_permutation(y, n)


# -- guards: one construction per refinement, one canonical form per key ----------

@pytest.fixture
def constructions(monkeypatch):
    """Every element built, by the validating constructor or unchecked."""
    built = []
    validate = AlmostAutomorphism.__post_init__
    unchecked = spheromorph._built

    def counting(self):
        validate(self)
        built.append(self)

    def counting_unchecked(*data):
        built.append(unchecked(*data))
        return built[-1]

    monkeypatch.setattr(AlmostAutomorphism, "__post_init__", counting)
    monkeypatch.setattr(spheromorph, "_built", counting_unchecked)
    return built


def test_refinement_builds_one_element(constructions):
    shape = TreeShape(2, 2)
    g = AlmostAutomorphism.automorphism(shape, {(): (1, 0), (0, 1): (1, 0)})
    ball = set(oracles.ball(shape, 3))
    constructions.clear()
    refined = oracles.refined_to_domain(g, ball)  # 7 splits
    assert len(refined.leaf_map) == 8
    assert len(constructions) == 1 and constructions[0] is refined
    constructions.clear()
    assert oracles.refined_to_domain(refined, ball) is refined
    assert constructions == []


def test_compose_builds_one_element(constructions):
    shape = TreeShape(2, 2)
    g = AlmostAutomorphism(shape, {(0,): (0, 0), (1, 0): (0, 1), (1, 1): (1,)}, {})
    h = AlmostAutomorphism(shape, {(0,): (1, 1), (1, 0): (0,), (1, 1): (1, 0)}, {})
    constructions.clear()
    gh = compose(g, h)  # g splits image leaf 1, h splits domain leaf 0
    assert len(constructions) == 1 and constructions[0] is gh


def test_double_coset_key_canonicalises_once(monkeypatch, constructions):
    shape = TreeShape(2, 2)
    g = AlmostAutomorphism.from_level_permutation(
        shape, 3, Permutation([3, 1, 2, 0, 5, 4, 7, 6]))
    calls = []
    canonical = spheromorph.canonical_form

    def counting(x):
        calls.append(x)
        return canonical(x)

    monkeypatch.setattr(spheromorph, "canonical_form", counting)
    constructions.clear()
    double_coset_key(g, 3)
    assert len(calls) == 1
    assert len(constructions) <= 1  # the canonical form; no refinement
