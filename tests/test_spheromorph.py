import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckelab import spheromorph
from heckelab.errors import LevelError, ScaleError
from heckelab.permgroup import Permutation
from heckelab.spheromorph import (AlmostAutomorphism, canonical_form, compose,
                                  double_coset_key, from_json_dict, inverse,
                                  is_in_level_subgroup, level_permutation,
                                  minimal_level, random_tree_automorphism,
                                  to_json_dict)
from heckelab.treefam import TreeShape, ball_aut_group

import oracles
from conftest import examples

SHAPE = TreeShape(2, 2)


class TestValidation:
    def test_incomplete_domain_tree(self):
        with pytest.raises(ValueError):
            AlmostAutomorphism(SHAPE, {(0,): (0,)}, {})

    def test_non_injective_leaf_map(self):
        with pytest.raises(ValueError):
            AlmostAutomorphism(SHAPE, {(0,): (0,), (1,): (0,)}, {})

    def test_leaf_with_descendants(self):
        with pytest.raises(ValueError):
            AlmostAutomorphism(SHAPE, {(0,): (0,), (1,): (1,), (0, 0): (1, 1)}, {})

    def test_bad_twist_permutation(self):
        with pytest.raises(ValueError):
            AlmostAutomorphism(SHAPE, {(): ()}, {(): {(): (0, 0)}})

    def test_out_of_range_letters(self):
        # children 0, 1, 2 of a binary root; the image side alone passes the
        # Kraft sum, {0, 2} covering as many level-1 points as {0, 1}
        with pytest.raises(ValueError, match="not a vertex"):
            AlmostAutomorphism(SHAPE, {(0,): (0,), (1,): (1,), (2,): (2,)}, {})
        with pytest.raises(ValueError, match="not a vertex"):
            AlmostAutomorphism(SHAPE, {(0,): (0,), (1,): (2,)}, {})
        with pytest.raises(ValueError, match="not a vertex"):
            AlmostAutomorphism(SHAPE, {(0,): (0,), (1,): (-1,)}, {})
        # below the root: {0, 10, 12} and {0, 10, 1(-1)} pass the Kraft sum
        for bad in (2, -1):
            with pytest.raises(ValueError, match="not a vertex"):
                AlmostAutomorphism(SHAPE, {(0,): (0,), (1, 0): (1, 0), (1, bad): (1, 1)},
                                   {})

    def test_empty_leaf_map(self):
        with pytest.raises(ValueError, match="cover"):
            AlmostAutomorphism(SHAPE, {}, {})

    def test_lone_deep_leaf_forms_no_level_size(self, monkeypatch):
        # a complete subtree of depth D has at least D + 1 leaves
        def refuse(self, n):
            raise AssertionError(f"|V_{n}| was formed")

        monkeypatch.setattr(TreeShape, "level_size", refuse)
        with pytest.raises(ValueError, match="do not cover"):
            AlmostAutomorphism(SHAPE, {(0,) * 40_000: (0,) * 40_000}, {})
        with pytest.raises(ValueError, match="do not cover"):
            AlmostAutomorphism(SHAPE, {(0,): (0,), (1, 0): (1,), (1, 1, 0): (1, 1, 0)}, {})

    def test_twist_addresses_are_vertices(self):
        with pytest.raises(ValueError, match="not a vertex"):
            AlmostAutomorphism(SHAPE, {(): ()}, {(): {(7,): (1, 0)}})
        with pytest.raises(ValueError, match="not a vertex"):
            AlmostAutomorphism(SHAPE, {(0,): (0,), (1,): (1,)}, {(1,): {(2,): (1, 0)}})
        shape = TreeShape(2, 3)
        AlmostAutomorphism(shape, {(): ()}, {(): {(2,): (1, 0)}})
        with pytest.raises(ValueError, match="not a vertex"):
            AlmostAutomorphism(shape, {(): ()}, {(): {(0, 2): (1, 0)}})

    def test_twists_only_at_domain_leaves(self):
        # a twist anywhere else used to be dropped without a word
        with pytest.raises(ValueError, match="not at a domain leaf"):
            AlmostAutomorphism(SHAPE, {(): ()}, {(0,): {(): (1, 0)}})
        with pytest.raises(ValueError, match="not at a domain leaf"):
            AlmostAutomorphism(SHAPE, {(0,): (1,), (1,): (0,)}, {(): {}})
        AlmostAutomorphism(SHAPE, {(0,): (1,), (1,): (0,)}, {(1,): {(): (1, 0)}})

    def test_identity_twists_are_checked(self):
        # identities are dropped from a portrait, but only after the check
        with pytest.raises(ValueError, match="permutation of 2 children"):
            AlmostAutomorphism(SHAPE, {(): ()}, {(): {(): (0, 1, 2)}})
        with pytest.raises(ValueError, match="permutation of 2 children"):
            AlmostAutomorphism(SHAPE, {(): ()}, {(): {(1,): (0,)}})
        g = AlmostAutomorphism(SHAPE, {(): ()}, {(): {(): (0, 1), (0,): (1, 0)}})
        assert g.twists == {(): {(0,): (1, 0)}}

    def test_huge_degree_builds_no_identity(self):
        # a permutation of d children is checked by its length before any range(d)
        shape = TreeShape(2 ** 70, 3)
        g = AlmostAutomorphism(shape, {(): ()}, {(): {(): (2, 0, 1)}})
        assert g.twists == {(): {(): (2, 0, 1)}}
        with pytest.raises(ValueError, match=f"permutation of {2 ** 70} children"):
            AlmostAutomorphism(shape, {(): ()}, {(): {(1,): (1, 0)}})

    def test_twist_arity_at_root(self):
        shape = TreeShape(2, 3)  # root has three children
        AlmostAutomorphism(shape, {(): ()}, {(): {(): (2, 0, 1)}})
        with pytest.raises(ValueError):
            AlmostAutomorphism(shape, {(): ()}, {(): {(): (1, 0)}})


class TestGroupAxioms:
    def test_identity(self):
        e = AlmostAutomorphism.identity(SHAPE)
        assert e.is_identity()

    def test_axioms_on_random_elements(self):
        rng = random.Random(20240805)
        e = AlmostAutomorphism.identity(SHAPE)
        for _ in range(250):
            g = oracles.random_element(SHAPE, rng)
            h = oracles.random_element(SHAPE, rng)
            f = oracles.random_element(SHAPE, rng)
            assert compose(g, e) == g
            assert compose(e, g) == g
            assert compose(g, inverse(g)).is_identity()
            assert compose(inverse(g), g).is_identity()
            assert compose(compose(g, h), f) == compose(g, compose(h, f))

    def test_axioms_on_ternary_tree(self):
        shape = TreeShape(3, 2)
        rng = random.Random(99)
        for _ in range(60):
            g = oracles.random_element(shape, rng)
            h = oracles.random_element(shape, rng)
            assert compose(g, inverse(g)).is_identity()
            assert inverse(inverse(g)) == g
            assert inverse(compose(g, h)) == compose(inverse(h), inverse(g))


SMALL_SHAPES = [TreeShape(d, k) for d in (2, 3) for k in (2, 3)]


@settings(max_examples=examples(100), deadline=None)
@given(shape=st.sampled_from(SMALL_SHAPES), rng=st.randoms(use_true_random=False))
def test_unchecked_results_pass_the_constructor(shape, rng):
    # compose, inverse and canonical_form build their results without the
    # constructor's checks, and from_json_dict without the constructor;
    # rebuilding each through it must succeed and change nothing: tuple
    # addresses, a portrait at every domain leaf, no identity
    g = oracles.random_element(shape, rng)
    h = oracles.random_element(shape, rng)
    ball = {v for j in range(3) for v in shape.vertices(j)}
    results = []
    for x in (compose(g, h), compose(g, inverse(g)), inverse(g), inverse(compose(h, g))):
        results += [x, canonical_form(x)]
    results += [canonical_form(oracles.refined_to_domain(g, ball)),
                canonical_form(AlmostAutomorphism.from_level_permutation(
                    shape, 1, Permutation(rng.sample(range(shape.k), shape.k)))),
                from_json_dict(json.loads(json.dumps(to_json_dict(g))))]
    for r in results:
        rebuilt = AlmostAutomorphism(r.shape, r.leaf_map, r.twists)
        assert rebuilt.leaf_map == r.leaf_map
        assert rebuilt.twists == r.twists
        assert all(type(a) is tuple and type(b) is tuple for a, b in r.leaf_map.items())
        assert all(type(v) is tuple and type(perm) is tuple
                   for t in r.twists.values() for v, perm in t.items())


class TestCanonicalForm:
    def test_idempotent(self):
        rng = random.Random(5)
        for _ in range(100):
            c = canonical_form(oracles.random_element(SHAPE, rng))
            assert canonical_form(c).data_equal(c)

    def test_refined_identity_collapses(self):
        leaf_map = {a: a for a in SHAPE.vertices(2)}
        refined = AlmostAutomorphism(SHAPE, leaf_map, {})
        assert refined.is_identity()
        c = canonical_form(refined)
        assert c.leaf_map == {(): ()}

    def test_refinement_equals_and_hashes_like_the_root_twist(self):
        twist = AlmostAutomorphism.automorphism(SHAPE, {(): (1, 0)})
        refined = AlmostAutomorphism(SHAPE, {(0,): (1,), (1,): (0,)}, {})
        assert not twist.data_equal(refined)
        assert twist == refined and hash(twist) == hash(refined)
        assert len({twist, refined}) == 1

    def test_minimal_element_is_unchanged(self):
        g = AlmostAutomorphism(SHAPE, {(0, 0): (0,), (0, 1): (1, 0), (1,): (1, 1)}, {})
        assert canonical_form(g).data_equal(g)

    def test_refine_then_canonicalize_is_canonicalize(self):
        rng = random.Random(7)
        ball = set()
        for j in range(4):
            ball.update(SHAPE.vertices(j))
        for _ in range(80):
            g = oracles.random_element(SHAPE, rng)
            refined = oracles.refined_to_domain(g, ball)
            assert canonical_form(refined).data_equal(canonical_form(g))

    def test_block_onto_part_of_the_root_block_stays(self):
        # 00, 01 map onto two of the root's three children: no single vertex
        # map covers them, so the block must not merge
        shape = TreeShape(2, 3)
        g = AlmostAutomorphism(shape, {(0, 0): (0,), (0, 1): (1,), (1,): (2, 0),
                                       (2,): (2, 1)}, {})
        assert canonical_form(g).data_equal(g)

    def test_twisted_identity_collapses_to_root_portrait(self):
        # an automorphism presented on the level-2 ball
        sigma = Permutation([2, 3, 1, 0])
        g = AlmostAutomorphism.from_level_permutation(SHAPE, 2, sigma)
        c = canonical_form(g)
        assert set(c.leaf_map) == {()}


class TestLevelSubgroups:
    def test_tree_automorphisms_live_at_level_zero(self):
        rng = random.Random(9)
        for _ in range(30):
            k = random_tree_automorphism(SHAPE, rng)
            assert is_in_level_subgroup(k, 0)
            assert is_in_level_subgroup(k, 2)
            assert minimal_level(k) == 0

    def test_block_swap_is_an_automorphism(self):
        swap = AlmostAutomorphism.automorphism(SHAPE, {(): (1, 0)})
        assert is_in_level_subgroup(swap, 1)
        assert minimal_level(swap) == 0
        assert level_permutation(swap, 1) == Permutation([1, 0])

    def test_level_shifting_element_is_never_inside(self):
        g = AlmostAutomorphism(SHAPE, {(0, 0): (0,), (0, 1): (1, 0), (1,): (1, 1)}, {})
        for n in range(7):
            assert not is_in_level_subgroup(g, n)
        assert minimal_level(g, n_max=8) is None

    def test_genuine_level_two_element(self):
        sigma = Permutation.from_cycles(4, (1, 2))
        g = AlmostAutomorphism.from_level_permutation(SHAPE, 2, sigma)
        assert is_in_level_subgroup(g, 2)
        assert not is_in_level_subgroup(g, 1)
        assert minimal_level(g) == 2
        assert level_permutation(g, 2) == sigma

    def test_membership_lists_no_level_set(self, monkeypatch):
        # the radius-12 ball of the ternary tree has 797,161 vertices; the
        # answer is read off the element's five leaves
        shape = TreeShape(3, 3)
        g = AlmostAutomorphism(shape, {(0, 0): (0,), (0, 1): (1, 0), (0, 2): (1, 1),
                                       (1,): (1, 2), (2,): (2,)}, {})

        def refuse(self, n):
            raise AssertionError(f"a level set was listed, n = {n}")

        monkeypatch.setattr(TreeShape, "vertices", refuse)
        assert not is_in_level_subgroup(g, 12)
        assert minimal_level(g) is None

    def test_level_map_refuses_above_the_point_cap(self, monkeypatch):
        # |V_17| = 131,072 on the binary tree: refused before V_17 is listed
        def refuse(self, n):
            raise AssertionError(f"a level set was listed, n = {n}")

        monkeypatch.setattr(TreeShape, "vertices", refuse)
        with pytest.raises(ScaleError):
            level_permutation(AlmostAutomorphism.identity(SHAPE), 17)
        with pytest.raises(ScaleError):
            AlmostAutomorphism.from_level_permutation(SHAPE, 17, Permutation.identity(2))

    def test_level_permutation_requires_membership(self):
        g = AlmostAutomorphism(SHAPE, {(0, 0): (0,), (0, 1): (1, 0), (1,): (1, 1)}, {})
        with pytest.raises(LevelError):
            level_permutation(g, 3)


class TestDoubleCosetKey:
    def test_automorphisms_key_to_the_identity_class(self):
        rng = random.Random(13)
        for n in (1, 2):
            for _ in range(15):
                k = random_tree_automorphism(SHAPE, rng)
                assert double_coset_key(k, n).is_identity()

    def test_bi_invariance(self):
        rng = random.Random(17)
        for _ in range(120):
            sigma = Permutation(
                random.Random(rng.random()).sample(range(4), 4))
            g = AlmostAutomorphism.from_level_permutation(SHAPE, 2, sigma)
            k1 = random_tree_automorphism(SHAPE, rng)
            k2 = random_tree_automorphism(SHAPE, rng)
            assert double_coset_key(compose(compose(k1, g), k2), 2) == \
                double_coset_key(g, 2)

    def test_twists_do_not_change_the_key(self):
        rng = random.Random(19)
        sigma = Permutation.from_cycles(4, (0, 3))
        base = AlmostAutomorphism.from_level_permutation(SHAPE, 2, sigma)
        key = double_coset_key(base, 2)
        for _ in range(10):
            from heckelab.spheromorph import random_portrait
            twists = {a: random_portrait(SHAPE, a, rng) for a in SHAPE.vertices(2)}
            twisted = AlmostAutomorphism.from_level_permutation(SHAPE, 2, sigma, twists)
            assert double_coset_key(twisted, 2) == key

    def test_level_is_checked_on_the_elements_own_tree(self, monkeypatch):
        # |V_6| = 10^6 for d = k = 10: refused before the level permutation
        def no_level_permutation(*args):
            raise AssertionError("the level permutation was built")

        monkeypatch.setattr(spheromorph, "level_permutation", no_level_permutation)
        g = AlmostAutomorphism.identity(TreeShape(10, 10))
        with pytest.raises(ScaleError, match="1000000 exceeds the point cap"):
            double_coset_key(g, 6)

    def test_cross_block_transposition_has_nontrivial_key(self):
        # swapping two level-2 vertices under different level-1 parents is
        # not a ball automorphism, so its key leaves the identity class
        sigma = Permutation.from_cycles(4, (1, 2))
        g = AlmostAutomorphism.from_level_permutation(SHAPE, 2, sigma)
        p2 = ball_aut_group(SHAPE, 2)
        assert sigma not in p2
        assert not double_coset_key(g, 2).is_identity()

    def test_complete_invariant_at_level_two(self):
        # keys of all 24 level-2 permutations reproduce the double-coset
        # partition of the ball group in the symmetric group
        from heckelab.permgroup import DoubleCosetTable, symmetric_group
        p2 = ball_aut_group(SHAPE, 2)
        table = DoubleCosetTable(symmetric_group(4), p2)
        by_key = {}
        for images in __import__("itertools").permutations(range(4)):
            sigma = Permutation(images)
            g = AlmostAutomorphism.from_level_permutation(SHAPE, 2, sigma)
            by_key.setdefault(double_coset_key(g, 2).images, set()).add(images)
        reps = [tuple(rep) for rep in table.representatives.tolist()]
        assert len(by_key) == len(table)
        for rep, size in zip(reps, table.sizes):
            block = by_key[rep]
            assert len(block) == size
        # keys are exactly the canonical representatives
        assert set(by_key) == set(reps)

    def test_keys_realize_every_class_at_level_three(self, flagship_pair):
        for rep in map(Permutation, flagship_pair.representatives.tolist()):
            g = AlmostAutomorphism.from_level_permutation(SHAPE, 3, rep)
            assert double_coset_key(g, 3) == rep

    def test_keys_classify_random_level_three_elements(self, flagship_pair):
        # the key equals the table representative of the class of the induced
        # permutation, for arbitrary elements of the level-3 subgroup
        rng = random.Random(29)
        for _ in range(50):
            sigma = oracles.sample(flagship_pair.group, rng)
            g = AlmostAutomorphism.from_level_permutation(SHAPE, 3, sigma)
            coset = flagship_pair.cosets.cosets_of([sigma.images])[0]
            expected = Permutation(flagship_pair.representatives[
                flagship_pair.class_of_coset[coset]].tolist())
            assert double_coset_key(g, 3) == expected


class TestSerialization:
    def test_round_trip(self):
        rng = random.Random(23)
        for _ in range(40):
            g = canonical_form(oracles.random_element(SHAPE, rng))
            data = json.loads(json.dumps(to_json_dict(g)))
            assert from_json_dict(data) == g

    def test_round_trip_of_letters_above_nine(self):
        # d = 12: leaf 1·10 stays in the canonical form, and is written as a
        # list of letters, as is the twist address 10 below leaf 0
        shape = TreeShape(12, 2)
        leaf_map = {(0,): (0, 5), (1, 5): (1,)}
        leaf_map.update({(1, c): (0, c) for c in range(12) if c != 5})
        g = AlmostAutomorphism(shape, leaf_map, {(0,): {(10,): (1, 0) + tuple(range(2, 12))}})
        assert canonical_form(g).data_equal(g)
        data = json.loads(json.dumps(to_json_dict(g)))
        assert [1, 10] in data["A"] and [[1, 10], [0, 10]] in data["phi"]
        assert data["twists"]["0"][0][0] == [10]
        assert from_json_dict(data).data_equal(g)
        # a JSON object key cannot be a list: a twist at such a leaf is keyed
        # by the compact JSON text of its letters
        twisted = AlmostAutomorphism(shape, leaf_map, {(1, 10): {(): (1, 0) + tuple(range(2, 12))}})
        data = json.loads(json.dumps(to_json_dict(twisted)))
        assert list(data["twists"]) == ["[1,10]"]
        assert from_json_dict(data).data_equal(twisted)

    def test_rejects_inconsistent_trees(self):
        g = AlmostAutomorphism.automorphism(SHAPE, {(): (1, 0)})
        data = to_json_dict(g)
        data["A"] = ["", "0", "1"]
        with pytest.raises(ValueError):
            from_json_dict(data)

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            from_json_dict({"format": "other"})

    @pytest.mark.parametrize("text", ["٣", "０", "0²", "²", "0 1", "-1", "x", None,
                                      [True], [0, False], [0, 1.0]])
    def test_address_grammar_refuses(self, text):
        # digits outside ASCII pass str.isdigit (and int() reads "٣" as 3)
        with pytest.raises(ValueError, match="malformed tree address"):
            spheromorph._address_from_text(text)

    # a list-spelled twist key must be the writer's: a letter above 9, no
    # spaces, no leading zeros, nothing after the bracket
    @pytest.mark.parametrize("text", ["[1, 10]", "[5]", "[1,2]", "[]", "[", "[01,10]",
                                      "[1,010]", "[-1,10]", "[1,10", "[1,10]x", "[1,,10]",
                                      "[١,10]", "[1,10,]"])
    def test_twist_key_grammar_refuses(self, text):
        with pytest.raises(ValueError, match="malformed tree address"):
            spheromorph._address_from_key(text)

    def test_refused_address_texts_are_not_memoized(self, monkeypatch):
        monkeypatch.setattr(spheromorph, "_address_memo", {})
        for text in ("٣", "0²", "x", "0 1", "-1"):
            for _ in range(2):
                with pytest.raises(ValueError, match="malformed tree address"):
                    spheromorph._address_from_text(text)
        assert spheromorph._address_memo == {}
        assert spheromorph._address_from_text("012") == (0, 1, 2)
        assert spheromorph._address_memo == {"012": (0, 1, 2)}

    def test_address_memo_stops_at_its_cap(self, monkeypatch):
        monkeypatch.setattr(spheromorph, "_address_memo", {})
        cap = spheromorph.ADDRESS_MEMO_CAP
        texts = [format(i, "b") for i in range(cap + 100)]
        for text in texts:
            assert spheromorph._address_from_text(text) == tuple(map(int, text))
        assert len(spheromorph._address_memo) == cap
        # past the cap, stored and unstored texts alike still parse
        for text in (texts[0], texts[cap - 1], texts[cap], texts[-1], "9" * 30):
            assert spheromorph._address_from_text(text) == tuple(map(int, text))
        with pytest.raises(ValueError, match="malformed tree address"):
            spheromorph._address_from_text("٣")
        assert len(spheromorph._address_memo) == cap

    def test_address_grammar_accepts(self):
        assert spheromorph._address_from_text("") == ()
        assert spheromorph._address_from_text([]) == ()
        assert spheromorph._address_from_text("0912") == (0, 9, 1, 2)
        assert spheromorph._address_from_text([0, 12]) == (0, 12)

    def test_rejects_a_domain_leaf_listed_twice(self):
        # with the last entry winning this file read as the identity
        data = {"format": "heckelab/spheromorph/v1", "d": 2, "k": 2,
                "A": ["", "0", "1"], "B": ["", "0", "1"],
                "phi": [["0", "1"], ["0", "0"], ["1", "1"]], "twists": {}}
        with pytest.raises(ValueError, match="lists domain leaf \\(0,\\) twice"):
            from_json_dict(data)
        # the same leaf in its two spellings, even with one image
        data["phi"] = [["0", "0"], [[0], "0"], ["1", "1"]]
        with pytest.raises(ValueError, match="twice"):
            from_json_dict(data)

    def test_rejects_a_twist_address_listed_twice(self):
        data = to_json_dict(AlmostAutomorphism.automorphism(SHAPE, {(): (1, 0)}))
        data["twists"] = {"": [["", [1, 0]], ["", [0, 1]]]}
        with pytest.raises(ValueError, match="lists address \\(\\) twice"):
            from_json_dict(data)
        data["twists"] = {"": [["1", [1, 0]], [[1], [1, 0]]]}
        with pytest.raises(ValueError, match="twice"):
            from_json_dict(data)
        data["twists"] = {"": [["", [1, 0]]], (): [["1", [1, 0]]]}
        with pytest.raises(ValueError, match="lists leaf \\(\\) twice"):
            from_json_dict(data)

    def test_addresses_accept_lists_and_strings(self):
        data = {
            "format": "heckelab/spheromorph/v1",
            "d": 2, "k": 2,
            "A": ["", [0], [1]],
            "B": ["", "0", "1"],
            "phi": [[[0], "1"], ["1", [0]]],
            "twists": {"0": [["", [1, 0]]]},
        }
        g = from_json_dict(data)
        assert g.leaf_map == {(0,): (1,), (1,): (0,)}
