from fractions import Fraction

import numpy as np
import pytest

from heckelab.errors import PairMismatchError
from heckelab.hecke import HeckePair, PairSpec, convolve, trace_inner_product
from heckelab.permgroup import Permutation, dihedral_square, symmetric_group, trivial_group

from groupalg import EnumeratedGroup, corner_isomorphism_check, hecke_image
import oracles


class TestLambdaMatrices:
    def test_unit_acts_as_identity(self, s4_d4_pair):
        M = s4_d4_pair.lambda_matrix(s4_d4_pair.unit().exact.to_complex())
        assert np.array_equal(M, np.eye(3))

    def test_s4_d4_large_class_matrix(self, s4_d4_pair):
        M = s4_d4_pair.basis_matrix(1)
        assert M.shape == (3, 3)
        assert set(M.ravel().tolist()) == {0, 1}
        assert list(M.sum(axis=1)) == [2, 2, 2]

    def test_matrices_match_the_action_formula(self, s4_d4_pair):
        # independent reconstruction from raw set arithmetic
        G = symmetric_group(4)
        H = dihedral_square()
        g_elements = [p.images for p in G.elements()]
        h_elements = [p.images for p in H.elements()]
        classes = sorted(oracles.double_cosets(g_elements, h_elements), key=min)
        coset_class = {}
        for x in g_elements:
            for lab, cls in enumerate(classes):
                if x in cls:
                    coset_class[x] = lab
        reps = sorted(min(c) for c in oracles.right_cosets(g_elements, h_elements))
        matrices = oracles.lambda_matrix_from_definition(
            g_elements, h_elements, reps, coset_class)
        assert [tuple(r) for r in s4_d4_pair.cosets.rows.tolist()] == reps
        for lab in range(2):
            assert s4_d4_pair.basis_matrix(lab).tolist() == matrices[lab]

    def test_row_sums_are_r_indices(self, flagship_pair):
        for j, r in enumerate(flagship_pair.table.r_index.tolist()):
            M = flagship_pair.basis_matrix(j)
            assert set(M.sum(axis=1).tolist()) == {r}

    def test_column_sums_are_inverse_r_indices(self, flagship_pair):
        r_index = flagship_pair.table.r_index
        for j in range(flagship_pair.dim):
            M = flagship_pair.basis_matrix(j)
            assert set(M.sum(axis=0).tolist()) == {r_index[flagship_pair.star_map[j]]}

    def test_faithful_disjoint_supports(self, flagship_pair):
        seen = np.zeros(flagship_pair.cell_class.shape, dtype=int)
        for j in range(flagship_pair.dim):
            seen += (flagship_pair.cell_class == j)
        assert np.array_equal(seen, np.ones_like(seen))


class TestConvolution:
    def test_unit_law(self, flagship_pair):
        rng = np.random.default_rng(3)
        f = oracles.random_exact_element(flagship_pair, rng)
        e = flagship_pair.unit()
        assert convolve(e, f) == f
        assert convolve(f, e) == f

    def test_product_matches_lambda_product(self, flagship_pair):
        rng = np.random.default_rng(5)
        f = oracles.random_exact_element(flagship_pair, rng)
        g = oracles.random_exact_element(flagship_pair, rng)
        lam = [flagship_pair.lambda_matrix(x.exact.to_complex()) for x in (f, g, f * g)]
        assert np.max(np.abs(lam[2] - lam[0] @ lam[1])) < 1e-9

    def test_structure_constants_nonnegative_integers(self, flagship_pair):
        struct = flagship_pair.structure_constants()
        assert struct.dtype == np.int64
        assert struct.min() >= 0

    def test_exact_equals_float_path(self, s4_d4_pair):
        rng = np.random.default_rng(7)
        f = oracles.random_exact_element(s4_d4_pair, rng)
        g = oracles.random_exact_element(s4_d4_pair, rng)
        exact = convolve(f, g).exact.to_complex()
        # the float product of the witness layer: coefficient arrays times left_matrix
        floated = s4_d4_pair.left_matrix(f.exact.to_complex()) @ g.exact.to_complex()
        assert np.max(np.abs(exact - floated)) < 1e-9

    def test_s4_d4_basis_commutes(self, s4_d4_pair):
        e0, e1 = s4_d4_pair.basis()
        assert convolve(e0, e1) == convolve(e1, e0)
        assert convolve(e1, e1) == e0.scaled(2) + e1

    def test_pair_mismatch(self, s4_d4_pair, s3_s2_pair):
        with pytest.raises(PairMismatchError):
            convolve(s4_d4_pair.unit(), s3_s2_pair.unit())


class TestStar:
    def test_unit_is_fixed(self, flagship_pair):
        e = flagship_pair.unit()
        assert e.star() == e

    def test_star_permutes_basis_by_inverse_class(self, flagship_pair):
        for j, rep in enumerate(flagship_pair.table.representatives.tolist()):
            image = flagship_pair.basis_element(j).star()
            inv_coset = flagship_pair.cosets.cosets_of([Permutation(rep).inverse().images])[0]
            inv_class = int(flagship_pair.class_of_coset[inv_coset])
            assert image == flagship_pair.basis_element(inv_class)

    def test_involution(self, flagship_pair):
        rng = np.random.default_rng(11)
        for _ in range(10):
            f = oracles.random_exact_element(flagship_pair, rng)
            assert f.star().star() == f

    def test_lambda_of_star_is_adjoint(self, flagship_pair):
        rng = np.random.default_rng(13)
        f = oracles.random_exact_element(flagship_pair, rng)
        lhs = flagship_pair.lambda_matrix(f.star().exact.to_complex())
        rhs = flagship_pair.lambda_matrix(f.exact.to_complex()).conj().T
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestTrace:
    def test_on_basis(self, flagship_pair):
        assert flagship_pair.basis_element(0).trace() == (Fraction(1), Fraction(0))
        for j in range(1, flagship_pair.dim):
            assert flagship_pair.basis_element(j).trace() == (Fraction(0), Fraction(0))

    def test_gns_norm_of_basis_elements(self, flagship_pair):
        for j, r in enumerate(flagship_pair.table.r_index.tolist()):
            e = flagship_pair.basis_element(j)
            assert trace_inner_product(e, e) == (Fraction(r), Fraction(0))

    def test_tracial_on_100_random_exact_pairs(self, flagship_pair):
        rng = np.random.default_rng(20240801)
        for _ in range(100):
            f = oracles.random_exact_element(flagship_pair, rng)
            g = oracles.random_exact_element(flagship_pair, rng)
            assert convolve(f, g).trace() == convolve(g, f).trace()

    def test_positivity_and_norm_formula(self, flagship_pair):
        rng = np.random.default_rng(31)
        for _ in range(20):
            f = oracles.random_exact_element(flagship_pair, rng)
            re, im = trace_inner_product(f, f)
            assert im == 0
            assert re == oracles.trace_norm_formula(f)
            if not f.is_zero():
                assert re > 0


class TestGelfand:
    def test_full_group_pair(self):
        g = symmetric_group(4)
        pair = HeckePair(g, g)
        assert pair.dim == 1
        assert pair.is_commutative().commutative

    def test_depth_two_commutative(self):
        assert PairSpec.depth(2, 2).pair().is_commutative().commutative

    def test_depth_three_noncommutative_with_witness(self, flagship_pair):
        report = flagship_pair.is_commutative()
        assert not report.commutative
        d, e = report.witness
        A = flagship_pair.basis_matrix(d)
        B = flagship_pair.basis_matrix(e)
        C = A @ B - B @ A
        row, col, value = report.entry
        assert value != 0
        assert C[row, col] == value

    def test_witness_is_first_in_basis_order(self, flagship_pair):
        report = flagship_pair.is_commutative()
        struct = flagship_pair.structure_constants()
        d0, e0 = report.witness
        for d in range(flagship_pair.dim):
            for e in range(d + 1, flagship_pair.dim):
                if (d, e) == (d0, e0):
                    return
                assert np.array_equal(struct[d, e], struct[e, d])


class TestCornerIsomorphism:
    def test_s3_s2(self, s3_s2_pair):
        ok, detail = corner_isomorphism_check(s3_s2_pair)
        assert ok, detail

    def test_s4_d4(self, s4_d4_pair):
        ok, detail = corner_isomorphism_check(s4_d4_pair)
        assert ok, detail

    def test_trivial_subgroup_is_the_group_algebra(self):
        pair = HeckePair(symmetric_group(4), trivial_group(4))
        assert pair.dim == 24
        ok, detail = corner_isomorphism_check(pair)
        assert ok, detail

    def test_structure_constants_match_oracle(self, s3_s2_pair):
        # multiply indicators inside the group algebra and re-expand
        carrier = EnumeratedGroup(s3_s2_pair.group)
        from groupalg import convolve as gconv
        h_order = s3_s2_pair.subgroup.order()
        struct = s3_s2_pair.structure_constants()
        classes = s3_s2_pair.class_of_coset[
            s3_s2_pair.cosets.cosets_of([p.images for p in carrier.elements])]
        indicators = []
        for j in range(s3_s2_pair.dim):
            coeffs = {p: Fraction(1, h_order)
                      for p, c in zip(carrier.elements, classes) if c == j}
            indicators.append(oracles.algebra_element(carrier, coeffs))
        for i in range(s3_s2_pair.dim):
            for j in range(s3_s2_pair.dim):
                product = hecke_image(gconv(indicators[i], indicators[j]), s3_s2_pair)
                expected = [(Fraction(int(c)), Fraction(0)) for c in struct[i, j]]
                got = [product.exact.coeff(t) for t in range(s3_s2_pair.dim)]
                assert got == expected


class TestTreeIdentification:
    def test_level_pair_equals_depth_pair_for_regular_tree(self, flagship_pair):
        level_pair = PairSpec.level(2, 2, 3).pair()
        assert level_pair.group.same_group(flagship_pair.group)
        assert level_pair.subgroup.same_group(flagship_pair.subgroup)
        assert level_pair.table.sizes == flagship_pair.table.sizes

    def test_unimodularity_of_constructed_pairs(self, flagship_pair, s4_d4_pair,
                                                s3_s2_pair):
        for pair in (flagship_pair, s4_d4_pair, s3_s2_pair):
            assert pair.table.is_unimodular()
