import cmath
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from heckelab.errors import SearchFailureError
from heckelab.hecke import HeckePair, PairSpec
from heckelab.permgroup import PermGroup, Permutation, symmetric_group
from heckelab.treefam import TreeShape
from heckelab.witness import (ACCEPT_CEILING, ATOM_ANGLE_GAP, DEFAULT_TOLERANCES,
                              SpectralData, WitnessCertificate, cluster_spectrum,
                              decay_table, fejer_coefficients, haar_convergence_check,
                              moment_table, root_of_unity_scan, search_witness,
                              selfadjoint_from_parameters, spectral_data,
                              unitary_from_selfadjoint, verify_certificate)

import oracles
from conftest import examples


def _saved_and_loaded(cert, path):
    path.write_text(json.dumps(cert.to_json_dict()) + "\n")
    return WitnessCertificate.load(path)


class TestUnitaries:
    def test_zero_exponent_gives_the_unit(self, flagship_pair):
        unit = np.eye(flagship_pair.dim)[0]
        u, _ = unitary_from_selfadjoint(flagship_pair, np.zeros(flagship_pair.dim))
        assert np.max(np.abs(flagship_pair.lambda_matrix(u)
                             - np.eye(flagship_pair.size))) < 1e-14
        assert np.max(np.abs(u - unit)) < 1e-14

    def test_scalar_exponent(self, flagship_pair):
        t = 0.73
        unit = np.eye(flagship_pair.dim)[0]
        u, _ = unitary_from_selfadjoint(flagship_pair, t * unit)
        assert np.max(np.abs(u - cmath.exp(1j * t) * unit)) < 1e-12

    def test_random_selfadjoint_exponentials_stay_in_the_algebra(self, flagship_pair):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            a = selfadjoint_from_parameters(flagship_pair,
                                            1.5 * rng.standard_normal(flagship_pair.dim))
            _, defect = unitary_from_selfadjoint(flagship_pair, a)
            assert defect <= 1e-10

    def test_rejects_non_selfadjoint_input(self, flagship_pair):
        coef = np.zeros(flagship_pair.dim, dtype=complex)
        coef[1] = 1.0  # star pairs class 1 with itself only if coefficient real
        coef[1] = 1j
        with pytest.raises(ValueError):
            unitary_from_selfadjoint(flagship_pair, coef)

    def test_selfadjoint_parameterization_roundtrip(self, flagship_pair):
        rng = np.random.default_rng(7)
        coef = selfadjoint_from_parameters(flagship_pair,
                                           rng.standard_normal(flagship_pair.dim))
        assert np.max(np.abs(coef - np.conj(coef[flagship_pair.inverse_class]))) < 1e-15

    @pytest.mark.parametrize("count", [15, 17, 0])
    def test_parameter_count_is_the_dimension(self, flagship_pair, count):
        with pytest.raises(ValueError, match=f"takes 16 real parameters, not {count}"):
            selfadjoint_from_parameters(flagship_pair, np.ones(count))


# (pair, number of star pairs d < d*): three, one and none
SELFADJOINT_PAIRS = {
    "S8-Q3": (lambda: PairSpec.depth(2, 3).pair(), 3),
    "S5-C5": (lambda: HeckePair(symmetric_group(5), PermGroup(
        5, [Permutation.from_cycles(5, [0, 1, 2, 3, 4])])), 1),
    "S9-Q2": (lambda: PairSpec.depth(3, 2).pair(), 0),
}


@pytest.fixture(scope="module", params=sorted(SELFADJOINT_PAIRS))
def selfadjoint_pair(request):
    make, star_pairs = SELFADJOINT_PAIRS[request.param]
    pair = make()
    assert int(np.sum(pair.inverse_class > np.arange(pair.dim))) == star_pairs
    return pair


@settings(max_examples=examples(20), deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.1, 3.0))
def test_selfadjoint_parameters_match_the_layout(selfadjoint_pair, seed, scale):
    params = scale * np.random.default_rng(seed).standard_normal(selfadjoint_pair.dim)
    assert selfadjoint_from_parameters(selfadjoint_pair, params).tobytes() == \
        oracles.selfadjoint_by_layout(selfadjoint_pair, params).tobytes()


class TestMoments:
    def test_unit_has_constant_moments(self, flagship_pair):
        table = moment_table(np.eye(flagship_pair.size), 32)
        assert np.allclose(table, 1.0)

    def test_scalar_rotation(self, flagship_pair):
        theta = 0.41
        matrix = cmath.exp(1j * theta) * np.eye(flagship_pair.size)
        table = moment_table(matrix, 16)
        expected = np.exp(1j * theta * np.arange(1, 17))
        assert np.max(np.abs(table - expected)) < 1e-12

    def test_moments_bounded_by_one(self, flagship_pair):
        rng = np.random.default_rng(12)
        a = selfadjoint_from_parameters(flagship_pair,
                                        2.0 * rng.standard_normal(flagship_pair.dim))
        u, _ = unitary_from_selfadjoint(flagship_pair, a)
        table = moment_table(flagship_pair.lambda_matrix(u), 1000)
        assert np.max(np.abs(table)) <= 1.0 + 1e-8


class TestSearch:
    def test_rejects_commutative_pairs(self):
        with pytest.raises(ValueError):
            search_witness(PairSpec.depth(2, 2).pair())

    @pytest.mark.parametrize("make", [
        lambda: HeckePair(symmetric_group(5),
                          PermGroup(5, [Permutation.from_cycles(5, [0, 1], [2, 3])])),
        lambda: HeckePair(symmetric_group(6),
                          PermGroup(6, [Permutation.from_cycles(6, [0, 1, 2])])),
        lambda: PairSpec.level(2, 3, 2).pair(),
    ])
    def test_untagged_pairs_get_no_certificate(self, make):
        # a certificate's (d, l) rebuild its pair; none may be invented
        with pytest.raises(ValueError, match="tree parameters"):
            search_witness(make())

    def test_tree_pairs_carry_their_parameters(self, flagship_pair, flagship_certificate):
        assert flagship_pair.spec.fields == {"d": 2, "l": 3}
        assert (flagship_certificate.d, flagship_certificate.l) == (2, 3)
        assert PairSpec.depth(3, 2).pair().spec.fields == {"d": 3, "l": 2}

    def test_certificate_bound(self, flagship_certificate):
        cert = flagship_certificate
        assert cert.max_abs_moment <= 1.0 - 1e-6
        assert cert.max_abs_moment <= ACCEPT_CEILING
        assert cert.k_max == 1024

    def test_moments_replay(self, flagship_pair, flagship_certificate):
        cert = flagship_certificate
        u = cert.u_coefficients[flagship_pair.cell_class]
        v = cert.v_coefficients[flagship_pair.cell_class]
        w = u @ v @ u.conj().T @ v.conj().T
        table = moment_table(w, cert.k_max)
        assert np.max(np.abs(table - cert.moments)) < 1e-8

    def test_search_is_deterministic(self, flagship_pair, flagship_certificate):
        again = search_witness(flagship_pair)
        assert json.dumps(again.to_json_dict()) == \
            json.dumps(flagship_certificate.to_json_dict())

    def test_budget_exhaustion_reports_best(self, flagship_pair, monkeypatch):
        import heckelab.witness as witness_module
        monkeypatch.setattr(witness_module, "ACCEPT_CEILING", 1e-9)
        with pytest.raises(SearchFailureError) as info:
            search_witness(flagship_pair, budget=2)
        assert info.value.best_score is not None
        assert info.value.best_score > 1e-9

    def test_acceptance_ceiling_keeps_clear_of_the_moment_margin(self):
        assert ACCEPT_CEILING < 1.0 - DEFAULT_TOLERANCES["moment_margin"]

    def test_candidates_are_scored_over_the_full_range(self, flagship_pair, monkeypatch):
        # seed 54's first candidate scores above ACCEPT_CEILING; its second is accepted
        import heckelab.witness as witness_module
        ranges = []

        def recording(matrix, k_max):
            ranges.append(k_max)
            return moment_table(matrix, k_max)

        monkeypatch.setattr(witness_module, "moment_table", recording)
        cert = search_witness(flagship_pair, seed=54)
        assert ranges == [cert.k_max] * 2
        assert verify_certificate(cert, flagship_pair).ok


class TestSpectra:
    def test_weights_sum_to_one(self, flagship_pair, flagship_certificate):
        assert abs(flagship_certificate.weights.sum() - 1.0) < 1e-8
        assert flagship_certificate.weights.min() >= -1e-10

    def test_reconstruction_matches_moments(self, flagship_certificate):
        spec = SpectralData(flagship_certificate.angles, flagship_certificate.weights)
        recon = spec.reconstruct(flagship_certificate.k_max)
        assert np.max(np.abs(recon - flagship_certificate.moments)) < 1e-8

    def test_clustering_preserves_mass(self, flagship_certificate):
        spec = SpectralData(flagship_certificate.angles, flagship_certificate.weights)
        atoms = cluster_spectrum(spec)
        assert abs(atoms.weights.sum() - 1.0) < 1e-12
        assert len(atoms.angles) < len(spec.angles)

    def test_root_scan_reports_distinct_atoms(self, flagship_certificate):
        spec = SpectralData(flagship_certificate.angles, flagship_certificate.weights)
        scan = root_of_unity_scan(spec, 360)
        assert scan["visible_atoms"] >= 2
        assert scan["min_distance"] > 0

    @pytest.mark.parametrize("source", ["mirror", "flagship"])
    def test_root_scan_ties_report_the_least_pair(self, source, flagship_certificate):
        # atoms θ, −θ make mirror pairs with equal distances; rounding noise
        # must not decide which of them is reported
        if source == "mirror":
            angles = np.array([0.0, 0.7, -0.7, 1.9, -1.9, 2.6, -2.6])
            weights = np.full(7, 1 / 7)
        else:
            angles = flagship_certificate.angles
            weights = flagship_certificate.weights
        exact = root_of_unity_scan(SpectralData(angles, weights), 360)
        atoms = cluster_spectrum(SpectralData(angles, weights))
        visible = atoms.angles[atoms.weights > 1e-4]
        diffs = np.subtract.outer(visible, visible)[np.triu_indices(len(visible), 1)]
        brute = np.abs(np.exp(1j * np.outer(diffs, np.arange(1, 361))) - 1.0).min()
        assert exact["min_distance"] == brute
        rng = np.random.default_rng(11)
        for _ in range(20):
            noisy = angles + rng.uniform(-1e-13, 1e-13, len(angles))
            scan = root_of_unity_scan(SpectralData(noisy, weights), 360)
            assert (scan["pair"], scan["m"]) == (exact["pair"], exact["m"])
            assert abs(scan["min_distance"] - exact["min_distance"]) < 1e-9

    @settings(max_examples=examples(200), deadline=None)
    @given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                              st.floats(allow_nan=False, allow_infinity=False)),
                    min_size=1, max_size=8))
    # two equal angles of weight 1e308 merge into an atom of weight inf at
    # angle -0, which then swallows the next atom with a NaN angle
    @example([(-0.3, 1e308), (-0.3, 1e308), (-0.26, 0.2), (0.1, 0.3)])
    def test_root_scan_never_raises_on_finite_spectra(self, atoms):
        angles, weights = map(np.array, zip(*atoms))
        scan = root_of_unity_scan(SpectralData(angles, weights), 360)
        if scan["pair"] is None:
            assert scan["m"] is None
        else:
            assert 1 <= scan["m"] <= 360 and scan["min_distance"] <= 2

    def test_clustering_keeps_overflowing_atoms_in_place(self):
        # merged into a running mean, the two weights 1e308 overflowed to an
        # atom at NaN that absorbed the atom at -0.26
        spec = SpectralData(np.array([-0.297, -0.297, -0.26, 1.0]),
                            np.array([1e308, 1e308, 0.2, 0.3]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            atoms = cluster_spectrum(spec)
        assert atoms.angles.tolist() == [-0.297, -0.26, 1.0]
        assert atoms.weights.tolist() == [float("inf"), 0.2, 0.3]

    @settings(max_examples=examples(200), deadline=None)
    @given(st.lists(st.tuples(st.floats(-np.pi, np.pi),
                              st.floats(0, 1e308)), min_size=1, max_size=8),
           st.data())
    def test_atoms_are_finite_and_hold_their_angles(self, atoms, data):
        # clusters of near-equal angles, the ones the gap merges
        angles, weights = map(list, zip(*atoms))
        for i in data.draw(st.lists(st.integers(0, len(angles) - 1), max_size=4)):
            angles.append(angles[i] + data.draw(st.floats(0, 2 * ATOM_ANGLE_GAP)))
            weights.append(data.draw(st.floats(0, 1e308)))
        clustered = cluster_spectrum(SpectralData(np.array(angles), np.array(weights)))
        assert np.isfinite(clustered.angles).all()
        # an atom's angle lies inside it, so an input angle within the gap
        # of its atom's first angle is within the gap of the atom's angle
        slack = ATOM_ANGLE_GAP + 1e-12
        for theta in angles:
            gaps = np.abs(clustered.angles - theta)
            assert np.minimum(gaps, 2 * np.pi - gaps).min() <= slack

    def test_spectral_data_of_diagonal_matrix(self):
        angles = np.array([0.3, -1.2, 2.5])
        matrix = np.diag(np.exp(1j * angles))
        spec = spectral_data(matrix)
        assert spec.offdiagonal_residual < 1e-12
        assert abs(spec.weights.sum() - 1.0) < 1e-12
        # the base vector is the first basis vector, so one weight is 1
        assert np.isclose(max(spec.weights), 1.0)


class TestCertificateSerialization:
    def test_round_trip_is_bit_exact(self, flagship_certificate, tmp_path):
        path = tmp_path / "cert.json"
        loaded = _saved_and_loaded(flagship_certificate, path)
        assert np.array_equal(loaded.moments, flagship_certificate.moments)
        assert np.array_equal(loaded.u_coefficients,
                              flagship_certificate.u_coefficients)
        assert loaded.tolerances == flagship_certificate.tolerances
        # serialize again: identical bytes
        path2 = tmp_path / "cert2.json"
        _saved_and_loaded(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            WitnessCertificate.from_json_dict({"format": "bogus"})


class TestVerification:
    def test_fresh_certificate_verifies(self, flagship_pair, flagship_certificate):
        report = verify_certificate(flagship_certificate, flagship_pair)
        assert report.ok, report.failures

    def test_perturbed_coefficient_fails(self, flagship_pair, flagship_certificate,
                                         tmp_path):
        bad = _saved_and_loaded(flagship_certificate, tmp_path / "cert.json")
        bad.u_coefficients[2] += 1e-3
        report = verify_certificate(bad, flagship_pair)
        assert not report.ok
        assert {"unitarity-u", "moment-table"} & set(report.failures)

    def test_permuted_basis_fails(self, flagship_pair, flagship_certificate, tmp_path):
        bad = _saved_and_loaded(flagship_certificate, tmp_path / "cert.json")
        bad.basis = [bad.basis[1], bad.basis[0]] + list(bad.basis[2:])
        report = verify_certificate(bad, flagship_pair)
        assert report.failures == ["basis-order"]

    def test_tampered_moment_fails(self, flagship_pair, flagship_certificate,
                                   tmp_path):
        bad = _saved_and_loaded(flagship_certificate, tmp_path / "cert.json")
        bad.moments[17] *= 1.001
        report = verify_certificate(bad, flagship_pair)
        assert "moment-table" in report.failures or \
            "spectral-reconstruction" in report.failures

    def test_rebuilds_pair_from_parameters(self, flagship_certificate):
        cert = flagship_certificate
        assert verify_certificate(cert, PairSpec.depth(cert.d, cert.l).pair()).ok

    def test_trivial_certificate_fails(self, flagship_pair, flagship_certificate,
                                       tmp_path):
        # u = v = e_H, so w = 1 and every moment is 1; a zero moment margin
        # stored in the certificate must not make that a witness
        data = flagship_certificate.to_json_dict()
        unit = [1.0] + [0.0] * (flagship_pair.dim - 1)
        zeros = [0.0] * flagship_pair.dim
        data["u"] = data["v"] = {"re": unit, "im": zeros}
        data["moments"] = {"re": [1.0] * 1024, "im": [0.0] * 1024}
        data["max_abs_moment"] = 1.0
        data["spectral"] = {"angles": [0.0] * flagship_pair.dim, "weights": unit}
        data["tolerances"]["moment_margin"] = 0
        report = verify_certificate(WitnessCertificate.from_json_dict(data), flagship_pair)
        assert not report.ok
        assert {"tolerances", "moment-bound"} <= set(report.failures)
        # w is the identity: τ(w^{-k}) = conj(τ(w^k)) = 1 exactly
        assert report.diagnostics["conjugate_symmetry_defect"] < 1e-15

    def test_extra_spectral_atom_fails(self, flagship_pair, flagship_certificate):
        # an atom of weight 0 changes no moment, but w has one atom per basis class
        data = flagship_certificate.to_json_dict()
        data["spectral"]["angles"].append(0.5)
        data["spectral"]["weights"].append(0.0)
        report = verify_certificate(WitnessCertificate.from_json_dict(data), flagship_pair)
        assert report.failures == ["spectral-length"]

    def test_loosened_unitarity_tolerance_fails(self, flagship_pair,
                                                flagship_certificate):
        data = flagship_certificate.to_json_dict()
        data["tolerances"]["unitarity"] = 1.0
        report = verify_certificate(WitnessCertificate.from_json_dict(data), flagship_pair)
        assert report.failures == ["tolerances"]

    def test_stored_scan_order_does_not_size_the_scan(self, flagship_pair,
                                                       flagship_certificate):
        data = flagship_certificate.to_json_dict()
        data["tolerances"]["root_scan_order"] = 10 ** 12
        report = verify_certificate(WitnessCertificate.from_json_dict(data), flagship_pair)
        assert report.ok
        assert report.diagnostics == verify_certificate(
            flagship_certificate, flagship_pair).diagnostics

    def test_stricter_tolerances_pass(self, flagship_pair, flagship_certificate):
        data = flagship_certificate.to_json_dict()
        data["tolerances"]["unitarity"] = DEFAULT_TOLERANCES["unitarity"] / 10
        data["tolerances"]["moment_margin"] = DEFAULT_TOLERANCES["moment_margin"] * 10
        report = verify_certificate(WitnessCertificate.from_json_dict(data), flagship_pair)
        assert report.ok, report.failures


class TestDecay:
    def test_level_one_row_equals_base_moments(self, flagship_certificate):
        shape = TreeShape(2, 2)
        # a level of size 1 reproduces the base moment table
        assert shape.level_size(0) == 1
        k = 5
        row, = haar_convergence_check(flagship_certificate, {0: 0.0, k: 1.0}, [0], shape)
        assert row["value"] == pytest.approx(complex(flagship_certificate.moments[k - 1]))

    def test_zero_moment_gives_zero_column(self, flagship_certificate):
        synthetic = WitnessCertificate(
            d=2, l=3, basis=flagship_certificate.basis,
            u_coefficients=flagship_certificate.u_coefficients,
            v_coefficients=flagship_certificate.v_coefficients,
            angles=flagship_certificate.angles,
            weights=flagship_certificate.weights,
            moments=np.zeros(8, dtype=complex),
            max_abs_moment=0.0)
        shape = TreeShape(2, 2)
        for row in haar_convergence_check(synthetic, {0: 0.0, 3: 1.0}, range(1, 5), shape):
            assert row["value"] == 0
        assert decay_table(synthetic, shape, n_max=4).max_by_level == [0.0] * 4

    def test_entries_decrease_along_levels(self, flagship_certificate):
        shape = TreeShape(2, 2)
        for k in (1, 7, 100):
            rows = haar_convergence_check(flagship_certificate, {0: 0.0, k: 1.0},
                                          range(1, 12), shape)
            for previous, row in zip(rows, rows[1:]):
                assert abs(row["value"]) <= abs(previous["value"]) + 1e-15

    def test_report_reaches_threshold(self, flagship_certificate):
        report = decay_table(flagship_certificate, TreeShape(2, 2), n_max=20)
        assert report.first_level_below is not None
        assert report.first_level_below <= 20
        assert report.max_by_level == sorted(report.max_by_level, reverse=True)

    def test_plain_exponent_column_lags_tensor_column(self, flagship_certificate):
        report = decay_table(flagship_certificate, TreeShape(2, 2), n_max=10)
        for tensor, plain in zip(report.max_by_level, report.max_by_level_plain):
            assert tensor <= plain + 1e-15


class TestCircleAverages:
    def test_constant_polynomial(self, flagship_certificate):
        rows = haar_convergence_check(flagship_certificate, {0: 1.0},
                                      range(1, 6), TreeShape(2, 2))
        for row in rows:
            assert row["deviation"] == 0.0

    def test_single_moment_polynomial(self, flagship_certificate):
        shape = TreeShape(2, 2)
        rows = haar_convergence_check(flagship_certificate, {0: 0.0, 1: 1.0},
                                      range(1, 8), shape)
        base = abs(complex(flagship_certificate.moments[0]))
        for row in rows:
            expected = base ** shape.level_size(row["n"])
            assert row["deviation"] == pytest.approx(expected)

    def test_fejer_deviations_decrease_below_threshold(self, flagship_certificate):
        coeffs = fejer_coefficients()
        assert coeffs[0] == pytest.approx(0.1)
        assert all(c >= 0 for c in coeffs.values())
        rows = haar_convergence_check(flagship_certificate, coeffs,
                                      range(1, 21), TreeShape(2, 2))
        bounds = [row["bound"] for row in rows]
        assert bounds == sorted(bounds, reverse=True)
        assert rows[-1]["deviation"] < 1e-3
        assert min(row["deviation"] for row in rows) < 1e-3


class TestTensorCrossCheck:
    def test_kronecker_trace_on_s4_d4(self, s4_d4_pair):
        rng = np.random.default_rng(3)
        x = oracles.random_exact_element(s4_d4_pair, rng).exact.to_complex()
        result = oracles.kronecker_trace_check(s4_d4_pair, x)
        assert result["difference"] <= 1e-10

    def test_kronecker_trace_on_a_unitary(self, s4_d4_pair):
        rng = np.random.default_rng(5)
        a = selfadjoint_from_parameters(s4_d4_pair,
                                        rng.standard_normal(s4_d4_pair.dim))
        u, _ = unitary_from_selfadjoint(s4_d4_pair, a)
        result = oracles.kronecker_trace_check(s4_d4_pair, u)
        assert result["difference"] <= 1e-10
