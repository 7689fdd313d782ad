"""The numpy eigenbasis of `spectral_data` against the Schur reference.

`oracles.schur_spectral_data` is the complex Schur decomposition the
eigenbasis replaced.  Both must give the same spectral atoms (angles merged
by `cluster_spectrum`, with their weights) and the same reconstructed
moments, on the flagship commutators, on unitaries with repeated
eigenvalues, and on the spectra that defeated an earlier cosine/sine pencil
of e^{-iφ}w: angles θ and 2φ - θ that share its cosine, and close angles
near θ ≡ φ ± π/2, where its sine part is flat.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from heckelab.witness import _commutator, cluster_spectrum, search_witness, spectral_data

import oracles

#: the rotation φ of that pencil
PHI = 0.5772156649015329
ATOM_TOL = 1e-10


def assert_same_atoms(spectral, reference):
    ours, theirs = cluster_spectrum(spectral), cluster_spectrum(reference)
    assert len(ours.angles) == len(theirs.angles)
    # match atoms on the circle, where -π and π are one point
    for theta, mu in zip(ours.angles, ours.weights):
        gaps = np.abs(np.exp(1j * theirs.angles) - np.exp(1j * theta))
        j = int(np.argmin(gaps))
        assert gaps[j] < ATOM_TOL
        assert abs(theirs.weights[j] - mu) < ATOM_TOL


def haar_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def unitary_with_spectrum(rng, angles):
    """Q diag(e^{iθ}) Q* for a Haar-random Q, with its exact moments."""
    Q = haar_unitary(rng, len(angles))
    angles = np.asarray(angles, dtype=float)
    matrix = (Q * np.exp(1j * angles)) @ Q.conj().T
    weights = np.abs(Q[0, :]) ** 2
    exact = np.exp(1j * np.outer(np.arange(1, 65), angles)) @ weights
    return matrix, exact


@pytest.mark.parametrize("seed", range(8))
def test_flagship_commutators(flagship_pair, seed):
    cert = search_witness(flagship_pair, seed=seed)
    w = _commutator(flagship_pair.lambda_matrix(cert.u_coefficients),
                    flagship_pair.lambda_matrix(cert.v_coefficients))
    spec, reference = spectral_data(w), oracles.schur_spectral_data(w)
    assert spec.offdiagonal_residual < 1e-11
    assert abs(spec.weights.sum() - 1.0) < 1e-12
    assert_same_atoms(spec, reference)
    recon = spec.reconstruct(cert.k_max)
    assert np.max(np.abs(recon - reference.reconstruct(cert.k_max))) < 1e-10
    assert np.max(np.abs(recon - cert.moments)) < 1e-10


@st.composite
def repeated_spectra(draw):
    """Up to five distinct angles on a grid of step 2π/60 (so distinct ones
    stay 0.1 apart), each with multiplicity 1 to 4, and sometimes the angle
    2φ - θ that shares a cosine with one of them."""
    slots = draw(st.lists(st.integers(0, 59), min_size=1, max_size=5, unique=True))
    angles = [2 * np.pi * j / 60 + 0.1 for j in slots]
    if draw(st.booleans()):
        angles.append(2 * PHI - angles[0])
    counts = draw(st.lists(st.integers(1, 4), min_size=len(angles),
                           max_size=len(angles)))
    spectrum = [theta for theta, c in zip(angles, counts) for _ in range(c)]
    return draw(st.integers(0, 2 ** 32 - 1)), spectrum


@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(repeated_spectra())
# three angles in the flat band of the cosine, just above φ, one of them twice
@example((1, [0.7283185307179586, 0.6235987755982988, 0.5188790204786391,
              0.5188790204786391]))
def test_unitaries_with_repeated_eigenvalues(case):
    seed, spectrum = case
    matrix, exact = unitary_with_spectrum(np.random.default_rng(seed), spectrum)
    spec, reference = spectral_data(matrix), oracles.schur_spectral_data(matrix)
    assert spec.offdiagonal_residual < 1e-12
    assert_same_atoms(spec, reference)
    assert np.max(np.abs(spec.reconstruct(64) - exact)) < 1e-12


def collision(alpha):
    """θ = φ ± α twice and three times, which share the cosine cos(α)."""
    spectrum = [PHI + alpha] * 2 + [PHI - alpha] * 3 + [2.0, -1.0]
    return unitary_with_spectrum(np.random.default_rng(5), spectrum)


def test_pencil_collision_is_resolved():
    # θ and 2φ - θ share the cosine cos(θ - φ), in the flat and the steep band
    for alpha in (0.3, 1.2):
        matrix, exact = collision(alpha)
        spec = spectral_data(matrix)
        assert spec.offdiagonal_residual < 1e-12
        assert_same_atoms(spec, oracles.schur_spectral_data(matrix))
        assert np.max(np.abs(spec.reconstruct(64) - exact)) < 1e-12


def near_flat_sine(seed):
    """16 × 16 unitary with two angles 1e-10 to 1e-6 apart at φ ± π/2, and
    its exact moments up to k = 1024; when 3 divides the seed, also two angles
    within 1e-6 of sharing a cosine."""
    rng = np.random.default_rng(seed)
    centre = PHI + rng.choice([-1, 1]) * np.pi / 2
    angles = [centre, centre + 10.0 ** rng.uniform(-10, -6)]
    if seed % 3 == 0:
        theta = rng.uniform(-np.pi, np.pi)
        angles += [theta, 2 * PHI - theta + 10.0 ** rng.uniform(-10, -6)]
    angles = np.array(angles + list(rng.uniform(-np.pi, np.pi, 16 - len(angles))))
    Q = haar_unitary(rng, 16)
    matrix = (Q * np.exp(1j * angles)) @ Q.conj().T
    exact = np.exp(1j * np.outer(np.arange(1, 1025), angles)) @ (np.abs(Q[0]) ** 2)
    return matrix, exact


# the pencil's moments were off by 1.5e-10 to 5.6e-7 on each of these seeds
@pytest.mark.parametrize("seed", [0, 2, 3, 4, 6, 9, 11, 14])
def test_close_angles_where_the_pencil_sine_is_flat(seed):
    matrix, exact = near_flat_sine(seed)
    assert np.max(np.abs(spectral_data(matrix).reconstruct(1024) - exact)) <= 1e-10
