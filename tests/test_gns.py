"""The witness search on the GNS space of τ against the λ-representation.

`unitary_from_selfadjoint` and the search work on coefficient arrays and
dim × dim matrices (`gns_matrix`); `oracles.lambda_exponential` is the
size × size coset-space exponential they replaced, and λ-matrices are what
`verify_certificate` uses.  Coefficients, products and commutator moments
must agree.
"""

import json

import numpy as np
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from heckelab import hecke
from heckelab.hecke import HeckePair, PairSpec
from heckelab.witness import (_commutator, gns_matrix, moment_table, search_witness,
                              selfadjoint_from_parameters, unitary_from_selfadjoint)

import oracles
from conftest import examples
from test_kernel import symmetric_over_cyclic

QUICK = settings(deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])
seeds = st.integers(0, 2 ** 32 - 1)
scales = st.floats(0.1, 3.0)


def random_selfadjoint(pair, rng, scale):
    return selfadjoint_from_parameters(pair, scale * rng.standard_normal(pair.dim))


def assert_gns_matches_lambda(pair, seed, scale):
    rng = np.random.default_rng(seed)
    a, b = random_selfadjoint(pair, rng, scale), random_selfadjoint(pair, rng, scale)
    u, v = unitary_from_selfadjoint(pair, a), unitary_from_selfadjoint(pair, b)
    for x, (unitary, defect) in ((a, u), (b, v)):
        coef, residual = oracles.lambda_exponential(pair, x)
        assert residual <= 1e-8
        assert np.max(np.abs(unitary - coef)) <= 1e-12
        assert defect <= 1e-10
    # the float product is the λ-product
    lam_u, lam_v = pair.lambda_matrix(u[0]), pair.lambda_matrix(v[0])
    product = pair.lambda_matrix(pair.left_matrix(u[0]) @ v[0])
    assert np.max(np.abs(product - lam_u @ lam_v)) <= 1e-10
    gns = moment_table(_commutator(gns_matrix(pair, u[0]), gns_matrix(pair, v[0])), 1024)
    lam = moment_table(_commutator(lam_u, lam_v), 1024)
    assert np.max(np.abs(gns - lam)) <= 1e-9


@settings(QUICK, max_examples=examples(10))
@given(seeds, scales)
def test_flagship(flagship_pair, seed, scale):
    assert_gns_matches_lambda(flagship_pair, seed, scale)


@settings(QUICK, max_examples=examples(25))
@given(symmetric_over_cyclic(), seeds, scales)
def test_noncommutative_small_pairs(gh, seed, scale):
    pair = HeckePair(*gh)
    assume(not pair.is_commutative().commutative)
    assert_gns_matches_lambda(pair, seed, scale)


def test_gns_matrix_of_the_basis():
    # e_d acts by S·N[d]ᵀ·S⁻¹; e_d* e_d has trace R(d), the squared norm of e_d
    pair = PairSpec.depth(2, 3).pair()
    root = np.sqrt(pair.r_indices)
    for d in range(pair.dim):
        e = pair.basis_element(d)
        M = gns_matrix(pair, e.exact.to_complex())
        assert np.array_equal(pair.left_matrix(np.eye(pair.dim)[d]),
                              pair.structure_constants()[d].T)
        assert abs(M[d, 0] - root[d]) < 1e-12
        assert np.max(np.abs(gns_matrix(pair, e.star().exact.to_complex())
                             - M.conj().T)) < 1e-12


def test_search_builds_no_lambda_matrix(monkeypatch):
    pair = PairSpec.depth(2, 3).pair()
    cert = search_witness(pair)
    assert "cell_class" not in vars(pair)
    monkeypatch.setattr(hecke, "LAMBDA_CAP", 1)
    capped = search_witness(PairSpec.depth(2, 3).pair())
    assert json.dumps(capped.to_json_dict()) == json.dumps(cert.to_json_dict())
