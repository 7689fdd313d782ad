"""Acceptance suite: one test per contract criterion, with stated tolerances.

Each test prints a single pass line (visible under `pytest -s`); a failed
assertion marks the criterion red.  Criteria with runtime budgets measure
the complete computation they cover, building their objects fresh.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import numpy as np

from heckelab.embed import (check_commutation, scenario_report, scenario_s2_squared,
                            scenario_s4_d4)
from heckelab.hecke import PairSpec, convolve, trace_inner_product
from heckelab.permgroup import (DoubleCosetTable, Permutation, dihedral_square,
                                symmetric_group)
from heckelab.spheromorph import (AlmostAutomorphism, compose, double_coset_key, inverse,
                                  random_tree_automorphism)
from heckelab.treefam import TreeShape, ball_aut_group, q_group, wreath_group
from heckelab.witness import (WitnessCertificate, decay_table, fejer_coefficients,
                              haar_convergence_check, search_witness, verify_certificate)

from groupalg import corner_isomorphism_check
import oracles


def _report(num: int, text: str):
    print(f"\n[criterion {num:02d}] PASS  {text}")


def test_criterion_01_double_coset_tables():
    start = time.perf_counter()
    small = DoubleCosetTable(symmetric_group(4), dihedral_square())
    assert len(small) == 2
    assert sorted(small.sizes) == [8, 16]

    q3 = q_group(2, 3)
    assert q3.order() == 128
    big = DoubleCosetTable(symmetric_group(8), q3)
    assert len(big.cosets) == 315
    assert sum(big.sizes) == 40320
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(1, f"(S_4,D_4) sizes {{8,16}}; (S_8,Q_3) sums to 40320 over "
               f"index 315; {elapsed:.2f}s")


def test_criterion_02_unimodularity(flagship_pair):
    table = flagship_pair.table
    assert (table.r_index == table.r_index[table.inverse_class]).all()
    _report(2, "R(rep) = R(rep^{-1}) on every (S_8,Q_3) class, exactly")


def test_criterion_03_oracle_equivalence(s3_s2_pair, s4_d4_pair):
    start = time.perf_counter()
    for pair in (s3_s2_pair, s4_d4_pair):
        ok, detail = corner_isomorphism_check(pair)
        assert ok, detail
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(3, f"Hecke products and traces match the group-algebra corners "
               f"exactly; {elapsed:.2f}s")


def test_criterion_04_trace_axioms(flagship_pair):
    rng = np.random.default_rng(20240801)
    zero = Fraction(0)
    for _ in range(100):
        f = oracles.random_exact_element(flagship_pair, rng)
        g = oracles.random_exact_element(flagship_pair, rng)
        assert convolve(f, g).trace() == convolve(g, f).trace()
        norm_re, norm_im = trace_inner_product(f, f)
        assert norm_im == zero
        assert norm_re == oracles.trace_norm_formula(f)
        if not f.is_zero():
            assert norm_re > zero
    _report(4, "τ(fg) = τ(gf) and τ(f*f) > 0 on 100 seeded exact elements, exactly")


def test_criterion_05_gelfand_verdicts():
    start = time.perf_counter()
    commutative = PairSpec.depth(2, 2).pair()
    assert commutative.is_commutative().commutative

    noncommutative = PairSpec.depth(2, 3).pair()
    verdict = noncommutative.is_commutative()
    assert not verdict.commutative
    d, e = verdict.witness
    A = noncommutative.basis_matrix(d)
    B = noncommutative.basis_matrix(e)
    row, col, value = verdict.entry
    assert (A @ B - B @ A)[row, col] == value != 0
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(5, f"(d=2,l=2) commutative, (d=2,l=3) noncommutative with witness "
               f"basis pair {verdict.witness}; {elapsed:.2f}s")


def test_criterion_06_embedding_axioms():
    start = time.perf_counter()
    for scenario in (scenario_s2_squared(), scenario_s4_d4()):
        report = scenario_report(scenario)
        assert all(report.invariant_axioms.values()), report.rows()
        assert all(report.top_axioms.values()), report.rows()
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(6, f"x ↦ x·p_Γ multiplicative, star/trace-preserving, injective on "
               f"both pinned scenarios; {elapsed:.2f}s")


def test_criterion_07_corollary_commutation():
    for scenario in (scenario_s2_squared(), scenario_s4_d4()):
        assert check_commutation(scenario)
    _report(7, "embedded invariant corner commutes with the embedded top "
               "corner, exactly")


def test_criterion_08_wreath_identification():
    for l, n in ((1, 1), (1, 2), (2, 1)):
        shape = TreeShape(2, 2)
        assert wreath_group(shape, l, n).same_group(ball_aut_group(shape, n + l))
    _report(8, "Q_l^{|V_n|} ⋊ P_n = P_{n+l} for (l,n) in {(1,1),(1,2),(2,1)}, "
               "equal orders and containment")


def test_criterion_09_witness_certificate(tmp_path):
    start = time.perf_counter()
    pair = PairSpec.depth(2, 3).pair()
    cert = search_witness(pair)
    assert cert.max_abs_moment <= 1.0 - 1e-6
    for coefficients in (cert.u_coefficients, cert.v_coefficients):
        U = pair.lambda_matrix(coefficients)
        assert np.linalg.norm(U @ U.conj().T - np.eye(pair.size)) <= 1e-10
    k = np.arange(1, cert.k_max + 1)
    reconstruction = np.exp(1j * np.outer(k, cert.angles)) @ cert.weights
    assert np.max(np.abs(reconstruction - cert.moments)) <= 1e-8

    report = verify_certificate(cert, pair)
    assert report.ok, report.failures

    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert.to_json_dict()))
    tampered = WitnessCertificate.load(path)
    tampered.v_coefficients[1] += 1e-3
    assert not verify_certificate(tampered, pair).ok
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report(9, f"certificate: max|τ(w^k)| = {cert.max_abs_moment:.6f} ≤ 1-1e-6 "
               f"over k ≤ 1024, verification round trip; {elapsed:.2f}s")


def test_criterion_10_decay_and_circle_averages(flagship_certificate):
    start = time.perf_counter()
    shape = TreeShape(2, 2)
    assert shape.level_size(5) == 32  # |V_n| = 2^n for d = k = 2
    report = decay_table(flagship_certificate, shape, n_max=20)
    assert report.first_level_below is not None
    assert report.first_level_below <= 20

    coefficients = fejer_coefficients()
    rows = haar_convergence_check(flagship_certificate, coefficients,
                                  range(1, 21), shape)
    bounds = [row["bound"] for row in rows]
    assert bounds == sorted(bounds, reverse=True)
    assert rows[-1]["deviation"] < 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(10, f"decay below 1e-3 first at n = {report.first_level_below}; "
                f"circle-average deviation falls to {rows[-1]['deviation']:.2e}; "
                f"{elapsed:.2f}s")


def test_criterion_11_kronecker_cross_check(s4_d4_pair):
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(5):
        x = oracles.random_exact_element(s4_d4_pair, rng).exact.to_complex()
        result = oracles.kronecker_trace_check(s4_d4_pair, x)
        worst = max(worst, result["difference"])
    assert worst <= 1e-10
    _report(11, f"τ(x⊗x) = τ(x)² against explicit Kronecker traces, "
                f"worst gap {worst:.2e} ≤ 1e-10")


def test_criterion_12_spheromorph_suite(flagship_pair):
    start = time.perf_counter()
    shape = TreeShape(2, 2)
    rng = random.Random(20240809)
    identity = AlmostAutomorphism.identity(shape)
    for _ in range(1000):
        g = oracles.random_element(shape, rng)
        h = oracles.random_element(shape, rng)
        f = oracles.random_element(shape, rng)
        assert compose(compose(g, h), f) == compose(g, compose(h, f))
        assert compose(g, inverse(g)).is_identity()
        assert compose(g, identity) == g

    for _ in range(500):
        sigma = Permutation(rng.sample(range(4), 4))
        g = AlmostAutomorphism.from_level_permutation(shape, 2, sigma)
        k1 = random_tree_automorphism(shape, rng)
        k2 = random_tree_automorphism(shape, rng)
        assert double_coset_key(compose(compose(k1, g), k2), 2) == \
            double_coset_key(g, 2)

    p2 = ball_aut_group(shape, 2)
    table = DoubleCosetTable(symmetric_group(4), p2)
    keys = {}
    for images in itertools.permutations(range(4)):
        g = AlmostAutomorphism.from_level_permutation(shape, 2, Permutation(images))
        keys.setdefault(double_coset_key(g, 2).images, set()).add(images)
    reps = [tuple(rep) for rep in table.representatives.tolist()]
    assert set(keys) == set(reps)
    for rep, size in zip(reps, table.sizes):
        assert len(keys[rep]) == size
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(12, f"group axioms on 1000 triples, key bi-invariance on 500 cases, "
                f"complete key invariant at n = 2; {elapsed:.2f}s")
