"""Witness unitaries with non-recurrent commutator moments, and their decay.

In a noncommutative Hecke algebra, this module searches for unitaries
u = exp(i·a), v = exp(i·b) (a, b self-adjoint elements of the algebra, so
membership is automatic) whose commutator w = u v u* v* has all moments
τ(w^k) bounded away from the unit circle on a verified range of k.  The
search works on plain complex coefficient arrays over the double-coset
basis, and on the GNS space of τ, where the basis vectors e_d are
orthogonal with ⟨e_d, e_e⟩ = δ_de·R(d): every element acts there by a
dim × dim matrix (`gns_matrix`), and τ(x) = ⟨x e_H, e_H⟩ as for λ(x) at
δ_H.  The moments of the tensor powers w^{⊗N} are then
τ(w^k)^N with N the level size, so each column decays geometrically; the
decay table and the comparison of trigonometric-polynomial averages against
their constant coefficient (the circle average) are computed directly from
the base moment table, never by forming tensor-power matrices.

Certificates serialize (u, v, moments, spectral data, tolerances) and are
re-verified from scratch by an independent reader, in the λ-representation
on ℓ²(H\\G) that the search never uses.  The verifier's thresholds are
`DEFAULT_TOLERANCES`, never the certificate's own: a certificate that
records looser ones fails.
"""

from __future__ import annotations

import cmath
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ScaleError, SearchFailureError
from .hecke import HeckePair, PairSpec
from .treefam import TreeShape

DEFAULT_TOLERANCES = {
    "unitarity": 1e-10,
    "moment_margin": 1e-6,
    "root_scan_order": 360,
}
DEFAULT_K_MAX = 1024
#: most moments a certificate may hold and the CLI's --k-max may ask for
K_MAX_CAP = 1 << 16
DEFAULT_BUDGET = 16
DEFAULT_SEED = 0
#: accept a candidate only if its full-range moment maximum is at most this;
#: keeps the certificate margin far from the 1 - 1e-6 contract line
ACCEPT_CEILING = 0.999
SELFADJOINT_TOL = 1e-12
#: root-scan candidates this close to the minimum distance count as ties
ROOT_SCAN_TIE = 1e-9
#: eigenvalue angles this close merge into one spectral atom
ATOM_ANGLE_GAP = 1e-8
#: atoms of at most this weight at δ_H are invisible to the root-of-unity scan
VISIBLE_WEIGHT = 1e-4
#: standard deviation of the random self-adjoint parameters of a candidate
CANDIDATE_SCALE = 1.7
#: `decay_table` reports the first level whose tensor-power maximum is below this
DECAY_THRESHOLD = 1e-3
#: order and constant coefficient of the Fejér kernel that `decay` averages
FEJER_ORDER, FEJER_MASS = 8, 0.1


# -- algebra-level unitaries -----------------------------------------------------

def gns_matrix(pair: HeckePair, coef) -> np.ndarray:
    """Left multiplication by the element with coefficients `coef` on the GNS
    space of τ, in the orthonormal basis e_d / √R(d): S·L·S⁻¹ with
    S = diag(√R), Hermitian when the element is self-adjoint and unitary
    when it is; entry (0, 0) is its trace."""
    root = np.sqrt(pair.r_indices)
    return root[:, None] * pair.left_matrix(coef) / root


def _unitarity_defect(matrix: np.ndarray) -> float:
    return float(np.linalg.norm(matrix @ matrix.conj().T - np.eye(len(matrix))))


def selfadjoint_from_parameters(pair: HeckePair, params) -> np.ndarray:
    """Coefficients of the self-adjoint element with these `pair.dim` real
    parameters, taken in class order: a self-paired class d takes one as
    c_d, a class d below its star class d* takes two as the real and
    imaginary parts of c_d, and d* holds the conjugate of c_d."""
    if len(params) != pair.dim:
        raise ValueError(f"a self-adjoint element takes {pair.dim} real "
                         f"parameters, not {len(params)}")
    values = iter(params)
    coef = np.zeros(pair.dim, dtype=np.complex128)
    for d, dstar in enumerate(pair.star_map.tolist()):
        if d == dstar:
            coef[d] = next(values)
        elif d < dstar:
            coef[d] = complex(next(values), next(values))
            coef[dstar] = coef[d].conjugate()
    return coef


def unitary_from_selfadjoint(pair: HeckePair, a) -> tuple:
    """exp(i·a) through one `eigh` of the Hermitian `gns_matrix(pair, a)`.

    exp(i·a) = exp(i·a)·e_H is column 0 of exp(i·L_a); in the orthonormal
    basis that column is scaled by √R, and R(0) = 1.  Returns the
    coefficients of exp(i·a) and its unitarity defect ‖U U* − 1‖
    (Frobenius), measured on the GNS space.
    """
    defect = float(np.max(np.abs(a - np.conj(a[pair.star_map]))))
    if defect > SELFADJOINT_TOL:
        raise ValueError(f"element is not self-adjoint (defect {defect:.2e})")
    eigenvalues, vectors = np.linalg.eigh(gns_matrix(pair, a))
    U = (vectors * np.exp(1j * eigenvalues)) @ vectors.conj().T
    return U[:, 0] / np.sqrt(pair.r_indices), _unitarity_defect(U)


# -- moments and spectra -----------------------------------------------------------

def moment_table(matrix: np.ndarray, k_max: int) -> np.ndarray:
    """τ(w^k) = ⟨w^k δ_H, δ_H⟩ for k = 1..k_max."""
    vector = np.zeros(matrix.shape[0], dtype=np.complex128)
    vector[0] = 1.0
    moments = np.empty(k_max, dtype=np.complex128)
    for k in range(k_max):
        vector = matrix @ vector
        moments[k] = vector[0]
    return moments


@dataclass
class SpectralData:
    """Unit-circle eigenvalues of a unitary w weighted by its base vector.

    The search takes them from w on the GNS space of τ, with base vector
    e_H; the spectral measure there is that of λ(w) at δ_H.
    """

    angles: np.ndarray
    weights: np.ndarray
    offdiagonal_residual: float = 0.0

    def reconstruct(self, k_max: int) -> np.ndarray:
        k = np.arange(1, k_max + 1)
        return np.exp(1j * np.outer(k, self.angles)) @ self.weights


def spectral_data(matrix: np.ndarray) -> SpectralData:
    """Orthonormal eigenbasis of a (numerically normal) unitary matrix w.

    With φ in the middle of the widest gap between the eigenvalue angles θ
    of w, the Cayley transform C = i(1 + e^{-iφ}w)(1 - e^{-iφ}w)⁻¹ is
    Hermitian with eigenvalues -cot((θ - φ)/2), θ - φ taken in (0, 2π).
    That map is strictly increasing, with slope at least 1/2, so distinct
    angles stay distinct and one `eigh` of C gives the basis; the widest
    gap keeps e^{iφ} at least π/dim away from every eigenvalue, so
    1 - e^{-iφ}w is well conditioned and ‖C‖ ≤ cot(π/(2·dim)).
    Degenerate eigenvalues of w keep an orthonormal basis of their
    eigenspace.  With T = Z*wZ the angles are arg T_jj, and
    `offdiagonal_residual` is ‖T - diag T‖.

    Weights are μ_j = |⟨δ_H, ζ_j⟩|² for the orthonormal basis ζ_j; they
    are nonnegative and sum to 1 by construction.
    """
    thetas = np.sort(np.angle(np.linalg.eigvals(matrix)))
    gaps = np.diff(thetas, append=thetas[0] + 2 * math.pi)
    j = int(np.argmax(gaps))
    rotated = np.exp(-1j * (thetas[j] + gaps[j] / 2)) * matrix
    eye = np.eye(len(matrix))
    # 1 + w' and 1 - w' commute, so the inverse may stand on either side
    cayley = 1j * np.linalg.solve(eye - rotated, eye + rotated)
    _, Z = np.linalg.eigh((cayley + cayley.conj().T) / 2)
    T = Z.conj().T @ matrix @ Z
    diagonal = np.diag(T)
    offdiag = float(np.linalg.norm(T - np.diag(diagonal)))
    angles = np.angle(diagonal)
    weights = np.abs(Z[0, :]) ** 2
    return SpectralData(angles=angles, weights=weights, offdiagonal_residual=offdiag)


def cluster_spectrum(spectral: SpectralData) -> SpectralData:
    """Merge numerically equal eigenvalue angles into spectral atoms.

    The sorted angles are swept once: an angle within `ATOM_ANGLE_GAP` of
    its atom's first angle joins that atom, any other starts the next one.
    An atom weighs the sum of its weights and sits at the mean of its
    angles weighted by their weights over the largest, so the mean stays
    finite and inside the atom at any weight scale.
    """
    order = np.argsort(spectral.angles)
    angles = spectral.angles[order]
    weights = spectral.weights[order]
    starts = [0]
    for i, theta in enumerate(angles.tolist()):
        if theta - angles[starts[-1]] > ATOM_ANGLE_GAP:
            starts.append(i)
    merged_angles, merged_weights = [], []
    for theta, mu in zip(np.split(angles, starts[1:]), np.split(weights, starts[1:])):
        top = mu.max()
        share = mu / top if top > 0 else 0 * mu
        total = share.sum()
        merged_angles.append((theta * share).sum() / total if total > 0 else theta[0])
        merged_weights.append(sum(mu.tolist()))
    # the circle wraps: a last atom starting within the gap of the first
    # angle, across -pi = pi, joins the first atom
    if len(starts) > 1 and \
            (2 * math.pi - (angles[starts[-1]] - angles[0])) <= ATOM_ANGLE_GAP:
        merged_weights[0] += merged_weights.pop()
        merged_angles.pop()
    return SpectralData(np.array(merged_angles), np.array(merged_weights),
                        spectral.offdiagonal_residual)


@np.errstate(all="ignore")
def root_of_unity_scan(spectral: SpectralData, order: int):
    """Diagnostic for near-rational eigenvalue-angle ratios.

    Numerically equal angles are merged into atoms first; for every pair of
    spectrally visible distinct atoms the scan reports the closest approach
    of (λ_j / λ_j')^m to 1 over 1 <= m <= order.  A tiny value flags a
    near-resonance that a bounded moment check cannot distinguish from an
    exact root of unity.  Of the (pair, m) within `ROOT_SCAN_TIE` of the
    minimum, the lexicographically least is reported.  Angles or weights
    near the float range overflow to a NaN distance; the scan then reports
    that NaN and no pair.
    """
    atoms = cluster_spectrum(spectral)
    visible = np.where(atoms.weights > VISIBLE_WEIGHT)[0]
    if len(visible) < 2:
        return {"min_distance": None, "pair": None, "m": None,
                "visible_atoms": int(len(visible))}
    angles = atoms.angles[visible]
    ms = np.arange(1, order + 1)

    def distances(a):  # rows: atoms b > a, columns: m
        return np.abs(np.exp(1j * np.outer(angles[a] - angles[a + 1:], ms)) - 1.0)

    row_min = np.array([distances(a).min() for a in range(len(visible) - 1)])
    min_distance = float(row_min.min())
    if math.isnan(min_distance):
        return {"min_distance": min_distance, "pair": None, "m": None,
                "visible_atoms": int(len(visible))}
    # mirror atoms θ, −θ tie up to rounding: report the least (pair, m) of the ties
    a = int(np.argmax(row_min <= min_distance + ROOT_SCAN_TIE))
    b, m = np.argwhere(distances(a) <= min_distance + ROOT_SCAN_TIE)[0]
    return {"min_distance": min_distance,
            "pair": (int(visible[a]), int(visible[a + 1 + b])), "m": int(ms[m]),
            "visible_atoms": int(len(visible))}


# -- certificates --------------------------------------------------------------------

CERTIFICATE_FORMAT = "heckelab/witness-certificate/v1"


@dataclass
class WitnessCertificate:
    """Serialized witness pair with verified moment bound on 1 <= k <= k_max."""

    d: int
    l: int
    basis: list                    # canonical double-coset representatives
    u_coefficients: np.ndarray
    v_coefficients: np.ndarray
    angles: np.ndarray
    weights: np.ndarray
    moments: np.ndarray            # τ(w^k), k = 1..k_max
    max_abs_moment: float
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))

    @property
    def k_max(self) -> int:
        return len(self.moments)

    def to_json_dict(self) -> dict:
        return {
            "format": CERTIFICATE_FORMAT,
            "d": self.d,
            "l": self.l,
            "basis": [list(map(int, rep)) for rep in self.basis],
            "u": {"re": self.u_coefficients.real.tolist(),
                  "im": self.u_coefficients.imag.tolist()},
            "v": {"re": self.v_coefficients.real.tolist(),
                  "im": self.v_coefficients.imag.tolist()},
            "spectral": {"angles": self.angles.tolist(),
                         "weights": self.weights.tolist()},
            "moments": {"re": self.moments.real.tolist(),
                        "im": self.moments.imag.tolist()},
            "max_abs_moment": float(self.max_abs_moment),
            "tolerances": {k: self.tolerances[k]
                           for k in ("unitarity", "moment_margin", "root_scan_order")},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "WitnessCertificate":
        """Parse a certificate; any missing or malformed field raises ValueError,
        and a (d, l) or a moment count outside its cap raises ScaleError."""
        if not isinstance(data, dict):
            raise ValueError("certificate is not a JSON object")
        if data.get("format") != CERTIFICATE_FORMAT:
            raise ValueError(f"unsupported certificate format {data.get('format')!r}")
        basis = _field(data, "basis", list)
        if any(not isinstance(rep, list) or any(type(x) is not int for x in rep)
               for rep in basis):
            raise ValueError("certificate field 'basis' is not a list of integer lists")
        spectral = _field(data, "spectral", dict)
        angles = _numbers(spectral, "angles", "spectral")
        weights = _numbers(spectral, "weights", "spectral")
        if len(angles) != len(weights) or not len(angles):
            raise ValueError("certificate field 'spectral' has empty or unequal "
                             "angles and weights")
        moments = _complexes(_field(data, "moments", dict), "moments",
                             lambda i: f"moment τ(w^{i + 1})")
        if len(moments) == 0:
            raise ValueError("certificate field 'moments' is empty")
        if len(moments) > K_MAX_CAP:
            raise ScaleError(f"certificate has {len(moments)} moments, above the "
                             f"k-max cap {K_MAX_CAP}")
        tolerances = _field(data, "tolerances", dict)
        for key in DEFAULT_TOLERANCES:
            _number(tolerances, key, "tolerances")
        d, l = _field(data, "d", int), _field(data, "l", int)
        points = PairSpec.depth(d, l).points
        if any(sorted(rep) != list(range(points)) for rep in basis):
            raise ValueError(f"certificate basis rows are not permutations of "
                             f"the d^l = {points} points")
        return cls(
            d=d,
            l=l,
            basis=[tuple(rep) for rep in basis],
            u_coefficients=_complexes(_field(data, "u", dict), "u"),
            v_coefficients=_complexes(_field(data, "v", dict), "v"),
            angles=angles,
            weights=weights,
            moments=moments,
            max_abs_moment=_number(data, "max_abs_moment"),
            tolerances=dict(tolerances),
        )

    @classmethod
    def load(cls, path) -> "WitnessCertificate":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def _field(data: dict, key: str, kind, where: str = ""):
    value = data.get(key)
    if not isinstance(value, kind) or isinstance(value, bool):
        name = f"{where}.{key}" if where else key
        raise ValueError(f"certificate field {name!r} is missing or has the wrong type")
    return value


def _finite(values: list, name) -> np.ndarray:
    """`values` as floats; NaN, ±Infinity and integers beyond the float range
    raise ValueError, naming the first as `name(index)`."""
    bad = [i for i, x in enumerate(values) if not abs(x) <= sys.float_info.max]
    if bad:
        raise ValueError(f"certificate {name(bad[0])} is not a finite number")
    return np.asarray(values, dtype=float)


def _number(data: dict, key: str, where: str = "") -> float:
    value = _field(data, key, (int, float), where)
    name = f"{where}.{key}" if where else key
    return float(_finite([value], lambda _: f"field {name!r}")[0])


def _numbers(data: dict, key: str, where: str, name=None) -> np.ndarray:
    values = _field(data, key, list, where)
    if any(not isinstance(x, (int, float)) or isinstance(x, bool) for x in values):
        raise ValueError(f"certificate field '{where}.{key}' is not a list of numbers")
    return _finite(values, name or (lambda i: f"field '{where}.{key}' entry {i}"))


def _complexes(data: dict, where: str, name=None) -> np.ndarray:
    re, im = _numbers(data, "re", where, name), _numbers(data, "im", where, name)
    if len(re) != len(im):
        raise ValueError(f"certificate field {where!r} has re and im of different lengths")
    return re + 1j * im


# -- the search -------------------------------------------------------------------------

def _commutator(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u @ v @ u.conj().T @ v.conj().T


def search_witness(pair: HeckePair, seed: int = DEFAULT_SEED,
                   budget: int = DEFAULT_BUDGET,
                   k_max: int = DEFAULT_K_MAX) -> WitnessCertificate:
    """Find unitaries u, v with max_{1<=k<=k_max} |τ((u v u* v*)^k)| well below 1.

    One loop over at most `budget` candidates: draw a random self-adjoint
    pair (a, b), score w = u v u* v* by max |τ(w^k)| over the full range
    1 <= k <= k_max, and accept the first candidate whose score is at most
    `ACCEPT_CEILING` and whose unitarity defect is within tolerance.  Every
    step runs on dim × dim GNS matrices; no λ-matrix is built.
    Deterministic for fixed (pair, seed, budget): candidate i draws from an
    rng keyed by (seed, i).
    """
    if pair.spec is None or pair.spec.kind != "depth":
        raise ValueError(
            "pair carries no tree parameters (d, l) for the certificate; "
            "build it from PairSpec.depth")
    report = pair.is_commutative()
    if report.commutative:
        raise ValueError(
            "pair has a commutative algebra: commutators are trivial and "
            "every moment equals 1; no witness exists")
    best_seen = None
    for i in range(budget):
        rng = np.random.default_rng([seed, i])
        a = selfadjoint_from_parameters(pair, CANDIDATE_SCALE * rng.standard_normal(pair.dim))
        b = selfadjoint_from_parameters(pair, CANDIDATE_SCALE * rng.standard_normal(pair.dim))
        u, u_defect = unitary_from_selfadjoint(pair, a)
        v, v_defect = unitary_from_selfadjoint(pair, b)
        w = _commutator(gns_matrix(pair, u), gns_matrix(pair, v))
        table = moment_table(w, k_max)
        full = float(np.max(np.abs(table)))
        best_seen = full if best_seen is None else min(best_seen, full)
        if full > ACCEPT_CEILING or max(u_defect, v_defect) > DEFAULT_TOLERANCES["unitarity"]:
            continue
        spec = spectral_data(w)
        return WitnessCertificate(
            d=pair.spec.d, l=pair.spec.n,
            basis=pair.table.representatives.tolist(),
            u_coefficients=u,
            v_coefficients=v,
            angles=spec.angles,
            weights=spec.weights,
            moments=table,
            max_abs_moment=full,
        )
    raise SearchFailureError(
        f"no witness within budget {budget}; best max-moment seen {best_seen}", best_seen)


# -- decay and circle averages ------------------------------------------------------------

def _power(value: complex, exponent: int) -> complex:
    """value**exponent for |value| <= 1 and very large integer exponents."""
    r = abs(value)
    if r == 0.0:
        return 0.0 + 0.0j
    magnitude = math.exp(exponent * math.log(r)) if r < 1.0 else r ** exponent
    if magnitude == 0.0:
        return 0.0 + 0.0j
    angle = (exponent * cmath.phase(value)) % (2.0 * math.pi)
    return magnitude * cmath.exp(1j * angle)


@dataclass
class DecayReport:
    """τ(w^k)^{|V_n|} over a grid of levels n and powers k.

    `max_by_level` uses the tensor count |V_n|; `max_by_level_plain` uses
    the plain exponent n, recording both conventions for the same limit.
    """

    levels: list
    level_sizes: list
    max_by_level: list
    max_by_level_plain: list
    first_level_below: int | None
    threshold: float

    def rows(self) -> list:
        return [
            {"n": n, "tensor_count": c, "max_abs_tensor": t, "max_abs_plain": p}
            for n, c, t, p in zip(self.levels, self.level_sizes,
                                  self.max_by_level, self.max_by_level_plain)
        ]


def decay_table(cert: WitnessCertificate, shape: TreeShape, n_max: int,
                k_max: int | None = None) -> DecayReport:
    """Per-level maxima of |τ(w^k)|^{|V_n|} for k up to k_max; a level whose
    |V_n| exceeds the float range is refused, by logarithms before |V_n|, and
    so is a certificate with any stored moment not of modulus at most 1."""
    largest = sys.float_info.max
    if math.log(shape.k) + (n_max - 1) * math.log(shape.d) > math.log(largest) + 1 or \
            shape.level_size(n_max) > largest:
        raise ScaleError(f"|V_n| at n = {n_max} exceeds the float range")
    bad = np.flatnonzero(~(np.abs(cert.moments) <= 1))
    if len(bad):
        raise ValueError(f"certificate moment τ(w^{bad[0] + 1}) is not of modulus at most 1")
    k_max = cert.k_max if k_max is None else min(k_max, cert.k_max)
    levels = list(range(1, n_max + 1))
    sizes = [shape.level_size(n) for n in levels]
    max_tensor = []
    max_plain = []
    first = None
    # a positive scale keeps the maximum; a Python float overflows to -inf silently
    top = float(np.max(np.log(np.maximum(np.abs(cert.moments[:k_max]), 1e-300))))
    for n, size in zip(levels, sizes):
        m_tensor = float(np.exp(top * size))
        m_plain = float(np.exp(top * n))
        max_tensor.append(m_tensor)
        max_plain.append(m_plain)
        if first is None and m_tensor < DECAY_THRESHOLD:
            first = n
    return DecayReport(levels=levels, level_sizes=sizes, max_by_level=max_tensor,
                       max_by_level_plain=max_plain, first_level_below=first,
                       threshold=DECAY_THRESHOLD)


def fejer_coefficients() -> dict:
    """Fourier coefficients of the Fejér kernel of order `FEJER_ORDER`
    scaled to constant coefficient `FEJER_MASS`: positive on the circle."""
    return {k: FEJER_MASS * (1.0 - abs(k) / (FEJER_ORDER + 1.0))
            for k in range(-FEJER_ORDER, FEJER_ORDER + 1)}


def haar_convergence_check(cert: WitnessCertificate, coefficients: dict,
                           levels, shape: TreeShape) -> list:
    """Averages Σ_k c_k τ(w^k)^{|V_n|} against the circle average c_0.

    Returns one row per level: (n, value, deviation |value - c_0|, bound),
    where bound is the rigorous majorant Σ_{k≠0} |c_k| |τ(w^k)|^{|V_n|}.
    A certificate holding fewer moments than the largest |k| is refused.
    """
    order = max(map(abs, coefficients), default=0)
    if order > cert.k_max:
        raise ValueError(f"certificate holds {cert.k_max} moments; the circle average "
                         f"needs τ(w^k) for every |k| <= {order}")
    c0 = complex(coefficients.get(0, 0.0))
    rows = []
    for n in levels:
        size = shape.level_size(n)
        value = c0
        bound = 0.0
        for k, c in coefficients.items():
            if k == 0:
                continue
            base = complex(cert.moments[abs(k) - 1])
            powered = _power(base, size)
            if k < 0:
                powered = powered.conjugate()
            value += complex(c) * powered
            bound += abs(complex(c)) * abs(powered)
        rows.append({"n": n, "tensor_count": size, "value": value,
                     "deviation": abs(value - c0), "bound": bound})
    return rows


# -- verification ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    ok: bool
    failures: list
    diagnostics: dict

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        lines = [f"certificate verification: {status}"]
        for name in self.failures:
            lines.append(f"  failed: {name}")
        for key, value in sorted(self.diagnostics.items()):
            lines.append(f"  {key}: {value}")
        return "\n".join(lines)


@np.errstate(all="ignore")
def verify_certificate(cert: WitnessCertificate,
                       pair: HeckePair | None = None) -> VerificationReport:
    """Re-derive everything in the certificate from its (d, l) parameters.

    Rebuilds the pair and its double-coset basis, re-checks the basis order,
    unitarity and the moment table on the λ-matrices of u and v (fresh matrix
    powers on ℓ²(H\\G), not the GNS matrices of the search), the moment
    bound, the spectral reconstruction, and runs the root-of-unity scan.
    Thresholds are `DEFAULT_TOLERANCES`; stored tolerances looser than those
    fail as `tolerances`.  A check passes only when its value is at most its
    threshold, so a NaN fails it; floating-point warnings are off, since
    a wild certificate overflows on the way to its FAIL.
    """
    failures = []
    diagnostics = {}
    if pair is None:
        pair = PairSpec.depth(cert.d, cert.l).pair()
    tol = DEFAULT_TOLERANCES
    stored = cert.tolerances
    if not (stored["unitarity"] <= tol["unitarity"]
            and stored["moment_margin"] >= tol["moment_margin"]
            and stored["root_scan_order"] >= tol["root_scan_order"]):
        failures.append("tolerances")
    if [list(r) for r in cert.basis] != pair.table.representatives.tolist():
        failures.append("basis-order")
        return VerificationReport(False, failures, diagnostics)
    if len(cert.u_coefficients) != pair.dim or len(cert.v_coefficients) != pair.dim:
        failures.append("coefficient-length")
        return VerificationReport(False, failures, diagnostics)
    # the spectrum of w on the GNS space has one atom per basis class
    if len(cert.angles) != pair.dim:
        failures.append("spectral-length")
        return VerificationReport(False, failures, diagnostics)

    u = pair.lambda_matrix(cert.u_coefficients)
    v = pair.lambda_matrix(cert.v_coefficients)
    for name, matrix in (("u", u), ("v", v)):
        defect = diagnostics[f"unitarity_defect_{name}"] = _unitarity_defect(matrix)
        if not defect <= tol["unitarity"]:
            failures.append(f"unitarity-{name}")

    w = _commutator(u, v)
    table = moment_table(w, cert.k_max)
    # τ(w^{-k}) from w*; one np.max, which keeps a NaN where max() would drop it
    inverse = moment_table(w.conj().T, cert.k_max)
    diagnostics["conjugate_symmetry_defect"] = float(
        np.max(np.abs(inverse - np.conj(table)), initial=0.0))
    moment_gap = float(np.max(np.abs(table - cert.moments)))
    diagnostics["moment_recomputation_gap"] = moment_gap
    if not moment_gap <= 1e-8:
        failures.append("moment-table")

    stored_max = float(np.max(np.abs(cert.moments)))
    diagnostics["max_abs_moment"] = stored_max
    if not abs(stored_max - cert.max_abs_moment) <= 1e-12:
        failures.append("max-moment-consistency")
    if not stored_max <= 1.0 - tol["moment_margin"]:
        failures.append("moment-bound")

    weights = cert.weights
    diagnostics["weight_sum_defect"] = float(abs(weights.sum() - 1.0))
    if not diagnostics["weight_sum_defect"] <= 1e-8:
        failures.append("weight-sum")
    if not float(weights.min()) >= -1e-10:
        failures.append("weight-positivity")
    # eigvals refuses a non-finite w, which is no unitary either
    eigen_defect = math.inf
    if np.isfinite(w).all():
        eigen_defect = float(np.max(np.abs(np.abs(np.linalg.eigvals(w)) - 1.0)))
    diagnostics["eigenvalue_modulus_defect"] = eigen_defect
    if not eigen_defect <= 1e-8:
        failures.append("eigenvalue-modulus")
    spec = SpectralData(cert.angles, cert.weights)
    recon_gap = float(np.max(np.abs(spec.reconstruct(cert.k_max) - cert.moments)))
    diagnostics["spectral_reconstruction_gap"] = recon_gap
    if not recon_gap <= 1e-8:
        failures.append("spectral-reconstruction")

    scan = root_of_unity_scan(spec, tol["root_scan_order"])
    diagnostics["root_scan_min_distance"] = scan["min_distance"]
    diagnostics["root_scan_pair"] = scan["pair"]
    diagnostics["root_scan_m"] = scan["m"]

    return VerificationReport(not failures, failures, diagnostics)
