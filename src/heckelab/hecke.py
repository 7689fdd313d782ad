"""The Hecke algebra of a finite pair (G, H) on its double-coset basis.

The algebra acts on the coset space H\\G from the left:

    [λ(f) ξ](Hx) = sum over Hy of f(H x y^{-1}) ξ(Hy),

so each basis element e_D (the indicator of the double coset D, value 1 on
the whole coset) becomes a zero-one matrix of size |G|/|H|, and the whole
algebra is the span of matrices constant on the cells {(i, j) : r_i r_j^{-1}
in D}.  Products are computed through structure constants, never through
element-level convolution over G.  The constants are counted from one
row of the cell table per double coset: the row of its representative r,
whose right translation of the cosets by r^{-1} is one canonicalisation of
the coset rows.  The full λ-cell table, built only on demand, takes its
rows from the action of G's generators on H\\G, one gather per coset.

`HeckeElement` is exact: Gaussian-rational coefficients, multiplied through
the integer structure constants.  Float elements are plain coefficient
arrays: `HeckePair.left_matrix(c)` multiplies by one in dim × dim, and
`HeckePair.lambda_matrix(c)` is its action on ℓ²(H\\G), built only when
asked for, as a cross-check.  The group algebra corner p_H C[G] p_H is kept
available as an independent oracle via corner_isomorphism_check.

The canonical trace is the vector state at the base coset, τ(f) =
⟨λ(f) δ_H, δ_H⟩, which is the coefficient of f on e_H.  It is tracial here
because R(x) = R(x^{-1}) holds for every double coset; the constructor
verifies this and refuses pairs where it fails rather than carrying a
modular correction.

Every tree pair, depth (S_{d^l}, Q_l) or level (S_{|V_n|}, P_n), is built
through one `PairSpec`, which also checks its caps and names it.  A pair's
`r_indices`, `star_map` and `class_of_coset` are its double-coset table's
own arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from ._exactvec import ExactVector
from .errors import PairMismatchError, ScaleError
from .groupalg import (AlgebraElement, EnumeratedGroup, ORACLE_CAP, convolve as
                       group_convolve, corner_basis, corner_trace, projector)
from .permgroup import DoubleCosetTable, PermGroup, check_coset_count, symmetric_group
from .treefam import TreeShape, ball_aut_group, check_level, closed_form_order

#: largest coset space whose λ-matrices (`HeckePair.cell_class`) are built:
#: 4096² int32 cells are 64 MB
LAMBDA_CAP = 4096


@dataclass(frozen=True)
class GelfandReport:
    """Outcome of the commutativity test, with a witness when it fails."""

    commutative: bool
    witness: tuple | None = None      # (class index, class index)
    entry: tuple | None = None        # (row, col, commutator value)


@dataclass(frozen=True)
class PairSpec:
    """The tree pair (S_{|V_n|}, P_n) of root degree k and branching degree d.

    A depth pair (S_{d^l}, Q_l) is the level pair with k = d and n = l;
    `kind` says which was asked for, and so which parameters its reports
    and certificate name.  Construction checks the point and
    coset caps from closed forms, before any group is built.
    """

    kind: str          # "depth" or "level"
    d: int
    k: int
    n: int

    def __post_init__(self):
        if self.kind not in ("depth", "level"):
            raise ValueError(f"unknown pair kind {self.kind!r}")
        if self.d < 2 or self.k < 2:
            raise ScaleError("tree degrees d and k must be at least 2")
        names = ("depth l", "d^l") if self.kind == "depth" else ("level n", "|V_n|")
        points = check_level(self.shape, self.n, *names)
        check_coset_count(math.factorial(points) // closed_form_order(self.shape, self.n))

    @classmethod
    def depth(cls, d: int, l: int) -> "PairSpec":
        return cls("depth", d, d, l)

    @classmethod
    def level(cls, d: int, k: int, n: int) -> "PairSpec":
        return cls("level", d, k, n)

    @property
    def shape(self) -> TreeShape:
        return TreeShape(self.d, self.k)

    @property
    def points(self) -> int:
        return self.shape.level_size(self.n)

    @property
    def fields(self) -> dict:
        """The parameters a report names: d and l, or d, k and n."""
        if self.kind == "depth":
            return {"d": self.d, "l": self.n}
        return {"d": self.d, "k": self.k, "n": self.n}

    @property
    def label(self) -> str:
        letter = "Q" if self.kind == "depth" else "P"
        return f"(S_{self.points}, {letter}_{self.n})"

    def subgroup(self) -> PermGroup:
        return ball_aut_group(self.shape, self.n)

    def pair(self) -> "HeckePair":
        return HeckePair(symmetric_group(self.points), self.subgroup(),
                         name=self.label, spec=self)


class HeckePair:
    """A pair (G, H) with its double-coset table and structure constants.

    λ-matrices are built on demand, from the action of G's generators on
    H\\G (see `cell_class`).  `spec` is the tree pair it was built from,
    None for a pair built by hand.
    """

    def __init__(self, G: PermGroup, H: PermGroup, name: str = "",
                 spec: PairSpec | None = None):
        self.group = G
        self.subgroup = H
        self.name = name
        self.spec = spec
        self.table = DoubleCosetTable(G, H)
        if not self.table.is_unimodular():
            raise RuntimeError(
                "pair fails R(x) = R(x^{-1}); the canonical vector state "
                "would not be tracial, refusing to build the algebra")
        self.cosets = self.table.cosets
        self.size = len(self.cosets)
        self.dim = len(self.table)
        self.r_indices = self.table.r_index
        self.star_map = self.table.inverse_class
        self.class_of_coset = self.table.class_of_coset
        self._struct = None
        self._struct_obj = None

    # -- basis and λ ------------------------------------------------------------

    @cached_property
    def cell_class(self):
        """Matrix of class(r_i r_j⁻¹): λ(e_d) is the indicator of its value d.

        Row i is star(class(R_i)), since R_i[y] of `CosetIndex.translations`
        lies in the double coset of r_y r_i⁻¹.  Refused above `LAMBDA_CAP`
        cosets (the int32 table is size² · 4 bytes).
        """
        if self.size > LAMBDA_CAP:
            raise ScaleError(
                f"λ-matrices for {self.size} cosets above cap {LAMBDA_CAP}")
        star_class = self.star_map[self.class_of_coset]
        cell = np.empty((self.size, self.size), dtype=np.int32)
        for i, translation in self.cosets.translations():
            cell[i] = star_class[translation]
        return cell

    def basis_matrix(self, j: int):
        """Integer λ-matrix of the basis element e_j."""
        return (self.cell_class == j).astype(np.int64)

    def lambda_matrix(self, coefficients) -> np.ndarray:
        """λ(c) on ℓ²(H\\G) for the coefficient array c."""
        return np.asarray(coefficients)[self.cell_class]

    def structure_constants(self):
        """Integer tensor N[d, e, f] with e_d e_e = sum_f N[d,e,f] e_f.

        The row of a coset r in class f gives #{y : class(r r_y⁻¹) = d,
        class(r_y) = e} = N[d, e, f]; the coset of r_y r⁻¹ is R[y], so
        class(r r_y⁻¹) = star(class(R[y])).  One row per class is counted,
        that of its representative.  This needs the classes to be the double
        cosets: `orbit_roots` moves labels only along H's action arrays, so
        no class is more than one H-orbit, and the check below that
        `class_of_coset` is constant along every action array (exact, in
        O(|H\\G|·|gens H|)) shows that no class splits an H-orbit.
        """
        if self._struct is None:
            dim = self.dim
            cls = self.class_of_coset.astype(np.int64)
            if any((cls[move] != cls).any() for move in self.table.subgroup_action):
                raise AssertionError("product of basis elements is not bi-invariant")
            star_class = self.star_map.astype(np.int64)[cls]
            struct = np.empty((dim, dim, dim), dtype=np.int64)
            for f, r in enumerate(self.table.representatives):
                # the inverse of a permutation row is its argsort
                R = self.cosets.cosets_of(np.argsort(r).astype(r.dtype)[self.cosets.rows])
                counts = np.bincount(star_class[R] * dim + cls, minlength=dim * dim)
                struct[:, :, f] = counts.reshape(dim, dim)
            self._struct = struct
            self._struct_obj = struct.astype(object)
        return self._struct

    def left_matrix(self, coefficients) -> np.ndarray:
        """Matrix of g ↦ c·g on coefficient vectors: L[f, e] = Σ_d c_d N[d, e, f]."""
        return np.tensordot(coefficients, self.structure_constants(), axes=1).T

    # -- element constructors -----------------------------------------------------

    def unit(self) -> "HeckeElement":
        return self.basis_element(0)

    def basis_element(self, j: int) -> "HeckeElement":
        re = np.zeros(self.dim, dtype=object)
        re[j] = 1
        return HeckeElement(self, ExactVector(1, re, None, reduce_terms=False))

    def basis(self) -> list:
        return [self.basis_element(j) for j in range(self.dim)]

    def element_from_fractions(self, values) -> "HeckeElement":
        return HeckeElement(self, ExactVector.from_fractions(values))

    # -- algebra-level checks -------------------------------------------------------

    def is_commutative(self) -> GelfandReport:
        """Gelfand-pair test: do all pairs of basis λ-matrices commute?

        Deterministic basis order, short-circuiting on the first failure;
        the witness reports the first nonzero entry, in row-major order, of
        the commutator λ(e_d)λ(e_e) - λ(e_e)λ(e_d) = λ(Σ_f diff_f e_f) with
        diff = N[d, e, :] - N[e, d, :].  Row 0 of that matrix is
        diff[class(r_y⁻¹)] = diff[star(class(y))] and meets every class, so
        the entry lies in row 0 and no λ-matrix is built.
        """
        struct = self.structure_constants()
        for d in range(self.dim):
            for e in range(d + 1, self.dim):
                diff = struct[d, e] - struct[e, d]
                if diff.any():
                    row = diff[self.star_map[self.class_of_coset]]
                    c = int(np.flatnonzero(row)[0])
                    return GelfandReport(False, witness=(d, e),
                                         entry=(0, c, int(row[c])))
        return GelfandReport(True)

    def __repr__(self):
        label = self.name or f"|G|={self.group.order()},|H|={self.subgroup.order()}"
        return f"HeckePair({label}, dim={self.dim}, cosets={self.size})"


class HeckeElement:
    """Element of H(G, H) over the double-coset basis, with exact coefficients."""

    __slots__ = ("pair", "exact")

    def __init__(self, pair: HeckePair, exact: ExactVector):
        self.pair = pair
        self.exact = exact

    def _same_pair(self, other: "HeckeElement"):
        if self.pair is not other.pair:
            raise PairMismatchError("elements belong to different Hecke pairs")

    def __add__(self, other):
        self._same_pair(other)
        return HeckeElement(self.pair, self.exact + other.exact)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return HeckeElement(self.pair, -self.exact)

    def scaled(self, scalar) -> "HeckeElement":
        return HeckeElement(self.pair, self.exact.scaled(scalar))

    def __mul__(self, other):
        return convolve(self, other)

    def __eq__(self, other):
        return (isinstance(other, HeckeElement) and self.pair is other.pair
                and self.exact == other.exact)

    def __hash__(self):
        return hash(self.exact)

    def is_zero(self) -> bool:
        return self.exact.is_zero()

    def star(self) -> "HeckeElement":
        """Adjoint: λ(star(f)) is the conjugate transpose of λ(f)."""
        return HeckeElement(self.pair, self.exact.permuted(self.pair.star_map).conjugate())

    def trace(self):
        """⟨λ(f) δ_H, δ_H⟩ = the coefficient of f on e_H, a (re, im) pair of Fractions."""
        return self.exact.coeff(0)

    def coeff(self, j: int):
        return self.exact.coeff(j)

    def __repr__(self):
        body = ", ".join(f"e{j}:{self.exact.coeff(j)}" for j in self.exact.support())
        return f"HeckeElement[exact]({body})"


def convolve(f: HeckeElement, g: HeckeElement) -> HeckeElement:
    """Product in H(G, H); λ(f·g) = λ(f) λ(g) exactly."""
    f._same_pair(g)
    pair = f.pair
    pair.structure_constants()
    struct = pair._struct_obj
    re = np.zeros(pair.dim, dtype=object)
    im = np.zeros(pair.dim, dtype=object)
    has_im = False
    fim = f.exact.im
    gim = g.exact.im
    for d in f.exact.support():
        a = int(f.exact.re[d])
        b = int(fim[d]) if fim is not None else 0
        for e in g.exact.support():
            c = int(g.exact.re[e])
            dd = int(gim[e]) if gim is not None else 0
            block = struct[d, e]
            re = re + block * (a * c - b * dd)
            if b or dd:
                im = im + block * (a * dd + b * c)
                has_im = True
    return HeckeElement(pair, ExactVector(f.exact.den * g.exact.den, re,
                                          im if has_im else None))


def trace_inner_product(f: HeckeElement, g: HeckeElement):
    """τ(star(f)·g), the GNS inner product of the canonical trace."""
    return convolve(f.star(), g).trace()


# -- oracle bridge -------------------------------------------------------------------

def corner_isomorphism_check(pair: HeckePair, carrier: EnumeratedGroup | None = None):
    """Exact comparison with the group-algebra corner p_H C[G] p_H.

    The linear map sends e_D to (|D|/|H|) · p_H δ_{rep_D} p_H; this check
    verifies it is unital, multiplicative, star-preserving, trace-preserving
    (Hecke trace against |H|·f(e)), and injective, entirely in rational
    arithmetic.  Returns (ok, detail); on failure detail names the first
    broken axiom and the basis indices involved.
    """
    if pair.group.order() > ORACLE_CAP:
        raise ScaleError(
            f"group order {pair.group.order()} exceeds oracle cap {ORACLE_CAP}")
    if carrier is None:
        carrier = EnumeratedGroup(pair.group)
    h_order = pair.subgroup.order()
    p = projector(carrier, pair.subgroup)
    raw = corner_basis(carrier, pair.subgroup, pair.table)
    images = [raw[j].scaled(Fraction(size, h_order))
              for j, size in enumerate(pair.table.sizes)]

    def embed(element: HeckeElement) -> AlgebraElement:
        total = AlgebraElement.zero(carrier)
        for j in element.exact.support():
            total = total + images[j].scaled(element.exact.coeff(j))
        return total

    if images[0] != p:
        return False, {"axiom": "unit", "detail": "image of e_H is not p_H"}
    for i in range(pair.dim):
        if images[i].is_zero():
            return False, {"axiom": "injective", "detail": f"image of e_{i} vanishes"}
        for j in range(i + 1, pair.dim):
            if images[i] == images[j]:
                return False, {"axiom": "injective", "detail": (i, j)}
    basis = pair.basis()
    for i in range(pair.dim):
        if embed(basis[i].star()) != images[i].star():
            return False, {"axiom": "star", "detail": i}
        tr_hecke = basis[i].trace()
        if corner_trace(images[i], h_order) != tr_hecke:
            return False, {"axiom": "trace", "detail": i}
        for j in range(pair.dim):
            lhs = embed(convolve(basis[i], basis[j]))
            rhs = group_convolve(images[i], images[j])
            if lhs != rhs:
                return False, {"axiom": "multiplicative", "detail": (i, j)}
    return True, {"dim": pair.dim}
