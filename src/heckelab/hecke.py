"""The Hecke algebra of a finite pair (G, H) on its double-coset basis.

The algebra acts on the coset space H\\G from the left:

    [λ(f) ξ](Hx) = sum over Hy of f(H x y^{-1}) ξ(Hy),

so each basis element e_D (the indicator of the double coset D, value 1 on
the whole coset) becomes a zero-one matrix of size |G|/|H|, and the whole
algebra is the span of matrices constant on the cells {(i, j) : r_i r_j^{-1}
in D}.  Products are computed through structure constants, never through
element-level convolution over G.  The constants are counted from one
row of the cell table per double coset, that of its least coset; the full
λ-cell table is built only on demand.  Row 0 is read off the classes, and
every other row is its parent's, in the tree of the walk that enumerated
H\\G, gathered by an inverse action array: no coset is canonicalised again.

`HeckeElement` is exact: Gaussian-rational coefficients, multiplied through
the integer structure constants; `embed.double_coset_map` carries them
between pairs as one integer matrix over its least common denominator.
Float elements are plain coefficient arrays: `HeckePair.left_matrix(c)`
multiplies by one in dim × dim, and `HeckePair.lambda_matrix(c)` is its
action on ℓ²(H\\G), built only when asked for, as a cross-check.  The
group-algebra corner p_H C[G] p_H is the independent oracle; it lives in
the tests (`tests/groupalg.py`), not in the package.

The canonical trace is the vector state at the base coset, τ(f) =
⟨λ(f) δ_H, δ_H⟩, which is the coefficient of f on e_H.  It is tracial here
because R(x) = R(x^{-1}) holds for every double coset; the constructor
verifies this and refuses pairs where it fails rather than carrying a
modular correction.

Every tree pair, depth (S_{d^l}, Q_l) or level (S_{|V_n|}, P_n), is built
through one `PairSpec`, which also checks its caps and names it.  A pair's
`r_indices`, `star_map` and `class_of_coset` are its double-coset table's
own arrays.  `_exactvec` (and with it `fractions` and `decimal`) is imported
by the three functions that build exact elements, so a command that builds
none, `census` or `witness`, never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import PairMismatchError, ScaleError
from .permgroup import DoubleCosetTable, PermGroup, check_coset_count, symmetric_group
from .treefam import TreeShape, ball_aut_group, check_level, closed_form_order

if TYPE_CHECKING:
    from ._exactvec import ExactVector

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

    λ-matrices are built on demand, from the action arrays of G's and H's
    generators on H\\G (see `cell_class`).  `spec` is the tree pair it was
    built from, None for a pair built by hand.
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

    # -- basis and λ ------------------------------------------------------------

    @cached_property
    def cell_class(self):
        """Matrix of class(r_i r_j⁻¹): λ(e_d) is the indicator of its value d.

        Row 0 is class(r_j⁻¹) = star(class(r_j)).  Right multiplication by a
        generator g_s moves both cosets of a cell and keeps its class, so
        cell[a_s(i), a_s(j)] = cell[i, j] for the action array a_s: the rows
        are filled in walk order, each its parent's row gathered by the
        inverse of the array that reached it.  Refused above `LAMBDA_CAP`
        cosets (the int32 table is size² · 4 bytes).
        """
        if self.size > LAMBDA_CAP:
            raise ScaleError(
                f"λ-matrices for {self.size} cosets above cap {LAMBDA_CAP}")
        parent, move = self.cosets.parent.tolist(), self.cosets.move.tolist()
        cell = np.empty((self.size, self.size), dtype=np.int32)
        cell[0] = self.star_map[self.class_of_coset]
        for i in self.cosets.walk[1:].tolist():
            cell[i] = cell[parent[i], self._inverse_action[move[i]]]
        return cell

    @cached_property
    def _inverse_action(self) -> np.ndarray:
        return np.argsort(self.cosets.action, axis=1)  # inverse permutation arrays

    def basis_matrix(self, j: int):
        """Integer λ-matrix of the basis element e_j."""
        return (self.cell_class == j).astype(np.int64)

    def lambda_matrix(self, coefficients) -> np.ndarray:
        """λ(c) on ℓ²(H\\G) for the coefficient array c."""
        return np.asarray(coefficients)[self.cell_class]

    def structure_constants(self):
        """Integer tensor N[d, e, f] with e_d e_e = sum_f N[d,e,f] e_f.

        The λ-row of a coset r in class f, row[y] = class(r r_y⁻¹), gives
        #{y : row[y] = d, class(r_y) = e} = N[d, e, f].  One row per class is
        counted, that of its least coset, gathered from row 0 along the
        walk's tree as in `cell_class`.  This needs the classes to be the
        double cosets: `orbit_roots` moves labels only along H's action
        arrays, so no class is more than one H-orbit, and the check below
        that `class_of_coset` is constant along every action array (exact,
        in O(|H\\G|·|gens H|)) shows that no class splits an H-orbit.
        """
        if self._struct is None:
            dim = self.dim
            cls = self.class_of_coset.astype(np.int64)
            if any((cls[move] != cls).any() for move in self.table.subgroup_action):
                raise AssertionError("product of basis elements is not bi-invariant")
            star_class = self.star_map.astype(np.int64)[cls]
            parent, move = self.cosets.parent.tolist(), self.cosets.move.tolist()
            struct = np.empty((dim, dim, dim), dtype=np.int64)
            for f, i in enumerate(self.table.roots.tolist()):
                # row i is row 0 gathered by the inverse moves from the root to i
                index = np.arange(self.size)
                while i:
                    index = self._inverse_action[move[i]][index]
                    i = parent[i]
                counts = np.bincount(star_class[index] * dim + cls, minlength=dim * dim)
                struct[:, :, f] = counts.reshape(dim, dim)
            self._struct = struct
        return self._struct

    def left_matrix(self, coefficients) -> np.ndarray:
        """Matrix of g ↦ c·g on coefficient vectors: L[f, e] = Σ_d c_d N[d, e, f]."""
        return np.tensordot(coefficients, self.structure_constants(), axes=1).T

    # -- element constructors -----------------------------------------------------

    def unit(self) -> "HeckeElement":
        return self.basis_element(0)

    def basis_element(self, j: int) -> "HeckeElement":
        from ._exactvec import ExactVector

        re = np.zeros(self.dim, dtype=object)
        re[j] = 1
        return HeckeElement(self, ExactVector(1, re, reduce_terms=False))

    def basis(self) -> list:
        return [self.basis_element(j) for j in range(self.dim)]

    def element_from_fractions(self, values) -> "HeckeElement":
        from ._exactvec import ExactVector

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
    """Product in H(G, H); λ(f·g) = λ(f) λ(g) exactly.

    For each d in f's support, Σ_e g_e N[d, e, :] is g's coefficients on its
    support dotted with the int64 rows N[d, e]; numpy multiplies them as
    Python ints, so no sum overflows.
    """
    from ._exactvec import ExactVector

    f._same_pair(g)
    pair = f.pair
    struct = pair.structure_constants()
    f_re, f_im = f.exact.re, f.exact.im
    support = g.exact.support()
    g_re, g_im = g.exact.re[support], g.exact.im[support]
    re = np.zeros(pair.dim, dtype=object)
    im = np.zeros(pair.dim, dtype=object)
    for d in f.exact.support():
        rows = struct[d, support]
        sum_re, sum_im = g_re.dot(rows), g_im.dot(rows)
        re = re + f_re[d] * sum_re - f_im[d] * sum_im
        im = im + f_re[d] * sum_im + f_im[d] * sum_re
    return HeckeElement(pair, ExactVector(f.exact.den * g.exact.den, re, im))


def trace_inner_product(f: HeckeElement, g: HeckeElement):
    """τ(star(f)·g), the GNS inner product of the canonical trace."""
    return convolve(f.star(), g).trace()
