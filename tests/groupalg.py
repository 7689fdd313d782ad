"""Exact *-algebra of a small finite group: the brute-force ground truth.

Elements are complex-rational functions on an enumerated permutation group,
multiplied by convolution (f·g)(x) = sum over uv = x of f(u) g(v).  All
arithmetic is exact (unbounded Python integers over a common
denominator); floating point never enters this module.

The averaging projections p_H = (1/|H|) * sum of H and the corners
p_H C[G] p_H computed here serve as the independent oracle for the
double-coset picture of the same algebras.  The bridge between the two
(`corner_isomorphism_check`, `hecke_image`) takes a Hecke pair by duck
typing.  This is a test-path module, imported as `groupalg` next to
`oracles`; the library never imports it, and the package does not ship it.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from heckelab._exactvec import ExactVector
from heckelab.errors import ContainmentError, InvarianceError, PairMismatchError, ScaleError
from heckelab.permgroup import (ROW, DoubleCosetTable, PermGroup, Permutation, orbit_roots,
                                rank_keys, row_keys)

#: largest group this test oracle will enumerate
ORACLE_CAP = 10_000

#: largest order whose full Cayley table `EnumeratedGroup.table` builds;
#: products elsewhere are ranked block by block at any order
TABLE_CAP = 4096

#: composed images per block when ranking products: with their keys and
#: indices, about 1 MB of temporaries
_BLOCK_ENTRIES = 1 << 17


class EnumeratedGroup:
    """A finite group with elements listed, ranked and multiplied by index.

    Elements are sorted lexicographically by image tuple, which places the
    identity at index 0.  `images[i]` is element i as a row of big-endian
    uint16 point images, so the raw bytes of a row sort like its tuple;
    `rank` maps rows back to indices by binary search on those bytes, and
    products, inverses and conjugates are whole-array compositions of rows.
    """

    def __init__(self, group: PermGroup):
        if group.order() > ORACLE_CAP:
            raise ScaleError(
                f"group of order {group.order()} exceeds the oracle cap {ORACLE_CAP}")
        self.group = group
        elements = group.elements()
        rows = np.array([p.images for p in elements], dtype=ROW)
        order = np.argsort(row_keys(rows), kind="stable")
        self.elements = tuple(elements[i] for i in order)
        self.images = rows[order]
        self._sorted_keys = row_keys(self.images)
        inverse = np.empty_like(self.images)
        inverse[np.arange(len(rows))[:, None], self.images] = np.arange(group.degree)
        self.inverse_index = self.rank(inverse)
        self._table = None

    def __len__(self):
        return len(self.elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    def rank(self, rows) -> np.ndarray:
        """Element indices (int32) of permutation rows, over the last axis.

        Raises ContainmentError if any row is not an element of the group.
        """
        rows = np.asarray(rows)
        if rows.shape[-1:] != (self.group.degree,):
            raise ContainmentError("permutation degree differs from the group's")
        idx, found = rank_keys(self._sorted_keys, row_keys(rows))
        if not found.all():
            raise ContainmentError("permutation is not an element of this group")
        return idx

    def products(self, left, right) -> np.ndarray:
        """int32 array of the indices of p_i·p_j, i in `left`, j in `right`.

        p_i·p_j applies p_i, then p_j: its row is images[j][images[i]].
        """
        right_rows = self.images[right]
        out = np.empty((len(left), len(right_rows)), dtype=np.int32)
        step = max(1, _BLOCK_ENTRIES // right_rows.size)
        for i0 in range(0, len(left), step):
            block = self.images[left[i0:i0 + step]]
            out[i0:i0 + step] = self.rank(right_rows[:, block]).T
        return out

    def table(self):
        """Cayley table by index, built on first use (small groups only)."""
        if self._table is None:
            if self.order > TABLE_CAP:
                raise ScaleError(
                    f"Cayley table for order {self.order} above cap {TABLE_CAP}")
            everything = np.arange(self.order)
            self._table = self.products(everything, everything)
        return self._table

    def index_of(self, p: Permutation) -> int:
        return int(self.rank(p.images))

    def subgroup_indices(self, H: PermGroup) -> list:
        try:
            return np.sort(self.rank([p.images for p in H.elements()])).tolist()
        except ContainmentError:
            raise ContainmentError("claimed subgroup is not contained in the group") from None


class AlgebraElement:
    """A finitely supported exact function on an enumerated group."""

    __slots__ = ("carrier", "vec")

    def __init__(self, carrier: EnumeratedGroup, vec: ExactVector):
        if len(vec) != len(carrier):
            raise ValueError("coefficient vector length differs from group order")
        self.carrier = carrier
        self.vec = vec

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, carrier: EnumeratedGroup) -> "AlgebraElement":
        return cls(carrier, ExactVector(1, [0] * len(carrier)))

    @classmethod
    def delta(cls, carrier: EnumeratedGroup, p: Permutation) -> "AlgebraElement":
        re = np.zeros(len(carrier), dtype=object)
        re[carrier.index_of(p)] = 1
        return cls(carrier, ExactVector(1, re, reduce_terms=False))

    # -- linear structure -------------------------------------------------------

    def _same_carrier(self, other: "AlgebraElement"):
        if self.carrier is not other.carrier:
            raise PairMismatchError("elements live on different groups")

    def __add__(self, other):
        self._same_carrier(other)
        return AlgebraElement(self.carrier, self.vec + other.vec)

    def __sub__(self, other):
        self._same_carrier(other)
        return AlgebraElement(self.carrier, self.vec - other.vec)

    def __neg__(self):
        return AlgebraElement(self.carrier, -self.vec)

    def scaled(self, scalar) -> "AlgebraElement":
        return AlgebraElement(self.carrier, self.vec.scaled(scalar))

    def __eq__(self, other):
        return (isinstance(other, AlgebraElement)
                and self.carrier is other.carrier and self.vec == other.vec)

    def __hash__(self):
        return hash(self.vec)

    def is_zero(self) -> bool:
        return self.vec.is_zero()

    # -- *-algebra operations ----------------------------------------------------

    def __mul__(self, other):
        return convolve(self, other)

    def star(self) -> "AlgebraElement":
        """Involution f*(x) = conj(f(x^{-1}))."""
        return AlgebraElement(
            self.carrier, self.vec.permuted(self.carrier.inverse_index).conjugate())

    def trace(self):
        """The canonical trace f -> f(e), as a (re, im) pair of Fractions."""
        return self.vec.coeff(0)

    def coeff(self, p: Permutation):
        return self.vec.coeff(self.carrier.index_of(p))

    def conjugated_by(self, a: Permutation) -> "AlgebraElement":
        """The function x -> f(a x a^{-1}); a must normalize the carrier group."""
        carrier = self.carrier
        # (a x a⁻¹)[i] = a⁻¹[x[a[i]]], for every element row x at once
        rows = np.asarray(a.inverse().images)[carrier.images[:, list(a.images)]]
        try:
            idx = carrier.rank(rows)
        except ContainmentError:
            raise ContainmentError(
                "conjugation does not preserve the carrier group") from None
        return AlgebraElement(carrier, self.vec.permuted(idx))

    def __repr__(self):
        terms = []
        for i in self.vec.support()[:6]:
            re, im = self.vec.coeff(i)
            terms.append(f"{re}{f'+{im}i' if im else ''}·{self.carrier.elements[i].cycle_string()}")
        more = "" if len(self.vec.support()) <= 6 else ", ..."
        return f"AlgebraElement({', '.join(terms)}{more})"


def convolve(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    """Exact convolution product on the group algebra."""
    f._same_carrier(g)
    carrier = f.carrier
    n = len(carrier)
    supp_f = f.vec.support()
    supp_g = g.vec.support()
    res_re = np.zeros(n, dtype=object)
    res_im = np.zeros(n, dtype=object)
    if not supp_f or not supp_g:
        return AlgebraElement.zero(carrier)

    targets = carrier.products(supp_f, supp_g).ravel()

    def scatter(acc, left, right):
        contrib = np.multiply.outer(left, right).ravel()
        np.add.at(acc, targets, contrib)

    fre, fim = f.vec.re[supp_f], f.vec.im[supp_f]
    gre, gim = g.vec.re[supp_g], g.vec.im[supp_g]
    scatter(res_re, fre, gre)
    scatter(res_re, -fim, gim)
    scatter(res_im, fre, gim)
    scatter(res_im, fim, gre)

    vec = ExactVector(f.vec.den * g.vec.den, res_re, res_im)
    return AlgebraElement(carrier, vec)


def projector(carrier: EnumeratedGroup, H: PermGroup) -> AlgebraElement:
    """The averaging idempotent p_H = (1/|H|) * sum of the elements of H."""
    idxs = carrier.subgroup_indices(H)
    re = np.zeros(len(carrier), dtype=object)
    for i in idxs:
        re[i] = 1
    return AlgebraElement(carrier, ExactVector(len(idxs), re))


def corner_basis(carrier: EnumeratedGroup, H: PermGroup,
                 table: DoubleCosetTable | None = None) -> list:
    """Basis p_H δ_x p_H of the corner, x over double-coset representatives."""
    if table is None:
        table = DoubleCosetTable(carrier.group, H)
    p = projector(carrier, H)
    return [convolve(convolve(p, AlgebraElement.delta(carrier, Permutation(rep))), p)
            for rep in table.representatives.tolist()]


def corner_trace(f: AlgebraElement, subgroup_order: int):
    """Canonical trace of the corner p_H C[G] p_H, normalized so tr(p_H) = 1."""
    re, im = f.trace()
    return re * subgroup_order, im * subgroup_order


def invariant_subalgebra(elements: list, action: PermGroup) -> list:
    """Orbit sums of basis elements under conjugation by the given group.

    Every generator of `action` must permute `elements` (up to equality of
    exact coefficients); the returned list contains one sum per orbit, in
    order of first occurrence.
    """
    if not elements:
        return []
    maps = []
    for a in action.generators:
        images = []
        for f in elements:
            fa = f.conjugated_by(a)
            try:
                images.append(elements.index(fa))
            except ValueError:
                raise InvarianceError(
                    f"conjugation by {a.cycle_string()} does not permute "
                    "the given basis") from None
        maps.append(images)
    roots = orbit_roots(np.array(maps).reshape(len(maps), len(elements)), len(elements))
    sums = []
    for seed in np.unique(roots).tolist():
        total = elements[seed]
        for i in np.flatnonzero(roots == seed)[1:].tolist():
            total = total + elements[i]
        sums.append(total)
    return sums


# -- bridge to the double-coset basis -----------------------------------------------

def corner_isomorphism_check(pair):
    """Exact comparison of a Hecke pair with the corner p_H C[G] p_H.

    The linear map sends e_D to (|D|/|H|) · p_H δ_{rep_D} p_H; this check
    verifies it is unital, multiplicative, star-preserving, trace-preserving
    (Hecke trace against |H|·f(e)), and injective, entirely in rational
    arithmetic.  Returns (ok, detail); on failure detail names the first
    broken axiom and the basis indices involved.  Groups above `ORACLE_CAP`
    are refused with ScaleError.
    """
    carrier = EnumeratedGroup(pair.group)
    h_order = pair.subgroup.order()
    p = projector(carrier, pair.subgroup)
    raw = corner_basis(carrier, pair.subgroup, pair)
    images = [raw[j].scaled(Fraction(size, h_order))
              for j, size in enumerate(pair.sizes)]

    def embed(element) -> AlgebraElement:
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
            lhs = embed(basis[i] * basis[j])
            rhs = convolve(images[i], images[j])
            if lhs != rhs:
                return False, {"axiom": "multiplicative", "detail": (i, j)}
    return True, {"dim": pair.dim}


def hecke_image(embedded: AlgebraElement, pair):
    """Expand a bi-invariant element of a group algebra in the basis of `pair`.

    The pair's group must contain the support; the element must be
    constant on each double coset it meets and cover it entirely (that is
    exactly bi-invariance plus extension by zero).  Coefficients carry the
    normalization of corner_isomorphism_check, e_D = 1_D/|H|, that is
    |H| · (value on D), under which the expansion is an algebra isomorphism
    onto its image.  Returns the pair's exact Hecke element.
    """
    values = [Fraction(0)] * pair.dim
    values_im = [Fraction(0)] * pair.dim
    counts = [0] * pair.dim
    support = embedded.vec.support()
    classes = pair.class_of_coset[pair.cosets.cosets_of(embedded.carrier.images[support])]
    for i, cls in zip(support, classes.tolist()):
        re, im = embedded.vec.coeff(i)
        if counts[cls] == 0:
            values[cls], values_im[cls] = re, im
        elif (values[cls], values_im[cls]) != (re, im):
            raise ValueError("element is not constant on a double coset")
        counts[cls] += 1
    for cls, c in enumerate(counts):
        if c and c != pair.sizes[cls]:
            raise ValueError("support covers a double coset only partially")
    h_order = pair.subgroup.order()
    return pair.element_from_fractions(
        [(re * h_order, im * h_order) for re, im in zip(values, values_im)])
