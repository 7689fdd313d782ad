"""Finite permutation groups: stabilizer chains, cosets, double cosets.

Permutations act on {0..m-1} and compose left to right: ``(p * q)`` means
"apply p, then q", so ``(p * q)[i] == q[p[i]]``.  Groups carry a
deterministic stabilizer chain with the full base 0, 1, ..., m-1, built for
every group, S_m included, by Knuth's Schreier–Sims ("Efficient
representation of perm groups", Combinatorica 11 (1991) 33–43).  It gives
fast order/membership and, crucially, lexicographically minimal coset
representatives: the subgroup at level i fixes every point below i, so a
greedy descent of the chain computes min(H g) under the total order
"lexicographic on image arrays".

Cosets are handled as whole arrays of permutation rows, after the Schreier
vector coset enumeration of Seress, *Permutation Group Algorithms* (CUP
2003), ch. 4.  One routine canonicalises a block of rows (per chain level,
an argmin over the orbit and a gather with the transversal); one walks the
orbit of a coset under right multiplication a frontier at a time, in blocks
of bounded size, refusing orbits above the coset cap, and numbers every
image by the position of its coset in the walk.  H\\G is its sorted rows,
and one walk under G's generators and then H's gives the action arrays of
both and the walk's breadth-first tree; other rows are ranked by binary
search on byte keys.  R-indices and minimal double-coset elements come from
these routines, and double cosets H\\G/H are the orbits of H's action
arrays, kept as arrays (representatives as rows, classes as indices).
A group memoises the minimal element of each double coset it has walked,
keyed on the canonical row, as a tuple, of every right coset in the walk (a
lookup canonicalises its one row on tuples, without numpy), so its memory
grows with the cosets walked so far.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import ContainmentError, DomainMismatchError, MalformedPermutationError, ScaleError

#: right-coset spaces larger than this are refused (spec desk-scale cap)
COSET_INDEX_CAP = 100_000

#: image rows the coset orbit walk canonicalises at once, so that a big
#: frontier costs tens of MB at a time, not its whole product with the generators
WALK_BLOCK_ROWS = 1 << 16

#: exhaustive element enumeration is refused beyond this order
ENUMERATION_CAP = 1_000_000

#: permutation rows as arrays: big-endian, so the bytes of a row sort like
#: its image tuple
ROW = np.dtype(">u2")


def _mul(p, q):
    # apply p, then q
    return tuple(q[x] for x in p)


def _inv(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


class Permutation:
    """A bijection of {0..m-1}, stored as the tuple of point images."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise MalformedPermutationError(
                f"not a bijection of 0..{len(images) - 1}: {images!r}")
        object.__setattr__(self, "images", images)

    @classmethod
    def identity(cls, m: int) -> "Permutation":
        return cls(range(m))

    @classmethod
    def from_cycles(cls, m: int, *cycles) -> "Permutation":
        """Build from disjoint (or successively applied) cycles of points."""
        images = list(range(m))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:]):
                images[a] = b
            if cycle:
                images[cycle[-1]] = cycle[0]
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if len(self.images) != len(other.images):
            raise DomainMismatchError("degree mismatch in product")
        return _wrap(_mul(self.images, other.images))

    def inverse(self) -> "Permutation":
        return _wrap(_inv(self.images))

    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.images))

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other):
        return self.images < other.images

    def __le__(self, other):
        return self.images <= other.images

    def __hash__(self):
        return hash(self.images)

    def cycle_string(self) -> str:
        seen = set()
        parts = []
        for i in range(len(self.images)):
            if i in seen or self.images[i] == i:
                continue
            cyc = [i]
            j = self.images[i]
            while j != i:
                seen.add(j)
                cyc.append(j)
                j = self.images[j]
            parts.append("(" + " ".join(map(str, cyc)) + ")")
        return "".join(parts) or "()"

    def __repr__(self):
        return f"Permutation({list(self.images)})"


def _wrap(images) -> Permutation:
    p = Permutation.__new__(Permutation)
    object.__setattr__(p, "images", tuple(images))
    return p


class PermGroup:
    """Permutation group with a deterministic full-base stabilizer chain.

    The stabilizer chain uses the base 0, 1, ..., m-1 in order, so the
    subgroup at level i fixes every point below i pointwise.  It is built
    by Knuth's Schreier–Sims (Combinatorica 11 (1991) 33–43), with an
    explicit stack of his two moves in place of recursion:

    A(i, t), t fixing every point below i: unless t sifts to the identity
    from level i, it joins level i's generators and every orbit point's
    transversal u goes to C(i, u·t).
    C(i, t): a new orbit point t[i] takes t as its transversal and t·g goes
    to C(i, ·) for each generator g of level i; a known point with
    transversal u sends the Schreier generator t·u⁻¹ to A(i + 1, ·).

    The chain kept is its transversals: `_transversals[i]` maps each point
    of level i's orbit to its transversal u, u[i] being that point.  The
    level generators live only while the chain is built.
    """

    def __init__(self, degree: int, generators):
        self.degree = degree
        gens = []
        for g in generators:
            if not isinstance(g, Permutation):
                g = Permutation(g)
            if g.degree != degree:
                raise DomainMismatchError(
                    f"generator degree {g.degree} != group degree {degree}")
            gens.append(g)
        self.generators = tuple(gens)
        identity = tuple(range(degree))
        self._transversals = [{base: identity} for base in range(degree)]
        level_gens = [[] for _ in range(degree)]  # image tuples fixing every point below i
        # (t, level i, is_generator): A(i, t) when is_generator, else C(i, t)
        stack = [(g.images, 0, True) for g in reversed(self.generators)]
        while stack:
            t, i, is_generator = stack.pop()
            if is_generator and self._sift_images(t, i)[1] == degree:
                continue
            orbit = self._transversals[i]
            if is_generator:
                level_gens[i].append(t)
                stack.extend((_mul(u, t), i, False) for u in orbit.values())
            elif t[i] not in orbit:
                orbit[t[i]] = t
                stack.extend((_mul(t, g), i, False) for g in level_gens[i])
            elif t != orbit[t[i]]:
                # t·u⁻¹ fixes 0..i and is not the identity, so i + 1 < degree
                stack.append((_mul(t, _inv(orbit[t[i]])), i + 1, True))
        self._order = math.prod(map(len, self._transversals))

    def _sift_images(self, p, start=0):
        """Strip p through levels from `start`; return (residue, stop level)."""
        for i in range(start, self.degree):
            point = p[i]
            if point == i:
                continue
            u = self._transversals[i].get(point)
            if u is None:
                return p, i
            p = _mul(p, _inv(u))
        return p, self.degree

    # -- queries -------------------------------------------------------------

    def order(self) -> int:
        return self._order

    def __contains__(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            return False
        residue, stop = self._sift_images(p.images)
        return stop == self.degree

    def contains_group(self, other: "PermGroup") -> bool:
        return other.degree == self.degree and all(g in self for g in other.generators)

    def same_group(self, other: "PermGroup") -> bool:
        return self.order() == other.order() and self.contains_group(other)

    def elements(self):
        """All elements in a deterministic order (product over transversals)."""
        if self.order() > ENUMERATION_CAP:
            raise ScaleError(
                f"enumeration of order {self.order()} exceeds cap {ENUMERATION_CAP}")
        return [_wrap(t) for t in self._element_tuples(0)]

    def _element_tuples(self, i):
        if i == self.degree:
            return [tuple(range(self.degree))]
        deeper = self._element_tuples(i + 1)
        orbit = self._transversals[i]
        if len(orbit) == 1:
            return deeper
        out = []
        for point in sorted(orbit):
            u = orbit[point]
            out.extend(_mul(s, u) for s in deeper)
        return out

    # -- canonical coset representatives --------------------------------------

    @cached_property
    def generator_rows(self) -> np.ndarray:
        """The generators as an (S, m) array of rows."""
        return np.array([g.images for g in self.generators], dtype=ROW).reshape(-1, self.degree)

    @cached_property
    def _descent(self) -> list:
        """(base, {point: transversal}, orbit points, stacked transversal) of
        each chain level with a nontrivial orbit, in base order."""
        return [(base, orbit, np.array(sorted(orbit)),
                 np.array([orbit[p] for p in sorted(orbit)]))
                for base, orbit in enumerate(self._transversals) if len(orbit) > 1]

    def canonical_rows(self, rows) -> np.ndarray:
        """Lexicographically minimal element of (self)·g for every row g of
        the (N, m) array `rows`.

        h = s·u with s in the next stabilizer and u the transversal element,
        so (u·g)[base] = g[u[base]]: each level picks the orbit point where
        g is least and composes with its transversal row.
        """
        rows = np.asarray(rows, dtype=ROW)
        at = np.arange(len(rows))[:, None]
        for _, _, points, transversal in self._descent:
            best = rows[:, points].argmin(axis=1)
            rows = rows[at, transversal[best]]
        return rows

    def _canonical_images(self, images: tuple) -> tuple:
        """`canonical_rows` of one row, on tuples: the same descent, without numpy."""
        for base, orbit, _, _ in self._descent:
            best = min(orbit, key=images.__getitem__)
            if best != base:  # the transversal of the base is the identity
                images = _mul(orbit[best], images)
        return images

    def coset_orbit(self, start, gens) -> tuple:
        """Orbit of the right coset (self)·start under right multiplication
        by the rows of `gens`, an (S, m) array.

        Returns the canonical rows of the orbit in breadth-first discovery
        order, rows[0] being that of (self)·start, and the index in them
        (int32) of the coset of rows[w]·gens[s] at w·S + s.  A frontier is
        multiplied by every generator a block of rows at a time, at most
        WALK_BLOCK_ROWS images per block; each block's new cosets are
        numbered in order of first occurrence, the order a first-in first-out
        walk finds them, and `where` keeps their numbers beside their sorted
        keys.  An orbit of more than COSET_INDEX_CAP cosets raises ScaleError
        in the block that takes the count past the cap.
        """
        frontier = self.canonical_rows([start])
        seen, where = row_keys(frontier), np.zeros(1, dtype=np.int32)
        blocks, positions = [frontier], []
        step = max(1, WALK_BLOCK_ROWS // max(1, len(gens)))
        while len(frontier):
            found = []
            for i in range(0, len(frontier), step):
                images = self.canonical_rows(
                    gens[:, frontier[i:i + step]].swapaxes(0, 1).reshape(-1, self.degree))
                fresh, first, inverse = np.unique(
                    row_keys(images), return_index=True, return_inverse=True)
                at = np.searchsorted(seen, fresh)
                known = np.minimum(at, len(seen) - 1)
                new = seen[known] != fresh
                if len(seen) + np.count_nonzero(new) > COSET_INDEX_CAP:
                    raise ScaleError(f"coset orbit walk found more than {COSET_INDEX_CAP} "
                                     "right cosets")
                fresh_at = where[known]
                fresh_at[new] = len(seen) + np.argsort(np.argsort(first[new]))
                positions.append(fresh_at[inverse])
                found.append(images[np.sort(first[new])])
                seen = np.insert(seen, at[new], fresh[new])  # stays sorted
                where = np.insert(where, at[new], fresh_at[new])
            frontier = found[0] if len(found) == 1 else np.concatenate(found, dtype=ROW)
            blocks.append(frontier)
        return np.concatenate(blocks, dtype=ROW), np.concatenate(positions)

    @cached_property
    def _double_coset_min(self) -> dict:
        """Canonical row, as a tuple, of every right coset in an orbit walked
        so far -> the least element of its double coset."""
        return {}

    def min_in_double_coset(self, g: Permutation) -> Permutation:
        """Lexicographically minimal element of (self)·g·(self).

        The orbit of (self)·g under right multiplication by (self) is exactly
        the set of right cosets inside the double coset, so one walk files
        the minimum under every coset of it, and a later g in the same double
        coset costs one canonical row and a lookup.
        """
        memo = self._double_coset_min
        least = memo.get(self._canonical_images(g.images))
        if least is None:
            keys = list(map(tuple, self.coset_orbit(g.images, self.generator_rows)[0].tolist()))
            least = _wrap(min(keys))
            memo.update(dict.fromkeys(keys, least))
        return least


def row_keys(rows) -> np.ndarray:
    """One opaque byte key per row; keys compare like the image tuples."""
    rows = np.ascontiguousarray(rows, dtype=ROW)
    return rows.view(np.dtype((np.void, rows.shape[-1] * ROW.itemsize)))[..., 0]


def rank_keys(sorted_keys, keys):
    """(positions, found): where each key sits in the sorted `sorted_keys`
    (int32), and whether it is there."""
    idx = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return idx.astype(np.int32), sorted_keys[idx] == keys


def orbit_roots(maps, size: int) -> np.ndarray:
    """The least point of the orbit of each point of range(size) under the
    permutations `maps` (rows of an int array).

    Min-label propagation with pointer jumping: at the fixed point a label
    never exceeds the label of its image under any map, so labels are
    constant on every orbit, and each label is its own label.
    """
    label = np.arange(size)
    while True:
        new = label
        for row in maps:
            new = np.minimum(new, new[row])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


# -- standard groups ----------------------------------------------------------

def trivial_group(degree: int) -> PermGroup:
    return PermGroup(degree, [])


def symmetric_generators(degree: int) -> list:
    """(0 1) and the m-cycle, the generators of S_m from which every symmetric
    group and every ball group is built: only (0 1) on 2 points, none below."""
    gens = [Permutation.from_cycles(degree, (0, 1))] if degree > 1 else []
    if degree > 2:
        gens.append(Permutation.from_cycles(degree, tuple(range(degree))))
    return gens


def symmetric_group(degree: int) -> PermGroup:
    """S_m on `symmetric_generators(m)`; its chain, built like every other by
    Knuth's Schreier–Sims, has orbit {i..m-1} at level i."""
    return PermGroup(max(degree, 1), symmetric_generators(degree))


def dihedral_square() -> PermGroup:
    """Symmetries of a square with vertices 0,1,2,3 in cyclic order (order 8)."""
    return PermGroup(4, [Permutation.from_cycles(4, (0, 1, 2, 3)),
                         Permutation.from_cycles(4, (0, 2))])


# -- coset index ---------------------------------------------------------------

def _check_subgroup(G: PermGroup, H: PermGroup):
    if G.degree != H.degree:
        raise DomainMismatchError("subgroup acts on a different point set")
    if not G.contains_group(H):
        raise ContainmentError("claimed subgroup is not contained in the group")


def check_coset_count(size: int) -> int:
    """Refuse right-coset spaces above COSET_INDEX_CAP."""
    if size > COSET_INDEX_CAP:
        raise ScaleError(f"right-coset space of size {size} exceeds cap {COSET_INDEX_CAP}")
    return size


class CosetIndex:
    """The right-coset space H\\G: its canonical (lex-minimal) representatives,
    the right action of G's generators and H's on them and the walk's tree.

    Representatives are sorted lexicographically, which puts the identity
    (the representative of the coset H itself) at index 0; `rows` holds them
    as an (N, m) array, and ``action[s, i]`` is the index of H·r_i·g_s, g_s
    running over G's generators, then H's.  `walk` lists the cosets in the
    order the walk found them; coset i ≠ 0 was first found as the image of
    `parent[i]` under g_{move[i]}, and the root 0 is its own parent.
    """

    def __init__(self, G: PermGroup, H: PermGroup):
        _check_subgroup(G, H)
        size = check_coset_count(G.order() // H.order())
        self.subgroup = H
        gens = len(G.generators) + len(H.generators)
        found, positions = H.coset_orbit(
            np.arange(G.degree), np.concatenate([G.generator_rows, H.generator_rows]))
        if len(found) != size:
            raise RuntimeError(f"coset enumeration found {len(found)} cosets, expected {size}")
        order = np.argsort(row_keys(found))
        self.rows, self.walk = found[order], np.argsort(order).astype(np.int32)
        targets = self.walk[positions]  # each image's index among the sorted rows
        self.action = np.ascontiguousarray(targets.reshape(size, gens)[order].T)
        # the first image of a coset, in walk order, is the edge the walk found it by
        reached, first = np.unique(targets, return_index=True)
        self.parent, self.move = np.zeros((2, size), dtype=np.int32)
        self.parent[reached], self.move[reached] = self.walk[first // gens], first % gens
        self.parent[0] = self.move[0] = 0

    def __len__(self):
        return len(self.rows)

    def cosets_of(self, rows) -> np.ndarray:
        """Indices (int32) of the right cosets H·g, g over the rows of `rows`."""
        idx, found = rank_keys(row_keys(self.rows), row_keys(self.subgroup.canonical_rows(rows)))
        if not found.all():
            raise ContainmentError("permutation is not an element of the group")
        return idx


# -- double cosets --------------------------------------------------------------

class DoubleCosetTable:
    """The set H\\G/H as arrays over the double-coset classes.

    Classes are sorted by representative (lex order on image arrays); the
    class of H itself therefore sits at index 0 with the identity as its
    representative.  `representatives` holds them as a (dim, m) row array,
    `r_index[d]` counts the right cosets in class d, `class_of_coset[i]` is
    the class of coset i, `inverse_class[d]` the class of the inverses, and
    `sizes[d]` = |H|·R(d) as Python ints (|G| overflows int64 above 20
    points).  `roots[d]` is class d's least coset, that of its
    representative.  `subgroup_action[s, i]` is the coset of r_i·h_s for H's
    generators h_s: the last rows of `cosets.action`, as a view.
    """

    def __init__(self, G: PermGroup, H: PermGroup):
        self.cosets = cosets = CosetIndex(G, H)
        # a class is an orbit of H on H\\G; its least coset holds the minimum
        # of the double coset, so classes sort like their representatives
        self.subgroup_action = cosets.action[len(G.generators):]
        roots, classes = np.unique(orbit_roots(self.subgroup_action, len(cosets)),
                                   return_inverse=True)
        self.roots, self.class_of_coset = roots.astype(np.int32), classes.astype(np.int32)
        self.r_index = np.bincount(classes)
        self.representatives = cosets.rows[roots]
        # the inverse of a permutation row is its argsort
        self.inverse_class = self.class_of_coset[
            cosets.cosets_of(np.argsort(self.representatives, axis=1))]
        self.sizes = [H.order() * r for r in self.r_index.tolist()]
        assert sum(self.sizes) == G.order()

    def __len__(self):
        return len(self.representatives)

    def is_unimodular(self) -> bool:
        """Whether every class satisfies R(rep) == R(rep^{-1})."""
        return bool(np.array_equal(self.r_index, self.r_index[self.inverse_class]))

    @classmethod
    def load(cls, path) -> "DoubleCosetTable":
        """Refuse: tables are not stored.  Held only because `perfbench/tracer.py`
        patches this name; ROADMAP item 1 deletes it with the tracer."""
        raise ValueError("double-coset tables are built, never loaded")


def r_index(x: Permutation, H: PermGroup) -> int:
    """Number of right cosets H·y contained in H·x·H.

    Equals the index [H : H ∩ x^{-1}Hx]; computed as the orbit of the coset
    H·x under right translation by H.
    """
    if x.degree != H.degree:
        raise DomainMismatchError("element degree differs from subgroup degree")
    return len(H.coset_orbit(x.images, H.generator_rows)[0])

