"""Finite permutation groups: stabilizer chains, cosets, double cosets.

Permutations act on {0..m-1} and compose left to right: ``(p * q)`` means
"apply p, then q", so ``(p * q)[i] == q[p[i]]``.  Groups carry a
deterministic stabilizer chain with the full base 0, 1, ..., m-1, which
gives fast order/membership and, crucially, lexicographically minimal
coset representatives: the subgroup at level i fixes every point below i,
so a greedy descent of the chain computes min(H g) under the total order
"lexicographic on image arrays".

Cosets are handled as whole arrays of permutation rows, after the Schreier
vector coset enumeration of Seress, *Permutation Group Algorithms* (CUP
2003), ch. 4.  One routine canonicalises a block of rows (per chain level,
an argmin over the orbit and a gather with the transversal), one walks the
orbit of a coset under right multiplication a frontier at a time, and rows
are ranked against sorted rows by binary search on byte keys.  The coset
space H\\G with its generator action, R-indices and minimal double-coset
elements come from these; double cosets H\\G/H are the orbits of H's
action arrays on H\\G, never computed on raw group elements, and their
table keeps them as arrays (representatives as rows, classes as indices).
"""

from __future__ import annotations

import json
from functools import cached_property

import numpy as np

from .errors import ContainmentError, DomainMismatchError, MalformedPermutationError, ScaleError

#: right-coset spaces larger than this are refused (spec desk-scale cap)
COSET_INDEX_CAP = 100_000

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
        p = Permutation.__new__(Permutation)
        object.__setattr__(p, "images", _mul(self.images, other.images))
        return p

    def inverse(self) -> "Permutation":
        p = Permutation.__new__(Permutation)
        object.__setattr__(p, "images", _inv(self.images))
        return p

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


class _Level:
    """One stabilizer-chain level: base point, own generators, Schreier vector."""

    __slots__ = ("base", "gens", "gen_set", "orbit", "done")

    def __init__(self, base: int, m: int):
        self.base = base
        self.gens = []                        # raw image tuples first moving this base
        self.gen_set = set()
        self.orbit = {base: tuple(range(m))}  # point -> transversal u with u[base] = point
        self.done = set()                     # processed (point, generator) pairs

    def extend_orbit(self, gens):
        """Grow the orbit under `gens`, keeping existing transversal entries."""
        queue = sorted(self.orbit)
        while queue:
            point = queue.pop(0)
            u = self.orbit[point]
            for g in gens:
                image = g[point]
                if image not in self.orbit:
                    self.orbit[image] = _mul(u, g)
                    queue.append(image)


class PermGroup:
    """Permutation group with a deterministic full-base stabilizer chain.

    The stabilizer chain uses the base 0, 1, ..., m-1 in order, so the
    subgroup at level i fixes every point below i pointwise.
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
        self._levels = [_Level(b, degree) for b in range(degree)]
        for g in self.generators:
            self._store(g.images)
        self._close()
        self._order = 1
        for level in self._levels:
            self._order *= len(level.orbit)

    # -- chain construction -------------------------------------------------

    def _store(self, p):
        """File a strong generator at the level of its first moved point."""
        for i, x in enumerate(p):
            if x != i:
                level = self._levels[i]
                if p not in level.gen_set:
                    level.gens.append(p)
                    level.gen_set.add(p)
                    return True
                return False
        return False

    def _close(self):
        """Fixed-point closure: orbits stable and all Schreier residues trivial."""
        dirty = True
        while dirty:
            dirty = False
            for i in range(self.degree):
                level = self._levels[i]
                # strong generators of the level-i stabilizer live at levels >= i
                gens = [g for lv in self._levels[i:] for g in lv.gens]
                if not gens:
                    continue
                level.extend_orbit(gens)
                for point in sorted(level.orbit):
                    u = level.orbit[point]
                    for g in gens:
                        key = (point, g)
                        if key in level.done:
                            continue
                        level.done.add(key)
                        target = level.orbit[g[point]]
                        schreier = _mul(_mul(u, g), _inv(target))
                        residue, stop = self._sift_images(schreier, i + 1)
                        if stop < self.degree and self._store(residue):
                            dirty = True

    def _sift_images(self, p, start=0):
        """Strip p through levels from `start`; return (residue, stop level)."""
        for i in range(start, self.degree):
            level = self._levels[i]
            point = p[level.base]
            if point == level.base:
                continue
            u = level.orbit.get(point)
            if u is None:
                return p, i
            p = _mul(p, _inv(u))
        return p, self.degree

    # -- queries -------------------------------------------------------------

    def order(self) -> int:
        return self._order

    def transversal(self, base: int) -> dict:
        """Orbit-to-representative map of the chain level at `base`."""
        return {point: _wrap(u) for point, u in self._levels[base].orbit.items()}

    def __contains__(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            return False
        residue, stop = self._sift_images(p.images)
        return stop == self.degree

    def contains_group(self, other: "PermGroup") -> bool:
        return other.degree == self.degree and all(g in self for g in other.generators)

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return other.contains_group(self)

    def same_group(self, other: "PermGroup") -> bool:
        return self.order() == other.order() and self.contains_group(other)

    def elements(self, cap: int = ENUMERATION_CAP):
        """All elements in a deterministic order (product over transversals)."""
        if self.order() > cap:
            raise ScaleError(
                f"enumeration of order {self.order()} exceeds cap {cap}")
        return [_wrap(t) for t in self._element_tuples(0)]

    def _element_tuples(self, i):
        if i == self.degree:
            return [tuple(range(self.degree))]
        deeper = self._element_tuples(i + 1)
        level = self._levels[i]
        if len(level.orbit) == 1:
            return deeper
        out = []
        for point in sorted(level.orbit):
            u = level.orbit[point]
            out.extend(_mul(s, u) for s in deeper)
        return out

    def sample(self, rng) -> Permutation:
        """Uniform random element; rng is a random.Random-like object."""
        e = tuple(range(self.degree))
        for i in reversed(range(self.degree)):
            level = self._levels[i]
            if len(level.orbit) == 1:
                continue
            point = rng.choice(sorted(level.orbit))
            e = _mul(e, level.orbit[point])
        return _wrap(e)

    # -- canonical coset representatives --------------------------------------

    @cached_property
    def generator_rows(self) -> np.ndarray:
        """The generators as an (S, m) array of rows."""
        return np.array([g.images for g in self.generators], dtype=ROW).reshape(-1, self.degree)

    @cached_property
    def _descent(self) -> list:
        """(orbit points, stacked transversal) of each chain level with a
        nontrivial orbit, in base order."""
        return [(np.array(sorted(level.orbit)),
                 np.array([level.orbit[p] for p in sorted(level.orbit)]))
                for level in self._levels if len(level.orbit) > 1]

    def canonical_rows(self, rows) -> np.ndarray:
        """Lexicographically minimal element of (self)·g for every row g of
        the (N, m) array `rows`.

        h = s·u with s in the next stabilizer and u the transversal element,
        so (u·g)[base] = g[u[base]]: each level picks the orbit point where
        g is least and composes with its transversal row.
        """
        rows = np.asarray(rows, dtype=ROW)
        at = np.arange(len(rows))[:, None]
        for points, transversal in self._descent:
            best = rows[:, points].argmin(axis=1)
            rows = rows[at, transversal[best]]
        return rows

    def coset_orbit(self, start, gens):
        """Orbit of the right coset (self)·start under right multiplication
        by the rows of `gens`, an (S, m) array.

        Returns (rows, targets): the canonical rows of the orbit in
        breadth-first discovery order, rows[0] being that of (self)·start,
        and targets[k, s], the byte key of the canonical row of
        (self)·rows[k]·gens[s].  Each frontier is multiplied by every
        generator at once and its new cosets are kept in order of first
        occurrence, which is the order a first-in first-out walk finds them.
        """
        frontier = self.canonical_rows([start])
        seen = row_keys(frontier)
        blocks, targets = [frontier], []
        while len(frontier):
            images = self.canonical_rows(
                gens[:, frontier].swapaxes(0, 1).reshape(-1, self.degree))
            keys = row_keys(images)
            targets.append(keys)
            fresh, first = np.unique(keys, return_index=True)
            _, known = rank_keys(seen, fresh)
            frontier = images[np.sort(first[~known])]
            seen = np.sort(np.concatenate([seen, row_keys(frontier)]))
            blocks.append(frontier)
        rows = np.concatenate(blocks)
        return rows, np.concatenate(targets).reshape(len(rows), len(gens))

    def min_in_double_coset(self, g: Permutation) -> Permutation:
        """Lexicographically minimal element of (self)·g·(self)."""
        rows, _ = self.coset_orbit(g.images, self.generator_rows)
        return _wrap(min(rows.tolist()))


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


def symmetric_group(degree: int) -> PermGroup:
    if degree <= 1:
        return trivial_group(max(degree, 1))
    gens = [Permutation.from_cycles(degree, (0, 1))]
    if degree > 2:
        gens.append(Permutation.from_cycles(degree, tuple(range(degree))))
    return PermGroup(degree, gens)


def dihedral_square() -> PermGroup:
    """Symmetries of a square with vertices 0,1,2,3 in cyclic order (order 8)."""
    return PermGroup(4, [Permutation.from_cycles(4, (0, 1, 2, 3)),
                         Permutation.from_cycles(4, (0, 2))])


# -- coset index ---------------------------------------------------------------

def _check_subgroup(G: PermGroup, H: PermGroup):
    if G.degree != H.degree:
        raise DomainMismatchError("subgroup acts on a different point set")
    if not H.is_subgroup_of(G):
        raise ContainmentError("claimed subgroup is not contained in the group")


def check_coset_count(size: int) -> int:
    """Refuse right-coset spaces above COSET_INDEX_CAP."""
    if size > COSET_INDEX_CAP:
        raise ScaleError(f"right-coset space of size {size} exceeds cap {COSET_INDEX_CAP}")
    return size


class CosetIndex:
    """The right-coset space H\\G with canonical (lex-minimal) representatives.

    Representatives are sorted lexicographically, which puts the identity
    (the representative of the coset H itself) at index 0; `rows` holds them
    as an (N, m) array.  The enumeration keeps the right action of G's
    generators on the cosets, ``action[s, i]`` being the index of
    H·r_i·g_s, and the breadth-first tree it grew along: coset j > 0 was
    first reached as ``action[tree_generator[j], tree_parent[j]]``.
    """

    def __init__(self, G: PermGroup, H: PermGroup):
        _check_subgroup(G, H)
        size = check_coset_count(G.order() // H.order())
        self.group = G
        self.subgroup = H
        gens = G.generator_rows
        found, targets = H.coset_orbit(np.arange(G.degree), gens)
        if len(found) != size:
            raise RuntimeError(
                f"coset enumeration found {len(found)} cosets, expected {size}")
        order = np.argsort(row_keys(found), kind="stable")
        self.rows = found[order]
        self._keys = row_keys(self.rows)
        # discovery order -> sorted order
        position = np.empty(size, dtype=np.int32)
        position[order] = np.arange(size, dtype=np.int32)
        moves, _ = rank_keys(self._keys, targets)
        self.action = np.empty((len(gens), size), dtype=np.int32)
        self.action[:, position] = moves.T
        # the first edge into a coset, in discovery order, is its tree edge
        edge = np.full(size, -1)
        reached, first = np.unique(order[moves], return_index=True)
        edge[reached] = first
        parent, generator = np.divmod(edge[1:], len(gens))
        self.tree_parent = np.full(size, -1, dtype=np.int32)
        self.tree_generator = np.full(size, -1, dtype=np.int32)
        self.tree_parent[position[1:]] = position[parent]
        self.tree_generator[position[1:]] = generator

    def __len__(self):
        return len(self.rows)

    def cosets_of(self, rows) -> np.ndarray:
        """Indices (int32) of the right cosets H·g, g over the rows of `rows`."""
        idx, found = rank_keys(self._keys, row_keys(self.subgroup.canonical_rows(rows)))
        if not found.all():
            raise ContainmentError("permutation is not an element of the group")
        return idx

    def coset_of(self, p: Permutation) -> int:
        """Index of the right coset H·p."""
        return int(self.cosets_of([p.images])[0])

    def translations(self):
        """Yield (j, R_j) for every coset j, where R_j[i] is the coset H·r_i·w_j⁻¹.

        Here w_j is the word in G's generators along the tree path to j, so
        H·w_j = H·r_j, and H·r_i·w_j⁻¹ lies in the double coset of
        r_i·r_j⁻¹.  Each R_j is one gather of its parent's, R_j =
        R_parent[inverse action of the tree generator]; the tree is walked
        depth first, so only the translations along one path are alive.
        """
        size = len(self)
        inverse = np.empty_like(self.action)
        for s, row in enumerate(self.action):
            inverse[s, row] = np.arange(size, dtype=np.int32)
        children = [[] for _ in range(size)]
        for j, parent in enumerate(self.tree_parent.tolist()):
            if parent >= 0:
                children[parent].append(j)
        stack = [(0, np.arange(size, dtype=np.int32))]
        while stack:
            j, R = stack.pop()
            yield j, R
            for c in children[j]:
                stack.append((c, R[inverse[self.tree_generator[c]]]))


# -- double cosets --------------------------------------------------------------

class DoubleCosetTable:
    """The set H\\G/H as arrays over the double-coset classes.

    Classes are sorted by representative (lex order on image arrays); the
    class of H itself therefore sits at index 0 with the identity as its
    representative.  `representatives` holds them as a (dim, m) row array,
    `r_index[d]` counts the right cosets in class d, `class_of_coset[i]` is
    the class of coset i, `inverse_class[d]` the class of the inverses, and
    `sizes[d]` = |H|·R(d) as Python ints (|G| overflows int64 above 20
    points).  `subgroup_action[s, i]` is the coset of r_i·h_s for H's
    generators h_s.
    """

    def __init__(self, G: PermGroup, H: PermGroup):
        self.cosets = cosets = CosetIndex(G, H)
        self.group = G
        self.subgroup = H
        # a class is an orbit of H on H\\G; its least coset holds the minimum
        # of the double coset, so classes sort like their representatives
        action = [cosets.cosets_of(h[cosets.rows]) for h in H.generator_rows]
        self.subgroup_action = np.array(action, dtype=np.int32).reshape(-1, len(cosets))
        roots, classes = np.unique(orbit_roots(action, len(cosets)), return_inverse=True)
        self.class_of_coset = classes.astype(np.int32)
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

    # -- serialization ----------------------------------------------------------

    FORMAT = "heckelab/dctable/v1"

    def to_json_dict(self, descriptor=None) -> dict:
        return {
            "format": self.FORMAT,
            "descriptor": descriptor or {},
            "m": self.group.degree,
            "group_generators": [list(g.images) for g in self.group.generators],
            "subgroup_generators": [list(g.images) for g in self.subgroup.generators],
            "coset_representatives": self.cosets.rows.tolist(),
            "entries": [
                {
                    "representative": rep,
                    "size": size,
                    "right_cosets": np.flatnonzero(self.class_of_coset == d).tolist(),
                    "r_index": r,
                    "r_index_inv": r_inv,
                }
                for d, (rep, size, r, r_inv) in enumerate(zip(
                    self.representatives.tolist(), self.sizes, self.r_index.tolist(),
                    self.r_index[self.inverse_class].tolist()))
            ],
        }

    def save(self, path, descriptor=None):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(descriptor), fh)

    @classmethod
    def from_json_dict(cls, data: dict, descriptor=None) -> "DoubleCosetTable":
        """Rebuild a cached table from its stored groups.

        The stored document must equal the rebuilt table's, so a table is
        used only if it is the orbit computation of its groups.  When
        `descriptor` is given, the stored one must equal it.  Any malformed
        or mismatched field raises ValueError.
        """
        if not isinstance(data, dict):
            raise ValueError("cached table is not a JSON object")
        if data.get("format") != cls.FORMAT:
            raise ValueError(f"unsupported table format {data.get('format')!r}")
        if descriptor is not None and data.get("descriptor") != descriptor:
            raise ValueError(f"cached descriptor {data.get('descriptor')!r} "
                             f"is not {descriptor!r}")
        m = data.get("m")
        if type(m) is not int or m < 1:
            raise ValueError(f"cached degree {m!r} is not a positive integer")
        G = PermGroup(m, _int_rows(data.get("group_generators"), "group generators"))
        H = PermGroup(m, _int_rows(data.get("subgroup_generators"), "subgroup generators"))
        table = cls(G, H)
        if table.to_json_dict(data.get("descriptor")) != data:
            raise ValueError("cached table differs from the orbit computation of its groups")
        return table

    @classmethod
    def load(cls, path, descriptor=None) -> "DoubleCosetTable":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh), descriptor)


def r_index(x: Permutation, H: PermGroup) -> int:
    """Number of right cosets H·y contained in H·x·H.

    Equals the index [H : H ∩ x^{-1}Hx]; computed as the orbit of the coset
    H·x under right translation by H.
    """
    if x.degree != H.degree:
        raise DomainMismatchError("element degree differs from subgroup degree")
    return len(H.coset_orbit(x.images, H.generator_rows)[0])


def _int_rows(value, what: str) -> list:
    if not isinstance(value, list) or any(
            not isinstance(row, list) or any(type(x) is not int for x in row) for row in value):
        raise ValueError(f"cached {what} are not lists of integers")
    return value
