"""Finite-data calculus for almost automorphisms of the rooted tree.

An element is a triple (A, B, φ): two complete finite subtrees containing
the root with equally many leaves, a leaf bijection, and for each leaf a
finitary twist describing how the full subtree hanging at that leaf maps
onto the subtree at the image leaf.  A twist is a portrait: a finite map
from relative addresses to child permutations, trivial almost everywhere.

Two data sets represent the same group element when they agree after
refinement; the canonical form is the unique minimal representative,
obtained by merging sibling leaf blocks whose data collapses into a single
vertex map until no block is left to merge.

The bridge to the double-coset picture: an element representable with
A = B = (radius-n ball) induces a permutation of the ordered level set,
and its canonical double coset under the ball automorphism group is the
complete invariant of its two-sided orbit under tree automorphisms.
Membership in that level-n subgroup is read off the canonical form: every
domain leaf at depth at most n, with its image leaf at the same depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .errors import LevelError
from .permgroup import PermGroup, Permutation, _wrap
from .treefam import TreeShape, ball_aut_group, check_level

# -- portraits (finitary subtree twists) -------------------------------------------

def _portrait_apply(portrait: dict, rel: tuple) -> tuple:
    out = []
    cur = ()
    for c in rel:
        perm = portrait.get(cur)
        out.append(perm[c] if perm is not None else c)
        cur = cur + (c,)
    return tuple(out)


def _portrait_preimage(portrait: dict, rel: tuple) -> tuple:
    out = []
    cur = ()
    for letter in rel:
        perm = portrait.get(cur)
        c = perm.index(letter) if perm is not None else letter
        out.append(c)
        cur = cur + (c,)
    return tuple(out)


def _portrait_compose(first: dict, second: dict) -> dict:
    """Portrait of (apply `first`, then `second`)."""
    if not first or not second:
        return first or second
    addresses = set(first)
    addresses.update(_portrait_preimage(first, r) for r in second)
    out = {}
    for r in addresses:
        p1 = first.get(r)
        p2 = second.get(_portrait_apply(first, r))
        if p1 is None:
            perm = p2
        elif p2 is None:
            perm = p1
        else:
            perm = tuple(p2[c] for c in p1)
        if any(i != x for i, x in enumerate(perm)):
            out[r] = perm
    return out


def _portrait_invert(portrait: dict) -> dict:
    out = {}
    for r, perm in portrait.items():
        inv = [0] * len(perm)
        for i, x in enumerate(perm):
            inv[x] = i
        out[_portrait_apply(portrait, r)] = tuple(inv)
    return out


def _portrait_restrict(portrait: dict, c: int) -> dict:
    """Portrait of the induced map on the child-c subtree."""
    return {r[1:]: perm for r, perm in portrait.items() if r and r[0] == c}


# -- complete subtrees ----------------------------------------------------------------

def _tree_vertices(leaves) -> set:
    verts = set()
    for leaf in leaves:
        for j in range(len(leaf) + 1):
            verts.add(leaf[:j])
    return verts


def _is_vertex(shape: TreeShape, address: tuple) -> bool:
    return not address or (min(address) >= 0 and address[0] < shape.k
                           and max(address[1:], default=0) < shape.d)


def _check_complete(shape: TreeShape, leaves) -> None:
    """Raise ValueError unless `leaves` is the leaf set of a complete subtree.

    Sorted, a prefix comes right before its extensions.  With maximum depth
    D a leaf at depth j covers |V_D| / |V_j| points of V_D, so prefix-free
    vertices are the leaves of a complete subtree exactly when they cover
    V_D: when this Kraft sum is |V_D|.  Each vertex above a leaf at depth D
    has a second child, so a complete subtree has at least D + 1 leaves; the
    sum is formed only past that test, with |V_D| / |V_j| = d^(D - j) once
    per depth j (the root is a leaf only alone, when D = j = 0).
    """
    leaves = sorted(leaves)  # so first letters ascend: the ends bound them
    deeper = [c for v in leaves for c in v[1:]]
    if leaves and leaves[0] and not 0 <= leaves[0][0] <= leaves[-1][0] < shape.k or \
            deeper and not 0 <= min(deeper) <= max(deeper) < shape.d:
        bad = next(v for v in leaves if not _is_vertex(shape, v))
        raise ValueError(f"leaf {bad} is not a vertex of the tree")
    for v, w in zip(leaves, leaves[1:]):
        if w[:len(v)] == v:
            raise ValueError(f"leaf {v} has descendants in the subtree")
    depths = list(map(len, leaves))
    deepest = max(depths, default=0)
    if deepest < len(leaves):
        size = shape.level_size(deepest)
        cover = {j: shape.d ** (deepest - j) for j in set(depths)}
        if sum(map(cover.__getitem__, depths)) == size:
            return
    raise ValueError("subtree leaves do not cover the boundary of the tree")


def _split_leaves(g, target_vertices: set, by_image: bool) -> tuple:
    """Leaf map and twists of g with leaves split, twists pushed down, until
    no domain leaf (image leaf if `by_image`) has children in `target_vertices`."""
    leaf_map, twists = {}, {}
    todo = [(a, b, g.twists[a]) for a, b in g.leaf_map.items()]
    while todo:
        a, b, portrait = todo.pop()
        if (b if by_image else a) + (0,) not in target_vertices:
            leaf_map[a], twists[a] = b, portrait
            continue
        perm = portrait.get(()) or range(g.shape.arity(a))
        todo.extend((a + (c,), b + (x,), _portrait_restrict(portrait, c))
                    for c, x in enumerate(perm))
    return leaf_map, twists


def _validated(shape: TreeShape, leaf_map: dict, twists: dict) -> dict:
    """The constructor's checks, shared with the parser, on tuple addresses;
    returns the twists as stored: tuple portraits without identities."""
    _check_complete(shape, leaf_map.keys())
    images = list(leaf_map.values())
    if len(set(images)) != len(images):
        raise ValueError("leaf map is not injective")
    _check_complete(shape, images)
    stray = [a for a in twists if a not in leaf_map]
    if stray:
        raise ValueError(f"twist at {stray[0]} is not at a domain leaf")
    # one pass; an identity is dropped after its vertex check, as it is a
    # permutation.  The identity of an arity is built once a permutation
    # that long is seen, so a huge d or k costs nothing.
    identities = {}
    out = {}
    for a in leaf_map:
        out[a] = portrait = {}
        for r, perm in twists.get(a, {}).items():
            r, perm = tuple(r), tuple(perm)
            if not _is_vertex(shape, a + r):
                raise ValueError(f"twist at leaf {a}, address {r} is not a vertex of the tree")
            arity = shape.d if a or r else shape.k
            identity = identities.get(arity)
            if identity is None and len(perm) == arity:
                identity = identities[arity] = tuple(range(arity))
            if perm == identity:
                continue
            if identity is None or sorted(perm) != list(identity):
                raise ValueError(
                    f"twist at leaf {a}, address {r} is not a permutation "
                    f"of {arity} children")
            portrait[r] = perm
    return out


@dataclass(frozen=True)
class AlmostAutomorphism:
    """Immutable finite-data representative of an almost automorphism."""

    shape: TreeShape
    leaf_map: dict
    twists: dict

    def __post_init__(self):
        leaf_map = {tuple(a): tuple(b) for a, b in self.leaf_map.items()}
        object.__setattr__(self, "twists", _validated(self.shape, leaf_map, self.twists))
        object.__setattr__(self, "leaf_map", leaf_map)

    # -- basics -----------------------------------------------------------------------

    @classmethod
    def identity(cls, shape: TreeShape) -> "AlmostAutomorphism":
        return cls(shape, {(): ()}, {(): {}})

    @classmethod
    def automorphism(cls, shape: TreeShape, portrait: dict) -> "AlmostAutomorphism":
        """A tree automorphism given by its root portrait."""
        return cls(shape, {(): ()}, {(): portrait})

    @classmethod
    def from_level_permutation(cls, shape: TreeShape, n: int, sigma: Permutation,
                               twists: dict | None = None) -> "AlmostAutomorphism":
        """Element with A = B = the radius-n ball and the given level action.
        Level sets above LEVEL_POINT_CAP are refused (V_0 is the root)."""
        if n > 0:
            check_level(shape, n)
        level = shape.vertices(n)
        if sigma.degree != len(level):
            raise ValueError(f"permutation degree differs from |V_{n}|")
        leaf_map = {a: level[sigma(i)] for i, a in enumerate(level)}
        return cls(shape, leaf_map, twists or {})

    def data_equal(self, other: "AlmostAutomorphism") -> bool:
        return (self.shape == other.shape and self.leaf_map == other.leaf_map
                and self.twists == other.twists)

    def __eq__(self, other):
        if not isinstance(other, AlmostAutomorphism):
            return NotImplemented
        return canonical_form(self).data_equal(canonical_form(other))

    def __hash__(self):
        c = canonical_form(self)
        return hash((c.shape,
                     tuple(sorted(c.leaf_map.items())),
                     tuple(sorted((a, tuple(sorted(t.items())))
                                  for a, t in c.twists.items()))))

    def is_identity(self) -> bool:
        c = canonical_form(self)
        return c.leaf_map == {(): ()} and not c.twists[()]

    # -- evaluation ------------------------------------------------------------------------

    def apply_to_address(self, address: tuple) -> tuple:
        """Image of a vertex at or below a domain leaf."""
        address = tuple(address)
        for j in range(len(address) + 1):
            prefix = address[:j]
            if prefix in self.leaf_map:
                rel = address[j:]
                return self.leaf_map[prefix] + _portrait_apply(self.twists[prefix], rel)
        raise ValueError(f"address {address} is not below a domain leaf")

    def __repr__(self):
        pairs = ", ".join(
            f"{''.join(map(str, a)) or 'root'}→{''.join(map(str, b)) or 'root'}"
            for a, b in sorted(self.leaf_map.items()))
        twisted = sum(1 for t in self.twists.values() if t)
        return f"AlmostAutomorphism({pairs}; {twisted} twisted leaves)"


# -- group operations ------------------------------------------------------------------------

def _built(shape: TreeShape, leaf_map: dict, twists: dict) -> AlmostAutomorphism:
    """An element from data already in the form the constructor leaves: tuple
    addresses, complete subtrees on both sides, a portrait at every domain
    leaf and no identity in one.  Nothing is checked: only the operations
    below, whose results have that form by construction, build elements this
    way, and a differential test rebuilds their results through the
    constructor."""
    g = object.__new__(AlmostAutomorphism)
    object.__setattr__(g, "shape", shape)
    object.__setattr__(g, "leaf_map", leaf_map)
    object.__setattr__(g, "twists", twists)
    return g


def compose(g: AlmostAutomorphism, h: AlmostAutomorphism) -> AlmostAutomorphism:
    """The element "apply g, then h"."""
    if g.shape != h.shape:
        raise ValueError("elements live on different tree shapes")
    interface = _tree_vertices(set(g.leaf_map.values()) | set(h.leaf_map.keys()))
    g_map, g_twists = _split_leaves(g, interface, by_image=True)
    h_map, h_twists = _split_leaves(h, interface, by_image=False)
    leaf_map = {a: h_map[b] for a, b in g_map.items()}
    twists = {a: _portrait_compose(g_twists[a], h_twists[b]) for a, b in g_map.items()}
    return _built(g.shape, leaf_map, twists)


def inverse(g: AlmostAutomorphism) -> AlmostAutomorphism:
    leaf_map = {b: a for a, b in g.leaf_map.items()}
    twists = {g.leaf_map[a]: _portrait_invert(t) for a, t in g.twists.items()}
    return _built(g.shape, leaf_map, twists)


def canonical_form(g: AlmostAutomorphism) -> AlmostAutomorphism:
    """The unique minimal representative; `g` itself if it is minimal.

    Merges every sibling leaf block whose images form a full sibling block,
    from a worklist of parents: each parent of a leaf once, and the parent of
    each merged block.  A merge only turns its parent into a leaf, so merges
    commute and any order reaches the fixed point; idempotent.
    """
    d, k = g.shape.d, g.shape.k
    leaf_map = dict(g.leaf_map)
    twists = dict(g.twists)
    todo = list({a[:-1] for a in leaf_map if a})
    while todo:
        parent = todo.pop()
        arity = d if parent else k
        children = [parent + (c,) for c in range(arity)]
        if any(child not in leaf_map for child in children):
            continue
        images = [leaf_map[child] for child in children]
        target = images[0][:-1]
        # distinct vertices below one target fill its children when there
        # are as many of them as it has children
        if (d if target else k) != arity or any(image[:-1] != target for image in images):
            continue
        letters = tuple([image[-1] for image in images])
        portrait = {} if letters == tuple(range(arity)) else {(): letters}
        for c, child in enumerate(children):
            portrait.update(((c,) + r, perm) for r, perm in twists.pop(child).items())
            del leaf_map[child]
        leaf_map[parent] = target
        twists[parent] = portrait
        if parent:
            todo.append(parent[:-1])
    if len(leaf_map) == len(g.leaf_map):
        return g
    return _built(g.shape, leaf_map, twists)


# -- level subgroups and the double-coset bridge ------------------------------------------------

def _level_form(g: AlmostAutomorphism, n: int) -> AlmostAutomorphism | None:
    """The canonical form of g, or None outside the level-n subgroup: g is
    inside exactly when each domain leaf of it has depth at most n and its
    image the same depth, since refining to the n-ball splits only the
    leaves above V_n, into leaves on V_n whose images keep the offset."""
    c = canonical_form(g)
    return c if all(len(a) == len(b) <= n for a, b in c.leaf_map.items()) else None


def is_in_level_subgroup(g: AlmostAutomorphism, n: int) -> bool:
    """Whether g is represented by a forest automorphism off the radius-n ball."""
    return _level_form(g, n) is not None


def minimal_level(g: AlmostAutomorphism, n_max: int = 16) -> int | None:
    """Least n with g in the level-n subgroup, or None below n_max: the depth
    of the deepest leaf of the canonical form, if g is in any."""
    c = _level_form(g, n_max)
    return None if c is None else max(map(len, c.leaf_map))


def level_permutation(g: AlmostAutomorphism, n: int) -> Permutation:
    """The induced permutation of the ordered level set V_n.  Level sets
    above LEVEL_POINT_CAP are refused before any is listed (V_0 is the root).

    Each leaf a -> b of the canonical form sends a·r in V_n to b·t(r), t the
    twist at a; the permutation is built unchecked."""
    if n > 0:
        check_level(g.shape, n)
    c = _level_form(g, n)
    if c is None:
        raise LevelError(f"element does not act on the complement of the {n}-ball")
    level, position, below = _level_index(g.shape, n)
    images = [0] * len(level)
    for a, b in c.leaf_map.items():
        twist = c.twists[a]
        for rel in below[len(a)]:
            images[position[a + rel]] = position[b + _portrait_apply(twist, rel)]
    return _wrap(images)


@cache
def _level_index(shape: TreeShape, n: int) -> tuple:
    """V_n in order, the position of each vertex in it, and by depth j the
    addresses in V_n relative to a level-j vertex (V_n is sorted: those of 0…0)."""
    level = shape.vertices(n)
    below = [[v[j:] for v in level[:len(level) // shape.level_size(j)]]
             for j in range(n + 1)]
    return level, {addr: i for i, addr in enumerate(level)}, below


@cache
def _level_group(shape: TreeShape, n: int) -> PermGroup:
    return ball_aut_group(shape, n)


def double_coset_key(g: AlmostAutomorphism, n: int) -> Permutation:
    """Canonical representative of the two-sided tree-automorphism orbit.

    Twists are discarded: they are absorbed into the compact side, so the
    key depends only on the level-n permutation modulo the ball group on
    both sides.
    """
    check_level(g.shape, n)
    sigma = level_permutation(g, n)
    return _level_group(g.shape, n).min_in_double_coset(sigma)


# -- randomized elements (seeded, for property suites) --------------------------------------------

def random_portrait(shape: TreeShape, root: tuple, rng, depth: int = 2,
                    density: float = 0.35) -> dict:
    """Random finitary portrait for the subtree at `root`, nontrivial down to
    `depth` levels below it."""
    portrait = {}
    frontier = [()]
    for _ in range(depth + 1):
        next_frontier = []
        for rel in frontier:
            arity = shape.arity(root + rel)
            if rng.random() < density:
                perm = list(range(arity))
                rng.shuffle(perm)
                if perm != sorted(perm):
                    portrait[rel] = tuple(perm)
            next_frontier.extend(rel + (c,) for c in range(arity))
        frontier = next_frontier
    return portrait


def random_tree_automorphism(shape: TreeShape, rng, depth: int = 3) -> AlmostAutomorphism:
    """Random finitary automorphism of the whole tree (an element of K)."""
    return AlmostAutomorphism.automorphism(
        shape, random_portrait(shape, (), rng, depth=depth, density=0.5))


# -- text format -----------------------------------------------------------------------------------

FORMAT = "heckelab/spheromorph/v1"


def _address_to_text(addr: tuple):
    """A digit string; the list of letters if one is above 9."""
    if all(c <= 9 for c in addr):
        return "".join(map(str, addr))
    return list(addr)


def _address_to_key(addr: tuple) -> str:
    """A twist key, which JSON needs as a string: the digit string, or the
    compact JSON text of the letter list, such as "[1,10]"."""
    text = _address_to_text(addr)
    return text if isinstance(text, str) else "[" + ",".join(map(str, text)) + "]"


# Parsed address texts, filled until ADDRESS_MEMO_CAP entries; only texts that
# pass the grammar are stored.
ADDRESS_MEMO_CAP = 4096
_address_memo: dict = {}


def _address_from_text(text) -> tuple:
    if isinstance(text, str):
        address = _address_memo.get(text)
        if address is not None:
            return address
        # isascii: "²".isdigit() is true, and int() reads "٣" as 3
        if not text or text.isascii() and text.isdigit():
            address = tuple(map(int, text))
            if len(_address_memo) < ADDRESS_MEMO_CAP:
                _address_memo[text] = address
            return address
    elif isinstance(text, (list, tuple)) and all(type(c) is int for c in text):
        return tuple(text)
    raise ValueError(f"malformed tree address {text!r}")


def _address_from_key(text) -> tuple:
    """Read a twist key; a list spelling must be the one `_address_to_key` writes."""
    if not (isinstance(text, str) and text.startswith("[")):
        return _address_from_text(text)
    letters = text[1:-1].split(",")
    if text.endswith("]") and all(c.isascii() and c.isdigit() for c in letters):
        address = tuple(map(int, letters))
        if _address_to_key(address) == text:
            return address
    raise ValueError(f"malformed tree address {text!r}")


def to_json_dict(g: AlmostAutomorphism) -> dict:
    vertices_a = sorted(_tree_vertices(g.leaf_map), key=lambda v: (len(v), v))
    vertices_b = sorted(_tree_vertices(g.leaf_map.values()), key=lambda v: (len(v), v))
    return {
        "format": FORMAT,
        "d": g.shape.d,
        "k": g.shape.k,
        "A": [_address_to_text(v) for v in vertices_a],
        "B": [_address_to_text(v) for v in vertices_b],
        "phi": [[_address_to_text(a), _address_to_text(b)]
                for a, b in sorted(g.leaf_map.items())],
        "twists": {
            _address_to_key(a): [[_address_to_text(r), list(perm)]
                                 for r, perm in sorted(t.items())]
            for a, t in sorted(g.twists.items()) if t
        },
    }


def _int_field(data: dict, key: str) -> int:
    value = data.get(key)
    if type(value) is not int:
        raise ValueError(f"element field {key!r} is missing or not an integer")
    return value


def _list_field(data: dict, key: str):
    value = data.get(key)
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"element field {key!r} is missing or not a list")
    return value


def _pairs(value, what: str):
    if not isinstance(value, (list, tuple)) or any(
            not isinstance(e, (list, tuple)) or len(e) != 2 for e in value):
        raise ValueError(f"{what} is not a list of pairs")
    return value


def from_json_dict(data: dict) -> AlmostAutomorphism:
    """Parse an element; any missing or malformed field raises ValueError.
    The parsed data, in tuples, is checked by `_validated` alone."""
    if not isinstance(data, dict):
        raise ValueError("element is not a JSON object")
    if data.get("format") != FORMAT:
        raise ValueError(f"unsupported element format {data.get('format')!r}")
    shape = TreeShape(_int_field(data, "d"), _int_field(data, "k"))
    leaf_map = {}
    for a, b in _pairs(data.get("phi"), "element field 'phi'"):
        a = _address_from_text(a)
        if a in leaf_map:
            raise ValueError(f"element field 'phi' lists domain leaf {a} twice")
        leaf_map[a] = _address_from_text(b)
    twist_data = data.get("twists", {})
    if not isinstance(twist_data, dict):
        raise ValueError("element field 'twists' is not an object")
    twists = {}
    for leaf, entries in twist_data.items():
        portrait = {}
        for r, perm in _pairs(entries, f"twist at leaf {leaf!r}"):
            if not isinstance(perm, (list, tuple)) or any(type(c) is not int for c in perm):
                raise ValueError(f"twist at leaf {leaf!r} has a malformed permutation")
            r = _address_from_text(r)
            if r in portrait:
                raise ValueError(f"twist at leaf {leaf!r} lists address {r} twice")
            portrait[r] = tuple(perm)
        leaf = _address_from_key(leaf)
        if leaf in twists:
            raise ValueError(f"element field 'twists' lists leaf {leaf} twice")
        twists[leaf] = portrait
    twists = _validated(shape, leaf_map, twists)
    declared_a = {_address_from_text(v) for v in _list_field(data, "A")}
    if declared_a != _tree_vertices(leaf_map):
        raise ValueError("declared domain tree disagrees with the leaf map")
    declared_b = {_address_from_text(v) for v in _list_field(data, "B")}
    if declared_b != _tree_vertices(leaf_map.values()):
        raise ValueError("declared image tree disagrees with the leaf map")
    return _built(shape, leaf_map, twists)
