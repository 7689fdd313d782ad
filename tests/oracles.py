"""Brute-force oracles: independent of the library's own algorithms.

Everything here works on raw image tuples with explicit set arithmetic, so
expected values in the tests never come from the code paths they check.
The exceptions are the last two sections: reference computations on the
library's own objects, which the library itself never needs, and the slow
paths the library replaced, kept as references for the fast ones.
"""

import itertools
from fractions import Fraction

import numpy as np


def mul(p, q):
    # apply p, then q (same convention as the library)
    return tuple(q[x] for x in p)


def inv(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def mulclose(gens):
    """Closure of a generating set under multiplication."""
    if not gens:
        return set()
    m = len(gens[0])
    elements = {tuple(range(m))}
    frontier = list(elements)
    while frontier:
        new = []
        for p in frontier:
            for g in gens:
                q = mul(p, g)
                if q not in elements:
                    elements.add(q)
                    new.append(q)
        frontier = new
    return elements


def right_cosets(g_elements, h_elements):
    """Partition of G into right cosets Hx, as a set of frozensets."""
    return {frozenset(mul(h, x) for h in h_elements) for x in g_elements}


def double_cosets(g_elements, h_elements):
    """Partition of G into double cosets HxH."""
    return {frozenset(mul(mul(h1, x), h2) for h1 in h_elements for h2 in h_elements)
            for x in g_elements}


def double_coset_of(x, h_elements):
    return frozenset(mul(mul(h1, x), h2) for h1 in h_elements for h2 in h_elements)


def conjugate_intersection(x, h_elements):
    """H ∩ x^{-1} H x as a set of tuples."""
    xi = inv(x)
    return {h for h in h_elements if mul(mul(x, h), xi) in h_elements}


def enumerate_ball_automorphisms(shape, n):
    """Every automorphism of the radius-n ball, as its level-n image tuple.

    Built recursively from explicit portraits (child permutation plus one
    automorphism per child subtree), completely independent of the group
    machinery.
    """

    def subtree_maps(root, depth):
        # all isomorphisms of the subtree at `root` onto itself, as maps on
        # relative depth-`depth` words
        if depth == 0:
            return [{(): ()}]
        arity = shape.arity(root)
        child_maps = [subtree_maps(root + (c,), depth - 1) for c in range(arity)]
        out = []
        for pi in itertools.permutations(range(arity)):
            for combo in itertools.product(*child_maps):
                mapping = {}
                for c in range(arity):
                    for rel, image in combo[c].items():
                        mapping[(c,) + rel] = (pi[c],) + image
                out.append(mapping)
        return out

    level = shape.vertices(n)
    position = {addr: i for i, addr in enumerate(level)}
    images = set()
    for mapping in subtree_maps((), n):
        images.add(tuple(position[mapping[addr]] for addr in level))
    return images


def lambda_matrix_from_definition(g_elements, h_elements, coset_reps, coset_class):
    """λ-matrices straight from the action formula.

    coset_reps: canonical representatives in index order; coset_class maps a
    group element tuple to its double-coset label.  Returns one matrix per
    label: entry (i, j) = 1 iff rep_i · rep_j^{-1} lies in the labelled class.
    """
    labels = sorted(set(coset_class.values()))
    n = len(coset_reps)
    matrices = {lab: [[0] * n for _ in range(n)] for lab in labels}
    for i, ri in enumerate(coset_reps):
        for j, rj in enumerate(coset_reps):
            lab = coset_class[mul(ri, inv(rj))]
            matrices[lab][i][j] = 1
    return matrices


def orbit_count_burnside(elements, action_maps):
    """Number of orbits via the averaging formula over the acting group.

    action_maps: the full acting group, each element given as a callable on
    the points.
    """
    total = sum(sum(1 for x in elements if f(x) == x) for f in action_maps)
    return total // len(action_maps)


# -- references on the library's objects ------------------------------------------

def restriction_to_level(shape, n, p):
    """Project a level-(n+1) permutation of ball-automorphism type to level n.

    A ball automorphism maps sibling blocks rigidly, so the image of a
    level-n vertex is the parent of the image of its first child.
    """
    from heckelab.permgroup import Permutation
    parents = shape.vertices(n)
    children = shape.vertices(n + 1)
    parent_pos = {addr: i for i, addr in enumerate(parents)}
    return Permutation(parent_pos[children[p(children.index(v + (0,)))][:-1]]
                       for v in parents)


def algebra_element(carrier, coeffs):
    """The group-algebra element {Permutation: Fraction or (re, im) pair}."""
    from heckelab._exactvec import ExactVector
    from heckelab.groupalg import AlgebraElement
    values = [0] * len(carrier)
    for p, c in coeffs.items():
        values[carrier.index_of(p)] = c
    return AlgebraElement(carrier, ExactVector.from_fractions(values))


def random_exact_element(pair, rng, span=3):
    """Hecke element with Gaussian-integer coefficients drawn uniformly from
    [-span, span]."""
    from heckelab._exactvec import ExactVector
    from heckelab.hecke import HeckeElement
    re = np.array([int(rng.integers(-span, span + 1)) for _ in range(pair.dim)],
                  dtype=object)
    im = np.array([int(rng.integers(-span, span + 1)) for _ in range(pair.dim)],
                  dtype=object)
    return HeckeElement(pair, ExactVector(1, re, im))


def trace_norm_formula(f):
    """Σ_D R(rep_D) |c_D|² as a Fraction; equals τ(star(f)·f)."""
    total = Fraction(0)
    for j in range(f.pair.dim):
        re, im = f.exact.coeff(j)
        total += int(f.pair.r_indices[j]) * (re * re + im * im)
    return total


def kronecker_trace_check(pair, coef):
    """τ(x ⊗ x) against τ(x)² for the element x with coefficients `coef`, the
    tensor trace taken literally from the Kronecker product of λ(x)."""
    M = pair.lambda_matrix(coef)
    tensor = np.kron(M, M)
    lhs = complex(tensor[0, 0])
    rhs = complex(M[0, 0]) ** 2
    return {"tensor_trace": lhs, "moment_power": rhs, "difference": abs(lhs - rhs)}


# -- slow paths kept as references ----------------------------------------------

def orbit(start, gens, step):
    """Orbit of `start` under the maps x ↦ step(x, g) for g in `gens`.

    Breadth first.  Returns (points, edges): the orbit in discovery order,
    points[0] being `start`, and edges[k][s], the position in `points` of
    step(points[k], gens[s]).
    """
    index = {start: 0}
    points = [start]
    edges = []
    for x in points:                      # grows while it is walked
        row = []
        for g in gens:
            y = step(x, g)
            j = index.setdefault(y, len(points))
            if j == len(points):
                points.append(y)
            row.append(j)
        edges.append(row)
    return points, edges


def chain_levels(H):
    """(base, {orbit point: transversal images}) for each level of H's
    stabilizer chain with a nontrivial orbit, in base order."""
    levels = []
    for base in range(H.degree):
        transversal = H.transversal(base)
        if len(transversal) > 1:
            levels.append((base, {p: u.images for p, u in transversal.items()}))
    return levels


def min_coset_images(levels, g):
    """min(H·g) by greedy descent of the chain, one level and one point at a
    time: the scalar canonicaliser the whole-array one replaced."""
    cur = tuple(g)
    for base, orbit_map in levels:
        best = min(orbit_map, key=cur.__getitem__)
        if best != base:
            cur = mul(orbit_map[best], cur)
    return cur


def coset_enumeration(G, H):
    """(representatives, action, tree_parent, tree_generator) of H\\G from a
    Python breadth-first walk, one canonical coset per coset and generator."""
    levels = chain_levels(H)
    gens = [g.images for g in G.generators]
    points, edges = orbit(min_coset_images(levels, range(G.degree)), gens,
                          lambda r, g: min_coset_images(levels, mul(r, g)))
    reps = sorted(points)
    where = {r: i for i, r in enumerate(reps)}
    size = len(reps)
    position = np.array([where[p] for p in points], dtype=np.int32)
    moves = np.array(edges, dtype=np.int32).reshape(size, len(gens))
    action = np.empty((len(gens), size), dtype=np.int32)
    action[:, position] = position[moves].T
    parent, generator = [-1] * size, [-1] * size
    for k, row in enumerate(edges):
        for s, j in enumerate(row):
            if j and parent[j] < 0:
                parent[j], generator[j] = k, s
    tree_parent = np.full(size, -1, dtype=np.int32)
    tree_generator = np.full(size, -1, dtype=np.int32)
    tree_parent[position[1:]] = position[parent[1:]]
    tree_generator[position[1:]] = generator[1:]
    return reps, action, tree_parent, tree_generator


def double_coset_classes(H, reps):
    """(blocks, class_of_coset, inverse_class) from the H-orbit of each coset
    of the sorted representatives `reps`, walked one coset at a time."""
    levels = chain_levels(H)
    where = {r: i for i, r in enumerate(reps)}
    gens = [h.images for h in H.generators]
    class_of = [-1] * len(reps)
    blocks = []
    for seed in range(len(reps)):
        if class_of[seed] < 0:
            block, _ = orbit(seed, gens,
                             lambda i, h: where[min_coset_images(levels, mul(reps[i], h))])
            for c in block:
                class_of[c] = len(blocks)
            blocks.append(tuple(sorted(block)))
    inverse = [class_of[where[min_coset_images(levels, inv(reps[b[0]]))]] for b in blocks]
    return blocks, tuple(class_of), tuple(inverse)


def coset_orbit_under(H, x):
    """Canonical rows of the H-orbit of the coset H·x, walked one coset at a time."""
    levels = chain_levels(H)
    gens = [h.images for h in H.generators]
    points, _ = orbit(min_coset_images(levels, x), gens,
                      lambda r, h: min_coset_images(levels, mul(r, h)))
    return points


def r_index(x, H):
    return len(coset_orbit_under(H, x))


def min_in_double_coset(H, x):
    return min(coset_orbit_under(H, x))


def dense_cell_table(pair):
    """cell[i, j] = class of the coset H·r_i·r_j⁻¹, one canonical-coset
    computation per cell: the O(n²) table the coset-action kernel replaced."""
    reps = [tuple(r) for r in pair.cosets.rows.tolist()]
    invs = [inv(r) for r in reps]
    levels = chain_levels(pair.subgroup)
    where = {r: i for i, r in enumerate(reps)}
    cls = pair.class_of_coset
    n = len(reps)
    cell = np.empty((n, n), dtype=np.int32)
    for j in range(n):
        for i in range(n):
            cell[i, j] = cls[where[min_coset_images(levels, mul(reps[i], invs[j]))]]
    return cell


def lambda_structure_constants(pair, cell):
    """N[d, e, f] read off λ-matrix products at the base-coset columns,
    checking constancy on every double-coset cell class."""
    dim, size = pair.dim, pair.size
    indicator = np.zeros((size, dim), dtype=np.int64)
    indicator[np.arange(size), pair.class_of_coset] = 1
    classes = [np.flatnonzero(pair.class_of_coset == f) for f in range(dim)]
    first_coset = [cosets[0] for cosets in classes]
    struct = np.empty((dim, dim, dim), dtype=np.int64)
    for d in range(dim):
        prod = (cell == d).astype(np.int64) @ indicator
        for e in range(dim):
            col = prod[:, e]
            vals = col[first_coset]
            for f in range(dim):
                if any(col[c] != vals[f] for c in classes[f]):
                    raise AssertionError("product of basis elements is not bi-invariant")
            struct[d, e] = vals
    return struct


def all_rows_structure_constants(pair):
    """N[d, e, f] counted from every row of the λ-cell table, one tree
    translation per coset, checking that all rows of a class agree: the
    O(|H\\G|²) count the one-row-per-class constants replaced."""
    dim = pair.dim
    cls = pair.class_of_coset.astype(np.int64)
    star_class = pair.star_map.astype(np.int64)[cls]
    by_class = np.zeros((dim, dim, dim), dtype=np.int64)
    done = np.zeros(dim, dtype=bool)
    for i, translation in pair.cosets.translations():
        counts = np.bincount(star_class[translation] * dim + cls, minlength=dim * dim)
        f = cls[i]
        if not done[f]:
            by_class[f] = counts.reshape(dim, dim)
            done[f] = True
        elif not np.array_equal(by_class[f].ravel(), counts):
            raise AssertionError("product of basis elements is not bi-invariant")
    return np.ascontiguousarray(by_class.transpose(1, 2, 0))


def dense_gelfand_report(pair, cell):
    """(commutative, witness, entry) from size² basis matrices: the first
    noncommuting basis pair and the first nonzero entry, in row-major order,
    of its commutator matrix."""
    struct = pair.structure_constants()
    for d in range(pair.dim):
        for e in range(d + 1, pair.dim):
            if not np.array_equal(struct[d, e], struct[e, d]):
                A = (cell == d).astype(np.int64)
                B = (cell == e).astype(np.int64)
                C = A @ B - B @ A
                rows, cols = np.nonzero(C)
                r, c = int(rows[0]), int(cols[0])
                return False, (d, e), (r, c, int(C[r, c]))
    return True, None, None


def schur_spectral_data(matrix):
    """Angles, weights and off-diagonal residual from a complex Schur
    decomposition: the scipy reference the numpy eigenbasis replaced."""
    import scipy.linalg
    from heckelab.witness import SpectralData
    T, Z = scipy.linalg.schur(matrix, output="complex")
    offdiag = float(np.linalg.norm(T - np.diag(np.diag(T))))
    return SpectralData(np.angle(np.diag(T)), np.abs(Z[0, :]) ** 2, offdiag)


def lambda_exponential(pair, a):
    """exp(i·a) from one `eigh` of the size × size λ(a), a being a coefficient
    array, fitted back onto the basis by its means over the cells of each
    double coset: the coset-space exponential the GNS one replaced.  Returns
    (coefficients, residual), the residual being the largest deviation of
    exp(i·λ(a)) from its fit."""
    eigenvalues, vectors = np.linalg.eigh(pair.lambda_matrix(a))
    U = (vectors * np.exp(1j * eigenvalues)) @ vectors.conj().T
    coef = np.array([U[pair.cell_class == d].mean() for d in range(pair.dim)])
    return coef, float(np.max(np.abs(U - coef[pair.cell_class])))


def cayley_table_by_pairs(carrier):
    """Index of p_i·p_j from a dict of image tuples, one product per pair:
    the Python table the ranking kernel replaced."""
    images = [p.images for p in carrier.elements]
    index = {p: i for i, p in enumerate(images)}
    table = np.empty((len(images), len(images)), dtype=np.int32)
    for i, p in enumerate(images):
        for j, q in enumerate(images):
            table[i, j] = index[mul(p, q)]
    return table


def inverse_index_by_dict(carrier):
    images = [p.images for p in carrier.elements]
    index = {p: i for i, p in enumerate(images)}
    return np.array([index[inv(p)] for p in images], dtype=np.int32)


def conjugation_index_by_dict(carrier, a):
    """Index of a·x·a⁻¹ for every element x, or None if one falls outside."""
    images = [p.images for p in carrier.elements]
    index = {p: i for i, p in enumerate(images)}
    a_img, a_inv = tuple(a.images), inv(a.images)
    try:
        return np.array([index[mul(mul(a_img, p), a_inv)] for p in images],
                        dtype=np.int32)
    except KeyError:
        return None


def lift_by_coefficients(big_carrier, x, to_big):
    """Reindex x onto big_carrier through Fractions, one element at a time."""
    coeffs = {to_big(x.carrier.elements[i]): x.vec.coeff(i) for i in x.vec.support()}
    return algebra_element(big_carrier, coeffs)


def expand_leaf(g, a):
    """Split leaf a of g into its children, pushing the twist data down: one
    validated element per split, as the stepwise refinement built them."""
    b, portrait = g.leaf_map[a], g.twists[a]
    arity = g.shape.arity(a)
    root_perm = portrait.get((), tuple(range(arity)))
    leaf_map = {x: y for x, y in g.leaf_map.items() if x != a}
    twists = {x: t for x, t in g.twists.items() if x != a}
    for c in range(arity):
        leaf_map[a + (c,)] = b + (root_perm[c],)
        twists[a + (c,)] = {r[1:]: p for r, p in portrait.items() if r and r[0] == c}
    return type(g)(g.shape, leaf_map, twists)


def refine_by_expansion(g, target_vertices, by_image=False):
    """Split the least splittable leaf, one element per step, until no domain
    leaf (image leaf if `by_image`) has children in `target_vertices`."""
    while True:
        internal = [a for a, b in g.leaf_map.items()
                    if (b if by_image else a) + (0,) in target_vertices]
        if not internal:
            return g
        g = expand_leaf(g, min(internal, key=lambda v: (len(v), v)))


def check_complete_by_vertices(shape, leaves):
    """Completeness from the vertex set: every leaf childless, every other
    vertex with all its children.  Letters are not range-checked and the
    empty set passes."""
    leaves = set(leaves)
    verts = {leaf[:j] for leaf in leaves for j in range(len(leaf) + 1)}
    for v in verts:
        if v in leaves:
            if any(v + (c,) in verts for c in range(shape.arity(v))):
                raise ValueError(f"leaf {v} has descendants in the subtree")
        else:
            missing = [c for c in range(shape.arity(v)) if v + (c,) not in verts]
            if missing:
                raise ValueError(f"internal vertex {v} is missing children {missing}")


def canonical_by_restarts(g):
    """Merge the deepest, then least, mergeable sibling block and rescan the
    leaves after every merge, as the greedy canonical form did."""
    leaf_map, twists, shape = dict(g.leaf_map), dict(g.twists), g.shape
    while True:
        candidates = {}
        for a in leaf_map:
            if a:
                candidates.setdefault(a[:-1], []).append(a)
        for parent in sorted(candidates, key=lambda v: (-len(v), v)):
            arity = shape.arity(parent)
            if len(candidates[parent]) != arity:
                continue
            images = [leaf_map[parent + (c,)] for c in range(arity)]
            heads = {img[:-1] for img in images if img}
            if len(heads) != 1 or not all(images):
                continue
            target = heads.pop()
            letters = [img[-1] for img in images]
            if sorted(letters) != list(range(shape.arity(target))):
                continue
            portrait = {(): tuple(letters)}
            for c in range(arity):
                for r, perm in twists.pop(parent + (c,)).items():
                    portrait[(c,) + r] = perm
                del leaf_map[parent + (c,)]
            leaf_map[parent] = target
            twists[parent] = {r: p for r, p in portrait.items()
                              if any(i != x for i, x in enumerate(p))}
            break
        else:
            return type(g)(shape, leaf_map, twists)
