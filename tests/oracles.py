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


def ball(shape, n):
    """All addresses of the radius-n ball of `shape`, sorted by (level, address)."""
    return [v for j in range(n + 1) for v in shape.vertices(j)]


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
    from groupalg import AlgebraElement
    values = [0] * len(carrier)
    for p, c in coeffs.items():
        values[carrier.index_of(p)] = c
    return AlgebraElement(carrier, ExactVector.from_fractions(values))


def sample(G, rng):
    """Uniform random element of the PermGroup G, one transversal element per
    level of its stabilizer chain; rng is a random.Random-like object."""
    from heckelab.permgroup import Permutation
    e = tuple(range(G.degree))
    for orbit in reversed(G._transversals):
        if len(orbit) > 1:
            e = mul(e, orbit[rng.choice(sorted(orbit))])
    return Permutation(e)


def random_element(shape, rng, expansions=3, twist_depth=2):
    """Seeded random finitary almost automorphism: random trees, leaf
    bijection, twists."""
    from heckelab.spheromorph import AlmostAutomorphism, random_portrait

    def random_tree(count):
        leaves = [()]
        for _ in range(count):
            pick = leaves[rng.randrange(len(leaves))]
            leaves.remove(pick)
            leaves.extend(pick + (c,) for c in range(shape.arity(pick)))
        return sorted(leaves)

    count = rng.randrange(expansions + 1)
    domain = random_tree(count)
    image = random_tree(count)
    rng.shuffle(image)
    leaf_map = dict(zip(domain, image))
    twists = {a: random_portrait(shape, a, rng, depth=twist_depth)
              for a in domain if rng.random() < 0.7}
    return AlmostAutomorphism(shape, leaf_map, twists)


def random_exact_element(pair, rng, span=3):
    """Hecke element with Gaussian-integer coefficients drawn uniformly from
    [-span, span]; a span past int64 is drawn from random bytes by rejection."""
    from heckelab._exactvec import ExactVector
    from heckelab.hecke import HeckeElement

    def draw():
        if span < 2 ** 62:
            return int(rng.integers(-span, span + 1))
        bits = (2 * span).bit_length()
        while True:
            value = int.from_bytes(rng.bytes((bits + 7) // 8), "little") >> (-bits % 8)
            if value <= 2 * span:
                return value - span

    re = np.array([draw() for _ in range(pair.dim)], dtype=object)
    im = np.array([draw() for _ in range(pair.dim)], dtype=object)
    return HeckeElement(pair, ExactVector(1, re, im))


def trace_norm_formula(f):
    """Σ_D R(rep_D) |c_D|² as a Fraction; equals τ(star(f)·f)."""
    total = Fraction(0)
    for j in range(f.pair.dim):
        re, im = f.exact.coeff(j)
        total += int(f.pair.r_index[j]) * (re * re + im * im)
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

def ball_group_by_child_swaps(shape, n):
    """The radius-n ball group on V_n generated by every child swap: for each
    internal vertex and each c, the swap of the subtrees below its children
    c and c+1.  The construction `treefam.ball_aut_group` replaced."""
    from heckelab.permgroup import PermGroup, Permutation
    leaves = shape.vertices(n)
    position = {addr: i for i, addr in enumerate(leaves)}
    gens = []
    for depth in range(n):
        for vertex in shape.vertices(depth):
            for c in range(shape.arity(vertex) - 1):
                a, b = vertex + (c,), vertex + (c + 1,)
                swap = {a: b, b: a}
                gens.append(Permutation(
                    position[swap.get(addr[:depth + 1], addr[:depth + 1]) + addr[depth + 1:]]
                    for addr in leaves))
    return PermGroup(len(leaves), gens)


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
    return [(base, dict(orbit)) for base, orbit in enumerate(H._transversals)
            if len(orbit) > 1]


def closure_chain(degree, generators):
    """(orbits, order) of the group generated by the image tuples
    `generators`, base 0, 1, ..., degree-1: orbits[i] maps each orbit point
    of level i to a transversal element, and order is the product of the
    orbit sizes.

    The fixed-point Schreier–Sims closure the library once used: a strong
    generator is filed at its first moved point, level i closes its orbit
    under every generator filed at levels >= i and sifts the Schreier
    generator of each (point, generator) pair once, and the sweep over the
    levels repeats until no residue is new.
    """
    gens = [[] for _ in range(degree)]
    orbits = [{b: tuple(range(degree))} for b in range(degree)]
    done = [set() for _ in range(degree)]

    def store(p):
        moved = [i for i, x in enumerate(p) if x != i]
        if not moved or p in gens[moved[0]]:
            return False
        gens[moved[0]].append(p)
        return True

    def sift(p, start):
        for i in range(start, degree):
            if p[i] != i:
                u = orbits[i].get(p[i])
                if u is None:
                    return p
                p = mul(p, inv(u))
        return p

    for g in generators:
        store(tuple(g))
    dirty = True
    while dirty:
        dirty = False
        for i in range(degree):
            level_gens = [g for filed in gens[i:] for g in filed]
            orbit = orbits[i]
            queue = sorted(orbit)
            while queue:
                point = queue.pop(0)
                for g in level_gens:
                    if g[point] not in orbit:
                        orbit[g[point]] = mul(orbit[point], g)
                        queue.append(g[point])
            for point in sorted(orbit):
                for g in level_gens:
                    if (point, g) not in done[i]:
                        done[i].add((point, g))
                        residue = sift(mul(mul(orbit[point], g), inv(orbit[g[point]])), i + 1)
                        dirty |= store(residue)
    order = 1
    for orbit in orbits:
        order *= len(orbit)
    return orbits, order


def chain_contains(orbits, p):
    """Whether the image tuple p sifts to the identity through `orbits`, one
    {point: transversal} dict per base point 0, 1, ..."""
    for i, orbit in enumerate(orbits):
        u = orbit.get(p[i])
        if u is None:
            return False
        p = mul(p, inv(u))
    return True


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
    """(representatives, action) of H\\G from a Python breadth-first walk,
    one canonical coset per coset and generator."""
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
    return reps, action


def action_by_ranking(cosets, gens):
    """Action arrays of the rows of `gens` on H\\G: every coset row times
    each generator, canonicalised and ranked by binary search among the
    sorted byte keys of the representatives.  The ranking of image keys
    `CosetIndex` replaced by the walk's own positions, and, for H's
    generators, the H-action pass `DoubleCosetTable` replaced by a view of
    the same action."""
    from heckelab.permgroup import rank_keys, row_keys
    keys = row_keys(cosets.rows)
    action = np.empty((len(gens), len(cosets)), dtype=np.int32)
    for s, g in enumerate(gens):
        idx, found = rank_keys(keys, row_keys(cosets.subgroup.canonical_rows(g[cosets.rows])))
        assert found.all()
        action[s] = idx
    return action


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


def tree_translations(cosets):
    """Yield (j, R_j) for every coset j, where R_j[i] is the coset H·r_i·w_j⁻¹.

    Here w_j is the word in G's and H's generators along the path to j of
    a breadth-first tree grown on `cosets.action`, so H·w_j = H·r_j, and
    H·r_i·w_j⁻¹ lies in the double coset of r_i·r_j⁻¹.  Each R_j is one
    gather of its parent's, R_j = R_parent[inverse action of the tree
    generator]; the tree is walked depth first, so only the translations
    along one path are alive.
    """
    size = len(cosets)
    moves = cosets.action.tolist()
    inverse = np.argsort(cosets.action, axis=1)
    children = [[] for _ in range(size)]
    seen = [True] + [False] * (size - 1)
    queue = [0]
    for i in queue:
        for s, move in enumerate(moves):
            j = move[i]
            if not seen[j]:
                seen[j] = True
                queue.append(j)
                children[i].append((j, s))
    stack = [(0, np.arange(size, dtype=np.int32))]
    while stack:
        j, R = stack.pop()
        yield j, R
        for c, s in children[j]:
            stack.append((c, R[inverse[s]]))


def convolve_by_blocks(f, g):
    """f·g summed block by block over both supports, on an object copy of
    the structure constants: the product `hecke.convolve` replaced."""
    from heckelab._exactvec import ExactVector
    from heckelab.hecke import HeckeElement

    def parts(vec, i):
        return int(vec.re[i]), int(vec.im[i])

    pair = f.pair
    struct = pair.structure_constants().astype(object)
    re = np.zeros(pair.dim, dtype=object)
    im = np.zeros(pair.dim, dtype=object)
    for d in f.exact.support():
        a, b = parts(f.exact, d)
        for e in g.exact.support():
            c, dd = parts(g.exact, e)
            re = re + struct[d, e] * (a * c - b * dd)
            im = im + struct[d, e] * (a * dd + b * c)
    return HeckeElement(pair, ExactVector(f.exact.den * g.exact.den, re, im))


def all_rows_structure_constants(pair):
    """N[d, e, f] counted from every row of the λ-cell table, one tree
    translation per coset, checking that all rows of a class agree: the
    O(|H\\G|²) count the one-row-per-class constants replaced."""
    dim = pair.dim
    cls = pair.class_of_coset.astype(np.int64)
    star_class = pair.inverse_class.astype(np.int64)[cls]
    by_class = np.zeros((dim, dim, dim), dtype=np.int64)
    done = np.zeros(dim, dtype=bool)
    for i, translation in tree_translations(pair.cosets):
        counts = np.bincount(star_class[translation] * dim + cls, minlength=dim * dim)
        f = cls[i]
        if not done[f]:
            by_class[f] = counts.reshape(dim, dim)
            done[f] = True
        elif not np.array_equal(by_class[f].ravel(), counts):
            raise AssertionError("product of basis elements is not bi-invariant")
    return np.ascontiguousarray(by_class.transpose(1, 2, 0))


def per_class_structure_constants(pair):
    """N[d, e, f] counted from the row of each class's representative r,
    whose translation of the cosets by r⁻¹ is one canonicalisation of all
    coset rows: the count `HeckePair.structure_constants` replaced by
    gathers along the walk's tree.  The coset of r_y r⁻¹ is R[y], so
    class(r r_y⁻¹) = star(class(R[y]))."""
    dim = pair.dim
    cls = pair.class_of_coset.astype(np.int64)
    star_class = pair.inverse_class.astype(np.int64)[cls]
    struct = np.empty((dim, dim, dim), dtype=np.int64)
    for f, r in enumerate(pair.representatives):
        # the inverse of a permutation row is its argsort
        R = pair.cosets.cosets_of(np.argsort(r).astype(r.dtype)[pair.cosets.rows])
        counts = np.bincount(star_class[R] * dim + cls, minlength=dim * dim)
        struct[:, :, f] = counts.reshape(dim, dim)
    return struct


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


def selfadjoint_by_layout(pair, params):
    """Self-adjoint coefficients from a tagged layout of the parameters, one
    ("real", d) per self-paired class and ("re", d, d*), ("im", d, d*) per
    star pair d < d*, each added into its classes: the build
    `witness.selfadjoint_from_parameters` replaced."""
    layout = []
    for d in range(pair.dim):
        dstar = int(pair.inverse_class[d])
        if dstar == d:
            layout.append(("real", d))
        elif d < dstar:
            layout.append(("re", d, dstar))
            layout.append(("im", d, dstar))
    assert len(params) == len(layout)
    coef = np.zeros(pair.dim, dtype=np.complex128)
    for value, spec in zip(params, layout):
        if spec[0] == "real":
            coef[spec[1]] += value
        elif spec[0] == "re":
            coef[spec[1]] += value
            coef[spec[2]] += value
        else:
            coef[spec[1]] += 1j * value
            coef[spec[2]] -= 1j * value
    return coef


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


def refined_to_domain(g, target_vertices):
    """g split until no domain leaf has children in `target_vertices`, built
    as one element; g itself when no leaf splits."""
    from heckelab.spheromorph import _split_leaves

    leaf_map, twists = _split_leaves(g, target_vertices, by_image=False)
    if len(leaf_map) == len(g.leaf_map):
        return g
    return type(g)(g.shape, leaf_map, twists)


def level_permutation_by_refinement(g, n):
    """The level-n permutation read off the canonical form refined to the
    radius-n ball, or None when an image leaf then lies off V_n (g outside
    the level-n subgroup)."""
    from heckelab.permgroup import Permutation
    from heckelab.spheromorph import canonical_form

    refined = refined_to_domain(canonical_form(g), set(ball(g.shape, n)))
    if any(len(b) != n for b in refined.leaf_map.values()):
        return None
    level = g.shape.vertices(n)
    position = {addr: i for i, addr in enumerate(level)}
    return Permutation([position[refined.leaf_map[a]] for a in level])


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


def canonical_by_depth_sweep(g):
    """The canonical form by one sweep per depth, deepest first, each
    rescanning every leaf for the parents at that depth; built through the
    constructor.  The loop `spheromorph.canonical_form` replaced."""
    leaf_map, twists, shape = dict(g.leaf_map), dict(g.twists), g.shape
    for depth in range(max(map(len, leaf_map)), 0, -1):
        for parent in {a[:-1] for a in leaf_map if len(a) == depth}:
            children = [parent + (c,) for c in range(shape.arity(parent))]
            if any(child not in leaf_map for child in children):
                continue
            images = [leaf_map[child] for child in children]
            target = images[0][:-1]
            letters = tuple(image[-1] for image in images)
            if any(image[:-1] != target for image in images) or \
                    sorted(letters) != list(range(shape.arity(target))):
                continue
            portrait = {} if letters == tuple(range(len(letters))) else {(): letters}
            for c, child in enumerate(children):
                portrait.update(((c,) + r, perm) for r, perm in twists.pop(child).items())
                del leaf_map[child]
            leaf_map[parent] = target
            twists[parent] = portrait
    return type(g)(shape, leaf_map, twists)


def level_permutation_by_vertices(g, n):
    """The level-n permutation with the image of each vertex of V_n found by
    `apply_to_address` on the canonical form, or None when g is outside the
    level-n subgroup.  The per-vertex walk `spheromorph.level_permutation`
    replaced."""
    from heckelab.permgroup import Permutation
    from heckelab.spheromorph import canonical_form

    c = canonical_form(g)
    if any(not len(a) == len(b) <= n for a, b in c.leaf_map.items()):
        return None
    level = g.shape.vertices(n)
    position = {addr: i for i, addr in enumerate(level)}
    return Permutation([position[c.apply_to_address(v)] for v in level])


def canonical_row_by_array(H, images):
    """The memo key of the right coset H·g: its canonical row from the numpy
    descent `canonical_rows` on a one-row array, as a tuple.  The lookup
    `PermGroup.min_in_double_coset` makes it without numpy."""
    return tuple(H.canonical_rows([images])[0].tolist())


# -- the wreath embeddings by convolution in the group algebra C[V ⋊ G] -----------

def wreath_invariant_basis(scenario, big, gens):
    """Orbit sums, under conjugation by `gens`, of the corner basis
    p_{V0} δ_x p_{V0} of (V, V_0), on the carrier `big` of V ⋊ G."""
    from groupalg import corner_basis, invariant_subalgebra
    from heckelab.permgroup import PermGroup
    basis = corner_basis(big, scenario.V0, scenario.pair_V)
    return invariant_subalgebra(basis, PermGroup(scenario.degree, gens))


def wreath_embed_invariant(scenario, big, x):
    """x·p_Γ for a Γ-invariant x of C[V] on the carrier `big` of V ⋊ G."""
    from heckelab.errors import InvarianceError
    from groupalg import convolve, projector
    from heckelab.permgroup import PermGroup
    if any(x.conjugated_by(t) != x for t in scenario.gamma_gens):
        raise InvarianceError("element is not Γ-invariant")
    return convolve(x, projector(big, PermGroup(scenario.degree, scenario.gamma_gens)))


def wreath_embed_top(scenario, big, y):
    """p_{V0}·y for y in C[G] on G's own carrier, lifted to the carrier `big`
    of V ⋊ G through the rigid block permutations."""
    from heckelab.errors import InvarianceError
    from groupalg import convolve, projector
    from heckelab.treefam import block_permutation
    p = projector(big, scenario.V0)
    if any(p.conjugated_by(t) != p for t in scenario.top_gens):
        raise InvarianceError("the top group does not leave V_0 invariant")
    m0 = scenario.base_group.degree
    return convolve(p, lift_by_coefficients(big, y, lambda s: block_permutation(s, m0)))


def double_coset_map_by_support(source, rows, target):
    """e_D ↦ R(D)/R(F)·e_F, summed as one scaled basis image per entry of
    the support: the loop `embed.double_coset_map` replaced by one integer
    matrix."""
    classes = target.class_of_coset[target.cosets.cosets_of(rows)].tolist()
    images = [target.basis_element(f).scaled(Fraction(int(r), int(target.r_index[f])))
              for r, f in zip(source.r_index.tolist(), classes)]

    def apply(x):
        image = target.unit().scaled(0)
        for d in x.exact.support():
            image = image + images[d].scaled(x.coeff(d))
        return image

    return apply
