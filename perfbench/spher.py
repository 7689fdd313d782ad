"""The `spher` workload: an in-process batch of almost-automorphism operations.

Inputs are written as ``heckelab/spheromorph/v1`` JSON by the generator in
this file, not by ``spheromorph.random_element``, so a change to that helper
cannot change the workload.  Every element preserves the depth of its
leaves, so it lies in the level-n subgroup of its shape and has a
double-coset key at level n.

One pass runs, for each case, five timed operations (parse g, parse h,
compose + canonical_form, inverse, double_coset_key) and three checks that
are not timed: g·g⁻¹ canonicalises to the identity, canonical_form is
idempotent, and the key of k1·g·k2 equals the key of g for tree
automorphisms k1 and k2.

Run as a script, it does the workload's set-up once and exits, so that the
benchmark can time set-up in a fresh process:

    python3 perfbench/spher.py SEED
"""

from __future__ import annotations

import random
import sys
import time

# (d, k, n): branching degree, root degree, level of the double-coset key.
# Level sizes k·d^(n-1) are 8, 6 and 6 points.  At 12 or more points the cost
# of a key depends so much on the element (up to 100x the median) that the
# pass time varies by about 18 % between seeds; at these sizes by about 5 %.
SHAPES = ((2, 2, 3), (2, 3, 2), (3, 2, 2))
CASES_PER_SHAPE = 64
TWIST_DEPTH = 2
OPS = ("parse", "parse", "compose", "inverse", "key")


def _arity(d: int, k: int, address: tuple) -> int:
    return k if not address else d


def _text(address: tuple) -> str:
    return "".join(map(str, address))


def _random_portrait(rng, d, k, root, depth, density) -> dict:
    portrait = {}
    frontier = [()]
    for _ in range(depth + 1):
        following = []
        for rel in frontier:
            arity = _arity(d, k, root + rel)
            if rng.random() < density:
                perm = list(range(arity))
                rng.shuffle(perm)
                if perm != sorted(perm):
                    portrait[rel] = perm
            following.extend(rel + (c,) for c in range(arity))
        frontier = following
    return portrait


def _apply(portrait: dict, address: tuple) -> tuple:
    out = []
    for j, c in enumerate(address):
        perm = portrait.get(address[:j])
        out.append(perm[c] if perm is not None else c)
    return tuple(out)


def _random_tree(rng, d, k, n, expansions) -> list:
    leaves = [()]
    for _ in range(expansions):
        open_leaves = [a for a in leaves if len(a) < n]
        if not open_leaves:
            break
        pick = rng.choice(open_leaves)
        leaves.remove(pick)
        leaves.extend(pick + (c,) for c in range(_arity(d, k, pick)))
    return leaves


def _vertices(leaves) -> list:
    verts = {leaf[:j] for leaf in leaves for j in range(len(leaf) + 1)}
    return [_text(v) for v in sorted(verts, key=lambda v: (len(v), v))]


def _document(d, k, leaf_map: dict, twists: dict) -> dict:
    return {
        "format": "heckelab/spheromorph/v1",
        "d": d,
        "k": k,
        "A": _vertices(leaf_map),
        "B": _vertices(leaf_map.values()),
        "phi": [[_text(a), _text(b)] for a, b in sorted(leaf_map.items())],
        "twists": {_text(a): [[_text(r), perm] for r, perm in sorted(t.items())]
                   for a, t in sorted(twists.items()) if t},
    }


def element_document(rng, d, k, n) -> dict:
    """A depth-preserving element: leaves map to leaves at their own depth."""
    domain = _random_tree(rng, d, k, n, rng.randint(1, 2 * n))
    relabel = _random_portrait(rng, d, k, (), n, 0.5)
    by_depth = {}
    for leaf in domain:
        by_depth.setdefault(len(leaf), []).append(leaf)
    leaf_map = {}
    for leaves in by_depth.values():
        images = [_apply(relabel, a) for a in leaves]
        rng.shuffle(images)
        leaf_map.update(zip(leaves, images))
    twists = {a: _random_portrait(rng, d, k, a, TWIST_DEPTH, 0.4)
              for a in domain if rng.random() < 0.5}
    return _document(d, k, leaf_map, twists)


def automorphism_document(rng, d, k, n) -> dict:
    return _document(d, k, {(): ()}, {(): _random_portrait(rng, d, k, (), n, 0.5)})


def make_cases(seed: int) -> list:
    rng = random.Random(seed)
    cases = []
    for d, k, n in SHAPES:
        for _ in range(CASES_PER_SHAPE):
            cases.append({
                "n": n,
                "g": element_document(rng, d, k, n),
                "h": element_document(rng, d, k, n),
                "k1": automorphism_document(rng, d, k, n),
                "k2": automorphism_document(rng, d, k, n),
            })
    return cases


def run_pass(sph, cases, latencies: list) -> list:
    """One pass over the cases; appends per-op seconds, returns check failures."""
    clock = time.perf_counter
    failures = []
    for i, case in enumerate(cases):
        n = case["n"]
        t0 = clock()
        g = sph.from_json_dict(case["g"])
        t1 = clock()
        h = sph.from_json_dict(case["h"])
        t2 = clock()
        product = sph.canonical_form(sph.compose(g, h))
        t3 = clock()
        g_inv = sph.inverse(g)
        t4 = clock()
        key = sph.double_coset_key(g, n)
        t5 = clock()
        latencies.extend((t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4))

        unit = sph.canonical_form(sph.compose(g, g_inv))
        if unit.leaf_map != {(): ()} or unit.twists[()]:
            failures.append(f"case {i}: g·g⁻¹ is not the identity")
        if not sph.canonical_form(product).data_equal(product):
            failures.append(f"case {i}: canonical_form is not idempotent")
        k1 = sph.from_json_dict(case["k1"])
        k2 = sph.from_json_dict(case["k2"])
        moved = sph.compose(sph.compose(k1, g), k2)
        if sph.double_coset_key(moved, n) != key:
            failures.append(f"case {i}: double_coset_key changed under k1·g·k2")
    return failures


def setup(seed: int, after_import=None):
    """Import, input generation and the first pass (fills the level-group cache)."""
    from heckelab import spheromorph

    if after_import is not None:
        after_import()
    cases = make_cases(seed)
    failures = run_pass(spheromorph, cases, [])
    return spheromorph, cases, failures


if __name__ == "__main__":
    _, _, errors = setup(int(sys.argv[1]))
    for line in errors:
        print(line, file=sys.stderr)
    sys.exit(1 if errors else 0)
