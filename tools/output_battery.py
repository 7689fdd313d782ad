"""Run a fixed battery of CLI commands and demos and keep every output.

    python tools/output_battery.py OUT_DIR

Each case runs `python -m heckelab ...` or a demo script from this
checkout's `src`, with OUT_DIR as its working directory, and leaves
NAME.stdout, NAME.stderr and NAME.exit there, next to any file it wrote
with --out and the element files that `spher_inputs` writes for the spher
cases.  Two checkouts that behave alike leave directories that `diff -r`
finds equal.

Every case has a pinned exit code.  The battery exits 1, after running every
case, if any case printed a traceback, exited with another code, or wrote
to stderr while pinned to exit 0 or 1.  Run it with PYTHONWARNINGS=error to
count a warning as a failure too.  Standard library only.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
TIMEOUT_S = 600

LEVEL_PAIRS = (("--d", "3", "--l", "2"), ("--d", "2", "--k", "4", "--n", "2"),
               ("--d", "6", "--k", "2", "--n", "2"), ("--d", "2", "--k", "5", "--n", "2"))
EMBED_SCENARIOS = ("s2-cubed", "s2-squared", "s4-squared")
#: witness seeds whose search rejects one and two candidates before it accepts
REJECTING_SEEDS = (54, 152)
COMMANDS = ("census", "gelfand", "witness", "verify", "decay", "embed-check", "spher")


def cases():
    """(name, argv, pinned exit code) in run order; argv[0] "heckelab" means
    `python -m heckelab`, a path under demos/ means that script."""
    yield "help", ["heckelab", "--help"], 0
    for command in COMMANDS:
        yield f"help-{command}", ["heckelab", command, "--help"], 0
    yield "census-default", ["heckelab", "census"], 0
    for i, pair in enumerate(LEVEL_PAIRS):
        yield f"census-level-{i}", ["heckelab", "census", *pair,
                                    "--out", f"census-level-{i}.jsonl"], 0
    yield "census-4-3-2", ["heckelab", "census", "--d", "4", "--k", "3", "--n", "2"], 0
    for d in (8, 9, 10):  # (10, 2, 2) is the largest in-cap level pair
        yield f"census-{d}-2-2", ["heckelab", "census", "--d", str(d), "--k", "2", "--n", "2"], 0
    yield "census-huge-degree", ["heckelab", "census", "--d", str(2 ** 70), "--k", "2",
                                 "--n", "1"], 0
    for l in (2, 3):
        yield f"gelfand-l{l}", ["heckelab", "gelfand", "--l", str(l),
                                "--out", f"gelfand-l{l}.json"], 0
    for seed in (*range(8), *REJECTING_SEEDS):
        yield f"witness-{seed}", ["heckelab", "witness", "--seed", str(seed),
                                  "--out", f"witness-{seed}.json"], 0
    yield "witness-k-max-3", ["heckelab", "witness", "--k-max", "3",
                              "--out", "witness-k-max-3.json"], 0
    yield "witness-negative-seed", ["heckelab", "witness", "--seed", "-1"], 2
    yield "verify", ["heckelab", "verify", "witness-0.json"], 0
    for seed in REJECTING_SEEDS:
        yield f"verify-{seed}", ["heckelab", "verify", f"witness-{seed}.json"], 0
    yield "verify-tampered", ["heckelab", "verify", "tampered.json"], 1
    yield "verify-huge-weights", ["heckelab", "verify", "huge-weights.json"], 1
    yield "verify-extra-atom", ["heckelab", "verify", "extra-atom.json"], 1
    yield "decay", ["heckelab", "decay", "witness-0.json"], 0
    yield "decay-out", ["heckelab", "decay", "witness-0.json", "--out", "decay.jsonl"], 0
    yield "decay-k3", ["heckelab", "decay", "witness-0.json", "--k", "3"], 0
    yield "decay-short", ["heckelab", "decay", "witness-0.json",
                          "--n-max", "5", "--k-max", "10"], 1
    yield "decay-k-max-3", ["heckelab", "decay", "witness-k-max-3.json"], 2
    yield "embed-check", ["heckelab", "embed-check"], 0
    for scenario in EMBED_SCENARIOS:
        yield f"embed-check-{scenario}", ["heckelab", "embed-check", "--scenario", scenario], 0
    yield "embed-check-unknown", ["heckelab", "embed-check", "--scenario", "nope"], 2
    g, h = str(DATA / "spher_g.json"), str(DATA / "spher_h.json")
    yield "spher-compose", ["heckelab", "spher", "compose", g, h], 0
    yield "spher-canonical", ["heckelab", "spher", "canonical", h], 0
    yield "spher-key", ["heckelab", "spher", "key", g, "--n", "3"], 0
    yield "spher-key-ternary", ["heckelab", "spher", "key", "spher-ternary.json", "--n", "2"], 0
    for name in ("non-ascii", "twist", "not-injective", "deep-leaf", "duplicate-leaf",
                 "duplicate-twist"):
        yield f"spher-{name}", ["heckelab", "spher", "canonical", f"spher-{name}.json"], 2
    yield "spher-outside", ["heckelab", "spher", "key", "spher-outside.json", "--n", "2"], 2
    yield "spher-huge-degree", ["heckelab", "spher", "canonical", "spher-huge-degree.json"], 0
    yield "spher-key-huge-degree", ["heckelab", "spher", "key", "spher-huge-degree.json",
                                    "--n", "1"], 0
    yield "spher-key-generic-32", ["heckelab", "spher", "key", "spher-generic-32.json",
                                   "--n", "5"], 2
    yield "spher-wide-degree", ["heckelab", "spher", "canonical", "spher-wide-degree.json"], 0
    # the square twists leaf 1·10, written as the twist key "[1,10]"
    yield "spher-wide-twist", ["heckelab", "spher", "compose", "spher-wide-degree.json",
                               "spher-wide-degree.json"], 0
    yield "spher-key-generic-16", ["heckelab", "spher", "key", "spher-generic-16.json",
                                   "--n", "4"], 0
    for demo in sorted((ROOT / "demos").glob("0*.py")):
        yield f"demo-{demo.stem}", [str(demo)], 0


def tamper(out: Path):
    """tampered.json: the seed-0 certificate with u.re[1] moved by 1e-3,
    huge-weights.json: the same with its first two spectral weights 1e308, and
    extra-atom.json: the same with a 17th spectral atom, of weight 0."""
    text = (out / "witness-0.json").read_text()
    data, huge, extra = json.loads(text), json.loads(text), json.loads(text)
    data["u"]["re"][1] += 1e-3
    (out / "tampered.json").write_text(json.dumps(data))
    huge["spectral"]["weights"][0] = huge["spectral"]["weights"][1] = 1e308
    (out / "huge-weights.json").write_text(json.dumps(huge))
    extra["spectral"]["angles"].append(0.5)
    extra["spectral"]["weights"].append(0.0)
    (out / "extra-atom.json").write_text(json.dumps(extra))


def _element(d: int, k: int, phi: list, twists: dict | None = None) -> dict:
    """A heckelab/spheromorph/v1 document whose A and B list every prefix of
    the leaves in phi."""
    def tree(leaves):
        return sorted({v[:j] for v in leaves for j in range(len(v) + 1)},
                      key=lambda v: (len(v), v))

    return {"format": "heckelab/spheromorph/v1", "d": d, "k": k,
            "A": tree([a for a, _ in phi]), "B": tree([b for _, b in phi]),
            "phi": phi, "twists": twists or {}}


def spher_inputs(out: Path):
    """Element files: a level-2 element of the ternary tree with twists, and
    one refusal each for a non-ASCII digit, a twist that is not a permutation,
    a leaf map that is not injective, a lone leaf at depth 40,000, a domain
    leaf listed twice in phi, a twist address listed twice and an element
    outside the level-2 subgroup; a root-only element of degree
    d = 2^70; an element of degree d = 12 whose canonical form keeps leaves
    with the letters 10 and 11; a generic level-4 element of the binary
    tree, 16 points; and a generic level-5 element, whose key walk passes
    the coset cap."""
    deep = "0" * 40_000
    level = sorted("".join(bits) for bits in product("01", repeat=5))
    sigma = list(range(32))
    random.Random(5).shuffle(sigma)
    level_16 = sorted("".join(bits) for bits in product("01", repeat=4))
    sigma_16 = list(range(16))
    random.Random(4).shuffle(sigma_16)

    def wide(parent, c):  # an address with letter c above 9 is a list of letters
        return f"{parent}{c}" if c < 10 else [parent, c]

    # 0 -> 05, 15 -> 1 and 1c -> 0c: neither sibling block maps onto a sibling block
    wide_phi = [["0", "05"], ["15", "1"], *([wide(1, c), wide(0, c)] for c in range(12) if c != 5)]
    documents = {
        "ternary": _element(3, 3, [["0", "2"], ["10", "01"], ["11", "12"], ["12", "00"],
                                   ["20", "10"], ["21", "02"], ["22", "11"]],
                            {"0": [["", [1, 2, 0]], ["1", [2, 1, 0]]],
                             "21": [["", [0, 2, 1]]]}),
        "non-ascii": _element(2, 2, [["0", "1"], ["1", "\u0663"]]),
        "twist": _element(2, 2, [["", ""]], {"": [["", [0, 0]]]}),
        "not-injective": _element(2, 2, [["0", "0"], ["1", "0"]]),
        "deep-leaf": dict(_element(2, 2, []), phi=[[deep, deep]]),
        "duplicate-leaf": _element(2, 2, [["0", "1"], ["0", "0"], ["1", "1"]]),
        "duplicate-twist": _element(2, 2, [["", ""]], {"": [["", [1, 0]], ["", [0, 1]]]}),
        "outside": _element(2, 2, [["00", "0"], ["01", "10"], ["1", "11"]]),
        "huge-degree": _element(2 ** 70, 2, [["", ""]]),
        "generic-32": _element(2, 2, [[a, level[j]] for a, j in zip(level, sigma)]),
        "wide-degree": dict(_element(12, 2, []), phi=wide_phi,
                            A=["", "0", "1", *(wide(1, c) for c in range(12))],
                            B=["", "0", "1", *(wide(0, c) for c in range(12))],
                            twists={"0": [[[10], [1, 0, *range(2, 12)]]]}),
        "generic-16": _element(2, 2, [[a, level_16[j]] for a, j in zip(level_16, sigma_16)]),
    }
    for name, document in documents.items():
        (out / f"spher-{name}.json").write_text(json.dumps(document))


def run(out: Path, name: str, argv: list, pinned: int, env: dict) -> list:
    """Run one case, write its three files, and return its problems."""
    command = [sys.executable, "-m", *argv] if argv[0] == "heckelab" else [sys.executable, *argv]
    result = subprocess.run(command, cwd=out, env=env, capture_output=True, text=True,
                            timeout=TIMEOUT_S)
    (out / f"{name}.stdout").write_text(result.stdout)
    (out / f"{name}.stderr").write_text(result.stderr)
    (out / f"{name}.exit").write_text(f"{result.returncode}\n")
    problems = []
    if "Traceback (most recent call last)" in result.stderr:
        problems.append("traceback")
    if result.returncode != pinned:
        problems.append(f"exit {result.returncode}, pinned {pinned}")
    if pinned in (0, 1) and result.stderr:
        problems.append("stderr not empty")
    return problems


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python tools/output_battery.py OUT_DIR", file=sys.stderr)
        return 2
    out = Path(args[0]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    # COLUMNS pins the width argparse wraps the --help pages to
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    spher_inputs(out)
    failed = 0
    for name, command, pinned in cases():
        if name == "verify-tampered":
            tamper(out)
        problems = run(out, name, command, pinned, env)
        print(f"{name}: {'; '.join(problems) or 'ok'}")
        failed += bool(problems)
    print(f"{failed} of the cases failed" if failed else "all cases ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
