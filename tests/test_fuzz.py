"""Fuzzing of the file readers: `verify` and `decay` on mutated copies of
the seed-0 certificate, and `spher compose`, `canonical` and `key` on
mutated copies of the element files `tests/data/spher_g.json` and
`spher_h.json`.

Each example applies one to three mutations to the JSON: deleting a field
or list entry, setting it to an extreme value or another type (±1e308,
2^70, NaN, a string, a bool, nesting; for elements also addresses and
permutations, good and bad), duplicating it, or truncating or extending a
list (for certificates with its re/im or angles/weights partner, or
alone).  The commands run in-process through `shell.main`.  A certificate
command must return 0, 1 or 2 and an element command 0 or 2; each must
raise nothing and write at most one line to stderr.  A mutated element that
a Python caller could also build must fail `from_json_dict` with the
message of the constructor, as both run one validator.
"""

import contextlib
import copy
import io
import json
import math
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from heckelab import spheromorph
from heckelab.hecke import PairSpec
from heckelab.shell import main
from heckelab.treefam import TreeShape
from heckelab.witness import search_witness

from conftest import examples

CERTIFICATE = search_witness(PairSpec.depth(2, 3).pair()).to_json_dict()
EXTREMES = (1e308, -1e308, 2 ** 70, -(2 ** 70), math.nan, math.inf, 1e-320, 0, -1,
            "x", True, False, None, [], [[0.5]], {"re": [1.0], "im": [0.0]})
LENGTHS = (0, 1, 3, 7, 8, 9, 17, 1023, 1025)
PARTNERS = {"re": "im", "im": "re", "angles": "weights", "weights": "angles"}


def _paths(value, prefix=()):
    """Every field path of `value`, entering only the first and last entry of a list."""
    if prefix:
        yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, prefix + (key,))
    elif isinstance(value, list) and value:
        for index in sorted({0, len(value) - 1}):
            yield from _paths(value[index], prefix + (index,))


def _lookup(data, path):
    for key in path:
        data = data[key]
    return data


PATHS = list(_paths(CERTIFICATE))
LIST_PATHS = [path for path in PATHS if isinstance(_lookup(CERTIFICATE, path), list)]

mutations = st.lists(st.one_of(
    st.tuples(st.sampled_from(PATHS), st.just("delete"), st.none()),
    st.tuples(st.sampled_from(PATHS), st.just("set"), st.sampled_from(EXTREMES)),
    st.tuples(st.sampled_from(PATHS), st.just("duplicate"), st.integers(0, 15)),
    st.tuples(st.sampled_from(LIST_PATHS), st.just("resize"),
              st.tuples(st.sampled_from(LENGTHS), st.booleans())),
), min_size=1, max_size=3)


def _resized(values, length):
    return (values * (length // len(values) + 1))[:length] if values else [0.0] * length


def _mutate(data, path, op, arg):
    """Apply one mutation in place; one whose path an earlier mutation broke is skipped."""
    try:
        parent = _lookup(data, path[:-1])
        key = path[-1]
        value = parent[key]
    except (KeyError, IndexError, TypeError):
        return
    if not isinstance(parent, (dict, list)):
        return  # a string indexes like a list but cannot change
    if op == "delete":
        del parent[key]
    elif op == "set":
        parent[key] = copy.deepcopy(arg)
    elif op == "duplicate" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(value))
    elif op == "duplicate":
        # the value of this field is copied over a sibling field
        parent[sorted(parent)[arg % len(parent)]] = copy.deepcopy(value)
    elif op == "resize" and isinstance(value, list):
        length, both = arg
        parent[key] = _resized(value, length)
        partner = PARTNERS.get(key)
        if both and partner is not None and isinstance(parent.get(partner), list):
            parent[partner] = _resized(parent[partner], length)


@settings(max_examples=examples(100), deadline=None)
@given(mutations)
# three moments: verify passes, and the circle average of decay needs eight
@example([(("moments", "re"), "resize", (3, True))])
# seventeen spectral atoms for sixteen basis classes
@example([(("spectral", "angles"), "resize", (17, True))])
# the format string copied over `basis`; later paths into it are skipped
@example([(("format",), "duplicate", 0), (("basis", 0), "delete", None)])
@example([(("format",), "duplicate", 0), (("basis", 0), "set", 1e308)])
@example([(("format",), "duplicate", 0), (("basis", 0), "duplicate", 0)])
def test_mutated_certificates_exit_cleanly(tmp_path_factory, changes):
    data = copy.deepcopy(CERTIFICATE)
    for path, op, arg in changes:
        _mutate(data, path, op, arg)
    path = tmp_path_factory.mktemp("fuzz") / "cert.json"
    path.write_text(json.dumps(data))
    for command in ("verify", "decay"):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = main([command, str(path)])
        assert status in (0, 1, 2), (command, status)
        assert err.getvalue().count("\n") <= 1, err.getvalue()


# -- element files ---------------------------------------------------------------------

DATA = Path(__file__).parent / "data"
ELEMENTS = {name: json.loads((DATA / f"spher_{name}.json").read_text()) for name in ("g", "h")}
ELEMENT_PATHS = [path for path in _paths(ELEMENTS) if len(path) > 1]
ELEMENT_LIST_PATHS = [path for path in ELEMENT_PATHS
                      if isinstance(_lookup(ELEMENTS, path), list)]
# addresses and permutations, good and bad, next to the extremes
ELEMENT_VALUES = EXTREMES + ("", "0", "1", "2", "00", "012", "٣", "0²", [0], [1, 0],
                             [0, 12], [-1], [2 ** 70], [0, 0], [1, 0, 2], 1, 2, 3, 12)
SPHER_COMMANDS = (("compose", "g", "h"), ("canonical", "g"), ("canonical", "h"),
                  ("key", "g", "--n", "3"), ("key", "h", "--n", "2"))

element_mutations = st.lists(st.one_of(
    st.tuples(st.sampled_from(ELEMENT_PATHS), st.just("delete"), st.none()),
    st.tuples(st.sampled_from(ELEMENT_PATHS), st.just("set"), st.sampled_from(ELEMENT_VALUES)),
    st.tuples(st.sampled_from(ELEMENT_PATHS), st.just("duplicate"), st.integers(0, 15)),
    st.tuples(st.sampled_from(ELEMENT_LIST_PATHS), st.just("resize"),
              st.tuples(st.sampled_from(LENGTHS[:6]), st.just(False))),
), min_size=1, max_size=3)


def _python_data(document):
    """(shape, leaf_map, twists) as a Python caller passes the element that
    `document` describes, or None when no caller could: a field of the wrong
    type, an address off the grammar, or an entry listed twice."""
    address, key = spheromorph._address_from_text, spheromorph._address_from_key

    def pairs(value):
        return isinstance(value, list) and all(
            isinstance(e, list) and len(e) == 2 for e in value)

    if not isinstance(document, dict) or document.get("format") != spheromorph.FORMAT or \
            type(document.get("d")) is not int or type(document.get("k")) is not int or \
            not pairs(document.get("phi")) or not isinstance(document.get("twists", {}), dict):
        return None
    try:
        shape = TreeShape(document["d"], document["k"])
        leaf_map = {address(a): address(b) for a, b in document["phi"]}
        twists = {}
        for leaf, entries in document.get("twists", {}).items():
            if not pairs(entries) or any(not isinstance(perm, list) or
                                         any(type(c) is not int for c in perm)
                                         for _, perm in entries):
                return None
            twists[key(leaf)] = portrait = {address(r): perm for r, perm in entries}
            if len(portrait) != len(entries):
                return None
    except ValueError:
        return None
    if len(leaf_map) != len(document["phi"]) or \
            len(twists) != len(document.get("twists", {})):
        return None
    return shape, leaf_map, twists


def _message(build, *args):
    try:
        build(*args)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=examples(100), deadline=None)
@given(element_mutations)
# a twist that is not a permutation, an image leaf with descendants, and a
# degree the leaves do not cover: the constructor's checks, met while parsing
@example([(("h", "twists", "0", 0, 1), "set", [0, 0])])
@example([(("g", "phi", 0, 1), "set", "1")])
@example([(("h", "d"), "set", 12)])
# domain leaf 0 listed twice, which a Python dict cannot hold
@example([(("h", "phi", 0), "duplicate", 0)])
def test_mutated_element_files_exit_cleanly(tmp_path_factory, changes):
    data = copy.deepcopy(ELEMENTS)
    for path, op, arg in changes:
        _mutate(data, path, op, arg)
    folder = tmp_path_factory.mktemp("spher")
    for name, document in data.items():
        (folder / f"{name}.json").write_text(json.dumps(document))
    for command in SPHER_COMMANDS:
        argv = ["spher", command[0]] + [str(folder / f"{word}.json") if word in data else word
                                        for word in command[1:]]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = main(argv)
        assert status in (0, 2), (argv, status)
        assert err.getvalue().count("\n") <= 1, err.getvalue()
    # a document a Python caller could also build fails the same check either way
    for document in data.values():
        python = _python_data(document)
        if python is None:
            continue
        built = _message(spheromorph.AlmostAutomorphism, *python)
        if built is not None:
            assert _message(spheromorph.from_json_dict, document) == built
        else:
            # past the checks they share, the parser reads only A and B
            g = spheromorph.AlmostAutomorphism(*python)
            declared = spheromorph.to_json_dict(g)
            fixed = dict(document, A=declared["A"], B=declared["B"])
            assert spheromorph.from_json_dict(fixed).data_equal(g)
