"""Fuzzing of the certificate reader: `verify` and `decay` on mutated copies
of the seed-0 certificate.

Each example applies one to three mutations to the certificate's JSON:
deleting a field or list entry, setting it to an extreme value or another
type (±1e308, 2^70, NaN, a string, a bool, nesting), duplicating it, or
truncating or extending a list (with its re/im or angles/weights partner,
or alone).  Both commands run in-process through `shell.main`; each must
return 0, 1 or 2, raise nothing and write at most one line to stderr.
"""

import contextlib
import copy
import io
import json
import math

from hypothesis import example, given, settings, strategies as st

from heckelab.hecke import PairSpec
from heckelab.shell import main
from heckelab.witness import search_witness

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


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(mutations)
# three moments: verify passes, and the circle average of decay needs eight
@example([(("moments", "re"), "resize", (3, True))])
# seventeen spectral atoms for sixteen basis classes
@example([(("spectral", "angles"), "resize", (17, True))])
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
