"""Benchmark-side tracer for heckelab: spans recorded from outside the package.

The tracer wraps public functions and methods of the heckelab modules and
keeps one span per call in memory: name, start, end, parent and the run id
shared by every span of a run.  Nothing inside ``src/heckelab`` changes.

* Methods are patched once on their class.
* A module-level function is rebound in every heckelab module that holds it,
  so ``convolve`` is traced whether it is called from ``groupalg``, ``embed``
  or ``hecke``, and ``search_witness`` whether it is called from ``witness``
  or ``shell``.
* Module imports are spans too (``<layer>.import``): every CLI command pays
  them, and a layer that imports more makes every command slower.

The layer of a span is the part of its name before the first dot.  A span's
self time is its duration minus the time its child spans cover, so the self
times of the layers plus the unattributed time add up to the wall time.
"""

from __future__ import annotations

import importlib.abc
import importlib.util
import inspect
import json
import sys
import time
import weakref

LAYERS = ("shell", "treefam", "permgroup", "hecke", "witness", "groupalg",
          "embed", "spheromorph")

# (module, attribute path, span name): the public entry points of each layer.
TARGETS = (
    ("shell", "main", "shell.main"),
    ("shell", "load_or_build_pair", "shell.load_pair"),
    ("treefam", "ball_aut_group", "treefam.ball_group"),
    ("permgroup", "PermGroup.__init__", "permgroup.chain"),
    ("permgroup", "CosetIndex.__init__", "permgroup.cosets"),
    ("permgroup", "DoubleCosetTable.__init__", "permgroup.dctable"),
    ("permgroup", "DoubleCosetTable.load", "permgroup.cache_load"),
    ("permgroup", "PermGroup.min_in_double_coset", "permgroup.min_double_coset"),
    ("hecke", "HeckePair.__init__", "hecke.pair_init"),
    ("hecke", "HeckePair.structure_constants", "hecke.struct"),
    ("hecke", "HeckePair.is_commutative", "hecke.gelfand"),
    ("witness", "search_witness", "witness.search"),
    ("witness", "unitary_from_selfadjoint", "witness.exp"),
    ("witness", "moment_table", "witness.moment"),
    ("witness", "verify_certificate", "witness.verify"),
    ("witness", "spectral_data", "witness.spectral"),
    ("witness", "decay_table", "witness.decay"),
    ("groupalg", "EnumeratedGroup.__init__", "groupalg.enumerate"),
    ("groupalg", "EnumeratedGroup.table", "groupalg.cayley"),
    ("groupalg", "convolve", "groupalg.convolve"),
    ("embed", "scenario_report", "embed.scenario"),
    ("embed", "check_commutation", "embed.commutation"),
    ("spheromorph", "from_json_dict", "spheromorph.parse"),
    ("spheromorph", "compose", "spheromorph.compose"),
    ("spheromorph", "inverse", "spheromorph.inverse"),
    ("spheromorph", "canonical_form", "spheromorph.canonical"),
    ("spheromorph", "double_coset_key", "spheromorph.key"),
)


class Tracer:
    """In-memory span store; spans are (name, start, end, parent index)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.counters = {}
        self._stack = []
        self._patches = []
        self._tables_seen = weakref.WeakSet()

    # -- spans -------------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name: str, fn, after=None):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.count(f"{name}_errors")
                raise
            finally:
                tracer.end(index)
            if after is not None:
                after(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching ------------------------------------------------------------------

    def patch(self):
        """Wrap every target; undo with unpatch().  Modules must be imported."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "heckelab" or name.startswith("heckelab.")}
        for module_name, path, span in TARGETS:
            module = modules.get(f"heckelab.{module_name}")
            if module is None:
                continue
            after = _AFTER.get(span)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                raw = inspect.getattr_static(owner, attr)
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(span, raw.__func__, after))
                else:
                    new = self.wrap(span, raw, after)
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, new)
            else:
                original = getattr(module, path)
                wrapped = self.wrap(span, original, after)
                for holder in modules.values():
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._patches.append((holder, attr, original))
                            setattr(holder, attr, wrapped)

    def unpatch(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- imports -------------------------------------------------------------------

    def trace_imports(self):
        """Record a `<layer>.import` span around each heckelab layer import."""
        sys.meta_path.insert(0, _ImportSpans(self))

    def dump(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans, "counters": self.counters}


class _ImportSpans(importlib.abc.MetaPathFinder):
    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        prefix, _, layer = fullname.partition(".")
        if prefix != "heckelab" or layer not in LAYERS:
            return None
        sys.meta_path.remove(self)
        try:
            spec = importlib.util.find_spec(fullname)
        finally:
            sys.meta_path.insert(0, self)
        if spec is None or spec.loader is None:
            return spec
        loader = spec.loader
        exec_module = loader.exec_module
        tracer = self.tracer

        def traced_exec(module):
            index = tracer.begin(f"{layer}.import")
            try:
                exec_module(module)
            finally:
                tracer.end(index)

        loader.exec_module = traced_exec
        return spec


# -- counters recorded at the call boundaries -----------------------------------------

def _after_pair_init(tracer, args, _):
    pair = args[0]
    tracer.count("hecke.cell_table_bytes", pair.size * pair.size * 4)


def _after_cosets(tracer, args, _):
    tracer.count("permgroup.cosets", len(args[0]))


def _after_dctable(tracer, args, _):
    tracer.count("permgroup.classes", len(args[0]))


def _after_cache_load(tracer, args, _):
    tracer.count("shell.cache_hits")


def _after_search(tracer, args, _):
    tracer.count("witness.accepted")


def _after_cayley(tracer, args, table):
    # The table is built on the first call for a group and cached after it.
    group = args[0]
    if group not in tracer._tables_seen:
        tracer._tables_seen.add(group)
        tracer.count("groupalg.cayley_entries", int(table.size))


_AFTER = {
    "hecke.pair_init": _after_pair_init,
    "permgroup.cosets": _after_cosets,
    "permgroup.dctable": _after_dctable,
    "permgroup.cache_load": _after_cache_load,
    "witness.search": _after_search,
    "groupalg.cayley": _after_cayley,
}


# -- aggregation -------------------------------------------------------------------------

def self_times(spans) -> list:
    """Self time of each span: its duration minus its direct children's."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(traces, wall: float, iterations: int) -> dict:
    """Per-iteration self time and calls per span name and per layer, plus counters.

    `traces` are the dumps of every traced process of the run and `wall` is
    the time they cover as seen from outside, so `unattributed_s` is the part
    no layer span covers: interpreter start-up, the benchmark's own glue and
    the tracer itself.
    """
    totals = dict.fromkeys(("shell.cache_hits", "permgroup.cache_load_errors",
                            "shell.cache_bytes", "hecke.cell_table_bytes", "permgroup.cosets",
                            "permgroup.classes", "groupalg.cayley_entries",
                            "witness.accepted"), 0)
    for layer in LAYERS:
        totals[f"{layer}.self_s"] = 0.0
        totals[f"{layer}.calls"] = 0
    for _, _, span in TARGETS:
        totals[f"{span}_s"] = 0.0
        totals[f"{span}_calls"] = 0
    for trace in traces:
        for (name, _, _, _), own in zip(trace["spans"], self_times(trace["spans"])):
            layer = name.split(".")[0]
            for key, value in ((f"{name}_s", own), (f"{name}_calls", 1),
                               (f"{layer}.self_s", own), (f"{layer}.calls", 1)):
                totals[key] = totals.get(key, 0) + value
        for name, value in trace["counters"].items():
            totals[name] = totals.get(name, 0) + value
    totals["shell.cache_misses"] = totals["shell.load_pair_calls"] - totals["shell.cache_hits"]
    # A load that raised makes the shell rebuild the table from scratch.
    totals["shell.cache_rebuilds"] = totals["permgroup.cache_load_errors"]
    totals["unattributed_s"] = wall - sum(totals[f"{layer}.self_s"] for layer in LAYERS)
    # A candidate pair costs two exponentials, refine trials included.
    tried = _exp_calls_under(traces, "witness.search") / 2
    out = {name: value / iterations for name, value in totals.items()}
    out["witness.candidates"] = tried / iterations
    out["witness.accept_ratio"] = totals["witness.accepted"] / tried if tried else 0.0
    return out


def _exp_calls_under(traces, ancestor: str) -> int:
    total = 0
    for trace in traces:
        spans = trace["spans"]
        for name, _, _, parent in spans:
            if name != "witness.exp":
                continue
            while parent >= 0 and spans[parent][0] != ancestor:
                parent = spans[parent][3]
            total += parent >= 0
    return total


def write_trace(tracer: Tracer, path: str):
    with open(path, "w") as fh:
        json.dump(tracer.dump(), fh)
