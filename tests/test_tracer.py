"""The benchmark's tracer still finds every entry point it patches.

`perfbench/tracer.py` wraps public functions and methods of heckelab by
name (`TARGETS`); a rename in the package makes `Tracer.patch()` raise, and
`perfbench/run.py --trace 1` with it.  A module that is not loaded is
skipped, so a module missing from the package would pass unseen: the set of
missing ones is pinned.
"""

import importlib.util
import inspect
import os

TRACER_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                           "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _target(module_name, path):
    owner = importlib.import_module(f"heckelab.{module_name}")
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    raw = inspect.getattr_static(owner, attr)
    return raw.__func__ if isinstance(raw, classmethod) else raw


def _in_package(module_name) -> bool:
    return importlib.util.find_spec(f"heckelab.{module_name}") is not None


def test_target_modules_missing_from_the_package():
    # the group-algebra oracle is a test module, which the tracer skips as
    # never loaded; every other module must exist, so a rename fails here
    tracer_module = _load_tracer()
    modules = {m for m, _, _ in tracer_module.TARGETS}
    assert {m for m in modules if not _in_package(m)} == {"groupalg"}


def test_patch_and_unpatch_every_target():
    tracer_module = _load_tracer()
    targets = [t for t in tracer_module.TARGETS if _in_package(t[0])]
    originals = {(m, p): _target(m, p) for m, p, _ in targets}
    tracer = tracer_module.Tracer("test")
    try:
        tracer.patch()
        for module_name, path, span in targets:
            wrapped = _target(module_name, path)
            assert getattr(wrapped, "__wrapped__", None) is originals[module_name, path], span
    finally:
        tracer.unpatch()
    for (module_name, path), original in originals.items():
        assert _target(module_name, path) is original
