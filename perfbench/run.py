#!/usr/bin/env python3
"""The heckelab benchmark: four closed-loop workloads with one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

  flagship  The README pipeline on (S_8, Q_3): census on a fresh cache, then
            gelfand, witness --seed N, verify and decay.
  levels    census on (S_9, Q_2) and on the level pairs (d, k, n) = (2, 4, 2),
            (6, 2, 2), (2, 5, 2): a cold pass on an empty cache directory, then
            a warm pass on the same directory, each in an order drawn from N.
  embed     embed-check on every pinned scenario.  N is recorded but unused.
  spher     An in-process batch of almost-automorphism operations (spher.py).

In the CLI workloads each command is a fresh ``python -m heckelab`` process,
timed from spawn to exit, because that is what a user waits for.  Commands
run one at a time, with ``src`` on an absolute PYTHONPATH, HECKELAB_CACHE
removed, the BLAS thread count capped at the number of usable cores, and
their working directory and --cache in a scratch directory under
``.perfbench-work/`` that is removed when the run ends.

Iterations repeat for --seconds (at least one).  Every output is checked; a
command fails on an unexpected exit code, a traceback on stderr or output
that fails its check.  With --trace 0 the end-to-end metrics come from
untraced iterations.  With --trace 1 untraced and traced iterations
alternate: the traced ones give the per-layer numbers (see tracer.py) and
the difference of the two medians is the tracing overhead.  The layers do
no waiting (nothing runs in parallel and there are no queues), so no wait
time is reported.

Output: a table of every metric, one JSON line ``{"report": ...}`` with every
metric, its unit and sample count and the run's provenance, and as the last
line the result ``{"correct", "attempted", "failed", "metrics"}`` with the
``end_to_end`` (--trace 0) or ``per_layer`` (--trace 1) metrics named in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import spher
from tracer import Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

# Set-up is timed in fresh processes, half of them before the iterations and
# half after, so that its median spans the run as the iterations do.
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

FLAGSHIP = ("--d", "2", "--l", "3")
LEVEL_PAIRS = (
    ("--d", "3", "--l", "2"),
    ("--d", "2", "--k", "4", "--n", "2"),
    ("--d", "6", "--k", "2", "--n", "2"),
    ("--d", "2", "--k", "5", "--n", "2"),
)
# Pinned census rows: (index, double_coset_count, commutative).
CENSUS_ROWS = {
    FLAGSHIP: (315, 16, False),
    LEVEL_PAIRS[0]: (280, 5, True),
    LEVEL_PAIRS[1]: (105, 5, True),
    LEVEL_PAIRS[2]: (462, 4, True),
    LEVEL_PAIRS[3]: (945, 7, True),
}
EMBED_SCENARIOS = ["s2-cubed", "s2-squared", "s4-squared"]


# -- child processes ---------------------------------------------------------------

@dataclass
class Outcome:
    rc: int
    wall: float
    rss_mb: float
    stdout: str
    stderr: str


def spawn(argv, cwd: Path, env: dict, io_dir: Path) -> Outcome:
    """Run one process to its end; wall time from spawn to exit, rusage from wait4."""
    out_path, err_path = io_dir / "stdout", io_dir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(proc.returncode, wall, usage.ru_maxrss / 1024,
                   out_path.read_text(errors="replace"),
                   err_path.read_text(errors="replace"))


def child_env(src: str, threads: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("HECKELAB_CACHE", "PYTHONPATH")}
    env["PYTHONPATH"] = src
    env["TMPDIR"] = str(WORK)
    for var in BLAS_THREAD_VARS:
        env[var] = str(threads)
    return env


# -- output checks -------------------------------------------------------------------

def process_error(out: Outcome):
    if "Traceback (most recent call last)" in out.stderr:
        return "traceback on stderr"
    return f"exit code {out.rc}" if out.rc != 0 else None


def _json_lines(text: str) -> list:
    return [json.loads(line) for line in text.splitlines() if line.startswith("{")]


def check_census(expected):
    def check(out: Outcome):
        rows = [r for r in _json_lines(out.stdout)
                if r.get("format") == "heckelab/census-row/v1"]
        if len(rows) != 1:
            return f"expected one census row, got {len(rows)}"
        row = rows[0]
        got = (row["index"], row["double_coset_count"], row["commutative"])
        return None if got == expected else f"census row {got}, expected {expected}"
    return check


def check_gelfand(out: Outcome):
    verdicts = [r["commutative"] for r in _json_lines(out.stdout)
                if r.get("format") == "heckelab/gelfand-verdict/v1"]
    return None if verdicts == [False] else f"gelfand verdicts {verdicts}, expected noncommutative"


def check_verify(out: Outcome):
    return None if "certificate verification: PASS" in out.stdout else "verify did not PASS"


def check_embed(out: Outcome):
    scenarios = sorted(re.findall(r"^scenario (\S+):", out.stdout, re.M))
    verdicts = re.findall(r"^  \S+\s+(PASS|FAIL)$", out.stdout, re.M)
    if scenarios != EMBED_SCENARIOS:
        return f"scenarios {scenarios}, expected {EMBED_SCENARIOS}"
    if not verdicts or "FAIL" in verdicts:
        return f"{verdicts.count('FAIL')} of {len(verdicts)} axioms FAIL"
    return None


# -- one run -------------------------------------------------------------------------

class Session:
    """State of one benchmark run: counters, checks, and the CLI launcher."""

    def __init__(self, workload: str, seed: int, work: Path, src: str, threads: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.work = work
        self.io_dir = work / "io"
        self.io_dir.mkdir()
        self.env = child_env(src, threads)
        self.run_id = f"{workload}-{seed}-{os.getpid()}-{time.time_ns()}"
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.rss_mb = []
        self.traces = []
        self.certificate = None

    def record(self, name: str, error, attempted: int = 1):
        """Count `attempted` operations; `error` (a message or a list) are failures."""
        errors = error if isinstance(error, list) else [error] if error else []
        self.attempted += attempted
        self.failed += len(errors)
        self.errors.extend(f"{name}: {e}" for e in errors)

    def command(self, name: str, args, cwd: Path, check=None, traced=False) -> Outcome:
        if traced:
            trace_path = self.io_dir / "trace.json"
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(trace_path),
                    self.run_id, *args]
        else:
            argv = [sys.executable, "-m", "heckelab", *args]
        out = spawn(argv, cwd, self.env, self.io_dir)
        if traced:
            self.traces.append(json.loads(trace_path.read_text()))
            trace_path.unlink()
        else:
            self.rss_mb.append(out.rss_mb)
        error = process_error(out)
        if error is None and check is not None:
            try:
                error = check(out)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                error = f"unreadable output: {exc!r}"
        self.record(name, error)
        return out

    def check_certificate(self, path: Path):
        def check(_out):
            data = path.read_bytes()
            if self.certificate is None:
                self.certificate = data
            return None if data == self.certificate else "certificate bytes differ"
        return check


# -- workloads: one iteration each, returning its per-command timings ------------------

def iterate_flagship(s: Session, cwd: Path, traced: bool) -> dict:
    cache = str(cwd / "cache")

    def run(args, check=None):
        return s.command(args[0], args, cwd, check, traced).wall

    times = {
        "census_cold_s": run(["census", *FLAGSHIP, "--cache", cache],
                             check_census(CENSUS_ROWS[FLAGSHIP])),
        "gelfand_s": run(["gelfand", *FLAGSHIP, "--cache", cache], check_gelfand),
        "witness_s": run(["witness", *FLAGSHIP, "--seed", str(s.seed), "--cache", cache,
                          "--out", "cert.json"], s.check_certificate(cwd / "cert.json")),
        "verify_s": run(["verify", "cert.json", "--cache", cache], check_verify),
    }
    # decay takes milliseconds after its imports; it counts in pipeline_s only.
    run(["decay", "cert.json"])
    return times


def iterate_levels(s: Session, cwd: Path, traced: bool) -> dict:
    cache = str(cwd / "cache")
    times = {}
    for metric in ("census_cold_s", "census_warm_s"):
        times[metric] = sum(
            s.command("census", ["census", *pair, "--cache", cache], cwd,
                      check_census(CENSUS_ROWS[pair]), traced).wall
            for pair in s.rng.sample(LEVEL_PAIRS, len(LEVEL_PAIRS)))
    return times


def iterate_embed(s: Session, cwd: Path, traced: bool) -> dict:
    s.command("embed-check", ["embed-check"], cwd, check_embed, traced)
    return {}


def cache_bytes(cwd: Path) -> int:
    cache = cwd / "cache"
    return sum(p.stat().st_size for p in cache.iterdir()) if cache.is_dir() else 0


def setup_probes(s: Session, argv, walls: list):
    """Append the wall times of SETUP_REPEATS fresh processes doing the set-up."""
    for _ in range(SETUP_REPEATS):
        out = spawn(argv, s.work, s.env, s.io_dir)
        error = process_error(out)
        s.record("set-up", f"{error}: {out.stderr.strip()[-300:]}" if error else None)
        walls.append(out.wall)


def run_cli(s: Session, iterate, seconds: float, trace: bool) -> dict:
    probe = [sys.executable, "-c", "import heckelab.shell"]
    setup, plain, traced_walls, values = [], [], [], []
    setup_probes(s, probe, setup)

    def one(traced: bool) -> float:
        cwd = Path(tempfile.mkdtemp(dir=s.work))
        start = time.perf_counter()
        times = iterate(s, cwd, traced)
        wall = time.perf_counter() - start
        if traced:
            s.traces.append({"spans": [], "counters": {"shell.cache_bytes": cache_bytes(cwd)}})
            traced_walls.append(wall)
        else:
            plain.append(wall)
            values.append(times)
        shutil.rmtree(cwd)
        return wall

    loop(one, seconds, trace)
    setup_probes(s, probe, setup)
    result = {"pipeline": plain, "setup": setup, "rss": s.rss_mb, "values": values}
    if trace:
        result["traced"] = traced_walls
        result["layers"] = summarize(s.traces, sum(traced_walls), len(traced_walls))
    return result


def run_spher(s: Session, seconds: float, trace: bool) -> dict:
    probe = [sys.executable, str(HERE / "spher.py"), str(s.seed)]
    setup = []
    setup_probes(s, probe, setup)
    sys.path.insert(0, s.env["PYTHONPATH"])
    tracer = Tracer(s.run_id) if trace else None
    start = time.perf_counter()
    if tracer:
        tracer.trace_imports()
    sph, cases, failures = spher.setup(s.seed, after_import=tracer.patch if tracer else None)
    setup_wall = time.perf_counter() - start
    if tracer:
        tracer.unpatch()
    s.record("spher first pass", failures, len(cases) * len(spher.OPS))

    plain, traced_walls, latencies = [], [], []

    def one(traced: bool) -> float:
        if traced:
            tracer.patch()
        sink = [] if traced else latencies
        start = time.perf_counter()
        failures = spher.run_pass(sph, cases, sink)
        wall = time.perf_counter() - start
        if traced:
            tracer.unpatch()
            traced_walls.append(wall)
        else:
            plain.append(wall)
        s.record("spher", failures, len(cases) * len(spher.OPS))
        return wall

    loop(one, seconds, trace)
    setup_probes(s, probe, setup)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"pipeline": plain, "setup": setup, "rss": [rss], "latencies": latencies}
    if trace:
        result["traced"] = traced_walls
        # The traced process's one-time import and set-up are spread over
        # its traced iterations, as each CLI iteration pays its own imports.
        result["layers"] = summarize([tracer.dump()], setup_wall + sum(traced_walls),
                                     len(traced_walls))
    return result


def loop(one, seconds: float, trace: bool):
    """Iterate while that ends nearer to `seconds`; traced iterations alternate."""
    walls = []
    start = time.perf_counter()
    while True:
        walls.append(one(trace and len(walls) % 2 == 1))
        elapsed = time.perf_counter() - start
        if len(walls) >= (2 if trace else 1) and elapsed + statistics.median(walls) / 2 > seconds:
            return


# -- metrics -------------------------------------------------------------------------

def tail(values):
    """Highest of p99.9/p99/p95/p90/p75 with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1 - p / 100) >= 10:
            return p, ordered[math.ceil(p / 100 * n) - 1]
    return None


def timing(values, unit="s", scale=1.0) -> dict:
    entry = {"value": statistics.median(values) * scale, "unit": unit, "samples": len(values)}
    found = tail(values)
    if found:
        entry["tail_percentile"], entry["tail"] = found[0], found[1] * scale
    return entry


def end_to_end(s: Session, result: dict) -> dict:
    metrics = {
        "pipeline_s": timing(result["pipeline"]),
        "setup_s": timing(result["setup"]),
        "peak_rss_mb": {"value": max(result["rss"]), "unit": "MB",
                        "samples": len(result["rss"])},
        "fail_ratio": {"value": s.failed / s.attempted, "unit": "ratio",
                       "samples": s.attempted},
    }
    values = result.get("values", [])
    for name in values[0] if values else ():
        metrics[name] = timing([v[name] for v in values])
    latencies = result.get("latencies")
    if latencies:
        metrics["spher_p50_ms"] = timing(latencies, "ms", 1e3)
        p, value = tail(latencies) or (50.0, statistics.median(latencies))
        metrics["spher_tail_ms"] = {"value": value * 1e3, "unit": "ms",
                                    "percentile": p, "samples": len(latencies)}
    return metrics


def per_layer(result: dict) -> dict:
    layers = result["layers"]
    overhead = statistics.median(result["traced"]) - statistics.median(result["pipeline"])
    metrics = {"trace_overhead_s": {"value": overhead, "unit": "s",
                                    "samples": len(result["traced"])}}
    for name, value in sorted(layers.items()):
        if name.endswith("_s"):
            unit = "s"
        elif name.endswith("bytes"):
            unit = "B"
        elif name.endswith("ratio"):
            unit = "ratio"
        else:
            unit = "count"
        metrics[name] = {"value": value, "unit": unit, "samples": len(result["traced"])}
    return metrics


# -- provenance ----------------------------------------------------------------------

def provenance(args, threads: int, load_before, src: str) -> dict:
    revision = None
    if (ROOT / ".git").exists():
        found = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                               text=True, check=False)
        revision = found.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(Path(src, "heckelab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas,
        "blas_threads": threads,
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
    }


def print_table(metrics: dict):
    for name, entry in metrics.items():
        extra = "".join(f" {k}={v:.6g}" if isinstance(v, float) else f" {k}={v}"
                        for k, v in entry.items() if k not in ("value", "unit"))
        print(f"{name:<36} {entry['value']:>14.6g} {entry['unit']:<6}{extra}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["flagship", "levels", "embed", "spher"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    # On SIGTERM unwind as on Ctrl-C: kill the running child, remove scratch files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    package = ROOT / "src" / "heckelab" / "__init__.py"
    spec_path = ROOT / "BENCHMARK.json"
    if not package.is_file() or not spec_path.is_file():
        print(f"benchmark needs {package} and {spec_path}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    # The absolute source path, derived from the package location, so that
    # children resolve it whatever their working directory.
    src = str(package.resolve().parent.parent)
    nproc = len(os.sched_getaffinity(0))
    threads = min([nproc] + [int(os.environ[v]) for v in BLAS_THREAD_VARS
                             if os.environ.get(v, "").isdigit() and int(os.environ[v]) > 0])
    load_before = os.getloadavg()

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        session = Session(args.workload, args.seed, work, src, threads)
        trace = bool(args.trace)
        if args.workload == "spher":
            result = run_spher(session, args.seconds, trace)
        else:
            iterate = {"flagship": iterate_flagship, "levels": iterate_levels,
                       "embed": iterate_embed}[args.workload]
            result = run_cli(session, iterate, args.seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    report = end_to_end(session, result)
    wanted = spec["end_to_end"]
    if trace:
        report.update(per_layer(result))
        wanted = spec["per_layer"]
    print_table(report)
    for error in session.errors[:20]:
        print(f"FAILED {error}", file=sys.stderr)
    print(json.dumps({"report": {
        "provenance": provenance(args, threads, load_before, src),
        "metrics": report,
        "errors": session.errors[:20],
    }}))
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {m["name"]: {"value": report[m["name"]]["value"], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
