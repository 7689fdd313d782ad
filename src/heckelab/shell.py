"""Command-line interface: census, gelfand, witness, verify, decay,
embed-check, and spher subcommands.

Each tree pair named by the options or a certificate is one `PairSpec`,
checked against the caps before any group is built, and every command
builds its pair afresh; nothing is written outside the --out and
certificate files (`--cache` and HECKELAB_CACHE are accepted and ignored).
Each subcommand names its handler with `set_defaults` and the handler reads
the argparse namespace directly; one range check runs before it.
Reports are JSON lines (written to --out when given, otherwise to stdout)
plus a human-readable summary on stdout; file writes are atomic
(write-temp-then-rename).  Primary output files carry no timestamps, so
identical configurations reproduce identical bytes.

A command loads only the layers it runs: the handlers import `witness`,
`embed` and `spheromorph` themselves, and the parser's witness defaults and
scenario names are literals here, so a census never loads those layers.

`run` is the one program entry point, for `python -m heckelab` and the
installed `heckelab` script alike.  It freezes the import-time heap (numpy,
this module and its eager layers, about 21,000 objects) with `gc.freeze`
before it dispatches, so no garbage collection of the command, nor those at
interpreter shutdown, scans those objects again.  Library callers and tests
call `main(argv)`, which freezes nothing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import tempfile

from .errors import ScaleError, SearchFailureError
from .hecke import HeckePair, PairSpec
from .treefam import TreeShape

# equal to witness.DEFAULT_SEED, DEFAULT_BUDGET, DEFAULT_K_MAX, K_MAX_CAP and
# sorted(embed.SCENARIOS); tests/test_shell.py holds them to that
DEFAULT_SEED, DEFAULT_BUDGET, DEFAULT_K_MAX, K_MAX_CAP = 0, 16, 1024, 1 << 16
SCENARIO_NAMES = ("s2-cubed", "s2-squared", "s4-squared")


def _check_ranges(args: argparse.Namespace):
    """Refuse degrees below 2, a k-max, budget or n-max below 1, a k-max above
    its cap and a negative seed."""
    if getattr(args, "d", 2) < 2 or getattr(args, "k", 2) < 2:
        raise ScaleError("tree degrees d and k must be at least 2")
    for name in ("k_max", "budget", "n_max"):
        if getattr(args, name, 1) < 1:
            raise ScaleError(f"{name.replace('_', '-')} must be at least 1")
    if getattr(args, "k_max", 1) > K_MAX_CAP:
        raise ScaleError(f"k-max {args.k_max} exceeds the cap {K_MAX_CAP}")
    if getattr(args, "seed", 0) < 0:
        raise ScaleError("seed must be at least 0")


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# the one build of a command's pair; an alias kept under this name because
# `perfbench/tracer.py` patches it by name as the `shell.load_pair` span
load_or_build_pair = PairSpec.pair


class Reporter:
    """Routes JSON lines to --out (or stdout) and summary text to stdout."""

    def __init__(self, out_path: str | None):
        self.out_path = out_path
        self.lines = []

    def emit(self, record: dict):
        self.lines.append(json.dumps(record))

    def summary(self, text: str):
        prefix = "" if self.out_path else "# "
        print(prefix + text)

    def close(self):
        payload = "\n".join(self.lines) + ("\n" if self.lines else "")
        if self.out_path:
            _atomic_write(self.out_path, payload)
        elif payload:
            sys.stdout.write(payload)


# -- subcommands -----------------------------------------------------------------------

def _pair_row(pair: HeckePair) -> dict:
    report = pair.is_commutative()
    return {
        "format": "heckelab/census-row/v1",
        **pair.spec.fields,
        "group_order": pair.group.order(),
        "subgroup_order": pair.subgroup.order(),
        "index": pair.size,
        "double_coset_count": pair.dim,
        "commutative": report.commutative,
        "witness_pair": list(report.witness) if report.witness else None,
    }


def cmd_census(args: argparse.Namespace) -> int:
    reporter = Reporter(args.out)
    # every pair is checked before the first is built; (d, 3) by default
    specs = [PairSpec.depth(args.d, args.l)] if args.l is not None else []
    if args.n is not None:
        specs.append(PairSpec.level(args.d, args.k, args.n))
    for spec in specs or [PairSpec.depth(args.d, 3)]:
        pair = load_or_build_pair(spec)
        row = _pair_row(pair)
        reporter.emit(row)
        reporter.summary(
            f"{pair.name}: |G|={row['group_order']} |H|={row['subgroup_order']} "
            f"index={row['index']} classes={row['double_coset_count']} "
            f"commutative={row['commutative']}")
    reporter.close()
    return 0


def cmd_gelfand(args: argparse.Namespace) -> int:
    reporter = Reporter(args.out)
    pair = load_or_build_pair(PairSpec.depth(args.d, args.l))
    report = pair.is_commutative()
    record = {
        "format": "heckelab/gelfand-verdict/v1",
        **pair.spec.fields,
        "commutative": report.commutative,
        "witness_pair": list(report.witness) if report.witness else None,
        "witness_entry": list(report.entry) if report.entry else None,
    }
    reporter.emit(record)
    verdict = "commutative" if report.commutative else "noncommutative"
    detail = "" if report.commutative else (
        f"; witness basis pair {report.witness}, commutator entry {report.entry}")
    reporter.summary(f"{pair.name} is {verdict}{detail}")
    reporter.close()
    return 0


def cmd_witness(args: argparse.Namespace) -> int:
    from .witness import search_witness

    pair = load_or_build_pair(PairSpec.depth(args.d, args.l))
    out = args.out or "witness-certificate.json"
    try:
        cert = search_witness(pair, seed=args.seed, budget=args.budget,
                              k_max=args.k_max)
    except (SearchFailureError, ValueError) as exc:
        print(f"witness search failed: {exc}", file=sys.stderr)
        return 1
    _atomic_write(out, json.dumps(cert.to_json_dict()) + "\n")
    print(f"certificate written to {out}")
    print(f"max |τ(w^k)| over 1 <= k <= {cert.k_max}: {cert.max_abs_moment:.12f}")
    print(f"margin to 1: {1.0 - cert.max_abs_moment:.6e}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .witness import WitnessCertificate, verify_certificate

    cert = WitnessCertificate.load(args.cert)
    pair = load_or_build_pair(PairSpec.depth(cert.d, cert.l))
    report = verify_certificate(cert, pair)
    print(report.summary())
    return 0 if report.ok else 1


def cmd_decay(args: argparse.Namespace) -> int:
    from .witness import (WitnessCertificate, decay_table, fejer_coefficients,
                          haar_convergence_check)

    cert = WitnessCertificate.load(args.cert)
    shape = TreeShape(cert.d, args.k)
    reporter = Reporter(args.out)
    report = decay_table(cert, shape, n_max=args.n_max, k_max=args.k_max)
    for row in report.rows():
        reporter.emit({"format": "heckelab/decay-row/v1", **row})
    coeffs = fejer_coefficients()
    haar_rows = haar_convergence_check(cert, coeffs, report.levels, shape)
    for row in haar_rows:
        reporter.emit({
            "format": "heckelab/haar-row/v1",
            "n": row["n"],
            "tensor_count": row["tensor_count"],
            "value_re": row["value"].real,
            "value_im": row["value"].imag,
            "deviation": row["deviation"],
            "bound": row["bound"],
        })
    if report.first_level_below is not None:
        reporter.summary(
            f"max_k |τ(w^k)|^|V_n| drops below {report.threshold} at n = "
            f"{report.first_level_below} (tensor count "
            f"{shape.level_size(report.first_level_below)})")
    else:
        reporter.summary(
            f"decay did not reach {report.threshold} within n <= {args.n_max}")
    last = haar_rows[-1]
    reporter.summary(
        f"circle-average deviation at n = {last['n']}: {last['deviation']:.3e} "
        f"(constant coefficient {coeffs[0]})")
    reporter.close()
    return 0 if report.first_level_below is not None else 1


def cmd_embed_check(args: argparse.Namespace) -> int:
    from .embed import SCENARIOS, scenario_report

    all_ok = True
    # argparse refuses a name outside SCENARIO_NAMES
    for name in [args.scenario] if args.scenario else SCENARIO_NAMES:
        scenario = SCENARIOS[name]()
        report = scenario_report(scenario)
        print(f"scenario {name}: {scenario!r}")
        for axiom, ok in report.rows():
            print(f"  {axiom:<28} {'PASS' if ok else 'FAIL'}")
        all_ok = all_ok and report.ok
    return 0 if all_ok else 1


def cmd_spher(args: argparse.Namespace) -> int:
    from . import spheromorph

    def read(path):
        with open(path) as fh:
            return spheromorph.from_json_dict(json.load(fh))

    count, files = (2, "two element files") if args.op == "compose" else (1, "one element file")
    if len(args.files) != count:
        print(f"spher {args.op} needs exactly {files}", file=sys.stderr)
        return 2
    if args.op == "compose":
        result = spheromorph.canonical_form(
            spheromorph.compose(read(args.files[0]), read(args.files[1])))
        payload = json.dumps(spheromorph.to_json_dict(result))
    elif args.op == "canonical":
        result = spheromorph.canonical_form(read(args.files[0]))
        payload = json.dumps(spheromorph.to_json_dict(result))
    else:
        if args.n is None:
            print("spher key needs --n", file=sys.stderr)
            return 2
        key = spheromorph.double_coset_key(read(args.files[0]), args.n)
        payload = json.dumps({
            "format": "heckelab/coset-key/v1",
            "n": args.n,
            "images": list(key.images),
        })
    if args.out:
        _atomic_write(args.out, payload + "\n")
        print(f"written to {args.out}")
    else:
        print(payload)
    return 0


# -- argument parsing --------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckelab",
        description="Hecke algebras of tree pairs: tables, verdicts, witnesses")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, *, d=False, out=True):
        # no abbreviations: --k would otherwise mean --k-max where there is no --k
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(run=run)
        if d:
            p.add_argument("--d", type=int, default=2, help="branching degree")
        if out:
            p.add_argument("--out", help="write the JSON report here")
        p.add_argument("--cache", help="accepted and ignored; pairs are not cached")
        return p

    p = command("census", cmd_census, "pair table: orders, classes, commutativity", d=True)
    p.add_argument("--k", type=int, default=2, help="root degree")
    p.add_argument("--l", "--depth", type=int, dest="l",
                   help="depth of the regular-tree pair")
    p.add_argument("--n", "--level", type=int, dest="n",
                   help="level of the (k, n) pair")

    p = command("gelfand", cmd_gelfand, "commutativity verdict for (S_{d^l}, Q_l)", d=True)
    p.add_argument("--l", "--depth", type=int, dest="l", required=True)

    p = command("witness", cmd_witness, "search witness unitaries, emit a certificate", d=True)
    p.add_argument("--l", "--depth", type=int, dest="l", default=3)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--k-max", type=int, default=DEFAULT_K_MAX, dest="k_max")

    p = command("verify", cmd_verify, "re-verify a witness certificate", out=False)
    p.add_argument("cert", help="certificate file")

    p = command("decay", cmd_decay, "tensor-power moment decay and circle averages")
    p.add_argument("--k", type=int, default=2, help="root degree")
    p.add_argument("cert", help="certificate file")
    p.add_argument("--n-max", "--level-max", type=int, default=20, dest="n_max")
    p.add_argument("--k-max", type=int, default=DEFAULT_K_MAX, dest="k_max")

    p = command("embed-check", cmd_embed_check, "wreath-embedding axiom suite", out=False)
    p.add_argument("--scenario", choices=SCENARIO_NAMES,
                   help="run one pinned scenario (default: all)")

    p = command("spher", cmd_spher, "almost-automorphism calculus")
    p.add_argument("op", choices=["compose", "canonical", "key"])
    p.add_argument("files", nargs="+", help="element JSON files")
    p.add_argument("--n", type=int, help="level for the double-coset key")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_ranges(args)
        status = args.run(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed stdout early: stop quietly, with fd 1 on /dev/null
        # so that the flush at interpreter exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    except ScaleError as exc:
        print(f"scale cap violated: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RecursionError) as exc:
        # RecursionError: json.load on input nested too deeply
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run():
    """Program entry point: freeze the import-time heap, then exit with
    `main()`'s status.  The cycles that exist by now are never collected."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
