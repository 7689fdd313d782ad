import gc
import importlib
import json
import math
import os
import random
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import heckelab
from heckelab.hecke import PairSpec
from heckelab.permgroup import (COSET_INDEX_CAP, DoubleCosetTable, PermGroup, Permutation,
                                symmetric_group)
from heckelab.shell import main
from heckelab.spheromorph import AlmostAutomorphism, to_json_dict
from heckelab.treefam import TreeShape, ball_aut_group, closed_form_order


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_census_depth_two(workdir, capsys):
    assert main(["census", "--d", "2", "--l", "2", "--out", "rows.jsonl"]) == 0
    rows = [json.loads(line) for line in
            (workdir / "rows.jsonl").read_text().splitlines()]
    assert rows == [{
        "format": "heckelab/census-row/v1",
        "d": 2, "l": 2,
        "group_order": 24, "subgroup_order": 8, "index": 3,
        "double_coset_count": 2, "commutative": True, "witness_pair": None,
    }]
    assert "commutative=True" in capsys.readouterr().out


def test_census_level_pair(workdir, capsys):
    assert main(["census", "--d", "2", "--k", "2", "--n", "2",
                 "--out", "rows.jsonl"]) == 0
    row = json.loads((workdir / "rows.jsonl").read_text())
    assert row["n"] == 2 and row["subgroup_order"] == 8


@pytest.mark.parametrize("d, k, index, classes, order", [
    (4, 3, 5775, 9, 82944),
    (8, 2, 6435, 5, 3251404800),
    (9, 2, 24310, 5, 263363788800),
])
def test_census_big_level_pairs(workdir, capsys, d, k, index, classes, order):
    assert main(["census", "--d", str(d), "--k", str(k), "--n", "2",
                 "--out", "rows.jsonl"]) == 0
    row = json.loads((workdir / "rows.jsonl").read_text())
    assert (row["index"], row["double_coset_count"], row["commutative"],
            row["subgroup_order"]) == (index, classes, True, order)


def test_census_without_out_prints_json(workdir, capsys):
    # depth 1 is the degenerate pair (S_2, S_2): a single class
    assert main(["census", "--d", "2", "--l", "1"]) == 0
    out = capsys.readouterr().out
    json_lines = [l for l in out.splitlines() if l.startswith("{")]
    assert len(json_lines) == 1
    assert json.loads(json_lines[0])["double_coset_count"] == 1


def test_gelfand_verdicts(workdir, capsys):
    assert main(["gelfand", "--d", "2", "--l", "2", "--out", "g2.json"]) == 0
    assert json.loads((workdir / "g2.json").read_text())["commutative"] is True
    assert main(["gelfand", "--d", "2", "--l", "3", "--out", "g3.json"]) == 0
    verdict = json.loads((workdir / "g3.json").read_text())
    assert verdict["commutative"] is False
    assert verdict["witness_pair"] is not None


FLAGSHIP_SUMMARY = ("# (S_8, Q_3): |G|=40320 |H|=128 index=315 classes=16 "
                    "commutative=False")
FLAGSHIP_ROW = ('{"format": "heckelab/census-row/v1", "d": 2, "l": 3, '
                '"group_order": 40320, "subgroup_order": 128, "index": 315, '
                '"double_coset_count": 16, "commutative": false, "witness_pair": [1, 4]}')


@pytest.mark.parametrize("argv, lines", [
    (["census"], [FLAGSHIP_SUMMARY, FLAGSHIP_ROW]),
    (["census", "--d", "2", "--l", "3", "--k", "2", "--n", "2"], [
        FLAGSHIP_SUMMARY,
        "# (S_4, P_2): |G|=24 |H|=8 index=3 classes=2 commutative=True",
        FLAGSHIP_ROW,
        '{"format": "heckelab/census-row/v1", "d": 2, "k": 2, "n": 2, '
        '"group_order": 24, "subgroup_order": 8, "index": 3, '
        '"double_coset_count": 2, "commutative": true, "witness_pair": null}',
    ]),
    (["census", "--d", "2", "--k", "4", "--n", "2"], [
        "# (S_8, P_2): |G|=40320 |H|=384 index=105 classes=5 commutative=True",
        '{"format": "heckelab/census-row/v1", "d": 2, "k": 4, "n": 2, '
        '"group_order": 40320, "subgroup_order": 384, "index": 105, '
        '"double_coset_count": 5, "commutative": true, "witness_pair": null}',
    ]),
    (["gelfand", "--d", "2", "--l", "3"], [
        "# (S_8, Q_3) is noncommutative; witness basis pair (1, 4), "
        "commutator entry (0, 28, -1)",
        '{"format": "heckelab/gelfand-verdict/v1", "d": 2, "l": 3, '
        '"commutative": false, "witness_pair": [1, 4], "witness_entry": [0, 28, -1]}',
    ]),
], ids=["census-default", "census-depth-and-level", "census-level", "gelfand"])
def test_pinned_stdout(workdir, capsys, argv, lines):
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == lines


def test_unusable_cache_paths_are_ignored(workdir, capsys, monkeypatch):
    # --cache and HECKELAB_CACHE are accepted and ignored, so a path that
    # cannot be a directory no longer turns a computable result into exit 2
    (workdir / "regular").write_text("")
    assert main(["census", "--d", "2", "--l", "3", "--cache", "regular"]) == 0
    assert capsys.readouterr() == (FLAGSHIP_SUMMARY + "\n" + FLAGSHIP_ROW + "\n", "")
    monkeypatch.setenv("HECKELAB_CACHE", str(workdir / "regular" / "cache"))
    assert main(["gelfand", "--d", "2", "--l", "3"]) == 0
    assert capsys.readouterr() == (
        "# (S_8, Q_3) is noncommutative; witness basis pair (1, 4), "
        "commutator entry (0, 28, -1)\n"
        '{"format": "heckelab/gelfand-verdict/v1", "d": 2, "l": 3, '
        '"commutative": false, "witness_pair": [1, 4], "witness_entry": [0, 28, -1]}\n',
        "")


def test_pair_commands_write_only_their_outputs(workdir, capsys, monkeypatch):
    monkeypatch.delenv("HECKELAB_CACHE", raising=False)
    assert main(["census", "--d", "2", "--l", "3", "--out", "rows.jsonl"]) == 0
    assert main(["gelfand", "--d", "2", "--l", "3", "--out", "verdict.json"]) == 0
    assert main(["witness", "--d", "2", "--l", "3", "--out", "cert.json"]) == 0
    assert main(["verify", "cert.json"]) == 0
    assert sorted(os.listdir(workdir)) == ["cert.json", "rows.jsonl", "verdict.json"]


@pytest.mark.parametrize("argv, d, k, n", [
    (["census", "--d", "2", "--l", "6"], 2, 2, 6),
    (["census", "--d", "8", "--l", "2"], 8, 8, 2),
    (["census", "--d", "2", "--k", "3", "--n", "5"], 2, 3, 5),
    (["verify", "cert.json"], 2, 2, 6),
])
def test_over_cap_pairs_refused_before_any_group(workdir, capsys, monkeypatch,
                                                 flagship_certificate, argv, d, k, n):
    # S_64 alone takes about 40 s to build; the closed-form index refuses first
    data = flagship_certificate.to_json_dict()
    data["l"] = 6
    (workdir / "cert.json").write_text(json.dumps(data))

    def no_groups(*args, **kwargs):
        raise AssertionError("a permutation group was built")

    monkeypatch.setattr(PermGroup, "__init__", no_groups)
    assert main(argv) == 2
    shape = TreeShape(d, k)
    size = math.factorial(shape.level_size(n)) // closed_form_order(shape, n)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"scale cap violated: right-coset space of size {size} "
                            "exceeds cap 100000\n")


def test_scale_error_exit_code(workdir, capsys):
    assert main(["census", "--d", "2", "--l", "9"]) == 2
    assert main(["census", "--d", "2", "--n", "0"]) == 2


def test_witness_verify_decay_round_trip(workdir, capsys):
    assert main(["witness", "--d", "2", "--l", "3", "--out", "cert.json"]) == 0
    assert main(["verify", "cert.json"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out

    assert main(["decay", "cert.json", "--out", "decay.jsonl"]) == 0
    rows = [json.loads(line) for line in
            (workdir / "decay.jsonl").read_text().splitlines()]
    decays = [r for r in rows if r["format"] == "heckelab/decay-row/v1"]
    haars = [r for r in rows if r["format"] == "heckelab/haar-row/v1"]
    assert len(decays) == 20 and len(haars) == 20
    assert min(r["max_abs_tensor"] for r in decays) < 1e-3
    assert haars[-1]["deviation"] < 1e-3


def test_decay_takes_d_from_the_certificate(workdir, capsys, flagship_certificate):
    # the certificate's pair (S_{d^l}, Q_l) fixes d; there is no --d to contradict it
    data = flagship_certificate.to_json_dict()
    data.update(d=3, l=2, basis=PairSpec.depth(3, 2).pair().table.representatives.tolist(),
                u={"re": [1.0, 0, 0, 0, 0], "im": [0.0] * 5})
    data["v"] = data["u"]
    (workdir / "cert.json").write_text(json.dumps(data))
    assert main(["decay", "cert.json", "--n-max", "3", "--out", "decay.jsonl"]) == 1
    rows = [json.loads(line) for line in (workdir / "decay.jsonl").read_text().splitlines()]
    assert [r["tensor_count"] for r in rows] == [2, 6, 18] * 2
    result = subprocess.run(
        [sys.executable, "-m", "heckelab", "decay", "cert.json", "--d", "3"],
        capture_output=True, text=True, env=_package_env())
    assert result.returncode == 2
    assert "unrecognized arguments: --d 3" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("command", ["decay", "verify"])
def test_certificate_pair_must_fit_its_basis(workdir, capsys, flagship_certificate, command):
    # d edited to 3 while the basis stays that of (S_8, Q_3): (S_27, Q_3) is over
    # the coset cap, and (S_9, Q_2) has no 8-point basis rows
    data = flagship_certificate.to_json_dict()
    for d, l, reason in ((3, 3, "right-coset space"), (3, 2, "d^l = 9 points")):
        data.update(d=d, l=l)
        (workdir / "cert.json").write_text(json.dumps(data))
        assert main([command, "cert.json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert reason in captured.err


def _fast_refusal(*argv):
    start = time.perf_counter()
    result = subprocess.run([sys.executable, "-m", "heckelab", *argv],
                            capture_output=True, text=True, env=_package_env())
    assert result.returncode == 2
    assert result.stdout == "" and result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr
    return result.stderr, time.perf_counter() - start


@pytest.mark.parametrize("l", ["100000", "1000000000"])
def test_huge_level_refused_before_the_power(workdir, l):
    err, seconds = _fast_refusal("census", "--d", "2", "--l", l)
    assert err == "scale cap violated: d^l exceeds the point cap 64\n"
    assert seconds < 5


def test_certificate_with_huge_depth_refused(workdir, flagship_certificate):
    data = flagship_certificate.to_json_dict()
    data["l"] = 10 ** 9
    (workdir / "cert.json").write_text(json.dumps(data))
    err, seconds = _fast_refusal("verify", "cert.json")
    assert err == "scale cap violated: d^l exceeds the point cap 64\n"
    assert seconds < 5


def test_spher_key_checks_the_level_on_the_elements_tree(workdir):
    # |V_6| = 10^6 on the tree with d = k = 10, though 2^6 fits the binary tree
    g = AlmostAutomorphism.identity(TreeShape(10, 10))
    (workdir / "g.json").write_text(json.dumps(to_json_dict(g)))
    err, seconds = _fast_refusal("spher", "key", "g.json", "--n", "6")
    assert err == "scale cap violated: |V_n| = 1000000 exceeds the point cap 64\n"
    assert seconds < 5


@pytest.mark.parametrize("n_max", ["1100", "1000000000"])
def test_decay_refuses_levels_beyond_float_range(workdir, flagship_certificate, n_max):
    (workdir / "cert.json").write_text(json.dumps(flagship_certificate.to_json_dict()))
    err, seconds = _fast_refusal("decay", "cert.json", "--n-max", n_max)
    assert err == f"scale cap violated: |V_n| at n = {n_max} exceeds the float range\n"
    assert seconds < 5


def test_decay_near_the_float_range_writes_no_warning(workdir, flagship_certificate):
    # |V_n| ≈ 2^1023 times a log-moment below -1 overflows to -inf, which is exp'd to 0
    (workdir / "cert.json").write_text(json.dumps(flagship_certificate.to_json_dict()))
    result = subprocess.run(
        [sys.executable, "-m", "heckelab", "decay", "cert.json", "--n-max", "1023"],
        capture_output=True, text=True, env=_package_env())
    assert result.returncode == 0
    assert result.stderr == ""


def test_decay_refuses_moments_off_the_unit_disc(workdir, capsys, flagship_certificate):
    data = flagship_certificate.to_json_dict()
    data["moments"]["re"][0] = 2.0
    (workdir / "cert.json").write_text(json.dumps(data))
    for extra in ([], ["--k-max", "1", "--n-max", "3"]):
        assert main(["decay", "cert.json", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: ") and "τ(w^1)" in captured.err
    data["moments"]["re"][0] = 0.0
    data["moments"]["im"][5] = -1.5
    (workdir / "cert.json").write_text(json.dumps(data))
    # the Haar rows read moments beyond --k-max, so every stored moment is checked
    assert main(["decay", "cert.json", "--k-max", "3"]) == 2
    assert "τ(w^6)" in capsys.readouterr().err
    assert main(["verify", "cert.json"]) == 1
    assert "FAIL" in capsys.readouterr().out
    data["moments"]["re"][2] = math.nan
    (workdir / "cert.json").write_text(json.dumps(data))
    assert main(["decay", "cert.json"]) == 2
    assert "τ(w^3)" in capsys.readouterr().err


def test_verify_fails_overflowing_weights_without_a_traceback(workdir, capsys,
                                                              flagship_certificate):
    # weights 0 and 1 share an atom, whose merged weight overflows to inf
    data = flagship_certificate.to_json_dict()
    data["spectral"]["weights"][0] = data["spectral"]["weights"][1] = 1e308
    (workdir / "cert.json").write_text(json.dumps(data))
    assert main(["verify", "cert.json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("certificate verification: FAIL\n  failed: weight-sum\n")


def test_decay_refuses_a_certificate_too_short_for_the_circle_average(workdir, capsys):
    # the Fejér average reads τ(w^k) for every |k| <= 8
    assert main(["witness", "--k-max", "3", "--out", "cert.json"]) == 0
    assert main(["verify", "cert.json"]) == 0
    capsys.readouterr()
    assert main(["decay", "cert.json", "--out", "decay.jsonl"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: certificate holds 3 moments")
    assert not (workdir / "decay.jsonl").exists()


def test_verify_fails_a_long_spectrum_before_reconstructing_it(workdir, flagship_certificate):
    # 200,000 atoms: their reconstruction alone would ask for 3 GiB
    data = flagship_certificate.to_json_dict()
    for key in ("angles", "weights"):
        data["spectral"][key] *= 12_500
    (workdir / "cert.json").write_text(json.dumps(data))
    result, _ = _limited("verify", "cert.json")
    assert (result.returncode, result.stderr) == (1, "")
    assert result.stdout.startswith("certificate verification: FAIL\n  failed: spectral-length\n")


@pytest.mark.parametrize("command", ["gelfand", "witness"])
def test_depth_pair_commands_take_no_root_degree(workdir, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--l", "2", "--k", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --k 3" in capsys.readouterr().err


DEGREES = "tree degrees d and k must be at least 2"


@pytest.mark.parametrize("argv, reason", [
    (["census", "--d", "1"], DEGREES),
    (["witness", "--d", "1", "--budget", "0"], DEGREES),
    (["witness", "--budget", "0", "--k-max", "0"], "k-max must be at least 1"),
    (["witness", "--budget", "0"], "budget must be at least 1"),
    (["decay", "missing.json", "--k", "1", "--n-max", "0"], DEGREES),
    (["decay", "missing.json", "--n-max", "0"], "n-max must be at least 1"),
    (["witness", "--seed", "-1", "--budget", "0"], "budget must be at least 1"),
    (["witness", "--seed", "-1"], "seed must be at least 0"),
])
def test_range_errors_keep_their_order(workdir, capsys, argv, reason):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"scale cap violated: {reason}\n")


@pytest.mark.parametrize("argv", [["witness", "--k-max", "1000000000000"],
                                  ["witness", "--k-max", "100000000"],
                                  ["decay", "missing.json", "--k-max", "65537"]])
def test_k_max_meets_its_cap_first(workdir, argv):
    result, _ = _limited(*argv)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"scale cap violated: k-max {argv[-1]} exceeds the cap 65536\n"


@pytest.mark.parametrize("command", ["verify", "decay"])
def test_certificate_moment_count_meets_the_cap(workdir, capsys, flagship_certificate,
                                                command):
    data = flagship_certificate.to_json_dict()
    for part in ("re", "im"):
        data["moments"][part] += [0.0] * (65537 - len(data["moments"][part]))
    (workdir / "cert.json").write_text(json.dumps(data))
    assert main([command, "cert.json"]) == 2
    assert capsys.readouterr() == (
        "", "scale cap violated: certificate has 65537 moments, above the k-max cap 65536\n")


def test_verify_rejects_tampered_certificate(workdir, capsys):
    assert main(["witness", "--d", "2", "--l", "3", "--out", "cert.json"]) == 0
    data = json.loads((workdir / "cert.json").read_text())
    data["u"]["re"][1] += 1e-3
    (workdir / "bad.json").write_text(json.dumps(data))
    assert main(["verify", "bad.json"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cache_reuse_and_byte_identical_outputs(workdir, capsys):
    # pairs are no longer cached: a repeated census must still give the same bytes
    assert main(["census", "--d", "2", "--l", "3", "--out", "a.jsonl"]) == 0
    assert main(["census", "--d", "2", "--l", "3", "--out", "b.jsonl"]) == 0
    assert (workdir / "a.jsonl").read_bytes() == (workdir / "b.jsonl").read_bytes()


PINNED_D2_L3_ROW = {
    "format": "heckelab/census-row/v1", "d": 2, "l": 3,
    "group_order": 40320, "subgroup_order": 128, "index": 315,
    "double_coset_count": 16, "commutative": False,
}


def _table_document(G, H, descriptor):
    # the old heckelab/dctable/v1 cache document, written here from the table
    # arrays since the package no longer writes it
    table = DoubleCosetTable(G, H)
    return {
        "format": "heckelab/dctable/v1",
        "descriptor": descriptor,
        "m": G.degree,
        "group_generators": [list(g.images) for g in G.generators],
        "subgroup_generators": [list(g.images) for g in H.generators],
        "coset_representatives": table.cosets.rows.tolist(),
        "entries": [
            {"representative": rep, "size": size,
             "right_cosets": np.flatnonzero(table.class_of_coset == d).tolist(),
             "r_index": r, "r_index_inv": r_inv}
            for d, (rep, size, r, r_inv) in enumerate(zip(
                table.representatives.tolist(), table.sizes, table.r_index.tolist(),
                table.r_index[table.inverse_class].tolist()))
        ],
    }


def _corrupt_index(data):
    data["entries"][1]["right_cosets"][0] = 10 ** 6


def _wrong_descriptor(data):
    data["descriptor"]["l"] = 2


def _other_subgroup(data):
    # a valid table of (S_8, P_2) for the tree with root degree 4
    data.update(_table_document(symmetric_group(8), ball_aut_group(TreeShape(2, 4), 2),
                                data["descriptor"]))


def _swapped_entries(data):
    # entries 1 and 8 both hold 4 cosets, so every size still checks out
    entries = data["entries"]
    entries[1], entries[8] = entries[8], entries[1]


def _fused_entries(data):
    # the identity class and one class of the other 314 cosets: a partition
    # in the constructor's order, with sizes and R-indices that add up
    entries = data["entries"]
    rest = sorted(c for entry in entries[1:] for c in entry["right_cosets"])
    entries[1:] = [{"representative": entries[1]["representative"], "size": 128 * 314,
                    "right_cosets": rest, "r_index": 314, "r_index_inv": 314}]


@pytest.mark.parametrize("corrupt", [_corrupt_index, _wrong_descriptor, _other_subgroup,
                                     _swapped_entries, _fused_entries])
def test_bad_cache_entry_is_rebuilt(workdir, capsys, monkeypatch, corrupt):
    # a wrong table planted where the removed disk cache kept (S_8, Q_3) is
    # never read: the verdict and output bytes stay, and the file is not touched
    assert main(["census", "--d", "2", "--l", "3", "--out", "a.jsonl"]) == 0
    data = _table_document(symmetric_group(8), ball_aut_group(TreeShape(2, 2), 3),
                           {"kind": "depth", "d": 2, "l": 3})
    corrupt(data)
    path = workdir / "cache" / "dc_depth_d2_l3_v1.json"
    path.parent.mkdir()
    path.write_text(json.dumps(data))
    planted = path.read_bytes()
    monkeypatch.setenv("HECKELAB_CACHE", str(path.parent))
    assert main(["census", "--d", "2", "--l", "3", "--cache", str(path.parent),
                 "--out", "b.jsonl"]) == 0
    row = json.loads((workdir / "b.jsonl").read_text())
    assert {k: row[k] for k in PINNED_D2_L3_ROW} == PINNED_D2_L3_ROW
    assert (workdir / "a.jsonl").read_bytes() == (workdir / "b.jsonl").read_bytes()
    assert path.read_bytes() == planted


@pytest.mark.parametrize("field", ["u", "moments", "tolerances", "d"])
def test_malformed_certificate_exits_2_with_one_line(workdir, capsys, field,
                                                     flagship_certificate):
    data = flagship_certificate.to_json_dict()
    del data[field]
    (workdir / "bad.json").write_text(json.dumps(data))
    assert main(["verify", "bad.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err and "Traceback" not in err


@pytest.mark.parametrize("path, value, named", [
    (("moments", "re", 0), math.nan, "τ(w^1)"),
    (("moments", "im", 3), -math.inf, "τ(w^4)"),
    (("max_abs_moment",), math.nan, "'max_abs_moment'"),
    (("spectral", "weights", 0), math.nan, "'spectral.weights'"),
    (("spectral", "angles", 0), math.nan, "'spectral.angles'"),
    (("spectral",), {"angles": [], "weights": []}, "'spectral'"),
    (("tolerances", "unitarity"), math.nan, "'tolerances.unitarity'"),
    (("u", "re", 0), math.inf, "'u.re'"),
    (("v", "im", 0), 10 ** 400, "'v.im'"),
    *[(("u", "re", 0), float(f"1e{e}"), None) for e in (50, 100, 150, 160, 200)],
], ids=["moment-nan", "moment-minus-inf", "max-nan", "weight-nan", "angle-nan",
        "spectral-empty", "tolerance-nan", "u-inf", "v-beyond-float",
        "u-1e50", "u-1e100", "u-1e150", "u-1e160", "u-1e200"])
def test_non_finite_certificates_fail_closed(workdir, capsys, flagship_certificate,
                                             path, value, named):
    data = flagship_certificate.to_json_dict()
    *keys, last = path
    target = data
    for key in keys:
        target = target[key]
    target[last] = value
    (workdir / "cert.json").write_text(json.dumps(data))
    if named is None:
        # finite but wild coefficients overflow on the way to a silent FAIL
        assert main(["verify", "cert.json"]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out and captured.err == ""
        if value == 1e200:
            # the powers of λ(w) overflow to NaN, and the defect keeps it
            assert "conjugate_symmetry_defect: nan" in captured.out
        return
    for command in ("verify", "decay"):
        assert main([command, "cert.json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: ") and named in captured.err


def _spher_doc():
    shape = TreeShape(2, 2)
    return to_json_dict(AlmostAutomorphism.automorphism(shape, {(): (1, 0)}))


@pytest.mark.parametrize("document, field", [
    ({k: v for k, v in _spher_doc().items() if k != "phi"}, "phi"),
    (dict(_spher_doc(), phi=5), "phi"),
    ([_spher_doc()], "JSON object"),
    (dict(_spher_doc(), d="2"), "'d'"),
    (dict(_spher_doc(), twists={"": [["", 5]]}), "permutation"),
    (dict(_spher_doc(), A=["", ["x"]]), "address"),
    (dict(_spher_doc(), phi=[["0", "0"], ["1", "1"], ["2", "2"]], twists={}),
     "not a vertex"),
    (dict(_spher_doc(), phi=[], twists={}), "cover"),
    (dict(_spher_doc(), twists={"": [["7", [1, 0]]]}), "not a vertex"),
    (dict(_spher_doc(), twists={"0": [["", [1, 0]]]}), "not at a domain leaf"),
    (dict(_spher_doc(), twists={"": [["", [0, 1, 2]]]}), "permutation"),
    # contradictory entries: the last one used to win, and the file passed
    (dict(_spher_doc(), A=["", "0", "1"], B=["", "0", "1"], twists={},
          phi=[["0", "1"], ["0", "0"], ["1", "1"]]), "twice"),
    (dict(_spher_doc(), twists={"": [["", [1, 0]], ["", [0, 1]]]}), "twice"),
])
def test_malformed_spher_element_exits_2_with_one_line(workdir, capsys, document, field):
    (workdir / "bad.json").write_text(json.dumps(document))
    assert main(["spher", "canonical", "bad.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err and "Traceback" not in err


def test_spher_lone_deep_leaf_refused(workdir):
    # an 80 KB file with one leaf at depth 40,000: a complete subtree that
    # deep has more than 40,000 leaves, so no level size is formed
    leaf = "0" * 40_000
    document = dict(_spher_doc(), A=[], B=[], phi=[[leaf, leaf]], twists={})
    (workdir / "deep.json").write_text(json.dumps(document))
    err, seconds = _fast_refusal("spher", "canonical", "deep.json")
    assert err == "error: subtree leaves do not cover the boundary of the tree\n"
    assert seconds < 5


def test_witness_certificates_reproducible(workdir, capsys):
    assert main(["witness", "--d", "2", "--l", "3", "--out", "c1.json"]) == 0
    assert main(["witness", "--d", "2", "--l", "3", "--out", "c2.json"]) == 0
    assert (workdir / "c1.json").read_bytes() == (workdir / "c2.json").read_bytes()


def test_embed_check_all(workdir, capsys):
    assert main(["embed-check"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 33  # 11 axiom rows per scenario
    assert "FAIL" not in out


def test_embed_check_single_scenario(workdir, capsys):
    assert main(["embed-check", "--scenario", "s2-squared"]) == 0


def test_spher_commands(workdir, capsys):
    shape = TreeShape(2, 2)
    g = AlmostAutomorphism.automorphism(shape, {(): (1, 0)})
    (workdir / "g.json").write_text(json.dumps(to_json_dict(g)))
    assert main(["spher", "compose", "g.json", "g.json"]) == 0
    out = capsys.readouterr().out.strip().splitlines()[-1]
    composed = json.loads(out)
    assert composed["phi"] == [["", ""]]
    assert composed["twists"] == {}

    assert main(["spher", "canonical", "g.json"]) == 0
    assert main(["spher", "key", "g.json", "--n", "2"]) == 0
    key = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert key["images"] == [0, 1, 2, 3]

    assert main(["spher", "key", "g.json"]) == 2  # missing --n


@pytest.mark.parametrize("argv, files", [
    (["compose", "g.json"], "two element files"),
    (["compose", "g.json", "g.json", "g.json"], "two element files"),
    (["canonical", "g.json", "g.json", "missing.json"], "one element file"),
    (["key", "g.json", "missing.json", "--n", "2"], "one element file"),
])
def test_spher_refuses_a_wrong_file_count(workdir, capsys, argv, files):
    g = AlmostAutomorphism.automorphism(TreeShape(2, 2), {(): (1, 0)})
    (workdir / "g.json").write_text(json.dumps(to_json_dict(g)))
    assert main(["spher", *argv]) == 2
    assert capsys.readouterr() == ("", f"spher {argv[0]} needs exactly {files}\n")


def _package_env():
    # the working directory is tmp_path, so a relative PYTHONPATH would not resolve
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(heckelab.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))


def test_module_entry_point(workdir):
    result = subprocess.run(
        [sys.executable, "-m", "heckelab", "census", "--d", "2", "--l", "1"],
        capture_output=True, text=True, env=_package_env())
    assert result.returncode == 0
    assert "commutative" in result.stdout


def test_cli_imports_no_scipy(workdir):
    # importing scipy.linalg alone costs every command about a third of a second
    probe = ("import sys, heckelab.shell; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", probe],
                            capture_output=True, text=True, env=_package_env())
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


_LAZY_LAYERS = ["heckelab.witness", "heckelab.embed", "heckelab.spheromorph"]
#: exact arithmetic, which only embed-check runs
_EXACT = ["heckelab._exactvec", "fractions", "decimal"]


@pytest.mark.parametrize("setup, unloaded", [
    ("import heckelab", [f"heckelab.{layer}" for layer in (
        "permgroup", "treefam", "hecke", "witness", "embed", "spheromorph")]),
    ("import heckelab.shell", _LAZY_LAYERS),
    ("from heckelab.shell import main; main(['census', '--d', '2', '--l', '3'])",
     [*_LAZY_LAYERS, *_EXACT, "numpy.ma"]),
    ("from heckelab.shell import main; main(['witness', '--budget', '1'])",
     [*_EXACT, "numpy.ma"]),
    ("from heckelab.shell import main; main(['embed-check'])", ["numpy.ma"]),
], ids=["package", "shell", "census", "witness", "embed-check"])
def test_commands_load_only_their_layers(workdir, setup, unloaded):
    # every command is a fresh process that compiles what it imports, so a
    # layer or numpy.ma that a command does not run is start-up it pays for nothing
    probe = f"import sys; {setup}; print(sorted(set({unloaded!r}) & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", probe],
                            capture_output=True, text=True, env=_package_env())
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def test_embed_check_loads_exact_arithmetic(workdir):
    probe = ("import sys; from heckelab.shell import main; "
             "main(['embed-check', '--scenario', 's2-squared']); "
             f"print(sorted(set({_EXACT!r}) & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", probe],
                            capture_output=True, text=True, env=_package_env())
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == str(sorted(_EXACT))


def test_run_freezes_the_import_heap_before_dispatch(workdir):
    probe = ("import gc, heckelab.shell as shell\n"
             "def stub(argv=None):\n"
             "    print(gc.get_freeze_count())\n"
             "    return 7\n"
             "shell.main = stub\n"
             "shell.run()\n")
    result = subprocess.run([sys.executable, "-c", probe],
                            capture_output=True, text=True, env=_package_env())
    assert (result.returncode, result.stderr) == (7, "")
    assert int(result.stdout) > 0


def test_main_freezes_nothing(workdir, capsys):
    before = gc.get_freeze_count()
    assert main(["census", "--d", "2", "--l", "1"]) == 0
    assert gc.get_freeze_count() == before


def test_module_and_console_script_share_one_entry_point():
    root = Path(heckelab.__file__).parent
    assert (root / "__main__.py").read_text() == "from .shell import run\n\nrun()\n"
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    if sys.version_info >= (3, 11):
        import tomllib
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts == {"heckelab": "heckelab.shell:run"}
    else:
        assert re.search(r'^heckelab = "heckelab\.shell:run"$', pyproject.read_text(), re.M)


def _limited(*argv):
    """(result, seconds) of `python -m heckelab ARGV` under a 1 GiB address
    space, a limit set in the child alone, so a regression fails the test
    instead of taking the machine's memory."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    start = time.perf_counter()
    result = subprocess.run([sys.executable, "-m", "heckelab", *argv],
                            capture_output=True, text=True, env=_package_env(),
                            preexec_fn=limit, timeout=60)
    return result, time.perf_counter() - start


@pytest.mark.parametrize("d", [2 ** 70, 10 ** 9], ids=["2^70", "10^9"])
@pytest.mark.parametrize("argv", [["spher", "canonical", "g.json"],
                                  ["spher", "compose", "g.json", "g.json"],
                                  ["spher", "key", "g.json", "--n", "1"],
                                  ["census", "--d", "D", "--k", "2", "--n", "1"]],
                         ids=["canonical", "compose", "key", "census"])
def test_huge_degrees_build_nothing_of_their_size(workdir, d, argv):
    # a root-only element has no vertex of degree d, and at n = 1 no d! is formed
    document = dict(to_json_dict(AlmostAutomorphism.identity(TreeShape(2, 2))), d=d)
    (workdir / "g.json").write_text(json.dumps(document))
    result, seconds = _limited(*[str(d) if a == "D" else a for a in argv])
    assert (result.returncode, result.stderr) == (0, "")
    if argv[1] != "key":
        assert json.loads(result.stdout.splitlines()[-1])["d"] == d
    assert seconds < 1


def test_spher_key_refuses_a_walk_past_the_coset_cap(workdir):
    # a generic permutation of the 32 level-5 points of the binary tree: its
    # double coset holds more than 10^5 right cosets of the ball group
    images = list(range(32))
    random.Random(5).shuffle(images)
    g = AlmostAutomorphism.from_level_permutation(TreeShape(2, 2), 5, Permutation(images))
    (workdir / "g.json").write_text(json.dumps(to_json_dict(g)))
    result, _ = _limited("spher", "key", "g.json", "--n", "5")
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == ("scale cap violated: coset orbit walk found more than "
                             f"{COSET_INDEX_CAP} right cosets\n")


def test_parser_defaults_match_their_layers():
    from heckelab import embed, shell, witness
    args = shell._build_parser().parse_args(["witness"])
    assert (args.seed, args.budget, args.k_max) == (
        witness.DEFAULT_SEED, witness.DEFAULT_BUDGET, witness.DEFAULT_K_MAX)
    assert shell._build_parser().parse_args(["decay", "c.json"]).k_max == witness.DEFAULT_K_MAX
    assert shell.K_MAX_CAP == witness.K_MAX_CAP
    assert list(shell.SCENARIO_NAMES) == sorted(embed.SCENARIOS)


#: the names `heckelab/__init__` imported eagerly before it became lazy
_EXPORTED = {
    "permgroup": ["CosetIndex", "DoubleCosetTable", "PermGroup", "Permutation",
                  "r_index", "symmetric_group"],
    "treefam": ["TreeShape", "ball_aut_group", "closed_form_order", "q_group",
                "wreath_group"],
    "hecke": ["GelfandReport", "HeckeElement", "HeckePair", "PairSpec"],
    "embed": ["SCENARIOS", "WreathScenario", "check_commutation", "embed_invariant",
              "embed_top", "scenario_report"],
    "witness": ["SpectralData", "WitnessCertificate", "decay_table", "fejer_coefficients",
                "haar_convergence_check", "moment_table", "search_witness",
                "unitary_from_selfadjoint", "verify_certificate"],
    "spheromorph": ["AlmostAutomorphism", "canonical_form", "compose", "double_coset_key",
                    "inverse", "is_in_level_subgroup"],
}


def test_lazy_namespace_resolves_every_export():
    for module_name, names in _EXPORTED.items():
        module = importlib.import_module(f"heckelab.{module_name}")
        for name in names:
            assert getattr(heckelab, name) is getattr(module, name), name
            assert name in dir(heckelab) and name in heckelab.__all__, name
    with pytest.raises(AttributeError):
        heckelab.no_such_name  # noqa: B018


def test_from_package_import_submodule(workdir):
    # perfbench/spher.py imports its layer this way
    probe = "from heckelab import spheromorph; print(spheromorph.__name__)"
    result = subprocess.run([sys.executable, "-c", probe],
                            capture_output=True, text=True, env=_package_env())
    assert (result.returncode, result.stdout) == (0, "heckelab.spheromorph\n"), result.stderr


@pytest.mark.parametrize("command", [["verify", "cert.json"],
                                     ["decay", "cert.json", "--n-max", "1000"]],
                         ids=["verify", "decay-over-the-buffer"])
def test_closed_stdout_exits_quietly(workdir, flagship_certificate, command):
    # a reader that is gone before the first write, like `| head -0`
    (workdir / "cert.json").write_text(json.dumps(flagship_certificate.to_json_dict()))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run([sys.executable, "-m", "heckelab", *command],
                                stdout=write_end, stderr=subprocess.PIPE, text=True,
                                env=_package_env())
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (141, "")
