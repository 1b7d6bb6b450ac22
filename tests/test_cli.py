import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from spectree import cli, closedform, families
from spectree.cli import main
from spectree.families import enumerate_free_trees, line_graph, parse_family, tkst_tree
from spectree.graphs import save_graph
from spectree.spectra import ROUTE_TOL, a_beta_m, algebraic_connectivity, q_min
from spectree.verify import check_theorem_21

from _oracles import enumerate_output_oracle


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_spectrum_text(capsys):
    code, out, _ = _run(capsys, ["spectrum", "--family", "complete:3"])
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()]
    assert [float(r[0]) for r in rows] == pytest.approx([0.0, 3.0], abs=1e-9)
    assert [int(r[1]) for r in rows] == [1, 2]


def test_spectrum_json(capsys):
    code, out, _ = _run(capsys, ["spectrum", "--family", "path:3", "--format", "json"])
    assert code == 0
    d = json.loads(out)
    vals = [v for v, _ in d["pairs"]]
    assert vals == pytest.approx([0.0, 1.0, 3.0], abs=1e-9)


def test_spectrum_csv_and_q_matrix(capsys):
    code, out, _ = _run(
        capsys, ["spectrum", "--family", "complete:3", "--matrix", "q", "--m", "3", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "value,multiplicity"
    rows = [line.split(",") for line in lines[1:]]
    # Q_2(K_3) = A + 2D: eigenvalues 3, 3, 6
    assert [float(r[0]) for r in rows] == pytest.approx([3.0, 6.0], abs=1e-9)
    assert [int(r[1]) for r in rows] == [2, 1]


def test_spectrum_line_flag(capsys):
    # L(K_{1,4}) = K_4, Laplacian spectrum {0, 4^3}
    code, out, _ = _run(capsys, ["spectrum", "--family", "star:5", "--line"])
    assert code == 0
    second = out.strip().splitlines()[1].split()
    assert float(second[0]) == pytest.approx(4.0, abs=1e-9) and second[1] == "3"


def test_aconn(capsys):
    code, out, _ = _run(capsys, ["aconn", "--family", "path:3"])
    assert code == 0
    assert float(out.strip()) == pytest.approx(1.0, abs=1e-9)


def test_beta_example(capsys):
    code, out, _ = _run(capsys, ["beta", "--family", "tkst:1,2,2", "--m", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "2"
    assert lines[1].startswith("# (m-1)*a(L(X)) =")


def test_beta_json(capsys):
    code, out, _ = _run(capsys, ["beta", "--family", "tkst:1,2,2", "--m", "3", "--format", "json"])
    assert code == 0
    d = json.loads(out)
    assert d["m"] == 3
    assert d["value"] == pytest.approx(2.0, abs=1e-9)
    assert d["value"] == pytest.approx(min(d["scaled_aconn"], d["q_min"]), abs=1e-12)


def test_aconn_and_beta_bytes(capsys):
    # text prints each value at :.6g, csv prints its repr under a header
    val = algebraic_connectivity(line_graph(parse_family("book:3"))[0])
    assert _run(capsys, ["aconn", "--family", "book:3", "--line"]) == (0, f"{val:.6g}\n", "")
    assert _run(capsys, ["aconn", "--family", "book:3", "--line", "--format", "csv"]) == (0, f"value\n{val!r}\n", "")
    tree = tkst_tree(1, 2, 2)
    lg = line_graph(tree)[0]
    row = f"3,{a_beta_m(tree, 3)!r},{2 * algebraic_connectivity(lg)!r},{q_min(lg, 3)!r}"
    got = _run(capsys, ["beta", "--family", "tkst:1,2,2", "--m", "3", "--format", "csv"])
    assert got == (0, f"m,value,scaled_aconn,q_min\n{row}\n", "")


def test_closed_pipe_exits_quietly():
    # the reader takes 40 bytes and closes the pipe: no traceback, and the
    # status a shell reports for a filter killed by SIGPIPE
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cmd = [sys.executable, "-m", "spectree.cli", "enumerate", "--n", "16", "--format", "json"]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        head = proc.stdout.read(40)
        proc.stdout.close()
        err = proc.stderr.read()
        status = proc.wait()
    assert head.startswith(b'{"n": 16, "count": 19320, "trees": [')
    assert (status, err) == (141, b"")


def test_beta_rejects_non_tree(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["beta", "--family", "complete:4"])
    assert exc.value.code == 2


def test_beta_names_the_too_small_tree(capsys):
    # one vertex, and one edge: a_beta_m's check runs before the line graph
    for family in ("path:1", "path:2", "star:2"):
        code, out, err = _run(capsys, ["beta", "--family", family])
        assert (code, out, err) == (1, "", "error: a_beta_m needs a tree with >= 2 edges\n"), family


def test_bad_m_and_n_are_usage_errors(capsys):
    for argv in (
        ["spectrum", "--family", "path:3", "--matrix", "q", "--m", "1"],
        ["beta", "--family", "tkst:1,2,2", "--m", "1"],
        ["enumerate", "--n", "0"],
        ["verify", "thm-2.1", "--max-n", "2"],
        ["verify", "all", "--max-n", "2"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    err = capsys.readouterr().err
    assert "--m must be >= 2" in err and "--n must be >= 1" in err
    assert err.count("--max-n must be >= 3") == 2


def test_graph_source_required(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["aconn"])
    assert exc.value.code == 2
    path = tmp_path / "g.json"
    save_graph(tkst_tree(1, 2, 2), str(path))
    with pytest.raises(SystemExit) as exc:
        main(["aconn", "--family", "path:3", "--file", str(path)])
    assert exc.value.code == 2


def test_file_round_trip(capsys, tmp_path):
    path = tmp_path / "tree.json"
    save_graph(tkst_tree(1, 2, 2), str(path))
    code, out, _ = _run(capsys, ["beta", "--file", str(path), "--m", "2"])
    assert code == 0
    assert float(out.strip().splitlines()[0]) == pytest.approx(1.0, abs=1e-9)


def test_bad_file(capsys, tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(SystemExit) as exc:
        main(["aconn", "--file", str(missing)])
    assert exc.value.code == 2


@pytest.mark.parametrize("doc", ["[1, 2]", '{"n": 3, "edges": 5}', '{"n": "3", "edges": []}'])
def test_malformed_graph_file_is_usage_error(capsys, tmp_path, doc):
    path = tmp_path / "g.json"
    path.write_text(doc)
    with pytest.raises(SystemExit) as exc:
        main(["aconn", "--file", str(path)])
    assert exc.value.code == 2
    assert f"cannot load {path}: graph " in capsys.readouterr().err


def test_bad_family(capsys):
    for family, problem in (
        ("tkst:1", "tkst takes 3 parameter(s)"),
        ("windmill:3,x", "bad family descriptor 'windmill:3,x': parameters must be integers"),
        ("windmill:2.5,3", "bad family descriptor 'windmill:2.5,3': parameters must be integers"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(["aconn", "--family", family])
        assert exc.value.code == 2
        assert capsys.readouterr().err.rstrip().endswith(f"error: {problem}")


def test_unallocatable_graph_is_usage_error(capsys, tmp_path):
    # numpy refuses a 10^9 x 10^9 adjacency matrix at once, allocating nothing
    path = tmp_path / "g.json"
    path.write_text('{"n": 1000000000, "edges": []}')
    for argv, prefix in (
        (["aconn", "--file", str(path)], f"cannot load {path}: "),
        (["aconn", "--family", "complete:1000000000"], "error: "),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"{prefix}Unable to allocate" in err and "Traceback" not in err


def test_enumerate_text(capsys):
    code, out, _ = _run(capsys, ["enumerate", "--n", "5"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        edges = json.loads(line)
        assert len(edges) == 4


def test_enumerate_json_and_csv(capsys):
    code, out, _ = _run(capsys, ["enumerate", "--n", "7", "--format", "json"])
    assert code == 0
    d = json.loads(out)
    assert d["count"] == 11 and len(d["trees"]) == 11
    code, out, _ = _run(capsys, ["enumerate", "--n", "4", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,edges" and len(lines) == 3


# SHA-256 of `enumerate --n N --format json` stdout; a change to any kept
# representative, its edge order or the order of the trees changes it
_ENUMERATE_JSON_SHA256 = {
    10: "cbafd8933ebfa3c821708b3f4d2789bdc1f88cbfb7f986a7bec86b082a2b32bf",
    12: "678fa0e59f2c7d53ba90744d35239aa6bcd54f68658f255bcddfd71a48a89454",
    13: "f21885c707b6a845a0903b98351d0cbeb0c843e44c306df7f88ffa764bc8c618",
    14: "50b6c6384d97982b75fcc144be7db6f4ca84d8bf4b43b7460075f98ee8e0956d",
    15: "9f74c0a31f0bdee2884d73e3b5c10dd900f8380f08c924961945c503e96b1887",
}


@pytest.mark.parametrize("n", sorted(_ENUMERATE_JSON_SHA256))
def test_enumerate_json_golden(capsys, n):
    code, out, _ = _run(capsys, ["enumerate", "--n", str(n), "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _ENUMERATE_JSON_SHA256[n]


# the same for the other two formats at n = 10, which read the same edge
# lists as json, and at n = 1 and 2: no edge, and one
_ENUMERATE_CSV_TEXT_SHA256 = {
    "csv": {
        1: "d886239b3c08a6711f94a8c84405550e3c8dfaec7f8e7bb5c612ecdef4733d17",
        2: "a5877f5b7e670e4e0329896ebc53bc56efeba08b2b4ba69a557a8dcc379893f2",
        10: "26fe142f0fe4205779f2521abcfaf70721aca29fde574353ecdb715bd9a62a9b",
    },
    "text": {
        1: "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        2: "3fc9e4107a30c79a0b33dfa66d9aaf3fdda293a082ce23788361ecae28e82c53",
        10: "3ac87a6c34db8d34312022606b92365d694acd22785257f285fcb0f5401719eb",
    },
}


@pytest.mark.parametrize("fmt", sorted(_ENUMERATE_CSV_TEXT_SHA256))
def test_enumerate_csv_and_text_golden(capsys, fmt):
    for n, digest in _ENUMERATE_CSV_TEXT_SHA256[fmt].items():
        code, out, _ = _run(capsys, ["enumerate", "--n", str(n), "--format", fmt])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, n


def test_enumerate_writes_what_the_graph_path_wrote(capsys, monkeypatch):
    # enumerate writes from the generator's level rows, a chunk at a
    # time; the reference builds each tree's Graph and reads the edges back
    # from its adjacency
    default = families._TREE_CHUNK
    for n in range(1, 13):
        trees = enumerate_free_trees(n)
        for fmt in ("json", "csv", "text"):
            want = enumerate_output_oracle(trees, n, fmt)
            for chunk in (1, 7, default):
                monkeypatch.setattr(families, "_TREE_CHUNK", chunk)
                got = _run(capsys, ["enumerate", "--n", str(n), "--format", fmt])
                assert got == (0, want, ""), (n, fmt, chunk)


@pytest.mark.parametrize("reader", ["json", "csv", "text", "enumerate_free_trees", "check_theorem_21"])
@pytest.mark.parametrize("tree, vertex, level", [
    (0, 0, 1),   # a nonzero root level
    (17, 4, 0),  # a second root
    (5, 6, 3),   # a jump of 2: vertex 5 is at level 1
])
def test_enumerate_rejects_a_row_that_is_not_a_tree(capsys, monkeypatch, reader, tree, vertex, level):
    # enumerate in each format, enumerate_free_trees and the thm-2.1 sweep
    # read the level rows through one check, which stands in for is_tree
    # on each tree and raises before anything is written
    real = families._free_tree_levels

    def broken(n):
        levels = real(n)
        if n == 8:
            levels[tree, vertex] = level
        return levels

    monkeypatch.setattr(families, "_free_tree_levels", broken)
    problem = (
        f"tree {tree} on n = 8 vertices has level {level} at vertex {vertex}; a preorder level "
        "sequence has 0 at vertex 0 and 1 <= level <= previous level + 1 at each vertex v >= 1"
    )
    if reader in ("json", "csv", "text"):
        assert _run(capsys, ["enumerate", "--n", "8", "--format", reader]) == (1, "", f"error: {problem}\n")
    else:
        read = enumerate_free_trees if reader == "enumerate_free_trees" else check_theorem_21
        with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
            read(8)


def test_enumerate_writes_the_same_bytes_in_chunks(capsys, monkeypatch):
    # enumerate builds and writes at most one chunk of trees' edge lists
    # at once, and any chunk size writes the same bytes
    for fmt in ("json", "csv", "text"):
        argv = ["enumerate", "--n", "8", "--format", fmt]
        whole = _run(capsys, argv)
        for chunk in (1, 7, 23, 24):  # n = 8 has 23 trees
            monkeypatch.setattr(families, "_TREE_CHUNK", chunk)
            assert _run(capsys, argv) == whole, (fmt, chunk)
        monkeypatch.undo()


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_usage_error_leaves_the_shared_parser_as_it_was(capsys):
    # main parses every call with one parser; a call that fails in argparse
    # must not leave a value, or a missing default, for the next one
    argv = ["enumerate", "--n", "6"]
    before = _run(capsys, argv)
    for bad in (["enumerate", "--n", "6", "--format", "csv", "--bogus"], ["enumerate", "--format", "json"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert _run(capsys, argv) == before


def test_export_stdout_and_file(capsys, tmp_path):
    code, out, _ = _run(
        capsys,
        ["export", "--s-range", "2:3", "--t-range", "2:2", "--m-range", "2:3"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "s,t,m,a_beta"
    assert len(lines) == 1 + 2 * 1 * 2
    row = lines[1].split(",")
    assert row[:3] == ["2", "2", "2"]
    assert float(row[3]) == pytest.approx(1.0, abs=1e-9)  # double star hits m-1

    path = tmp_path / "sweep.csv"
    code, out, _ = _run(
        capsys,
        ["export", "--s-range", "2:2", "--t-range", "2:2", "--m-range", "2:2", "--out", str(path)],
    )
    assert code == 0 and out == ""
    assert path.read_text().strip().splitlines()[0] == "s,t,m,a_beta"


def test_export_bytes(capsys):
    # one a(L) solve per (s, t) writes the bits of a_beta_m at each m
    code, out, _ = _run(capsys, ["export", "--s-range", "1:4", "--t-range", "1:4", "--m-range", "2:5"])
    cells = itertools.product(range(1, 5), range(1, 5), range(2, 6))
    rows = "".join(f"{s},{t},{m},{a_beta_m(tkst_tree(1, s, t), m)!r}\n" for s, t, m in cells)
    assert code == 0 and out == "s,t,m,a_beta\n" + rows


def test_export_unwritable_out_is_usage_error(capsys, tmp_path):
    path = tmp_path / "missing" / "sweep.csv"
    with pytest.raises(SystemExit) as exc:
        main(["export", "--s-range", "1:1", "--t-range", "1:1", "--m-range", "2:2", "--out", str(path)])
    assert exc.value.code == 2
    assert f"cannot write {path}" in capsys.readouterr().err


def test_export_bad_range(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["export", "--s-range", "5:2", "--t-range", "1:1", "--m-range", "2:2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["export", "--s-range", "abc", "--t-range", "1:1", "--m-range", "2:2"])
    assert exc.value.code == 2


def test_verify_single_claim(capsys):
    code, out, _ = _run(capsys, ["verify", "thm-das"])
    assert code == 0
    assert out.strip().endswith("overall: PASS")


def test_verify_json(capsys):
    code, out, _ = _run(capsys, ["verify", "thm-2.1-cases", "--format", "json"])
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1 and reports[0]["ok"]


def test_verify_sweep_flags(capsys):
    code, out, _ = _run(capsys, ["verify", "thm-2.1", "--max-n", "8", "--m", "2"])
    assert code == 0
    assert out.strip().endswith("overall: PASS")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm-2.1", "--m", "1"])
    assert exc.value.code == 2


def test_aconn_book_line(capsys):
    code, out, _ = _run(capsys, ["aconn", "--family", "book:3", "--line"])
    assert code == 0
    assert float(out.strip()) == pytest.approx((7 - math.sqrt(17)) / 2, abs=1e-5)


def test_verify_fails_when_cor21_routes_disagree(capsys, monkeypatch):
    # flip the numeric integrality verdict: every (s, t, m) instance must
    # become a FAIL and the run must exit 1, not crash
    real = closedform.spectrum_is_integral
    monkeypatch.setattr(closedform, "spectrum_is_integral", lambda s: not real(s))
    code, out, _ = _run(capsys, ["verify", "cor-2.1", "--format", "json"])
    assert code == 1
    (report,) = json.loads(out)
    assert not report["ok"] and report["failed"] == 20
    fails = [i for i in report["instances"] if not i["passed"] and not i["informational"]]
    assert all("integrality" in i["descriptor"] and "disagree" in i["observed"] for i in fails)
    code, out, _ = _run(capsys, ["verify", "cor-2.1"])
    assert code == 1 and out.strip().endswith("overall: FAIL")


def test_verify_bad_claim(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm-9.9"])
    assert exc.value.code == 2


def test_table2(capsys):
    code, out, _ = _run(capsys, ["verify", "table-2"])
    assert code == 0
    assert out.startswith("claim table-2: PASS")
    # the verify claim is the one way to run it
    with pytest.raises(SystemExit) as exc:
        main(["table2"])
    assert exc.value.code == 2


def test_tolerance_is_not_settable(capsys, monkeypatch):
    # no flag sets the tolerance, and the environment is not read
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm-das", "--tol", "1e-6"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol 1e-6" in capsys.readouterr().err
    monkeypatch.setenv("SPECTREE_TOL", "1e-3")
    code, out, _ = _run(capsys, ["verify", "thm-das", "--format", "json"])
    assert code == 0
    assert [r["tolerance"] for r in json.loads(out)] == [ROUTE_TOL]
