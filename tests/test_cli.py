import hashlib
import json
import math

import pytest

from spectree import closedform
from spectree.cli import main
from spectree.families import tkst_tree
from spectree.graphs import save_graph


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


def test_beta_rejects_non_tree(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["beta", "--family", "complete:4"])
    assert exc.value.code == 2


def test_bad_m_and_n_are_usage_errors(capsys):
    for argv in (
        ["spectrum", "--family", "path:3", "--matrix", "q", "--m", "1"],
        ["beta", "--family", "tkst:1,2,2", "--m", "1"],
        ["enumerate", "--n", "0"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    err = capsys.readouterr().err
    assert "--m must be >= 2" in err and "--n must be >= 1" in err


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


def test_bad_family(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["aconn", "--family", "tkst:1"])
    assert exc.value.code == 2


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
    10: "8f859f8b543b4fe87f6b6b2a7da8ec65ac49ea44178b8bc985c4116aea90c203",
    12: "82a3908720cf42723d33b1b6856af068416376ac4e99e13065eeca9a46d47827",
    13: "5ec403a84e87ddbd087c0285b9632ae280254ba6b59a6abfd92da0505d25e283",
}


@pytest.mark.parametrize("n", sorted(_ENUMERATE_JSON_SHA256))
def test_enumerate_json_golden(capsys, n):
    code, out, _ = _run(capsys, ["enumerate", "--n", str(n), "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _ENUMERATE_JSON_SHA256[n]


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
    code, out, _ = _run(capsys, ["table2"])
    assert code == 0
    assert out.startswith("claim table-2: PASS")


def test_tol_flag(capsys, monkeypatch):
    # the flag is the only way to set the tolerance; the environment is not read
    monkeypatch.setenv("SPECTREE_TOL", "1e-3")
    code, out, _ = _run(capsys, ["verify", "thm-das", "--tol", "1e-6", "--format", "json"])
    assert code == 0
    assert [r["tolerance"] for r in json.loads(out)] == [1e-6]
    for bad in ("0", "-1", "nan", "inf", "-inf", "abc"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "thm-das", "--tol", bad])
        assert exc.value.code == 2
    assert "--tol must be finite and > 0" in capsys.readouterr().err
