"""Tests of the benchmark itself: the tracer sees every eigensolve, changes
no output and leaves spectree as it found it; the oracles reject wrong
answers; the runner refuses to run without the program's sources.

    python3 -m pytest bench/tests -q

The verify-all tests run `verify all` twice (about 30 s at the commit that
added them).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import numpy as np  # noqa: E402
import spectree  # noqa: E402

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

EIGEN_SOLVES_VERIFY_ALL = 678


def _pass(wl, tracer):
    inputs = wl.inputs()
    with tracer:
        t0 = perf_counter()
        out = wl.run(inputs, tracer)
        wall = perf_counter() - t0
    return inputs, out, wall


@pytest.fixture(scope="module")
def verify_runs():
    wl = workloads.VerifyAll(seed=3)
    plain = _pass(wl, spans.Tracer(wrap=False))
    tracer = spans.Tracer()
    traced = _pass(wl, tracer)
    return wl, plain, traced, tracer.spans


def test_traced_verify_all_counts_every_eigensolve(verify_runs):
    _wl, _plain, (_, _, wall), recorded = verify_runs
    m = spans.layer_metrics(recorded, wall)
    assert m["eigen.values.calls"] + m["eigen.vectors.calls"] == EIGEN_SOLVES_VERIFY_ALL


def test_verify_all_output_identical_with_and_without_tracing(verify_runs):
    wl, (claims, plain_out, _), (_, traced_out, _), _ = verify_runs
    # records are (unit, wall_s, cpu_s, exit code, stdout)
    assert [(o[0],) + o[3:] for o in plain_out] == [(o[0],) + o[3:] for o in traced_out]
    attempted, failed, summary = wl.check(claims, plain_out)
    assert (attempted, failed) == (oracles.VERIFY_INSTANCES, 0)
    assert summary["instances"] == oracles.VERIFY_INSTANCES
    assert summary["units"] == {"all": (oracles.VERIFY_INSTANCES, True)}
    # the seed's claim order reaches the CLI
    assert list(dict.fromkeys(r["claim"] for r in json.loads(plain_out[0][4]))) == list(claims)


def test_self_times_sum_to_traced_wall(verify_runs):
    _wl, (_, _, plain_wall), (_, _, wall), recorded = verify_runs
    m = spans.layer_metrics(recorded, wall)
    self_sum = sum(m[f"{mod}.self_s"] for mod in spans.MODULES)
    overhead = max(wall / plain_wall - 1.0, 0.0)
    assert self_sum <= wall
    assert 1.0 - self_sum / wall <= overhead + 0.01


def test_tree_enum_runs_no_eigensolve():
    wl = workloads.TreeEnum(seed=1)
    tracer = spans.Tracer()
    ns, out, wall = _pass(wl, tracer)
    m = spans.layer_metrics(tracer.spans, wall)
    assert m["eigen.values.calls"] == m["eigen.vectors.calls"] == 0
    assert m["families.enum.trees"] == sum(oracles.A000055)
    assert wl.check(ns, out)[:2] == (sum(oracles.A000055), 0)


def test_tracer_restores_every_binding():
    before = {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "spectree" or name.startswith("spectree.")
        for attr, value in vars(mod).items()
        if callable(value)
    }
    with spans.Tracer() as tracer:
        assert hasattr(spectree.cli.eigenvalues, "__bench_wrapped__")
        assert hasattr(spectree.closedform.eigenvalues, "__bench_wrapped__")
        assert tracer._saved
    after = {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "spectree" or name.startswith("spectree.")
        for attr, value in vars(mod).items()
        if callable(value)
    }
    assert after == before
    assert not any(hasattr(v, "__bench_wrapped__") for v in after.values())


def test_inputs_depend_only_on_the_seed():
    def edges(seed):
        return [(it.slot, it.edges) for it in workloads.ProductMix(seed).inputs()]

    assert edges(5) == edges(5) != edges(6)
    assert workloads.TreeEnum(seed=2).inputs() == workloads.TreeEnum(seed=2).inputs()
    assert workloads.VerifyAll(seed=2).inputs() == workloads.VerifyAll(seed=2).inputs()


def test_pass_runs_in_a_fresh_interpreter_and_cleans_up():
    import run

    run.OUT.mkdir(exist_ok=True)
    before = set(run.OUT.iterdir())
    rec = run.run_one_pass("tree-enum", 1, traced=False, keep_spans=False)
    assert set(run.OUT.iterdir()) == before
    wl = workloads.TreeEnum(seed=1)
    attempted, failed, summary = wl.check(wl.inputs(), rec["outputs"])
    assert (attempted, failed) == (sum(oracles.A000055), 0)
    assert sorted(summary["units"]) == list(range(1, len(oracles.A000055) + 1))
    assert rec["layer"] is None and rec["spans"] is None and rec["rss_mb"] > 0


def test_end_to_end_takes_each_units_median_pass():
    import run

    def fake(times, ok=True, traced=False):
        return {"traced": traced, "attempted": 3, "failed": 0 if ok else 1, "rss_mb": 40.0,
                "units": [(k, t, t / 2) for k, t in times.items()],
                "unit_items": {"a": (1, True), "b": (2, ok)}}

    passes = [fake({"a": 1.0, "b": 4.0}), fake({"a": 3.0, "b": 2.0}), fake({"a": 0.1, "b": 0.1}, traced=True)]
    m = run.end_to_end(passes, [0.2, 0.3, 0.1])
    assert m["wall_s"] == 5.0 and m["cpu_s"] == 2.5 and m["items_per_s"] == 0.6
    # latencies: unit a's median for its one item, unit b's for its two
    assert m["item_p50_ms"] == run.hd_quantile([2.0, 3.0, 3.0], 0.5) * 1e3 and m["setup_s"] == 0.2
    m = run.end_to_end(passes[:1] + [fake({"a": 3.0, "b": 2.0}, ok=False)], [0.2])
    assert m["item_p50_ms"] == sys.float_info.max and m["ok_frac"] == 5 / 6


def test_product_mix_items_are_distinct_and_pass_the_oracle():
    wl = workloads.ProductMix(seed=5)
    first = wl.inputs()
    keys = [(it.n, frozenset(it.edges)) for it in first]
    assert len(set(keys)) == len(keys)
    slots = sorted((n * m, kind) for n, m, kind, _ in workloads.SLOTS)
    assert sorted((it.n * it.m, it.kind) for it in first) == slots
    assert sorted(it.slot for it in first) == list(range(len(workloads.SLOTS)))
    small = [it for it in first if it.n * it.m <= 24][:5]
    with spans.Tracer(wrap=False) as tracer:
        out = wl.run(small, tracer)
    assert wl.check(small, out)[:2] == (len(small), 0)


def test_product_mix_oracle_rejects_a_wrong_spectrum():
    adj = oracles.adjacency(4, [(0, 1), (1, 2), (2, 3)])
    ref = oracles.product_laplacian_spectrum(adj, 3)
    assert oracles.spectrum_matches(ref, ref)
    assert not oracles.spectrum_matches(ref + 1e-6, ref)
    assert not oracles.spectrum_matches(ref[1:], ref)


def test_enumeration_oracle_rejects_duplicates_and_non_trees():
    star, path = [(0, 1), (0, 2), (0, 3)], [(0, 1), (1, 2), (2, 3)]
    good = json.dumps({"n": 4, "count": 2, "trees": [star, path]})
    dup = json.dumps({"n": 4, "count": 2, "trees": [star, [(1, 0), (1, 2), (1, 3)]]})
    cyc = json.dumps({"n": 4, "count": 2, "trees": [star, [(0, 1), (1, 2), (2, 0)]]})
    assert oracles.check_enumeration(4, good) == (2, 0)
    assert oracles.check_enumeration(4, dup) == (2, 1)
    assert oracles.check_enumeration(4, cyc) == (2, 1)
    assert oracles.check_enumeration(4, json.dumps({"n": 4, "count": 1, "trees": [star]})) == (2, 2)


def test_verify_oracle_fails_a_dropped_check():
    inst = {"passed": True, "informational": False}
    report = {"ok": True, "tolerance": 1e-8, "worst_deviation": 0.0, "instances": [inst] * 379}
    assert oracles.check_verify(0, json.dumps([report]))[:2] == (380, 380)
    report["instances"].append(inst)
    assert oracles.check_verify(0, json.dumps([report]))[:2] == (380, 0)
    assert oracles.check_verify(1, json.dumps([report]))[:2] == (380, 380)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tree-enum", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_every_emitted_metric():
    import run

    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == spans.PER_LAYER
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)


def test_hd_quantile_weighs_the_values_near_the_quantile():
    import run

    values = list(range(1, 102))
    assert abs(run.hd_quantile(values, 0.5) - 51.0) < 0.01
    assert 89.0 < run.hd_quantile(values, 0.9) < 93.0
    assert run.hd_quantile([7.0], 0.9) == 7.0
    assert abs(run.hd_quantile([2.0] * 50, 0.9) - 2.0) < 1e-9
    assert run.hd_quantile([1.0, 2.0, float("inf")], 0.5) == float("inf")
