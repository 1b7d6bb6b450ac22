"""Run one workload of the spectree benchmark and print its metrics.

    python3 bench/run.py --workload verify-all --seed 1 --seconds 36 --trace 0

Run from the repository root; the program is imported from ./src. The
workload runs in passes until about --seconds have gone. Each pass runs in
a fresh single-threaded interpreter, one after another, so nothing a pass
leaves in memory makes a later pass cheaper; its outputs are checked here,
outside the timed region. Every pass gets the same inputs, made from the
seed. A pass is a sequence of units (a claim, an n, a product-mix slot),
and each unit's time is its median over the run's untraced passes. With --trace 0 the last stdout line holds the end-to-end
metrics; with --trace 1 passes alternate between untraced and traced
(every public spectree function wrapped), and the last line holds the
per-layer metrics. The full result, and in traced runs the raw spans of the
first traced pass, go to bench/out/. README.md defines every metric.
"""

from __future__ import annotations

import os

# One BLAS thread: the benchmark measures a single-threaded process. Must be
# set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gzip
import json
import math
import pickle
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import machine
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
SETUP_PROBES = 7
MIN_PASSES = 2
PASS_TIMEOUT_S = 150
HD_GRID = 200_000  # points of the grid the Harrell-Davis weights are integrated on


def _import_program():
    """Import spectree from this checkout's src/, never from elsewhere."""
    init = SRC / "spectree" / "__init__.py"
    if not init.is_file():
        sys.exit(f"bench: {init} not found; run from a spectree checkout")
    sys.path.insert(0, str(SRC))
    import spectree

    if Path(spectree.__file__).resolve() != init.resolve():
        sys.exit(f"bench: imported spectree from {spectree.__file__}, not {init}")


def _probe(workload: str, seed: int) -> None:
    """Body of a set-up probe: import, make the inputs, report ready."""
    _import_program()
    import workloads

    workloads.WORKLOADS[workload](seed).inputs()
    print("ready", flush=True)


def measure_setup(workload: str, seed: int, probes: int = SETUP_PROBES) -> list[float]:
    """Seconds from starting a fresh interpreter to its first timed call,
    once per probe; probes run one after another."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--probe", "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(probes):
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        t1 = perf_counter()
        _, err = proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
        times.append(t1 - t0)
    return times


def hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of the sorted
    values weighted by a Beta((n+1)q, (n+1)(1-q)) distribution over their
    ranks. It draws on every value near the quantile instead of one order
    statistic, so one slow sample moves it less. Any infinite value (a
    failed item) makes it infinite."""
    x = np.sort(np.asarray(values, dtype=np.float64))
    if np.isinf(x).any():
        return math.inf
    n = len(x)
    if n == 1:
        return float(x[0])
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    grid = np.linspace(0.0, 1.0, HD_GRID + 1)[1:-1]
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    cdf = np.cumsum(np.exp(log_pdf - log_pdf.max()))
    cdf = np.concatenate(([0.0], cdf / cdf[-1], [1.0]))
    grid = np.concatenate(([0.0], grid, [1.0]))
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(weights @ x)


def _pass_body(workload: str, seed: int, traced: bool, keep_spans: bool, dump: str) -> None:
    """Body of a pass interpreter: make the inputs, run them once, and
    pickle the unit records (plus spans in traced passes) to `dump`."""
    _import_program()
    import workloads

    wl = workloads.WORKLOADS[workload](seed)
    inputs = wl.inputs()
    tracer = spans.Tracer(wrap=traced)
    with tracer:
        t0 = perf_counter()
        outputs = wl.run(inputs, tracer)
        wall = perf_counter() - t0
    record = {
        "wall": wall,
        "outputs": outputs,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layer": spans.layer_metrics(tracer.spans, wall) if traced else None,
        "spans": tracer.spans if keep_spans else None,
    }
    with open(dump, "wb") as fh:
        pickle.dump(record, fh)


def run_one_pass(workload: str, seed: int, traced: bool, keep_spans: bool) -> dict:
    """Run one pass in a fresh interpreter and return its record."""
    fd, dump = tempfile.mkstemp(prefix="pass-", suffix=".pkl", dir=OUT)
    os.close(fd)
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--pass", "--dump", dump]
    cmd += ["--trace", "1"] if traced else []
    cmd += ["--keep-spans"] if keep_spans else []
    try:
        # run() kills and reaps the child if it times out
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=PASS_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"pass exited with {proc.returncode}")
        with open(dump, "rb") as fh:
            return pickle.load(fh)
    finally:
        os.unlink(dump)


def run_passes(wl, seconds: float, trace: bool):
    """Passes while another one fits in `seconds`, and at least MIN_PASSES.
    With trace, passes alternate untraced and traced, starting untraced, so
    the overhead compares passes made close together."""
    passes, layer, raw = [], [], None
    durations = []
    start = perf_counter()
    inputs = wl.inputs()
    while True:
        t_pass = perf_counter()
        traced = trace and len(passes) % 2 == 1
        rec = run_one_pass(wl.name, wl.seed, traced, keep_spans=traced and raw is None)
        attempted, failed, summary = wl.check(inputs, rec["outputs"])
        passes.append({"wall": rec["wall"], "attempted": attempted, "failed": failed, "traced": traced,
                       "rss_mb": rec["rss_mb"], "units": [o[:3] for o in rec["outputs"]],
                       "unit_items": summary["units"]})
        if traced:
            m = rec["layer"]
            m["verify.instances"] = summary.get("instances", 0)
            m["verify.worst_margin"] = summary.get("worst_margin", 0.0)
            layer.append(m)
            if raw is None:
                raw = rec["spans"]
        durations.append(perf_counter() - t_pass)
        elapsed = perf_counter() - start
        if len(passes) >= MIN_PASSES and not (trace and not layer) and elapsed + statistics.median(durations) > seconds:
            return passes, layer, raw


def unit_medians(passes) -> dict:
    """key -> (median wall_s, median cpu_s, items, ok) over the passes; a
    unit that failed on any pass is not ok."""
    samples = {}
    for p in passes:
        for key, wall, cpu in p["units"]:
            items, ok = p["unit_items"].get(key, (0, False))
            s = samples.setdefault(key, ([], [], [], []))
            for dst, v in zip(s, (wall, cpu, items, ok)):
                dst.append(v)
    return {k: (statistics.median(w), statistics.median(c), max(n), all(ok))
            for k, (w, c, n, ok) in samples.items()}


def end_to_end(passes, setup_times) -> dict:
    plain = [p for p in passes if not p["traced"]]
    units = unit_medians(plain)
    wall = sum(w for w, _c, _n, _ok in units.values())
    # every item of a unit is delivered when the unit's call returns; a
    # failed item counts as infinitely slow
    lat = [w if ok else math.inf for w, _c, n, ok in units.values() for _ in range(n)]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "cpu_s": sum(c for _w, c, _n, _ok in units.values()),
        "items_per_s": statistics.median(p["attempted"] for p in plain) / wall,
        "item_p50_ms": min(hd_quantile(lat, 0.5) * 1e3, sys.float_info.max),
        "item_p90_ms": min(hd_quantile(lat, 0.9) * 1e3, sys.float_info.max),
        "peak_rss_mb": max(p["rss_mb"] for p in plain),
        "ok_frac": (attempted - failed) / attempted,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("verify-all", "product-mix", "tree-enum"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--pass", dest="one_pass", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--dump", help=argparse.SUPPRESS)
    ap.add_argument("--keep-spans", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.probe:
        _probe(args.workload, args.seed)
        return 0
    if args.one_pass:
        _pass_body(args.workload, args.seed, bool(args.trace), args.keep_spans, args.dump)
        return 0

    load_start = os.getloadavg()
    _import_program()
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    setup_times = measure_setup(args.workload, args.seed)
    ref_s = machine.reference_seconds()
    passes, layer, raw = run_passes(wl, args.seconds, bool(args.trace))

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    e2e = end_to_end(passes, setup_times)
    if args.trace:
        metrics = spans.median_metrics(layer)
        traced_wall = statistics.median(p["wall"] for p in passes if p["traced"])
        plain_wall = statistics.median(p["wall"] for p in passes if not p["traced"])
        metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
        metrics["machine.ref_s"] = ref_s
        units = spans.PER_LAYER
    else:
        metrics, units = e2e, END_TO_END
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {**machine.facts(), "ref_s": ref_s, "loadavg_start": load_start,
                    "loadavg_end": os.getloadavg()},
        "passes": [{k: v for k, v in p.items() if k != "unit_items"} for p in passes],
        "units": {str(k): v[:2] for k, v in unit_medians([p for p in passes if not p["traced"]]).items()},
        "setup_probes_s": setup_times,
        "end_to_end": e2e,
        "per_layer": metrics if args.trace else None,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if raw is not None:
        with gzip.open(OUT / f"{stem}-spans.json.gz", "wt") as fh:
            json.dump({"fields": ["parent", "name", "start", "end", "item", "attrs"], "spans": raw}, fh)

    print(json.dumps({"info": {k: record[k] for k in ("machine", "setup_probes_s")}
                      | {"passes": len(passes)}}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
