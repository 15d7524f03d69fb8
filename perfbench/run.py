"""Layered benchmark for kgcert.

    python3 perfbench/run.py --workload acceptance --seed 1 --seconds 5 --trace 0

Workloads (each one closed-loop client, one operation at a time):

* ``acceptance``: ``certify`` for the six acceptance triples at [-8,8]^2,
  depth 8, one fresh worker process per certificate;
* ``wide``: ``certify`` for (1,2,0) at [-10,10]^2 and (2,2,1) at
  [-20,20]^2, depth 8, one fresh worker each;
* ``queries``: 12000 seeded calculator queries in one process
  (see ``queries.py``).

A run first measures the CPU time of ``import kgcert`` in several fresh
interpreters (``setup_s`` is their median), then repeats whole passes over
the workload's operations until ``--seconds`` have elapsed, at least one
pass.  Operation times are in reference seconds (see ``speed.py``).  Only
``queries`` depends on ``--seed``; the certificate inputs are fixed.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics.  With ``--trace 1`` the run makes one untraced pass and
one traced pass (wrappers from ``tracer.py``) and reports the per-layer
metrics instead; ``trace.overhead`` is the ratio of their wall times.  Each
certificate's SHA-256 is printed before the last line, so certificate
bytes can be diffed across commits.

``--workload all`` runs every workload and prints each metric prefixed by
its workload.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import queries
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEPTH = 8
CERTIFY_INPUTS = {
    "acceptance": [
        ((1, 2, 0), 8),
        ((2, 3, 0), 8),
        ((1, 3, 2), 8),
        ((1, 1, 0), 8),
        ((2, 2, 0), 8),
        ((2, 2, 1), 8),
    ],
    "wide": [((1, 2, 0), 10), ((2, 2, 1), 20)],
}
WORKLOADS = ("acceptance", "wide", "queries")
SETUP_PROBES = 7
# A run must end within 180 s; workers are killed when this deadline passes.
DEADLINE_S = 170.0
# The tail is the 99th percentile when at least ten samples lie beyond it,
# otherwise the slowest operation.
TAIL_MIN_SAMPLES = 1000

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class Run:
    """The deadline shared by the worker processes of one workload run."""

    def __init__(self):
        self.deadline = time.monotonic() + DEADLINE_S

    def worker(self, job: dict):
        """Run one worker job; None when the worker failed or ran out of time."""
        job = {"src": str(SRC), **job}
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py")],
                input=json.dumps(job),
                capture_output=True,
                text=True,
                cwd=ROOT,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            print(f"worker timed out: {job}", file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"worker failed: {job}\n{proc.stderr}", file=sys.stderr)
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])


def certificate_ok(triple, result) -> bool:
    """The certificate gate: verdict pass, and kg 2 when r < n, 1 when r == n."""
    r, n, _ = triple
    return (
        result is not None
        and result["verdict"] == "pass"
        and result["kg"] == (2 if r < n else 1)
    )


def tail(samples):
    if len(samples) >= TAIL_MIN_SAMPLES:
        return statistics.quantiles(samples, n=100)[98]
    return max(samples)


def setup_seconds(run: Run) -> float:
    """Median CPU time of ``import kgcert`` over SETUP_PROBES fresh
    interpreters.  CPU time, not wall time: numpy starts its BLAS threads on
    import, and whether they run beside the main thread or after it swings
    the wall time between 0.12 and 0.21 s here, while the CPU time holds."""
    probes = [run.worker({"op": "import"}) for _ in range(SETUP_PROBES)]
    if None in probes:
        raise SystemExit("cannot import kgcert in a worker")
    return statistics.median(p["import_s"] for p in probes)


def certify_pass(run: Run, inputs, trace: bool) -> list:
    return [
        run.worker(
            {"op": "certify", "triple": list(t), "half": h, "depth": DEPTH, "trace": trace}
        )
        for t, h in inputs
    ]


def tally_certificates(inputs, passes) -> tuple:
    """(attempted, failed, digests) over passes of worker results.  An
    operation fails the gate, or returns other bytes than the first pass."""
    attempted = failed = 0
    digests = {}
    for results in passes:
        for (triple, h), res in zip(inputs, results):
            attempted += 1
            ok = certificate_ok(triple, res)
            if ok:
                first = digests.setdefault((triple, h), res["sha256"])
                ok = res["sha256"] == first
            failed += not ok
    return attempted, failed, digests


def run_certify(run: Run, workload: str, seconds: float, trace: bool) -> dict:
    inputs = CERTIFY_INPUTS[workload]
    setup_s = setup_seconds(run)
    passes = []
    start = time.perf_counter()
    while not passes or (not trace and time.perf_counter() - start < seconds):
        passes.append(certify_pass(run, inputs, trace=False))
    if trace:
        passes.append(certify_pass(run, inputs, trace=True))
    attempted, failed, digests = tally_certificates(inputs, passes)
    for (triple, h), digest in digests.items():
        print(f"sha256 {workload} triple={triple} window=[-{h},{h}]^2 depth={DEPTH} {digest}")
    out = {"attempted": attempted, "failed": failed}
    if failed:
        return out
    for p in passes:
        print(f"raw wall_s {sum(r['raw_certify_s'] for r in p):.6f}")
    if trace:
        untraced = sum(r["certify_s"] for r in passes[0])
        traced = sum(r["certify_s"] for r in passes[-1])
        totals = tracing.merge(r["trace"] for r in passes[-1])
        out["metrics"] = tracing.per_layer_metrics(totals, traced / untraced)
        return out
    per_input = [
        statistics.median(p[i]["certify_s"] for p in passes) for i in range(len(inputs))
    ]
    wall = sum(per_input)
    out["metrics"] = {
        "setup_s": setup_s,
        "wall_s": wall,
        "ops_per_s": len(inputs) / wall,
        "op_p50_ms": statistics.median(per_input) * 1e3,
        "op_tail_ms": tail(per_input) * 1e3,
        "peak_rss_mb": max(r["maxrss_kb"] for p in passes for r in p) / 1024,
    }
    return out


def run_queries(run: Run, seed: int, seconds: float, trace: bool) -> dict:
    setup_s = setup_seconds(run)
    sys.path.insert(0, str(SRC))
    import kgcert

    stream = queries.generate(kgcert, seed)
    lat_passes, raw_passes, failed = [], [], 0

    def one_pass():
        nonlocal failed
        lat, raw, bad = queries.run_pass(kgcert.functors, stream)
        print(f"raw wall_s {raw:.6f}")
        lat_passes.append(lat)
        raw_passes.append(raw)
        failed += bad

    start = time.perf_counter()
    while not lat_passes or (not trace and time.perf_counter() - start < seconds):
        one_pass()
    if trace:
        tracer = tracing.Tracer()
        tracer.install(kgcert)
        try:
            one_pass()
        finally:
            tracer.restore()
    out = {"attempted": sum(map(len, lat_passes)), "failed": failed}
    if failed:
        return out
    if trace:
        untraced, traced = sum(lat_passes[0]), sum(lat_passes[-1])
        # Scale the traced pass's self times to reference seconds, like its latencies.
        snapshot = tracer.snapshot(time_scale=traced / raw_passes[-1])
        out["metrics"] = tracing.per_layer_metrics(tracing.merge([snapshot]), traced / untraced)
        return out
    samples = [x for lat in lat_passes for x in lat]
    wall = statistics.median(sum(lat) for lat in lat_passes)
    out["metrics"] = {
        "setup_s": setup_s,
        "wall_s": wall,
        "ops_per_s": len(samples) / sum(samples),
        "op_p50_ms": statistics.median(samples) * 1e3,
        "op_tail_ms": tail(samples) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run()
    if workload == "queries":
        out = run_queries(run, seed, seconds, trace)
    else:
        out = run_certify(run, workload, seconds, trace)
    units = dict(END_TO_END) if not trace else {n: u for n, u, _ in tracing.PER_LAYER}
    metrics = out.pop("metrics", {})
    return {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "kgcert" / "__init__.py").is_file():
        print(f"no kgcert sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for w, res in results.items():
        for name, m in res["metrics"].items():
            print(f"{w:<11} {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {
                    f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
