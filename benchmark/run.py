"""Run one benchmark workload and print its metrics as one JSON line.

    python3 benchmark/run.py --workload echo-64 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src/``
and the battery references from ``tests/oracles.py``. ``--trace 0``
measures the end-to-end metrics for ``--seconds`` seconds. ``--trace 1``
runs a fixed number of rounds untraced and then the same number traced,
and prints the per-layer metrics and the tracing overhead. Raw figures
and reference-loop rates go on the line before the result, and a full
record of the run, with the traced spans, goes under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import refloop

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WATCHDOG_S = 170  # a run that hangs is killed before the 180-s limit


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def figures(slices, setups, slicer, tail: float, calibrated: bool) -> dict:
    """End-to-end figures, raw or calibrated, from the timed pieces of each
    slice and from the set-up times.

    Rates are medians over pieces. The p50 is taken over every operation.
    The tail percentile is taken within each slice and the median over
    slices is reported, so one disturbance of the host moves one slice,
    not the run.
    """
    scale = slicer.scale if calibrated else (lambda mark: 1.0)
    pieces = [p for pieces in slices for p in pieces]
    rates = [p.ops / p.seconds * scale(p.mark) for p in pieces]
    goodput = [p.payload / p.seconds * scale(p.mark) / 1e6 for p in pieces]
    per_slice = [sorted(ns / scale(p.mark) for p in pieces for ns in p.samples_ns) for pieces in slices]
    return {
        "ops_per_s": statistics.median(rates),
        "goodput_mb_per_s": statistics.median(goodput),
        "op_p50_us": percentile(sorted(ns for s in per_slice for ns in s), 0.50) / 1e3,
        "op_tail_us": statistics.median(percentile(s, tail) for s in per_slice) / 1e3,
        "setup_s": statistics.median(seconds / scale(mark) for seconds, mark in setups),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_slices(workload, slicer, more, tracer=None):
    """Whole slices while ``more(slices)``, each after a fresh set-up of the
    workload. Set-ups are timed one by one and spread over the whole run,
    so they see the same host as the slices."""
    slices, setups = [], []
    while more(slices):
        workload.close()
        workload.prepare()
        start = time.perf_counter()
        workload.setup(tracer)
        setups.append((time.perf_counter() - start, slicer.latest()))
        slices.append(workload.run_slice(slicer))
    return slices, setups


def measure(workload, slicer, seconds: float) -> dict:
    """End-to-end run: whole slices until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    slices, setups = run_slices(workload, slicer, lambda s: not s or time.perf_counter() < deadline)
    rss = peak_rss_mb()
    workload.check()
    raw = figures(slices, setups, slicer, workload.tail_quantile, calibrated=False)
    cal = figures(slices, setups, slicer, workload.tail_quantile, calibrated=True)
    return {
        "metrics": dict(cal, peak_rss_mb=rss),
        "raw": dict(raw, peak_rss_mb=rss),
        "calibrated": dict(cal, peak_rss_mb=rss),
        "slices": len(slices),
        "operations_timed": sum(p.ops for pieces in slices for p in pieces),
    }


def traced(workload, slicer) -> dict:
    """Fixed slices untraced, then the same number traced; per-layer metrics."""
    import tracer as tracing

    fixed = lambda s: len(s) < workload.slices_traced
    collections = [0]

    def on_gc(phase, info):
        if phase == "start":
            collections[0] += 1

    gc.collect()
    gc.callbacks.append(on_gc)
    try:
        plain, setups = run_slices(workload, slicer, fixed)
    finally:
        gc.callbacks.remove(on_gc)
    t = tracing.Tracer()
    with t.installed():
        with_spans, _ = run_slices(workload, slicer, fixed, t)
    workload.check()
    plain_ops = sum(p.ops for pieces in plain for p in pieces)
    base = figures(plain, setups, slicer, workload.tail_quantile, calibrated=True)["op_p50_us"]
    traced_p50 = figures(with_spans, setups, slicer, workload.tail_quantile, calibrated=True)["op_p50_us"]
    metrics = layer_metrics(t)
    metrics["gc.collections_per_1k_ops"] = 1000.0 * collections[0] / plain_ops
    metrics["trace.overhead_pct"] = 100.0 * (traced_p50 / base - 1.0)
    return {
        "metrics": metrics,
        "op_p50_us_untraced": base,
        "op_p50_us_traced": traced_p50,
        "absent": sorted(t.absent),
        "summary": t.summary(),
        "spans": t.spans,
    }


def layer_metrics(t) -> dict:
    """Per-layer figures from the spans; a layer the workload never calls reads 0."""
    summary = t.summary()

    def stat(name, key="calls"):
        return summary.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    def per_call(name, unit=1e3):
        return ratio(stat(name, "total_ns"), stat(name)) / unit

    seals, opens, reads = stat("channel.seal"), stat("channel.open"), stat("channel.read_record")
    open_ok = opens - stat("channel.open", "failed")
    # the initiator's handshake span holds the responder's, which runs
    # inside its first recv: outermost spans give both sides per set-up
    handshakes = [end - start for name, start, end, _self, _ok, depth in t.spans
                  if name == "channel.handshake" and depth == 0]
    m = {
        "idvv.next.us": per_call("idvv.next"),
        "idvv.fast_forward.us": per_call("idvv.fast_forward"),
        "idvv.fast_forward.steps_per_record": ratio(t.steps, opens),
        "idvv.derive_key.us": per_call("idvv.derive_key"),
        "idvv.derive_key.calls_per_record": ratio(stat("idvv.derive_key"), seals + opens),
        "idvv.clone.calls_per_record": ratio(stat("idvv.clone"), opens),
        "association.read_provision.us": per_call("association.read_provision"),
        "association.load.us": per_call("association.load"),
        "association.accept_seq.us": per_call("association.accept_seq"),
        "channel.handshake.us": ratio(sum(handshakes), len(handshakes)) / 1e3,
        "channel.seal.self_us": ratio(stat("channel.seal", "self_ns"), seals) / 1e3,
        "channel.encode.us": per_call("channel.encode"),
        "channel.open.self_us": ratio(
            stat("channel.open", "self_ns") - stat("channel.open", "failed_self_ns"), open_ok
        ) / 1e3,
        "channel.open.reject_us": ratio(stat("channel.open", "failed_ns"), stat("channel.open", "failed")) / 1e3,
        "channel.read_record.self_us": ratio(stat("channel.read_record", "self_ns"), reads) / 1e3,
        "crypto.hmac.us": per_call("crypto.hmac"),
        "crypto.aead.us": ratio(
            stat("crypto.aead", "total_ns") + stat("crypto.aead.setup", "total_ns"), stat("crypto.aead")
        ) / 1e3,
        "transport.recv.calls_per_record": ratio(stat("transport.recv"), reads),
        "transport.send.calls_per_record": ratio(stat("transport.send"), seals),
        "transport.recv.us": per_call("transport.recv"),
        "transport.send.us": per_call("transport.send"),
        "randomness.generate_stream.ms": per_call("randomness.generate_stream", 1e6),
    }
    for test in ("monobit", "block_frequency", "runs", "longest_run", "cusum", "approximate_entropy", "serial"):
        m[f"randomness.{test}.ms"] = per_call(f"randomness.{test}", 1e6)
    return m


def declared_units(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _watchdog(signum, frame):
    raise TimeoutError(f"run exceeded {WATCHDOG_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for need in (ROOT / "src" / "kiss" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not need.is_file():
            print(f"benchmark: {need.relative_to(ROOT)} not found; run from a full checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _watchdog)
    signal.alarm(WATCHDOG_S)
    rng = random.Random(args.seed)
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    try:
        workload = cls(rng, workdir)
        try:
            slicer = refloop.Slicer(cls.reference())
            if args.trace:
                result = traced(workload, slicer)
            else:
                result = measure(workload, slicer, args.seconds)
        finally:
            workload.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        signal.alarm(0)

    rates = sorted(slicer.rates)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "operation": workload.op,
        "reference": {
            "loop": slicer.reference.name,
            "nominal_per_s": slicer.reference.nominal,
            "median_per_s": statistics.median(rates),
            "p10_per_s": percentile(rates, 0.10),
            "p90_per_s": percentile(rates, 0.90),
        },
        "attempted": workload.attempted,
        "failed": workload.failed,
        "problems": workload.problems,
        "notes": workload.notes,
        "details": workload.details(),
    }
    record.update({k: v for k, v in result.items() if k not in ("spans", "summary")})
    dump = dict(record, summary=result.get("summary"), spans=result.get("spans"))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(dump))

    print(json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(result["metrics"]):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(result['metrics']))}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()}
    print(json.dumps({
        "correct": not workload.problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
