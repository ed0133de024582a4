"""End-to-end benchmark of the TEVoT system's user flows.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --quick     # one round, checks on

Workloads: train, campaign, serve_batch (see README.md).  With
``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` the layer
entry points are wrapped and it carries the per-layer metrics instead,
and the spans are written as Chrome trace-event JSON next to the run's
results under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
WORKLOAD_NAMES = ("train", "campaign", "serve_batch")
#: set-ups per run; ``setup_s`` is their median
SETUPS = 3


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_figures(spans, timed):
    """Per-layer figures over the timed region.

    Returns ``(table, shares)``: the first holds per-call figures in the
    layers' own units (a layer the workload never reaches is absent);
    the second holds each layer's share of the summed op wall time, in
    percent, plus counts and rates — the form in which every workload
    reports every layer.  Model loads happen while a server sets up, so
    they are counted from the first set-up to the end of the timed
    region (the output checks load models too)."""
    from harness import quantile

    loads = [s for s in spans
             if s.name == "loads_model" and s.start < timed.t1]
    spans = [s for s in spans if timed.t0 <= s.start < timed.t1]
    op_s = sum(op.seconds for op in timed.ops)
    n_ops = len(timed.ops)
    by: Dict[str, list] = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def group(*names):
        return [s for n in names for s in by.get(n, [])]

    def total(*names) -> float:
        return sum(s.dur for s in group(*names))

    def mean_s(*names) -> float:
        return _mean([s.dur for s in group(*names)])

    def per_call(*names) -> float:
        """Milliseconds of ``names`` per ``ServeClient`` call."""
        return 1e3 * total(*names) / (len(group("ServeClient.predict_many"))
                                      or 1)

    def counted(key: str, *names) -> float:
        return sum(s.counts.get(key, 0) for s in group(*names))

    fits = sorted(group("TEVoT.fit"), key=lambda s: s.start)
    runs = group("CampaignRunner.run")
    sim_s = counted("sim_s", "CampaignRunner.run")
    # worker seconds a multi-worker pool sat idle during its batches
    idle_s = sum(s.counts["workers"] * s.counts["wall_s"] - s.counts["sim_s"]
                 for s in runs
                 if s.counts.get("misses") and s.counts["workers"] > 1)
    engine = ("PredictionEngine.predict_batch",)
    publish = ("ModelRegistry.publish", "RemoteModelRegistry.publish")
    calls = group("ServeClient.predict_many")
    engine_calls = group(*engine)
    # name -> (value, unit, the spans it is measured from)
    figures = {
        "api.train_s": (mean_s("Workspace.train"), "s",
                        group("Workspace.train")),
        "api.characterize_s": (mean_s("Workspace.characterize"), "s",
                               group("Workspace.characterize")),
        "ml.fit_s": (mean_s("TEVoT.fit"), "s", fits),
        "ml.fit_rows_per_s": (counted("rows", "TEVoT.fit")
                              / (total("TEVoT.fit") or 1), "1/s", fits),
        "ml.tree_nodes": (fits[0].counts["tree_nodes"] if fits else 0,
                          "count", fits),
        "core.features_s": (mean_s("build_training_set"), "s",
                            group("build_training_set")),
        "core.model_load_ms": (1e3 * _mean([s.dur for s in loads]), "ms",
                               loads),
        "core.artifact_bytes": (_mean([s.counts["bytes"] for s in loads]),
                                "B", loads),
        "sim.kernel_s": (sim_s / (len(runs) or 1), "s", runs),
        "sim.corner_cycles_per_s": (counted("corner_cycles",
                                            "CampaignRunner.run")
                                    / (sim_s or 1), "1/s", runs),
        "flow.campaign_s": (mean_s("CampaignRunner.run"), "s", runs),
        "flow.pool_idle_s": (idle_s / (len(runs) or 1), "s", runs),
        "flow.shards": (counted("shards", "CampaignRunner.run")
                        / (len(runs) or 1), "count", runs),
        "flow.store_put_s": (mean_s("TraceStore.put"), "s",
                             group("TraceStore.put")),
        "flow.store_put_bytes": (_mean([s.counts["bytes"] for s in
                                        group("TraceStore.put")]), "B",
                                 group("TraceStore.put")),
        # per client call: one call's body may run as several engine
        # batches
        "serve.client_call_ms": (per_call("ServeClient.predict_many"), "ms",
                                 calls),
        "serve.submit_ms": (per_call("MicroBatcher.submit_many"), "ms",
                            calls),
        "serve.engine_ms": (per_call(*engine), "ms", calls),
        "serve.wire_ms": (per_call("ServeClient.predict_many")
                          - per_call("MicroBatcher.submit_many"), "ms",
                          calls),
        "serve.batch_wait_ms": (per_call("MicroBatcher.submit_many")
                                - per_call(*engine), "ms", calls),
        "serve.mean_batch": (counted("requests", *engine)
                             / (len(engine_calls) or 1), "count", calls),
        "serve.engine_batches": (len(engine_calls) / (len(calls) or 1),
                                 "count", calls),
        "serve.registry_publish_ms": (1e3 * mean_s(*publish), "ms",
                                      group(*publish)),
        "remote.get_ms": (1e3 * mean_s("RemoteTraceStore.get"), "ms",
                          group("RemoteTraceStore.get")),
        "remote.put_ms": (1e3 * mean_s("RemoteTraceStore.put"), "ms",
                          group("RemoteTraceStore.put")),
        "remote.resolve_ms": (1e3 * mean_s("RemoteModelRegistry.resolve"),
                              "ms", group("RemoteModelRegistry.resolve")),
        "remote.bytes_in": (counted("bytes_in", "remote.request_bytes")
                            / n_ops, "B", group("remote.request_bytes")),
        "remote.bytes_out": (counted("bytes_out", "remote.request_bytes")
                             / n_ops, "B", group("remote.request_bytes")),
    }
    table = {k: (v, u) for k, (v, u, source) in figures.items() if source}

    def same(key: str):
        return figures[key][:2]

    def share(seconds: float) -> float:
        return 100.0 * seconds / op_s

    shares = {
        "trace.op_p50_ms": (1e3 * quantile([op.seconds for op in timed.ops],
                                           0.5), "ms"),
        "trace.spans_per_op": (len(spans) / n_ops, "count"),
        "ml.fit_share": (share(total("TEVoT.fit")), "%"),
        "ml.predict_share": (share(total("TEVoT.predict_delay")), "%"),
        "ml.fit_rows_per_s": same("ml.fit_rows_per_s"),
        "ml.tree_nodes": same("ml.tree_nodes"),
        "core.features_share": (share(total("build_training_set")), "%"),
        "core.model_load_ms": same("core.model_load_ms"),
        "core.artifact_bytes": same("core.artifact_bytes"),
        "sim.kernel_share": (share(sim_s), "%"),
        "sim.corner_cycles_per_s": same("sim.corner_cycles_per_s"),
        "flow.campaign_share": (share(total("CampaignRunner.run")), "%"),
        "flow.pool_idle_share": (share(idle_s), "%"),
        "flow.shards": same("flow.shards"),
        "flow.store_put_share": (share(total("TraceStore.put")), "%"),
        "flow.store_put_bytes": same("flow.store_put_bytes"),
        "serve.wire_share": (share(total("ServeClient.predict_many")
                                   - total("MicroBatcher.submit_many")), "%"),
        "serve.batch_wait_share": (share(total("MicroBatcher.submit_many")
                                         - total(*engine)), "%"),
        "serve.engine_share": (share(total(*engine)), "%"),
        "serve.mean_batch": same("serve.mean_batch"),
        "serve.engine_batches": same("serve.engine_batches"),
        "serve.registry_publish_share": (share(total(*publish)), "%"),
        "remote.get_share": (share(total("RemoteTraceStore.get")), "%"),
        "remote.put_share": (share(total("RemoteTraceStore.put")), "%"),
        "remote.bytes_in": same("remote.bytes_in"),
        "remote.bytes_out": same("remote.bytes_out"),
    }
    return table, shares


def execute(name: str, seed: int, seconds: float, trace: bool,
            quick: bool) -> Dict:
    from multiprocessing import resource_tracker

    import harness
    import tracing

    rundir = harness.RunDir(name)
    try:
        tracer = tracing.install(tracing.Tracer()) if trace else None
        import workloads

        shm_before = harness.shm_segments()
        wl = workloads.WORKLOADS[name](seed, rundir, trace=trace)
        try:
            wl.prepare()
            setups = []
            for i in range(1 if quick else SETUPS):
                if i:
                    wl.teardown()
                start = time.perf_counter()
                wl.setup()
                setups.append(time.perf_counter() - start)
            timed = harness.closed_loop(wl.clients(), 0 if quick else seconds)
            rss_mb = harness.peak_rss_mb()
            check_failures, extra = wl.check(timed)
        finally:
            wl.teardown()
        # the pool starts the interpreter's shared-memory resource
        # tracker; stop it and wait for it like every other process
        resource_tracker._resource_tracker._stop()
        leaks = []
        left = harness.descendants(os.getpid())
        if left:
            leaks.append(f"processes still running: {left}")
        shm_left = harness.shm_segments() - shm_before
        if shm_left:
            leaks.append(f"/dev/shm segments left: {sorted(shm_left)}")

        ops = timed.ops
        failed = sum(1 for i, op in enumerate(ops)
                     if not op.ok or i in check_failures)
        secs = [op.seconds for op in ops]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (rss_mb, "MiB"),
            "op_p50_ms": (1e3 * harness.quantile(secs, 0.5), "ms"),
            "rate_per_s": (wl.work(timed) / timed.wall_s, "1/s"),
        }
        # too unsteady on a shared 2-vCPU host to gate on (see README)
        extra["op_p90_ms"] = 1e3 * harness.quantile(secs, 0.9)
        result = {
            "workload": name, "env": harness.environment(seed),
            "seconds": seconds, "quick": quick, "trace": trace,
            "setups_s": setups, "timed_wall_s": timed.wall_s,
            "work_unit": wl.work_unit, "op_ms": [1e3 * s for s in secs],
            "attempted": len(ops),
            "failed": failed,
            "op_errors": sorted({op.error for op in ops if not op.ok}),
            "check_failures": {str(i): m for i, m in
                               sorted(check_failures.items())[:10]},
            "leaks": leaks, "extra": extra,
            "correct": not check_failures and not leaks,
            "metrics": metrics,
        }
        if tracer is not None:
            spans = tracer.spans + [tracing.Span.from_dict(d)
                                    for d in wl.server_spans]
            window = [s for s in spans if timed.t0 <= s.start < timed.t1]
            table, shares = layer_figures(spans, timed)
            result.update(per_layer=shares, layer_figures=table,
                          layer_table=tracing.layer_table(window))
            out = harness.WORK_DIR / "results"
            out.mkdir(parents=True, exist_ok=True)
            (out / f"{name}-seed{seed}-chrome.json").write_text(
                json.dumps(tracing.chrome_trace(spans)))
        return result
    finally:
        rundir.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one set-up and one round, all checks on")
    args = parser.parse_args(argv)

    if not (SRC_DIR / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH_DIR), str(SRC_DIR)]
    import harness
    import tracing

    result = execute(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.quick)
    out = harness.WORK_DIR / "results"
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(result, indent=1))

    env = result["env"]
    print(f"perfbench {args.workload} seed={args.seed} "
          f"nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} git={env['git_sha']} "
          f"src={env['src_sha256']}")
    print(f"  ops attempted={result['attempted']} failed={result['failed']} "
          f"setups_s={[round(s, 3) for s in result['setups_s']]} "
          f"correct={result['correct']}")
    for key, value in result["extra"].items():
        print(f"  {key} = {value:.4f}")
    for problem in (result["op_errors"] + list(
            result["check_failures"].values()) + result["leaks"]):
        print(f"  ! {problem}")
    if args.trace:
        print(tracing.format_layer_table(result["layer_table"]))
        for key, (value, unit) in result["layer_figures"].items():
            print(f"  {key:28s} {value:14.4f} {unit}")
        report = result["per_layer"]
    else:
        report = result["metrics"]
        for key, (value, unit) in report.items():
            print(f"  {key:14s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in report.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
