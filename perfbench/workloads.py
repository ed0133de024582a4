"""The three workloads: set-up, one round of timed operations, checks.

Each workload is a class with

* ``prepare()`` — untimed inputs outside ``setup_s`` (the models a
  server or store will be given);
* ``setup()`` / ``teardown()`` — everything from a cold start to the
  first timed operation, ending with one untimed warm-up operation;
* ``clients()`` — one callable per closed-loop client, returning the
  timed ops of one whole round;
* ``check(timed)`` — output checks against computations made apart
  from the timed path; returns ``{op index: failure message}`` and a
  dict of extra figures;
* ``work(timed)`` — the unit count behind ``rate_per_s``.

All inputs derive from the run's ``--seed`` through :func:`sub_seed`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.api import (CampaignSpec, CornerSpec, ShardSpec, SimSpec,
                       StreamSpec, TrainSpec, Workspace)
from repro.circuits.functional_units import PAPER_UNITS
from repro.core.features import build_feature_matrix, build_training_set
from repro.flow.tracestore import open_trace_store
from repro.serve import ModelRegistry, ServeClient, TransportError
from repro.serve.engine import PredictionEngine, PredictRequest
from repro.sim.engine import DEFAULT_BACKEND, get_backend
from repro.timing.sta import static_delay
from repro.workloads.streams import OperandStream, stream_for_unit

from harness import Op, ServerProcess, Timed

#: The 3 x 3 V/T grid every workload runs at.
CORNERS = CornerSpec(voltages=(0.81, 0.9, 1.0),
                     temperatures=(0.0, 50.0, 100.0))
DELAY_MODEL = get_backend(DEFAULT_BACKEND).delay_model


def sub_seed(seed: int, *tags) -> int:
    """A stream seed derived from the run seed and a purpose tag."""
    text = ":".join(str(t) for t in (seed,) + tags)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4],
                          "little") & 0x7FFFFFFF


def _timed(client: int, fn, *args, **kwargs) -> Op:
    """Run ``fn`` as one op.  An HTTP error status or a refused
    connection (``ServeError``, ``RemoteStoreError``) fails the op."""
    start = time.perf_counter()
    try:
        data = fn(*args, **kwargs)
    except TransportError as exc:
        return Op(client, start, time.perf_counter(), ok=False,
                  error=f"{type(exc).__name__}: {exc}")
    return Op(client, start, time.perf_counter(), data=data)


class Workload:
    name = ""
    #: unit of work counted by ``rate_per_s``
    work_unit = ""
    server: Optional[ServerProcess] = None
    ws: Optional[Workspace] = None

    def __init__(self, seed: int, rundir, trace: bool = False) -> None:
        self.seed = seed
        self.rundir = rundir
        self.trace = trace
        self.server_spans: List[Dict] = []

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        raise NotImplementedError

    def clients(self):
        raise NotImplementedError

    def check(self, timed: Timed) -> Tuple[Dict[int, str], Dict]:
        raise NotImplementedError

    def work(self, timed: Timed) -> float:
        raise NotImplementedError

    def _start_server(self, role: str, root: Path,
                      max_batch: Optional[int] = None) -> ServerProcess:
        trace_file = (self.rundir.fresh("spans") / "spans.json"
                      if self.trace else None)
        self.server = ServerProcess(role, root, max_batch=max_batch,
                                    trace_file=trace_file)
        return self.server

    def teardown(self) -> None:
        """Close the workspace (reaping its pool) and stop the server
        process; safe after a set-up that failed half way."""
        if self.ws is not None:
            self.ws.close()
            self.ws = None
        if self.server is not None:
            self.server.stop()
            self.server_spans = self.server.spans()
            self.server = None


# -- train --------------------------------------------------------------------


def _mae(pred: np.ndarray, truth: np.ndarray) -> float:
    return float(np.mean(np.abs(np.asarray(pred, dtype=np.float64)
                                - np.asarray(truth, dtype=np.float64))))


class Train(Workload):
    """Cold ``Workspace.train`` of ``fp_mul`` with publish, one op per
    round, a fresh stream seed per op."""

    name = "train"
    work_unit = "training rows"
    FU = "fp_mul"
    CYCLES = 445          # x 9 corners, capped to MAX_ROWS rows
    MAX_ROWS = 4000
    HELD_OUT_CYCLES = 400
    KEEP_MODELS = 3       # ops whose returned model the checks compare

    def _spec(self, stream_seed: int) -> TrainSpec:
        return TrainSpec(fu=self.FU,
                         stream=StreamSpec(cycles=self.CYCLES,
                                           seed=stream_seed),
                         corners=CORNERS, max_rows=self.MAX_ROWS,
                         publish=True)

    def setup(self) -> None:
        self.ws = Workspace(self.rundir.fresh("train"))
        self.ws.functional_unit(self.FU)
        self.ws.train(self._spec(sub_seed(self.seed, "train-warmup")))

    def clients(self):
        def round_(n: int) -> List[Op]:
            spec = self._spec(sub_seed(self.seed, "train", n))
            op = _timed(0, self.ws.train, spec)
            if n >= self.KEEP_MODELS:
                # a model is most of a result's memory; keeping every one
                # would make peak memory grow with the number of ops
                op.data = dataclasses.replace(op.data, model=None)
            return [op]
        return [round_]

    def work(self, timed: Timed) -> float:
        return float(sum(op.data.n_rows for op in timed.ops if op.ok))

    def check(self, timed: Timed):
        conditions = CORNERS.conditions()
        # gate-level truth on a held-out stream, in a workspace of its own
        with Workspace(self.rundir.fresh("heldout")) as ws:
            held = ws.simulate(CampaignSpec(
                fus=(self.FU,),
                stream=StreamSpec(cycles=self.HELD_OUT_CYCLES,
                                  seed=sub_seed(self.seed, "held-out")),
                corners=CORNERS))
        stream, truth = held.jobs[0].stream, held.traces[0].delays
        X = np.concatenate([build_feature_matrix(stream, c)
                            for c in conditions])
        y_true = truth.reshape(-1)
        registry = ModelRegistry(self.ws.root / "registry")
        failures, info = {}, {}
        for i, op in enumerate(timed.ops):
            res = op.data
            _, y_fit = build_training_set(res.stream, conditions,
                                          res.train_trace.delays,
                                          max_rows=self.MAX_ROWS)
            resolved, _ = registry.resolve(self.FU, key=res.record.key)
            from_registry = resolved.predict_delay(X)
            pred = (from_registry if res.model is None
                    else res.model.predict_delay(X))
            if pred.min() < y_fit.min() or pred.max() > y_fit.max():
                failures[i] = (f"held-out prediction outside the training "
                               f"label range [{y_fit.min()}, {y_fit.max()}]")
                continue
            if not np.array_equal(from_registry, pred):
                failures[i] = "registry artifact predicts differently"
                continue
            if i == 0:  # the first op's model: the same for every run length
                # per-corner constant predictor: mean training delay there
                const = np.repeat(res.train_trace.delays.mean(axis=1),
                                  self.HELD_OUT_CYCLES)
                info = {"delay_mae_ps": _mae(pred, y_true),
                        "constant_mae_ps": _mae(const, y_true)}
        return failures, info


# -- campaign -----------------------------------------------------------------


class Campaign(Workload):
    """Cold multi-FU ``Workspace.characterize`` on the 2-worker warm
    pool, with the trace store behind the store service in its own
    process; one op per round, fresh seed per op."""

    name = "campaign"
    work_unit = "corner-cycles"
    CYCLES = 2000
    WORKERS = 2
    REF_CYCLES = 8        # cycles per FU re-simulated on the reference
    REF_OPS = 6           # the first ops, which every run attempts

    def _spec(self, stream_seed: int) -> CampaignSpec:
        return CampaignSpec(fus=PAPER_UNITS,
                            stream=StreamSpec(cycles=self.CYCLES,
                                              seed=stream_seed),
                            corners=CORNERS,
                            shards=ShardSpec(workers=self.WORKERS))

    def setup(self) -> None:
        self.store_root = self.rundir.fresh("store")
        server = self._start_server("store", self.store_root)
        self.ws = Workspace(server.url)
        for fu in PAPER_UNITS:
            self.ws.functional_unit(fu)
        self.ws.pool(self.WORKERS)
        self.ws.characterize(self._spec(sub_seed(self.seed,
                                                 "campaign-warmup")))

    def clients(self):
        def round_(n: int) -> List[Op]:
            spec = self._spec(sub_seed(self.seed, "campaign", n))
            return [_timed(0, self.ws.characterize, spec)]
        return [round_]

    def work(self, timed: Timed) -> float:
        return float(sum(t.delays.size for op in timed.ops if op.ok
                         for t in op.data.traces))

    def check(self, timed: Timed):
        conditions = CORNERS.conditions()
        volts = sorted({c.voltage for c in conditions}, reverse=True)
        # the service's store read from its files, not over the wire
        store = open_trace_store(self.store_root / "traces")
        # the per-gate reference backend, called directly: no runner,
        # sharding, pool or store on this path
        reference = get_backend(SimSpec(backend="levelized",
                                        compiled=False).backend_name())
        sta = {fu: np.array([static_delay(self.ws.functional_unit(fu).netlist,
                                          c, self.ws.library)
                             for c in conditions])
               for fu in PAPER_UNITS}
        failures = {}
        for i, op in enumerate(timed.ops):
            rng = np.random.default_rng(sub_seed(self.seed, "ref-slice", i))
            for job, trace in zip(op.data.jobs, op.data.traces):
                msg = self._check_trace(job, trace, sta[job.fu.name],
                                        conditions, volts, store,
                                        reference if i < self.REF_OPS
                                        else None, rng)
                if msg:
                    failures[i] = f"{job.fu.name}: {msg}"
                    break
        return failures, {}

    def _check_trace(self, job, trace, sta, conditions, volts, store,
                     reference, rng) -> str:
        d = trace.delays
        if d.min() < 0:
            return "negative delay"
        if np.any(d > sta[:, None]):
            return "delay above the static critical-path delay"
        row = {(c.voltage, c.temperature): k
               for k, c in enumerate(conditions)}
        for t in sorted({c.temperature for c in conditions}):
            rows = [row[(v, t)] for v in volts]
            if np.any(np.diff(d[rows], axis=0) < 0):
                return f"delay drops as voltage drops at T={t}"
        back = store.get(job.key(DELAY_MODEL), list(job.conditions))
        if back is None or not np.array_equal(back.delays, d):
            return "trace read back from the store differs"
        if reference is None:
            return ""
        # cycle t of the slice stream [t0, t0 + k] is cycle t0 + t
        t0 = int(rng.integers(0, job.stream.n_cycles - self.REF_CYCLES))
        inputs = job.stream.bit_matrix(job.fu)[t0:t0 + self.REF_CYCLES + 1]
        ref = reference.run_delays(
            job.fu.netlist, inputs,
            job.library.delay_matrix(job.fu.netlist,
                                     list(job.conditions))).delays
        if not np.array_equal(ref, d[:, t0:t0 + self.REF_CYCLES]):
            return f"delays differ from the per-gate reference at " \
                   f"cycles {t0}..{t0 + self.REF_CYCLES}"
        return ""


# -- serving ------------------------------------------------------------------


def _train_fixture(ws: Workspace, fu: str, seed: int, cycles: int = 300,
                   max_rows: int = 2000):
    """Train and publish one model; returns the TrainResult."""
    return ws.train(TrainSpec(fu=fu, stream=StreamSpec(cycles=cycles,
                                                       seed=seed),
                              corners=CORNERS, max_rows=max_rows,
                              publish=True))


class ServeBatch(Workload):
    """One closed-loop HTTP client against ``procs.py serve`` (a
    single-process engine), 2,048 requests per call on one stream."""

    name = "serve_batch"
    work_unit = "predictions"
    FU = "fp_mul"
    # large bodies, each one engine batch, keep an op mostly JSON coding
    # and one forest pass, with few hand-offs between processes and
    # threads, which a busy shared host delays most
    PER_CALL = 2048
    CALLS_PER_ROUND = 1

    def prepare(self) -> None:
        self.root = self.rundir.fresh("serve")
        with Workspace(self.root) as ws:
            res = _train_fixture(ws, self.FU, sub_seed(self.seed, "model"))
        # a clock at 90% of the slowest training cycle per corner, so
        # both error classes occur
        self.clocks = [0.9 * float(row.max())
                       for row in res.train_trace.delays]

    def setup(self) -> None:
        server = self._start_server("serve", self.root,
                                    max_batch=self.PER_CALL)
        self.client = ServeClient("127.0.0.1", server.port)
        self.client.predict_many(self._requests("warmup", 0)[:self.PER_CALL])

    def _requests(self, stream_id: str, n: int) -> List[Dict]:
        """Round ``n`` of stream ``stream_id``: the next operands of one
        chained stream, each at a seeded random corner."""
        count = self.PER_CALL * self.CALLS_PER_ROUND
        ops = stream_for_unit(self.FU, count,
                              seed=sub_seed(self.seed, stream_id, n))
        rng = np.random.default_rng(sub_seed(self.seed, "corner", n))
        conditions = CORNERS.conditions()
        picks = rng.integers(0, len(conditions), count)
        return [{"fu": self.FU, "a": int(ops.a[j + 1]),
                 "b": int(ops.b[j + 1]),
                 "voltage": conditions[c].voltage,
                 "temperature": conditions[c].temperature,
                 "clock_period": self.clocks[c], "stream_id": stream_id}
                for j, c in enumerate(picks)]

    def clients(self):
        def round_(n: int) -> List[Op]:
            reqs = self._requests("s", n)
            out = []
            for j in range(0, len(reqs), self.PER_CALL):
                op = _timed(0, self.client.predict_many,
                            reqs[j:j + self.PER_CALL])
                if op.ok:
                    bad = [r for r in op.data if not r.get("ok")]
                    if bad:
                        op.ok = False
                        op.error = bad[0].get("message", "not ok")
                # keep the answers only, as arrays, so that memory does
                # not grow with the number of ops; the requests are
                # regenerated from (round, offset) by the checks
                answers = op.data if op.ok else []
                op.data = (n, j,
                           np.array([r["delay_ps"] for r in answers],
                                    dtype=np.float64),
                           np.array([r["timing_error"] for r in answers],
                                    dtype=bool))
                out.append(op)
            return out
        return [round_]

    def work(self, timed: Timed) -> float:
        return float(sum(len(op.data[2]) for op in timed.ops if op.ok))

    def _sent(self, op: Op) -> List[Dict]:
        n, j = op.data[:2]
        return self._requests("s", n)[j:j + self.PER_CALL]

    def check(self, timed: Timed):
        model, _ = ModelRegistry(self.root / "registry").resolve(self.FU)
        failures = {}
        idx = [i for i, op in enumerate(timed.ops) if op.ok]
        if not idx:
            return failures, {}
        reqs = [r for i in idx for r in self._sent(timed.ops[i])]
        # the server chains one stream; its first request has no
        # transition, as in a stream [x0, x0, x1, ...]
        a = np.array([reqs[0]["a"]] + [r["a"] for r in reqs],
                     dtype=np.uint64)
        b = np.array([reqs[0]["b"]] + [r["b"] for r in reqs],
                     dtype=np.uint64)
        X = build_feature_matrix(OperandStream("check", a, b),
                                 CORNERS.conditions()[0], model.spec)
        X[:, -2] = [r["voltage"] for r in reqs]
        X[:, -1] = [r["temperature"] for r in reqs]
        want = model.predict_delay(X)
        pos = 0
        for i in idx:
            _, _, delays, errors = timed.ops[i].data
            for delay, error in zip(delays.tolist(), errors.tolist()):
                w, r = float(want[pos]), reqs[pos]
                pos += 1
                if delay != w:
                    failures[i] = f"delay_ps {delay} != {w}"
                elif error != (w > r["clock_period"]):
                    failures[i] = "timing_error disagrees with delay"
        return failures, self._extra(timed)

    def _extra(self, timed: Timed) -> Dict:
        """In-process ``predict_batch`` rate on the same requests: the
        engine layer alone, for scale beside the HTTP rate."""
        engine = PredictionEngine(self.root / "registry")
        batches = [[PredictRequest.from_dict(r) for r in self._sent(op)]
                   for op in timed.ops[:10] if op.ok]
        engine.predict_batch(batches[0])
        start = time.perf_counter()
        n = sum(len(engine.predict_batch(b)) for b in batches)
        return {"inproc_predict_per_s": n / (time.perf_counter() - start)}


WORKLOADS = {cls.name: cls for cls in (Train, Campaign, ServeBatch)}
