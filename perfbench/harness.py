"""Run plumbing shared by the workloads: isolation, processes, clocks.

Nothing here imports the program; ``run.py`` sets ``REPRO_CACHE_DIR``
to a fresh directory inside the checkout before any ``repro`` import.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
#: Scratch and results of every run, inside the checkout.
WORK_DIR = REPO_ROOT / ".perfbench"
SHM_DIR = Path("/dev/shm")
SHM_PREFIX = "repro_pool_"


def shm_segments() -> set:
    """Worker-pool segments owned by this process.  The pool names its
    segments ``repro_pool_<owner pid>_…``; segments of other processes,
    such as another benchmark run, are not this run's to account for."""
    if not SHM_DIR.is_dir():
        return set()
    prefix = f"{SHM_PREFIX}{os.getpid()}_"
    return {p.name for p in SHM_DIR.iterdir() if p.name.startswith(prefix)}


# -- processes ----------------------------------------------------------------


def _children(pid: int) -> List[int]:
    out: List[int] = []
    try:
        tasks = list(Path(f"/proc/{pid}/task").iterdir())
    except OSError:
        return out
    for task in tasks:
        try:
            out += [int(c) for c in (task / "children").read_text().split()]
        except OSError:
            pass
    return out


def descendants(pid: int) -> List[int]:
    found, todo = [], [pid]
    while todo:
        for child in _children(todo.pop()):
            found.append(child)
            todo.append(child)
    return found


def _hwm_kib(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Sum of the peak resident set (VmHWM) of this process and of every
    live process below it, in MiB.  Forked children count pages they
    share with their parent again, so this is an upper bound on the
    combined peak."""
    me = os.getpid()
    return sum(_hwm_kib(p) for p in [me] + descendants(me)) / 1024.0


class ServerProcess:
    """One ``procs.py`` server in its own process (stopped with
    SIGTERM; waited for)."""

    def __init__(self, role: str, root: Path, *,
                 max_batch: Optional[int] = None,
                 trace_file: Optional[Path] = None,
                 ready_timeout_s: float = 60.0) -> None:
        cmd = [sys.executable, str(BENCH_DIR / "procs.py"), role,
               "--root", str(root)]
        if max_batch is not None:
            cmd += ["--max-batch", str(max_batch)]
        if trace_file is not None:
            cmd += ["--trace", str(trace_file)]
        self.trace_file = trace_file
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC_DIR)] + [p for p in env.get("PYTHONPATH", "").split(
                os.pathsep) if p])
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                                     text=True)
        line = [""]
        reader = threading.Thread(
            target=lambda: line.__setitem__(0, self.proc.stdout.readline()),
            daemon=True)
        reader.start()
        reader.join(ready_timeout_s)
        if not line[0].startswith("READY "):
            self.stop()
            raise RuntimeError(f"{role} server did not start: {line[0]!r}")
        self.port = int(line[0].split()[1])
        self.url = f"http://127.0.0.1:{self.port}"

    def stop(self, timeout_s: float = 30.0) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout_s)
            except subprocess.TimeoutExpired:
                for pid in descendants(self.proc.pid):
                    try:
                        os.kill(pid, 9)
                    except OSError:
                        pass
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()

    def spans(self) -> List[Dict]:
        """Spans the server wrote at stop (traced runs only)."""
        if self.trace_file is None or not self.trace_file.is_file():
            return []
        return json.loads(self.trace_file.read_text())


# -- timing -------------------------------------------------------------------


@dataclass
class Op:
    """One timed operation."""

    client: int
    start: float
    end: float
    ok: bool = True
    error: str = ""
    data: object = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Timed:
    ops: List[Op] = field(default_factory=list)
    wall_s: float = 0.0
    t0: float = 0.0       # time.time() at the start of the timed region
    t1: float = 0.0


def closed_loop(rounds: Sequence[Callable[[int], List[Op]]],
                seconds: float) -> Timed:
    """Run one closed-loop client per entry of ``rounds`` (each returns
    the ops of one whole round, given the round number) until
    ``seconds`` have passed; every client does at least one round."""
    results: List[List[Op]] = [[] for _ in rounds]
    errors: List[BaseException] = []
    start = time.perf_counter()
    deadline = start + seconds

    def client(k: int) -> None:
        try:
            n = 0
            while n == 0 or time.perf_counter() < deadline:
                results[k].extend(rounds[k](n))
                n += 1
        except BaseException as exc:  # re-raised in the caller
            errors.append(exc)

    t0 = time.time()
    threads = [threading.Thread(target=client, args=(k,))
               for k in range(len(rounds))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return Timed(ops=[op for ops in results for op in ops],
                 wall_s=time.perf_counter() - start, t0=t0, t1=time.time())


def quantile(values: Sequence[float], q: float) -> float:
    """Inclusive-method quantile (``q`` in (0, 1))."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


# -- provenance ---------------------------------------------------------------


def _git_sha() -> Optional[str]:
    """HEAD of the checkout, or None when it is not a git repository
    (git is kept from looking above the checkout)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(REPO_ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                             env=env, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def _src_sha() -> str:
    """Digest of every file under ``src/``: identifies the program when
    the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC_DIR.rglob("*.py")):
        digest.update(str(path.relative_to(SRC_DIR)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(seed: int) -> Dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": _git_sha(),
            "src_sha256": _src_sha(), "seed": seed}


class RunDir:
    """Fresh per-run directory under ``.perfbench/tmp`` holding the
    workspace roots and ``REPRO_CACHE_DIR``; removed on exit."""

    def __init__(self, workload: str) -> None:
        base = WORK_DIR / "tmp"
        base.mkdir(parents=True, exist_ok=True)
        self.path = base / f"{workload}-{os.getpid()}-{time.time_ns()}"
        self.path.mkdir()
        os.environ["REPRO_CACHE_DIR"] = str(self.path / "cache")
        self._n = 0

    def fresh(self, name: str) -> Path:
        """A new, empty subdirectory."""
        self._n += 1
        path = self.path / f"{name}{self._n}"
        path.mkdir()
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
