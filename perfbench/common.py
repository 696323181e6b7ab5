"""Shared helpers of the benchmark: paths, statistics, the host probe and
the line protocol between the generator and its workload processes.

Nothing here imports ``repro``: the generator must be able to refuse a
checkout that lacks the program before touching it, and the host probe
must measure the machine, not the program.
"""

from __future__ import annotations

import json
import math
import os
import queue
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
#: Pre-built inputs (design cache, serving checkpoints) and scratch
#: space; ignored by git, created on the first run in a checkout.
STATE = ROOT / ".perfbench"

#: Percentiles a tail is reported at, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)


def program_present() -> bool:
    """True when the checkout holds the program's sources."""
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> Dict[str, str]:
    """Environment of every process the benchmark starts."""
    env = dict(os.environ)
    paths = [str(SRC), str(BENCH)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONUNBUFFERED"] = "1"
    return env


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default rule)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> float:
    """How many of ``n`` samples lie above the ``q``-th percentile."""
    return round(n * (100.0 - q) / 100.0, 9)


def tail_percentile(n: int, min_beyond: int = 10) -> Optional[float]:
    """The highest ladder percentile with ``min_beyond`` samples above
    it, or None when even the median has fewer."""
    best = None
    for q in PERCENTILE_LADDER:
        if samples_beyond(n, q) >= min_beyond:
            best = q
    return best


def latency_summary(values_s: Sequence[float]) -> Dict[str, float]:
    """Median, p99 and the supported tail of a latency sample (ms)."""
    n = len(values_s)
    tail = tail_percentile(n)
    ms = [v * 1e3 for v in values_s]
    return {
        "count": n,
        "p50_ms": percentile(ms, 50.0),
        "p99_ms": percentile(ms, 99.0),
        "p99_beyond": samples_beyond(n, 99.0),
        "tail_q": tail if tail is not None else 0.0,
        "tail_ms": percentile(ms, tail) if tail is not None else 0.0,
    }


# ----------------------------------------------------------------------
# Host-drift probe (diagnostic only; never a metric)
# ----------------------------------------------------------------------
def _cpu_steal_ticks() -> Optional[int]:
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if len(fields) > 8 else None


def host_probe() -> Dict[str, float]:
    """A fixed pure-Python loop and a fixed-size matmul, plus loadavg
    and cumulative CPU steal.  Contains no program code."""
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i * i
    py_s = time.perf_counter() - start
    a = np.random.default_rng(0).standard_normal((192, 192))
    np.tanh(a @ a)  # the first BLAS call starts its threads
    start = time.perf_counter()
    for _ in range(20):
        a = np.tanh(a @ a)
    mm_s = time.perf_counter() - start
    steal = _cpu_steal_ticks()
    return {
        "py_loop_ms": py_s * 1e3,
        "matmul_ms": mm_s * 1e3,
        "loadavg_1m": os.getloadavg()[0],
        "steal_ticks": float(steal) if steal is not None else -1.0,
    }


def probe_delta(before: Dict[str, float],
                after: Dict[str, float]) -> Dict[str, float]:
    """Before/after probe record, with steal over the run in seconds."""
    ticks = os.sysconf("SC_CLK_TCK")
    steal = (after["steal_ticks"] - before["steal_ticks"]) / ticks \
        if before["steal_ticks"] >= 0 else -1.0
    return {
        "py_loop_ms": [before["py_loop_ms"], after["py_loop_ms"]],
        "matmul_ms": [before["matmul_ms"], after["matmul_ms"]],
        "loadavg_1m": [before["loadavg_1m"], after["loadavg_1m"]],
        "steal_s": steal,
    }


# ----------------------------------------------------------------------
# Process helpers
# ----------------------------------------------------------------------
def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` of a process (default: this one) in MiB."""
    path = f"/proc/{pid}/status" if pid else "/proc/self/status"
    with open(path) as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def emit(event: str, **fields) -> None:
    """One protocol line from a workload process to the generator."""
    sys.stdout.write(json.dumps({"event": event, **fields}) + "\n")
    sys.stdout.flush()


def stop_process(proc: subprocess.Popen, timeout: float = 10.0) -> None:
    """Terminate (then kill) a child and wait until it has ended."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class Session:
    """One workload process started by the generator.

    A reader thread timestamps every stdout line as it arrives.  Worker
    processes write JSON protocol lines (:func:`emit`): ``ready`` when
    set-up is done, then ``result``; the server writes its own banner.
    ``setup_s`` runs from just before the spawn to the ready line.
    """

    def __init__(self, args: List[str], timeout: float = 170.0) -> None:
        self.deadline = time.monotonic() + timeout
        self.setup_s: Optional[float] = None
        self._lines: "queue.Queue" = queue.Queue()
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable] + args, cwd=str(ROOT), env=child_env(),
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put((time.perf_counter(), line))
        self._lines.put((time.perf_counter(), None))

    def _readline(self) -> Tuple[float, str]:
        remaining = self.deadline - time.monotonic()
        try:
            stamp, line = self._lines.get(timeout=max(remaining, 0.01))
        except queue.Empty:
            raise TimeoutError("workload process timed out") from None
        if line is None:
            raise RuntimeError(
                f"workload process exited with code {self.proc.wait()}")
        return stamp, line

    def wait_for(self, name: str) -> Dict[str, object]:
        """The next JSON event called ``name`` (other output is echoed
        to stderr)."""
        while True:
            stamp, line = self._readline()
            if not line.startswith("{"):
                sys.stderr.write(line)
                continue
            event = json.loads(line)
            if event["event"] == "ready" and self.setup_s is None:
                self.setup_s = stamp - self.start
            if event["event"] == name:
                return event

    def wait_for_banner(self, prefix: str) -> str:
        """The first line starting with ``prefix``; it marks ready."""
        while True:
            stamp, line = self._readline()
            if line.startswith(prefix):
                self.setup_s = stamp - self.start
                return line
            sys.stderr.write(line)

    def close(self) -> None:
        stop_process(self.proc)
        self._reader.join(10.0)
        self.proc.stdout.close()
