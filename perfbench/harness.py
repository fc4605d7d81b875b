"""Measurement helpers shared by the perfbench workloads.

Nothing here knows about a particular workload: percentiles with the
ten-samples-beyond rule, the answer tally behind ``ok_ratio``, host
facts (VmHWM, a calibration loop, interpreter and source identity), and
the ``repro serve`` subprocess plus a keep-alive HTTP client that the
service workloads drive it with.
"""

from __future__ import annotations

import hashlib
import http.client
import math
import os
import platform
import select
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Optional, Sequence

#: A percentile is reported as supported only when at least this many
#: samples lie beyond it; below that one outlier decides its value.
MIN_BEYOND = 10


# -- percentiles ---------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples rank strictly above the ``q`` percentile."""
    return count - max(1, math.ceil(q * count - 1e-9)) if count else 0


def percentile_supported(count: int, q: float) -> bool:
    """The reporting rule: at least :data:`MIN_BEYOND` samples beyond."""
    return samples_beyond(count, q) >= MIN_BEYOND


def min_samples(q: float) -> int:
    """The smallest sample count whose ``q`` percentile is supported."""
    count = MIN_BEYOND
    while not percentile_supported(count, q):
        count += 1
    return count


def latency_summary(seconds: Sequence[float]) -> dict:
    """p50/p90/p99 in milliseconds, with the sample count and support flags."""
    count = len(seconds)
    out = {"n": count}
    for label, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
        out[f"{label}_ms"] = percentile(seconds, q) * 1e3 if count else float("nan")
        out[f"{label}_supported"] = percentile_supported(count, q)
    return out


# -- answer tally --------------------------------------------------------

OUTCOMES = ("ok", "wrong", "refused", "error")


def close_enough(got: float, expected: float) -> bool:
    """Float cut values compared with a relative tolerance (sums of weights)."""
    return math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-9)


class Tally:
    """Per-op outcomes; only ``ok`` (answered *and* right) counts as success.

    ``refused`` is a 429, ``error`` any other non-200 or exception,
    ``wrong`` a 200 whose answer disagrees with the expected value.
    """

    def __init__(self) -> None:
        self.counts = dict.fromkeys(OUTCOMES, 0)

    def add(self, outcome: str, n: int = 1) -> None:
        if outcome not in self.counts:
            raise ValueError(f"unknown outcome {outcome!r}")
        self.counts[outcome] += n

    def classify(self, status: int, got: Optional[float], expected: float) -> str:
        """Record one HTTP answer and return its outcome."""
        if status == 429:
            outcome = "refused"
        elif status != 200 or got is None:
            outcome = "error"
        elif not close_enough(got, expected):
            outcome = "wrong"
        else:
            outcome = "ok"
        self.add(outcome)
        return outcome

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    @property
    def ok(self) -> int:
        return self.counts["ok"]

    @property
    def failed(self) -> int:
        return self.attempted - self.ok

    @property
    def ok_ratio(self) -> float:
        return self.ok / self.attempted if self.attempted else 0.0


# -- host facts ----------------------------------------------------------

def parse_vmhwm_kib(status_text: str) -> int:
    """The ``VmHWM`` (peak resident set) line of a ``/proc/<pid>/status``."""
    for line in status_text.splitlines():
        if line.startswith("VmHWM:"):
            fields = line.split()
            if len(fields) >= 2 and fields[1].isdigit():
                return int(fields[1])
    raise ValueError("no VmHWM line in status text")


def vmhwm_mib(pid: Optional[int] = None) -> float:
    """Peak resident set of ``pid`` (default: this process) in MiB."""
    where = "self" if pid is None else str(pid)
    text = Path(f"/proc/{where}/status").read_text(encoding="ascii")
    return parse_vmhwm_kib(text) / 1024.0


def calibration_ms(iterations: int = 300_000) -> float:
    """Wall time of a fixed pure-Python loop: a host-speed drift probe.

    Reported beside each run, never used to rescale a measurement.
    """
    started = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i * i
    elapsed = time.perf_counter() - started
    if total < 0:  # keeps the loop's result live
        raise AssertionError
    return elapsed * 1e3


def source_identity(root: Path) -> str:
    """Git commit of ``root`` if it is a checkout, else a digest of ``src/``."""
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text(encoding="ascii").strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            if ref_file.is_file():
                return "git:" + ref_file.read_text(encoding="ascii").strip()[:12]
        elif ref:
            return "git:" + ref[:12]
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:12]


def host_line(root: Path, calib_start: float, calib_end: float) -> str:
    return (
        f"host: source={source_identity(root)} "
        f"python={platform.python_version()} nproc={os.cpu_count()} "
        f"host.calib_ms start={calib_start:.1f} end={calib_end:.1f}"
    )


@contextmanager
def one_cpu():
    """Pin this process to one CPU for the block; yields that CPU set.

    A client and a server that share one CPU hand each request over
    without waking an idle virtual CPU, whose wake-up latency on a
    shared host varies by several milliseconds from minute to minute.
    """
    original = os.sched_getaffinity(0)
    cpus = {min(original)}
    os.sched_setaffinity(0, cpus)
    try:
        yield cpus
    finally:
        os.sched_setaffinity(0, original)


# -- the program under test, as a subprocess ---------------------------

def program_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class ServeProcess:
    """One ``python -m repro serve --port 0`` subprocess.

    ``wait_listening`` returns once the server has printed its URL (its
    store is open by then); ``wait_ready`` also waits for its first
    ``GET /healthz`` answer.  ``stop`` terminates the server and waits
    for it to exit.
    """

    READY_TIMEOUT = 60.0

    def __init__(self, root: Path, cache_dir: Path, cpus: Optional[set] = None) -> None:
        self.root = root
        self.cache_dir = cache_dir
        self.cpus = cpus
        self.proc: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0

    def start(self) -> "ServeProcess":
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--cache-file", str(self.cache_dir),
            "--access-log", os.devnull,
        ]
        self.proc = subprocess.Popen(
            cmd, cwd=self.root, env=program_env(self.root),
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
        )
        if self.cpus:
            os.sched_setaffinity(self.proc.pid, self.cpus)
        return self

    def wait_listening(self) -> "ServeProcess":
        """Block until the server prints its listening URL."""
        deadline = time.monotonic() + self.READY_TIMEOUT
        buffered = b""
        fd = self.proc.stdout.fileno()
        while b"\n" not in buffered:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.proc.poll() is not None:
                raise RuntimeError("repro serve did not start listening")
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise RuntimeError("repro serve closed stdout before listening")
                buffered += chunk
        line = buffered.split(b"\n", 1)[0].decode()
        url = line.rsplit(" ", 1)[-1]
        if "listening on" not in line or not url.startswith("http://"):
            raise RuntimeError(f"unexpected first line from repro serve: {line!r}")
        hostport = url[len("http://"):].rstrip("/")
        self.host, port = hostport.rsplit(":", 1)
        self.port = int(port)
        return self

    def wait_ready(self) -> "ServeProcess":
        """Block until the server has answered ``GET /healthz``."""
        self.wait_listening()
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.READY_TIMEOUT)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
        finally:
            conn.close()
        if response.status != 200:
            raise RuntimeError(f"repro serve answered /healthz with {response.status}")
        return self

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def peak_rss_mib(self) -> float:
        return vmhwm_mib(self.proc.pid)

    def stop(self) -> None:
        # SIGTERM, not SIGINT: a shell that starts the benchmark in the
        # background makes its children ignore SIGINT.  The store is
        # scratch, so skipping the server's clean-shutdown flush is fine.
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
        proc.stdout.close()
        self.proc = None


class KeepAliveClient:
    """One HTTP/1.1 keep-alive connection; ``post`` times send → full read."""

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=timeout)
        self.headers = {"Content-Type": "application/json", "Connection": "keep-alive"}

    def post(self, path: str, body: bytes) -> tuple[int, bytes, float]:
        """``(status, body, seconds)``; status 0 when the exchange failed.

        A failed exchange drops the connection; the next request opens
        a new one.
        """
        started = time.perf_counter()
        try:
            self.conn.request("POST", path, body, self.headers)
            response = self.conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            return 0, b"", time.perf_counter() - started
        return response.status, data, time.perf_counter() - started

    def close(self) -> None:
        self.conn.close()
