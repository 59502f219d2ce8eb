"""Shared plumbing for the end-to-end benchmark: paths, the pinned child
environment, process spawning with ``wait4`` rusage, the host-speed
probe, percentile rules and the result line.

Nothing here imports ``repro``: the program is measured from outside, as
users run it, through subprocesses and HTTP.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden"
#: everything the benchmark writes lives under here (ignored by git)
WORK = ROOT / ".perfbench"
#: shared across runs: a warm bytecode cache is what users have
PYCACHE = WORK / "pycache"

#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10

#: per kind of work, the probe that tracks its speed: (the probe's median
#: at the reference host speed, the elasticity e: when the host slows, the
#: work's time grows as the probe's to the power e, fitted on a 2-vCPU VM)
PROBES = {
    # one long-lived process searching or simulating (e 0.61-0.81):
    # a pure-Python loop of a few ms, see probe()
    "compute": (0.004, 0.7),
    # fresh processes, mostly interpreter start-up and imports (e 0.93-1.2):
    # a fresh interpreter importing numpy and networkx, see spawn_probe()
    "startup": (0.3, 1.0),
}
#: a paced child is frozen for one compute probe this often
PACE_EVERY_S = 0.25
#: the startup probe: the third-party imports every repro command pays
SPAWN_PROBE = "import numpy, networkx"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, broken set-up)."""


def require_program() -> None:
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchError(
            f"no program to measure: {SRC / 'repro' / 'cli.py'} is missing "
            "(run from the root of a full checkout)"
        )


def child_env(run_dir: Path) -> dict[str, str]:
    """The environment every measured process gets.

    Every ``REPRO_*`` switch is stripped (engine, kernel backend,
    certificates, telemetry, trace, debug invariants) so a stray one
    cannot change what is measured; the kernel's compiled-library cache
    is the run's own.  ``PYTHONDONTWRITEBYTECODE`` is dropped and the
    bytecode cache pointed at a benchmark-owned directory, because users
    have ``.pyc`` files.
    """
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("REPRO_")
        and k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPATH", "PYTHONHOME")
    }
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    env["REPRO_KERNEL_CACHE"] = str(run_dir / "kernel")
    return env


def probe() -> float:
    """Seconds for a fixed pure-Python loop (a few milliseconds)."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(25_000):
        acc = (acc * 31 + i) % 1_000_003
        table[acc & 1023] = i
    return time.perf_counter() - t0


def spawn_probe(env: dict[str, str], cwd: Path) -> float:
    """Seconds for a fresh interpreter to run :data:`SPAWN_PROBE`."""
    proc = run_child([sys.executable, "-c", SPAWN_PROBE], env, cwd=cwd)
    if proc.returncode != 0:
        raise BenchError("startup probe failed: " + proc.stderr.decode(errors="replace")[-400:])
    return proc.wall_s


class HostSpeed:
    """Probe samples taken while no measured work of one phase runs, and
    the factor that scales that phase's timings to the reference host
    speed.

    The host's speed drifts by 15-30% over seconds to minutes, and the
    program slows with it.  Sampling a probe of the same kind of work
    between (and, for ``compute``, inside) the measured work tracks that
    drift; ``time * factor()`` is the time the work would have taken at
    the speed where the probe's median is its reference in
    :data:`PROBES`.
    """

    def __init__(self, kind: str, env: dict[str, str], cwd: Path) -> None:
        self.kind = kind
        self.samples: list[float] = []
        self._env, self._cwd = env, cwd

    def sample(self) -> None:
        if self.kind == "compute":
            self.samples.append(probe())
        else:
            self.samples.append(spawn_probe(self._env, self._cwd))

    def median_s(self) -> float:
        if not self.samples:
            raise BenchError("no host-speed probe was sampled")
        return statistics.median(self.samples)

    def factor(self) -> float:
        ref_s, elasticity = PROBES[self.kind]
        return (ref_s / self.median_s()) ** elasticity


@dataclass
class Proc:
    """One finished child: wall time, exit status, peak RSS and output."""

    argv: list[str]
    wall_s: float  # spawn to exit, minus the time it was frozen
    returncode: int
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes
    spawned_at: float  # time.time() just before spawn
    #: (time.time() at freeze, seconds frozen) for each probe taken inside
    pauses: list[tuple[float, float]]

    def paused_before(self, t: float) -> float:
        return sum(d for at, d in self.pauses if at < t)


def _pace(pid: int, speed: HostSpeed, done: threading.Event,
          pauses: list[tuple[float, float]]) -> None:
    """Every PACE_EVERY_S until ``done``: freeze ``pid``, take one compute
    probe, let it run on.  ``pid`` is not reaped before ``done`` is set, so it
    cannot name another process."""
    while not done.wait(PACE_EVERY_S):
        at, t0 = time.time(), time.perf_counter()
        os.kill(pid, signal.SIGSTOP)
        try:
            speed.sample()
        finally:
            os.kill(pid, signal.SIGCONT)
        pauses.append((at, time.perf_counter() - t0))


def run_child(
    argv: list[str],
    env: dict[str, str],
    *,
    cwd: Path,
    timeout: float = 170.0,
    pace: HostSpeed | None = None,
) -> Proc:
    """Run ``argv`` to completion; peak RSS comes from ``wait4`` rusage.

    With ``pace`` (a compute HostSpeed), one probe is sampled just before
    the spawn and the child is paced (see :func:`_pace`); its wall
    excludes the frozen time.
    """
    tag = f"{os.getpid()}-{threading.get_ident()}-{time.monotonic_ns()}"
    out_path, err_path = cwd / f".stdout-{tag}", cwd / f".stderr-{tag}"
    pauses: list[tuple[float, float]] = []
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        if pace is not None:
            pace.sample()
        spawned_at = time.time()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err)
        done = threading.Event()
        pacer = None
        if pace is not None:
            pacer = threading.Thread(target=_pace, args=(proc.pid, pace, done, pauses))
            pacer.start()
        killer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
        killer.start()
        exited = False
        try:
            # wait for the exit but leave the child unreaped until the pacer stops
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            exited = True
            wall, exited_at = time.perf_counter() - t0, time.time()
        finally:
            killer.cancel()
            killer.join()
            done.set()
            if pacer is not None:
                pacer.join()
            if not exited:
                os.kill(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)  # Popen must not reap again
    stdout, stderr = out_path.read_bytes(), err_path.read_bytes()
    out_path.unlink()
    err_path.unlink()
    return Proc(
        argv=argv,
        wall_s=wall - sum(d for at, d in pauses if at < exited_at),
        returncode=proc.returncode,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=stdout,
        stderr=stderr,
        spawned_at=spawned_at,
        pauses=pauses,
    )


def repro_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro", *args]


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: list[float], q: float) -> float | None:
    """The ``q``-quantile (0 < q < 1), or ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond it.

    Nearest-rank on the sorted sample: rank ``ceil(q * n)``; the samples
    beyond it number ``n - rank``.
    """
    n = len(values)
    rank = max(1, math.ceil(round(q * n, 9)))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


@dataclass
class Timing:
    """A named timing with its sample count, for the printed report."""

    name: str
    value: float | None
    unit: str
    samples: int

    def row(self) -> str:
        shown = "null" if self.value is None else f"{self.value:.6g}"
        return f"  {self.name:<24} {shown:>12} {self.unit:<6} (n={self.samples})"


# ----------------------------------------------------------------------
# environment record
# ----------------------------------------------------------------------
def source_digest() -> str:
    """Content hash of ``src/`` (the checkout may not be a git repository)."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    git = shutil.which("git")
    if git and (ROOT / ".git").exists():
        out = subprocess.run(
            [git, "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    return "unknown"


_ENV_PROBE = (
    "import importlib.util, json\n"
    "from repro.analysis.kernelpath import resolve_backend\n"
    "print(json.dumps({'numba': importlib.util.find_spec('numba') is not None,"
    " 'kernel_tier': resolve_backend()}))\n"
)


def environment(env: dict[str, str], run_dir: Path) -> dict[str, object]:
    """Record the host and resolve (and so warm) the compiled kernel."""
    proc = run_child([sys.executable, "-c", _ENV_PROBE], env, cwd=run_dir)
    if proc.returncode != 0:
        raise BenchError(
            "environment probe failed: " + proc.stderr.decode(errors="replace")[-400:]
        )
    found = json.loads(proc.stdout)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit(),
        "source_digest": source_digest(),
        "cc": shutil.which("cc") is not None,
        "numba": found["numba"],
        "kernel_tier": found["kernel_tier"],
        "speed_probe_s": statistics.median(probe() for _ in range(5)),
    }


# ----------------------------------------------------------------------
# the result line
# ----------------------------------------------------------------------
def load_manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def result_line(
    *,
    correct: bool,
    attempted: int,
    failed: int,
    values: dict[str, float],
    trace: bool,
    manifest: dict | None = None,
) -> dict:
    """The last stdout line: exactly the metrics BENCHMARK.json declares
    for this mode, each with its unit."""
    manifest = manifest or load_manifest()
    declared = manifest["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in declared:
        value = values.get(m["name"])
        if value is None:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }
