"""Seeded benchmark of ``panelrank compute``, run from the checkout's ``src/``.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run writes the workload's inputs for the seed, then starts one
``panelrank compute`` subprocess after another until ``--seconds`` have
passed, checking the outputs of every invocation. Spread over the same
time, it times a fresh interpreter importing ``panelrank.cli``
(``setup_s``). A fixed calibration child runs before and after each of
these, and CPU times are reported relative to it (see ``Session.paired``).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
plain and traced invocations and reports the per-layer metrics from the
spans. The last line of stdout is the JSON result. Scratch files live
under ``.perfbench_out/`` in the checkout; the inputs and outputs of a
run are removed when it ends and the spans of a traced run are kept
there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checker
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_out"
FIXTURE_DIGESTS = HERE / "fixture_sha256.json"

SETUP_REPEATS = 12
INVOKE_TIMEOUT_S = 60.0
CLI = "from panelrank.cli import run; run()"
SETUP = "import panelrank.cli"
# A fixed task that does not import panelrank, so no change to the
# program moves its time while host load does. Like the CLI, it starts
# an interpreter, imports numpy, updates dicts, formats floats and
# multiplies small matrices.
CALIBRATION = """
import numpy
totals = {}
for i in range(100_000):
    key = f"e{i % 997}"
    totals[key] = totals.get(key, 0.0) + i * 0.5
",".join(f"{value:.6f}" for value in totals.values())
m = numpy.arange(90_000, dtype=float).reshape(300, 300) / 90_000
for _ in range(4):
    (m @ m).sum()
"""
# CPU seconds of CALIBRATION on the development host (Intel Xeon, 2
# vCPUs) when no other guest slows it: the unit of the CPU-time metrics.
CALIBRATION_S = 0.2

PROBE = r"""
import ctypes, json, platform
import numpy, panelrank.cli
threads = None
with open("/proc/self/maps") as maps:
    libs = [line.split()[-1] for line in maps if "openblas" in line.lower()]
for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
               "openblas_get_num_threads"):
    try:
        fn = getattr(ctypes.CDLL(libs[0]), symbol)
    except (AttributeError, IndexError, OSError):
        continue
    fn.restype = ctypes.c_int
    threads = fn()
    break
print(json.dumps({"panelrank_file": panelrank.cli.__file__,
                  "python": platform.python_version(),
                  "numpy": numpy.__version__, "blas_threads": threads}))
"""


def child_env() -> dict[str, str]:
    """Environment for every child: the checkout's src/, cached bytecode.

    Bytecode goes to a cache inside the checkout so that no run pays for
    compiling the package and none writes outside the checkout. BLAS runs
    one thread: on a 2-vCPU host a second one adds start-up cost to every
    run and couples the timings to the other vCPU's load.
    """
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(SCRATCH / "pycache")
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def probe(env: dict[str, str]) -> dict:
    """Environment record; fails unless panelrank comes from this checkout."""
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise SystemExit(f"cannot import panelrank.cli from {ROOT / 'src'}:\n"
                         + done.stderr)
    record = json.loads(done.stdout)
    if not Path(record["panelrank_file"]).resolve().is_relative_to(ROOT):
        raise SystemExit(f"panelrank was imported from {record['panelrank_file']}, "
                         f"not from the checkout {ROOT}")
    record.update(nproc=len(os.sched_getaffinity(0)), cpu=cpu_model())
    return record


@dataclass
class Sample:
    """One finished child process."""

    wall_s: float
    cpu_s: float  # user + system time of the child
    rss_mb: float  # peak resident set, MiB
    code: int
    timed_out: bool


def spawn(cmd: list[str], env: dict[str, str], stderr_path: Path) -> Sample:
    """Run ``cmd`` to completion, killing it after INVOKE_TIMEOUT_S."""
    with open(stderr_path, "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=stderr)
        killer = threading.Timer(INVOKE_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            killer.cancel()
            killer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  proc.returncode, wall >= INVOKE_TIMEOUT_S)


class Session:
    """One benchmark run: inputs, reference outputs and every invocation."""

    def __init__(self, plan: workloads.Plan, work: Path, env: dict[str, str]):
        self.plan = plan
        self.work = work
        self.env = env
        self.reference: dict[str, str] | None = None
        self.calibration_s: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.fixture_digests = (json.loads(FIXTURE_DIGESTS.read_text())
                                if plan.workload == "fixture" else None)

    def calibrate(self) -> None:
        """One run of the calibration child; its CPU time is recorded."""
        sample = spawn([sys.executable, "-c", CALIBRATION], self.env,
                       self.work / "calibration-stderr.txt")
        if sample.code != 0:
            raise SystemExit(f"the calibration task exited {sample.code}")
        self.calibration_s.append(sample.cpu_s)

    def paired(self, sample: Sample) -> float:
        """``sample``'s CPU time at the host speed of CALIBRATION_S.

        Call right after ``sample``'s child, with a calibration run just
        before it. On a shared host every process runs in a fast or a
        slow mode, up to 1.8x apart, that changes every few seconds; the
        share of slow time drifts over minutes. The calibration runs on
        either side of the child most likely met the child's mode. Work
        the program does or saves moves the child's time only.
        """
        before = self.calibration_s[-1]
        self.calibrate()
        return sample.cpu_s * 2 * CALIBRATION_S / (before + self.calibration_s[-1])

    def time_setup(self) -> Sample:
        """A fresh interpreter importing panelrank.cli."""
        return spawn([sys.executable, "-c", SETUP], self.env,
                     self.work / "setup-stderr.txt")

    def invoke(self, spans: Path | None = None) -> Sample:
        """One ``compute`` invocation, its outputs checked."""
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        prefix = [sys.executable, "-c", CLI] if spans is None else \
            [sys.executable, str(HERE / "tracer.py"), str(spans)]
        cmd = [*prefix, "compute", *self.plan.args, "--out", str(out)]
        stderr = self.work / "stderr.txt"
        sample = spawn(cmd, self.env, stderr)
        self.attempted += 1
        if sample.timed_out:
            problems = [f"timed out after {INVOKE_TIMEOUT_S:.0f} s"]
        elif sample.code != 0:
            tail = stderr.read_text(errors="replace").strip()[-400:]
            problems = [f"exit {sample.code}: {tail}"]
        else:
            problems = self.verify(out)
        if problems:
            self.failures.append("; ".join(problems))
            print(f"invocation {self.attempted} failed: {problems[0]}",
                  file=sys.stderr)
        return sample

    def verify(self, out: Path) -> list[str]:
        names = {path.name for path in out.iterdir()}
        expected = self.plan.expected_files()
        if names != expected:
            return [f"missing {sorted(expected - names)}, "
                    f"unexpected {sorted(names - expected)}"]
        got = checker.digests(out)
        if self.reference is not None:
            differ = sorted(n for n in got if got[n] != self.reference[n])
            return [f"outputs differ from the first run: {differ}"] if differ else []
        problems = checker.check_outputs(self.plan, out)
        if self.fixture_digests is not None:
            differ = sorted(n for n in got if got[n] != self.fixture_digests.get(n))
            if differ:
                problems.append(f"sha256 differs from the recorded fixture: {differ}")
        if not problems:
            self.reference = got
        return problems


def layer_metrics(doc: dict) -> dict[str, float]:
    """Self time and call count per span name, plus the recorded counters."""
    spans = doc["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    metrics: dict[str, float] = {}
    for name in ["import", *tracer.LAYERS, "cli.write"]:
        metrics[f"{name}.s"] = 0.0
        metrics[f"{name}.calls"] = 0
    top_level = 0.0
    for (name, start, end, parent), inner in zip(spans, child_time):
        metrics[f"{name}.s"] += (end - start) - inner
        metrics[f"{name}.calls"] += 1
        if parent is None and name != "import":
            top_level += end - start
    metrics["cli.self.s"] = (doc["main"][1] - doc["main"][0]) - top_level
    metrics.update(doc["counts"])
    metrics["core.spectral.peak_mb"] = doc["spectral_peak_bytes"] / 2 ** 20
    return metrics


def unit_of(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("bytes", "bytes_computed")):
        return "bytes"
    return "count"


def measure(session: Session, seconds: float, trace: bool, spans_out: Path,
            environment: dict):
    """Invoke until ``seconds`` have passed; returns (metrics, summary text).

    The SETUP_REPEATS set-up timings are spread evenly over the same
    time. The host's speed changes in phases of a few seconds, so set-up
    timed in one block before the invocations would read that block's
    phase alone. A traced run also writes its spans, per-layer metrics
    and the environment record to ``spans_out``.
    """
    plain: list[Sample] = []
    cpu: list[float] = []  # at calibration speed, as are the next two
    setup: list[float] = []
    traced: list[tuple[Sample, dict]] = []
    session.calibrate()
    start = time.perf_counter()
    while not plain or time.perf_counter() < start + seconds:
        due = start + len(setup) * seconds / SETUP_REPEATS
        if len(setup) < SETUP_REPEATS and time.perf_counter() >= due:
            setup.append(session.paired(session.time_setup()))
        plain.append(session.invoke())
        cpu.append(session.paired(plain[-1]))
        if trace:
            spans = session.work / "spans.json"
            spans.unlink(missing_ok=True)
            sample = session.invoke(spans)
            if spans.exists():
                traced.append((sample, json.loads(spans.read_text())))
            session.calibrate()
    while len(setup) < SETUP_REPEATS:
        setup.append(session.paired(session.time_setup()))
    wall_s = statistics.median(s.wall_s for s in plain)
    summary = (f"setup_s={statistics.median(setup):.4f} s (median of {SETUP_REPEATS}) "
               f"wall_s={wall_s:.4f} s as measured "
               f"cpu={statistics.median(s.cpu_s for s in plain):.4f} s "
               f"calibration={statistics.median(session.calibration_s):.4f} s "
               f"(medians of {len(plain)} and {len(session.calibration_s)})")
    if not trace:
        metrics = {"cpu_s": statistics.median(cpu),
                   "peak_rss_mb": statistics.median(s.rss_mb for s in plain),
                   "setup_s": statistics.median(setup)}
        summary = (f"cpu_s={metrics['cpu_s']:.4f} s "
                   f"peak_rss_mb={metrics['peak_rss_mb']:.1f} MB {summary}")
        return metrics, summary
    if not traced:
        raise SystemExit("no traced invocation wrote its spans")
    layers = [layer_metrics(doc) for _, doc in traced]
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["tracing_overhead_s"] = statistics.median(s.wall_s for s, _ in traced) - wall_s
    spans_out.write_text(json.dumps({"environment": environment,
                                     "invocations": [doc for _, doc in traced],
                                     "per_layer": metrics}, indent=1))
    summary = (f"{len(traced)} traced invocations, tracing_overhead_s="
               f"{metrics['tracing_overhead_s']:.4f} s; spans in {spans_out}; {summary}")
    return metrics, summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the generated rosters (self-test only)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "panelrank" / "cli.py").is_file():
        print(f"error: no panelrank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = child_env()
    work = SCRATCH / f"work-{os.getpid()}"
    try:
        plan = workloads.build(args.workload, ROOT, work / "inputs", args.seed,
                               args.scale)
        environment = probe(env)
        print("environment: " + json.dumps(environment, sort_keys=True))
        session = Session(plan, work, env)
        spans_out = SCRATCH / f"spans_{args.workload}_seed{args.seed}.json"
        metrics, summary = measure(session, args.seconds, bool(args.trace), spans_out,
                                   environment)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = len(session.failures)
    print(f"{args.workload} seed={args.seed}: {summary} "
          f"error_rate={failed / session.attempted:.4f} ({failed}/{session.attempted})")
    print(json.dumps({
        "correct": failed == 0, "attempted": session.attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
