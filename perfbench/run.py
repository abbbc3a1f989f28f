"""Closed-loop benchmark of the qpl CLI, driven in-process.

Usage (from the repository root):

    python3 perfbench/run.py --workload weak-large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30

One client, no threads: each request is `qpl.cli.main(argv)` with stdout
captured, sent only after the previous one returned, cycling round-robin
through the workload's seeded request pool (see workloads.py).  Every
response is checked (see checks.py); a non-zero exit, an exception or a
failed check counts the request as failed.

With `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
it alternates untraced and traced cycles (see tracer.py) and reports the
per-layer metrics and the tracing overhead.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}; the lines
before it give every metric by name with unit and sample count.
"""

from __future__ import annotations

import os

# OpenBLAS sizes its thread pool when numpy is first imported, so pin it
# before anything imports numpy.  Child processes inherit the setting.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import workloads  # noqa: E402
from checks import check  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = HERE / "_run"  # generated configs and span files; ignored by git

SETUP_STARTS = 11  # fresh interpreters per run, spread over it; setup_s is their median
MIN_REQUESTS = 120  # so at least 10 samples lie beyond p90
READY = "perfbench: ready"

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def load_qpl():
    """Import qpl from this checkout's src/ and return (cli, weak, fock)."""
    if not (SRC / "qpl" / "cli.py").is_file():
        raise SystemExit(f"perfbench: qpl sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import qpl.cli
    import qpl.fock
    import qpl.weak

    if Path(qpl.cli.__file__).resolve().parent != SRC / "qpl":
        raise SystemExit(f"perfbench: imported qpl from {qpl.cli.__file__}, not from {SRC}")
    return qpl.cli, qpl.weak, qpl.fock


# --------------------------------------------------------------------------
# requests


def execute(cli, req, tracer=None):
    """Run one request; return (latency s, failure reason or None, check s)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = cli.main(list(req.argv))
            else:
                rc = tracer.request(cli.main, list(req.argv))
    except Exception as exc:  # a crash inside qpl is a failed request, not a crashed run
        return perf_counter() - start, f"raised {type(exc).__name__}: {exc}", 0.0
    latency = perf_counter() - start
    if rc != 0:
        return latency, f"exit {rc}: {err.getvalue().strip()[:200]}", 0.0
    reason = check(req, out.getvalue())
    return latency, reason, perf_counter() - start - latency


@dataclass
class Loop:
    """Outcome of one closed-loop run over a request pool."""

    latencies_ms: list[float] = field(default_factory=list)
    slots: list[str] = field(default_factory=list)  # cost class of each latency
    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    wall_s: float = 0.0  # loop wall time minus idle time (response checks, `between` calls)
    cpu_s: float = 0.0

    @property
    def throughput_rps(self) -> float:
        return (self.attempted - self.failed) / self.wall_s


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def closed_loop(cli, requests, seconds: float, min_requests: int, tracer=None,
                loop: Loop | None = None, between=None) -> Loop:
    """Send requests round-robin until `seconds` passed and `min_requests` ran.

    The loop stops only at the end of a whole cycle through `requests`, so
    every slot of the pool has the same weight in every statistic.  Results
    are added to `loop` when one is given.  `between(busy_s)` is called
    after each request with the loop's busy time so far; it returns the
    seconds it took, which, like the response checks, count as idle.
    """
    loop = Loop() if loop is None else loop
    done = 0
    idle = 0.0
    cpu0 = _cpu_seconds()
    t0 = perf_counter()
    while True:
        req = requests[done % len(requests)]
        latency, reason, spent = execute(cli, req, tracer)
        done += 1
        loop.attempted += 1
        idle += spent
        if reason is None:
            loop.latencies_ms.append(latency * 1e3)
            loop.slots.append(req.slot)
        else:
            loop.failed += 1
            loop.reasons.append(f"{req.slot} {' '.join(req.argv)[:120]}: {reason}")
        if between is not None:
            idle += between(perf_counter() - t0 - idle)
        busy = perf_counter() - t0 - idle
        if busy >= seconds and done >= min_requests and done % len(requests) == 0:
            break
    loop.wall_s += busy
    loop.cpu_s += _cpu_seconds() - cpu0
    return loop


# --------------------------------------------------------------------------
# set-up time


def setup_probe(workload: str, seed: int, workdir: Path) -> None:
    """Body of one fresh-interpreter start: import qpl, generate the inputs."""
    load_qpl()
    workloads.generate(workload, seed, workdir)
    print(READY, flush=True)


def measure_setup(workload: str, seed: int, starts: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to its inputs being ready."""
    times = []
    for i in range(starts):
        workdir = RUN_DIR / f"probe-{os.getpid()}-{i}"
        argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", str(workdir),
                "--workload", workload, "--seed", str(seed)]
        start = perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            ready = perf_counter() - start
            _, err = proc.communicate(timeout=120)
        shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0 or line.strip() != READY:
            raise SystemExit(f"perfbench: set-up probe failed ({proc.returncode}): {err.strip()}")
        times.append(ready)
    return times


# --------------------------------------------------------------------------
# the two kinds of run


def _p90_with_tail(samples: list[float]) -> tuple[float, int]:
    p90 = statistics.quantiles(samples, n=10)[8]
    return p90, sum(1 for x in samples if x > p90)


def run_end_to_end(workload: str, seed: int, seconds: float, lines: list[str]) -> tuple[dict, Loop]:
    cli, _, _ = load_qpl()
    setup_times: list[float] = []
    # The fresh starts are spread over the timed loop, one at the middle of
    # each SETUP_STARTS-th of it, so they see the same machine states as the
    # requests do.  Their time does not count as loop time.
    marks = [(i + 0.5) * seconds / SETUP_STARTS for i in range(SETUP_STARTS)]

    def start_between(busy_s: float) -> float:
        if len(setup_times) == len(marks) or busy_s < marks[len(setup_times)]:
            return 0.0
        start = perf_counter()
        setup_times.extend(measure_setup(workload, seed, 1))
        return perf_counter() - start

    with _inputs(workload, seed) as requests:
        _warm_up(cli, requests)
        loop = closed_loop(cli, requests, seconds, MIN_REQUESTS, between=start_between)
    setup_times.extend(measure_setup(workload, seed, SETUP_STARTS - len(setup_times)))
    if len(loop.latencies_ms) < MIN_REQUESTS:
        raise SystemExit(f"perfbench: only {len(loop.latencies_ms)} requests succeeded")
    p90, tail = _p90_with_tail(loop.latencies_ms)
    n = len(loop.latencies_ms)
    values = {
        "setup_s": statistics.median(setup_times),
        "throughput_rps": loop.throughput_rps,
        "req_p50_ms": statistics.median(loop.latencies_ms),
        "req_p90_ms": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    bytecode = os.environ.get("PYTHONDONTWRITEBYTECODE", "<unset>")
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh starts "
        f"[{', '.join(f'{t:.3f}' for t in setup_times)}]; PYTHONDONTWRITEBYTECODE={bytecode}",
        "throughput_rps": f"n={n} ok requests in {loop.wall_s:.2f} s busy; "
        f"cpu/wall {loop.cpu_s / (loop.wall_s or 1):.2f}",
        "req_p50_ms": f"n={n}",
        "req_p90_ms": f"n={n}, {tail} beyond",
        "peak_rss_mb": "ru_maxrss of the benchmark process",
    }
    for name, value in values.items():
        lines.append(f"{workload:12s} {name:16s} {value:12.4f} {END_TO_END_UNITS[name]:5s} "
                     f"({notes[name]})")
    lines.append(f"{workload:12s} {'error_rate':16s} {loop.failed / loop.attempted:12.4f} "
                 f"{'':5s} ({loop.failed}/{loop.attempted} failed)")
    by_slot: dict[str, list[float]] = {}
    for slot, ms in zip(loop.slots, loop.latencies_ms):
        by_slot.setdefault(slot, []).append(ms)
    for slot, samples in sorted(by_slot.items(), key=lambda kv: statistics.median(kv[1])):
        lines.append(f"{workload:12s}   class {slot:12s} {statistics.median(samples):9.2f} ms "
                     f"median, {len(samples) / n:6.1%} of requests")
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, loop


def run_traced(workload: str, seed: int, seconds: float, lines: list[str]) -> tuple[dict, Loop]:
    cli, weak, fock = load_qpl()
    tracer = Tracer()
    plain, traced = Loop(), Loop()
    with _inputs(workload, seed) as requests:
        _warm_up(cli, requests)
        start = perf_counter()
        # Alternate untraced and traced cycles so both see the same machine.
        while not plain.attempted or perf_counter() - start < seconds:
            closed_loop(cli, requests, 0, len(requests), loop=plain)
            tracer.install(cli, weak, fock)
            try:
                closed_loop(cli, requests, 0, len(requests), tracer, loop=traced)
            finally:
                tracer.uninstall()
    values = tracer.layer_metrics()
    units = dict(LAYER_METRICS)
    values["trace.overhead_pct"] = (plain.throughput_rps / traced.throughput_rps - 1) * 100
    units["trace.overhead_pct"] = "%"
    RUN_DIR.mkdir(exist_ok=True)
    span_file = RUN_DIR / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write_spans(span_file)
    for name, value in values.items():
        lines.append(f"{workload:12s} {name:26s} {value:14.4f} {units[name]:5s}")
    lines.append(f"{workload:12s} traced {tracer.requests} requests "
                 f"({traced.throughput_rps:.2f}/s vs {plain.throughput_rps:.2f}/s untraced); "
                 f"spans in {span_file.relative_to(ROOT)}")
    merged = Loop(attempted=plain.attempted + traced.attempted,
                  failed=plain.failed + traced.failed, reasons=plain.reasons + traced.reasons)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return metrics, merged


def _warm_up(cli, requests) -> None:
    """One untimed request of each cost class, so lazy imports are done."""
    first_of_class = list({req.slot: req for req in reversed(requests)}.values())
    closed_loop(cli, first_of_class, 0, len(first_of_class))


@contextlib.contextmanager
def _inputs(workload: str, seed: int):
    """The workload's requests, with their config files removed afterwards."""
    workdir = RUN_DIR / f"{workload}-seed{seed}-{os.getpid()}"
    try:
        yield workloads.generate(workload, seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    lines: list[str] = []
    runner = run_traced if trace else run_end_to_end
    metrics, loop = runner(workload, seed, seconds, lines)
    for reason in loop.reasons[:5]:
        print(f"perfbench: failed: {reason}", file=sys.stderr)
    print("\n".join(lines))
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in a fresh process so peak RSS is its own."""
    results = {}
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=600)
        out = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not out:
            print(f"perfbench: {workload} exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(out[:-1]), flush=True)
        results[workload] = json.loads(out[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=workloads.WORKLOADS)
    target.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed, Path(args.setup_probe))
        return 0
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.all:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
