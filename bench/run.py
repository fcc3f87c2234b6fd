#!/usr/bin/env python3
"""Benchmark of the `ctm` command line on seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload closure --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1

One closed-loop client in one process calls `ctm.cli.main(argv)` with
stdout captured, one operation after another, over a corpus generated
from the seed (see corpus.py), in whole passes until `--seconds` have
gone.  Every report is checked against the generator's known answer and
hashed; an operation whose report bytes differ from the first pass fails,
and a fresh interpreter with another hash seed must reproduce a sample of
them.  Times are scaled to a reference machine speed (see speed.py).

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
metrics of spans recorded around the layer calls (spans.py), alternating
untraced and traced passes to measure the tracing overhead.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
`--workload all` runs every workload in its own interpreter and prints
every metric by name, with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter
from typing import NamedTuple

import corpus
import spans
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = ".bench_work"  # generated inputs and span dumps, relative to ROOT

HASH_SEED = "0"
MIN_SAMPLES = 110  # at least ten operations lie beyond p90
MIN_PASSES = 3
SETUP_REPEATS = 9
REFERENCE_S = speed.REFERENCE_MS / 1e3

# imports only what the measurement needs, so ctm.cli pays for all of its own imports
SETUP_PROBE = """
import time, speed
refs = [speed.reference_seconds("objects") for _ in range(3)]
t0 = time.perf_counter()
import ctm.cli
ctm.cli.build_parser()
elapsed = time.perf_counter() - t0
refs += [speed.reference_seconds("objects") for _ in range(3)]
print(elapsed, *refs)
"""

DIGEST_PROBE = """
import contextlib, hashlib, io, json, sys
import ctm.cli
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        ctm.cli.main(argv)
    print(hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest())
"""


def _probe(code: str, hash_seed: str, *args: str) -> str:
    path = os.pathsep.join(p for p in (SRC, HERE, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return proc.stdout


def measure_setup() -> float:
    """Median time to import ctm.cli and build its parser, each in a fresh interpreter."""
    scaled = []
    for _ in range(SETUP_REPEATS):
        elapsed, *refs = map(float, _probe(SETUP_PROBE, HASH_SEED).split())
        scaled.append(elapsed * REFERENCE_S / statistics.median(refs))
    return statistics.median(scaled)


def run_op(call, argv: tuple[str, ...]) -> tuple[float, int | None, str, str | None]:
    """Time one operation from main(argv) to its returned exit status."""
    buf = io.StringIO()
    error = None
    rc = None
    with contextlib.redirect_stdout(buf):
        t0 = perf_counter()
        try:
            rc = call(list(argv))
        except SystemExit as e:
            error = f"exited with {e.code}"
        except Exception:
            error = traceback.format_exc()
        t1 = perf_counter()
    return t1 - t0, rc, buf.getvalue(), error


class Pass(NamedTuple):
    times: list[float]  # seconds inside main(), per operation
    scales: list[float]  # per operation: REFERENCE_S / kernel time around it
    report_bytes: int

    def scaled(self) -> list[float]:
        return [t * s for t, s in zip(self.times, self.scales)]


class Client:
    """Runs passes over one corpus and checks every report."""

    def __init__(self, ops, verify, kernel: str):
        self.ops = ops
        self.verify = verify
        self.kernel = kernel
        self.digests: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self, call) -> Pass:
        gc.collect()
        results, scales = [], []
        before = speed.reference_seconds(self.kernel)
        for op in self.ops:
            results.append(run_op(call, op.argv))
            after = speed.reference_seconds(self.kernel)
            scales.append(2 * REFERENCE_S / (before + after))
            before = after
        report_bytes = 0
        for i, (op, (_, rc, out, error)) in enumerate(zip(self.ops, results)):
            self.attempted += 1
            data = out.encode("utf-8")
            report_bytes += len(data)
            digest = hashlib.sha256(data).hexdigest()
            if len(self.digests) <= i:
                self.digests.append(digest)
            problem = error or self._check(op, rc, out)
            if problem is None and digest != self.digests[i]:
                problem = "report bytes differ from the first pass"
            if problem is not None:
                self.failed += 1
                self.problems.append(f"{' '.join(op.argv)}: {problem}")
        return Pass([r[0] for r in results], scales, report_bytes)

    def _check(self, op, rc, out: str) -> str | None:
        if rc != op.exit:
            return f"exit {rc}, expected {op.exit}"
        try:
            report = json.loads(out)
            return self.verify(op, report)
        except (ValueError, KeyError, IndexError, TypeError) as e:
            return f"unreadable report: {type(e).__name__}: {e}"

    def run_digest(self) -> str:
        return hashlib.sha256("".join(self.digests).encode("ascii")).hexdigest()

    def cross_check(self, seed: int) -> str | None:
        """Reproduce one report per expected exit status in a fresh interpreter
        with another hash seed; the smallest input of each status keeps it cheap."""
        picks: dict[int, int] = {}
        for i, op in enumerate(self.ops):
            j = picks.get(op.exit)
            if j is None or os.path.getsize(op.path) < os.path.getsize(self.ops[j].path):
                picks[op.exit] = i
        chosen = sorted(picks.values())
        argvs = json.dumps([list(self.ops[i].argv) for i in chosen])
        got = _probe(DIGEST_PROBE, str(1 + seed % 3), argvs).split()
        want = [self.digests[i] for i in chosen]
        if got != want:
            return f"reports differ in a fresh interpreter for ops {chosen}"
        return None


def p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10)[-1]


def measure(client: Client, call, seconds: float) -> dict[str, tuple[float, str]]:
    passes: list[Pass] = []
    start = perf_counter()
    while (
        perf_counter() - start < seconds
        or len(passes) < MIN_PASSES
        or len(passes) * len(client.ops) < MIN_SAMPLES
    ):
        passes.append(client.run_pass(call))
    n = len(client.ops)
    raw = [t for p in passes for t in p.times]
    scaled = [t for p in passes for t in p.scaled()]
    scale = statistics.median(s for p in passes for s in p.scales)
    print(f"passes {len(passes)}  latency samples {len(scaled)}  median speed scale {scale:.3f}")
    print(
        f"unscaled: latency p50 {statistics.median(raw) * 1e3:.3f} ms  p90 {p90(raw) * 1e3:.3f} ms  "
        f"throughput {statistics.median(n / sum(p.times) for p in passes):.3f} 1/s"
    )
    return {
        "latency_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "latency_p90_ms": (p90(scaled) * 1e3, "ms"),
        "throughput_ops_s": (statistics.median(n / sum(p.scaled()) for p in passes), "1/s"),
        "ok_share": ((client.attempted - client.failed) / client.attempted, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def measure_traced(client: Client, cli, timers, seconds: float, dump_path: str):
    """Alternate untraced and traced passes; per-layer metrics come from the traced ones."""
    tracer = spans.Tracer()
    traced_main = tracer.wrap("cli.main", cli.main)
    scale_of: dict[int, float] = {}
    plain = traced = 0.0
    traced_passes = report_bytes = 0
    origin = start = perf_counter()
    while perf_counter() - start < seconds or traced_passes < MIN_PASSES:
        plain += sum(client.run_pass(cli.main).scaled())
        first_op = tracer.op + 1
        tracer.install(cli, timers)
        try:
            p = client.run_pass(_numbered(tracer, traced_main))
        finally:
            tracer.uninstall()
        scale_of.update(zip(range(first_op, tracer.op + 1), p.scales))
        traced += sum(p.scaled())
        report_bytes += p.report_bytes
        traced_passes += 1
    tracer.dump(dump_path, origin)
    print(f"traced passes {traced_passes}  spans {len(tracer.spans)} written to {dump_path}")
    metrics = spans.layer_metrics(tracer.spans, scale_of, traced_passes, report_bytes)
    metrics["trace.overhead_share"] = ((traced - plain) / plain, "share")
    return metrics


def _numbered(tracer, traced_main):
    """Give each traced operation its own id, shared by all of its spans."""

    def call(argv):
        tracer.op += 1
        return traced_main(argv)

    return call


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "ctm", "cli.py")):
        print(f"error: no ctm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import ctm.cli
    import ctm.timers

    if not os.path.abspath(ctm.cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported ctm from {ctm.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    workdir = os.path.join(WORK, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    workload = corpus.WORKLOADS[args.workload]
    client = Client(workload.generate(random.Random(args.seed), workdir), workload.verify, workload.kernel)
    print(f"workload {args.workload}  seed {args.seed}  corpus {len(client.ops)} operations")

    if args.trace:
        metrics = measure_traced(
            client, ctm.cli, ctm.timers, args.seconds, os.path.join(workdir, "spans.jsonl")
        )
    else:
        metrics = measure(client, ctm.cli.main, args.seconds)
        metrics["setup_s"] = (measure_setup(), "s")
    mismatch = client.cross_check(args.seed)
    print(f"report digest {client.run_digest()}  ({len(client.digests)} reports)")
    for problem in ([mismatch] if mismatch else []) + client.problems[:5]:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:30s} {value:14.6g} {unit}")
    result = {
        "correct": client.failed == 0 and mismatch is None,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh interpreter, then one table of every metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in corpus.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    for metric, entry in combined["metrics"].items():
        print(f"{metric:40s} {entry['value']:14.6g} {entry['unit']}")
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*corpus.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # a pinned hash seed keeps set iteration order, and with it timing, the same run to run
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
