"""Replication benchmark for udnsync.

    python3 perfbench/run.py --workload exchange-narrow --seed 1 --seconds 35 --trace 0

Each workload runs as a closed loop: one process, one client, one
replication after another, no added threads. A replication is
``run_experiment`` plus ``emit_csv`` on one sweep point (see
``workloads.py``); every replication's row is checked against the
invariants in ``workloads.check_rows``.

Times are reported in calibrated seconds: each replication's wall time
is scaled by the speed of a fixed kernel timed around it
(``calibration.py``), so contention from other tenants of a shared host
does not move them. Raw wall figures are printed and saved beside them.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced replications of the same seeds and prints the
per-layer metrics (``tracing.py``). The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the run's details and machine
facts, which are also written to ``perfbench/results/``.

``reference.json`` holds the sha256 of each workload's reference-seed
``emit_csv`` bytes; every run prints its own as ``digest``. A labelled
change to the simulator's results copies the printed digest into it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import source
from calibration import IMPORT_REFERENCE_S, REFERENCE_S, kernel_seconds
from tracing import (PER_LAYER, Tracer, hooks, layer_metrics, layer_shares,
                     unseen_hooks)

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
REFERENCE = HERE / "reference.json"

# A run goes on past --seconds until it has this many replications, so
# the tail percentile always has samples beyond it and the traced counts
# cover a prefix every run of a seed completes.
MIN_REPLICATIONS = 11
# ...but never past this many seconds of measuring.
MAX_SECONDS = 120.0
SETUP_PROBES = 11

# (name, unit, better); mirrored by "end_to_end" in BENCHMARK.json
END_TO_END = (
    ("replication_p50_s", "s", "lower"),
    ("replication_tail_s", "s", "lower"),
    ("replications_per_s", "1/s", "higher"),
    ("peak_rss_mib", "MiB", "lower"),
    ("setup_s", "s", "lower"),
)


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest nearest-rank percentile with at
    least ten samples above it, or the maximum when there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


class SetupProbes:
    """Fresh-interpreter set-up times, wall and calibrated by each probe's
    own numpy import (``IMPORT_REFERENCE_S`` in ``calibration.py``).

    The probes are spread evenly over the loop, so that they sample its
    contention phases rather than one moment of it. One unrecorded probe
    warms the file cache and the bytecode cache first.
    """

    def __init__(self, workload: str):
        self.command = [sys.executable, str(HERE / "setup_probe.py"), workload]
        self.wall: list[float] = []
        self.calibrated: list[float] = []
        self.numpy: list[float] = []    # seconds of each probe's numpy import
        self._probe()

    def _probe(self) -> tuple[float, float]:
        done = subprocess.run(self.command, capture_output=True, text=True,
                              check=True, timeout=60, cwd=source.ROOT)
        seconds, numpy_seconds = map(float, done.stdout.split())
        return seconds, numpy_seconds

    def due(self, fraction: float) -> bool:
        """Whether the next probe is due ``fraction`` of the way through."""
        taken = len(self.wall)
        return taken < SETUP_PROBES and taken <= fraction * SETUP_PROBES

    def take(self) -> None:
        seconds, numpy_seconds = self._probe()
        self.wall.append(seconds)
        self.numpy.append(numpy_seconds)
        self.calibrated.append(seconds * IMPORT_REFERENCE_S / numpy_seconds)

    def finish(self) -> None:
        while len(self.wall) < SETUP_PROBES:
            self.take()


def machine_facts() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v, "unset") for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout; 'unknown' when it is not a git repository.
    The ceiling keeps git from looking above the checkout for one."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=source.ROOT, capture_output=True,
            text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(source.ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


@dataclass
class Loop:
    """What the closed loop measured; one entry per replication."""

    seconds: list[float]    # wall seconds of each (traced) replication
    untraced: list[float]   # traced runs: the same replications untraced
    cycles: list[float]     # wall seconds per iteration, calibration excluded
    scale: list[float]      # REFERENCE_S over the kernel seconds around it
    failures: list[str]
    wall: float

    def calibrated(self, values: list[float]) -> list[float]:
        return [v * f for v, f in zip(values, self.scale)]


def measure(args, workloads, template, csv_path, tracer=None,
            probes: SetupProbes | None = None) -> Loop:
    def timed(spec):
        t0 = perf_counter()
        rows = workloads.replicate(spec, csv_path)
        return perf_counter() - t0, rows

    loop = Loop([], [], [], [], [], 0.0)
    start = perf_counter()
    kernel_before = kernel_seconds()
    probing = 0.0   # seconds in set-up probes, kept off the loop's clock
    i = 0
    while True:
        elapsed = perf_counter() - start - probing
        if elapsed >= args.seconds and (i >= MIN_REPLICATIONS or elapsed >= MAX_SECONDS):
            break
        if probes is not None and probes.due(elapsed / args.seconds):
            probe_start = perf_counter()
            probes.take()
            kernel_before = kernel_seconds()
            probing += perf_counter() - probe_start
        cycle_start = perf_counter()
        spec = workloads.replication_spec(template, args.seed, i)
        if tracer is None:
            seconds, rows = timed(spec)
            loop.seconds.append(seconds)
            problems = workloads.check_rows(rows, spec)
        else:
            tracer.begin_replication(i)
            problems = []
            # alternate which side runs first so warm caches favour neither
            for traced in ((True, False) if i % 2 else (False, True)):
                if traced:
                    with hooks(tracer):
                        seconds, rows = timed(spec)
                    loop.seconds.append(seconds)
                else:
                    seconds, rows = timed(spec)
                    loop.untraced.append(seconds)
                problems += workloads.check_rows(rows, spec)
        if problems:
            loop.failures.append(f"replication {i}: " + "; ".join(problems))
        loop.cycles.append(perf_counter() - cycle_start)
        kernel_after = kernel_seconds()
        loop.scale.append(2.0 * REFERENCE_S / (kernel_before + kernel_after))
        kernel_before = kernel_after
        i += 1
    loop.wall = perf_counter() - start - probing
    if probes is not None:
        probes.finish()
    return loop


def main(argv=None) -> int:
    try:
        source.use_source_tree()
    except source.SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    RESULTS.mkdir(exist_ok=True)
    csv_path = RESULTS / f"{args.workload}.csv"
    workload = workloads.WORKLOADS[args.workload]
    template = workloads.template_spec(workload)

    probes = None if args.trace else SetupProbes(args.workload)

    # the reference replication doubles as the warm-up; traced runs make it
    # under hooks, so their digest also shows tracing leaves outputs alone
    if args.trace:
        with hooks(Tracer()) as warm:
            warm.begin_replication(0)
            digest = workloads.reference_digest(template, csv_path)
    else:
        digest = workloads.reference_digest(template, csv_path)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    matches = reference.get(args.workload) == digest

    tracer = Tracer() if args.trace else None
    loop = measure(args, workloads, template, csv_path, tracer, probes)
    attempted, failed = len(loop.scale), len(loop.failures)
    # a traced run is wrong when a hooked name was never called: its
    # layer would read zero
    unseen = unseen_hooks(tracer) if args.trace else []

    if args.trace:
        values = layer_metrics(tracer, loop.seconds, loop.untraced, loop.scale,
                               min(MIN_REPLICATIONS, attempted))
        units = {name: unit for name, unit, _ in PER_LAYER}
        tracer.write(RESULTS / f"{args.workload}.spans.npz")
        extra = {"shares": layer_shares(tracer, loop.seconds),
                 "spans": len(tracer.start), "unseen_hooks": unseen}
    else:
        calibrated = loop.calibrated(loop.seconds)
        tail_pct, tail_s = tail(calibrated)
        values = {
            "replication_p50_s": statistics.median(calibrated),
            "replication_tail_s": tail_s,
            "replications_per_s": attempted / sum(loop.calibrated(loop.cycles)),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(probes.calibrated),
        }
        units = {name: unit for name, unit, _ in END_TO_END}
        extra = {
            "replication_tail_percentile": tail_pct,
            "replication_samples": len(calibrated),
            "setup_samples": len(probes.calibrated),
            "setup_probes": {"seconds": probes.wall, "numpy_seconds": probes.numpy},
            "wall": {
                "replication_p50_s": statistics.median(loop.seconds),
                "replication_tail_s": tail(loop.seconds)[1],
                "replications_per_s": attempted / sum(loop.cycles),
                "setup_s": statistics.median(probes.wall),
            },
        }

    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "why": workload.why,
        "attempted": attempted, "failed": failed,
        "failed_fraction": failed / attempted, "failures": loop.failures[:20],
        "outputs_match_reference": matches, "digest": digest,
        "loop_seconds": loop.wall,
        "calibration_kernel_s": REFERENCE_S / statistics.median(loop.scale),
        **extra, "machine": machine_facts(), "metrics": metrics,
        "replication_seconds": loop.seconds, "scale": loop.scale,
    }
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2) + "\n", encoding="utf-8")
    detail.pop("replication_seconds")
    detail.pop("scale")

    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print(f"{args.workload} failed_fraction = {failed / attempted:.6g} "
              f"({failed} of {attempted})")
        print(f"{args.workload} replication_p50_s and replication_tail_s (p"
              f"{tail_pct:.4g}) are of {len(calibrated)} samples; "
              f"setup_s is the median of {len(probes.calibrated)}")
        print(f"{args.workload} wall figures: " + ", ".join(
            f"{k} = {v:.6g}" for k, v in extra["wall"].items()))
    print(f"{args.workload} outputs_match_reference = {matches}")
    if unseen:
        print(f"{args.workload} hooks never called: {', '.join(unseen)}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0 and not unseen, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
