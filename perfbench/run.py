"""Benchmark for flagcalc: run one workload and print its metrics.

    python3 perfbench/run.py --workload enumerate_cold --seed 1 --seconds 30 --trace 0

Run from anywhere inside a full checkout; the library is imported from
``src/`` in-process, in one thread.  Workloads (see workloads.py):

- enumerate_cold: a cold enumerate_two_bundles(20); ``dynkin.subdiagram``
  dominates it.
- drum_catalog: the drum, ledger and tags of all 164 catalogue entries of
  rank <= 12, cold; ``drum.weyl_dim`` dominates it.
- cli_mix: a seeded stream of small cli.main requests over warm caches;
  ``cli.build_parser`` sets its median and ``classify`` its tail.

Each workload repeats a fixed batch of ops for ``--seconds``.  The speed of
a shared VM (2 vCPUs) drifts by up to 1.7x, over spans from under a second
to minutes, so every time is calibrated: while each batch and each set-up
runs, a timer samples the machine's speed with a short stdlib-only loop
(calibration_loop, no flagcalc code; see Speedometer), and the measured
time is scaled to a machine on which that loop takes CALIBRATION_S.  A
change to flagcalc moves calibrated times in full; a change in the machine's
speed mostly cancels.  wall_s, ops_per_s, op_p50_ms and op_p99_ms are built
from each op's median calibrated latency over the run's batches (see
typical_latencies); on enumerate_cold the batch is one op, so there
op_p50_ms = op_p99_ms = 1000 * wall_s.  The info line gives the raw,
uncalibrated median batch wall time and percentiles of every latency sample,
where a tail regression shows, and the median calibration loop time.

With ``--trace 0`` the end-to-end metrics are measured with no tracing.
With ``--trace 1`` untraced batches alternate with batches in which every
public layer function is wrapped (tracer.py); the per-layer metrics are per
batch, and ``trace.overhead_frac`` compares the two kinds of batch.

The last stdout line is the result JSON; the line before it holds unmeasured
information (inputs, environment, failures).  ``--tiny`` shrinks every
workload for the self-test (selftest.py).
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
from fractions import Fraction
from time import perf_counter
from types import SimpleNamespace

import reference
from tracer import LAYERS, Tracer
from workloads import WORKLOADS, clear_caches

# Set-up is repeated, at least SETUP_RUNS times and for SETUP_SECONDS, and
# its median reported, because one import-and-warm is too short to time
# steadily on a shared machine.
SETUP_RUNS = 5
SETUP_SECONDS = 1.0

# Calibrated times are seconds on a machine on which calibration_loop takes
# this long: about its time on an unloaded 2-vCPU Xeon VM at 2.1 GHz with
# Python 3.11.  Only ratios between runs on one machine matter.
CALIBRATION_S = 150e-6
# The machine's speed is sampled this often while a batch or set-up runs;
# the samples take about 1% of the time.
SAMPLE_INTERVAL_S = 0.02

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("dynkin.subdiagram.calls", "count"),
    ("dynkin.subdiagram.self_s", "s"),
    ("dynkin.positive_roots.calls", "count"),
    ("dynkin.positive_roots.self_s", "s"),
    ("dynkin.positive_roots.hit_ratio", "ratio"),
    ("dynkin.automorphisms.hit_ratio", "ratio"),
    ("dynkin.pairing.calls", "count"),
    ("dynkin.self_s", "s"),
    ("homogeneous.contraction_fiber.calls", "count"),
    ("homogeneous.contraction_fiber.self_s", "s"),
    ("homogeneous.is_two_bundle_pair.calls", "count"),
    ("homogeneous.is_two_bundle_pair.repeat_ratio", "ratio"),
    ("homogeneous.is_two_bundle_pair.accept_ratio", "ratio"),
    ("homogeneous.dimension.self_s", "s"),
    ("homogeneous.self_s", "s"),
    ("drum.weyl_dim.calls", "count"),
    ("drum.weyl_dim.self_s", "s"),
    ("drum.weyl_dim.repeat_ratio", "ratio"),
    ("drum.self_s", "s"),
    ("classifier.homogeneous_tags.calls", "count"),
    ("classifier.homogeneous_tags.repeat_ratio", "ratio"),
    ("classifier.match_model.self_s", "s"),
    ("classifier.self_s", "s"),
    ("cli.build_parser.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.exit_nonzero", "count"),
    ("cli.uncaught", "count"),
    ("tags.calls", "count"),
    ("tags.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def import_api() -> SimpleNamespace:
    """Import a fresh copy of flagcalc, with empty caches, and return its layer modules."""
    for name in [n for n in sys.modules if n == "flagcalc" or n.startswith("flagcalc.")]:
        del sys.modules[name]
    return SimpleNamespace(**{layer: importlib.import_module(f"flagcalc.{layer}") for layer in LAYERS})


def calibration_loop() -> int:
    """A fixed mix of interpreter work like flagcalc's: small Fraction
    arithmetic, tuple-keyed dicts and sorting.  It calls nothing of flagcalc."""
    total, table = 0, {}
    for k in range(1, 40):
        value = Fraction(k, k + 1) + Fraction(1, k + 2)
        table[(k, k % 7)] = (value.numerator, str(k))
        total += len(sorted(table.get((k - 1, (k - 1) % 7), (0, "")), key=str))
    return total


class Speedometer:
    """Samples the machine's speed while timed code runs.

    A SIGALRM interval timer runs calibration_loop every SAMPLE_INTERVAL_S
    (and once on entry and on exit), with the collector off so that the size
    of flagcalc's heap does not enter it.  The code's work, in calibrated
    seconds, is its elapsed time less the samples' own time, times
    CALIBRATION_S and the mean of 1 / (loop time) over the samples: that mean
    is the machine's average speed over the interval, however it drifts.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # in samples taken between entry and exit

    def _sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        calibration_loop()
        self.samples.append(perf_counter() - start)
        if enabled:
            gc.enable()

    def _on_timer(self, *_) -> None:
        start = perf_counter()
        self._sample()
        self.spent += perf_counter() - start

    def __enter__(self) -> Speedometer:
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        self._sample()
        self.start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *_) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.elapsed = perf_counter() - self.start
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def scale(self) -> float:
        """The factor that turns seconds measured inside the interval into calibrated seconds."""
        speed = statistics.fmean(1 / t for t in self.samples)
        return (1 - self.spent / self.elapsed) * CALIBRATION_S * speed


def calibrated(timed):
    """Run ``timed`` under a Speedometer; return its result and the factor
    that turns the seconds measured in it into calibrated seconds."""
    with Speedometer() as speed:
        result = timed()
    return result, speed.scale()


def set_up(workload_cls, seed: int, tiny: bool):
    """Import a fresh copy of flagcalc, build the inputs and warm; return the
    calibrated set-up time and the workload."""
    # Free the previous copy of the package first, so that neither the timing
    # nor peak_rss_mb depends on when the collector last ran.
    gc.collect()

    def build():
        start = perf_counter()
        workload = workload_cls(import_api(), seed, tiny)
        workload.warm()
        return perf_counter() - start, workload

    (elapsed, workload), scale = calibrated(build)
    return elapsed * scale, workload


def run_batch(workload, tracer: Tracer | None = None):
    if workload.cold:
        clear_caches()
    if tracer is None:
        batch, batch.scale = calibrated(lambda: workload.run_batch(None))
        return batch
    tracer.reset()
    tracer.install()
    try:
        batch, batch.scale = calibrated(lambda: workload.run_batch(tracer))
    finally:
        tracer.uninstall()
    batch.layers = tracer.collect()
    return batch


def measure(workload, seconds: float, tracer: Tracer | None = None) -> tuple[list, list]:
    """Run whole batches until ``seconds`` have passed (at least one batch).

    With a tracer, untraced and traced batches alternate, so that both see
    the same machine conditions.
    """
    plain, traced = [], []
    start = perf_counter()
    while not plain or perf_counter() - start < seconds:
        plain.append(run_batch(workload))
        if tracer:
            traced.append(run_batch(workload, tracer))
    return plain, traced


def percentile(samples: list[float], p: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def typical_latencies(batches: list) -> list[float]:
    """Each op's median calibrated latency over the repetitions of the (fixed) batch."""
    return [
        statistics.median(samples)
        for samples in zip(*([t * b.scale for t in b.latencies] for b in batches))
    ]


def nearest_op(typical: list[float], labels: list[str], value: float) -> str:
    """The label of the op whose typical latency is nearest ``value``."""
    return labels[min(range(len(typical)), key=lambda k: abs(typical[k] - value))]


def end_to_end(setups: list[float], batches: list) -> dict[str, float]:
    typical = typical_latencies(batches)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(typical),
        "ops_per_s": batches[0].ops / sum(typical),
        "op_p50_ms": percentile(typical, 50) * 1e3,
        "op_p99_ms": percentile(typical, 99) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(plain: list, traced: list) -> dict[str, float]:
    def total(key: str) -> float:
        return sum(b.layers.get(key, 0) for b in traced)

    def share(num: str, den: str) -> float:
        base = total(den)
        return total(num) / base if base else 0.0

    metrics = {}
    for name, unit in PER_LAYER:
        stem, _, last = name.rpartition(".")
        if name == "trace.overhead_frac":
            value = sum(typical_latencies(traced)) / sum(typical_latencies(plain)) - 1
        elif name in ("cli.exit_nonzero", "cli.uncaught"):
            value = statistics.median_low(getattr(b, last) for b in traced)
        elif last == "hit_ratio":
            value = total(f"{stem}.hits") / ((total(f"{stem}.hits") + total(f"{stem}.misses")) or 1)
        elif last == "repeat_ratio":
            value = share(f"{stem}.repeats", f"{stem}.calls")
        elif last == "accept_ratio":
            value = share(f"{stem}.accepts", f"{stem}.calls")
        elif unit == "count":
            value = statistics.median_low(b.layers.get(name, 0) for b in traced)
        else:
            value = statistics.median(b.layers.get(name, 0.0) * b.scale for b in traced)
        metrics[name] = value
    return metrics


def attribution(traced: list) -> dict:
    """Where traced time goes: the top functions by self time, and, for
    request streams, each layer's share of the requests around the median."""
    wall = sum(b.wall_s for b in traced)
    functions = {
        key[: -len(".self_s")]: sum(b.layers[key] for b in traced) / wall
        for key in traced[0].layers
        if key.endswith(".self_s") and key.count(".") == 2
    }
    top = dict(sorted(functions.items(), key=lambda kv: -kv[1])[:5])
    info = {"top_self_share": {k: round(v, 4) for k, v in top.items()}}
    requests = sorted((r for b in traced for r in b.request_layers), key=lambda r: r[0])
    if requests:
        mid = len(requests) // 2
        window = requests[max(0, mid - len(requests) // 20) : mid + len(requests) // 20 + 1]
        latency = sum(r[0] for r in window)
        shares = {k: sum(r[1][k] for r in window) / latency for k in window[0][1]}
        shares["cli"] -= shares["cli.build_parser"]
        shares["cli (excluding build_parser)"] = shares.pop("cli")
        info["median_request_share"] = {
            k: round(v, 4) for k, v in sorted(shares.items(), key=lambda kv: -kv[1])
        }
        info["median_request_count"] = len(window)
    return info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink the workload (self-test)")
    args = parser.parse_args(argv)

    missing = reference.missing_files()
    if missing:
        print(f"perfbench: not a flagcalc checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(reference.SRC))

    setups: list[float] = []
    while len(setups) < SETUP_RUNS or sum(setups) < SETUP_SECONDS:
        workload = None  # let set_up free the previous copy before building the next
        elapsed, workload = set_up(WORKLOADS[args.workload], args.seed, args.tiny)
        setups.append(elapsed)

    plain, traced = measure(workload, args.seconds, Tracer(workload.api) if args.trace else None)
    batches = plain + traced
    if args.trace:
        metrics = per_layer(plain, traced)
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end(setups, plain)
        units = dict(END_TO_END)

    attempted = sum(b.ops for b in batches)
    failed = sum(b.failed for b in batches)
    known = sum(b.known for b in batches)
    failures = sorted({f for b in batches for f in b.failures})
    typical = typical_latencies(plain)
    samples = [s for b in plain for s in b.latencies]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "inputs": workload.summary(),
        "batches": len(plain),
        "traced_batches": len(traced),
        "latency_samples": len(plain[0].latencies),
        "median_batch_wall_s": statistics.median(b.wall_s for b in plain),
        "all_samples": len(samples),
        "all_samples_p50_ms": percentile(samples, 50) * 1e3,
        "all_samples_p99_ms": percentile(samples, 99) * 1e3,
        "p50_op": nearest_op(typical, workload.labels, percentile(typical, 50)),
        "p99_op": nearest_op(typical, workload.labels, percentile(typical, 99)),
        "median_calibration_loop_us": statistics.median(CALIBRATION_S / b.scale for b in plain) * 1e6,
        "setup_runs": len(setups),
        "fail_frac": failed / attempted,
        "fail_base": attempted,
        "failed_known_malformed_input": known,
        "failures": failures[:10],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "src_lines": reference.src_line_count(),
    }
    if args.trace:
        info["attribution"] = attribution(traced)
    print(json.dumps({"info": info}, sort_keys=True))
    result = {
        # Only the documented malformed-input defect may fail; any other
        # failure is a wrong answer.
        "correct": failed == known,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
