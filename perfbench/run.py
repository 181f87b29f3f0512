"""Benchmark of specnorm: timed workloads checked against untimed oracles.

Usage (from the repository root):

    python3 perfbench/run.py --workload paired_c7 --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload with tracing off and prints the end-to-end
metrics; ``--trace 1`` prints the per-layer metrics of a traced replay.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's details (grades, host reference, source line counts, and
in trace mode every span).

A run

1. times a fixed loop of numpy FFTs (``host.fft_ref_s``, also at the end),
   so that host drift can be told apart from a regression;
2. measures ``setup_s``: fresh interpreters that import ``specnorm`` and
   build the workload's inputs, half of ``SETUP_PROBES`` before the timed
   calls and half after, reporting the median;
3. calls the workload until ``--seconds`` have passed, recording each
   call's wall time, then reads peak resident memory of this process and
   of its children (pool workers included);
4. in trace mode, replays the first call with one worker, untraced and
   then traced, and compares its outputs bit for bit with the timed call
   (spans in pool children would be lost);
5. grades every item against its oracle (see ``workloads.py``).

The program is imported from ``src/`` of the checkout holding this file;
without it the run exits with code 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import pickle
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
LAYERS = ("structured", "dft", "norms", "extremes", "sinekernel", "montecarlo", "cli")
SETUP_PROBES = 8
FFT_REF_LOOPS = 20_000

_PROBE = """\
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
w = workloads.full_size()[{name!r}]
w.config({seed!r}, 0, w.workers)
print("ready", flush=True)
"""


def fft_reference() -> float:
    """Seconds for a fixed loop of length-128 FFTs: a host-speed yardstick."""
    x = np.random.default_rng(0).standard_normal(128)
    t0 = time.perf_counter()
    for _ in range(FFT_REF_LOOPS):
        np.fft.fft(x)
    return time.perf_counter() - t0


def setup_seconds(name: str, seed: int, probes: int) -> list[float]:
    """Interpreter start to inputs built, once per fresh interpreter."""
    code = _PROBE.format(src=str(SRC), bench=str(BENCH_DIR), name=name, seed=seed)
    samples = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        samples.append(elapsed)
    return samples


def timed_calls(w, seed: int, workers: int, seconds: float | None = None,
                count: int | None = None) -> list:
    """Run calls 0, 1, ... for `seconds` of wall time, or exactly `count` calls."""
    from specnorm.montecarlo import ExperimentError

    from workloads import Call

    calls = []
    start = time.perf_counter()
    while (len(calls) < count) if count is not None else (time.perf_counter() - start < seconds):
        index = len(calls)
        t0 = time.perf_counter()
        try:
            outputs, items = w.call(seed, index, workers)
            call = Call(index, items, time.perf_counter() - t0, outputs)
        except ExperimentError as exc:
            call = Call(index, w.items_per_call(), time.perf_counter() - t0, error=str(exc),
                        refused=True)
        except Exception as exc:  # the run goes on; the items count as wrong
            traceback.print_exc()
            call = Call(index, w.items_per_call(), time.perf_counter() - t0, error=repr(exc))
        calls.append(call)
    return calls


def cpu_seconds(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN reports the largest child
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def source_lines() -> dict[str, int]:
    """Line count of every module of the package, keyed by module name."""
    return {path.stem: path.read_bytes().count(b"\n")
            for path in sorted((SRC / "specnorm").glob("*.py"))}


def bit_identical(a, b) -> bool:
    """Both calls succeeded with the same outputs, float bits included."""
    return (a.error is None and b.error is None
            and pickle.dumps(a.outputs) == pickle.dumps(b.outputs))


def grade_calls(w, seed: int, calls: list, mismatched: set[int]):
    """Grades of every item and the norm errors measured on the way."""
    from workloads import MISS, WRONG

    grades, errors = [], []
    for call in calls:
        if call.error is not None:
            grades += [MISS if call.refused else WRONG] * call.items
            continue
        call_grades, call_errors = w.check(seed, call)
        grades += [WRONG] * len(call_grades) if call.index in mismatched else call_grades
        errors += call_errors
    return grades, errors


def _quantile(values, q: float) -> float:
    return float(np.quantile(values, q)) if len(values) else 0.0


def _product_model(sizes: list[int]) -> tuple[float, float]:
    """Computed flops and bytes of the FFT products (a model, not a count).

    Per product of embedding size N: two complex FFTs at 5 N log2 N flops,
    the diagonal product and the sqrt(N) scaling at 8 N; ten passes over a
    complex array of N entries (16 N bytes each).
    """
    n = np.asarray(sizes, dtype=float)
    if not n.size:
        return 0.0, 0.0
    return float(np.sum(10 * n * np.log2(n) + 8 * n)), float(np.sum(160 * n))


def layer_metrics(tracer, spans: dict, errors: list[float], worker_util: float,
                  overhead: float, fft_ref: float, lines: dict[str, int]) -> dict[str, float]:
    def span(name, key):
        return spans[name][key] if name in spans else 0

    norm_steps = tracer.iterations.get("norms.spectral_norm_fast", [])
    flops, nbytes = _product_model(tracer.product_sizes)
    values = {
        "structured.build_symbol.self_s": span("structured.build_symbol", "self_s"),
        "structured.matvec.calls": span("structured.matvec", "calls"),
        "structured.rmatvec.calls": span("structured.rmatvec", "calls"),
        "structured.matvec.us_p50": span("structured.matvec", "p50_s") * 1e6,
        "structured.matvec.flops_computed": flops,
        "structured.matvec.bytes_computed": nbytes,
        "dft.dft_forward.calls": span("dft.dft_forward", "calls"),
        "dft.dft_inverse.calls": span("dft.dft_inverse", "calls"),
        "dft.convolve_full.calls": span("dft.convolve_full", "calls"),
        "dft.convolve_full.self_s": span("dft.convolve_full", "self_s"),
        "norms.spectral_norm_fast.self_s": span("norms.spectral_norm_fast", "self_s"),
        "norms.spectral_norm_fast.ms_p50": span("norms.spectral_norm_fast", "p50_s") * 1e3,
        "norms.spectral_norm_fast.ms_p90": span("norms.spectral_norm_fast", "p90_s") * 1e3,
        "norms.iterations.p50": _quantile(norm_steps, 0.5),
        "norms.iterations.p90": _quantile(norm_steps, 0.9),
        "norms.iterations.max": max(norm_steps, default=0),
        "norms.iterations.sum": sum(norm_steps),
        "norms.max_rel_err": max(errors, default=0.0),
        "extremes.b_statistic.us_p50": span("extremes.b_statistic", "p50_s") * 1e6,
        "extremes.b_statistic.self_s": span("extremes.b_statistic", "self_s"),
        "extremes.b_kernel.self_s": span("extremes.b_kernel", "self_s"),
        "sinekernel.k_estimate.self_s": span("sinekernel.k_estimate", "self_s"),
        "sinekernel.k_estimate.outer_iterations":
            sum(tracer.iterations.get("sinekernel.k_estimate", [])),
        "sinekernel.principal_right_singular.calls":
            span("sinekernel.principal_right_singular", "calls"),
        "sinekernel.principal_right_singular.iterations":
            sum(tracer.iterations.get("sinekernel.principal_right_singular", [])),
        "montecarlo.engine.self_s": sum(
            s["self_s"] for name, s in spans.items() if name.startswith("montecarlo.")),
        "montecarlo.worker_util": worker_util,
        "cli.main.self_s": span("cli.main", "self_s"),
        "trace.overhead_frac": overhead,
        "host.fft_ref_s": fft_ref,
    }
    values.update({f"{layer}.src_lines": lines.get(layer, 0) for layer in LAYERS})
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "specnorm" / "__init__.py").is_file():
        print(f"perfbench: no specnorm sources under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**32:
        print("perfbench: --seed must lie in [0, 2**32)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import specnorm

    if Path(specnorm.__file__).resolve().parent != SRC / "specnorm":
        print(f"perfbench: imported specnorm from {specnorm.__file__}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer

    w = workloads.full_size().get(args.workload)
    if w is None:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    fft_ref_start = fft_reference()
    setup = setup_seconds(w.name, args.seed, SETUP_PROBES // 2)

    cpu_who = resource.RUSAGE_CHILDREN if w.workers > 1 else resource.RUSAGE_SELF
    cpu0 = cpu_seconds(cpu_who)
    calls = timed_calls(w, args.seed, w.workers, seconds=args.seconds)
    wall = sum(call.wall for call in calls)
    worker_util = (cpu_seconds(cpu_who) - cpu0) / (w.workers * wall)
    rss = peak_rss_mib()
    items = sum(call.items for call in calls)
    setup += setup_seconds(w.name, args.seed, SETUP_PROBES - SETUP_PROBES // 2)

    # a repeated input must give bit-identical outputs, whatever the worker count
    mismatched = {c.index for c in calls[1:] if w.fixed_inputs and not bit_identical(c, calls[0])}
    detail: dict = {}
    if args.trace:
        (plain,) = timed_calls(w, args.seed, 1, count=1)
        with Tracer() as tracer:
            (traced,) = timed_calls(w, args.seed, 1, count=1)
        if not (bit_identical(plain, calls[0]) and bit_identical(traced, calls[0])):
            mismatched.add(0)
        spans = tracer.summary()
        detail["replay"] = {"untraced_wall_s": plain.wall, "traced_wall_s": traced.wall,
                            "self_s_sum": sum(s["self_s"] for s in spans.values())}
        detail["spans"] = spans

    grades, errors = grade_calls(w, args.seed, calls, mismatched)
    fft_ref_end = fft_reference()
    failed = sum(grade != workloads.OK for grade in grades)
    wrong = sum(grade == workloads.WRONG for grade in grades)
    lines = source_lines()

    if args.trace:
        metrics = layer_metrics(tracer, spans, errors, worker_util,
                                traced.wall / plain.wall - 1.0,
                                statistics.median([fft_ref_start, fft_ref_end]), lines)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {
            "items_per_s": {"value": items / wall, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mib": {"value": rss, "unit": "MiB"},
        }
    detail.update({
        "workload": w.name, "seed": args.seed, "inputs_from_seed": not w.fixed_inputs,
        "calls": len(calls), "items": items, "wall_s": wall,
        "call_walls_s": [c.wall for c in calls], "mismatched_calls": sorted(mismatched),
        "ok": grades.count(workloads.OK), "miss": grades.count(workloads.MISS), "wrong": wrong,
        "fail_frac": failed / max(len(grades), 1), "errors": [c.error for c in calls if c.error],
        "setup_samples_s": setup, "host.fft_ref_s": [fft_ref_start, fft_ref_end],
        "src_lines": lines, "src_lines_total": sum(lines.values()),
    })
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": wrong == 0 and len(grades) == items, "attempted": items,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
