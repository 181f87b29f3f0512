"""Self-test of the benchmark: every workload at toy size, and no vacuous oracle.

Run from the repository root with

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

TOY = workloads.toy_size()
SEED = 3


def _scale_sigma(draw, factor):
    code, text = draw
    (row,) = json.loads(text)
    row["sigma_max"] *= factor
    return code, json.dumps([row])


# results a sound oracle must reject, per workload
PERTURBED = {
    "paired_c7": lambda out: (out[0] * (1 + 1e-6) ** 2, out[1]),
    "toeplitz_large": lambda out: [_scale_sigma(draw, 1 - 1e-6) for draw in out],
    "ktable": lambda out: [replace(est, k_value=est.bracket_lo * (1 - 1e-6)) for est in out],
    "bstat_large": lambda out: (out[0] + 1e-7 * (out[0] + math.log(TOY["bstat_large"].n / 2)),),
}


@pytest.fixture(scope="module", params=sorted(TOY))
def toy_call(request):
    w = TOY[request.param]
    (call,) = run.timed_calls(w, SEED, 1, count=1)
    return w, call


def test_toy_run_meets_its_oracle(toy_call):
    w, call = toy_call
    assert call.error is None
    grades, _ = run.grade_calls(w, SEED, [call], set())
    assert len(grades) == call.items >= 1
    # norms may miss 1e-8 (the known power-iteration shortfall), nothing worse
    assert workloads.WRONG not in grades


def test_oracle_rejects_perturbed_result(toy_call):
    w, call = toy_call
    grades, _ = w.check(SEED, replace(call, outputs=PERTURBED[w.name](call.outputs)))
    assert grades and workloads.OK not in grades


def test_ktable_rejects_k_off_the_c1_table():
    w = TOY["ktable"]
    (call,) = run.timed_calls(w, SEED, 1, count=1)
    shifted = [replace(est, k_value=est.k_value - 0.003, bracket_lo=est.bracket_lo - 0.003)
               for est in call.outputs]
    grades, _ = w.check(SEED, replace(call, outputs=shifted))
    assert workloads.OK not in grades


def test_ktable_rejects_square_row_off_the_c2_anchor():
    w = TOY["ktable"]
    (call,) = run.timed_calls(w, SEED, 1, count=1)
    # 1e-4 relative: inside the 0.002 table tolerance, outside the 1e-5 anchor tolerance
    nudged = [
        replace(est, k_value=est.k_value * (1 + 1e-4), bracket_hi=est.bracket_hi * (1 + 1e-4))
        if est.p == est.n else est
        for est in call.outputs
    ]
    grades, _ = w.check(SEED, replace(call, outputs=nudged))
    assert [g for est, g in zip(nudged, grades) if est.p == est.n] == [workloads.WRONG]
    assert [g for est, g in zip(nudged, grades) if est.p != est.n] == [workloads.OK] * 4


def test_rerun_mismatch_fails_every_item(toy_call):
    w, call = toy_call
    grades, _ = run.grade_calls(w, SEED, [call], {call.index})
    assert set(grades) == {workloads.WRONG}


@pytest.mark.parametrize("name", ["paired_c7", "toeplitz_large"])
def test_pool_and_serial_runs_are_bit_identical(name):
    w = TOY[name]
    (serial,) = run.timed_calls(w, SEED, 1, count=1)
    (pooled,) = run.timed_calls(w, SEED, 2, count=1)
    assert serial.items == pooled.items == w.items_per_call()
    assert run.bit_identical(serial, pooled)


def test_bit_identity_tells_one_ulp_apart():
    (call,) = run.timed_calls(TOY["paired_c7"], SEED, 1, count=1)
    nudged = replace(call, outputs=(np.nextafter(call.outputs[0], 0), call.outputs[1]))
    assert not run.bit_identical(call, nudged)


def test_traced_replay_reports_every_per_layer_metric():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    tracer = Tracer()
    with tracer:
        calls = [run.timed_calls(w, SEED, 1, count=1)[0] for w in TOY.values()]
    assert all(call.error is None for call in calls)
    spans = tracer.summary()
    for span, stats in spans.items():
        assert stats["calls"] > 0, span
        assert 0.0 <= stats["self_s"] <= stats["total_s"] + 1e-9
    metrics = run.layer_metrics(tracer, spans, [0.0], 1.0, 0.1, 0.2, run.source_lines())
    assert sorted(metrics) == sorted(m["name"] for m in spec["per_layer"])
    assert metrics["norms.iterations.sum"] == sum(tracer.iterations["norms.spectral_norm_fast"])
    # wrappers are gone once the tracer exits
    import specnorm.structured

    assert specnorm.structured.dft_forward is specnorm.dft.dft_forward
    assert specnorm.norms.matvec is specnorm.structured.matvec


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paired_c7", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
