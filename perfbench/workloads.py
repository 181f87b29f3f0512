"""The four benchmark workloads: their inputs, timed calls and untimed oracles.

Each workload drives a public entry point of ``specnorm`` the way a user
does and splits its work into *calls*. A call returns its outputs and the
number of work items it finished; ``check`` then grades every item against
an independent oracle, outside the timed region.

An item's grade is one of

* ``OK``    - the result meets its oracle;
* ``MISS``  - a norm below the dense SVD by more than 1e-8, or a run refused
              for non-convergence: the known shortfall of the power-iteration
              solver, whose Rayleigh estimate can only stop short of the norm;
* ``WRONG`` - anything else: an error raised, a norm above the dense SVD, a
              bound violated by the exact norm, a constant outside its
              bracket, a mismatch between reruns.

Both MISS and WRONG count as failed items; only WRONG marks a run incorrect.

Only ``bstat_large`` draws its inputs from the benchmark seed. The other
three repeat one fixed input in every call (``fixed_inputs``): ``ktable``
has no random input, and under the current power iteration the cost of a
norm depends so much on the draw (50-replicate C7 calls took 2.2 to 8.5 s
on five seeds; Toeplitz 1000 x 10000 draws took 57 to 16 839 iterations)
that a seed-drawn input would make the rate measure the draw, not the code.
Their inputs are the paper's own: the C7 experiment at seed 101 and the
Toeplitz draw at seed 7. Repeating an input also checks that every call
returns bit-identical outputs.

Entry points are looked up on their module at call time, so the tracer's
wrappers (see ``tracing.py``) take effect. The oracles cache the dense
norms and weights they compute, since every call reuses them.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

import specnorm.cli
import specnorm.extremes
import specnorm.montecarlo
import specnorm.sinekernel

OK, MISS, WRONG = "ok", "miss", "wrong"

# fast-vs-dense agreement every replicate must reach (ROADMAP correctness aim)
SIGMA_RTOL = 1e-8
# slack of the per-draw inequality sigma^2 >= p * b (as in the C7 criterion)
BOUND_SLACK = 1e-9
B_RTOL = 1e-9

# C1: limiting constants of the scaled Toeplitz norm (paper, Table 1)
K_TABLE = {0.10: 0.996, 0.25: 0.980, 0.50: 0.935, 0.75: 0.882, 1.00: 0.829}
K_TABLE_TOL = 0.002
# C2: K(1)^2 to 24 digits, and the tolerance of the square-ratio row
K_SQUARED_ANCHOR = 0.686981293033114600949413
K_ANCHOR_TOL = 1e-5

# bstat_large: replicate streams of call i use base seed (seed + i * 2**32)
_CALL_STRIDE = 2**32


@dataclass
class Call:
    """Outputs of one timed call; `error` is set when the call raised."""

    index: int
    items: int
    wall: float
    outputs: object = None
    error: str | None = None
    refused: bool = False  # raised for non-convergence (ExperimentError)


def _worst(grades: list[str]) -> str:
    if WRONG in grades:
        return WRONG
    return MISS if MISS in grades else OK


def _sigma_grade(fast: float, dense: float) -> tuple[str, float]:
    rel = abs(fast - dense) / dense
    if rel <= SIGMA_RTOL:
        return OK, rel
    return (MISS if fast < dense else WRONG), rel


def _philox_normals(seed: int, replicate: int, count: int) -> np.ndarray:
    # same stream as specnorm.structured.replicate_stream, rebuilt here so the
    # oracle does not run the code it checks
    key = np.array([seed, replicate], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal(count)


@functools.lru_cache(maxsize=None)
def _dense_sigma(seed: int, replicate: int, size: int, p: int, n: int) -> float:
    """Largest singular value of the p x n corner of the circulant whose first
    row is the draw (seed, replicate) of length `size`."""
    first_row = _philox_normals(seed, replicate, size)
    rows = np.arange(p)[:, None]
    cols = np.arange(n)[None, :]
    dense = first_row[(cols - rows) % size]
    return float(np.linalg.svd(dense, compute_uv=False)[0])


@functools.lru_cache(maxsize=1)
def _projection_weights(p: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    w = specnorm.extremes.kernel_from_projection(p, n)
    return w, np.fft.rfft(w)


class Workload:
    name = ""
    workers = 1
    fixed_inputs = True  # every call solves the same input, whatever the seed

    def config(self, seed: int, index: int, workers: int):
        """Inputs of call `index`; building the first one is the set-up cost."""
        raise NotImplementedError

    def call(self, seed: int, index: int, workers: int) -> tuple[object, int]:
        raise NotImplementedError

    def items_per_call(self) -> int:
        raise NotImplementedError

    def check(self, seed: int, call: Call) -> tuple[list[str], list[float]]:
        """Grades of the call's items plus the norm errors it measured."""
        raise NotImplementedError


class PairedC7(Workload):
    """C7 paired bound experiment: per-draw sigma^2 against its lower bound."""

    name = "paired_c7"
    draw_seed = 101
    workers = 2
    tol = 1e-10
    max_iter = 100_000

    def __init__(self, p=64, n=128, replicates=100):
        self.p, self.n, self.replicates = p, n, replicates

    def items_per_call(self):
        return self.replicates

    def config(self, seed, index, workers):
        return specnorm.montecarlo.ExperimentConfig(
            family="circulant", p=self.p, n=self.n, replicates=self.replicates,
            base_seed=self.draw_seed, statistics=("scaled_norm",), workers=workers,
            norm_tol=self.tol, norm_max_iter=self.max_iter,
        )

    def call(self, seed, index, workers):
        rep = specnorm.montecarlo.paired_bound_experiment(self.config(seed, index, workers))
        # fewer than 1000 replicates: any exclusion raises, so rows are replicates
        return (rep.sigma_sq, rep.bounds), rep.count

    def check(self, seed, call):
        sigma_sq, bounds = call.outputs
        grades, errors = [], []
        for r in range(self.replicates):
            dense = _dense_sigma(self.draw_seed, r, self.n, self.p, self.n)
            grade, rel = _sigma_grade(math.sqrt(sigma_sq[r]), dense)
            if sigma_sq[r] < bounds[r] - BOUND_SLACK:
                # the exact norm violating it means the bound itself is wrong
                grade = _worst([grade, WRONG if dense**2 < bounds[r] - BOUND_SLACK else MISS])
            grades.append(grade)
            errors.append(rel)
        return grades, errors


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and standard output of one in-process command line run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = specnorm.cli.main(argv)
    return code, out.getvalue()


class ToeplitzLarge(Workload):
    """Large Toeplitz norms through the command line, one per worker process.

    A call runs `draws` identical ``norm`` commands, spread over the worker
    processes, or one after another in this process with one worker.
    """

    name = "toeplitz_large"
    draw_seed = 7
    workers = 2
    draws = 2

    def __init__(self, p=1000, n=10000):
        self.p, self.n = p, n

    def items_per_call(self):
        return self.draws

    def config(self, seed, index, workers):
        return ["norm", "--family", "toeplitz", "--p", str(self.p), "--n", str(self.n),
                "--seed", str(self.draw_seed), "--format", "json"]

    def call(self, seed, index, workers):
        commands = [self.config(seed, index, workers)] * self.draws
        if workers == 1:
            return [_run_cli(argv) for argv in commands], self.draws
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_cli, commands)), self.draws

    def check(self, seed, call):
        # symbol (a_0..a_{n-1}, a_{-p}..a_{-1}) of a (p+n)-point circulant
        dense = _dense_sigma(self.draw_seed, 0, self.p + self.n, self.p, self.n)
        grades, errors = [], []
        for code, text in call.outputs:
            try:
                (row,) = json.loads(text)
                sigma = float(row["sigma_max"])
                converged = row["converged"] is True
            except (ValueError, KeyError, TypeError):
                grades.append(WRONG)
                errors.append(math.inf)
                continue
            grade, rel = _sigma_grade(sigma, dense)
            if code != 0 or not converged:
                grade = _worst([grade, MISS if code == 2 else WRONG])
            grades.append(grade)
            errors.append(rel)
        return grades, errors


class KTable(Workload):
    """Limiting-constant table on the C1 ratios by continuation from p_base."""

    name = "ktable"
    p_step = 10
    ratios = (1.0, 0.75, 0.5, 0.25, 0.1)

    def __init__(self, p_base=2000):
        self.p_base = p_base

    def items_per_call(self):
        return len(self.ratios)

    def config(self, seed, index, workers):
        return list(self.ratios)

    def call(self, seed, index, workers):
        rows = specnorm.sinekernel.k_table(
            self.config(seed, index, workers), p_base=self.p_base, p_step=self.p_step
        )
        return rows, len(rows)

    def check(self, seed, call):
        grades = []
        for est in call.outputs:
            ok = (
                est.converged
                and est.bracket_lo <= est.k_value <= est.bracket_hi
                and est.k_value >= math.sqrt(1.0 - est.p / (3.0 * est.n))
                and abs(est.k_value - K_TABLE[round(est.ratio, 2)]) <= K_TABLE_TOL
            )
            if est.p == est.n:
                ok = ok and abs(est.k_value**2 - K_SQUARED_ANCHOR) <= K_ANCHOR_TOL
            grades.append(OK if ok else WRONG)
        grades += [WRONG] * (len(self.ratios) - len(call.outputs))
        return grades, []


class BStatLarge(Workload):
    """Lower-bound statistic alone over many large Gaussian circulant draws."""

    name = "bstat_large"
    fixed_inputs = False
    workers = 2

    def __init__(self, p=16384, n=65536, replicates=200):
        self.p, self.n, self.replicates = p, n, replicates

    def items_per_call(self):
        return self.replicates

    def config(self, seed, index, workers):
        return specnorm.montecarlo.ExperimentConfig(
            family="circulant", p=self.p, n=self.n, replicates=self.replicates,
            base_seed=seed + index * _CALL_STRIDE, statistics=("b_statistic",),
            workers=workers,
        )

    def call(self, seed, index, workers):
        samples, _ = specnorm.montecarlo.collect_samples(self.config(seed, index, workers))
        return (samples["b_statistic"],), samples["b_statistic"].size

    def check(self, seed, call):
        (centered,) = call.outputs
        base = seed + call.index * _CALL_STRIDE
        w, w_hat = _projection_weights(self.p, self.n)
        n, half = self.n, self.n // 2
        w_reversed = w[::-1]
        grades = []
        for r in range(self.replicates):
            # squared moduli of the unitary DFT of the real draw (an even sequence)
            folded = np.abs(np.fft.rfft(_philox_normals(base, r, n))) ** 2 / n
            power = np.concatenate([folded, folded[half - 1:0:-1]])
            forms = np.fft.irfft(w_hat * np.fft.rfft(power), n)
            j = int(np.argmax(forms[: half + 1]))
            # direct O(n) form at j: sum_k w[(j - k) mod n] * power[k]
            direct = float(np.roll(w_reversed, j + 1) @ power) / self.p
            value = centered[r] + math.log(n / 2.0)
            grades.append(OK if abs(value - direct) <= B_RTOL * abs(direct) else WRONG)
        return grades, []


def full_size() -> dict[str, Workload]:
    return {w.name: w for w in (PairedC7(), ToeplitzLarge(), KTable(), BStatLarge())}


def toy_size() -> dict[str, Workload]:
    """The same workloads at sizes that finish in about a second each."""
    return {
        w.name: w
        for w in (
            PairedC7(p=8, n=16, replicates=10),
            ToeplitzLarge(p=20, n=200),
            KTable(p_base=1000),
            BStatLarge(p=16, n=64, replicates=20),
        )
    }
