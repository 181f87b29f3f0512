import csv
import logging
import math
import multiprocessing
import os
import platform
import re
import signal
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import specnorm.montecarlo as mc
import specnorm.norms as norms
from specnorm.extremes import b_statistic, gumbel_quantile, theta_c
from specnorm.montecarlo import (
    ExperimentConfig,
    ExperimentError,
    collect_samples,
    n_for_ratio,
    paired_bound_experiment,
    run_experiment,
)
from specnorm.norms import scaled_norm, spectral_norm_fast, spectral_norms
from specnorm.structured import (
    DISTRIBUTIONS,
    MatrixSpec,
    ResourceLimitError,
    build_symbols,
    dense_materialize,
)

TINY = ExperimentConfig(
    family="circulant", p=16, n=32, replicates=40, base_seed=91, statistics=("scaled_norm",)
)


def test_single_replicate_summary_is_the_statistic():
    cfg = replace(TINY, replicates=1)
    spec = cfg.template_spec()
    sym = build_symbols(spec, [0])
    res = spectral_norm_fast(sym, spec, tol=cfg.norm_tol, max_iter=cfg.norm_max_iter)
    want = scaled_norm(res.sigma_max, spec)
    summary = run_experiment(cfg)["scaled_norm"]
    assert summary.count == 1
    assert summary.mean == want
    assert (summary.q05, summary.median, summary.q95) == (want, want, want)


def test_worker_count_does_not_change_results():
    serial = run_experiment(replace(TINY, workers=1))["scaled_norm"]
    pooled = run_experiment(replace(TINY, workers=8))["scaled_norm"]
    assert serial == pooled


def test_rerun_is_bit_identical():
    first = run_experiment(TINY)["scaled_norm"]
    second = run_experiment(TINY)["scaled_norm"]
    assert first == second


def test_quantiles_match_sort_oracle():
    rng = np.random.default_rng(123)
    values = rng.standard_normal(501)
    s = np.sort(values)
    summary = mc._summarize(values, excluded=0)
    for q, got in ((0.05, summary.q05), (0.5, summary.median), (0.95, summary.q95)):
        h = (s.size - 1) * q
        lo, hi = math.floor(h), math.ceil(h)
        want = s[lo] + (h - lo) * (s[hi] - s[lo])
        assert got == pytest.approx(want, abs=1e-12)


def test_exclusion_accounting(monkeypatch):
    # every fifth replicate reports non-convergence; lift the cap to watch
    # the bookkeeping instead of failing the run
    monkeypatch.setattr(mc, "_EXCLUSION_CAP", 1.0)

    def fake_replicate(cfg, block):
        r = np.array(block)
        return {"sigma_sq": (1.0 + r) ** 2, "steps": np.zeros(r.size, dtype=int),
                "residual": np.zeros(r.size), "converged": r % 5 != 0,
                "b": np.full(r.size, math.nan)}

    monkeypatch.setattr(mc, "_replicate", fake_replicate)
    cfg = replace(TINY, replicates=20)
    summary = run_experiment(cfg)["scaled_norm"]
    assert summary.count + summary.excluded == cfg.replicates
    assert summary.excluded == 4


def test_exclusion_cap_fails_experiment():
    cfg = replace(TINY, replicates=5, norm_max_iter=1)
    with pytest.raises(ExperimentError):
        run_experiment(cfg)


def test_raw_sink_schema(tmp_path):
    path = tmp_path / "raw.csv"
    cfg = replace(TINY, replicates=6, statistics=("scaled_norm", "centered_norm_sq"))
    run_experiment(cfg, raw_path=str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["replicate", "statistic", "value", "flag"]
    assert len(rows) == 1 + 6 * 2
    assert {row[3] for row in rows[1:]} == {"ok"}


def test_failed_experiment_leaves_every_raw_row_flagged(tmp_path):
    # rows are written before the exclusion cap is checked: the flags name what failed
    path = tmp_path / "raw.csv"
    cfg = ExperimentConfig(family="circulant", p=16, n=32, replicates=20, norm_max_iter=8)
    with pytest.raises(ExperimentError):
        collect_samples(cfg, raw_path=str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["replicate", "statistic", "value", "flag"]
    assert [row[:2] for row in rows[1:]] == [[str(r), "scaled_norm"] for r in range(20)]
    assert [row[3] for row in rows[1:]] == ["excluded"] * 20  # 8 steps certify none at p = 16


def test_square_ratio_scaled_median_envelope():
    cfg = ExperimentConfig(
        family="circulant", p=128, n=128, replicates=300, base_seed=14,
        statistics=("scaled_norm",), norm_tol=1e-6,
    )
    summary = run_experiment(cfg)["scaled_norm"]
    assert 0.95 <= summary.median <= 1.3


def test_centered_norm_median_small_scale():
    cfg = ExperimentConfig(
        family="circulant",
        p=64,
        n=64,
        replicates=500,
        base_seed=2,
        statistics=("centered_norm_sq",),
        norm_tol=1e-8,
    )
    summary = run_experiment(cfg)["centered_norm_sq"]
    # limiting median is -log log 2 ~ 0.3665 with a positive finite-size offset
    assert 0.1 < summary.median < 0.9


def test_b_only_statistics_skip_norm_solver():
    cfg = ExperimentConfig(
        family="circulant",
        p=32,
        n=64,
        replicates=50,
        base_seed=5,
        statistics=("b_statistic",),
        norm_max_iter=1,  # would fail every replicate if the solver ran
    )
    samples, excluded = collect_samples(cfg)
    assert excluded == 0
    assert samples["b_statistic"].size == 50


def test_paired_bound_small_smoke():
    cfg = ExperimentConfig(
        family="circulant", p=16, n=32, replicates=60, base_seed=8, statistics=("scaled_norm",)
    )
    report = paired_bound_experiment(cfg)
    assert report.count == 60
    assert report.violations == 0
    assert report.max_deficit <= 1e-9
    # each kept draw's centered b, bit for bit as the b_statistic samples give it
    samples, _ = collect_samples(replace(cfg, statistics=("b_statistic",)))
    assert report.b_statistic.tobytes() == samples["b_statistic"].tobytes()


@pytest.mark.parametrize("family", ["circulant", "reverse_circulant"])
@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("dist", DISTRIBUTIONS)
@pytest.mark.parametrize("p, n", [(3, 8), (16, 32)])
def test_paired_bound_holds_on_every_circulant_like_draw(family, symmetric, dist, p, n):
    # p b is a Rayleigh quotient of A A^T, whatever the entry law or layout
    cfg = ExperimentConfig(family=family, p=p, n=n, symmetric=symmetric, dist=dist,
                           replicates=10, base_seed=31)
    report = paired_bound_experiment(cfg)
    assert (report.count, report.violations) == (10, 0)
    spec = cfg.template_spec()
    dense = dense_materialize(build_symbols(spec, range(10)), spec)
    sigma_sq = np.linalg.svd(dense, compute_uv=False)[:, 0] ** 2
    assert np.all(report.bounds - sigma_sq <= 1e-12 * sigma_sq)


@pytest.mark.parametrize("family, symmetric", [
    ("toeplitz", False), ("toeplitz", True), ("hankel", False)])
def test_lower_bound_statistic_needs_a_circulant_like_draw(family, symmetric):
    with pytest.raises(ValueError, match="^the lower-bound statistic needs a circulant or "
                                         "reverse circulant$"):
        ExperimentConfig(family=family, p=8, n=16, symmetric=symmetric,
                         statistics=("b_statistic",))


@pytest.mark.parametrize("family", ["circulant", "reverse_circulant"])
def test_lower_bound_statistic_needs_an_even_column_count(family):
    with pytest.raises(ValueError, match="^the lower-bound statistic needs an even column count$"):
        ExperimentConfig(family=family, p=3, n=9, dist="rademacher",
                         statistics=("scaled_norm", "b_statistic"))


def test_paired_bound_worker_count_is_bit_identical():
    cfg = ExperimentConfig(
        family="circulant", p=16, n=32, replicates=30, base_seed=12, statistics=("scaled_norm",)
    )
    serial = paired_bound_experiment(replace(cfg, workers=1))
    pooled = paired_bound_experiment(replace(cfg, workers=2))
    assert serial.sigma_sq.tobytes() == pooled.sigma_sq.tobytes()
    assert serial.bounds.tobytes() == pooled.bounds.tobytes()


def test_n_for_ratio():
    assert [n_for_ratio(250, r) for r in (1.0, 0.3, 0.1)] == [250, 833, 2500]
    # a float ratio rounded below p/n still gives n: 7 / 0.07 is 99.99999999999999
    assert [n_for_ratio(7, 0.07), n_for_ratio(17, 0.34), n_for_ratio(2, 0.3)] == [100, 50, 6]
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            n_for_ratio(10, bad)


def test_paired_bound_qq_slope_square_ratio():
    cfg = ExperimentConfig(
        family="circulant", p=512, n=512, replicates=2000, base_seed=3,
        statistics=("b_statistic",),
    )
    samples, _ = collect_samples(cfg)
    values = np.sort(samples["b_statistic"])
    theta = theta_c(1.0)
    levels = (np.arange(values.size) + 0.5) / values.size
    theory = np.array([gumbel_quantile(q, theta) for q in levels])
    slope = float(np.polyfit(theory, values, 1)[0])
    assert 0.8 <= slope <= 1.2


def test_paired_bound_centered_median_half_ratio():
    cfg = ExperimentConfig(
        family="circulant", p=256, n=512, replicates=2000, base_seed=3,
        statistics=("b_statistic",),
    )
    samples, _ = collect_samples(cfg)
    median = float(np.median(samples["b_statistic"]))
    want = theta_c(0.5) - math.log(math.log(2.0))
    assert median == pytest.approx(want, abs=0.25)


def test_paired_bound_requires_gaussian_circulant():
    bad = replace(TINY, family="toeplitz")
    with pytest.raises(ValueError):
        paired_bound_experiment(bad)
    odd = ExperimentConfig(
        family="circulant", p=3, n=7, replicates=10, statistics=("scaled_norm",)
    )
    with pytest.raises(ValueError):
        paired_bound_experiment(odd)


def test_config_validation():
    with pytest.raises(ValueError):
        replace(TINY, statistics=("sigma",))
    # an empty tuple would draw every replicate for nothing, a string would be
    # read as its characters, a repeated name would write each raw row twice
    with pytest.raises(ValueError, match=r"^statistics must be a nonempty tuple .*, got \(\)$"):
        replace(TINY, statistics=())
    with pytest.raises(ValueError, match=r"^statistics must be a nonempty tuple .*'b_statistic'$"):
        replace(TINY, statistics="b_statistic")
    with pytest.raises(ValueError, match="^statistics name a statistic twice"):
        replace(TINY, statistics=("scaled_norm", "scaled_norm"))
    with pytest.raises(ValueError):
        replace(TINY, replicates=0)
    with pytest.raises(ValueError):
        replace(TINY, workers=0)
    with pytest.raises(ValueError, match="norm_tol"):
        replace(TINY, norm_tol=0.0)
    with pytest.raises(ValueError, match="norm_tol"):
        replace(TINY, norm_tol=math.nan)
    with pytest.raises(ValueError, match="norm_max_iter"):
        replace(TINY, norm_max_iter=0)
    with pytest.raises(ValueError):
        ExperimentConfig(family="circulant", p=3, n=9, statistics=("b_statistic",))


@pytest.mark.parametrize("field, value", [
    ("p", 16.0), ("n", 32.0), ("base_seed", 91.0), ("replicates", 2.5), ("replicates", True),
    ("workers", 2.0), ("norm_max_iter", 2.5)])
def test_config_refuses_a_non_integer_count_or_seed_by_name(field, value):
    name = "seed" if field == "base_seed" else field  # the seed of the template spec
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
        replace(TINY, **{field: value})


def test_config_refuses_a_single_column_before_any_solve():
    # every statistic is scaled by log n or centered at log(n/2)
    for stat in mc.STATISTICS:
        with pytest.raises(ValueError, match=r"n must be at least 2 .*got n=1"):
            ExperimentConfig(family="circulant", p=1, n=1, replicates=4, statistics=(stat,))


C7 = ExperimentConfig(family="circulant", p=64, n=128, replicates=100, base_seed=101)


def test_engine_records_equal_single_solves_bit_for_bit():
    spec = C7.template_spec()
    arrays = mc._collect(C7)
    for r in range(C7.replicates):
        sym = build_symbols(spec, [r])
        res = spectral_norm_fast(sym, spec, tol=C7.norm_tol, max_iter=C7.norm_max_iter)
        assert np.sqrt(arrays["sigma_sq"][r]).tobytes() == np.float64(res.sigma_max).tobytes()
        assert (arrays["steps"][r], arrays["converged"][r]) == (res.iterations, res.converged)
        assert arrays["residual"][r].tobytes() == np.float64(res.residual).tobytes()


# on 13 of these 40 draws, sqrt(sigma^2) squared misses sigma^2 as solved in the last bit
SOLVED = ExperimentConfig(family="circulant", p=30, n=70, replicates=40, base_seed=7)


def _solved_sigma_sq(cfg):
    spec = cfg.template_spec()
    sym = build_symbols(spec, range(cfg.replicates))
    return spectral_norms(sym, spec, cfg.norm_tol, cfg.norm_max_iter).values


def test_paired_sigma_sq_is_the_solvers_bit_for_bit():
    rep = paired_bound_experiment(SOLVED)
    assert rep.count == SOLVED.replicates
    assert rep.sigma_sq.tobytes() == _solved_sigma_sq(SOLVED).tobytes()


def test_centered_norm_sq_samples_take_sigma_sq_as_solved_bit_for_bit():
    cfg = replace(SOLVED, statistics=("centered_norm_sq",))
    samples, excluded = collect_samples(cfg)
    want = _solved_sigma_sq(cfg) / cfg.p - math.log(cfg.n / 2)
    assert excluded == 0
    assert samples["centered_norm_sq"].tobytes() == want.tobytes()


def _paired_bytes(cfg):
    rep = paired_bound_experiment(cfg)
    return rep.sigma_sq.tobytes(), rep.bounds.tobytes()


def test_block_size_and_workers_do_not_change_paired_arrays(monkeypatch):
    cfg = replace(C7, replicates=60)
    want = _paired_bytes(cfg)
    for rows in (1, 7, cfg.replicates):
        monkeypatch.setattr(mc, "_block_rows", lambda _cfg, rows=rows: rows)
        assert _paired_bytes(cfg) == want
    monkeypatch.undo()
    assert mc._block_rows(replace(cfg, workers=2)) == 30
    assert _paired_bytes(replace(cfg, workers=2)) == want


def test_a_block_takes_one_b_statistic_call(monkeypatch):
    shapes = []

    def counted(half, p, n):
        shapes.append((half.shape, n))
        return b_statistic(half, p, n)

    monkeypatch.setattr(mc, "b_statistic", counted)
    monkeypatch.setattr(mc, "_block_rows", lambda _cfg: 7)
    mc._collect(replace(C7, replicates=60, statistics=("b_statistic",)))
    assert shapes == [((7, 65), 128)] * 8 + [((4, 65), 128)]


def test_block_keeps_exclusions_per_row(monkeypatch):
    # rows of one block stop at different steps; the slowest hit max_iter
    monkeypatch.setattr(mc, "_EXCLUSION_CAP", 1.0)
    cfg = replace(TINY, replicates=24)
    steps = mc._collect(cfg)["steps"].tolist()
    # the last step before the slowest row's at which some row stops: a
    # checked step, so every row still running there failed its check in
    # the free run
    cap = max(s for s in steps if s < max(steps))
    assert min(steps) <= cap
    capped = replace(cfg, norm_max_iter=cap)
    assert mc._block_rows(capped) == capped.replicates
    arrays = mc._collect(capped)
    assert arrays["converged"].tolist() == [s <= cap for s in steps]
    assert arrays["steps"].tolist() == [min(s, cap) for s in steps]
    summary = run_experiment(capped)["scaled_norm"]
    assert summary.excluded == sum(s > cap for s in steps) >= 1
    assert summary.count + summary.excluded == capped.replicates


def test_small_block_budget_gives_one_row_blocks(monkeypatch):
    want = run_experiment(TINY)["scaled_norm"]
    monkeypatch.setattr(mc, "_BLOCK_BYTES", 1)
    assert mc._block_rows(TINY) == 1
    assert run_experiment(TINY)["scaled_norm"] == want
    monkeypatch.setattr(norms, "_BASIS_BYTES", 8 * TINY.p)
    with pytest.raises(ResourceLimitError):
        run_experiment(TINY)


def test_block_rows_read_only_the_embedding_replicates_and_workers():
    cfg = ExperimentConfig(family="circulant", p=500, n=1000, replicates=10_000, workers=2)
    rows = mc._block_rows(cfg)
    assert rows == 2**22 // (96 * 1000) == 43
    # a Krylov basis is not charged: neither the step cap nor the statistics move it
    for other in (replace(cfg, norm_max_iter=1), replace(cfg, norm_max_iter=100_000),
                  replace(cfg, statistics=("b_statistic",)),
                  replace(cfg, statistics=("scaled_norm", "b_statistic"))):
        assert mc._block_rows(other) == rows
    assert mc._block_rows(replace(cfg, replicates=41)) == 21  # an equal share per worker


def test_block_rows_of_the_benchmark_and_published_configs():
    # perfbench's paired_c7 and bstat_large as their timed runs set them (2 workers)
    paired_c7 = ExperimentConfig(family="circulant", p=64, n=128, replicates=100, workers=2,
                                 statistics=("scaled_norm", "b_statistic"))
    bstat_large = ExperimentConfig(family="circulant", p=16384, n=65536, replicates=200,
                                   workers=2, statistics=("b_statistic",))
    assert mc._block_rows(paired_c7) == 50
    assert mc._block_rows(bstat_large) == 1
    # the published Toeplitz sweep's p at ratio 0.5
    toeplitz = ExperimentConfig(family="toeplitz", p=500, n=1000, replicates=10_000, workers=2)
    assert mc._block_rows(toeplitz) > 1


def test_experiment_error_names_replayable_replicates():
    cfg = replace(TINY, replicates=8, norm_max_iter=1)
    with pytest.raises(ExperimentError) as exc:
        run_experiment(cfg)
    message = str(exc.value)
    assert message.startswith("8 of 8 replicates failed to converge")
    assert "(91, 0), (91, 1), (91, 2), (91, 3), (91, 4) and 3 more" in message
    # each named pair replays its replicate bit for bit, through the call the
    # message states, run as printed with spec the config's matrix at base_seed
    recipe = re.search(r"Each replays as (spectral_norm_fast\(.*\)) with spec the "
                       r"config's matrix at seed base_seed$", message).group(1)
    assert recipe == (f"spectral_norm_fast(build_symbols(spec, [replicate]), spec, "
                      f"tol={cfg.norm_tol!r}, max_iter={cfg.norm_max_iter!r})")
    spec = cfg.template_spec()  # the config's matrix at seed base_seed
    arrays = mc._collect(cfg)
    names = {"spectral_norm_fast": spectral_norm_fast, "build_symbols": build_symbols}
    pairs = re.findall(r"\((\d+), (\d+)\)", message)
    assert len(pairs) == 5
    for base_seed, r in pairs:
        assert int(base_seed) == spec.seed
        res = eval(recipe, names, {"spec": spec, "replicate": int(r)})
        assert not res.converged
        assert res.iterations == arrays["steps"][int(r)]
        assert res.residual == arrays["residual"][int(r)]
        assert res.sigma_max == np.sqrt(arrays["sigma_sq"][int(r)])


@pytest.fixture
def fresh_pool():
    """No worker pool before the test, and none left after it."""
    mc.shutdown_pool()
    yield
    mc.shutdown_pool()


def _worker_pids():
    return sorted(proc.pid for proc in multiprocessing.active_children())


def _exited(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


POOLED = replace(C7, replicates=40, workers=2)


def test_pooled_calls_reuse_the_workers(fresh_pool):
    want = _paired_bytes(replace(POOLED, workers=1))
    assert _paired_bytes(POOLED) == want
    first = _worker_pids()
    assert len(first) == 2
    assert _paired_bytes(POOLED) == want
    assert _worker_pids() == first


def test_new_worker_count_replaces_the_pool(fresh_pool):
    mc._collect(POOLED)
    old = _worker_pids()
    mc._collect(replace(POOLED, workers=3))
    new = _worker_pids()
    assert len(new) == 3 and not set(old) & set(new)
    assert all(_exited(pid) for pid in old)


def test_killed_worker_does_not_fail_the_next_call(fresh_pool):
    want = _paired_bytes(replace(POOLED, workers=1))
    mc._collect(POOLED)
    old = _worker_pids()
    os.kill(old[0], signal.SIGKILL)
    assert _paired_bytes(POOLED) == want
    # the broken pool is gone by now, whether that call or this one found it
    assert _paired_bytes(POOLED) == want
    assert not set(old) & set(_worker_pids())


def test_shutdown_pool_releases_the_workers(fresh_pool):
    mc._collect(POOLED)
    old = _worker_pids()
    mc.shutdown_pool()
    assert mc._POOL is None and all(_exited(pid) for pid in old)
    mc._collect(POOLED)
    assert not set(old) & set(_worker_pids())


def test_pool_that_breaks_in_its_first_call_raises(fresh_pool, monkeypatch):
    # a pool whose workers cannot start breaks in the call that started it
    monkeypatch.setattr(mc, "ProcessPoolExecutor", lambda max_workers, mp_context, initializer: (
        ProcessPoolExecutor(max_workers, mp_context, initializer=os._exit, initargs=(1,))))
    with pytest.raises(mc.BrokenProcessPool):
        mc._collect(POOLED)
    assert mc._POOL is None
    monkeypatch.undo()
    assert _paired_bytes(POOLED) == _paired_bytes(replace(POOLED, workers=1))


def test_worker_exception_leaves_the_pool_usable(fresh_pool, monkeypatch):
    # workers started after the patch refuse a basis past 4 vectors of 32 entries
    monkeypatch.setattr(norms, "_BASIS_BYTES", 8 * 32 * 4)
    small = replace(TINY, p=8, n=16, replicates=8, workers=2)
    mc._collect(small)
    pids = _worker_pids()
    with pytest.raises(ResourceLimitError):
        mc._collect(replace(small, p=32, n=64))
    sigma_sq = mc._collect(small)["sigma_sq"]
    assert sigma_sq.tolist() == mc._collect(replace(small, workers=1))["sigma_sq"].tolist()
    assert _worker_pids() == pids


def test_pool_starts_no_more_workers_than_blocks(fresh_pool, caplog):
    # a forked pool starts every worker at its first submit
    caplog.set_level(logging.INFO, logger=mc.__name__)
    cfg = ExperimentConfig(family="circulant", p=4, n=8, replicates=2, workers=4)
    want = mc._collect(replace(cfg, workers=1))
    caplog.clear()
    got = mc._collect(cfg)
    assert len(_worker_pids()) == 2 and mc._POOL[0] == (os.getpid(), 2)
    assert "2 replicates in 2 blocks, 2 workers, pool started" in caplog.text
    assert got["sigma_sq"].tobytes() == want["sigma_sq"].tobytes()
    # a call with more blocks starts a larger pool, and a later call with
    # fewer blocks runs on it, since its workers already run
    mc._collect(replace(cfg, replicates=8))  # 4 blocks of 2
    larger = _worker_pids()
    caplog.clear()
    assert mc._collect(cfg)["sigma_sq"].tobytes() == want["sigma_sq"].tobytes()
    assert "2 blocks, 4 workers, pool reused" in caplog.text
    assert len(larger) == 4 and _worker_pids() == larger


@pytest.mark.skipif(sys.platform != "linux", reason="workers are forked on Linux only")
def test_pool_forks_its_workers_under_a_forkserver_default():
    # test_worker_exception_leaves_the_pool_usable in an interpreter whose
    # default start method is forkserver (Python 3.14's on Linux): the patched
    # limit reaches the workers only if they are forked
    src = Path(mc.__file__).resolve().parents[1]
    code = f"""
import sys; sys.path.insert(0, {str(src)!r})
import multiprocessing
from dataclasses import replace
import specnorm.montecarlo as mc, specnorm.norms as norms
from specnorm.structured import ResourceLimitError
multiprocessing.set_start_method("forkserver")
norms._BASIS_BYTES = 8 * 32 * 4
small = mc.ExperimentConfig(family="circulant", p=8, n=16, replicates=8, base_seed=91, workers=2)
mc._collect(small)
try:
    mc._collect(replace(small, p=32, n=64))
    sys.exit("a worker solved past the patched limit")
except ResourceLimitError:
    pass
pooled = mc._collect(small)["sigma_sq"].tolist()
sys.exit(pooled != mc._collect(replace(small, workers=1))["sigma_sq"].tolist())
"""
    done = subprocess.run([sys.executable, "-"], input=code, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


def test_forked_child_starts_its_own_pool(fresh_pool):
    want = _paired_bytes(replace(POOLED, workers=1))
    mc._collect(POOLED)
    parent_pids = _worker_pids()
    pid = os.fork()
    if pid == 0:  # the child reports through its exit code only
        code = 1
        try:
            ok = _paired_bytes(POOLED) == want and mc._POOL[0] == (os.getpid(), 2)
            mc.shutdown_pool()
            code = 0 if ok else 1
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert _paired_bytes(POOLED) == want
    assert _worker_pids() == parent_pids


# bstat_large's draws: a replicate frees 0.5-1 MiB arrays, past glibc's default mmap threshold
LARGE_B = ExperimentConfig(family="circulant", p=16384, n=65536, replicates=8, base_seed=3,
                           statistics=("b_statistic",), workers=2)


def _logged_faults(caplog, cfg):
    """Minor page faults per replicate that `cfg`'s run line logs."""
    caplog.clear()
    mc._collect(cfg)
    (line,) = [rec.getMessage() for rec in caplog.records if rec.name == mc.__name__]
    return float(re.search(r"(\d+\.\d) minor faults per replicate", line)[1])


def _spawned_pool(max_workers, mp_context, initializer):
    # fresh interpreters: forked workers would inherit the mmap threshold
    # that glibc raised in this process as it freed earlier tests' large arrays
    return ProcessPoolExecutor(max_workers, mp_context=multiprocessing.get_context("spawn"),
                               initializer=initializer)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="pins glibc's malloc thresholds")
def test_reused_pool_workers_keep_their_freed_heap(fresh_pool, caplog, monkeypatch):
    caplog.set_level(logging.INFO, logger=mc.__name__)
    monkeypatch.setattr(mc, "ProcessPoolExecutor", _spawned_pool)
    mc._collect(replace(LARGE_B, replicates=32))  # lets the workers' heaps settle
    assert _logged_faults(caplog, LARGE_B) < 1
    mc.shutdown_pool()
    monkeypatch.setattr(mc, "_keep_freed_heap", os.getpid)  # a no-op initializer
    mc._collect(replace(LARGE_B, replicates=32))
    assert _logged_faults(caplog, LARGE_B) > 100


def test_import_starts_no_process():
    src = Path(mc.__file__).resolve().parents[1]
    code = (f"import sys; sys.path.insert(0, {str(src)!r})\n"
            "import multiprocessing, threading, specnorm, specnorm.montecarlo as mc\n"
            "print(mc._POOL, multiprocessing.active_children(), threading.active_count())")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, check=True).stdout
    assert out.split() == ["None", "[]", "1"]
