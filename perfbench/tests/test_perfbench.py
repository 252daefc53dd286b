"""Tests of the benchmark itself: span arithmetic, host-speed rescaling, tracer transparency, failure counting.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import signal
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import hostclock  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402


def test_self_times_subtract_the_union_of_child_intervals():
    # root [0, 10] has a child a [1, 4] with a grandchild [2, 3], and a child
    # b [3, 6] from another thread that overlaps a.
    spans = [
        tr.Span("experiments.experiment_cov", "experiments", 0.0, 10.0),
        tr.Span("projection.fit", "projection", 1.0, 4.0, parent=0),
        tr.Span("projection.estimate_loadings", "projection", 2.0, 3.0, parent=1),
        tr.Span("covariance.invert_sparse_cov", "covariance", 3.0, 6.0, parent=0, tid=2),
    ]
    assert tr.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 3.0])
    metrics = tr.span_metrics(tr.Tracer(spans=spans))
    assert metrics["experiments.self_s"] == pytest.approx(5.0)
    assert metrics["projection.self_s"] == pytest.approx(3.0)
    assert metrics["projection.fit.calls"] == 1
    assert metrics["covariance.invert_sparse_cov.calls"] == 1
    assert metrics["covariance.invert_sparse_cov.self_s"] == pytest.approx(3.0)
    assert metrics["covariance.eig_shift_ratio"] == 0.0


def test_warnings_go_to_the_innermost_open_call():
    log = []
    t = tr.Tracer(warning_log=log)
    outer = t.enter("covariance.invert_sparse_cov", "covariance")
    log.append(SimpleNamespace(category=type("NumericalWarning", (Warning,), {})))
    inner = t.enter("projection.fit", "projection")  # the pending warning is the outer call's
    t.exit(inner)
    t.exit(outer)
    assert t.warnings == [("covariance", "NumericalWarning")]
    metrics = tr.span_metrics(t)
    assert metrics["covariance.eig_shift_fallbacks"] == 1
    assert metrics["covariance.eig_shift_ratio"] == 1.0
    assert metrics["projection.pinv_fallbacks"] == 0


def test_install_wraps_aliases_and_call_time_imports_and_restores():
    import divproj.experiments
    import divproj.projection
    from divproj.covariance import invert_sparse_cov
    from divproj.weights import rolling_window_weights

    original_fit = divproj.projection.fit
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        t = tr.Tracer(warning_log=log)
        patched = tr.install(t)
        try:
            assert divproj.experiments.projection_fit is divproj.projection.fit is not original_fit
            divproj.weights.rolling_window_weights(np.random.default_rng(0).standard_normal((20, 30)), 2)
            divproj.covariance.invert_sparse_cov(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite: shifts
        finally:
            tr.uninstall(patched)
    assert divproj.projection.fit is original_fit
    assert divproj.covariance.invert_sparse_cov is invert_sparse_cov
    assert divproj.weights.rolling_window_weights is rolling_window_weights
    names = [s.name for s in t.spans]
    assert names[:2] == ["weights.rolling_window_weights", "projection.pc_factors"]
    assert t.spans[1].parent == 0
    assert tr.span_metrics(t)["covariance.eig_shift_fallbacks"] == 1


def test_rescale_weighs_each_stretch_by_the_probes_at_its_ends():
    ref = hostclock.REF_PROBE_S
    # probes of ref, 2 ref and ref seconds around program stretches of 1 s and 3 s
    probes = [(0.0, ref), (1.0 + ref, 1.0 + 3 * ref), (4.0 + 3 * ref, 4.0 + 4 * ref)]
    wall, scaled = hostclock.rescale(probes)
    assert wall == pytest.approx(4.0)
    assert scaled == pytest.approx(1.0 * 0.75 + 3.0 * 0.75)
    assert hostclock.rescale([(0.0, ref), (2.0 + ref, 2.0 + 2 * ref)]) == pytest.approx((2.0, 2.0))


def test_throughput_at_ref_speed_estimates_the_elasticity_of_its_samples():
    # 2 units per sample, 0.2 s per unit at reference speed, time going as slowness ** 0.6
    slowness = [0.8, 0.9, 1.0, 1.1, 1.3, 1.6]
    samples = [(2, 0.4 * m**0.6 / m, 0.4 * m**0.6) for m in slowness]
    rate, elasticity = hostclock.throughput_at_ref_speed(samples)
    assert elasticity == pytest.approx(0.6)  # an exact fit has no standard error, so no shrinking
    assert rate == pytest.approx(5.0)
    rate, elasticity = hostclock.throughput_at_ref_speed(samples[:3])  # too few to fit
    assert elasticity == 1.0
    assert rate == pytest.approx(statistics.median(u / ref for u, ref, _ in samples[:3]))


def test_probe_clock_probes_during_the_call_and_restores_the_timer():
    def work():
        return sum(i % 3 for i in range(4_000_000))  # a few PROBE_INTERVAL_S long

    before = signal.getsignal(signal.SIGALRM)
    m = hostclock.ProbeClock().measure(work)
    assert m.error is None and m.out == work()
    assert m.probes >= 3 and m.wall_s > 0 and m.ref_s > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    failed = hostclock.ProbeClock().measure(lambda: 1 / 0)
    assert failed.out is None and "ZeroDivisionError" in failed.error


def _worker(mode, workload="mc_postsel", seed=3, workdir=Path("unused")):
    out = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
         "--mode", mode, "--workdir", str(workdir)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_traced_and_untraced_passes_give_identical_digests():
    plain, traced, alloc = _worker("plain"), _worker("trace"), _worker("alloc")
    assert plain["failed"] == traced["failed"] == alloc["failed"] == 0
    assert plain["digest"] == traced["digest"] == alloc["digest"]
    assert traced["layers"]["inference.double_selection.calls"] > 0
    assert set(traced["layers"]) == set(tr.SPAN_METRICS)
    assert set(alloc["layers"]) == set(tr.ALLOC_METRICS)


def test_malformed_csv_is_a_failed_unit(tmp_path):
    workloads.make_desk_inputs(0, tmp_path / "inputs")
    treatment = tmp_path / "inputs" / "treatment.csv"
    lines = treatment.read_text().splitlines()
    lines[5] = lines[5].split(",")[0] + ",not-a-number"
    treatment.write_text("\n".join(lines) + "\n")
    result = workloads.desk_cli(0, tmp_path, hostclock.ProbeClock(probing=False))
    assert (result["attempted"], result["failed"]) == (6, 1)  # only infer reads the treatment
    attempted, failed = run.summarize([result])
    assert failed / attempted == pytest.approx(1 / 6)


def test_independent_checks_agree_with_the_library():
    from scipy.linalg import hadamard

    from divproj.fdr import bh_reject

    np.testing.assert_array_equal(workloads.walsh_corner(1200, 4), hadamard(2048)[:1200, :4])
    p = np.random.default_rng(1).uniform(size=500) ** 3
    assert workloads.bh_rejected(p, 0.1) == set(bh_reject(p, 0.1).tolist())


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in spec["per_layer"])


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_postsel", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
