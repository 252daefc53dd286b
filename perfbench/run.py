"""divproj benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
`src/`.  Every measured pass runs in a fresh interpreter (users pay the
import and the simulation caches on every invocation) with one BLAS thread
(see PASS_ENV), and passes repeat until S seconds have gone by, at least
MIN_PASSES times.  Pass k draws its inputs from seed 1000 N + k: the work of
a Monte Carlo replication depends on its data (lasso sweeps, for one), so a
run samples several seeds' worth.

With `--trace 0` the metrics are the end-to-end ones: `setup_s` (median
seconds to import divproj, and build the CLI parser for desk_cli, over the
passes and a few import-only processes), `units_per_s` (median over the
timing samples of all passes of units completed per second of timed calls,
see hostclock.throughput_at_ref_speed: a sample is one experiment call, or
one desk_cli pass; a unit is one Monte Carlo replication or one CLI
command) and `peak_rss_mb` (median over passes of
the pass process's ru_maxrss up to the end of its timed calls).  Both times
are seconds at the reference host speed: probes interleaved with the timed
code rescale the wall time by the host's speed at that moment (see
hostclock.py), because on a shared host the wall time of one run moves by
tens of percent with the neighbours' load.  The same two metrics from
unscaled wall time (`wall_setup_s`, `wall_units_per_s`), the elasticity
that scaled `units_per_s` (`host_elasticity`) and `fail_ratio` are printed
with them.  With `--trace 1`, untraced and traced
passes alternate, one more pass runs under tracemalloc, and the metrics are
the per-layer ones.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A record of every pass,
the environment and the seeded-result digest goes to `.perfbench_out/`.
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
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from hostclock import throughput_at_ref_speed  # noqa: E402
from workloads import WORKLOADS, make_desk_inputs  # noqa: E402

SETUP_RUNS = 3            # import-only processes per run, on top of the passes
MIN_PASSES = 3            # so that a median outvotes one disturbed pass
RUN_DEADLINE_S = 170.0    # a run must end within 180 s
CLI_COMMANDS = ("estimate", "cov", "spectest", "fdr", "forecast", "infer")
PER_LAYER = (
    tracer.SPAN_METRICS
    + tracer.ALLOC_METRICS
    + tuple(f"cli.{c}.wall_s" for c in CLI_COMMANDS)
    + ("trace.overhead_ratio", "proc.cpu_s")
)
UNITS = {"setup_s": "s", "units_per_s": "1/s", "peak_rss_mb": "MB",
         "host_elasticity": "ratio", "wall_setup_s": "s", "wall_units_per_s": "1/s", "fail_ratio": "ratio"}
END_TO_END = ("setup_s", "units_per_s", "peak_rss_mb")
# One BLAS thread per pass.  With OpenBLAS's default of one thread per core, a
# 2-vCPU machine ran mc_cov 3x slower and with +-20% spread from pass to pass
# (+-1.3% with one thread): the numbers measured the host's scheduler.
PASS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def per_layer_unit(name: str) -> str:
    kind = name.rpartition(".")[2]
    return {"calls": "count", "windows": "count", "pinv_fallbacks": "count", "eig_shift_fallbacks": "count",
            "self_s": "s", "wall_s": "s", "cpu_s": "s", "p50_ms": "ms", "peak_alloc_mb": "MB",
            "bytes_read": "bytes", "bytes_written": "bytes"}.get(kind, "ratio")


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        **PASS_ENV,
        "seed": seed,
        "threads": 1,
    }


def pass_seed(seed: int, k: int) -> int:
    return 1000 * seed + k


def workdir_for(workload: str, seed: int) -> Path:
    """Pass working directory, relative to ROOT: the CLI manifests record its paths."""
    return Path(".perfbench_work") / f"{workload}-seed{seed}"


class Runner:
    """Starts pass processes for one workload and seed, within the run's deadline."""

    def __init__(self, workload: str, seed: int, workdir: Path, outdir: Path):
        self.workload, self.seed, self.workdir, self.outdir = workload, seed, workdir, outdir
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.inputs_seed = None

    def __call__(self, mode: str, k: int = 0) -> dict:
        seed = pass_seed(self.seed, k)
        if self.workload == "desk_cli" and mode != "setup" and seed != self.inputs_seed:
            make_desk_inputs(seed, ROOT / self.workdir / "inputs")  # outside every timed part
            self.inputs_seed = seed
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload, "--seed", str(seed),
               "--mode", mode, "--workdir", str(self.workdir)]
        if mode == "trace":
            cmd += ["--spans", str(self.outdir / f"{self.workload}-seed{self.seed}-spans.json")]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run deadline passed")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **PASS_ENV}, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped the pass
            raise BenchError(f"{mode} pass exceeded the run deadline") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"{mode} pass exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
        sys.stderr.write(proc.stderr[-4000:])
        return json.loads(proc.stdout.strip().splitlines()[-1])


def untraced(run: Runner, seconds: float) -> tuple[list, dict, bool]:
    setups = [run("setup") for _ in range(SETUP_RUNS)]
    passes, t0 = [], time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - t0 < seconds:
        passes.append(run("plain", len(passes)))
    setups += passes
    units_per_s, elasticity = throughput_at_ref_speed([s for p in passes for s in p["samples"]])
    return passes, {
        "setup_s": statistics.median(p["setup_s"] for p in setups),
        "units_per_s": units_per_s,
        "peak_rss_mb": statistics.median(p["maxrss_mb"] for p in passes),
        "host_elasticity": elasticity,
        "wall_setup_s": statistics.median(p["setup_wall_s"] for p in setups),
        "wall_units_per_s": statistics.median(u / wall for p in passes for u, _, wall in p["samples"]),
    }, True


def traced(run: Runner, seconds: float) -> tuple[list, dict, bool]:
    """Untraced and traced passes of the same seeds, then one tracemalloc pass."""
    plain, spans, t0 = [], [], time.monotonic()
    while not spans or time.monotonic() - t0 < seconds:
        plain.append(run("plain", len(plain)))
        spans.append(run("trace", len(spans)))
    alloc = run("alloc", 0)
    transparent = alloc["digest"] == plain[0]["digest"] and all(
        p["digest"] == t["digest"] for p, t in zip(plain, spans))
    metrics = {m: statistics.median(p["layers"][m] for p in spans) for m in tracer.SPAN_METRICS}
    metrics.update(alloc["layers"])
    for c in CLI_COMMANDS:
        metrics[f"cli.{c}.wall_s"] = statistics.median(p.get("unit_wall_s", {}).get(c, 0.0) for p in plain)
    metrics["trace.overhead_ratio"] = (
        statistics.median(p["timed_s"] for p in spans) / statistics.median(p["timed_s"] for p in plain)
    )
    metrics["proc.cpu_s"] = statistics.median(p["cpu_s"] for p in plain)
    return plain + spans + [alloc], metrics, transparent


def reference_digest(workload: str, seed: int):
    path = HERE / "digests.json"
    table = json.loads(path.read_text()) if path.is_file() else {}
    return table.get(workload, {}).get(str(seed))


def summarize(passes: list) -> tuple[int, int]:
    """Units attempted and failed over all passes."""
    return sum(p["attempted"] for p in passes), sum(p["failed"] for p in passes)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "divproj" / "__init__.py").is_file():
        print(f"perfbench: no divproj sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = workdir_for(args.workload, args.seed)
    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    shutil.rmtree(ROOT / workdir, ignore_errors=True)
    try:
        run = Runner(args.workload, args.seed, workdir, outdir)
        passes, metrics, transparent = (traced if args.trace else untraced)(run, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ROOT / workdir, ignore_errors=True)

    attempted, failed = summarize(passes)
    digest = passes[0]["digest"]  # the pass seeded 1000 N
    reference = reference_digest(args.workload, args.seed)
    record = {
        "workload": args.workload, "trace": args.trace, "environment": environment(args.seed),
        "digest": digest,
        "traced_digests_match_untraced": transparent if args.trace else None,
        "digest_matches_reference": None if reference is None or digest is None else digest == reference,
        "passes": passes, "metrics": metrics,
    }
    (outdir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    units = dict(UNITS) if not args.trace else {m: per_layer_unit(m) for m in PER_LAYER}
    shown = dict(metrics, fail_ratio=failed / attempted) if not args.trace else metrics
    reported = END_TO_END if not args.trace else PER_LAYER
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  trace {args.trace}")
    for name, value in shown.items():
        print(f"  {name:<38} {value:>14.6g} {units[name]}")
    match = {None: "no reference for this seed", True: "matches the reference", False: "differs from the reference"}
    print(f"  result digest {digest} ({match[record['digest_matches_reference']]})")
    if args.trace:
        print(f"  traced passes reproduce the untraced digests: {transparent}")
    print("  environment " + json.dumps(record["environment"]))
    print(json.dumps({
        "correct": failed == 0 and transparent and all(p["digest"] for p in passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
