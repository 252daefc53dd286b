"""One measured pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE --workdir DIR [--spans FILE]

MODE is `setup` (import only), `plain` (untraced), `trace` (spans and
warnings) or `alloc` (spans with tracemalloc peaks).  `setup` and `plain`
passes time with host-speed probes (see hostclock.py); traced passes run
none, so that no probe lands in a span.  The pass result is printed as one
JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from hostclock import ProbeClock  # noqa: E402


def _import_divproj(workload: str):
    import divproj

    if workload == "desk_cli":
        from divproj import cli

        with contextlib.redirect_stderr(io.StringIO()):
            cli.run([])  # builds the parser; no subcommand, so it stops at the usage error
    else:
        import divproj.experiments  # noqa: F401
    return divproj


def measure_setup(workload: str, clock: ProbeClock) -> dict:
    """Seconds to import divproj, plus building the CLI parser for desk_cli."""
    sys.path.insert(0, str(SRC))
    m = clock.measure(lambda: _import_divproj(workload))
    if m.error is not None:
        raise SystemExit(m.error)
    if Path(m.out.__file__).resolve().parent != SRC / "divproj":
        raise SystemExit(f"imported divproj from {m.out.__file__}, not from {SRC}")
    return {"setup_s": m.ref_s, "setup_wall_s": m.wall_s}


def run_pass(workload: str, seed: int, mode: str, workdir: Path, spans_file: Path | None,
             clock: ProbeClock) -> dict:
    import warnings

    import tracer as tr
    from workloads import WORKLOADS

    fn = WORKLOADS[workload]
    if mode == "plain":
        return fn(seed, workdir, clock)
    if mode == "trace":
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")  # the default filter shows each call site once
            tracer = tr.Tracer(warning_log=log)
            patched = tr.install(tracer)
            try:
                result = fn(seed, workdir, clock)
            finally:
                tr.uninstall(patched)
        result["layers"] = tr.span_metrics(tracer)
        result["warnings"] = len(tracer.warnings)
    else:
        tracer = tr.Tracer(alloc_layers=tr.ALLOC_LAYERS)
        patched = tr.install(tracer)
        try:
            result = fn(seed, workdir, clock)
        finally:
            tr.uninstall(patched)
        result["layers"] = tr.alloc_metrics(tracer)
    if spans_file is not None:
        spans_file.write_text(json.dumps([vars(s) for s in tracer.spans]))
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "plain", "trace", "alloc"), required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--spans", type=Path, default=None)
    args = p.parse_args(argv)
    clock = ProbeClock(probing=args.mode in ("setup", "plain"))
    result = measure_setup(args.workload, clock)
    if args.mode != "setup":
        result.update(run_pass(args.workload, args.seed, args.mode, args.workdir, args.spans, clock))
    result.setdefault("maxrss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
