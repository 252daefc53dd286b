"""Timing rescaled to a reference host speed, by probes interleaved with the timed code.

On a shared host the speed of one vCPU changes from second to second: on the
2-vCPU Xeon machine this benchmark was written on, a fixed pure-Python loop
took 41 ms in one second and 70-90 ms in the next, as neighbours on the host
came and went.  A run's wall time then measures the neighbours as much as the
program.  The probe is a small fixed pure-Python computation.  `ProbeClock`
runs it at the start and end of a timed region and, from a SIGALRM timer,
every PROBE_INTERVAL_S in between.  Each stretch of program time between two
probes is rescaled by REF_PROBE_S / (probe duration), averaged over the
probes at its two ends, and the rescaled stretches add up to `ref_s`: the
seconds the region would have taken at the speed the host had when the
probe took REF_PROBE_S.  Probe time is left out of both `wall_s` and `ref_s`.

The rescaling cancels changes of host speed that slow the probe and the
program alike.  On that machine, over 12-second windows of repeated small
`experiment_postsel`, `experiment_cov` and `experiment_forecast` calls, it
cut the spread of the windows' times (quartile distance over median) from
21%, 12% and 16% to 3.6%, 5.1% and 1.8%.  A change to divproj cannot move
the probe, which is the benchmark's own code.

Python runs a signal handler between bytecodes, so a probe due while the
program is inside one long native call runs when that call returns; the
stretch is then longer and rescaled by the probes at its two ends.  The
timer runs only inside `ProbeClock.measure`, in the main thread.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable

# The probe walks 20,000 floats of this 1.9 MB list: a working set past the
# L2 cache, as the program's is.  A tight loop that stays in L1 tracked the
# program's speed worse: over 10-second windows of a mc_postsel-like call,
# the rescaled times varied by 4.7% (standard deviation over mean) with it
# and by 1.6% with this probe.
_PROBE_DATA = [float(i) for i in range(60_000)]
# The reference host speed: the one at which a probe takes REF_PROBE_S.  Any
# fixed value would do, as it only sets the scale of ref_s; this one is
# about the 5th percentile of the probe's time on the machine this benchmark
# was written on (2-vCPU Intel Xeon, Python 3.11) under its usual load.
REF_PROBE_S = 0.0009
PROBE_INTERVAL_S = 0.05
# How far a run's samples may pull the elasticity away from 1 (see
# throughput_at_ref_speed).  Chosen on the machine above from two sets of
# ten runs per workload: with 0.2, the seed-to-seed changes of mc_postsel's
# per-sample work moved its elasticity enough to widen its run-to-run spread
# from 5.2% to 7.8%; with 0.1 it was 6.0%, and mc_cov's fell from 8.0% with
# no elasticity to 3.7%.
ELASTICITY_PRIOR_SD = 0.1


def probe() -> tuple[float, float]:
    """Run the probe computation; return its start and end times."""
    t0 = time.perf_counter()
    acc = 0.0
    for x in _PROBE_DATA[::3]:
        acc += x * 1.0001
    return t0, time.perf_counter()


def rescale(probes: list[tuple[float, float]]) -> tuple[float, float]:
    """Program seconds between consecutive probes: (wall, at reference speed)."""
    wall = ref = 0.0
    for (s0, e0), (s1, e1) in zip(probes, probes[1:]):
        stretch = s1 - e0
        wall += stretch
        ref += stretch * REF_PROBE_S * 0.5 * (1.0 / (e0 - s0) + 1.0 / (e1 - s1))
    return wall, ref


@dataclass
class Measurement:
    out: Any
    wall_s: float   # program seconds, probes excluded
    ref_s: float    # the same seconds at reference host speed
    cpu_s: float    # process CPU seconds, probes included
    error: str | None
    probes: int


class ProbeClock:
    """Measures calls with host-speed probes interleaved (see the module docstring).

    With `probing=False` no probe runs and `ref_s` equals `wall_s`: traced
    passes use that, so that probes do not land in the spans.
    """

    def __init__(self, probing: bool = True):
        self.probing = probing

    def measure(self, fn: Callable[[], Any]) -> Measurement:
        """Run fn(); an exception it raises is caught and returned as text."""
        out, err, probes = None, None, []
        c0 = time.process_time()
        if not self.probing:
            t0 = time.perf_counter()
            try:
                out = fn()
            except Exception:
                err = traceback.format_exc()
            wall = time.perf_counter() - t0
            return Measurement(out, wall, wall, time.process_time() - c0, err, 0)

        previous = signal.signal(signal.SIGALRM, lambda signum, frame: probes.append(probe()))
        probes.append(probe())
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            out = fn()
        except Exception:
            err = traceback.format_exc()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        probes.append(probe())
        wall, ref = rescale(probes)
        return Measurement(out, wall, ref, time.process_time() - c0, err, len(probes))


def throughput_at_ref_speed(samples) -> tuple[float, float]:
    """Median units per second at reference host speed over (units, ref_s, wall_s) samples.

    `ref_s` assumes the program slows down exactly as much as the probe.
    Not every program does: on the machine above, a small `experiment_cov`
    call's time went as the probe's time to the power 0.7, so its `ref_s`
    over-corrected, and a run on a slow host read 15% faster than one on a
    quick host.  So each run estimates this elasticity from its own samples:
    the slope of log(wall_s / units) against log(wall_s / ref_s), the
    probe's slowness over the sample.  The slope is shrunk toward 1 by its
    standard error, as under a normal prior of sd ELASTICITY_PRIOR_SD around 1.
    Runs whose samples saw one host speed, or whose per-sample work varies
    with the seed, so keep an elasticity near 1; with fewer than four
    samples it is 1.  A sample's rate is units / wall_s * (wall_s / ref_s) **
    elasticity.  Returns the median rate and the elasticity.
    """
    x = [math.log(wall / ref) for _, ref, wall in samples]
    y = [math.log(wall / units) for units, _, wall in samples]
    elasticity, n = 1.0, len(samples)
    if n >= 4:
        mx, my = statistics.fmean(x), statistics.fmean(y)
        sxx = sum((xi - mx) ** 2 for xi in x)
        if sxx > 0:
            slope = sum((xi - mx) * (yi - my) for xi, yi in zip(x, y)) / sxx
            residual = sum((yi - my - slope * (xi - mx)) ** 2 for xi, yi in zip(x, y)) / (n - 2)
            weight = ELASTICITY_PRIOR_SD**2 / (ELASTICITY_PRIOR_SD**2 + residual / sxx)
            elasticity = 1.0 + (slope - 1.0) * weight
    return statistics.median(math.exp(elasticity * xi - yi) for xi, yi in zip(x, y)), elasticity
