"""Seeded results against the values committed in `reference/values.json`.

`reference/write_reference.py` wrote them: the result rows of four small
study calls, the post-selection z-samples, and every number the six data
subcommands write for one small generated panel.  The test recomputes them
the same way, in one subprocess at one BLAS thread, and compares values,
not bytes: bytes also depend on the BLAS build and the CPU.
"""

import json
import math

from reference.write_reference import REFERENCE_FILE, moved, pinned_values, relative_change

RTOL = 1e-12
# Float fields that count discrete outcomes: rates over replications and their standard errors.
DISCRETE = {"coverage", "rejection_rate", "mc_se"}


def _leaves(x):
    for v in x:
        yield from _leaves(v) if isinstance(v, list) else (v,)


def _mismatches(ref, got, path="", scale=None, exact=False):
    """The paths at which `got` differs from `ref`, with both values."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or ref.keys() != got.keys():
            return [(path, "keys", sorted(ref), sorted(got) if isinstance(got, dict) else got)]
        return [m for k in ref for m in _mismatches(ref[k], got[k], f"{path}/{k}", None, exact or k in DISCRETE)]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return [(path, "length", len(ref), len(got) if isinstance(got, list) else got)]
        leaves = list(_leaves(ref))
        if scale is None and all(type(v) in (int, float) for v in leaves):  # an array of numbers
            scale = max((abs(v) for v in leaves if math.isfinite(v)), default=0.0)
        return [m for i, (r, g) in enumerate(zip(ref, got)) for m in _mismatches(r, g, f"{path}[{i}]", scale, exact)]
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if ref == got or (math.isnan(ref) and math.isnan(got)):
            return []
        if exact or ref == 0.0 or not math.isfinite(ref):
            return [(path, "exact", ref, got)]
        bound = RTOL * (abs(ref) if scale is None else scale)
        return [] if abs(got - ref) <= bound else [(path, "relative", ref, got)]
    return [] if type(ref) is type(got) and ref == got else [(path, "exact", ref, got)]


def test_seeded_values_match_the_reference():
    """Every recomputed value equals its reference to RTOL = 1e-12, relative.

    A float that sits in an array (a list of a JSON output or study result,
    a column of a CSV output) may differ from its reference by RTOL times
    the largest magnitude in the reference array; any other float by RTOL
    times its own magnitude.  Exact zeros, integers, booleans and strings
    must be equal, and so must the floats that count discrete outcomes:
    coverage and rejection rates and their standard errors.  Supports,
    indices and rejections are integers.  The failure message names the
    environment the reference was recorded in and the smallest margin
    between a decision and its cut-off (see `write_reference.compute`); a
    margin below RTOL fails the test, because a decision that close to its
    cut-off could flip on another host while every value stays within RTOL.
    """
    recorded = json.loads(REFERENCE_FILE.read_text())
    now = pinned_values()
    which, margin = min(now["margins"].items(), key=lambda item: item[1])
    context = (f"reference recorded with {recorded['environment']}, recomputed with {now['environment']}; "
               f"smallest decision margin {margin:.3g} ({which})")
    bad = _mismatches(recorded["values"], now["values"])
    assert not bad, f"{len(bad)} values moved, first {bad[:5]}; {context}"
    assert margin > RTOL, f"a decision lies within RTOL of its cut-off; {context}"


def test_comparison_catches_moves_beyond_the_tolerance():
    ref = {"a": [1.0, 0.5, 0.0], "coverage": 0.5, "s": "x", "k": [1, 2], "x": 2.0}
    assert _mismatches(ref, json.loads(json.dumps(ref))) == []
    assert _mismatches(ref, {**ref, "a": [1.0, 0.5 + 0.9e-12, 0.0]}) == []
    assert [m[:2] for m in _mismatches(ref, {**ref, "a": [1.0, 0.5 + 1.1e-12, 0.0]})] == [("/a[1]", "relative")]
    assert [m[:2] for m in _mismatches(ref, {**ref, "a": [1.0, 0.5, 1e-300]})] == [("/a[2]", "exact")]
    assert [m[:2] for m in _mismatches(ref, {**ref, "coverage": 0.5 + 1e-16})] == [("/coverage", "exact")]
    assert [m[:2] for m in _mismatches(ref, {**ref, "k": [1, 3]})] == [("/k[1]", "exact")]
    assert [m[:2] for m in _mismatches(ref, {**ref, "x": 2.0 * (1 + 2e-12)})] == [("/x", "relative")]


def test_diff_names_every_value_whose_bits_moved():
    ref = {"a": [1.0, 0.0, float("nan"), 3], "b": {"c": "x", "d": [1.0, 2.0]}, "e": 2.0}
    assert moved(ref, json.loads(json.dumps(ref))) == []
    got = {"a": [1.0 + 2.0**-52, -0.0, float("nan"), 3], "b": {"c": "y", "d": [1.0]}, "e": 2}
    assert [m[0] for m in moved(ref, got)] == ["/a[0]", "/a[1]", "/b/c", "/b/d", "/e"]
    assert moved({"a": 1.0}, {"b": 1.0}) == [("", {"a": 1.0}, {"b": 1.0})]
    assert relative_change(2.0, 2.5) == 0.25
    assert relative_change(0.0, 1e-300) is None and relative_change("x", "y") is None
    assert relative_change(1.0, float("inf")) is None
