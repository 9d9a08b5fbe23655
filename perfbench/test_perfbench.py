"""The benchmark's own tests.

    python3 -m pytest perfbench -q

The tracer tests take a second. The determinism self-check runs every
workload three times (about six minutes on 2 cores): two traced runs of
one seed must give identical counts, and the untraced run of that seed
must give the same program counts and bit-identical outputs, which shows
the wrappers do not perturb the program. The repository's own test suite
does not collect this file (its testpaths are tests/).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = run.load_spec()
TIMED_UNITS = ("s", "ms")


def test_span_tree_and_self_time():
    tracer = tracing.Tracer("t")

    def leaf():
        time.sleep(0.01)

    leaf_t = tracer.wrap("leaf", leaf)

    def outer(fail):
        leaf_t()
        leaf_t()
        time.sleep(0.01)
        if fail:
            raise ValueError("boom")

    outer_t = tracer.wrap("outer", outer)
    outer_t(False)
    with pytest.raises(ValueError):
        outer_t(True)

    assert [tracer.names[s[0]] for s in tracer.spans] == [
        "outer", "leaf", "leaf", "outer", "leaf", "leaf"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0, -1, 3, 3]
    assert [s[4] for s in tracer.spans] == [
        None, None, None, "ValueError", None, None]
    agg = tracing.summarize({"names": tracer.names, "spans": tracer.spans})
    assert agg["outer"]["calls"] == 2 and agg["outer"]["errors"] == 1
    assert agg["leaf"]["calls"] == 4
    # self time excludes the children: two sleeps of 10 ms per outer call
    assert agg["outer"]["self_s"] == pytest.approx(
        agg["outer"]["total_s"] - agg["leaf"]["total_s"])
    assert 0.015 < agg["outer"]["self_s"] < agg["outer"]["total_s"]


def test_percentile_is_nearest_rank():
    values = [float(i) for i in range(1, 1001)]
    assert tracing._percentile(values, 0.50) == 500.0
    assert tracing._percentile(values, 0.99) == 990.0
    assert tracing._percentile([], 0.99) == 0.0


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        run.END_TO_END_UNITS
    empty = {"names": [], "spans": [], "counters": {}}
    names = set(tracing.layer_metrics(empty)) | {"traced_wall_s"}
    assert {m["name"] for m in SPEC["per_layer"]} == names


def _counts(record):
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    return {name: value for name, value in record["per_layer"].items()
            if units[name] not in TIMED_UNITS}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_runs_are_deterministic_and_tracing_is_transparent(workload):
    seed = 3
    first = run.measure(workload, seed, 1)
    second = run.measure(workload, seed, 1)
    plain = run.measure(workload, seed, 0)
    for record in (first, second, plain):
        assert record["correct"], (record.get("error"), record.get("problems"))
    assert _counts(first) == _counts(second)
    assert first["counts"] == second["counts"] == plain["counts"]
    assert first["outputs"] == second["outputs"] == plain["outputs"]
