"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; sigmaflow is imported from its
src/ directory, never from an installed copy. Each invocation starts
fresh workload processes (perfbench/workloads.py):

* SETUP_SAMPLES - 1 set-up-only processes, then the measured one. setup_s
  is the median, over all of them, of the time from starting the process
  to the moment just before the timed solve.
* --trace 0 reports the end-to-end metrics; --trace 1 wraps every layer
  module (perfbench/tracing.py) and reports the per-layer metrics.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}. The line before it is the
full record: workload, seed, environment, program counts, output digests
and, when traced, the per-layer table. Every workload solve is a fixed
amount of work, so the counts repeat exactly for a seed; --seconds is the
nominal length of one measured solve on the reference machine (2 cores)
and is recorded with the result. A run that raises or fails its output
check is counted as failed and never retried; the process then exits 1.
Without src/sigmaflow in the checkout it exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_SAMPLES = 5
# The contract allows 180 s per invocation; leave room to clean up.
DEADLINE_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "steps_per_s": "1/s",
                    "sim_time_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchmarkError(Exception):
    """The checkout cannot be benchmarked at all (no result is printed)."""


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    threads = str(nproc())
    for var in ("SIGMAFLOW_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        env[var] = threads
    return env


def _source_digest():
    """sha256 over src/ so a result names the code it measured even
    where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def host_record():
    return {"commit": _commit(), "source_sha256": _source_digest(),
            "nproc": nproc(), "cpu_model": _cpu_model(),
            "platform": platform.platform()}


def _spawn(workload, seed, trace, workdir, deadline, setup_only):
    """Run one workload process; returns (result dict, spawn time)."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": "timed out"}, started
    path = os.path.join(workdir, "result.json")
    if proc.returncode != 0 or not os.path.exists(path):
        return {"error": f"exit {proc.returncode}: {err.decode()[-2000:]}"}, started
    with open(path) as fh:
        result = json.load(fh)
    os.remove(path)
    return result, started


def measure(workload, seed, trace, seconds=None):
    """One benchmark run of one workload: returns the full record."""
    if not (SRC / "sigmaflow" / "__init__.py").is_file():
        raise BenchmarkError(f"no sigmaflow package under {SRC}")
    deadline = time.monotonic() + DEADLINE_S
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    record = {"workload": workload, "seed": seed, "trace": trace,
              "seconds": seconds, "host": host_record()}
    try:
        setups = []
        if not trace:
            for _ in range(SETUP_SAMPLES - 1):
                result, started = _spawn(workload, seed, 0, workdir, deadline,
                                         setup_only=True)
                if result.get("error"):
                    break
                setups.append(result["ready_monotonic"] - started)
        result, started = _spawn(workload, seed, trace, workdir, deadline,
                                 setup_only=False)
        error = result.get("error")
        if error is None:
            where = os.path.relpath(result["sigmaflow"], ROOT)
            if where != os.path.join("src", "sigmaflow"):
                error = f"sigmaflow imported from {result['sigmaflow']}"
        problems = result.get("problems", [])
        record.update(error=error, problems=problems,
                      correct=error is None and not problems)
        if error is not None:
            return record
        setups.append(result["ready_monotonic"] - started)
        wall = result["wall_s"]
        record.update(
            inputs=result["inputs"], counts=result["counts"],
            outputs=result["outputs"], environment=result["environment"],
            sigmaflow=where, setup_samples_s=setups)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "steps_per_s": result["work"]["steps"] / wall,
            "sim_time_per_s": result["work"]["sim_time"] / wall,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        record["metrics"] = {name: {"value": value,
                                    "unit": END_TO_END_UNITS[name]}
                             for name, value in metrics.items()}
        if trace:
            with open(os.path.join(workdir, "spans.json")) as fh:
                spans = json.load(fh)
            layers = tracing.layer_metrics(spans)
            layers["traced_wall_s"] = wall
            record["per_layer"] = layers
            record["spans"] = len(spans["spans"])
            record["span_table"] = tracing.summarize(spans)
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def result_line(record, units):
    """The contract's last line: trace 0 carries the end-to-end metrics,
    trace 1 the per-layer ones, each with its unit."""
    ok = record["correct"]
    if not ok:
        metrics = {}
    elif record["trace"]:
        metrics = {name: {"value": record["per_layer"][name], "unit": unit}
                   for name, unit in units.items()}
    else:
        metrics = record["metrics"]
    return {"correct": ok, "attempted": 1, "failed": 0 if ok else 1,
            "metrics": metrics}


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = measure(args.workload, args.seed, args.trace, args.seconds)
    except BenchmarkError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
    print(json.dumps({key: value for key, value in record.items()
                      if key != "span_table"}, sort_keys=True))
    print(json.dumps(result_line(record, units)))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
