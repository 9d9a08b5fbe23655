"""Span tracer for the benchmark's traced runs.

`install` wraps the public functions and methods of the sigmaflow layer
modules from outside, so the program itself carries no instrumentation.
Every call of a wrapped name records one span: name, start, end, the
span that caused it (the innermost open span) and whether it raised.
Spans stay in memory and are written out once, when the run ends, so the
run id is stored once per file rather than once per span.

`summarize` turns a span file into per-name calls, total and self time
(self = duration minus the time covered by direct child spans), and
`layer_metrics` derives the benchmark's per-layer metrics from that.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

# Modules whose public functions and methods get spans. symfun is the
# eigenvalue-route oracle and off every hot path; it is wrapped too but
# only its call count is reported.
LAYERS = ("geometry", "fieldalg", "conformal", "flow", "eigen", "cli",
          "fieldio", "symfun")


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self._name_index = {}
        self.spans = []      # [name index, start, end, parent, error]
        self._open = []
        self.counters = {}

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn):
        """fn with a span recorded around every call."""
        index = self._name_index.setdefault(name, len(self.names))
        if index == len(self.names):
            self.names.append(name)
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [index, clock(), 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                open_.pop()

        return traced

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "names": self.names,
                       "spans": self.spans, "counters": self.counters}, fh)


def _public_callables(module):
    """(owner, attribute, function) for every public function and method
    defined in module; constructors count as public methods."""
    found = []
    for attr, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) and not attr.startswith("_"):
            found.append((module, attr, obj))
        elif inspect.isclass(obj):
            for name, member in vars(obj).items():
                if inspect.isfunction(member) and (
                        name == "__init__" or not name.startswith("_")):
                    found.append((obj, name, member))
    return found


def install(tracer, modules):
    """Wrap every public callable of the layer modules {layer: module}.

    Names imported into other modules (`from .flow import run`) are
    rebound to the wrapper as well, so calls between modules are traced.
    eigen's gmres is wrapped to count Krylov iterations and to time each
    operator apply, by handing gmres a copy of the operator whose matvec
    is traced.
    """
    from scipy.sparse.linalg import LinearOperator, aslinearoperator

    replaced = {}
    for layer, module in modules.items():
        for owner, attr, fn in _public_callables(module):
            wrapper = tracer.wrap(f"{layer}.{fn.__qualname__}", fn)
            setattr(owner, attr, wrapper)
            replaced[id(fn)] = wrapper
    for module in modules.values():
        for attr, obj in list(vars(module).items()):
            if id(obj) in replaced:
                setattr(module, attr, replaced[id(obj)])

    eigen = modules["eigen"]
    gmres = eigen.gmres

    def traced_gmres(A, b, *args, callback=None, **kwargs):
        A = aslinearoperator(A)
        op = LinearOperator(A.shape, dtype=A.dtype,
                            matvec=tracer.wrap("eigen.matvec", A.matvec))
        if callback is not None:
            user_callback = callback

            def callback(value):
                tracer.count("eigen.krylov_iterations")
                user_callback(value)

        return gmres(op, b, *args, callback=callback, **kwargs)

    eigen.gmres = tracer.wrap("eigen.gmres", traced_gmres)


def summarize(data):
    """{span name: {calls, total_s, self_s, errors}} from a span file."""
    spans = data["spans"]
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0}
           for name in data["names"]}
    for (index, start, end, _, error), child in zip(spans, covered):
        entry = out[data["names"][index]]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child
        entry["errors"] += error is not None
    return out


def _percentile(sorted_values, q):
    """Nearest-rank percentile; 0.0 for an empty list. The rank
    ceil(q * n) is taken in integers (q in thousandths) so that it is
    exact."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-round(q * 1000) * len(sorted_values) // 1000))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(data):
    """The benchmark's per-layer metrics from one traced run.

    Layers a workload does not use report zero. Counters the program
    returns (rejected steps, kept monitor rows, bytes written) arrive in
    data["counters"] from the workload process.
    """
    agg = summarize(data)
    names, spans, counters = data["names"], data["spans"], data["counters"]

    def get(name, key="self_s"):
        return agg.get(name, {}).get(key, 0)

    m = {}
    for fn in ("scalar_jet", "covariant_hessian", "gradient_and_norm",
               "pad", "integrate"):
        m[f"geometry.{fn}.self_s"] = get(f"geometry.BackgroundGeometry.{fn}")
    m["conformal.assembly.self_s"] = get(
        "conformal.ConformalState.sigma_w_table")
    m["conformal.states_built"] = get(
        "conformal.ConformalState.__init__", "calls")
    m["conformal.cone_report.calls"] = get(
        "conformal.ConformalState.cone_report", "calls")
    for fn in ("sigma_batch", "power_sums", "newton_transform_batch",
               "lambda_max_bound", "worst_violation"):
        m[f"fieldalg.{fn}.self_s"] = get(f"fieldalg.{fn}")

    steps = get("flow.step", "calls")
    step_ms = sorted(1e3 * (end - start) for index, start, end, _, _ in spans
                     if names[index] == "flow.step")
    built = get("conformal.ConformalState.F_k", "calls")
    kept = counters.get("flow.monitor_rows_kept", 0)
    m["flow.step.calls"] = steps
    m["flow.step_ms_p50"] = _percentile(step_ms, 0.50)
    m["flow.step_ms_p99"] = _percentile(step_ms, 0.99)
    m["flow.steps_rejected"] = counters.get("flow.steps_rejected", 0)
    m["flow.cfl_dt.calls"] = get("flow.cfl_dt", "calls")
    m["flow.cfl_per_step"] = _ratio(m["flow.cfl_dt.calls"], steps)
    m["flow.monitor_rows_built"] = built
    m["flow.monitor_rows_kept"] = kept
    m["flow.monitor_keep_ratio"] = _ratio(kept, built)
    m["flow.run.self_s"] = get("flow.run")

    # A Newton iteration is one linear solve; it was useful when the
    # newton_solve around it returned instead of raising.
    index_of = {name: i for i, name in enumerate(names)}
    solve = index_of.get("eigen.newton_solve", -1)
    gmres = index_of.get("eigen.gmres", -1)
    useful = 0
    for index, _, _, parent, _ in spans:
        if index != gmres:
            continue
        while parent >= 0 and spans[parent][0] != solve:
            parent = spans[parent][3]
        useful += parent >= 0 and spans[parent][4] is None
    iterations = get("eigen.gmres", "calls")
    matvecs = get("eigen.matvec", "calls")
    m["eigen.continuations"] = get("eigen.continuation_run", "calls")
    m["eigen.continuation_failures"] = get("eigen.continuation_run", "errors")
    m["eigen.newton_solves"] = get("eigen.newton_solve", "calls")
    m["eigen.newton_failures"] = get("eigen.newton_solve", "errors")
    m["eigen.newton_iterations"] = iterations
    m["eigen.krylov_iterations"] = counters.get("eigen.krylov_iterations", 0)
    m["eigen.matvecs"] = matvecs
    m["eigen.matvec_ms"] = _ratio(1e3 * get("eigen.matvec", "total_s"), matvecs)
    m["eigen.gmres.self_s"] = get("eigen.gmres")
    m["eigen.useful_newton_ratio"] = _ratio(useful, iterations)

    m["cli.parse_config.self_s"] = get("cli.parse_config")
    m["cli.run_eigen.self_s"] = get("cli.run_eigen")
    m["fieldio.write_scalar_field.self_s"] = get("fieldio.write_scalar_field")
    m["fieldio.bytes_written"] = counters.get("fieldio.bytes_written", 0)
    m["symfun.calls"] = sum(entry["calls"] for name, entry in agg.items()
                            if name.startswith("symfun."))
    return m
