"""The stencil kernel against its roll/flip oracle, and its work buffers.

BackgroundGeometry fills pole ghosts by copying mirrored edge rows through
the view blocks of the pole identification and takes differences as flat
shifts over reused work buffers; stencil_reference builds the same values
by slicing, flipping, rolling and concatenating. Both run the same floating-point operations in the same order, so every
value must agree bit for bit, signed zeros included, on every chart family
and both difference orders.
"""

import functools
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stencil_reference as ref
from sigmaflow import flow, geometry
from sigmaflow.conformal import ConformalState, w_components
from sigmaflow.geometry import (
    build_hopf_product,
    build_round_sphere,
    build_synthetic,
)

CHARTS = ("S3", "S4", "S5", "S1xS2", "S1xS3", "synthetic")


@functools.lru_cache(maxsize=None)
def chart(name, fd_order):
    if name == "S5":
        # 8 points per axis keep S^5 at 32,768 nodes; build_round_sphere's
        # floor of 16 is about accuracy, which a bitwise comparison does
        # not need
        with mock.patch.object(geometry, "_check_resolution", lambda *a: None):
            return build_round_sphere(5, 8, fd_order=fd_order)
    return {"S3": lambda: build_round_sphere(3, 16, fd_order=fd_order),
            "S4": lambda: build_round_sphere(4, 16, fd_order=fd_order),
            "S1xS2": lambda: build_hopf_product(3, 1.3, 16, fd_order=fd_order),
            "S1xS3": lambda: build_hopf_product(4, 1.3, 8, fd_order=fd_order),
            "synthetic": lambda: build_synthetic(
                3, [0.5, -0.2, 0.7], 8, fd_order=fd_order)}[name]()


def bits(x):
    """The bit patterns of a float array (or scalar), for exact comparison."""
    return np.ascontiguousarray(x, dtype=float).view(np.uint64)


def assert_same(got, want):
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(bits(got), bits(want))


def random_field(geom, seed):
    # non-zonal: independent values at every node
    return np.random.default_rng(seed).standard_normal(geom.grid.shape)


@pytest.mark.parametrize("fd_order", (2, 4))
@pytest.mark.parametrize("name", CHARTS)
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), axis=st.integers(0, 4),
       width=st.integers(1, 3), comp=st.integers(-1, 4),
       integer=st.booleans())
def test_pad_matches_oracle(name, fd_order, seed, axis, width, comp, integer):
    geom = chart(name, fd_order)
    n = geom.grid.ndim
    axis, comp = axis % n, (None if comp < 0 else comp % n)
    f = random_field(geom, seed)
    if integer:
        f = np.arange(f.size, dtype=np.int32).reshape(f.shape)
        comp = None
    got = geom.pad(f, axis, width, comp)
    want = ref.pad(geom, f, axis, width, comp)
    assert got.dtype == f.dtype
    if integer:
        assert np.array_equal(got, want)
    else:
        assert_same(got, want)


@pytest.mark.parametrize("fd_order", (2, 4))
@pytest.mark.parametrize("name", CHARTS)
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_operators_match_oracle(name, fd_order, seed):
    geom = chart(name, fd_order)
    n = geom.grid.ndim
    u = random_field(geom, seed)

    parts, seconds, defect = geom.scalar_jet(u)
    r_parts, r_seconds, r_defect = ref.scalar_jet(geom, u)
    for got, want in zip(parts + seconds + [defect], r_parts + r_seconds + [r_defect]):
        assert_same(got, want)

    hess, grad, norm2 = geom.frame_derivatives(u)
    for got, want in zip(hess, ref.hessian_components(geom, u)):
        assert_same(got, want)

    r_grad, r_norm2 = ref.frame_gradient(
        geom, [ref.stencil(geom, u, a) for a in range(n)])
    for got, want in zip(grad + [norm2], r_grad + [r_norm2]):
        assert_same(got, want)

    # W needs an admissible-looking scale only for its meaning, not for
    # the comparison; a small field keeps the products well inside range
    w, grad, norm2 = w_components(geom, 0.01 * u)
    r_w, r_norm2 = ref.w_components(geom, 0.01 * u)
    for got, want in zip(w + [norm2], r_w + [r_norm2]):
        assert_same(got, want)
    for got, want in zip(grad, ref.frame_gradient(
            geom, ref.scalar_jet(geom, 0.01 * u)[0])[0]):
        assert_same(got, want)


@pytest.mark.parametrize("fd_order", (2, 4))
@pytest.mark.parametrize("name", CHARTS)
def test_w_assembly_into_given_arrays(name, fd_order):
    # Written over an earlier result, W, its gradient and |grad u|^2 land
    # in the given arrays with the bits of a fresh assembly; the defect
    # of a later polar axis passes through a work buffer on the way.
    geom = chart(name, fd_order)
    fresh = w_components(geom, 0.01 * random_field(geom, 5))
    given = w_components(geom, 0.01 * random_field(geom, 6))
    arrays = given[0] + given[1] + [given[2]]
    got = w_components(geom, 0.01 * random_field(geom, 5), out=given)
    for x, buf, want in zip(got[0] + got[1] + [got[2]], arrays,
                            fresh[0] + fresh[1] + [fresh[2]]):
        assert x is buf
        assert_same(x, want)


@pytest.mark.parametrize("fd_order", (2, 4))
@pytest.mark.parametrize("name, count", (("S3", 12), ("S4", 18), ("S5", 25),
                                         ("S1xS2", 11), ("S1xS3", 17),
                                         ("synthetic", 10)))
def test_fresh_w_assembly_allocation_count(name, fd_order, count):
    # A fresh W takes from _empty 2 grid arrays per axis for the jet, 1
    # per polar axis for its defect, 1 per off-diagonal Hessian entry and
    # 1 for |grad u|^2. Where _empty places an array depends on how many
    # came before it (geometry._PLACEMENT_STRIDE), and the step's speed
    # on those places.
    geom = chart(name, fd_order)
    u = 0.01 * random_field(geom, 8)
    w_components(geom, u)  # builds the chart's work buffers
    with mock.patch.object(geom, "_empty", side_effect=geom._empty) as empty:
        w_components(geom, u)
    assert empty.call_count == count
    assert all(call.args == (geom.grid.shape,) for call in empty.call_args_list)


def slab_field(geom, axes, seed):
    """(slab, grid field): random values on the first axes nodes, index 0
    along the rest, and their broadcast over the grid."""
    g = geom.grid
    shape = g.shape[:axes] + (1,) * (g.ndim - axes)
    f = np.random.default_rng(seed).standard_normal(shape)
    return f, np.broadcast_to(f, g.shape).copy()


def views_read_the_live_buffers(geom):
    """Every kept shape's stencil views are views of the chart's current
    work buffers (geometry._fit rebuilds them when the buffers grow)."""
    kernel = geom._kernel
    for fit in geom._fits.values():
        for buf, view in zip(kernel, fit.work):
            assert np.shares_memory(view, buf)
        for views in filter(None, fit.stencils):
            for v in views:
                assert np.shares_memory(v.pad.padded, kernel[0])
                for run, buf in zip(v.runs, kernel[1:4]):
                    assert np.shares_memory(run, buf)
                if v.defect is not None:
                    assert np.shares_memory(v.defect.total, kernel[2])
                    assert np.shares_memory(v.defect.work, kernel[3])


@pytest.mark.parametrize("fd_order", (2, 4))
@pytest.mark.parametrize("name", CHARTS)
def test_slab_views_survive_a_regrowth(name, fd_order):
    # Each shape's stencil views are built once and rebuilt where a larger
    # shape replaces the work buffers. A zonal line, an (N, N, 1, ...) slab
    # and a single node run first, then a grid field, which regrows the
    # buffers, then the slabs again: every result is the oracle's on the
    # broadcast field at the slab's nodes, bit for bit (signed zeros
    # included), and every view reads the live buffers. The old buffers
    # stay alive behind a stale view, so the values alone cannot tell.
    geom = chart.__wrapped__(name, fd_order)  # fresh: its buffers grow here
    n = geom.grid.ndim
    seeds = {1: 11, 2: 12, 0: 13, n: 14}

    def check(axes):
        f, u = slab_field(geom, axes, seeds[axes])
        at = (slice(None),) * axes + (slice(0, 1),) * (n - axes)
        same = lambda got, want: assert_same(
            np.broadcast_to(got, f.shape),
            np.broadcast_to(want, u.shape)[at])
        parts, seconds, defect = geom.scalar_jet(f)
        r_parts, r_seconds, r_defect = ref.scalar_jet(geom, u)
        for got, want in zip(parts + seconds + [defect],
                             r_parts + r_seconds + [r_defect]):
            same(got, want)
        hess, grad, norm2 = geom.frame_derivatives(f)
        for got, want in zip(hess, ref.hessian_components(geom, u)):
            same(got, want)
        r_grad, r_norm2 = ref.frame_gradient(geom, r_parts)
        for got, want in zip(grad + [norm2], r_grad + [r_norm2]):
            same(got, want)
        w, grad, norm2 = w_components(geom, 0.01 * f)
        r_w, r_norm2 = ref.w_components(geom, 0.01 * u)
        for got, want in zip(w + [norm2], r_w + [r_norm2]):
            same(got, want)
        # a partial that flips across a pole differences to nonzero near
        # it even where it is constant: only the varying axes are the grid's
        for a, comp in itertools.product(range(axes), range(n)):
            same(geom.d1(f, a, comp=comp), ref.stencil(geom, u, a, comp=comp))
        views_read_the_live_buffers(geom)

    for axes in (1, 2, 0):
        check(axes)
    size = geom._kernel[0].size
    check(n)
    assert geom._kernel[0].size > size
    for axes in (1, 2, 0):
        check(axes)


def smooth_u(geom, a, b):
    t1, t2, phi = (geom.grid.axis_vector(i, geom.grid.coordinates(i))
                   for i in range(3))
    u = a * np.cos(t1) + b * np.sin(t1) * np.sin(t2) * np.cos(phi)
    return np.broadcast_to(u, geom.grid.shape).copy()


def final_state(geom, k, u0, scheme):
    """The last state of a short flow run (the one of its last kept row)."""
    states = []
    cfg = flow.FlowConfig(k=k, t_end=6 * 2.0 ** -12, dt_initial=2.0 ** -12,
                          convergence_tol=0.0, scheme=scheme)
    flow.run(geom, u0, cfg, on_record=lambda f, state, r: states.append(state))
    return states[-1]


def cached_arrays(state):
    """u and every array the state's cache holds, nested ones included."""
    found, todo = [state.u], list(state._cache.values())
    while todo:
        x = todo.pop()
        if isinstance(x, (list, tuple)):
            todo += x
        elif isinstance(x, np.ndarray):
            found.append(x)
    return found


def test_work_buffers_alias_no_result():
    # Two states built back to back keep their own fields, nothing a call
    # returns lives in a work buffer, and the derivative matrices, whose
    # shift matrices pad builds, do not depend on what the buffers held
    # before. The final states of flow runs, which took their temporaries
    # from the chart, keep no work buffer among their fields either.
    geom = build_round_sphere(3, 16, fd_order=4)
    hopf = build_hopf_product(3, 1.3, 16, fd_order=2)
    for scheme in ("euler", "midpoint"):
        for g, k, u0 in ((geom, 2, smooth_u(geom, 0.05, 0.0)),
                         (hopf, 1, smooth_u(hopf, 0.05, 0.04))):
            state = final_state(g, k, u0, scheme)
            state.sigma_field()
            state.F_k()
            results = cached_arrays(state) + [flow.flow_speed(state)]
            assert not any(np.shares_memory(x, buf) for x in results
                           for buf in g._kernel)
    s1 = ConformalState(geom, smooth_u(geom, 0.05, 0.04), 2)
    kept = [np.copy(x) for x in s1.w_components() + s1.frame_gradient()
            + [s1.grad_norm2(), s1.sigma_w_table()]]
    s2 = ConformalState(geom, smooth_u(geom, -0.03, 0.06), 2)
    s2.sigma_w_table()
    for x, y in zip(s1.w_components() + s1.frame_gradient()
                    + [s1.grad_norm2(), s1.sigma_w_table()], kept):
        assert_same(x, y)
    assert not np.array_equal(s1.grad_norm2(), s2.grad_norm2())

    u = random_field(geom, 7)
    jet = geom.scalar_jet(u)
    hess, grad, norm2 = geom.frame_derivatives(u)
    results = (jet[0] + jet[1] + [jet[2]] + hess + grad + [norm2]
               + [geom.d1(u, 2), geom.pad(u, 1, 2), geom.pad(u, 0, 3, comp=0)])
    for state in (s1, s2):
        results += state.w_components() + state.frame_gradient() + [
            state.grad_norm2(), state.sigma_w_table()]
    work = geom._kernel
    assert not any(np.shares_memory(x, buf) for x in results for buf in work)

    state = s2
    dt = flow.cfl_dt(state, 0.4)
    for _ in range(5):
        state, _, _ = flow.step(state, dt)
    stepped = geom.derivative_matrices()
    fresh = build_round_sphere(3, 16, fd_order=4).derivative_matrices()
    for got, want in ((stepped.indptr, fresh.indptr),
                      (stepped.indices, fresh.indices),
                      (stepped._assembly.indptr, fresh._assembly.indptr),
                      (stepped._assembly.indices, fresh._assembly.indices)):
        assert np.array_equal(got, want)
    assert_same(stepped._assembly.data, fresh._assembly.data)


def test_step_path_arrays_start_apart_modulo_4k():
    # Any two grid arrays a flow step reads or writes start 0 or at least
    # 64 bytes apart modulo 4 KiB (geometry._PLACEMENT_STRIDE): a load from
    # an array starting 16-48 bytes past another's modulo 4 KiB stalls on
    # that array's stores, and glibc's 16-byte chunk headers start arrays
    # allocated in a row just that far apart.
    geom = build_round_sphere(3, 16, fd_order=4)
    hopf = build_hopf_product(3, 1.3, 16, fd_order=2)
    for scheme in ("euler", "midpoint"):
        for g, k, u0 in ((geom, 2, smooth_u(geom, 0.05, 0.0)),
                         (hopf, 1, smooth_u(hopf, 0.05, 0.04))):
            state = final_state(g, k, u0, scheme)
            arrays = [state.u] + list(g._kernel)
            for key, x in state.take_arrays().items():
                if key == "w":
                    arrays += x[0] + x[1] + [x[2]]
                elif key == "etable":
                    arrays += [x[..., j] for j in range(k + 1)]
                else:
                    arrays.append(x)
            starts = [x.__array_interface__["data"][0] for x in arrays]
            for a, b in itertools.combinations(starts, 2):
                assert (a - b) % 4096 in (0, *range(64, 4033)), scheme
