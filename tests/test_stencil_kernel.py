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
@pytest.mark.parametrize("name, count", (("S3", 10), ("S4", 15), ("S5", 21),
                                         ("S1xS2", 10), ("S1xS3", 15),
                                         ("synthetic", 10)))
def test_fresh_w_assembly_allocation_count(name, fd_order, count):
    # A fresh W takes from _empty exactly its results, grid arrays all:
    # n(n+1)/2 Hessian entries, n gradient components and |grad u|^2. The
    # jet writes into them, and every temporary is a work buffer. Where
    # _empty places an array depends on how many came before it
    # (geometry._PLACEMENT_STRIDE), and the step's speed on those places.
    geom = chart(name, fd_order)
    n = geom.grid.ndim
    u = 0.01 * random_field(geom, 8)
    w_components(geom, u)  # builds the grid shape's work buffers
    with mock.patch.object(geom, "_empty", side_effect=geom._empty) as empty:
        w_components(geom, u)
    assert empty.call_count == count == n * (n + 1) // 2 + n + 1
    assert all(call.args == (geom.grid.shape,) for call in empty.call_args_list)


def slab_field(geom, axes, seed):
    """(slab, grid field): random values on the first axes nodes, index 0
    along the rest, and their broadcast over the grid."""
    g = geom.grid
    shape = g.shape[:axes] + (1,) * (g.ndim - axes)
    f = np.random.default_rng(seed).standard_normal(shape)
    return f, np.broadcast_to(f, g.shape).copy()


def buffer_views(fit):
    """Every view of the work buffers a _Fit holds: its work arrays and
    the arrays its stencils read and write (not the flux tables, density
    and kappa, which are the chart's)."""
    views = list(fit.work)
    for v in itertools.chain(*filter(None, fit.stencils)):
        views += [v.pad.padded, v.pad.nodes, *itertools.chain(*v.pad.ghosts),
                  *(x for x in v.take if x is not None), *v.runs, *v.interior]
        if v.defect is not None:
            d = v.defect
            views += [*d.du, *(face for _, face in d.flux), d.total, d.tmp,
                      d.upper, d.lower, d.work,
                      *(block for block, _ in d.antipode)]
    return views


def arrays_in(x):
    """Every array in x, through nested lists, tuples and dict values."""
    found, todo = [], [x]
    while todo:
        x = todo.pop()
        if isinstance(x, np.ndarray):
            found.append(x)
        elif isinstance(x, dict):
            todo += x.values()
        elif isinstance(x, (list, tuple)):
            todo += x
    return found


@pytest.mark.parametrize("fd_order", (2, 4))
@pytest.mark.parametrize("name", CHARTS)
def test_each_shape_keeps_its_own_views(name, fd_order):
    # Each field shape's _Fit owns its work buffers and is built once. A
    # zonal line, an (N, N, 1, ...) slab and a single node run first, then
    # a grid field, then the slabs again: every result is the oracle's on
    # the broadcast field at the slab's nodes, bit for bit (signed zeros
    # included). Building a shape leaves every earlier _Fit as it was, the
    # object and each of its arrays (the tables' values too), and every
    # view a _Fit holds reads its own buffers and no other shape's.
    geom = chart.__wrapped__(name, fd_order)  # fresh: no shape built yet
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

    def tables(fit):
        """Copies of fit's arrays that no work buffer holds."""
        return [np.copy(x) for x in arrays_in(fit)
                if not any(np.shares_memory(x, buf) for buf in fit.buffers)]

    kept = {}
    for axes in (1, 2, 0, n, 1, 2, 0):
        check(axes)
        for shape, (fit, arrays, values) in kept.items():
            assert geom._fits[shape] is fit
            now = arrays_in(fit)
            assert len(now) == len(arrays)
            assert all(x is y for x, y in zip(now, arrays))
            for got, want in zip(tables(fit), values):
                assert_same(got, want)
        for shape, fit in geom._fits.items():
            kept.setdefault(shape, (fit, arrays_in(fit), tables(fit)))
    assert len(kept) == 4
    for shape, fit in geom._fits.items():
        others = [buf for s, other in geom._fits.items() if s != shape
                  for buf in other.buffers]
        assert len(fit.buffers) == 5
        for view in buffer_views(fit):
            assert any(np.shares_memory(view, buf) for buf in fit.buffers)
            assert not any(np.shares_memory(view, buf) for buf in others)


@pytest.mark.parametrize("fd_order", (2, 4))
@pytest.mark.parametrize("name", CHARTS)
def test_d1_along_an_axis_of_extent_1(name, fd_order):
    # Along an axis of extent 1, d1 of a slab is the grid's +0 at the
    # slab's nodes, bit for bit, for a plain scalar and for every comp
    # that keeps its sign across that axis's poles. A comp that flips
    # there (the axis itself, or a later polar angle, on a polar axis)
    # differences to nonzero next to the poles, where the grid field is
    # constant along the axis: no slab holds that, and d1 raises.
    geom = chart(name, fd_order)
    n, kinds = geom.grid.ndim, geom.grid.axis_kind
    if name == "S3":
        line = slab_field(geom, 1, 21)[0]
        with pytest.raises(ValueError):
            geom.d1(line, 1, comp=1)
        with pytest.raises(ValueError):
            geom.d1(slab_field(geom, 0, 22)[0], 0, comp=0)
    for axes in range(n):
        f, u = slab_field(geom, axes, 23 + axes)
        at = (slice(None),) * axes + (slice(0, 1),) * (n - axes)
        for a, comp in itertools.product(range(axes, n), (None, *range(n))):
            flips = kinds[a] == geometry.POLE and comp is not None and (
                comp == a or comp > a and kinds[comp] == geometry.POLE)
            if flips:
                with pytest.raises(ValueError):
                    geom.d1(f, a, comp=comp)
            else:
                assert_same(geom.d1(f, a, comp=comp),
                            ref.stencil(geom, u, a, comp=comp)[at])


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
    return [state.u] + arrays_in(state._cache)


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
                           for fit in g._fits.values() for buf in fit.buffers)
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
    work = [buf for fit in geom._fits.values() for buf in fit.buffers]
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
            arrays = [state.u] + list(g._fits[state.shape].buffers)
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
