"""Chart, stencil, integration, and curvature checks.

Closed forms used as oracles:
  - restrictions of ambient linear functions to the round sphere are first
    eigenfunctions, so Hess u = -u g0 exactly and |grad cos t1|^2 = sin^2 t1;
  - centered differences act on sines multiplicatively: d1 sin = cos *
    sin(h)/h, d2 cos = -cos * (sin(h/2)/(h/2))^2, which fixes the exact
    discretization error of every trig test below;
  - the curvature routine is itself an independent path: it rebuilds the
    Schouten tensor from structure equations applied to the analytic Lame
    factors and never reads the stored Christoffel or schouten0 data.
"""

import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matrix_form import gradient, hessian
from sigmaflow import fieldio, geometry, symfun
from sigmaflow.errors import ConfigurationError
from sigmaflow.geometry import (
    build_hopf_product,
    build_round_sphere,
    build_synthetic,
    curvature_oracle,
)


def sphere_volume(m):
    """Volume of the unit round sphere S^m."""
    return 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0)


def mesh(geom):
    g = geom.grid
    axes = [g.axis_vector(a, g.coordinates(a)) for a in range(g.ndim)]
    return axes


def first_harmonic(geom):
    # x-coordinate of the ambient embedding of S^3: sin t1 sin t2 cos phi
    t1, t2, phi = mesh(geom)
    return np.broadcast_to(np.sin(t1) * np.sin(t2) * np.cos(phi),
                           geom.grid.shape).copy()


def frame_identity(geom, scale):
    n = geom.grid.ndim
    return scale[..., None, None] * np.eye(n)


# ----------------------------------------------------------------- grids


def test_grid_coordinates_and_counts():
    geom = build_round_sphere(3, 16)
    g = geom.grid
    assert g.shape == (16, 16, 16)
    assert g.axis_kind == ("pole_shifted", "pole_shifted", "periodic")
    assert g.total_points == 16 ** 3
    h = math.pi / 16
    assert abs(g.spacing[0] - h) < 1e-15
    assert abs(g.spacing[2] - 2 * h) < 1e-15
    c0 = g.coordinates(0)
    assert abs(c0[0] - h / 2) < 1e-15
    assert abs(c0[-1] - (math.pi - h / 2)) < 1e-15
    ext = g.coordinates(0, extension=1)
    assert abs(ext[0] + h / 2) < 1e-15
    c2 = g.coordinates(2)
    assert c2[0] == 0.0


def test_build_validation_errors():
    with pytest.raises(ConfigurationError):
        build_round_sphere(6, 16)
    with pytest.raises(ConfigurationError):
        build_round_sphere(3, 8)
    with pytest.raises(ConfigurationError):
        build_round_sphere(3, 17)  # odd breaks the half-period azimuth shift
    with pytest.raises(ConfigurationError):
        build_hopf_product(3, circle_radius=-1.0, points_per_axis=8)
    with pytest.raises(ConfigurationError):
        build_synthetic(2, np.zeros(2), 8)
    with pytest.raises(ConfigurationError):
        build_synthetic(3, np.zeros(4), 8)
    with pytest.raises(ConfigurationError):
        build_synthetic(3, np.zeros(3), 8, fd_order=3)


# ------------------------------------------------------------- chart data


def test_round_sphere_metadata():
    for n in (3, 4, 5):
        geom = build_round_sphere(n, 16)
        assert np.array_equal(geom.schouten0, 0.5 * np.eye(n))
        assert geom.variational
        label = symfun.cone_test(np.full(n, 0.5), n)
        assert label.inside
    geom = build_round_sphere(3, 16)
    assert abs(symfun.sigma_k(np.diag(geom.schouten0), 2) - 0.75) < 1e-15


def test_hopf_metadata():
    geom = build_hopf_product(3, circle_radius=1.0, points_per_axis=8)
    eigs = np.linalg.eigvalsh(geom.schouten0)
    assert np.allclose(np.sort(eigs), [-0.5, 0.5, 0.5])
    assert symfun.cone_test(eigs, 1).inside
    bad = symfun.cone_test(eigs, 2)
    assert not bad.inside and bad.first_failing_j == 2

    geom5 = build_hopf_product(5, circle_radius=1.0, points_per_axis=8)
    eigs5 = np.linalg.eigvalsh(geom5.schouten0)
    assert abs(symfun.sigma_k(eigs5, 2) - 0.5) < 1e-14
    assert symfun.cone_test(eigs5, 2).inside


def test_synthetic_metadata():
    s0 = np.array([[0.5, 0.1, 0.0], [0.1, 0.3, 0.0], [0.0, 0.0, 0.2]])
    geom = build_synthetic(3, s0, 8)
    assert np.array_equal(geom.schouten0, s0)
    assert not geom.variational
    diag = build_synthetic(4, [0.5, 0.5, 0.5, 0.5], 8)
    assert np.array_equal(diag.schouten0, 0.5 * np.eye(4))


def nested_sines(kinds, points, radius):
    """The closed form of a nested-sine chart: spacing pi/N on polar axes
    and 2 pi/N on periodic ones; H_0 = radius, and H_a is H_(a-1) (1 for
    a = 1) times sin theta_(a-1) when axis a-1 is polar; d_b H_a / H_a =
    cos theta_b / sin theta_b for each polar b < a."""
    n = len(kinds)
    spacing = tuple((math.pi if k == geometry.POLE else 2.0 * math.pi) / points
                    for k in kinds)
    theta = [((np.arange(points) + 0.5) * h).reshape(
        [points if a == b else 1 for a in range(n)])
        for b, h in enumerate(spacing)]
    lame = [np.full((1,) * n, radius)]
    for a in range(1, n):
        below = lame[a - 1] if a > 1 else np.ones((1,) * n)
        lame.append(below * np.sin(theta[a - 1])
                    if kinds[a - 1] == geometry.POLE else below)
    dlog = [[np.cos(theta[b]) / np.sin(theta[b])
             if b < a and kinds[b] == geometry.POLE else None
             for b in range(n)] for a in range(n)]
    return spacing, lame, dlog


@pytest.mark.parametrize("fd_order", (2, 4))
@pytest.mark.parametrize("name", ("S3", "S4", "S5", "S1xS2", "S1xS3", "box"))
def test_chart_is_derived_from_its_axis_kinds(name, fd_order):
    # Each builder gives only its axis kinds and radius; the grid, Lame
    # factors and log derivatives must be the nested sines, bit for bit.
    pole, periodic = geometry.POLE, geometry.PERIODIC
    hopf = functools.partial(build_hopf_product, circle_radius=1.3)
    box = functools.partial(build_synthetic, s0=[0.5, -0.2, 0.7])
    build, kinds, radius = {
        "S3": (build_round_sphere, (pole, pole, periodic), 1.0),
        "S4": (build_round_sphere, (pole, pole, pole, periodic), 1.0),
        "S5": (build_round_sphere, (pole, pole, pole, pole, periodic), 1.0),
        "S1xS2": (hopf, (periodic, pole, periodic), 1.3),
        "S1xS3": (hopf, (periodic, pole, pole, periodic), 1.3),
        "box": (box, (periodic,) * 3, 1.0)}[name]
    points = 8
    with mock.patch.object(geometry, "_check_resolution", lambda *a: None):
        geom = build(len(kinds), points_per_axis=points, fd_order=fd_order)
    spacing, lame, dlog = nested_sines(kinds, points, radius)
    assert geom.grid.axis_kind == kinds
    assert geom.grid.spacing == spacing
    for got, want in zip(geom.lame, lame, strict=True):
        assert got.shape == want.shape and np.array_equal(
            got.view(np.uint64), want.view(np.uint64))
    for got_row, want_row in zip(geom.dlog, dlog, strict=True):
        for got, want in zip(got_row, want_row, strict=True):
            if want is None:
                assert got is None
            else:
                assert got.shape == want.shape and np.array_equal(
                    got.view(np.uint64), want.view(np.uint64))


# ------------------------------------------------------------ integration


def test_volume_round_sphere():
    exact = 2.0 * math.pi ** 2
    err32 = abs(build_round_sphere(3, 32).volume() - exact) / exact
    err16 = abs(build_round_sphere(3, 16).volume() - exact) / exact
    assert err32 <= 1e-3
    assert err32 < err16  # quadrature improves under refinement
    assert abs(sphere_volume(3) - exact) < 1e-12


def test_volume_hopf():
    r = 1.3
    geom = build_hopf_product(3, circle_radius=r, points_per_axis=24)
    exact = 2.0 * math.pi * r * sphere_volume(2)
    assert abs(geom.volume() - exact) / exact <= 1e-3

    r = 0.7
    geom5 = build_hopf_product(5, circle_radius=r, points_per_axis=24)
    exact5 = 2.0 * math.pi * r * sphere_volume(4)
    assert abs(geom5.volume() - exact5) / exact5 <= 1e-3


def test_volume_synthetic_exact():
    geom = build_synthetic(3, 0.5 * np.eye(3), 8)
    exact = (2.0 * math.pi) ** 3
    assert abs(geom.volume() - exact) / exact <= 1e-12


def test_integrate_weight_and_odd_function():
    geom = build_round_sphere(3, 16)
    vol = geom.volume()
    c = 0.37
    weighted = geom.integrate(np.ones((1, 1, 1)),
                              weight=math.exp(-3 * c) * np.ones((1, 1, 1)))
    assert abs(weighted - math.exp(-3 * c) * vol) / vol <= 1e-14
    t1 = mesh(geom)[0]
    assert abs(geom.integrate(np.cos(t1))) <= 1e-10  # odd about the equator


# --------------------------------------------------------------- stencils


def test_adjointness_periodic():
    # summation by parts: centered differences are exactly antisymmetric
    # against the uniform weight on periodic axes
    rng = np.random.default_rng(7)
    for order in (2, 4):
        geom = build_synthetic(3, 0.5 * np.eye(3), 16, fd_order=order)
        u = rng.standard_normal(geom.grid.shape)
        v = rng.standard_normal(geom.grid.shape)
        for axis in range(3):
            pairing = geom.integrate(geom.d1(u, axis) * v) \
                + geom.integrate(u * geom.d1(v, axis))
            assert abs(pairing) <= 1e-10


def test_d1_d2_sine_fourth_order():
    errs = []
    for N in (16, 32):
        geom = build_synthetic(3, 0.5 * np.eye(3), N, fd_order=4)
        x1 = mesh(geom)[0]
        u = np.broadcast_to(np.sin(x1), geom.grid.shape)
        e1 = np.max(np.abs(geom.d1(u, 0) - np.cos(x1)))
        e2 = np.max(np.abs(geom.scalar_jet(u)[1][0] + np.sin(x1)))
        errs.append(max(e1, e2))
    assert errs[0] <= 2e-3
    order = math.log2(errs[0] / errs[1])
    assert order >= 3.8


def test_gradient_linear_interior():
    geom = build_synthetic(3, 0.5 * np.eye(3), 16, fd_order=2)
    x1 = mesh(geom)[0]
    u = np.broadcast_to(x1, geom.grid.shape)
    _, norm2 = gradient(geom, u)
    # centered differences are exact on a linear away from the wrap seam
    assert np.max(np.abs(norm2[1:-1] - 1.0)) <= 1e-12


def test_gradient_norm_round_sphere():
    errs = []
    for N in (16, 32):
        geom = build_round_sphere(3, N)
        t1 = mesh(geom)[0]
        u = np.broadcast_to(np.cos(t1), geom.grid.shape)
        grad, norm2 = gradient(geom, u)
        errs.append(np.max(np.abs(norm2 - np.sin(t1) ** 2)))
        assert np.max(np.abs(grad[..., 1])) <= 1e-15
        assert np.max(np.abs(grad[..., 2])) <= 1e-15
    assert errs[0] <= 0.02
    assert math.log2(errs[0] / errs[1]) >= 1.9


# ---------------------------------------------------------------- hessian


def test_hessian_constant_is_zero():
    geom = build_round_sphere(3, 16)
    u = np.full(geom.grid.shape, 0.7)
    hess = hessian(geom, u)
    assert np.max(np.abs(hess)) == 0.0
    grad, norm2 = gradient(geom, u)
    assert np.max(np.abs(grad)) == 0.0 and np.max(np.abs(norm2)) == 0.0


def test_hessian_symmetry_exact():
    geom = build_round_sphere(3, 16)
    rng = np.random.default_rng(11)
    u = rng.standard_normal(geom.grid.shape)
    hess = hessian(geom, u)
    assert np.array_equal(hess, np.swapaxes(hess, -1, -2))


def test_hessian_synthetic_sine():
    geom = build_synthetic(3, 0.5 * np.eye(3), 16, fd_order=4)
    x1 = mesh(geom)[0]
    eps = 0.05
    u = np.broadcast_to(eps * np.sin(x1), geom.grid.shape)
    hess = hessian(geom, u)
    assert np.max(np.abs(hess[..., 0, 0] + eps * np.sin(x1))) <= 2e-3 * eps
    for a in range(3):
        for b in range(3):
            if (a, b) != (0, 0):
                # 4th-order coefficient sums on a constant leave rounding
                # dust (15a is not representable), unlike the 2nd-order path
                assert np.max(np.abs(hess[..., a, b])) <= 1e-15


def ambient_coordinates(geom):
    """Cartesian coordinates of the chart's embedding, one grid field each:
    R^{m+1} for a round sphere S^m on the polar axes and the azimuth, and
    the circle's (cos, sin) in front of them on the product chart."""
    angles = mesh(geom)
    out = []
    if geom.name == "hopf_product":
        out += [np.cos(angles[0]), np.sin(angles[0])]
        angles = angles[1:]
    tail = 1.0
    for theta in angles[:-1]:
        out.append(tail * np.cos(theta))
        tail = tail * np.sin(theta)
    out += [tail * np.cos(angles[-1]), tail * np.sin(angles[-1])]
    return [np.broadcast_to(x, geom.grid.shape) for x in out]


@functools.lru_cache(maxsize=None)
def divergence_chart(name, n, fd_order):
    if name == "round_sphere":
        return build_round_sphere(n, 16, fd_order=fd_order)
    return build_hopf_product(n, 1.3, 16 if n == 3 else 8, fd_order=fd_order)


@pytest.mark.parametrize("fd_order", (2, 4))
@pytest.mark.parametrize("name, n", (("round_sphere", 3), ("round_sphere", 4),
                                     ("hopf_product", 3), ("hopf_product", 4)))
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_discrete_divergence_theorem(name, n, fd_order, seed):
    # The trace of the discrete Hessian is a discrete divergence: its
    # integral against the quadrature weights vanishes to rounding for
    # every grid function, as the continuum integral of a Laplacian does.
    # phi is a random cubic in the ambient coordinates, so smooth on the
    # manifold and not harmonic.
    geom = divergence_chart(name, n, fd_order)
    rng = np.random.default_rng(seed)
    x = ambient_coordinates(geom)
    phi = sum(rng.standard_normal() * xi for xi in x)
    for i in range(len(x)):
        for j in range(i, len(x)):
            phi = phi + rng.standard_normal() * x[i] * x[j] * (
                1.0 + 0.5 * rng.standard_normal() * x[(i + j) % len(x)])
    lap = np.trace(hessian(geom, phi), axis1=-2, axis2=-1)
    terms = np.broadcast_to(geom.vol_weight, geom.grid.shape) * lap
    assert abs(np.sum(terms)) <= 1e-12 * np.sum(np.abs(terms))


@functools.lru_cache(maxsize=None)
def matrix_chart(name, n, fd_order):
    if name == "round_sphere":
        # 8 and 6 points per axis keep S^4 and S^5 small; the floor of 16
        # is about accuracy, which a comparison with the stencils does not
        # need. They still hold the corners where the poles of three or
        # more polar angles meet, and the flux's h^5 terms.
        with mock.patch.object(geometry, "_check_resolution", lambda *a: None):
            return build_round_sphere(n, {3: 16, 4: 8, 5: 6}[n],
                                      fd_order=fd_order)
    if name == "hopf_product":
        return build_hopf_product(n, 1.3, 16 if n == 3 else 8,
                                  fd_order=fd_order)
    return build_synthetic(n, [0.5, -0.2, 0.7], 8, fd_order=fd_order)


@pytest.mark.parametrize("fd_order", (2, 4))
@pytest.mark.parametrize("name, n", (("round_sphere", 3), ("round_sphere", 4),
                                     ("round_sphere", 5), ("hopf_product", 3),
                                     ("hopf_product", 4), ("synthetic", 3)))
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_derivative_matrices_reproduce_the_stencils(name, n, fd_order, seed):
    # The matrices are built from shift matrices, apart from the stencil
    # code, so on any grid function they must agree with
    # hessian_components and frame_gradient to rounding; a ghost, sign or
    # antipode rule that differs would show as a wrong entry. Every row
    # holds its diagonal entry exactly once, which combine(diagonal=...)
    # and the Jacobi sweep of eigen._two_level read.
    geom = matrix_chart(name, n, fd_order)
    maps = geom.derivative_matrices()
    assert np.array_equal(maps.indices[maps.diagonal], np.arange(maps.size))
    rows = np.repeat(np.arange(maps.size), np.diff(maps.indptr))
    assert np.array_equal(rows[maps.diagonal], np.arange(maps.size))
    assert np.count_nonzero(rows == maps.indices) == maps.size
    rho = np.random.default_rng(seed).standard_normal(geom.grid.shape)
    jet = geom.scalar_jet(rho)
    expected = (geom.hessian_components(rho, jet=jet)
                + geom.frame_gradient(jet[0])[0])
    assert maps.count == len(expected)
    for m, out in enumerate(expected):
        weights = np.zeros((maps.count, maps.size))
        weights[m] = 1.0
        got = maps.combine(weights) @ rho.reshape(-1)
        out = np.broadcast_to(out, geom.grid.shape).reshape(-1)
        assert np.max(np.abs(got - out)) <= 1e-13 * np.max(np.abs(out))


def union_pattern(maps, size):
    """The pattern the pairwise way: the scipy sum of every map's entries
    and the identity, as a boolean CSR array."""
    from scipy import sparse
    union = sparse.identity(size, dtype=bool, format="csr")
    for stored in maps:
        union = union + (stored != 0)
    return union


@pytest.mark.parametrize("fd_order", (2, 4))
@pytest.mark.parametrize("name, n, points", (
    ("round_sphere", 3, None), ("round_sphere", 4, None),
    ("round_sphere", 5, None), ("hopf_product", 3, None),
    ("hopf_product", 4, None), ("synthetic", 3, None),
    ("round_sphere", 4, 6), ("hopf_product", 4, 6), ("synthetic", 4, 6)))
def test_derivative_pattern_is_the_union_of_the_maps(name, n, points,
                                                      fd_order):
    # The one-pass build iterates the maps once, merges their keys and
    # places every entry by a binary search; the reference is the pairwise
    # union of the maps with the diagonal. Every stored map must come back
    # from the assembly operator bit for bit: its column m * size + r
    # lists the pattern entries of row r of map m.
    with mock.patch.object(geometry, "_check_resolution", lambda *a: None):
        if points is None:
            geom = matrix_chart.__wrapped__(name, n, fd_order)
        elif name == "synthetic":
            geom = build_synthetic(n, [0.5, -0.2, 0.7, 0.1], points,
                                   fd_order=fd_order)
        else:
            geom = {"round_sphere": build_round_sphere,
                    "hopf_product": build_hopf_product}[name](
                n, points_per_axis=points, fd_order=fd_order)
    calls = []
    maps_of = geom._maps
    with mock.patch.object(geom, "_maps",
                           lambda: calls.append(1) or maps_of()):
        maps = geom.derivative_matrices()
    assert len(calls) == 1
    stored = list(maps_of())
    union = union_pattern(stored, maps.size)
    assert np.array_equal(maps.indptr, union.indptr)
    assert np.array_equal(maps.indices, union.indices)
    assert maps.count == len(stored) - 1
    assembly = maps._assembly
    for m, expected in enumerate(stored):
        ends = assembly.indptr[m * maps.size:(m + 1) * maps.size + 1]
        entries = slice(ends[0], ends[-1])
        assert np.array_equal(ends - ends[0], expected.indptr)
        assert np.array_equal(maps.indices[assembly.indices[entries]],
                              expected.indices)
        assert assembly.data[entries].tobytes() == expected.data.tobytes()


def test_derivative_pattern_is_int32_on_every_chart():
    # scipy picks the index dtype of a sparse sum from buffer contents that
    # vary with the process's heap, so charts built back to back in one
    # process came out int32 or int64 from build to build; int64 indices
    # slow every product with a combined Jacobian
    rng = np.random.default_rng(0)
    builds = (lambda o: build_round_sphere(3, 16, fd_order=o),
              lambda o: build_round_sphere(4, 8, fd_order=o),
              lambda o: build_round_sphere(5, 6, fd_order=o),
              lambda o: build_hopf_product(3, 1.3, 16, fd_order=o),
              lambda o: build_hopf_product(4, 1.3, 8, fd_order=o),
              lambda o: build_synthetic(3, [0.5, -0.2, 0.7], 8, fd_order=o))
    with mock.patch.object(geometry, "_check_resolution", lambda *a: None):
        for fd_order in (2, 4, 2):
            for build in builds:
                maps = build(fd_order).derivative_matrices()
                jac = maps.combine(rng.standard_normal((maps.count, maps.size)))
                for index in (maps.indices, maps.indptr, jac.indices,
                              jac.indptr):
                    assert index.dtype == np.int32


def test_laplacian_converges_next_to_poles():
    # Fields with a nonzero second derivative through a pole, at fd4.
    # cos(theta) on the S^2 factor of S^1 x S^2 and sin t1 cos t2 on S^3
    # cross the poles of an axis with density sin theta (m = 1), where the
    # node next to the pole carries 11/12 of its midpoint weight; the
    # second field is amplified by 1/sin^2 t1 near the other pole. On S^4,
    # cos t1 crosses an m = 3 pole and sin t1 cos t2 an m = 2 pole met by
    # the poles of theta_1, where the flux carries its h^5 terms.
    def trace_error(geom, u, eigenvalue):
        u = np.broadcast_to(u, geom.grid.shape)
        return np.trace(hessian(geom, u), axis1=-2, axis2=-1) - eigenvalue * u

    maxs = []
    for N in (16, 32, 64):
        geom = build_hopf_product(3, 1.0, N, fd_order=4)
        maxs.append(np.max(np.abs(trace_error(geom, np.cos(mesh(geom)[1]), -2.0))))
    assert maxs[0] <= 5e-4
    assert math.log2(maxs[1] / maxs[2]) >= 1.8
    l2s = []
    for N in (16, 32):
        geom = build_round_sphere(3, N, fd_order=4)
        t1, t2, _ = mesh(geom)
        err = trace_error(geom, np.sin(t1) * np.cos(t2), -3.0)
        assert np.max(np.abs(err)) <= 5e-3
        l2s.append(math.sqrt(geom.integrate(err * err)))
    assert math.log2(l2s[0] / l2s[1]) >= 3.0
    for field, bound, order in ((lambda t: np.cos(t[0]), 5e-3, 3.0),
                                (lambda t: np.sin(t[0]) * np.cos(t[1]), 1.5e-2, 2.0)):
        errs = []
        for N in (16, 24):
            geom = build_round_sphere(4, N, fd_order=4)
            errs.append(np.max(np.abs(trace_error(geom, field(mesh(geom)), -4.0))))
        assert errs[0] <= bound
        assert math.log(errs[0] / errs[1]) / math.log(1.5) >= order


def test_hessian_zonal_harmonic_round_sphere():
    # cos t1 is the restriction of an ambient linear function: Hess = -u g0
    errs = []
    for N in (16, 32):
        geom = build_round_sphere(3, N)
        t1 = mesh(geom)[0]
        u = np.broadcast_to(np.cos(t1), geom.grid.shape)
        hess = hessian(geom, u)
        err = hess + frame_identity(geom, u)
        errs.append(np.max(np.abs(err)))
    assert errs[0] <= 0.01
    assert math.log2(errs[0] / errs[1]) >= 1.9


def test_hessian_full_harmonic_round_sphere():
    # sin t1 sin t2 cos phi exercises mixed partials, the pole-flip ghost
    # parity, and every Christoffel coefficient at once. Frame components
    # divide by sin t1 sin t2, so the pointwise error carries that envelope;
    # convergence is measured on the damped error (max norm) and in L2.
    damped_errs = []
    l2_errs = []
    for N in (16, 32):
        geom = build_round_sphere(3, N)
        u = first_harmonic(geom)
        err = hessian(geom, u) + frame_identity(geom, u)
        t1, t2, _ = mesh(geom)
        w = np.broadcast_to(np.sin(t1) * np.sin(t2), geom.grid.shape)
        damped_errs.append(np.max(np.abs(err) * w[..., None, None]))
        l2_errs.append(math.sqrt(geom.integrate(np.sum(err * err, axis=(-2, -1)))))
    assert damped_errs[0] <= 0.05
    assert math.log2(damped_errs[0] / damped_errs[1]) >= 1.9
    assert math.log2(l2_errs[0] / l2_errs[1]) >= 1.7


def test_pole_ghost_matches_smooth_continuation():
    # the ghost row across theta_1 = 0 must equal the analytic value of a
    # globally smooth function at the reflected coordinate
    geom = build_round_sphere(3, 16)
    u = first_harmonic(geom)
    padded = geom.pad(u, 0, 1)
    h = geom.grid.spacing[0]
    _, t2, phi = mesh(geom)
    ghost_exact = np.sin(-h / 2) * np.sin(t2) * np.cos(phi)
    assert np.max(np.abs(padded[0] - ghost_exact)) <= 1e-13
    ghost_top = np.sin(math.pi + h / 2) * np.sin(t2) * np.cos(phi)
    assert np.max(np.abs(padded[-1] - ghost_top)) <= 1e-13


def test_zonal_fields_stay_bitwise_zonal():
    # fields constant along theta_2 and phi must stay exactly constant
    # along them through every operator; the flow relies on this to keep
    # zonal data on the zonal invariant manifold
    geom = build_round_sphere(3, 16)
    t1 = mesh(geom)[0]
    u = np.broadcast_to(0.1 * np.cos(t1), geom.grid.shape).copy()
    hess = hessian(geom, u)
    grad, norm2 = gradient(geom, u)
    for field in (hess, grad, norm2):
        ref = field[:, :1, :1]
        assert np.array_equal(field, np.broadcast_to(ref, field.shape))


# --------------------------------------------------------------- curvature


def test_curvature_oracle_round_sphere():
    errs = []
    for N in (16, 32):
        geom = build_round_sphere(3, N)
        dev = curvature_oracle(geom) - geom.schouten0
        errs.append(np.max(np.abs(dev)))
    assert errs[0] <= 0.05
    assert math.log2(errs[0] / errs[1]) >= 1.9


def test_curvature_oracle_hopf():
    errs = []
    for N in (16, 32):
        geom = build_hopf_product(3, circle_radius=1.0, points_per_axis=N)
        eigs = np.linalg.eigvalsh(curvature_oracle(geom))
        dev = eigs - np.array([-0.5, 0.5, 0.5])
        errs.append(np.max(np.abs(dev)))
    assert errs[0] <= 0.05
    assert math.log2(errs[0] / errs[1]) >= 1.9


def test_curvature_oracle_flat():
    geom = build_synthetic(3, 0.5 * np.eye(3), 8)
    assert np.max(np.abs(curvature_oracle(geom))) <= 1e-12


# ----------------------------------------------------------------- fieldio


def test_scalar_dump_roundtrip(tmp_path):
    geom = build_round_sphere(3, 16)
    rng = np.random.default_rng(3)
    values = rng.standard_normal(geom.grid.shape)
    path = tmp_path / "u.dump"
    fieldio.write_scalar_field(path, geom, values)
    back, meta = fieldio.read_field(path)
    assert np.array_equal(back, values)  # %.17g is bit-exact for doubles
    assert meta["dims"] == (16, 16, 16)
    assert meta["chart"] == "round_sphere"
    assert meta["axis"] == ("pole_shifted", "pole_shifted", "periodic")


def test_dump_rejects_garbage(tmp_path):
    path = tmp_path / "bad.dump"
    path.write_text("not-a-dump v1; dims=2; axis=periodic; chart=x\n0\n0\n")
    with pytest.raises(ConfigurationError):
        fieldio.read_field(path)
    geom = build_synthetic(3, 0.5 * np.eye(3), 8)
    good = tmp_path / "short.dump"
    fieldio.write_scalar_field(good, geom, np.zeros(geom.grid.shape))
    lines = good.read_text().splitlines()
    good.write_text("\n".join(lines[:-5]) + "\n")
    with pytest.raises(ConfigurationError):
        fieldio.read_field(good)
    # rows of six entries (the upper triangle of a 3 x 3 tensor) are not
    # a scalar dump
    wide = tmp_path / "wide.dump"
    wide.write_text("\n".join([lines[0]] + ["0,1,2,3,4,5"] * (len(lines) - 1))
                    + "\n")
    with pytest.raises(ConfigurationError):
        fieldio.read_field(wide)
    # a non-numeric entry, and values write_scalar_field refuses to write
    for entry in ("abc", "nan", "inf", "-inf"):
        bad = tmp_path / f"{entry}.dump"
        bad.write_text("\n".join(lines[:3] + [entry] + lines[4:]) + "\n")
        with pytest.raises(ConfigurationError, match=f"row 3 holds '{entry}'"):
            fieldio.read_field(bad)
    # headers whose version, dims or axis kinds do not parse or agree
    for header, rows in (("sigmaflow-field vX; dims=2; axis=periodic", 2),
                         ("sigmaflow-field v1; dims=2,a; axis=periodic,periodic", 2),
                         ("sigmaflow-field v1; dims=0; axis=periodic", 0),
                         ("sigmaflow-field v1; dims=2; axis=periodic,periodic", 2),
                         ("sigmaflow-field v1; dims=2; axis=polar", 2)):
        bad = tmp_path / "header.dump"
        bad.write_text(f"{header}; chart=x\n" + "0\n" * rows)
        with pytest.raises(ConfigurationError):
            fieldio.read_field(bad)
