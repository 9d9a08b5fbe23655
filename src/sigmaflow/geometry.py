"""Structured grids and background geometries for the model charts.

Three chart families, all with diagonal background metrics in coordinates.
Each is a nested-sine chart, described by its axis kinds (polar or
periodic) and the radius of axis 0; BackgroundGeometry derives the rest.

  round_sphere  hyperspherical chart on S^n: polar angles theta_1..theta_{n-1}
                in (0, pi), azimuth phi in [0, 2pi). Lame factors
                H_a = prod_{j<a} sin(theta_j). Frame Schouten = I/2.
  hopf_product  S^1(r) x S^{n-1}: periodic circle coordinate, then the
                (n-1)-sphere chart. Frame Schouten = diag(-1/2, 1/2, ...).
  synthetic     flat periodic box [0, 2pi)^n with the identity metric and a
                constant override for the Schouten tensor; a stencil test
                bed. Its variational flag is off, which only makes
                geometry-validate check summation by parts, not curvature.

Polar axes use shifted nodes theta_i = (i + 1/2) h so no node sits on a
coordinate pole. Ghost values across a pole come from the smooth
identification (-theta, tail) ~ (theta, antipode of tail): every later polar
angle reflects and the azimuth shifts by half a period. Components of
gradients pick up a sign when their direction flips under that map.

Tensor fields live in the orthonormal frame of the background metric, as
lists of grid arrays: vectors by component, symmetric tensors by their
upper triangle in fieldalg.pairs(n) order. Only the curvature oracle
returns a full (..., n, n) array. frame_derivatives gives the Hessian
and gradient of a scalar from one stencil pass per axis; derivative_matrices
gives the same maps as sparse matrices, built from pad's shifts. The
stencils and the matrices also take a slab of the grid, index 0 along
trailing axes a field is constant along, and give the grid's values there
(_fit; the matrices per shape); integrate sums on a slab against the
volume weight summed over its collapsed axes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import fieldalg
from .errors import ConfigurationError

POLE = "pole_shifted"
PERIODIC = "periodic"
# _empty starts successive arrays 1088 B apart modulo 4 KiB: starts 16-48 B
# apart alias ("4K aliasing"). W assembly, 32^3/fd4, 60 rounds: 3,278 us at
# glibc's 16 B steps, 3,479 us with equal starts, 2,743 us at 1088 B.
_PLACEMENT_STRIDE = 1088


@dataclass(frozen=True)
class Grid:
    """Uniform structured grid; one axis per coordinate."""

    shape: tuple
    spacing: tuple
    axis_kind: tuple

    @property
    def ndim(self):
        return len(self.shape)

    @property
    def total_points(self):
        return int(np.prod(self.shape))

    def coordinates(self, axis, extension=0):
        """Node coordinates along an axis, optionally extended by ghost layers."""
        n = self.shape[axis]
        h = self.spacing[axis]
        idx = np.arange(-extension, n + extension, dtype=float)
        if self.axis_kind[axis] == POLE:
            idx = idx + 0.5
        return idx * h

    def axis_vector(self, axis, values):
        """Reshape a 1-D per-axis array for broadcasting over the grid."""
        shape = [1] * self.ndim
        shape[axis] = len(values)
        return np.asarray(values, dtype=float).reshape(shape)


class _Fit(NamedTuple):
    """The chart's stencil tables for fields of one shape (_fit)."""

    layout: list         # (nodes before, along, after) each axis in C order
    inv_lame: list       # 1/H_a
    inv_lame2: list      # 1/H_a^2
    unit: list           # per a, (1/H_a, 1/H_a^2) each exactly 1.0
    mixed: dict          # per pair a < b, 1/H_a * 1/H_b
    christoffel: list    # per a, (c, dlog[a][c] / H_c^2) for c != a
    dlog: list           # dlog[a][b], None where it vanishes
    polar: dict          # polar axis of full extent: (flux tiles, blocks)
    weight: np.ndarray   # vol_weight summed over the grid axes of extent 1
    symbol: object       # laplacian_symbol over the axes of extent > 1
    buffers: list        # the shape's five work buffers, flat and zeroed
    work: list           # each buffer from its start, in the shape
    stencils: list       # per axis, None at extent 1, else _stencil's
                         # _Stencil for second=False and for second=True


class _Pad(NamedTuple):
    """A padded field's views for fields of one shape, along one axis at
    one ghost width (pad)."""

    width: int
    padded: np.ndarray   # the field's shape, n + 2 width nodes along the axis
    nodes: np.ndarray    # where the field's own nodes go
    ghosts: tuple        # (ghost block, the nodes it copies)
    flips: tuple         # the comps whose ghosts change sign


class _Stencil(NamedTuple):
    """_stencil's views of the work buffers for fields of one shape along
    one axis of extent > 1, at one ghost width (_fit)."""

    pad: _Pad            # the padded field, in the first buffer
    take: tuple          # its runs shifted by s = -2..2 nodes (None past width)
    runs: tuple          # one, two, tmp: runs of the next three buffers
    interior: tuple      # the nodes of one and of two, in the field's shape
    scale: tuple         # 1 / (denominator h^order) of the two differences
    defect: object       # a polar axis's _Defect at second=True, else None


class _Defect(NamedTuple):
    """_polar_defect's views of the work buffers (see _Stencil)."""

    du: tuple            # (out, minuend, subtrahend): the face differences
    flux: tuple          # (flux tile, face differences it weights)
    total: np.ndarray    # the flux: one run, laid out as the padded field
    tmp: np.ndarray      # a run in the same layout
    upper: np.ndarray    # the flux above each node, in the field's shape
    lower: np.ndarray    # and below it
    hs: np.ndarray       # _PolarAxis.hs
    kappa: np.ndarray    # _PolarAxis.kappa
    work: np.ndarray     # a buffer in the field's shape
    antipode: tuple      # (block of work, index into the defect it copies);
                         # empty where every later axis has extent 1


class _PolarAxis(NamedTuple):
    flux: tuple          # (k, face coefficient of du_{+k}), |k| <= 2
    width: int           # ghost layers the flux needs
    hs: np.ndarray       # h^2 times the node density
    kappa: np.ndarray    # m cot(theta): sum of the Christoffel terms
    weight: np.ndarray   # node weights relative to the midpoint rule


def _sine_power_derivatives(m, theta, count):
    """[d^k/dtheta^k sin(theta)^m for k < count], from the terms
    c sin^a cos^b of each derivative."""
    sin, cos = np.sin(theta), np.cos(theta)
    terms = {(m, 0): 1.0}
    out = []
    for _ in range(count):
        out.append(sum(c * sin ** a * cos ** b for (a, b), c in terms.items()))
        nxt = {}
        for (a, b), c in terms.items():
            if a:
                nxt[a - 1, b + 1] = nxt.get((a - 1, b + 1), 0.0) + a * c
            if b:
                nxt[a + 1, b - 1] = nxt.get((a + 1, b - 1), 0.0) - b * c
        terms = nxt
    return out


# (j, c): h^5 u^(5-j) at a face is h^j sum_k c_k du_k over the face
# differences du_{-2..2}, to second order
_FACE_DERIVATIVES = (
    (0, (1.0, -4.0, 6.0, -4.0, 1.0)),
    (1, (-0.5, 1.0, 0.0, -1.0, 0.5)),
    (2, (0.0, 1.0, -2.0, 1.0, 0.0)),
    (3, (0.0, -0.5, 0.0, 0.5, 0.0)),
    (4, (0.0, 0.0, 1.0, 0.0, 0.0)),
)

# _stencil's difference weights (shifts -2..2) and denominators over h^order
_DIFFERENCES = {2: (((0, -1, 0, 1, 0), 2.0), ((0, 1, -2, 1, 0), 1.0)),
                4: (((1, -8, 0, 8, -1), 12.0), ((-1, 16, -30, 16, -1), 12.0))}


def _slice_axis(arr, axis, sl):
    idx = [slice(None)] * arr.ndim
    idx[axis] = sl
    return arr[tuple(idx)]


def _sparse_sum(terms, size):
    """The sum of terms (columns, values), one entry per row each, as a
    size x size CSR array without repeats or explicit zeros."""
    from scipy import sparse
    columns = np.array([c for c, _ in terms], dtype=np.int32).reshape(-1, size)
    values = np.array([v for _, v in terms], dtype=float).reshape(-1, size)
    # an int32 indptr keeps scipy's indices int32 too
    dtype = np.int32 if size * len(terms) < 2 ** 31 else np.int64
    out = sparse.csr_array(
        (values.T.reshape(-1), columns.T.reshape(-1),
         np.arange(size + 1, dtype=dtype) * len(terms)), shape=(size, size))
    out.sum_duplicates()
    out.eliminate_zeros()
    return out


class DerivativeMatrices:
    """The frame Hessian and gradient of a scalar as sparse matrices over
    the flattened fields of one shape (C order), the grid's or a slab's,
    on one CSR pattern.

    The maps, in the order combine() takes their weights, are H_ab for
    (a, b) in fieldalg.pairs(n), then G_c: the order of hess + grad from
    BackgroundGeometry.frame_derivatives. Its Hessian adds the
    divergence-form trace correction D / n to each diagonal entry, so H_aa
    is stored as its pointwise part and D once, with the weight
    sum_a w_aa / n. What is kept is the assembly operator A: row p, column
    m * size + r holds the value of stored map m at pattern entry p, whose
    row is r, so the pattern values of sum_m diag(w_m) L_m are A @ w for
    the stacked weights w, the trace weight last.
    """

    def __init__(self, shape, maps):
        """maps() yields the stored maps (pointwise H_ab, G_c, then D) as
        canonical CSR arrays without explicit zeros, and is iterated once.
        The flat keys row * size + col of a map's entries form a sorted run,
        and so do the diagonal's. One stable sort of all runs (timsort
        merges them) less its repeats is the pattern; a binary search in
        it places the diagonal and every map entry."""
        from scipy import sparse
        self.shape = shape
        self.size = size = math.prod(shape)
        self._n = len(shape)
        self._with_trace = [m for m, (a, b)
                            in enumerate(fieldalg.pairs(self._n)) if a == b]
        self._coarse = {}
        # the kept arrays first, below the merge's temporaries in the heap:
        # the values, and position, which holds the maps' columns (int32,
        # as _sparse_sum builds them) until their positions replace them
        per_row, position, data = zip(*(
            (np.diff(stored.indptr), stored.indices, stored.data)
            for stored in maps()))
        data, position = np.concatenate(data), np.concatenate(position)
        column_end = np.zeros(len(per_row) * size + 1, dtype=np.int32)
        np.cumsum(np.concatenate(per_row), out=column_end[1:])
        self.count = len(per_row) - 1
        dtype = np.int32 if (size + 1) * size < 2 ** 31 else np.int64
        starts = np.arange(0, (size + 1) * size, size, dtype=dtype)
        # one map's keys at a time: only the merge spans them all
        runs = lambda: ((where, np.repeat(starts[:-1], p) + position[where])
                        for p, where in zip(per_row, map(
                            slice, column_end[:-1:size], column_end[size::size])))
        diagonal = starts[:-1] + np.arange(size, dtype=dtype)
        union = np.empty(len(position) + size, dtype=dtype)
        union[len(position):] = diagonal
        for where, run in runs():
            union[where] = run
        union.sort(kind="stable")
        union = union[np.concatenate(([True], union[1:] != union[:-1]))]
        # pattern and positions int32: int64 slows every J product
        self.indptr = np.searchsorted(union, starts).astype(np.int32)
        self.diagonal = np.searchsorted(union, diagonal).astype(np.int32)
        for where, run in runs():
            position[where] = np.searchsorted(union, run)
        self.indices = np.remainder(union, size, out=union).astype(np.int32)
        self._assembly = sparse.csc_array(
            (data, position, column_end),
            shape=(len(union), len(column_end) - 1))

    def combine(self, weights, diagonal=0.0):
        """sum_m diag(weights[m]) L_m + diag(diagonal) as a CSR array over
        the maps L_m above; weights is (count, size), diagonal a scalar or
        (size,)."""
        from scipy import sparse
        stacked = np.empty((self.count + 1, self.size))
        stacked[:-1] = weights
        stacked[-1] = sum(weights[m] for m in self._with_trace) / self._n
        data = self._assembly @ stacked.reshape(-1)
        data[self.diagonal] += diagonal
        return sparse.csr_array((data, self.indices, self.indptr),
                                shape=(self.size, self.size))

    def coarse_space(self, block):
        """The aggregates of block nodes per axis, and the pattern of L Z
        for every L from combine, Z the aggregates' indicator columns:
        (agg, count, slot, indices, indptr, entry), the aggregate of every
        node, their number, the L Z entry of every pattern entry, L Z's
        CSR pattern and the flat entry of Z^T L Z of every L Z entry.
        Built on the first call per block and kept."""
        if block not in self._coarse:
            counts = [-(-size // block) for size in self.shape]
            agg = np.ravel_multi_index(tuple(np.indices(self.shape)
                                             // block), counts)
            agg = agg.astype(np.int32).ravel()
            count = math.prod(counts)
            # per entry row * count + its column's aggregate, then in place
            # its L Z entry, the rank of its key among the distinct keys
            dtype = np.int32 if self.size * count < 2 ** 31 else np.int64
            slot = np.repeat(np.arange(0, self.size * count, count,
                                       dtype=dtype), np.diff(self.indptr))
            slot += agg[self.indices]
            unique = np.sort(slot, kind="stable")  # rows are in order
            unique = unique[np.concatenate(([True], unique[1:] != unique[:-1]))]
            slot[:] = np.searchsorted(unique, slot)
            rows, columns = np.divmod(unique, count)
            indptr = np.searchsorted(rows, np.arange(self.size + 1))
            self._coarse[block] = (agg, count, slot, columns, indptr,
                                   agg[rows] * count + columns)
        return self._coarse[block]


class BackgroundGeometry:
    """A nested-sine chart: grid + diagonal metric + connection + curvature
    data, all derived from the axis kinds.

    kinds gives each axis as POLE (a polar angle theta in (0, pi), spacing
    pi/points) or PERIODIC (spacing 2 pi/points). The Lame factor H_a (sqrt
    of the metric diagonal) is radius on axis 0 and 1 elsewhere, times
    sin(theta_b) for every polar axis b < a (lame_at); lame[a] holds it on
    the grid as a broadcastable array. dlog[a][b] holds d_b H_a / H_a,
    cot(theta_b) for those pairs and None elsewhere. schouten0 is the
    constant frame Schouten tensor of the background (background_schouten).
    variational=False (build_synthetic) only makes cli.run_geometry_validate
    check summation by parts in place of the curvature oracle; flows, F_k
    and the dissipation monitors never read it.
    """

    def __init__(self, name, kinds, points, schouten0, radius=1.0,
                 fd_order=2, variational=True):
        if fd_order not in (2, 4):
            raise ConfigurationError("difference order must be 2 or 4")
        self.name = name
        self.grid = grid = Grid(
            shape=(points,) * len(kinds), axis_kind=tuple(kinds),
            spacing=tuple((math.pi if kind == POLE else 2.0 * math.pi) / points
                          for kind in kinds))
        self.radius = radius
        self.schouten0 = np.asarray(schouten0, dtype=float)
        self.fd_order = fd_order
        self.variational = variational
        x = [grid.axis_vector(a, grid.coordinates(a)) for a in range(grid.ndim)]
        self.lame = lame = self.lame_at(x)
        self.dlog = dlog = [[np.cos(x[b]) / np.sin(x[b])
                             if b < a and kinds[b] == POLE else None
                             for b in range(grid.ndim)] for a in range(grid.ndim)]
        w = np.ones((1,) * grid.ndim)
        for h_a in lame:
            w = w * h_a
        self.vol_weight = w * math.prod(grid.spacing)
        self._polar = {axis: self._polar_axis(axis) for axis in range(grid.ndim)
                       if grid.axis_kind[axis] == POLE}
        for c in self._polar.values():
            self.vol_weight = self.vol_weight * c.weight
        self._fits = {}
        self._derivative_matrices = {}  # per shape (derivative_matrices)
        self._placed = 0  # where _empty starts its next array, modulo 4 KiB

    def _empty(self, shape=None):
        """A new float array, grid-shaped by default; see _PLACEMENT_STRIDE."""
        shape = shape or self.grid.shape
        raw = np.empty(8 * math.prod(shape) + 4096, np.uint8)
        skip = (self._placed - raw.ctypes.data) % 4096
        self._placed = (self._placed + _PLACEMENT_STRIDE) % 4096
        return raw[skip:][:8 * math.prod(shape)].view(float).reshape(shape)

    def lame_at(self, x):
        """The Lame factors at coordinates x, one broadcastable array per
        axis as Grid.axis_vector shapes them."""
        out = []
        for a in range(self.grid.ndim):
            h = np.full((1,) * self.grid.ndim, self.radius if a == 0 else 1.0)
            for b in range(a):
                if self.grid.axis_kind[b] == POLE:
                    h = h * np.sin(x[b])
            out.append(h)
        return out

    def _fit(self, shape):
        """The stencil tables for fields of shape, built on first use per
        shape and kept. shape is the grid's, or a slab of it: the grid's
        extent on the first axes and 1 on the rest, the nodes at index 0
        along the axes a field is constant along. Frame factors, which
        vary only along axes before their own, are taken at index 0 along
        the axes of extent 1; they are small broadcast arrays: 1/H_a,
        1/H_a^2, and dlog[a][c]/H_c^2 for the Christoffel terms of the
        diagonal (each depends only on axes <= c). Each polar axis of full
        extent has its flux
        coefficients as tiles of the padded layout (zero past the faces)
        and the pole identification as view blocks (_antipode_blocks),
        which _polar_defect and _maps cross the pole through, as pad's
        ghost views do (_pad_views).
        A factor 1/H_a or 1/H_a^2 that is exactly 1.0 is flagged in unit,
        and the multiplies by it are skipped (they change no bit); mixed
        keeps the mixed Hessian entries' factor 1/(H_a H_b). weight
        is vol_weight summed over the axes where shape has extent 1
        (integrate); at the grid's shape it is vol_weight itself. symbol
        is laplacian_symbol(1 + the last axis of extent > 1), the sum over
        a slab's varying axes (flow.cfl_dt).

        Each shape owns five work buffers from _empty, zeroed, each long
        enough for a padded field of the shape and its shifts (at most 3
        ghost layers): work views them at the shape, each from its start,
        and the stencils' views (_stencil_views) read them. They hold every
        temporary of the chart, its states and the flow step at the shape,
        each dead before the next call into it or a state. No result
        aliases them, and no other shape reads them."""
        fit = self._fits.get(shape)
        if fit is None:
            at = tuple(slice(None) if s > 1 else slice(0, 1) for s in shape)
            layout = [(math.prod(shape[:a]), n, math.prod(shape[a + 1:]))
                      for a, n in enumerate(shape)]
            polar = {}
            for a, c in self._polar.items():
                pre, n, st = layout[a]
                if n > 1:
                    tiles = np.zeros((len(c.flux), 1, n + 2 * c.width, st))
                    tiles[:, 0, :n + 1] = [coef.reshape(-1, 1)
                                           for _, coef in c.flux]
                    polar[a] = tiles, self._antipode_blocks(a, shape)
            lame = [h[at] for h in self.lame]
            dlog = [[None if f is None else f[at] for f in row]
                    for row in self.dlog]
            christoffel = [[(c, dlog[a][c] / lame[c] ** 2)
                            for c in range(len(shape))
                            if c != a and dlog[a][c] is not None]
                           for a in range(len(shape))]
            w, grid = self.vol_weight, self.grid.shape
            collapsed = [a for a, s in enumerate(shape) if s < grid[a]]
            weight = np.sum(w, tuple(a for a in collapsed if w.shape[a] > 1),
                            keepdims=True) * math.prod(
                grid[a] for a in collapsed if w.shape[a] == 1)
            inv = [1.0 / h for h in lame]
            inv2 = [1.0 / h ** 2 for h in lame]
            mixed = {(a, b): inv[a] * inv[b]
                     for a, b in fieldalg.pairs(len(shape)) if a < b}
            unit = [(bool(np.all(f == 1.0)), bool(np.all(f2 == 1.0)))
                    for f, f2 in zip(inv, inv2)]
            varying = max((a + 1 for a, s in enumerate(shape) if s > 1),
                          default=0)
            length = max((p * (n + 6) + 6) * st for p, n, st in layout)
            buffers = [self._empty((length,)) for _ in range(5)]
            for buf in buffers:
                buf.fill(0.0)
            fit = _Fit(layout, inv, inv2, unit, mixed, christoffel, dlog,
                       polar, weight, self.laplacian_symbol(varying), buffers,
                       [buf[:math.prod(shape)].reshape(shape)
                        for buf in buffers], None)
            fit = self._fits[shape] = fit._replace(
                stencils=self._stencil_views(shape, fit))
        return fit

    def _stencil_views(self, shape, fit):
        """fit.stencils on fit's buffers: per axis of extent > 1 the
        _Stencil of a first difference and of a second one, the same where
        the axis is not polar; None at extent 1."""
        tables = []
        for axis, (pre, n, st) in enumerate(fit.layout):
            c = self._polar.get(axis)
            first = (None if n == 1 else
                     self._stencil_at(shape, fit, axis, self.fd_order // 2))
            tables.append(None if first is None else (
                first, first if c is None else
                self._stencil_at(shape, fit, axis, c.width, c)))
        return tables

    def _stencil_at(self, shape, fit, axis, width, polar=None):
        """The _Stencil of one axis at one ghost width; polar, the axis's
        _PolarAxis, adds its _Defect."""
        pre, n, st = fit.layout[axis]
        size = pre * (n + 2 * width) * st
        buffers = fit.buffers
        p = buffers[0][:size + 2 * width * st]
        runs = tuple(buf[:size] for buf in buffers[1:4])
        defect = None
        if polar is not None:
            tiles, blocks = fit.polar[axis]
            du = buffers[1][:len(p) - st]
            total, tmp = (buf[:size].reshape(pre, -1, st)
                          for buf in buffers[2:4])
            work = fit.work[3]
            defect = _Defect(
                (du, p[st:], p[:-st]),
                tuple((tile, du[(width - 1 + k) * st:][:size].reshape(
                    pre, -1, st)) for tile, (k, _) in zip(tiles, polar.flux)),
                total, tmp, total[:, 1:n + 1].reshape(shape),
                total[:, :n].reshape(shape), polar.hs, polar.kappa, work,
                tuple((work[dst], src) for dst, src in blocks)
                if st > 1 else ())
        h = self.grid.spacing[axis]
        return _Stencil(
            self._pad_views(shape, axis, width, p[:size].reshape(
                shape[:axis] + (n + 2 * width,) + shape[axis + 1:])),
            tuple(p[(width + s) * st:][:size] if abs(s) <= width else None
                  for s in range(-2, 3)),
            runs,
            tuple(r.reshape(pre, -1, st)[:, :n].reshape(shape)
                  for r in runs[:2]),
            (0.5 / h, 1.0 / (h * h)) if self.fd_order == 2 else
            (1.0 / (12.0 * h), 1.0 / (12.0 * h * h)),
            defect)

    def laplacian_symbol(self, axes):
        """sum over the axes a < axes of sym / (h_a H_a)^2 at every node,
        sym = 2 at second order and 8/3 at fourth: the largest symbols of
        the frame second differences, 4/h^2 and 16/(3 h^2) at the
        wavenumber pi, halved like the flow speed. A broadcastable array
        that varies only along the axes before axes - 1 (0.0 for axes=0)."""
        stencil, denominator = _DIFFERENCES[self.fd_order][1]
        sym = -0.5 * sum(w * (-1) ** s for s, w
                         in zip(range(-2, 3), stencil)) / denominator
        return sum((sym / (h * h) * (1.0 / lame ** 2) for h, lame in
                    zip(self.grid.spacing[:axes], self.lame)), 0.0)

    def _polar_axis(self, axis):
        """Flux coefficients of the divergence-form operator on one polar
        axis (see _polar_defect), as arrays broadcast along the axis."""
        grid = self.grid
        n, h = grid.shape[axis], grid.spacing[axis]
        # every later axis carries sin(theta) in its Lame factor
        later = [self.dlog[a][axis] for a in range(axis + 1, grid.ndim)]
        m = len(later)
        theta = np.arange(n + 1) * h
        s, s1, s2, s3, s4 = _sine_power_derivatives(m, theta, 5)
        c1, c2 = h / 24.0 * s1, h * h / 24.0 * s2
        if self.fd_order == 4:
            coef = [0.0, c1 - s / 12.0, 14.0 / 12.0 * s - c2, -c1 - s / 12.0, 0.0]
            # F4 minus the flux the midpoint rule needs, at order h^5
            # (Taylor expansion), with the sign that cancels it
            extra = (s / 90.0, s1 / 45.0, 13.0 / 1440.0 * s2,
                     7.0 / 1440.0 * s3, 7.0 / 5760.0 * s4)
        else:
            coef = [0.0, c1, s - c2, -c1, 0.0]
            # the next Euler-Maclaurin term, (7 h^4/5760)(s u')''''
            extra = tuple(7.0 / 5760.0 * b * d for b, d in
                          zip((1.0, 4.0, 6.0, 4.0, 1.0), (s, s1, s2, s3, s4)))
        if m >= 3 or (m == 2 and POLE in grid.axis_kind[:axis]):
            # Next to a pole the h^5 terms are not small against the
            # node's weight O(h^(m+1)): without them the first row is off
            # by 0.14 h^2 relative at m = 2, 0.7 h^2 at m = 3 and O(1) at
            # m = 4, and 1/H^2 turns an h^2 into O(1) where the poles of
            # earlier axes meet this one. (A first polar axis with m = 2,
            # as on S^3, goes without them; see _polar_defect.) Full
            # weight up to pi/8 from a pole, a C^3 smoothstep down to zero
            # at pi/4, so the interior keeps the plain 3- or 5-point
            # stencil.
            t = np.clip(np.minimum(theta, math.pi - theta) * (8.0 / math.pi)
                        - 1.0, 0.0, 1.0)
            fade = 1.0 - t ** 4 * (35.0 - 84.0 * t + 70.0 * t ** 2 - 20.0 * t ** 3)
            for (j, stencil), e in zip(_FACE_DERIVATIVES, extra):
                for k, w in enumerate(stencil):
                    if w:
                        coef[k] = coef[k] + fade * w * h ** j * e
        for c in coef:
            if np.ndim(c):
                c[[0, n]] = 0.0          # no flux through a pole
        kappa = sum(later[1:], later[0])
        weight = np.ones(n)
        weight[[0, -1]] = {1: 11.0 / 12.0, 3: 127.0 / 120.0}.get(m, 1.0)
        nodes = np.sin(grid.coordinates(axis)) ** m * weight
        vec = lambda v: grid.axis_vector(axis, v)
        flux = tuple((k - 2, vec(c)) for k, c in enumerate(coef) if np.ndim(c))
        width = max(2, 1 + max(abs(k) for k, _ in flux))
        return _PolarAxis(flux, width, vec(h * h * nodes), kappa, vec(weight))

    # ---------------------------------------------------------- the poles

    def _antipode_blocks(self, axis, shape):
        """The pole identification across `axis` for fields of shape as
        view copies out[dst] = f[src], one (dst, src) index pair per block:
        later polar angles reflect (reversed), each later periodic axis of
        more than one node shifts half a period (cut into its two
        half-period blocks). Axes up to `axis` are copied as they stand, so
        the blocks fit any extent there."""
        kinds = self.grid.axis_kind
        later = range(axis + 1, len(shape))
        rolls = [b for b in later if kinds[b] == PERIODIC and shape[b] > 1]
        blocks = []
        for upper in itertools.product((False, True), repeat=len(rolls)):
            dst = [slice(None)] * len(shape)
            src = [slice(None, None, -1) if b in later and kinds[b] == POLE
                   else slice(None) for b in range(len(shape))]
            for b, up in zip(rolls, upper):
                half = shape[b] // 2
                cut = shape[b] - half
                dst[b] = slice(cut, None) if up else slice(0, cut)
                src[b] = slice(0, half) if up else slice(half, None)
            blocks.append((tuple(dst), tuple(src)))
        return blocks

    @staticmethod
    def _antipode(f, blocks, out):
        """out = f carried across a pole through its blocks; returns out."""
        for dst, src in blocks:
            out[dst] = f[src]
        return out

    def _flips(self, axis):
        """The comps whose partials d/dx_comp flip sign across a pole of
        the axis: on a polar axis the axis itself and every later polar
        angle (those reflect under the antipode), on a periodic one none."""
        kinds = self.grid.axis_kind
        return tuple(c for c in range(len(kinds)) if kinds[axis] == POLE
                     and (c == axis or c > axis and kinds[c] == POLE))

    def _pad_views(self, shape, axis, width, padded):
        """The _Pad of padded, an array of shape with n + 2 width nodes
        along the axis (n = shape[axis] > 1): a periodic axis's ghost
        layers copy the two end slabs, a polar axis's its edge rows
        mirrored about the pole and carried across it through
        _antipode_blocks, with the sign flipped for the comps of _flips."""
        n, kinds = shape[axis], self.grid.axis_kind
        at = lambda sl, rest=(): padded[(slice(None),) * axis + (sl,)][rest]
        if kinds[axis] == PERIODIC:
            ghosts = ((at(slice(0, width)), at(slice(n, n + width))),
                      (at(slice(width + n, None)), at(slice(width, 2 * width))))
        else:
            blocks = self._antipode_blocks(axis, shape)
            ghosts = tuple(
                (at(ghost, dst), at(mirror, src))
                for ghost, mirror in (
                    (slice(0, width), slice(2 * width - 1, width - 1, -1)),
                    (slice(width + n, None),
                     slice(width + n - 1, n - 1, -1)))
                for dst, src in blocks)
        return _Pad(width, padded, at(slice(width, width + n)), ghosts,
                    self._flips(axis))

    def pad(self, f, axis, width, comp=None, out=None):
        """Extend f, a grid or slab field (_fit), by ghost layers along one
        axis of full extent, into a new array, or into out, the _Pad of
        f's shape at that width to fill (the stencils' from _fit).

        A periodic axis wraps: its ghost layers are the two end slabs. A
        polar axis's are its edge rows mirrored about the pole and carried
        across it by the pole identification (_pad_views). comp labels f
        as the comp-th partial derivative of a scalar (None for plain
        scalars); pole ghost layers of such components carry the parity
        sign of the identification. Each ghost block copies the padded
        field's own nodes, which are f's.
        """
        if out is None:
            f = np.asarray(f)
            shape = f.shape[:axis] + (f.shape[axis] + 2 * width,) + f.shape[
                axis + 1:]
            out = self._pad_views(f.shape, axis, width,
                                  np.empty(shape, f.dtype))
        np.copyto(out.nodes, f)
        if comp in out.flips:
            for ghost, nodes in out.ghosts:
                np.negative(nodes, out=ghost)
        else:
            for ghost, nodes in out.ghosts:
                np.copyto(ghost, nodes)
        return out.padded

    # ----------------------------------------------------------- stencils

    def _stencil(self, f, axis, comp, second, out):
        """Centered first difference along an axis; with second=True also
        the second difference and, on polar axes, the divergence-form
        Laplacian defect of _polar_defect (None elsewhere). f is a grid or
        slab field (_fit), and so are the results. out holds the arrays
        of f's shape the results are written into: the first difference,
        or (first, second, defect).

        Every stencil is a sum of differences between nodes, so fields
        constant along the axis difference to bitwise zero; a plain
        weighted sum leaves ~1e-17 dust on constants, and near the poles
        that dust seeds stiff rows that an explicit step then amplifies.
        Along an axis of extent 1 both differences are that +0, the value
        the grid's stencils give at index 0 for a field constant along it,
        and the defect, +0 as well, is None: it adds no term. A comp that
        flips across that axis's pole (_flips) raises ValueError there:
        the grid's difference of such a partial is nonzero next to the
        poles, so it is not constant along the axis and no slab holds it.
        A shift by s nodes is a flat shift by s strides of the padded buffer,
        so every operand is a contiguous run of a work buffer; the last
        operation of each chain takes the interior out into a result array.
        Every view comes from f's _Stencil (_fit).
        """
        views = self._fit(f.shape).stencils[axis]
        dest = out if second else (out,)
        if views is None:
            if comp in self._flips(axis):
                raise ValueError(f"d/dx_{comp} flips across axis {axis}'s poles")
            for r in dest[:2]:
                r.fill(0.0)
            return (*dest[:2], None) if second else out
        v = views[second]
        self.pad(f, axis, v.pad.width, comp, v.pad)
        m2, m1, t0, p1, p2 = v.take
        one, two, tmp = v.runs
        first = np.subtract(p1, m1, out=one)
        if self.fd_order == 4:
            first *= 8.0
            first += np.subtract(m2, p2, out=tmp)
        first = np.multiply(v.interior[0], v.scale[0], out=dest[0])
        if not second:
            return first
        d2 = np.subtract(m1, t0, out=two)
        d2 += np.subtract(p1, t0, out=tmp)
        if self.fd_order == 4:
            d2 *= 16.0
            d2 -= np.subtract(m2, t0, out=tmp)
            d2 -= np.subtract(p2, t0, out=tmp)
        d2 = np.multiply(v.interior[1], v.scale[1], out=dest[1])
        defect = (None if v.defect is None else
                  self._polar_defect(v.defect, first, d2, dest[2]))
        return first, d2, defect

    def _polar_defect(self, views, first, d2, out):
        """Divergence-form minus pointwise Laplacian part of a polar axis,
        even part, written into out, from the padded field's face
        differences; views is the axis's _Defect at the shape of first
        (_fit).

        Along a polar axis the Laplacian carries (1/s)(s u')' with density
        s = sin^m(theta) (m later axes carry sin(theta) in their Lame
        factor). Pointwise that is P = d2 + m cot(theta) d1, which does not
        sum to zero against the quadrature weights. The divergence form is
        a difference of face fluxes over the node weights,
        L_i = (F_{i+1/2} - F_{i-1/2}) / (h^2 w_i), with

            F = s B(du) - (h^2/24) s'' du - (h/24) s' (du_{+1} - du_{-1}),

        du the face differences, B = (-1, 14, -1)/12 at fourth order and
        the identity at second order, and no flux through a pole, so the
        weighted sum of L telescopes to zero on every line. F approximates
        the flux that the midpoint rule needs, s u' - (h^2/24)(s u')'' +
        (7 h^4/5760) (s u')'''' - ..., so the interior keeps the stencil's
        order; with frozen coefficients L is exactly the standard 3- or
        5-point second difference. Within pi/4 of a pole, on axes with
        m >= 3 and on m = 2 axes that have earlier polar axes, F also
        carries its h^5 terms (see _polar_axis).

        The identification at a pole pairs each line with its antipodal
        line; u splits into a part even under that map (smooth through the
        pole along the joined great circle) and an odd part. The defect
        L - P is kept for the even part only. The odd part's P already sums
        to zero over each pair of lines, and L would be inconsistent for it
        (its pole flux is zero and its first weights fit the even part). The
        sum of the returned defect against the weights equals that of
        L - P, so sum(weights * (P + defect)) is zero to rounding for
        every u. Where every later axis has extent 1 u is even, as is.

        Node weights are the midpoint weights s_i, except next to the poles
        of axes with odd m. There the flux the midpoint rule needs has an
        even, nonzero value at the pole, which no conservative scheme passes
        through it: for u = 1 - a theta^2 it is a h^3/6 at m = 1 (the h^2
        term) and -(7/120) a h^5 at m = 3 (the h^4 term), against
        h^2 s_0 P_0 = -2a h^3 and -a h^5 on the first node. That node
        absorbs it by carrying 11/12 (m = 1) or 127/120 (m = 3) of its
        midpoint weight, which also raises the order of the quadrature on
        those axes. vol_weight carries the same factors.

        Accuracy: the interior has the stencil's order. In the first row
        next to a pole the even part is second order on m = 1 axes, on a
        first polar axis with m = 2 (relative error about 0.14 h^2 for
        cos(theta)) and at m = 4, third order at m = 3 and fourth on m = 2
        axes with the h^5 terms. Those terms would make a first polar axis
        with m = 2 fourth order too, but on the round S^3 they double the
        product-rule remainder of the dissipation identity (acceptance
        criterion 7), so it goes without them.
        """
        du, above, below = views.du
        np.subtract(above, below, out=du)
        (coef, face), *rest = views.flux
        flux = np.multiply(coef, face, out=views.total)
        for coef, face in rest:
            flux += np.multiply(coef, face, out=views.tmp)
        np.subtract(views.upper, views.lower, out=out)
        out /= views.hs
        out -= d2
        out -= np.multiply(views.kappa, first, out=views.work)
        if views.antipode:  # else the antipode maps every line onto itself
            for block, src in views.antipode:
                np.copyto(block, out[src])
            out += views.work
            out *= 0.5
        return out

    def d1(self, f, axis, comp=None, out=None):
        """Centered first difference along a coordinate axis, into out or
        a new array (_stencil)."""
        f = np.asarray(f)
        return self._stencil(f, axis, comp, False,
                             self._empty(f.shape) if out is None else out)

    # ------------------------------------------------------- differential ops

    def scalar_jet(self, u, out=None):
        """First and second differences per axis, one extension each.

        Returns (parts, seconds, defect): the per-axis lists, and the
        amount by which the divergence-form Laplacian exceeds the trace of
        the pointwise Hessian (0.0 where no polar axis has more than one
        node). Sharing this between the Hessian and the gradient halves
        the number of ghost-layer passes. u is a grid or slab field
        (_fit), and so are the results. out is a (parts, seconds, defect)
        of arrays of u's shape to write into; a defect that stays 0.0
        leaves its array unwritten.
        """
        u = np.asarray(u, dtype=float)
        n, fit = self.grid.ndim, self._fit(u.shape)
        if out is None:
            out = ([self._empty(u.shape) for _ in range(n)],
                   [self._empty(u.shape) for _ in range(n)],
                   self._empty(u.shape) if fit.polar else None)
        (parts, seconds, total), defect = out, 0.0
        for a in range(n):
            # the first polar axis writes the defect's array, a later one
            # a work buffer that is then added to it
            extra = self._stencil(u, a, None, True, (
                parts[a], seconds[a],
                total if np.isscalar(defect) else fit.work[4]))[2]
            if extra is not None:
                if not fit.unit[a][1]:
                    extra *= fit.inv_lame2[a]
                defect = np.add(defect, extra, out=total)
        return parts, seconds, defect

    def frame_derivatives(self, u, out=None):
        """The frame Hessian and gradient of a scalar from one scalar_jet:
        (hess, grad, norm2), the Hessian components in fieldalg.pairs(n)
        order, the frame gradient components and |grad u|^2 wrt g0.
        hess + grad is the order of the DerivativeMatrices maps. u is a
        grid or slab field (_fit), and so are the results: on a slab the
        Hessian and gradient are the grid's at the slab's nodes, bitwise,
        for a u constant along its axes of extent 1. Along those d_c u is
        the grid's +0, so every term it enters is skipped: H_ab with b
        there is filled with +0, the rest leave the bits as they are, as
        does a multiply by a frame factor that is exactly 1.0 (_fit).

        (Hess u)_ab = d_a d_b u - Gamma^c_ab d_c u in coordinates, divided
        by H_a H_b for the frame. The traceless part is the pointwise
        stencil; the trace is the divergence-form Laplacian, added
        isotropically (defect / n on each diagonal entry), so that
        sum(vol_weight * trace) vanishes to rounding for every u. The
        entries have the stencil's order except in the rows next to a
        pole, where the part of u that is even under the pole
        identification can drop to second order (see _polar_defect).

        out, when given, is an earlier result on the same chart whose
        arrays are overwritten. The jet is formed in the result's arrays:
        the Hessian's diagonal in the second differences, the gradient in
        the partials (scaled in place), and the Laplacian defect in
        norm2's array until |grad u|^2 replaces it.
        """
        u = np.asarray(u, dtype=float)
        n, shape = self.grid.ndim, u.shape
        pairs = fieldalg.pairs(n)
        if out is None:
            out = ([self._empty(shape) for _ in pairs],
                   [self._empty(shape) for _ in range(n)], self._empty(shape))
        hess, grad, norm2 = out
        parts, seconds, defect = self.scalar_jet(u, out=(
            grad, [h for h, (a, b) in zip(hess, pairs) if a == b], norm2))
        iso = np.divide(defect, n, out=defect if np.ndim(defect) else None)
        fit = self._fit(shape)
        tmp = fit.work[4]
        for val, (a, b) in zip(hess, pairs):
            if a == b:
                # Each term has its frame factor divided out already: the
                # coefficient of d_c u is dlog[a][c]/H_c^2, which does not
                # depend on later coordinates. Fields constant along later
                # axes then produce bitwise-constant output along them, so
                # exact discrete symmetries of initial data survive stepping.
                # the jet wrote seconds[a] into val
                if not fit.unit[a][1]:
                    val *= fit.inv_lame2[a]
                for c, coef in fit.christoffel[a]:
                    if shape[c] > 1:
                        val += np.multiply(coef, parts[c], out=tmp)
                val += iso
            elif shape[b] == 1:  # d_b u is +0, and so is every term
                val.fill(0.0)
            else:
                # a nested-sine chart sets dlog[b][a] only (a < b)
                self.d1(parts[b], a, comp=b, out=val)
                if fit.dlog[b][a] is not None:
                    val -= np.multiply(fit.dlog[b][a], parts[b], out=tmp)
                val *= fit.mixed[a, b]
        for g, inv, s, (unit, _) in zip(grad, fit.inv_lame, shape, fit.unit):
            if s > 1 and not unit:
                g *= inv
        np.square(grad[0], out=norm2)
        for g, s in zip(grad[1:], shape[1:]):
            if s > 1:
                norm2 += np.multiply(g, g, out=tmp)
        return hess, grad, norm2

    def derivative_matrices(self, shape=None):
        """The Hessian and gradient components of frame_derivatives as
        DerivativeMatrices for fields of shape, the grid's by default or a
        slab (_fit); both are linear and depend only on the chart and the
        shape, so they are built on first use per shape (_maps) and kept."""
        shape = shape or self.grid.shape
        if shape not in self._derivative_matrices:
            self._derivative_matrices[shape] = DerivativeMatrices(
                shape, lambda: self._maps(shape))
        return self._derivative_matrices[shape]

    def _maps(self, shape=None):
        """Yield the stored maps of DerivativeMatrices at shape (the grid's
        by default) one at a time, each a sum of terms with one entry per
        row (_shift_terms). A mixed entry composes the shifts along a with
        the first difference along b; a polar defect is _polar_defect's
        flux difference over the density less the pointwise part, plus its
        antipodal rows (same 1/H_a^2). An axis of extent 1 adds no terms
        (no differences along it, no G_c, no H_ab with b on it and no
        polar defect), as _stencil gives +0 there; the Christoffel terms
        of its H_aa along the other axes stay."""
        shape = shape or self.grid.shape
        n, size = self.grid.ndim, math.prod(shape)
        fit = self._fit(shape)

        def weights(axis, order, factor=1.0):
            stencil, denominator = _DIFFERENCES[self.fd_order][order - 1]
            scale = 1.0 / (denominator * self.grid.spacing[axis] ** order)
            return {s: w * scale * factor
                    for s, w in zip(range(-2, 3), stencil) if w}

        d1 = lambda c, factor=1.0, comp=None: self._shift_terms(
            shape, c, weights(c, 1, factor), comp=comp)
        for a, b in fieldalg.pairs(n):
            if a == b:
                terms = self._shift_terms(shape, a,
                                          weights(a, 2, fit.inv_lame2[a]))
                for c, coef in fit.christoffel[a]:
                    terms += d1(c, coef)
            else:
                inv = fit.mixed[a, b]
                inner = d1(b)
                terms = [(col_b[col_a], val_a * val_b[col_a])
                         for col_a, val_a in d1(a, inv, comp=b)
                         for col_b, val_b in inner]
                if fit.dlog[b][a] is not None:
                    terms += d1(b, -fit.dlog[b][a] * inv)
            yield _sparse_sum(terms, size)
        for c in range(n):
            yield _sparse_sum(d1(c, fit.inv_lame[c]), size)
        terms = []
        for a, (_, blocks) in fit.polar.items():
            # out_i = F_{i+1} - F_i with F_i = sum_k coef_k(i) du_{i+k}, less
            # the pointwise d2 + kappa d1
            c = self._polar[a]
            parts = [(s, -w) for order, factor in ((2, 1.0), (1, c.kappa))
                     for s, w in weights(a, order, factor).items()]
            for k, coef in c.flux:
                upper = _slice_axis(coef, a, slice(1, None)) / c.hs
                lower = _slice_axis(coef, a, slice(None, -1)) / c.hs
                parts += [(k + 1, upper), (k, -upper - lower), (k - 1, lower)]
            defect = {}
            for s, v in parts:
                defect[s] = defect.get(s, 0.0) + 0.5 * fit.inv_lame2[a] * v
            axis = self._shift_terms(shape, a, defect, c.width)
            antipode = self._antipode(np.arange(size).reshape(shape), blocks,
                                      np.empty(shape, int)).reshape(-1)
            terms += axis + [(col[antipode], val[antipode]) for col, val in axis]
        yield _sparse_sum(terms, size)

    def _shift_terms(self, shape, axis, weights, width=None, comp=None):
        """The terms (columns, values) of sum_s diag(weights[s]) S_s, |s| <=
        width (fd_order / 2 by default), for fields of shape: S_s shifts by
        s along the axis through the ghost layers with the parity sign of
        the comp-th partial, as pad gives them for the node indices and
        ones; none along an axis of extent 1."""
        if shape[axis] == 1:
            return []
        size = math.prod(shape)
        width = width or self.fd_order // 2
        source = self.pad(np.arange(size, dtype=np.int32).reshape(shape),
                          axis, width)
        sign = self.pad(np.ones(shape), axis, width, comp)
        at = lambda p, s: _slice_axis(p, axis, slice(width + s,
                                                     width + s + shape[axis]))
        return [(at(source, s).reshape(-1), (at(sign, s) * w).reshape(-1))
                for s, w in weights.items()]

    # --------------------------------------------------------- integration

    def integrate(self, f, weight=None):
        """Midpoint-rule integral of f against the background volume form.

        weight, when given, is an extra pointwise factor (e.g. a conformal
        volume density). f and weight may be slab fields (_fit): the sum
        runs over their broadcast shape, against vol_weight summed over
        the axes where that shape has extent 1, so a zonal integral costs
        one line. For grid-shaped operands that is the grid's sum. The
        integrand is formed in the first work buffer, so f and weight may
        be any other temporary, and summed by its own sum(): the C
        reduction np.sum runs, without its Python dispatch.
        """
        shape = np.broadcast(f, weight).shape
        fit = self._fit((1,) * (self.grid.ndim - len(shape)) + shape)
        values = fit.work[0]
        np.copyto(values, fit.weight)
        values *= f
        if weight is not None:
            values *= weight
        return float(values.sum())

    def volume(self):
        return self.integrate(np.ones((1,) * self.grid.ndim))


# ------------------------------------------------------------------ charts

def _check_resolution(points, minimum):
    if points < minimum:
        raise ConfigurationError(
            f"resolution too small: need at least {minimum} points per axis")
    if points % 2:
        raise ConfigurationError(
            "points per axis must be even (the pole identification shifts "
            "the azimuth by half a period)")


def background_schouten(chart, n, s0=None):
    """The constant frame Schouten tensor of a chart: I/2 on the round S^n,
    diag(-1/2, 1/2, ...) on S^1(r) x S^{n-1} for every r, and on the
    synthetic box its override s0, a length-n diagonal or a symmetric
    n x n matrix. Also the one check of the chart's dimension: n in 3..5
    on the spheres, 3..6 on the box (the sigma tables stop at order 6)."""
    top = 6 if chart == "synthetic" else 5
    if not 3 <= n <= top:
        raise ConfigurationError(f"{chart} supports n in 3..{top}, got {n}")
    if chart == "round_sphere":
        return 0.5 * np.eye(n)
    if chart == "hopf_product":
        return np.diag([-0.5] + [0.5] * (n - 1))
    s0 = np.asarray(s0, dtype=float)
    if s0.ndim == 1:
        if s0.shape != (n,):
            raise ConfigurationError("synthetic s0 diagonal must have length n")
        s0 = np.diag(s0)
    if s0.shape != (n, n) or not np.allclose(s0, s0.T):
        raise ConfigurationError("synthetic s0 must be a symmetric n x n matrix")
    return s0


def build_round_sphere(n, points_per_axis, fd_order=2):
    """Unit round sphere S^n in hyperspherical coordinates."""
    s0 = background_schouten("round_sphere", n)
    _check_resolution(points_per_axis, 16)
    return BackgroundGeometry(
        "round_sphere", (POLE,) * (n - 1) + (PERIODIC,), points_per_axis, s0,
        fd_order=fd_order)


def build_hopf_product(n, circle_radius=1.0, points_per_axis=16, fd_order=2):
    """Product S^1(r) x S^{n-1}: one flat periodic circle, one round sphere.

    n = 4 sits on the Gamma_2 cone boundary (sigma_2 of the Schouten
    spectrum vanishes); the chart still builds, and k = 2 runs fail the
    cone check at flow start.
    """
    s0 = background_schouten("hopf_product", n)
    if circle_radius <= 0.0:
        raise ConfigurationError("circle_radius must be positive")
    _check_resolution(points_per_axis, 8)
    return BackgroundGeometry(
        "hopf_product", (PERIODIC,) + (POLE,) * (n - 2) + (PERIODIC,),
        points_per_axis, s0, radius=circle_radius, fd_order=fd_order)


def build_synthetic(n, s0, points_per_axis=16, fd_order=4):
    """Flat periodic box [0, 2pi)^n with a constant Schouten override.

    s0 is either a length-n diagonal or a full symmetric matrix. The chart
    is a stencil test bed; a flow runs on it as on any chart, and its
    variational=False only picks geometry-validate's check.
    """
    s0 = background_schouten("synthetic", n, s0)
    _check_resolution(points_per_axis, 8)
    return BackgroundGeometry("synthetic", (PERIODIC,) * n, points_per_axis,
                              s0, fd_order=fd_order, variational=False)


# -------------------------------------------------------- curvature oracle

def _crop_to(arr, shape):
    sl = []
    for have, want in zip(arr.shape, shape):
        m = (have - want) // 2
        sl.append(slice(m, m + want))
    return arr[tuple(sl)]


def curvature_oracle(geom):
    """Rebuild the frame Schouten tensor from the metric functions alone.

    Independent verification path: Lame factors are evaluated analytically
    on a ghost-extended coordinate grid, the orthonormal-frame connection
    forms come from the first structure equation, curvature 2-forms from
    the second, then Ricci -> scalar -> Schouten. Centered differences act
    only on smooth metric functions, so no pole ghost rules are involved.
    Returns a full (..., n, n) frame Schouten field on the original grid.
    """
    grid = geom.grid
    n = grid.ndim
    ext2 = [grid.axis_vector(a, grid.coordinates(a, extension=2))
            for a in range(n)]
    shape2 = tuple(s + 4 for s in grid.shape)
    shape1 = tuple(s + 2 for s in grid.shape)
    shape0 = grid.shape

    H2 = [np.ascontiguousarray(np.broadcast_to(h, shape2), dtype=float)
          for h in geom.lame_at(ext2)]

    def cdiff(arr, axis):
        h = grid.spacing[axis]
        hi = _slice_axis(arr, axis, slice(2, None))
        lo = _slice_axis(arr, axis, slice(0, -2))
        return (hi - lo) / (2.0 * h)

    H1 = [_crop_to(h, shape1) for h in H2]
    H0 = [_crop_to(h, shape0) for h in H2]

    # connection 1-forms: omega_ab = (d_b H_a / H_b) dx_a - (d_a H_b / H_a) dx_b
    omega1 = {}
    for a in range(n):
        for b in range(a + 1, n):
            coeff = [np.zeros(shape1) for _ in range(n)]
            coeff[a] = _crop_to(cdiff(H2[a], b), shape1) / H1[b]
            coeff[b] = -_crop_to(cdiff(H2[b], a), shape1) / H1[a]
            omega1[(a, b)] = coeff

    omega0 = {}  # both orders: omega_ba = -omega_ab
    for (a, b), coeff in omega1.items():
        omega0[a, b] = [_crop_to(c, shape0) for c in coeff]
        omega0[b, a] = [-c for c in omega0[a, b]]

    # curvature 2-forms Omega_ab = d omega_ab + sum_c omega_ac ^ omega_cb
    curv = {}
    for a in range(n):
        for b in range(a + 1, n):
            coeff = {}
            w1 = omega1[(a, b)]
            for c in range(n):
                for d in range(c + 1, n):
                    val = (_crop_to(cdiff(w1[d], c), shape0)
                           - _crop_to(cdiff(w1[c], d), shape0))
                    for m in range(n):
                        if m != a and m != b:
                            lc, rc = omega0[a, m], omega0[m, b]
                            val = val + (lc[c] * rc[d] - lc[d] * rc[c])
                    coeff[(c, d)] = val
            curv[(a, b)] = coeff

    def riemann(a, b, c, d):
        """Frame components R_abcd from the 2-form coefficients."""
        if a == b or c == d:
            return np.zeros(shape0)
        sgn = 1.0
        if a > b:
            a, b, sgn = b, a, -sgn
        if c > d:
            c, d, sgn = d, c, -sgn
        return sgn * curv[(a, b)][(c, d)] / (H0[c] * H0[d])

    ricci = np.zeros(shape0 + (n, n))
    for b in range(n):
        for d in range(b, n):
            acc = np.zeros(shape0)
            for a in range(n):
                acc += riemann(a, b, a, d)
            ricci[..., b, d] = acc
            if b != d:
                ricci[..., d, b] = acc
    scal = np.trace(ricci, axis1=-2, axis2=-1)
    eye = np.eye(n)
    return (ricci - scal[..., None, None] / (2.0 * (n - 1)) * eye) / (n - 2)
