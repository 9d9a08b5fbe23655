"""Conformal deformation state for g = e^{-2u} g0.

The deformed Schouten data in the g0-orthonormal frame is

    W(u) = Hess u + du (x) du - (|grad u|^2 / 2) g0 + S_{g0},

and sigma_k(g) = e^{2ku} sigma_k(W(u)). The chart gives Hess u, the frame
gradient du and |grad u|^2 in one call (geometry's frame_derivatives); W
is assembled here from them by the algebra du (x) du - (|grad u|^2 / 2) g0
+ S_{g0}. Its linearization and everything downstream (volume, geometric
mean r_k, the scale-normalized sigma_k integral, Harnack bound, cone
checks) live here too. W is kept as its upper-triangle components and
sigma_k(W) comes from fieldalg's closed-form minors; the eigenvalue route
in symfun is kept as the independent cross-check in tests. The linearization

    d sigma_k(W)[rho] = <T_{k-1}(W), Hess rho + du (x) drho + drho (x) du
                         - <du, drho> g0>

is linear in rho through the chart's Hessian and gradient matrices alone,
so it is kept as their pointwise weights on the slab
(linearization_weights), which the matrices of any shape the slab
broadcasts to combine.

A state keeps u as its slab (see slab). W and every field built from it
are constant along the slab's collapsed axes as u is (frame factors vary
only along the axes before their own), so the state evaluates them on
the slab, where they are the grid's, bitwise; they broadcast against
grid arrays, and the integrals sum on the slab against the volume weight
summed over its collapsed axes. For generic data the slab is the whole
grid and every sum the grid's. A zonal u, which the flow keeps zonal,
costs one line of nodes and one line of memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fieldalg
from .errors import ConeLabel, ConeViolationError, ConfigurationError


@dataclass(frozen=True)
class ConeReport:
    """Worst-node summary of the pointwise Gamma_k+ test."""

    label: ConeLabel
    node: tuple | None
    value: float | None
    n_violations: int


def varying_axes(u):
    """1 + the last axis along which u's float64 bits are not constant (so
    +0.0 and -0.0 differ): 0 for a constant u, 1 for a zonal one, u.ndim
    for generic data. A step keeps u bitwise constant along the axes from
    there on, so the modes along them are never excited. One pass: the
    last axis is peeled off, keeping its first slice, while u is constant
    along it; generic data is told apart by its first line along the last
    axis alone. An axis of extent 1 or stride 0 (a broadcast view) is
    peeled unread, so a line broadcast over the grid costs a scan of it."""
    u = np.asarray(u, dtype=float).view(np.uint64)
    axes = u.ndim
    while axes:
        if u.shape[-1] > 1 and u.strides[-1]:
            line = u[(0,) * (axes - 1)]
            if not ((line == line[0]).all() and (u == u[..., :1]).all()):
                break
        u = u[..., 0]
        axes -= 1
    return axes


def slab(u, shape):
    """(axes, slab) of u, any array that broadcasts to shape: axes =
    varying_axes(u), and the slab is u at index 0 along the axes from axes
    on, a contiguous float array (a view of u where it can be) that,
    broadcast to shape, is u bit for bit. The one rule by which fields are
    kept (a state's u, an auxiliary problem's h) and read (bounds, dumps)
    without their repeats. A u that has a slab's layout already,
    shape[:j] + (1,) * (len - j), is read as it stands."""
    u = np.asarray(u, dtype=float)
    j = u.ndim
    while j and u.shape[j - 1] == 1:
        j -= 1
    if u.shape != shape[:j] + (1,) * (len(shape) - j):
        u = np.broadcast_to(u, shape)
    axes = varying_axes(u)
    return axes, np.ascontiguousarray(
        u[(slice(None),) * axes + (slice(0, 1),) * (len(shape) - axes)])


def w_components(geom, u, out=None):
    """W(u) in the orthonormal frame as fieldalg components, with the frame
    gradient components and |grad u|^2 it is built from.

    The one place W is assembled: geometry.frame_derivatives gives the
    Hessian, the gradient and |grad u|^2, and W's components are formed
    over the Hessian's arrays. u is a grid or slab field, and so are the
    results. out, when given, is an earlier result of u's shape on the
    same chart whose arrays are overwritten instead of allocating; the
    products and |grad u|^2 / 2 are formed in work buffers of the chart.
    A gradient component along an axis of extent 1 is +0, so its
    products, +0 as well, are not added.
    """
    w, grad, norm2 = geom.frame_derivatives(u, out=out)
    shape = norm2.shape
    tmp, half = geom._fit(shape).work[:2]
    np.multiply(norm2, 0.5, out=half)
    for (a, b), w_ab in zip(fieldalg.pairs(geom.grid.ndim), w):
        if shape[a] > 1 and shape[b] > 1:
            w_ab += np.multiply(grad[a], grad[b], out=tmp)
        if a == b:
            w_ab -= half
        if geom.schouten0[a, b] != 0.0:
            w_ab += geom.schouten0[a, b]
    return w, grad, norm2


def admissible_state(geom, u, k, arrays=None):
    """The state at a trial u, or None when u is not finite or W(u) leaves
    the Gamma_k+ cone; trial steps of the flow and of Newton use it.
    arrays is passed on to the state (see ConformalState)."""
    if not np.isfinite(u).all():
        return None
    state = ConformalState(geom, u, k, arrays=arrays)
    if not state.cone_report().label.inside:
        return None
    return state


class ConformalState:
    """u plus lazily cached derived fields; a new u makes a new state.

    (axes, u_slab) = slab(u, grid shape): u_slab, the one copy of u the
    state keeps, is a contiguous array of the slab's shape `shape`, and
    the u property broadcasts it over the grid (a read-only view). Every
    field (W, its gradient, |grad u|^2, the sigma table, the log targets,
    sigma_k(g), the conformal weight) has the slab's shape. Reductions
    read the slab: min, max and the cone test as the grid's, integrals
    against the volume weight summed over the collapsed axes
    (geometry.integrate).
    """

    def __init__(self, geom, u, k, arrays=None):
        """u is any array that broadcasts to the grid, such as a grid
        field or an (N, 1, 1) line; the state copies it only where the
        slab is not a contiguous view of it, and checks that the slab is
        finite.

        arrays, from take_arrays of a state on the same chart and k, are
        overwritten with this state's fields instead of allocating new
        ones (_out adds those it lacks or whose slab differs); only the
        state built last from them may be read. Temporaries come from the
        chart's work buffers.
        """
        n = geom.grid.ndim
        if not 1 <= k <= n:
            raise ConfigurationError(f"curvature order k={k} outside 1..{n}")
        self.axes, self.u_slab = slab(u, geom.grid.shape)
        if not np.isfinite(self.u_slab).all():
            raise ConfigurationError("conformal factor contains non-finite values")
        self.geometry = geom
        self.k = k
        self.shape = self.u_slab.shape
        self._work = geom._fit(self.shape).work
        self._cache = {}
        self._arrays = {} if arrays is None else arrays

    @property
    def u(self):
        """u_slab broadcast over the grid, a read-only view."""
        return np.broadcast_to(self.u_slab, self.geometry.grid.shape)

    def take_arrays(self):
        """Hand over the arrays of W with its gradient and of every field
        built through _out (the sigma table, the log targets, sigma_k(g),
        the conformal weight, the speed) for a new state to overwrite, and
        empty the cache: later reads recompute, bitwise the same, into new
        arrays."""
        arrays = self._arrays
        if "w" in self._cache:
            arrays["w"] = self._cache["w"]
        self._cache.clear()
        self._arrays = {}
        return arrays

    def _out(self, key, slabs=None):
        """The array handed on for key when it has the state's shape (with
        slabs entries on a last axis), or a new one from geometry._empty."""
        have = self._arrays.get(key)
        if have is None or have.shape[:len(self.shape)] != self.shape:
            new = self.geometry._empty((slabs,) + self.shape if slabs
                                       else self.shape)
            self._arrays[key] = np.moveaxis(new, 0, -1) if slabs else new
        return self._arrays[key]

    # ------------------------------------------------------------ assembly

    def _cached(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def _w(self):
        out = self._arrays.get("w")
        if out is not None and out[2].shape != self.shape:
            out = None
        return self._cached("w", lambda: w_components(
            self.geometry, self.u_slab, out=out))

    def w_components(self):
        """W(u) as fieldalg components (upper triangle)."""
        return self._w()[0]

    def max_abs_w(self):
        return float(max(np.abs(c, out=self._work[1]).max()
                         for c in self.w_components()))

    def frame_gradient(self):
        """The frame gradient components of u that W was built from."""
        return self._w()[1]

    def grad_norm2(self):
        return self._w()[2]

    def sigma_w_table(self):
        """Elementary symmetric functions e_0..e_k of W, (..., k+1)."""
        return self._cached("etable", lambda: fieldalg.sigma_table(
            self.w_components(), self.geometry.grid.ndim, self.k,
            out=self._out("etable", self.k + 1)))

    # ---------------------------------------------------------- cone tests

    def cone_report(self):
        return self._cached("cone", self._cone_report)

    def _cone_report(self):
        etable = self.sigma_w_table()
        worst = fieldalg.worst_violation(etable, self.k)
        if worst is None:
            return ConeReport(ConeLabel(k=self.k, inside=True), None, None, 0)
        # the slab's first worst node is the grid's, and each slab node
        # stands for the grid nodes its collapsed axes span
        j, node, value = worst
        repeats = self.geometry.grid.total_points // self.u_slab.size
        n_bad = repeats * (self.u_slab.size - np.count_nonzero(
            fieldalg.cone_mask(etable, self.k)))
        return ConeReport(ConeLabel(k=self.k, inside=False, first_failing_j=j),
                          node, value, n_bad)

    def require_admissible(self):
        report = self.cone_report()
        if not report.label.inside:
            raise ConeViolationError(
                f"W(u) left the Gamma_{self.k}+ cone: sigma_"
                f"{report.label.first_failing_j} = {report.value:.6g} at node "
                f"{report.node} ({report.n_violations} nodes violating)",
                label=report.label, node=report.node)
        return report

    # ------------------------------------------------------- sigma of g

    def sigma_field(self):
        return self._cached("sigma", lambda: np.exp(
            self.log_target(), out=self._out("sigma")))

    def min_sigma(self):
        return float(self.sigma_field().min())

    def newton_components(self):
        """T_{k-1}(W), the gradient of sigma_k at W, as components. Only the
        linearization reads it (the flow's CFL bound comes from the sigma
        table), so its arrays are not recycled."""
        return self._cached("newton", lambda: fieldalg.newton_components(
            self.w_components(), self.geometry.grid.ndim, self.sigma_w_table(),
            self.k - 1))

    def linearization_weights(self):
        """The weights of d sigma_k(W) in DerivativeMatrices.combine order.

        m_ab T_ab on H_ab for (a, b) in fieldalg.pairs(n), m_ab = 2 off the
        diagonal, then 2 (T du)_c - tr T du_c on G_c, with T = T_{k-1}(W)
        and du the frame gradient of u; the weights have the slab's shape,
        and combined with the derivative matrices at a shape they
        broadcast to (geometry.derivative_matrices) they give the matrix
        of d sigma_k(W_h) at u there, dense or CSR as the shape's storage
        is. The array is built afresh on
        every call and not cached, so the caller may scale it in place.
        """
        n = self.geometry.grid.ndim
        t_field = self.newton_components()
        grad_u = self.frame_gradient()
        pairs = fieldalg.pairs(n)
        weights = np.empty((len(pairs) + n,) + self.shape)
        t_grad = [0.0] * n
        trace = 0.0
        for m, ((a, b), t_ab) in enumerate(zip(pairs, t_field)):
            weights[m] = t_ab if a == b else 2.0 * t_ab
            t_grad[a] = t_grad[a] + t_ab * grad_u[b]
            if a == b:
                trace = trace + t_ab
            else:
                t_grad[b] = t_grad[b] + t_ab * grad_u[a]
        for c in range(n):
            weights[len(pairs) + c] = 2.0 * t_grad[c] - trace * grad_u[c]
        return weights

    # ------------------------------------------------------- global scalars

    def conformal_weight(self):
        """Density of dvol(g) against dvol(g0): e^{-n u}."""
        def build():
            scaled = np.multiply(self.u_slab, -float(self.geometry.grid.ndim),
                                 out=self._out("weight"))
            return np.exp(scaled, out=scaled)

        return self._cached("weight", build)

    def volume(self):
        return self._cached("volume", lambda: self.geometry.integrate(
            self.conformal_weight()))

    def log_target(self, l=None):
        """log of the flow's driven quantity: sigma_k(g), or
        sigma_k(g)/sigma_l(g) = e^{2(k-l)u} sigma_k(W)/sigma_l(W) for the
        quotient flow (0 <= l < k); sigma_0 = 1 makes l = 0 the primary
        flow. Requires admissibility."""
        key = ("log_target", l) if l else "log_sigma"
        if key not in self._cache:
            self.require_admissible()
            etable, tmp = self.sigma_w_table(), self._work[0]
            val = np.log(etable[..., self.k], out=self._out(key))
            val += np.multiply(self.u_slab, 2.0 * (self.k - (l or 0)), out=tmp)
            if l:
                val -= np.log(etable[..., l], out=tmp)
            self._cache[key] = val
        return self._cache[key]

    def log_target_mean(self, l=None):
        """Mean of log_target(l) under dvol(g), computed once per state;
        the flow speed and the monitor row share it."""
        return self._cached(("log_mean", l), lambda: self.geometry.integrate(
            self.log_target(l), self.conformal_weight()) / self.volume())

    def r_k(self):
        """Geometric mean of sigma_k(g) under dvol(g)."""
        return float(np.exp(self.log_target_mean()))

    def F_k(self):
        """Scale-normalized integral vol^{-(n-2k)/n} * int sigma_k dvol(g)."""
        n = self.geometry.grid.ndim
        total = self.geometry.integrate(self.sigma_field(),
                                        weight=self.conformal_weight())
        return self.volume() ** (-(n - 2.0 * self.k) / n) * total

    def harnack_quantity(self):
        """sup |grad u|_{g0}; equals sup |grad v|/v for v = e^u."""
        return float(np.sqrt(self.grad_norm2().max()))
