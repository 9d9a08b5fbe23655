"""The roll/flip/concatenate stencil layer, as a bitwise oracle for
BackgroundGeometry's ghost-map and flat-shift kernel.

Each function takes the chart as its first argument and builds its ghost
layers by slicing, flipping, rolling and concatenating, with the frame
factors as small broadcast arrays. The package's kernel must reproduce
every value bit for bit: it runs the same floating-point operations in
the same order, only on other memory layouts.
"""

import numpy as np

from sigmaflow import fieldalg
from sigmaflow.geometry import PERIODIC, POLE


def _slice_axis(arr, axis, sl):
    idx = [slice(None)] * arr.ndim
    idx[axis] = sl
    return arr[tuple(idx)]


def antipode_tail(geom, slab, axis):
    """Apply the pole-crossing identification to the axes after `axis`."""
    out = slab
    for a in range(axis + 1, geom.grid.ndim):
        if geom.grid.axis_kind[a] == POLE:
            out = np.flip(out, axis=a)
        else:
            out = np.roll(out, geom.grid.shape[a] // 2, axis=a)
    return out


def component_sign(geom, comp, axis):
    if comp is None:
        return 1.0
    if comp == axis:
        return -1.0
    if comp > axis and geom.grid.axis_kind[comp] == POLE:
        return -1.0
    return 1.0


def pad(geom, f, axis, width, comp=None):
    """f extended by ghost layers along one axis."""
    f = np.asarray(f)
    n = f.shape[axis]
    if geom.grid.axis_kind[axis] == PERIODIC:
        lo = _slice_axis(f, axis, slice(n - width, n))
        hi = _slice_axis(f, axis, slice(0, width))
        return np.concatenate([lo, f, hi], axis=axis)
    sign = component_sign(geom, comp, axis)
    head = antipode_tail(geom, _slice_axis(f, axis, slice(0, width)), axis)
    tail = antipode_tail(geom, _slice_axis(f, axis, slice(n - width, n)), axis)
    lo = sign * np.flip(head, axis=axis)
    hi = sign * np.flip(tail, axis=axis)
    return np.concatenate([lo, f, hi], axis=axis)


def stencil(geom, f, axis, comp=None, second=False):
    """First difference; with second=True also the second difference and
    the polar defect (None off the polar axes)."""
    h = geom.grid.spacing[axis]
    n = geom.grid.shape[axis]
    polar = second and axis in geom._polar
    width = geom._polar[axis].width if polar else geom.fd_order // 2
    p = pad(geom, f, axis, width, comp)
    take = lambda s: _slice_axis(p, axis, slice(width + s, width + s + n))
    first = take(1) - take(-1)
    if geom.fd_order == 2:
        first *= 0.5 / h
        if not second:
            return first
        d2 = take(-1) - take(0)
        d2 += take(1) - take(0)
        d2 *= 1.0 / (h * h)
    else:
        first *= 8.0
        tmp = take(-2) - take(2)
        first += tmp
        first *= 1.0 / (12.0 * h)
        if not second:
            return first
        t0 = take(0)
        d2 = take(-1) - t0
        d2 += np.subtract(take(1), t0, out=tmp)
        d2 *= 16.0
        d2 -= np.subtract(take(-2), t0, out=tmp)
        d2 -= np.subtract(take(2), t0, out=tmp)
        d2 *= 1.0 / (12.0 * h * h)
    defect = polar_defect(geom, p, first, d2, axis) if polar else None
    return first, d2, defect


def polar_defect(geom, p, first, d2, axis):
    """Divergence-form minus pointwise Laplacian part of a polar axis,
    even part (see BackgroundGeometry._polar_defect)."""
    c = geom._polar[axis]
    n = geom.grid.shape[axis]
    du = np.diff(p, axis=axis)
    face = lambda k: _slice_axis(du, axis, slice(c.width - 1 + k, c.width + k + n))
    (k, coef), *rest = c.flux
    flux = coef * face(k)
    tmp = np.empty_like(flux)
    for k, coef in rest:
        flux += np.multiply(coef, face(k), out=tmp)
    out = np.diff(flux, axis=axis)
    out /= c.hs
    out -= d2
    out -= c.kappa * first
    out += antipode_tail(geom, out, axis)
    out *= 0.5
    return out


def scalar_jet(geom, u):
    u = np.asarray(u, dtype=float)
    parts, seconds, defect = [], [], 0.0
    for a in range(geom.grid.ndim):
        first, second, extra = stencil(geom, u, a, second=True)
        parts.append(first)
        seconds.append(second)
        if extra is not None:
            extra *= 1.0 / geom.lame[a] ** 2
            defect = defect + extra
    return parts, seconds, defect


def frame_gradient(geom, parts):
    grad = [p * (1.0 / h_a) for p, h_a in zip(parts, geom.lame)]
    norm2 = grad[0] * grad[0]
    tmp = np.empty_like(norm2)
    for g in grad[1:]:
        norm2 += np.multiply(g, g, out=tmp)
    return grad, norm2


def hessian_components(geom, u, jet=None):
    n = geom.grid.ndim
    dlog, lame = geom.dlog, geom.lame
    parts, seconds, defect = jet if jet is not None else scalar_jet(geom, u)
    iso = defect / n
    out = []
    for a, b in fieldalg.pairs(n):
        if a == b:
            inv2 = 1.0 / lame[a] ** 2
            val = seconds[a] * inv2
            if dlog[a][a] is not None:
                val -= dlog[a][a] * parts[a] * inv2
            for c in range(n):
                if c != a and dlog[a][c] is not None:
                    val += dlog[a][c] / lame[c] ** 2 * parts[c]
            val += iso
        else:
            val = stencil(geom, parts[b], a, comp=b)
            if dlog[a][b] is not None:
                val -= dlog[a][b] * parts[a]
            if dlog[b][a] is not None:
                val -= dlog[b][a] * parts[b]
            val *= (1.0 / lame[a]) * (1.0 / lame[b])
        out.append(val)
    return out


def w_components(geom, u):
    """W(u) components and |grad u|^2, as conformal.w_components."""
    u = np.asarray(u, dtype=float)
    jet = scalar_jet(geom, u)
    w = hessian_components(geom, u, jet=jet)
    grad, norm2 = frame_gradient(geom, jet[0])
    tmp = np.empty_like(norm2)
    half = 0.5 * norm2
    for (a, b), w_ab in zip(fieldalg.pairs(geom.grid.ndim), w):
        w_ab += np.multiply(grad[a], grad[b], out=tmp)
        if a == b:
            w_ab -= half
        if geom.schouten0[a, b] != 0.0:
            w_ab += geom.schouten0[a, b]
    return w, norm2
