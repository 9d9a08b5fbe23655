"""(..., n, n) views of the package's component lists, for tests that
compare against matrix oracles (symfun, numpy.linalg) or closed forms.

The package stores a symmetric tensor field as its upper triangle, one
grid array per entry in fieldalg.pairs(n) order, and a vector field as one
array per component.
"""

import numpy as np

from sigmaflow import fieldalg
from sigmaflow.conformal import w_components


def components(w):
    """Upper-triangle components of a (..., n, n) array."""
    return [np.ascontiguousarray(w[..., a, b]) for a, b in fieldalg.pairs(w.shape[-1])]


def matrix(comps, n, shape=()):
    """(..., n, n) array from components, broadcast to the grid shape."""
    shape = np.broadcast_shapes(shape, *(np.shape(c) for c in comps))
    out = np.empty(shape + (n, n))
    for (a, b), comp in zip(fieldalg.pairs(n), comps):
        out[..., a, b] = comp
        out[..., b, a] = comp
    return out


def hessian(geom, u):
    """The covariant Hessian of a scalar as a (..., n, n) field."""
    return matrix(geom.frame_derivatives(u)[0], geom.grid.ndim,
                  geom.grid.shape)


def gradient(geom, u):
    """The frame gradient as a (..., n) field, and |grad u|^2."""
    _, grad, norm2 = geom.frame_derivatives(u)
    return np.stack(np.broadcast_arrays(*grad), axis=-1), norm2


def w_matrix(geom, u):
    """W(u) as a (..., n, n) field."""
    return matrix(w_components(geom, u)[0], geom.grid.ndim, geom.grid.shape)
