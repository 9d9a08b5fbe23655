"""Vectorized spectral algebra for whole-grid symmetric tensor fields.

A field holds one symmetric n x n matrix per node. The hot paths store it
as its upper triangle: a list of n(n+1)/2 grid arrays in pairs(n) order,
so every product is an elementwise expression on contiguous arrays
instead of a batched small-matrix product. Elementary symmetric
polynomials e_1..e_3 are sums of principal minors in closed form; higher
orders come from power sums via Newton's identities. Newton
transformations follow their defining recurrence. This is an independent
route from symfun, which works on the eigenvalues; `sigmaflow check` and
the test suite cross-check the two.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def pairs(n):
    """(a, b) with a <= b, row by row: the order of component lists."""
    return tuple((a, b) for a in range(n) for b in range(a, n))


@lru_cache(maxsize=None)
def _index(n):
    return {ab: i for i, ab in enumerate(pairs(n))} | \
        {(b, a): i for i, (a, b) in enumerate(pairs(n))}


def sym_product(x, y, n):
    """Components of x @ y for commuting symmetric fields x and y (so that
    the product is symmetric), e.g. two polynomials in the same matrix."""
    idx = _index(n)
    out = []
    for a, b in pairs(n):
        acc = x[idx[a, 0]] * y[idx[0, b]]
        for c in range(1, n):
            acc = acc + x[idx[a, c]] * y[idx[c, b]]
        out.append(acc)
    return out


def _minor3(w, idx, a, b, c):
    waa, wbb, wcc = w[idx[a, a]], w[idx[b, b]], w[idx[c, c]]
    wab, wac, wbc = w[idx[a, b]], w[idx[a, c]], w[idx[b, c]]
    return (waa * (wbb * wcc - wbc * wbc) - wab * (wab * wcc - wbc * wac)
            + wac * (wab * wbc - wbb * wac))


def sigma_table(w, n, kmax, out=None):
    """e_0..e_kmax of the spectrum at every node, indexed on the last axis
    (a view whose e[..., j] slabs are contiguous); w is a component list.
    out, when given, is an earlier result of the same shape to overwrite.
    e[0] holds the products of e_2 until it is set to 1.

    e_1..e_3 are the sums of principal 1-, 2- and 3-minors. Beyond that,
    Newton's identities j e_j = sum_{i=1..j} (-1)^(i-1) e_{j-i} p_i with
    p_i = trace(w^i) from component products.
    """
    if not 0 <= kmax <= n:
        raise ValueError(f"kmax={kmax} out of range for n={n}")
    idx = _index(n)
    if out is None:
        e = np.empty((kmax + 1,) + np.broadcast(*w).shape)
    else:  # the order axis first, as a transpose view (np.moveaxis costs more)
        e = out.transpose((-1, *range(out.ndim - 1)))
    # each e_j bound once: e[j] += x would also write the view back onto
    # itself, a second pass
    if kmax >= 1:
        e1 = e[1]
        e1[...] = w[idx[0, 0]]
        for a in range(1, n):
            e1 += w[idx[a, a]]
    if kmax >= 2:
        tmp, e2 = e[0], e[2]
        e2.fill(0.0)
        for a, b in itertools.combinations(range(n), 2):
            e2 += np.multiply(w[idx[a, a]], w[idx[b, b]], out=tmp)
            e2 -= np.multiply(w[idx[a, b]], w[idx[a, b]], out=tmp)
    if kmax >= 3:
        e3 = e[3]
        e3.fill(0.0)
        for a, b, c in itertools.combinations(range(n), 3):
            e3 += _minor3(w, idx, a, b, c)
    e[0] = 1.0
    if kmax >= 4:
        p = power_sums(w, n, kmax)
        for j in range(4, kmax + 1):
            acc = 0.0
            for i in range(1, j + 1):
                acc = acc + (-1.0) ** (i - 1) * e[j - i] * p[i - 1]
            e[j] = acc / j
    return e.transpose((*range(1, e.ndim), 0)) if out is None else out


def power_sums(w, n, kmax):
    """[trace(w^j) for j = 1..kmax] from a component list; each trace pairs
    two stored powers, so only w^2 and w^4 are ever formed."""
    if kmax > 6:
        raise ValueError(f"power sums implemented for kmax <= 6, got {kmax}")
    diag = [w[i] for i, (a, b) in enumerate(pairs(n)) if a == b]
    p = [sum(diag[1:], diag[0])]
    pair = lambda x, y: sum((1.0 if a == b else 2.0) * xc * yc
                            for (a, b), xc, yc in zip(pairs(n), x, y))
    w2 = sym_product(w, w, n) if kmax >= 3 else None
    if kmax >= 2:
        p.append(pair(w, w))
    if kmax >= 3:
        p.append(pair(w2, w))
    if kmax >= 4:
        p.append(pair(w2, w2))
    if kmax >= 5:
        w4 = sym_product(w2, w2, n)
        p.append(pair(w4, w))
        if kmax >= 6:
            p.append(pair(w4, w2))
    return p


def newton_components(w, n, e, k):
    """T_k at every node as components, from e = sigma_table(w, >= k).

    Recurrence T_j = e_j I - w T_{j-1} with T_0 = I; every T_j is a
    polynomial in w, so each product stays symmetric.
    """
    diag = [a == b for a, b in pairs(n)]
    if k == 0:
        return [np.full(e.shape[:-1], 1.0 if d else 0.0) for d in diag]
    for j in range(1, k + 1):
        prod = w if j == 1 else sym_product(w, t, n)
        t = [e[..., j] - c if d else -c for c, d in zip(prod, diag)]
    return t


def cone_mask(e, k):
    """Boolean field: node spectrum in Gamma_k^+ (all e_j > 0, j <= k)."""
    mask = np.ones(e.shape[:-1], dtype=bool)
    for j in range(1, k + 1):
        mask &= e[..., j] > 0.0
    return mask


def worst_violation(e, k):
    """(first failing j, node index, value) for the worst cone offender.

    The worst node is the one with the most negative e_j at the smallest
    failing order j. Returns None when every node is inside the cone.
    """
    for j in range(1, k + 1):
        ej = e[..., j]
        bad = ej <= 0.0
        if bad.any():
            flat = np.where(bad.ravel(), ej.ravel(), np.inf).argmin()
            node = np.unravel_index(flat, ej.shape)
            return j, node, float(ej[node])
    return None


def newton_lambda_max(e, n, k, out=None, tmp=None):
    """Upper bound on the largest eigenvalue of T_{k-1}(W) at every node,
    read from e = sigma_table(w, n, kmax) with kmax >= min(n, 2k - 2).

    T_{k-1} = sum_{j<k} c_j W^j with c_j = (-1)^j e_{k-1-j}, so its trace
    moments are m = tr T / n = (n - k + 1) e_{k-1} / n and
    |T|_F^2 = sum_{i,j<k} c_i c_j p_{i+j}, with the power sums p of W from
    Newton's identities; expanded, that sum collapses to
    (n - k + 1) e_{k-1}^2 - 2 sum_{j>=1} j e_{k-1-j} e_{k-1+j}, with e_j = 0
    for j > n. With s^2 = |T|_F^2 / n - m^2, every symmetric T has
    m + s / sqrt(n - 1) <= lam_max <= m + s sqrt(n - 1) (Wolkowicz & Styan
    1980, Linear Algebra Appl. 29). The upper side is returned: exact when
    T is isotropic and whenever its n - 1 smaller eigenvalues are equal
    (k = 1 gives exactly 1), and never more than s (n - 2) / sqrt(n - 1)
    above lam_max. s^2 is a difference of near-equal terms where T is
    nearly isotropic and is clamped at 0, so there the bound can read low
    by O(sqrt(eps)) times the scale of T. out and tmp, when given, are grid
    arrays for the result and for its terms; nothing else is allocated.
    """
    # (n - 1) s^2 = (n - 1) / n ((k - 1)(n - k + 1) / n e_{k-1}^2
    #                            - 2 sum_j j e_{k-1-j} e_{k-1+j})
    frac = (n - 1.0) / n
    out = np.multiply(e[..., k - 1], frac * (k - 1) * (n - k + 1) / n,
                      out=out)
    out *= e[..., k - 1]
    for j in range(1, min(k - 1, n - k + 1) + 1):
        term = np.multiply(e[..., k - 1 - j], e[..., k - 1 + j], out=tmp)
        term *= 2.0 * j * frac
        out -= term
    np.sqrt(np.maximum(out, 0.0, out=out), out=out)
    out += np.multiply(e[..., k - 1], (n - k + 1) / n, out=tmp)
    return out
