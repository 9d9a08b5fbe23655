"""Elementary symmetric functions, Newton transformations, and cone tests.

For a symmetric n x n matrix A with eigenvalues lam_1..lam_n, sigma_k(A)
denotes the k-th elementary symmetric polynomial of the spectrum, with
sigma_0 = 1. The Newton transformation

    T_k(A) = sigma_k I - sigma_{k-1} A + sigma_{k-2} A^2 - ... + (-1)^k A^k

is the gradient of sigma_{k+1} with respect to A and satisfies
trace(T_k(A)) = (n - k) sigma_k(A). The open convex cone Gamma_k^+ consists
of spectra with sigma_1 > 0, ..., sigma_k > 0; on it T_{k-1} is positive
definite and both log sigma_k and sigma_k^(1/k) are concave.

Everything here operates on a single spectrum or matrix (trailing axes may
be batched, the recurrences vectorize transparently). Whole-grid fields go
through the independent routines in fieldalg instead.
"""

from __future__ import annotations

import numpy as np

from .errors import ConeLabel


def symmetrize(a):
    """Average a with its transpose so entries match exactly across the diagonal."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _check_square(a):
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def sigma_all(lam, kmax):
    """Elementary symmetric polynomials e_0..e_kmax of the values in lam.

    lam has the spectrum on its last axis; the result appends an axis of
    length kmax + 1. Uses the expanding-product recurrence (coefficients of
    prod_i (1 + lam_i t)), O(n * kmax), no subset enumeration.
    """
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    if not 0 <= kmax <= n:
        raise ValueError(f"kmax={kmax} out of range for n={n}")
    e = np.zeros(lam.shape[:-1] + (kmax + 1,), dtype=float)
    e[..., 0] = 1.0
    for i in range(n):
        top = min(i + 1, kmax)
        for j in range(top, 0, -1):
            e[..., j] += lam[..., i] * e[..., j - 1]
    return e


def sigma_k(lam, k):
    """sigma_k of a spectrum; sigma_0 == 1. Raises for k outside [0, n]."""
    return sigma_all(lam, k)[..., k]


def eigenvalues(a):
    """Ascending eigenvalues of a symmetric matrix (LAPACK, symmetrized input)."""
    return np.linalg.eigvalsh(symmetrize(_check_square(a)))


def sigma_k_matrix(a, k):
    """sigma_k of the spectrum of a symmetric matrix."""
    return sigma_k(eigenvalues(a), k)


def _newton_from_e(a, e, k):
    # T_j = e_j I - A T_{j-1}, T_0 = I: Horner evaluation of the alternating sum
    a = symmetrize(a)
    n = a.shape[-1]
    eye = np.broadcast_to(np.eye(n), a.shape)
    t = np.array(eye)
    for j in range(1, k + 1):
        t = e[..., j, None, None] * eye - a @ t
    return symmetrize(t)


def newton_transform(a, k):
    """Newton transformation T_k(A); valid for 0 <= k <= n-1."""
    a = _check_square(a)
    n = a.shape[-1]
    if not 0 <= k <= n - 1:
        raise ValueError(f"newton_transform order k={k} out of range for n={n}")
    e = sigma_all(eigenvalues(a), k)
    return _newton_from_e(a, e, k)


def grad_sigma_k(a, k):
    """d sigma_k / dA = T_{k-1}(A); valid for 1 <= k <= n."""
    a = _check_square(a)
    n = a.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"grad_sigma_k order k={k} out of range for n={n}")
    return newton_transform(a, k - 1)


def cone_test(lam, k):
    """Strict Gamma_k^+ test: sigma_j > 0 for every j <= k.

    Evaluation stops at the first failing j, which is recorded in the label.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 1:
        raise ValueError("cone_test expects a single spectrum")
    n = lam.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"cone order k={k} out of range for n={n}")
    e = sigma_all(lam, k)
    for j in range(1, k + 1):
        if not e[j] > 0.0:
            return ConeLabel(k=k, inside=False, first_failing_j=j)
    return ConeLabel(k=k, inside=True)
