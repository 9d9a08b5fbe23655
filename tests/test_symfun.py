"""Symmetric-function toolkit tests.

The oracles here are deliberately independent of the implementation:
sigma_k via brute-force principal minors (determinants over index subsets)
and gradients via central finite differences.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matrix_form import components, matrix
from sigmaflow import fieldalg, symfun


# ---------------------------------------------------------------- oracles

def minors_oracle(a, k):
    """sigma_k(A) as the sum of all k x k principal minors."""
    n = a.shape[0]
    if k == 0:
        return 1.0
    total = 0.0
    for idx in itertools.combinations(range(n), k):
        sub = a[np.ix_(idx, idx)]
        total += np.linalg.det(sub)
    return total


def fd_grad_oracle(a, k, step=1e-5):
    """Central-difference d sigma_k / dA, symmetric perturbations."""
    n = a.shape[0]
    g = np.zeros_like(a)
    for i in range(n):
        for j in range(i, n):
            da = np.zeros_like(a)
            da[i, j] = da[j, i] = 1.0
            plus = symfun.sigma_k_matrix(a + step * da, k)
            minus = symfun.sigma_k_matrix(a - step * da, k)
            d = (plus - minus) / (2.0 * step)
            # the symmetric-pair perturbation counts both entries at once
            if i == j:
                g[i, i] = d
            else:
                g[i, j] = g[j, i] = d / 2.0
    return g


def random_sym(rng, n, scale=1.0):
    m = rng.standard_normal((n, n))
    return scale * 0.5 * (m + m.T)


def random_cone_matrix(rng, n, k):
    """Random matrix in Gamma_k^+, by shifting until the cone test passes."""
    a = random_sym(rng, n)
    eigs = np.linalg.eigvalsh(a)
    a = a + (abs(eigs.min()) + 0.2) * np.eye(n)
    assert symfun.cone_test(symfun.eigenvalues(a), k).inside
    return a


# ------------------------------------------------------------ sigma basics

def test_sigma_known_values():
    assert symfun.sigma_k(np.array([1.0, 1.0, 1.0]), 2) == pytest.approx(3.0)
    assert symfun.sigma_k(np.array([1.0, 2.0, 3.0]), 2) == pytest.approx(11.0)
    assert symfun.sigma_k(np.array([0.5, 0.5, 0.5]), 3) == pytest.approx(0.125)
    assert symfun.sigma_k(np.array([4.0, -7.0, 2.5]), 0) == 1.0


def test_sigma_matrix_known_values():
    assert symfun.sigma_k_matrix(np.diag([1.0, 2.0, 3.0]), 2) == pytest.approx(11.0)
    assert symfun.sigma_k_matrix(np.eye(4), 2) == pytest.approx(6.0)


def test_sigma_k_out_of_range():
    lam = np.ones(3)
    with pytest.raises(ValueError):
        symfun.sigma_k(lam, 4)
    with pytest.raises(ValueError):
        symfun.sigma_k(lam, -1)


def test_sigma_against_minors_oracle():
    rng = np.random.default_rng(7)
    for n in (3, 4, 5, 6):
        for _ in range(40):
            a = random_sym(rng, n)
            for k in range(0, n + 1):
                got = symfun.sigma_k_matrix(a, k)
                want = minors_oracle(a, k)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_sigma_batched_shapes():
    rng = np.random.default_rng(3)
    lam = rng.standard_normal((4, 5, 3))
    e = symfun.sigma_all(lam, 3)
    assert e.shape == (4, 5, 4)
    for i in range(4):
        for j in range(5):
            assert e[i, j, 2] == pytest.approx(symfun.sigma_k(lam[i, j], 2))


# ------------------------------------------------------- Newton transforms

def brute_newton(a, k):
    """Direct alternating sum sigma_k I - sigma_{k-1} A + ... + (-1)^k A^k."""
    n = a.shape[0]
    out = np.zeros_like(a)
    power = np.eye(n)
    for j in range(0, k + 1):
        out += (-1.0) ** j * symfun.sigma_k_matrix(a, k - j) * power
        power = power @ a
    return out


def test_newton_transform_t0_is_identity():
    a = random_sym(np.random.default_rng(0), 4)
    assert np.allclose(symfun.newton_transform(a, 0), np.eye(4))


def test_newton_transform_matches_alternating_sum():
    rng = np.random.default_rng(11)
    for n in (3, 4, 5):
        a = random_sym(rng, n)
        for k in range(0, n):
            got = symfun.newton_transform(a, k)
            assert np.allclose(got, brute_newton(a, k), atol=1e-10)


def test_newton_transform_trace_identity():
    rng = np.random.default_rng(12)
    for n in (3, 4, 5, 6):
        for _ in range(20):
            a = random_sym(rng, n)
            for k in range(0, n):
                t = symfun.newton_transform(a, k)
                lhs = np.trace(t)
                rhs = (n - k) * symfun.sigma_k_matrix(a, k)
                scale = 1.0 + abs(rhs)
                assert abs(lhs - rhs) <= 1e-12 * scale


def test_newton_transform_order_bounds():
    a = np.eye(3)
    with pytest.raises(ValueError):
        symfun.newton_transform(a, 3)


def test_grad_examples():
    a = np.diag([1.0, 2.0, 3.0])
    assert np.allclose(symfun.grad_sigma_k(a, 2), np.diag([5.0, 4.0, 3.0]))
    for n in (3, 5):
        for k in range(1, n + 1):
            got = symfun.grad_sigma_k(np.eye(n), k)
            from math import comb
            assert np.allclose(got, comb(n - 1, k - 1) * np.eye(n))


def test_grad_matches_fd_oracle():
    rng = np.random.default_rng(21)
    for n in (3, 4, 5, 6):
        for _ in range(8):
            a = random_sym(rng, n)
            for k in range(1, n + 1):
                got = symfun.grad_sigma_k(a, k)
                want = fd_grad_oracle(a, k)
                assert np.max(np.abs(got - want)) <= 1e-6 * (1.0 + np.max(np.abs(want)))


def test_grad_positive_definite_in_cone():
    rng = np.random.default_rng(31)
    for n in (3, 4, 5):
        for k in range(1, n + 1):
            a = random_cone_matrix(rng, n, k)
            t = symfun.grad_sigma_k(a, k)
            assert np.linalg.eigvalsh(t).min() > 0.0


def test_euler_identity():
    # <A, T_{k-1}(A)> = k sigma_k(A)
    rng = np.random.default_rng(41)
    for n in (3, 5):
        a = random_sym(rng, n)
        for k in range(1, n + 1):
            lhs = np.sum(a * symfun.grad_sigma_k(a, k))
            rhs = k * symfun.sigma_k_matrix(a, k)
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


# ------------------------------------------------------ spectral identities

def sigma_without(lam, i, k):
    return symfun.sigma_k(np.delete(lam, i), k)


def test_row_sum_identity():
    # sum_i sigma_{k-1}(lam with i removed) = (n-k+1) sigma_{k-1}(lam)
    rng = np.random.default_rng(51)
    for n in (3, 4, 5, 6):
        lam = rng.standard_normal(n)
        for k in range(1, n + 1):
            lhs = sum(sigma_without(lam, i, k - 1) for i in range(n))
            rhs = (n - k + 1) * symfun.sigma_k(lam, k - 1)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


def test_second_order_identity():
    # sum_i sigma_{k-1}(lam_i removed) lam_i^2 = sigma_1 sigma_k - (k+1) sigma_{k+1}
    rng = np.random.default_rng(52)
    for n in (3, 4, 5, 6):
        lam = rng.standard_normal(n)
        for k in range(1, n + 1):
            lhs = sum(sigma_without(lam, i, k - 1) * lam[i] ** 2 for i in range(n))
            s1 = symfun.sigma_k(lam, 1)
            sk = symfun.sigma_k(lam, k)
            sk1 = symfun.sigma_k(lam, k + 1) if k + 1 <= n else 0.0
            rhs = s1 * sk - (k + 1) * sk1
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(s1 * sk) + abs(sk1))


def test_newton_maclaurin_inequality():
    # (k+1) sigma_{k+1} <= ((n-k)/n) sigma_1 sigma_k inside Gamma_{k+1}^+
    rng = np.random.default_rng(53)
    for n in (3, 4, 5, 6):
        for k in range(1, n):
            for _ in range(50):
                lam = np.linalg.eigvalsh(random_cone_matrix(rng, n, k + 1))
                lhs = (k + 1) * symfun.sigma_k(lam, k + 1)
                rhs = (n - k) / n * symfun.sigma_k(lam, 1) * symfun.sigma_k(lam, k)
                assert lhs <= rhs + 1e-10 * abs(rhs)


# ------------------------------------------------------------- cone logic

def test_cone_test_examples():
    lam = np.array([1.0, 1.0, -0.1])
    assert symfun.cone_test(lam, 1).inside
    assert symfun.cone_test(lam, 2).inside  # sigma_2 = 0.8
    label = symfun.cone_test(lam, 3)
    assert not label.inside
    assert label.first_failing_j == 3


def test_cone_test_stops_at_first_failure():
    lam = np.array([-1.0, -2.0, -3.0])
    label = symfun.cone_test(lam, 3)
    assert label.first_failing_j == 1


def test_cone_convexity_sampled():
    rng = np.random.default_rng(61)
    for n in (3, 4):
        for k in range(1, n + 1):
            for _ in range(40):
                a = np.linalg.eigvalsh(random_cone_matrix(rng, n, k))
                b = np.linalg.eigvalsh(random_cone_matrix(rng, n, k))
                for s in (0.25, 0.5, 0.75):
                    mid = (1 - s) * a + s * b
                    assert symfun.cone_test(mid, k).inside


# --------------------------------------------------------------- concavity

def concavity_second_difference(f, a, b, t=0.5, h=0.05):
    """f(x) along the segment a->b: f((t-h)) - 2 f(t) + f((t+h)) <= tol."""
    def at(s):
        return f((1 - s) * a + s * b)
    return at(t - h) - 2 * at(t) + at(t + h)


def test_log_sigma_concavity_sampled():
    rng = np.random.default_rng(81)
    for n in (3, 4):
        for k in range(1, n + 1):
            for _ in range(25):
                a = random_cone_matrix(rng, n, k)
                b = random_cone_matrix(rng, n, k)
                d2 = concavity_second_difference(
                    lambda m: np.log(symfun.sigma_k_matrix(m, k)), a, b)
                assert d2 <= 1e-8


def test_root_concavity_sampled():
    rng = np.random.default_rng(82)
    for n in (3, 4):
        for k in range(1, n + 1):
            for _ in range(25):
                a = random_cone_matrix(rng, n, k)
                b = random_cone_matrix(rng, n, k)
                d2 = concavity_second_difference(
                    lambda m: symfun.sigma_k_matrix(m, k) ** (1.0 / k), a, b)
                assert d2 <= 1e-8


# ------------------------------------------------------------ field algebra

def test_sigma_batch_matches_symfun():
    rng = np.random.default_rng(91)
    for n in (3, 4, 5):
        w = np.stack([random_sym(rng, n) for _ in range(60)]).reshape(4, 15, n, n)
        e = fieldalg.sigma_table(components(w), w.shape[-1], n)
        for idx in np.ndindex(4, 15):
            eigs = np.linalg.eigvalsh(w[idx])
            want = symfun.sigma_all(eigs, n)
            assert np.allclose(e[idx], want, rtol=1e-10, atol=1e-10)


def test_newton_transform_batch_matches_symfun():
    rng = np.random.default_rng(92)
    for n in (3, 5):
        w = np.stack([random_sym(rng, n) for _ in range(12)])
        e = fieldalg.sigma_table(components(w), w.shape[-1], n)
        for k in range(0, n):
            t = matrix(fieldalg.newton_components(components(w), n, e, k), n)
            for i in range(12):
                assert np.allclose(t[i], symfun.newton_transform(w[i], k), atol=1e-9)


def test_cone_mask_and_worst_violation():
    w = np.stack([np.eye(3), np.diag([1.0, 1.0, -0.1]), np.diag([1.0, 1.0, -0.3])])
    e = fieldalg.sigma_table(components(w), w.shape[-1], 3)
    mask = fieldalg.cone_mask(e, 3)
    assert mask.tolist() == [True, False, False]
    j, node, value = fieldalg.worst_violation(e, 3)
    # sigma_1 and sigma_2 stay positive for these; sigma_3 fails, worst at -0.3
    assert j == 3
    assert node == (2,)
    assert value == pytest.approx(-0.3)
    assert fieldalg.worst_violation(e[:1], 3) is None


def eigen_spread(w):
    """s = |W - m I|_F / sqrt(n) with m = tr W / n, batched over (..., n, n):
    the standard deviation of the eigenvalues."""
    n = w.shape[-1]
    m = np.trace(w, axis1=-2, axis2=-1) / n
    dev = w - m[..., None, None] * np.eye(n)
    return np.sqrt(np.sum(dev * dev, axis=(-2, -1)) / n)


def newton_oracle(w, k):
    """(lam_max, m, s, |T|_F) of T = T_{k-1}(W) from the eigenvalue route,
    batched over (..., n, n)."""
    t = symfun.newton_transform(w, k - 1)
    m = np.trace(t, axis1=-2, axis2=-1) / w.shape[-1]
    return (np.linalg.eigvalsh(t)[..., -1], m, eigen_spread(t),
            np.sqrt(np.sum(t * t, axis=(-2, -1))))


def table_lambda_max(w, k):
    n = w.shape[-1]
    e = fieldalg.sigma_table(components(w), n, n)
    return fieldalg.newton_lambda_max(e, n, k)


def cone_matrix_near_boundary(rng, n, k):
    """Random matrix shifted just far enough into Gamma_k^+; for k < n it
    mostly lies outside Gamma_n^+."""
    a = random_sym(rng, n)
    while not symfun.cone_test(symfun.eigenvalues(a), k).inside:
        a = a + 0.1 * np.eye(n)
    return a


@pytest.mark.parametrize("n", (3, 4, 5))
def test_newton_lambda_max_brackets_true_value(n):
    # Wolkowicz-Styan on T = T_{k-1}(W): m + s/sqrt(n-1) <= lam_max <=
    # m + s sqrt(n-1). Off isotropy the sigma-table bound is that upper side
    # to rounding, for every k, the longer tables of 3 <= k < n included.
    rng = np.random.default_rng(90 + n)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    for k in range(1, n + 1):
        w = np.stack([cone_matrix_near_boundary(rng, n, k)
                      for _ in range(30)])
        top, m, s, scale = newton_oracle(w, k)
        bound = table_lambda_max(w, k)
        assert np.all(np.abs(bound - (m + s * math.sqrt(n - 1)))
                      <= 1e-10 * scale)
        assert np.all(bound >= top - 1e-10 * scale)
        # n - 1 equal eigenvalues of W make n - 1 equal eigenvalues of T,
        # ordered oppositely inside the cone: the bound is exact when they
        # are T's smaller ones, and attains the upper side when they are
        # its larger ones
        for lo, hi in ((0.3, 2.0), (1.0, 1.5)):
            w = np.stack([q @ np.diag([lo] + [hi] * (n - 1)) @ q.T,
                          q @ np.diag([hi] + [lo] * (n - 1)) @ q.T])
            top, m, s, scale = newton_oracle(w, k)
            bound = table_lambda_max(w, k)
            assert abs(bound[0] - top[0]) <= 1e-10 * scale[0]
            assert (abs(bound[1] - top[1] - s[1] * (n - 2) / math.sqrt(n - 1))
                    <= 1e-10 * scale[1])


@pytest.mark.parametrize("n", (3, 4, 5))
def test_component_kernels_into_given_arrays_bitwise(n):
    # sigma_table and newton_lambda_max write into given arrays with the
    # bits of a fresh result.
    rng = np.random.default_rng(40 + n)
    w = components(np.stack([random_sym(rng, n) + 2.0 * np.eye(n)
                             for _ in range(30)]).reshape(5, 6, n, n))
    stale = components(np.stack([random_sym(rng, n)
                                 for _ in range(30)]).reshape(5, 6, n, n))
    bits = lambda x: np.ascontiguousarray(x).view(np.uint64)
    e = fieldalg.sigma_table(w, n, n)
    given = fieldalg.sigma_table(stale, n, n)
    assert fieldalg.sigma_table(w, n, n, out=given) is given
    assert np.array_equal(bits(given), bits(e))
    for k in range(1, n + 1):
        want = fieldalg.newton_lambda_max(e, n, k)
        out, tmp = np.full_like(want, np.nan), np.full_like(want, np.nan)
        assert fieldalg.newton_lambda_max(e, n, k, out=out, tmp=tmp) is out
        assert np.array_equal(bits(out), bits(want))


@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_sigma_table_keeps_every_pair_of_one_node(n):
    # The cone check of the CLI's parse_config passes components of shape
    # (1,), one node of a background whose off-diagonals may be nonzero:
    # an extent of 1 is no collapsed axis, so every pair enters the table
    # and each order carries the bits it has on a longer shape.
    rng = np.random.default_rng(70 + n)
    s0 = random_sym(rng, n) + 2.0 * np.eye(n)
    pairs = fieldalg.pairs(n)
    bits = lambda x: np.ascontiguousarray(x).view(np.uint64)
    one = fieldalg.sigma_table([s0[a, b:b + 1] for a, b in pairs], n, n)
    long = fieldalg.sigma_table([np.full(7, s0[a, b]) for a, b in pairs],
                                n, n)
    assert one.shape == (1, n + 1)
    assert all(np.array_equal(bits(one[0]), bits(row)) for row in long)
    want = symfun.sigma_all(np.linalg.eigvalsh(s0), n)
    assert np.allclose(one[0], want, rtol=1e-10, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(3, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_newton_lambda_max_on_random_symmetric_fields(n, seed):
    # Indefinite W, from far off isotropic to within 1e-9 of it, every k.
    # Near isotropy s^2 is a difference of near-equal terms, clamped at 0,
    # so the bound may read low by O(sqrt(eps)) times |T|_F: measured up to
    # 1.5e-7 (10 sqrt(eps)) at n = 5; the gate is 1e-6.
    rng = np.random.default_rng(seed)
    spread = 10.0 ** rng.uniform(-9.0, 1.0, size=(6, 5, 1, 1))
    spread[0] = 1e-9
    centre = rng.uniform(-5.0, 5.0, size=(6, 5, 1, 1))
    noise = rng.standard_normal((6, 5, n, n))
    w = spread * 0.5 * (noise + np.swapaxes(noise, -1, -2)) + centre * np.eye(n)
    for k in range(1, n + 1):
        top, _, s, scale = newton_oracle(w, k)
        bound = table_lambda_max(w, k)
        assert np.all(bound >= top - 1e-6 * scale)
        assert np.all(bound <= top + s * (n - 2) / math.sqrt(n - 1)
                      + 1e-6 * scale)
