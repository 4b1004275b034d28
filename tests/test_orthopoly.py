"""Tests for orthonormal-polynomial recurrences and their kernels on [0, 1].

Closed-form oracles: shifted Legendre (weight 1) and shifted Jacobi
(weight t^nu) recurrence coefficients, plus a brute-force Christoffel
function solved directly from a moment system.  The kernels are direct
sums; the Christoffel-Darboux quotient, computed here from the recurrence
coefficients, and a 40-digit mpmath direct sum are their oracles.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal, assert_array_less
from scipy import special

from bessellab import lab, orthopoly
from bessellab.dpp import nystrom
from bessellab.errors import DomainError, PrecisionFailure
from bessellab.orthopoly import (
    DEGREE_CAP,
    RecurrenceTable,
    brute_force_christoffel,
    build_recurrence,
    lubinsky_gap,
    save_recurrence_csv,
    weight_quadrature,
)
from bessellab.sequences import make_bessel_zero_squared, make_quadratic, make_sampled
from bessellab.weights import ApproxWeight, ConditionalWeight, PowerWeight, ScaledWeight


def _stieltjes_mp(mpmath, nodes, masses, n):
    """alpha_0..alpha_{n-1} and beta_1..beta_n of the orthonormal recurrence
    of a discrete measure, by the Stieltjes procedure at 40 digits."""
    with mpmath.workdps(40):
        t = [mpmath.mpf(x) for x in nodes]
        m = [mpmath.mpf(x) for x in masses]
        mt = [a * b for a, b in zip(m, t)]
        prev, cur = [mpmath.mpf(0)] * len(t), [mpmath.mpf(1)] * len(t)
        alpha, beta_monic, norm_prev = [], [], None
        for k in range(n + 1):
            sq = [p * p for p in cur]
            norm = mpmath.fdot(m, sq)
            if k:
                beta_monic.append(norm / norm_prev)
            if k == n:
                break
            a = mpmath.fdot(mt, sq) / norm
            b = beta_monic[-1] if k else 0
            alpha.append(a)
            prev, cur = cur, [(x - a) * p - b * q for x, p, q in zip(t, cur, prev)]
            norm_prev = norm
        return (np.array([float(a) for a in alpha]),
                np.array([float(mpmath.sqrt(b)) for b in beta_monic]))


def _jacobi_shifted(nu, kmax):
    # monic Jacobi recurrence for (1+x)^nu on [-1, 1], mapped to t^nu on
    # [0, 1]: alpha -> (1+alpha)/2, sqrt(beta) -> sqrt(beta)/2
    alpha = np.empty(kmax + 1)
    beta = np.zeros(kmax + 1)
    for k in range(kmax + 1):
        ak = nu / (nu + 2.0) if k == 0 else nu * nu / ((2 * k + nu) * (2 * k + nu + 2.0))
        alpha[k] = (1.0 + ak) / 2.0
        if k > 0:
            bk = 4.0 * k * k * (k + nu) ** 2 / (
                (2 * k + nu) ** 2 * (2 * k + nu + 1.0) * (2 * k + nu - 1.0))
            beta[k] = math.sqrt(bk) / 2.0
    return alpha, beta


class TestQuadrature:
    @pytest.mark.parametrize("nu", [-0.5, 0.0, 0.5, 2.0])
    def test_moments_exact(self, nu):
        nodes, masses = weight_quadrature(nu)
        for k in range(0, 30, 3):
            assert_allclose(masses @ nodes**k, 1.0 / (k + nu + 1.0), rtol=1e-13)

    def test_support_scaling(self):
        nodes, masses = weight_quadrature(0.5, support=4.0)
        # moment k of t^nu dt on [0, L] is L^(k+nu+1)/(k+nu+1)
        assert_allclose(masses @ nodes**2, 4.0**3.5 / 3.5, rtol=1e-13)

    def test_guards(self):
        with pytest.raises(DomainError):
            weight_quadrature(-1.2)
        with pytest.raises(DomainError):
            weight_quadrature(0.0, support=-1.0)
        # t^2 overflows the masses at the nodes near the support's end
        with pytest.raises(PrecisionFailure):
            weight_quadrature(2.0, support=1e300)
        # a Gauss rule whose mass (from nu ~ 1023) or Christoffel sums overflow
        for n, nu in ((120, 1100.0), (120, 1e300), (512, 300.0)):
            with pytest.raises(PrecisionFailure):
                orthopoly._gauss_jacobi(n, nu)

    def test_rules_computed_once_per_pair(self):
        # count the Gauss rules the package computes: builds at one (n, a)
        # need one rule, and nu and nu + 1 share it; at integer nu it is the
        # Legendre rule, which the Nystrom factor of the same size shares
        orthopoly._gauss_jacobi.cache_clear()
        for nu in (0.5, 0.5, 1.5):
            build_recurrence(PowerWeight(nu), 20)
        assert orthopoly._gauss_jacobi.cache_info().misses == 1
        orthopoly._gauss_jacobi.cache_clear()
        for nu in (0.0, 0.0, 2.0):
            build_recurrence(PowerWeight(nu), 20)
        assert orthopoly._gauss_jacobi.cache_info().misses == 1
        for _ in range(2):
            nystrom(0.0, 10.0, 2 * 20 + 40)
        assert orthopoly._gauss_jacobi.cache_info().misses == 1

    @pytest.mark.parametrize("nu", [-0.5, 0.0, 2.0])
    def test_cached_rules_match_direct_construction(self, nu):
        # the mapped rule built from a freshly computed Gauss rule, bit for
        # bit, on the first (uncached) and the second (cached) call: t^nu is
        # t^k t^a, the rule carries t^a and the masses t^k
        n, support = 120, 3.0
        k = {-0.5: 0.0, 0.0: 0.0, 2.0: 2.0}[nu]
        x, w = orthopoly._gauss_jacobi.__wrapped__(n, nu - k)
        nodes = support * 0.5 * (1.0 + x)
        masses = w * (0.5 * support) ** (nu - k + 1.0) * nodes**k
        orthopoly._gauss_jacobi.cache_clear()
        for _ in range(2):
            got_nodes, got_masses = weight_quadrature(nu, support, n=n)
            assert_array_equal(got_nodes, nodes)
            assert_array_equal(got_masses, masses)

    def test_cached_rules_cannot_be_corrupted(self):
        first = weight_quadrature(0.5)
        nodes, masses = (a.copy() for a in first)
        for a in first:
            a[:] = -1.0
        again_nodes, again_masses = weight_quadrature(0.5)
        assert_array_equal(again_nodes, nodes)
        assert_array_equal(again_masses, masses)
        for rule in (orthopoly._gauss_jacobi(120, -0.5), orthopoly._gauss_jacobi(120, 0.0)):
            for arr in rule:
                with pytest.raises(ValueError):
                    arr[0] = 0.0


def _jacobi_rule_mp(mpmath, n, nu, x):
    """The node of the n-point rule for (1 + x)^nu next to x, polished as a
    root of P_n^(0, nu), and its weight 2^(nu+1) / ((1 - x^2) P_n'(x)^2)
    with P_n' = (n + nu + 1)/2 P_{n-1}^(1, nu+1), at mpmath's precision."""
    nu = mpmath.mpf(nu)

    def dp(t):
        return (n + nu + 1) / 2 * mpmath.jacobi(n - 1, 1, nu + 1, t)

    t = mpmath.mpf(float(x))
    for _ in range(3):
        t -= mpmath.jacobi(n, 0, nu, t, zeroprec=1000) / dp(t)
    return t, 2 ** (nu + 1) / ((1 - t * t) * dp(t) ** 2)


class TestGaussJacobi:
    @pytest.mark.parametrize("n, nu", [(1, 0.0), (2, 0.5), (3, 0.0), (128, 0.0), (161, 0.0),
                                       (512, 0.0), (161, -0.9), (161, -0.5), (161, 0.5),
                                       (200, 2.0), (120, 37.3), (161, 100.0)])
    def test_accuracy_against_mpmath(self, n, nu):
        # the accuracy the docstring states: nodes within 2.5e-16 absolute,
        # weights (worst near the end nodes) within 2.2e-12 relative,
        # against 40-digit references
        mpmath = pytest.importorskip("mpmath")
        x, w = orthopoly._gauss_jacobi(n, nu)
        with mpmath.workdps(40):
            for i in {0, 1, 2, n // 8, n // 4, n // 2, n - 3, n - 2, n - 1} & set(range(n)):
                t, wt = _jacobi_rule_mp(mpmath, n, nu, x[i])
                assert abs(x[i] - t) <= 2.5e-16
                assert abs(w[i] - wt) <= 2.2e-12 * wt

    @pytest.mark.parametrize("n", [2, 3, 160, 161, 512])
    def test_legendre_rule_is_symmetric(self, n):
        x, w = orthopoly._gauss_jacobi(n, 0.0)
        assert_array_equal(x, -x[::-1])
        assert_array_equal(w, w[::-1])
        if n % 2:
            assert x[n // 2] == 0.0

    @pytest.mark.parametrize("n", [2, 3, 160, 161, 512])
    def test_legendre_eigensolve_is_folded(self, n, monkeypatch):
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def recording(a):
            shapes.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        orthopoly._gauss_jacobi.__wrapped__(n, 0.0)
        assert shapes and all(max(s) <= (n + 1) // 2 for s in shapes)

    def test_cached_rule_equals_a_fresh_one(self):
        cached = orthopoly._gauss_jacobi(161, 0.5)
        for a, b in zip(cached, orthopoly._gauss_jacobi.__wrapped__(161, 0.5)):
            assert_array_equal(a, b)


class TestRecurrence:
    def test_shifted_legendre_coefficients(self):
        tab = build_recurrence(PowerWeight(0.0), 20)
        ks = np.arange(1, 21)
        assert_allclose(tab.alpha, np.full(20, 0.5), rtol=0, atol=1e-14)
        assert_allclose(tab.beta[1:], ks / (2.0 * np.sqrt(4.0 * ks**2 - 1.0)), rtol=1e-13)
        assert tab.log_mu0 == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("nu", [-0.5, 0.5, 2.0])
    def test_shifted_jacobi_coefficients(self, nu):
        tab = build_recurrence(PowerWeight(nu), 15)
        alpha, beta = _jacobi_shifted(nu, 15)
        assert_allclose(tab.alpha, alpha[:15], rtol=0, atol=5e-14)
        assert_allclose(tab.beta[1:], beta[1:16], rtol=5e-13)
        assert_allclose(math.exp(tab.log_mu0), 1.0 / (nu + 1.0), rtol=1e-13)

    def test_first_polynomials_weight_one(self):
        tab = build_recurrence(PowerWeight(0.0), 4)
        t = np.linspace(0.05, 0.95, 9)
        assert_allclose(tab.phi(0, t), np.ones_like(t), rtol=1e-14)
        assert_allclose(tab.phi(1, t), math.sqrt(3.0) * (2.0 * t - 1.0),
                        rtol=1e-12, atol=1e-14)

    def test_gram_residual_small(self):
        tab = build_recurrence(PowerWeight(0.5), 40)
        assert tab.gram_residual() < 1e-13

    def test_double_build_matches_mpmath_stieltjes(self):
        # the float64 Lanczos build against a 40-digit Stieltjes build of
        # the same discrete measure, at the degree cap
        mpmath = pytest.importorskip("mpmath")
        w = ConditionalWeight(make_bessel_zero_squared(3.0), 3.0, 2e5)
        tab = build_recurrence(w, DEGREE_CAP)
        assert tab.alpha.dtype == np.float64
        alpha, beta = _stieltjes_mp(mpmath, tab.nodes, tab.scaled_masses, DEGREE_CAP)
        assert np.max(np.abs(tab.beta[1:] - beta) / beta) <= 1e-14
        assert np.max(np.abs(tab.alpha - alpha) / beta) <= 1e-14

    def test_gram_under_independent_quadrature(self):
        # orthonormality re-checked on a finer, separately built quadrature
        nu = 0.5
        tab = build_recurrence(PowerWeight(nu), 30)
        nodes, masses = weight_quadrature(nu, n=200)
        phi = tab.phi_table(30, nodes)
        gram = (phi * masses) @ phi.T
        assert np.max(np.abs(gram - np.eye(31))) < 1e-12

    def test_degree_guards(self):
        with pytest.raises(DomainError):
            build_recurrence(PowerWeight(0.0), 0)
        with pytest.raises(DomainError):
            build_recurrence(PowerWeight(0.0), DEGREE_CAP + 10)
        tab = build_recurrence(PowerWeight(0.0), 5)
        with pytest.raises(DomainError):
            tab.phi(6, 0.5)

    def test_csv_export(self, tmp_path):
        tab = build_recurrence(PowerWeight(0.0), 6)
        path = tmp_path / "recurrence.csv"
        save_recurrence_csv(tab, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 7  # header + k = 0..5
        assert lines[0].split(",")[0] == "k"
        # the unused beta[0] slot carries the total mass mu_0
        assert float(lines[1].split(",")[2]) == pytest.approx(1.0, rel=1e-12)


def _recurrence_rows_ref(a, b, n, t):
    """The rows of ``orthopoly._recurrence_rows``, one fresh temporary per
    operation: the reference for its in-place loop."""
    out = np.empty((n + 1, t.size))
    out[0] = 1.0
    out[1] = (t - a[0]) / b[1]
    for k in range(1, n):
        out[k + 1] = ((t - a[k]) * out[k] - b[k] * out[k - 1]) / b[k + 1]
    return out


def _lanczos_ref(t, masses, shift, n_max):
    """(alpha, beta, log_mu0) of ``build_recurrence``'s Lanczos loop, one
    fresh temporary per operation: the reference for its in-place loop."""
    v = np.sqrt(masses)
    nrm = np.sqrt(v @ v)
    basis = np.empty((n_max + 1, t.size))
    basis[0] = v / nrm
    alpha = np.zeros(n_max)
    beta = np.zeros(n_max + 1)
    for k in range(n_max):
        w = t * basis[k]
        alpha[k] = w @ basis[k]
        w = w - alpha[k] * basis[k]
        if k:
            w = w - beta[k] * basis[k - 1]
        w = w - basis[:k + 1].T @ (basis[:k + 1] @ w)
        b = np.sqrt(w @ w)
        beta[k + 1] = b
        basis[k + 1] = w / b
    return alpha, beta, shift + 2.0 * math.log(nrm)


class TestLoopsInPlace:
    """The in-place recurrence and Lanczos loops do the arithmetic of the
    expressions they replaced, operation for operation: every bit agrees."""

    @pytest.mark.parametrize("make", [lambda: PowerWeight(0.0), lambda: PowerWeight(-0.5),
                                      lambda: ConditionalWeight(make_quadratic(), 0.5, 1e4)],
                             ids=["legendre", "jacobi", "conditional"])
    def test_bit_identical_to_reference_loops(self, make):
        w = make()
        tab = build_recurrence(w, 121)
        alpha, beta, log_mu0 = _lanczos_ref(*orthopoly._discrete_measure(w, 121), 121)
        assert np.array_equal(tab.alpha, alpha)
        assert np.array_equal(tab.beta, beta)
        assert tab.log_mu0 == log_mu0
        t = np.concatenate((tab.nodes, np.linspace(0.0, 1.0, 17)))
        assert np.array_equal(orthopoly._recurrence_rows(tab.alpha, tab.beta, 121, t),
                              _recurrence_rows_ref(tab.alpha, tab.beta, 121, t))


class _CountingWeight:
    """t^nu e^(-c t) on [0, 1], counting its ``log_smooth`` calls.  It
    defines __eq__ and no __hash__, so it is unhashable."""

    quad_support = 1.0

    def __init__(self, nu, c):
        self.nu, self.c, self.calls = nu, c, 0

    def __eq__(self, other):
        return isinstance(other, _CountingWeight) and (self.nu, self.c) == (other.nu, other.c)

    def log_smooth(self, t):
        self.calls += 1
        return -self.c * np.asarray(t)


class TestDiscreteMeasure:
    def test_measure_computed_per_call(self):
        w = _CountingWeight(0.5, 3.0)
        with pytest.raises(TypeError):
            hash(w)
        lams = [brute_force_christoffel(w, n, 0.3) for n in (2, 4, 6)]
        assert w.calls == 3
        # an equal but distinct weight gives the same bits
        twin = _CountingWeight(0.5, 3.0)
        assert twin == w
        assert [brute_force_christoffel(twin, n, 0.3) for n in (2, 4, 6)] == lams
        (nodes, masses, shift), (tnodes, tmasses, tshift) = (
            orthopoly._discrete_measure(v, 8) for v in (w, twin))
        assert tmasses is not masses
        assert_array_equal(tmasses, masses)
        assert_array_equal(tnodes, nodes)
        assert tshift == shift
        assert w.calls == twin.calls == 4

    def test_changed_weight_is_read_afresh(self):
        w = _CountingWeight(0.5, 3.0)
        old_lam = brute_force_christoffel(w, 4, 0.3)
        old_alpha = build_recurrence(w, 10).alpha
        w.c = 8.0
        fresh = _CountingWeight(0.5, 8.0)
        lam = brute_force_christoffel(w, 4, 0.3)
        assert lam == brute_force_christoffel(fresh, 4, 0.3)
        assert lam != old_lam
        alpha = build_recurrence(w, 10).alpha
        assert_array_equal(alpha, build_recurrence(fresh, 10).alpha)
        assert not np.array_equal(alpha, old_alpha)


def _composite_rule(nu, support, n):
    """t^nu dt on [0, support] by 5 geometric panels of n nodes each:
    Gauss-Jacobi with t^nu built in on [0, support/16], Gauss-Legendre
    with t^nu in the masses on the doubling panels after it."""
    x, w = orthopoly._gauss_jacobi(n, nu)
    c = support / 16.0
    nodes, masses = [c * 0.5 * (1.0 + x)], [w * (0.5 * c) ** (nu + 1.0)]
    x, w = orthopoly._gauss_jacobi(n, 0.0)
    for lo, hi in ((c, 2 * c), (2 * c, 4 * c), (4 * c, 8 * c), (8 * c, support)):
        t = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
        nodes.append(t)
        masses.append(0.5 * (hi - lo) * w * t**nu)
    return np.concatenate(nodes), np.concatenate(masses)


def _built_by(experiment, monkeypatch):
    """Every (weight, degree) the experiment's default run builds."""
    built = []

    def recording(w, n):
        built.append((w, n))
        return build_recurrence(w, n)

    monkeypatch.setattr(lab, "build_recurrence", recording)
    getattr(lab, experiment)(lab.default_config(experiment))
    return built


def _in_gap(seq, n):
    # the window of hard_edge_limit: 0.9 of the way from p_n to p_{n+1}
    return seq.p(n) + 0.9 * (seq.p(n + 1) - seq.p(n))


class TestMeasureSize:
    """``build_recurrence``'s 2n + 40 nodes give alpha and beta within 1e-14,
    relative to max(1, max|alpha|), of a 5-panel build at 400 nodes per
    panel.  The measured values, in the order the cases are built:

    - hard_edge_limit (N = 10, 20, 40, then the [0, R] twin): 3.9e-16,
      2.8e-16, 5.6e-16, 1.0e-15;
    - approx_limit (plus, minus at n = 10, 20, 40): 3.3e-16, 8.3e-17,
      4.4e-16, 1.7e-16, 5.0e-16, 2.5e-16;
    - sandwich_chain (the weight at n = 31, then plus, minus at gamma =
      1.5, 1.2, 1.1): 3.3e-16, 7.8e-16, 3.1e-16, 6.1e-16, 4.4e-16,
      4.4e-16, 4.4e-16;
    - criterion 3 (nu = -0.5, 0, 0.5, 2 at degree 121): 8.9e-16, 7.8e-16,
      1.0e-15, 7.8e-16;
    - the Legendre weight at degree 160: 8.9e-16;
    - stress: 7.2e-16, 1.4e-15, 1.8e-15, 1.2e-15, 2.3e-15.

    With n + 40 nodes the stress cases at N = 80 and 150 are off by 9.3e-2
    and 3.3e-1, and the degree-160 nu = 37.3 case by 7.1e-8.
    """

    @staticmethod
    def _worst_error(cases):
        worst = []
        for w, n in cases:
            tab = build_recurrence(w, n)
            nodes, masses = _composite_rule(w.nu, w.quad_support, 400)
            log_masses = np.log(masses) + np.asarray(w.log_smooth(nodes), dtype=float)
            alpha, beta, _ = _lanczos_ref(nodes, np.exp(log_masses - log_masses.max()), 0.0, n)
            err = max(np.max(np.abs(tab.alpha - alpha)), np.max(np.abs(tab.beta - beta)))
            worst.append(err / max(1.0, np.max(np.abs(alpha))))
        return max(worst)

    @pytest.mark.parametrize("experiment", ["hard_edge_limit", "approx_limit", "sandwich_chain"])
    def test_every_default_experiment_weight(self, experiment, monkeypatch):
        assert self._worst_error(_built_by(experiment, monkeypatch)) <= 1e-14

    def test_criterion_3_and_legendre_weights(self):
        cases = [(ConditionalWeight(make_quadratic(), nu, 1e4), 121)
                 for nu in (-0.5, 0.0, 0.5, 2.0)]
        assert self._worst_error(cases + [(PowerWeight(0.0), 160)]) <= 1e-14

    def test_stress_weights(self):
        q, b = make_quadratic(), make_bessel_zero_squared(0.3)
        cases = [(ConditionalWeight(q, 0.0, _in_gap(q, 80)), 80),
                 (ConditionalWeight(q, -0.9, _in_gap(q, 150)), 150),
                 (ConditionalWeight(b, 0.3, _in_gap(b, 150)), 150),
                 (ConditionalWeight(q, 37.3, 1e4), 160),
                 (ApproxWeight("plus", 1.01, 160, -0.9), 160)]
        assert self._worst_error(cases) <= 1e-14


class TestKernels:
    def test_lowest_kernels_weight_one(self):
        tab = build_recurrence(PowerWeight(0.0), 8)
        t = np.linspace(0.1, 0.9, 5)
        assert_allclose(tab.kernel_hat(1, t, 0.3), np.ones_like(t), rtol=1e-13)
        # Khat_2(x, y) = 1 + 3 (2x-1)(2y-1)
        x, y = 0.2, 0.7
        assert_allclose(tab.kernel_hat(2, x, y),
                        1.0 + 3.0 * (2 * x - 1) * (2 * y - 1), rtol=1e-12)
        assert_allclose(tab.kernel_hat(2, 0.5, 0.5), 1.0, rtol=1e-12)

    def test_symmetry_and_scalar_shape(self):
        tab = build_recurrence(PowerWeight(0.5), 10)
        v = tab.kernel_hat(7, 0.3, 0.8)
        assert np.ndim(v) == 0
        assert_allclose(v, tab.kernel_hat(7, 0.8, 0.3), rtol=1e-13)

    def test_christoffel_darboux_identity(self):
        # Khat_n(x, y) = b_n [phi_n(x) phi_{n-1}(y) - phi_{n-1}(x) phi_n(y)] / (x - y)
        # ties the direct sum to alpha and beta.  The quotient loses
        # ~eps / (relative offset) to cancellation, which sets the tolerance.
        tab = build_recurrence(PowerWeight(0.0), 30)
        n, x = 25, 0.37
        for off in (1e-4, 1e-3, 1e-2, 0.1, 0.5):
            y = x * (1 + off)
            phi = tab.phi_table(n, np.array([x, y]))
            cd = tab.beta[n] * (phi[n, 0] * phi[n - 1, 1] - phi[n - 1, 0] * phi[n, 1]) / (x - y)
            scale = math.sqrt(tab.kernel_hat(n, x, x) * tab.kernel_hat(n, y, y))
            assert abs(tab.kernel_hat(n, x, y) - cd) <= 1e-15 / off * scale

    @pytest.mark.parametrize("nu", [0.0, 0.5])
    def test_reproducing_property(self, nu):
        # integral of Khat_n(x, s) Khat_n(s, y) s^nu ds = Khat_n(x, y),
        # via an independent Gauss-Jacobi rule
        tab = build_recurrence(PowerWeight(nu), 12)
        xj, wj = special.roots_jacobi(120, 0.0, nu)
        s = 0.5 * (1.0 + xj)
        w = wj * 0.5 ** (nu + 1.0)
        for x, y in [(0.3, 0.3), (0.15, 0.85)]:
            left = tab.kernel_hat(10, x, s)
            right = tab.kernel_hat(10, s, y)
            assert_allclose(np.sum(w * left * right), tab.kernel_hat(10, x, y), rtol=1e-10)

    def test_norm_kernel_folds_weight(self):
        gamma = 1.3
        w = ApproxWeight("plus", gamma, 4, 0.5)
        tab = build_recurrence(w, 8)
        x, y = 0.2, 0.6
        fac = math.exp(0.5 * (w.log_density(x) + w.log_density(y)))
        assert_allclose(tab.kernel_norm(6, x, y), fac * tab.kernel_hat(6, x, y), rtol=1e-13)
        with pytest.raises(DomainError, match="vanishes at t=0;"):
            tab.kernel_norm(6, 0.0, 0.5)
        with pytest.raises(DomainError, match="infinite at t=0;"):
            build_recurrence(PowerWeight(-0.5), 4).kernel_norm_grid(3, [0.5], [0.2, 0.0])
        # past the minus weight's quad_support, inside its support [0, 1]
        minus = build_recurrence(ApproxWeight("minus", 1.4, 5, 0.0), 6)
        with pytest.raises(DomainError, match="vanishes at t=0.9;"):
            minus.kernel_norm(3, 0.9, 0.1)

    def test_grid_matches_pointwise(self):
        tab = build_recurrence(PowerWeight(0.0), 10)
        xs = np.array([0.2, 0.5, 0.9])
        grid = tab.kernel_hat_grid(8, xs, xs)
        for i, x in enumerate(xs):
            for j, y in enumerate(xs):
                assert_allclose(grid[i, j], tab.kernel_hat(8, x, y), rtol=1e-13)


def _kernel_hat_mp(mpmath, tab, n, x, y):
    """Khat_n(x, y) as a 40-digit direct sum over the table's alpha, beta."""
    with mpmath.workdps(40):
        a = [mpmath.mpf(float(v)) for v in tab.alpha]
        b = [mpmath.mpf(float(v)) for v in tab.beta]

        def rows(t):
            t = mpmath.mpf(t)
            out = [mpmath.mpf(1), (t - a[0]) / b[1]]
            for k in range(1, n - 1):
                out.append(((t - a[k]) * out[k] - b[k] * out[k - 1]) / b[k + 1])
            return out

        return mpmath.exp(-mpmath.mpf(tab.log_mu0)) * mpmath.fdot(rows(x), rows(y))


_SYM_TAB = build_recurrence(PowerWeight(0.5), 30)


class TestKernelAccuracy:
    @pytest.mark.parametrize("nu", [0.0, 2.0])
    def test_direct_sum_matches_mpmath(self, nu):
        # the same alpha, beta summed at 40 digits: off the diagonal and on
        # it, float64 stays within 5e-13 of the kernel scale at degree 121
        mpmath = pytest.importorskip("mpmath")
        n = 121
        tab = build_recurrence(ConditionalWeight(make_quadratic(), nu, 1e4), n)
        for x in (2.1e-4, 3e-3, 0.3):
            kxx = _kernel_hat_mp(mpmath, tab, n, x, x)
            for off in (0.0, 1e-7, 1e-5, 1e-3, 1e-2, 0.1, 0.5):
                y = x * (1 + off)
                ref = _kernel_hat_mp(mpmath, tab, n, x, y)
                scale = float(mpmath.sqrt(kxx * _kernel_hat_mp(mpmath, tab, n, y, y)))
                assert abs(tab.kernel_hat(n, x, y) - float(ref)) <= 5e-13 * scale

    @given(n=st.integers(min_value=1, max_value=30),
           x=st.floats(min_value=-0.5, max_value=1.5),
           y=st.floats(min_value=-0.5, max_value=1.5))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_bit_for_bit(self, n, x, y):
        assert _SYM_TAB.kernel_hat(n, x, y) == _SYM_TAB.kernel_hat(n, y, x)

    def test_nonfinite_or_overflowing_points_raise(self):
        tab = build_recurrence(PowerWeight(0.0), 8)
        for x, y in ((math.nan, 0.4), (0.3, math.inf), (0.3, -math.inf)):
            with pytest.raises(DomainError):
                tab.kernel_hat(5, x, y)
        with pytest.raises(PrecisionFailure):
            tab.kernel_hat(5, 1e200, 0.4)
        with pytest.raises(PrecisionFailure):
            tab.kernel_hat_grid(5, [0.2, 1e200], [0.4])
        # phi_0 is a constant, but it rejects a non-finite point like phi_j
        half = build_recurrence(PowerWeight(0.5), 8)
        for j in (0, 3):
            with pytest.raises(DomainError):
                half.phi(j, math.nan)
        # the weight factor checks its points before taking log w
        with pytest.raises(DomainError, match="support"):
            half.kernel_norm(5, -1.0, 0.4)
        with pytest.raises(DomainError, match="finite"):
            half.kernel_norm(5, math.nan, 0.4)


class TestChristoffel:
    def test_reciprocal_of_diagonal(self):
        tab = build_recurrence(PowerWeight(0.5), 10)
        x = 0.4
        assert_allclose(tab.christoffel(7, x), 1.0 / tab.kernel_hat(7, x, x), rtol=1e-14)

    def test_decreasing_in_degree(self):
        tab = build_recurrence(PowerWeight(0.0), 20)
        vals = [tab.christoffel(n, 0.3) for n in range(1, 21)]
        assert_array_less(np.diff(vals), np.zeros(19))

    @pytest.mark.parametrize("nu", [-0.5, 0.0, 0.5, 2.0])
    def test_brute_force_agrees(self, nu):
        seq = make_quadratic()
        w = ConditionalWeight(seq, nu, 1e3)
        tab = build_recurrence(w, 8)
        for n in (2, 4, 6):
            assert_allclose(tab.christoffel(n, 0.3),
                            brute_force_christoffel(w, n, 0.3), rtol=1e-8)

    def test_brute_force_monotone_in_weight(self):
        # a pointwise larger weight can only enlarge the minimized integral
        seq = make_quadratic()
        gamma, R = 1.2, 1e3
        n_val = seq.count_upto(R)
        w = ConditionalWeight(seq, 0.0, R)
        plus = ApproxWeight("plus", gamma, n_val, 0.0)
        lam_w = brute_force_christoffel(w, 4, 0.3)
        lam_plus = brute_force_christoffel(plus, 4, 0.3)
        assert lam_w <= lam_plus * (1 + 1e-10)

    def test_ill_conditioned_moment_system_refused(self):
        w = ConditionalWeight(make_quadratic(), 0.0, 1e4)
        with pytest.raises(PrecisionFailure):
            brute_force_christoffel(w, 8, 0.3)


class TestOrderingAndGap:
    def test_smaller_weight_larger_diagonal(self):
        # pointwise omega_minus <= w <= omega_plus reverses on the kernel diagonal
        seq = make_quadratic()
        gamma, R = 1.2, 1e3
        n_val = seq.count_upto(R)
        w = ConditionalWeight(seq, 0.0, R)
        tw = build_recurrence(w, n_val)
        tp = build_recurrence(ApproxWeight("plus", gamma, n_val, 0.0), n_val)
        tm = build_recurrence(ApproxWeight("minus", gamma, n_val, 0.0), n_val)
        x = np.linspace(0.5, 20.0, 12) / (math.pi**2 * n_val**2)
        kp = tp.kernel_hat(n_val, x, x)
        kw = tw.kernel_hat(n_val, x, x)
        km = tm.kernel_hat(n_val, x, x)
        assert np.all(kp <= kw) and np.all(kw <= km)

    @given(nu=st.floats(min_value=-0.9, max_value=3.0, exclude_min=True),
           gamma=st.floats(min_value=1.05, max_value=5.0),
           n=st.integers(min_value=1, max_value=40),
           d=st.integers(min_value=1, max_value=40),
           x=st.floats(min_value=1e-3, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_dominated_weight_has_the_larger_diagonal(self, nu, gamma, n, d, x):
        # ApproxWeight("plus") = t^nu exp(-n V(t/gamma)) <= t^nu pointwise
        # since V >= 0, so its Christoffel function is the smaller and its
        # Khat_d(x, x) the larger.  Random draws from these ranges kept a
        # relative margin above 8e-3, so the 1e-12 slack covers rounding only
        plus = build_recurrence(ApproxWeight("plus", gamma, n, nu), d).kernel_hat(d, x, x)
        bare = build_recurrence(PowerWeight(nu), d).kernel_hat(d, x, x)
        assert plus >= bare * (1.0 - 1e-12)

    @given(nu=st.floats(min_value=-0.9, max_value=3.0, exclude_min=True),
           R=st.floats(min_value=1.0, max_value=1e4),
           gaps=st.lists(st.floats(min_value=1e-2, max_value=10.0), min_size=1, max_size=30),
           c=st.floats(min_value=1.001, max_value=3.0),
           d=st.integers(min_value=1, max_value=30),
           x=st.floats(min_value=1e-3, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_conditional_weight_on_larger_points_has_the_smaller_diagonal(
            self, nu, R, gaps, c, d, x):
        # every p_n > R, so each factor (1 - R t / p_n)^2 of the weight
        # grows when p_n becomes c p_n: the weight on p is pointwise the
        # smaller and its Khat_d(x, x) the larger.  200 random draws from
        # these ranges kept a relative margin above 3e-3, and corners of
        # them (c = 1.001, 30 far points, x = 1e-3) above 3e-6, so the 1e-12
        # slack covers rounding only
        p = R * (1.0 + np.cumsum(gaps))
        small, large = (build_recurrence(ConditionalWeight(make_sampled(q), nu, R), d)
                        .kernel_hat(d, x, x) for q in (p, c * p))
        assert small >= large * (1.0 - 1e-12)

    def test_gap_bound_nonnegative_slack(self):
        seq = make_quadratic()
        gamma, R = 1.2, 1e3
        n_val = seq.count_upto(R)
        w = ConditionalWeight(seq, 0.0, R)
        tw = build_recurrence(w, n_val)
        tp = build_recurrence(ApproxWeight("plus", gamma, n_val, 0.0), n_val)
        scale = 1.0 / (math.pi**2 * n_val**2)
        for x, y in [(0.7, 3.0), (2.0, 11.0)]:
            lhs, rhs = lubinsky_gap(tw, tp, n_val, x * scale, y * scale)
            assert lhs <= rhs * (1 + 1e-10)
        # grid input: one broadcast call equals the elementwise scalar calls
        pts = np.linspace(0.5, 20.0, 6) * scale
        lhs, rhs = lubinsky_gap(tw, tp, n_val, pts[:, None], pts[None, :])
        assert np.all(lhs <= rhs * (1 + 1e-10))
        kd = tw.kernel_hat(n_val, pts, pts)
        assert_allclose(kd, [tw.kernel_hat(n_val, t, t) for t in pts], rtol=1e-15, atol=0)
        # lhs and rhs are differences of kernel values, so they inherit the
        # 1e-15 relative to the kernel scale, not to themselves: by
        # Cauchy-Schwarz both are at most 4 Khat(x,x) Khat(y,y)
        pointwise = np.array([[lubinsky_gap(tw, tp, n_val, x, y) for y in pts] for x in pts])
        tol = 4e-15 * np.outer(kd, kd)
        assert np.all(np.abs(lhs - pointwise[..., 0]) <= tol)
        assert np.all(np.abs(rhs - pointwise[..., 1]) <= tol)

    def test_gap_builds_four_tables(self, monkeypatch):
        # one phi table per (table, point set): small(x), small(y), big(x),
        # big(y) for distinct x and y; two when y holds x's points in
        # another shape, as for a broadcast grid
        tab_a = build_recurrence(PowerWeight(0.0), 10)
        tab_b = build_recurrence(PowerWeight(0.5), 10)
        calls = []
        build = RecurrenceTable._phi_unnormalized

        def counting(self, n, t):
            calls.append(n)
            return build(self, n, t)

        monkeypatch.setattr(RecurrenceTable, "_phi_unnormalized", counting)
        pts = np.linspace(0.1, 0.9, 5)
        lubinsky_gap(tab_a, tab_b, 8, pts[:, None], pts[None, :])
        assert len(calls) == 2
        calls.clear()
        lubinsky_gap(tab_a, tab_b, 8, pts[:, None], pts[None, ::-1])
        assert len(calls) == 4
        calls.clear()
        tab_a.christoffel(8, pts)
        tab_a.kernel_hat(8, pts, pts)
        assert len(calls) == 2

    def test_gap_degenerate_pair(self):
        # comparing a table with itself collapses both sides to zero
        tab = build_recurrence(PowerWeight(0.0), 10)
        lhs, rhs = lubinsky_gap(tab, tab, 8, 0.3, 0.6)
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert abs(rhs) < 1e-12


class TestRescalings:
    @given(c=st.floats(min_value=0.5, max_value=2.0),
           d=st.floats(min_value=0.5, max_value=2.0))
    @settings(max_examples=15, deadline=None)
    def test_scaled_weight_identities(self, c, d):
        # for w_bar(t) = d w(c t): phi_i(t; w_bar) = sqrt(c/d) phi_i(c t; w),
        # K_n(x, y; w_bar) = c K_n(c x, c y; w),
        # Khat_n(x, y; w_bar) = (c/d) Khat_n(c x, c y; w)
        n = 6
        base = PowerWeight(0.5)
        tab = build_recurrence(base, n)
        scaled = build_recurrence(ScaledWeight(base, c, d), n)
        t = np.array([0.11, 0.37, 0.72]) / c
        for j in (0, 2, 5):
            assert_allclose(scaled.phi(j, t), math.sqrt(c / d) * tab.phi(j, c * t),
                            rtol=5e-11)
        x, y = 0.21 / c, 0.55 / c
        assert_allclose(scaled.kernel_norm(n, x, y),
                        c * tab.kernel_norm(n, c * x, c * y), rtol=5e-11)
        assert_allclose(scaled.kernel_hat(n, x, y),
                        (c / d) * tab.kernel_hat(n, c * x, c * y), rtol=5e-11)
