"""Tests for the determinantal sampler of the hard-edge process.

The discretized kernel is checked against direct quadrature of the
diagonal and against the closed-form gap probability, and the sampler
against its exact first moment (mean count = trace), against the exact
count law, and draw for draw against a QR-based reference sampler, using
fixed seeds so every run sees the same draws.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from bessellab import dpp
from bessellab.dpp import (
    CountStats,
    DiscretizedKernel,
    SampleConfig,
    _rng,
    count_stats,
    exact_count_law,
    load_sample,
    nystrom,
    sample,
    sample_many,
    save_sample,
)
from bessellab.errors import DiscretizationFailure, DomainError, PrecisionFailure
from bessellab.sequences import make_sampled
from bessellab.specfun import bessel_kernel_diag


def _qr_sample_points(kern, seed):
    # Reference projection sampler, O(m k^3): eliminate the chosen row by a
    # pivot column, drop that column and re-orthonormalize the rest by QR.
    # It consumes the same uniforms as dpp.sample.
    rng = _rng(seed)
    keep = rng.random(kern.eigenvalues.size) < kern.eigenvalues
    V = kern.eigenvectors[:, keep]
    chosen = []
    while V.shape[1] > 0:
        p = np.einsum("ij,ij->i", V, V)
        p[chosen] = 0.0
        i = min(int(np.searchsorted(np.cumsum(p / p.sum()), rng.random())), p.size - 1)
        chosen.append(i)
        j = int(np.argmax(np.abs(V[i])))
        V = np.delete(V - np.outer(V[:, j], V[i] / V[i, j]), j, axis=1)
        if V.shape[1]:
            V, _ = np.linalg.qr(V)
    return np.sort(kern.nodes[chosen])


def _kernel_from_columns(V):
    # a DiscretizedKernel whose "eigenvectors" are the given columns, all kept
    m, k = V.shape
    return DiscretizedKernel(nu=0.0, T=10.0, m=m, nodes=np.linspace(1.0, 9.0, m),
                             weights=np.ones(m), matrix=V @ V.T,
                             eigenvalues=np.ones(k), eigenvectors=V)


class TestNystrom:
    def test_matrix_symmetric_psd(self):
        kern = nystrom(0.0, 100.0, m=128)
        assert_allclose(kern.matrix, kern.matrix.T, rtol=0, atol=1e-14)
        assert kern.eigenvalues.min() >= 0.0
        assert kern.eigenvalues.max() <= 1.0

    def test_trace_equals_eigenvalue_sum(self):
        kern = nystrom(0.0, 100.0, m=128)
        assert_allclose(kern.trace, float(np.sum(kern.eigenvalues)), rtol=1e-12)

    def test_trace_against_direct_quadrature(self):
        # integral of K(x, x) dx on (0, T], via the same square-root
        # substitution but scipy's adaptive rule
        T = 100.0
        ref, err = integrate.quad(
            lambda u: 2.0 * T * u * bessel_kernel_diag(0.0, T * u * u),
            0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=200)
        kern = nystrom(0.0, T, m=256)
        assert err < 1e-9
        assert_allclose(kern.trace, ref, rtol=1e-8)

    def test_trace_grows_with_window(self):
        t1 = nystrom(0.0, 100.0, m=128).trace
        t2 = nystrom(0.0, 400.0, m=256).trace
        # mean count scales like sqrt(T)/pi
        assert t2 > t1
        assert_allclose(t2 / t1, 2.0, rtol=0.15)

    def test_nodes_cluster_near_origin(self):
        kern = nystrom(0.0, 100.0, m=128)
        assert np.sum(kern.nodes < 1.0) > np.sum(kern.nodes > 99.0)

    @pytest.mark.parametrize("s", [2.0, 5.0, 10.0])
    def test_gap_probability_closed_form(self, s):
        # det(I - K) on (0, s) = exp(-s/4) for nu = 0 (Bornemann 2010)
        lam = nystrom(0.0, s, 128).eigenvalues
        assert abs(np.prod(1.0 - lam) - math.exp(-s / 4.0)) <= 1e-12

    def test_guards(self):
        with pytest.raises(ValueError):
            nystrom(0.0, 100.0, m=32)
        with pytest.raises(ValueError):
            nystrom(0.0, -5.0)


class TestSampling:
    def test_fixed_seed_reproducible(self):
        kern = nystrom(0.0, 100.0, m=128)
        a = sample(kern, 7)
        b = sample(kern, 7)
        assert_allclose(a.points, b.points, rtol=0, atol=0)
        c = sample(kern, 8)
        assert a.points.shape != c.points.shape or not np.allclose(a.points, c.points)

    def test_points_sorted_inside_window(self):
        kern = nystrom(0.0, 100.0, m=128)
        cfg = sample(kern, 3)
        assert np.all(np.diff(cfg.points) > 0)
        assert cfg.points.min() > 0.0 and cfg.points.max() <= 100.0
        assert cfg.T == 100.0 and cfg.nu == 0.0 and cfg.m == 128

    def test_master_seed_spawns_distinct_streams(self):
        kern = nystrom(0.0, 100.0, m=128)
        runs = sample_many(kern, 4, 123)
        counts = {len(r.points) for r in runs}
        pts = [tuple(np.round(r.points, 9)) for r in runs]
        assert len(set(pts)) == 4 or len(counts) > 1
        again = sample_many(kern, 4, 123)
        for r, s in zip(runs, again):
            assert_allclose(r.points, s.points, rtol=0, atol=0)

    def test_mean_count_matches_trace(self):
        # first moment of a determinantal sample equals the kernel trace;
        # 200 fixed-seed draws keep the Monte Carlo error ~0.06
        kern = nystrom(0.0, 100.0, m=128)
        runs = sample_many(kern, 200, 2026)
        counts = np.array([len(r.points) for r in runs], dtype=float)
        se = counts.std(ddof=1) / math.sqrt(len(counts))
        assert abs(counts.mean() - kern.trace) < 3.5 * se + 1e-9

    @pytest.mark.parametrize("nu, T, m, n_seeds", [
        (0.0, 1e4, 512, 50), (0.5, 100.0, 128, 100), (2.0, 1e3, 256, 100)])
    def test_matches_qr_reference_sampler(self, nu, T, m, n_seeds):
        kern = nystrom(nu, T, m)
        for seed in range(n_seeds):
            assert np.array_equal(sample(kern, seed).points, _qr_sample_points(kern, seed))

    def test_vanished_marginals_raise(self):
        # two kept columns that both live on node 0: after the first draw no
        # conditional mass is left for the second
        V = np.zeros((3, 2))
        V[0] = 1.0
        with pytest.raises(PrecisionFailure, match="vanished"):
            sample(_kernel_from_columns(V), 0)

    def test_negative_marginal_raises(self):
        # columns of norm ~2.5e4 put the marginals at ~1e8, where the
        # roundoff left after the last draw is ~1e-8 instead of the ~1e-16
        # of a unit-norm kernel; at seed 0 node 2 ends at -7.5e-9
        V = np.array([[20357.0, 14860.0], [4038.0, -13653.0],
                      [-50.0, 7418.0], [-14558.0, 4465.0]])
        with pytest.raises(PrecisionFailure, match="below"):
            sample(_kernel_from_columns(V), 0)

    def test_single_large_column_samples(self):
        # one column of norm ~1e8: its squares exceed 2^53, but in
        # eigen-coordinates g = w_i / sqrt(w_i^2) rounds to exactly 1, so
        # whichever node is drawn the update leaves an exact 0 on the other
        V = np.array([[97964705.0], [96300487.0]])
        cfg = sample(_kernel_from_columns(V), 0)
        assert cfg.points.size == 1

    def test_zero_uniform_skips_nodes_of_zero_marginal(self, monkeypatch):
        # every uniform exactly 0: each draw must take the first node of
        # positive marginal, never node 0, whose row of the kernel is zero
        class Zeros:
            def random(self, n):
                return np.zeros(n)

        monkeypatch.setattr(dpp, "_rng", lambda seed: Zeros())
        V = np.zeros((4, 2))
        V[1:] = np.linalg.qr(np.array([[1.0, 2.0], [3.0, -1.0], [2.0, 5.0]]))[0]
        kern = _kernel_from_columns(V)
        cfg = sample(kern, 0)
        assert cfg.points.size == 2 and kern.nodes[0] not in cfg.points

    @pytest.mark.parametrize("seed", [0, 1, 20260825])
    def test_batched_uniforms_match_scalar_draws(self, seed):
        # sample draws its k chain-rule uniforms with one random(k) call
        # after the random(n) of the eigenvalue thinning; the points stay
        # those of k scalar draws only while the generator returns the
        # same values either way
        for n in (0, 1, 7, 127, 512):
            for k in (1, 2, 5, 33):
                batched, scalar = _rng(seed), _rng(seed)
                batched.random(n)
                scalar.random(n)
                drawn = batched.random(k)
                assert np.array_equal(drawn, [scalar.random() for _ in range(k)])
                assert batched.random() == scalar.random()

    def test_count_upto(self):
        cfg = SampleConfig(points=np.array([1.0, 5.0, 20.0]), seed=0, T=50.0, nu=0.0, m=64)
        assert cfg.count_upto(5.0) == 2
        assert cfg.count_upto(0.5) == 0


@pytest.fixture(scope="module")
def kern1000():
    return nystrom(0.0, 1000.0, m=256)


@pytest.fixture(scope="module")
def runs(kern1000):
    return sample_many(kern1000, 120, 99)


class TestCountStats:
    def test_rows_and_targets(self, runs):
        stats = count_stats(runs, [100.0, 1000.0])
        assert isinstance(stats, CountStats)
        rows = stats.rows()
        assert len(rows) == 2
        assert_allclose(stats.target_mean, np.sqrt([100.0, 1000.0]) / math.pi, rtol=1e-12)
        assert stats.n_samples == 120
        assert np.all(stats.var > 0)
        assert stats.max_growth_residual >= 0.0

    def test_variance_grows_with_threshold(self, runs):
        stats = count_stats(runs, [100.0, 1000.0])
        assert stats.var[1] > stats.var[0]

    def test_monte_carlo_matches_exact_law(self, runs, kern1000):
        thr = [10.0, 100.0, 1000.0]
        stats = count_stats(runs, thr)
        mean, var, _ = exact_count_law(kern1000, thr)
        assert np.all(np.abs(stats.mean - mean) <= 5.0 * stats.se_mean)
        assert np.all(np.abs(stats.var - var) <= 5.0 * stats.se_var)

    def test_exact_law_full_window_reuses_spectrum(self, kern1000):
        mean, var, slope = exact_count_law(kern1000, [100.0, kern1000.T])
        assert mean[1] == kern1000.trace
        lam = kern1000.eigenvalues
        assert var[1] == np.sum(lam * (1.0 - lam))
        assert 0.0 < mean[0] < mean[1] and 0.0 < var[0] < var[1]
        assert slope > 0.0
        with pytest.raises(ValueError):
            exact_count_law(kern1000, [2000.0])

    def test_exact_law_empty_window(self, kern1000):
        # below the first node (~5e-7 here) the window holds no point
        mean, var, slope = exact_count_law(kern1000, [1e-12, kern1000.T])
        assert mean[0] == 0.0 and var[0] == 0.0
        assert mean[1] == kern1000.trace
        assert math.isnan(slope)

    def test_exact_law_checks_window_spectrum(self):
        # a sub-window eigenvalue of 1.5 is an error, not a value to clip to 1
        def kernel(diag):
            matrix = np.diag(diag)
            lam, vec = np.linalg.eigh(matrix)
            return DiscretizedKernel(nu=0.0, T=4.0, m=3, nodes=np.array([1.0, 2.0, 3.0]),
                                     weights=np.ones(3), matrix=matrix, eigenvalues=lam,
                                     eigenvectors=vec)

        with pytest.raises(DiscretizationFailure):
            exact_count_law(kernel([1.5, 0.5, 0.2]), [2.5])
        mean, var, _ = exact_count_law(kernel([0.5, 0.25, 1.5]), [2.5])
        assert mean[0] == 0.75 and var[0] == 0.4375

    def test_threshold_validation(self, runs):
        with pytest.raises(ValueError):
            count_stats(runs, [2000.0])
        with pytest.raises(ValueError):
            count_stats([], [10.0])

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_nonpositive_or_nonfinite_threshold_rejected(self, runs, kern1000, bad):
        with pytest.raises(DomainError):
            count_stats(runs, [10.0, bad])
        with pytest.raises(DomainError):
            exact_count_law(kern1000, [10.0, bad])

    def test_mixed_windows_rejected(self, runs):
        other = sample(nystrom(0.0, 100.0, m=128), 1)
        with pytest.raises(ValueError):
            count_stats(list(runs) + [other], [50.0])

    def test_array_form_matches_per_sample_loop(self, runs):
        # counts and the worst growth residual equal the per-sample
        # count_upto and PointSequence.growth_residual loop bit for bit,
        # with samples of fewer than 3 points skipped
        short = [SampleConfig(points=pts, seed=0, T=1000.0, nu=0.0, m=256)
                 for pts in (np.empty(0), np.array([3.0]), np.array([3.0, 40.0]))]
        batch = short + list(runs)
        thr = [10.0, 100.0, 1000.0]
        counts = np.array([[s.count_upto(t) for t in thr] for s in batch], dtype=float)
        worst = 0.0
        for s in batch:
            if s.points.size >= 3:
                n = np.arange(3, s.points.size + 1)
                r = make_sampled(s.points).growth_residual(n)
                worst = max(worst, float(np.max(np.abs(r))))
        stats = count_stats(batch, thr)
        assert np.array_equal(stats.mean, counts.mean(axis=0))
        assert np.array_equal(stats.var, counts.var(axis=0, ddof=1))
        assert stats.max_growth_residual == worst > 0.0
        assert count_stats(short, thr).max_growth_residual == 0.0


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        kern = nystrom(0.5, 100.0, m=128)
        cfg = sample(kern, 11)
        path = tmp_path / "sample.txt"
        save_sample(cfg, path)
        back = load_sample(path)
        assert_allclose(back.points, cfg.points, rtol=0, atol=0)
        assert back.seed == 11 and back.T == 100.0 and back.nu == 0.5 and back.m == 128

    def test_config_validates_ordering(self):
        with pytest.raises(ValueError):
            SampleConfig(points=np.array([2.0, 1.0]), seed=0, T=10.0, nu=0.0, m=64)
