"""Tests for the determinantal sampler of the hard-edge process.

The discretized kernel is checked against direct quadrature of the
diagonal and against the closed-form gap probability, and the sampler
against its exact first moment (mean count = trace), against the exact
count law, and draw for draw against a QR-based reference sampler, using
fixed seeds so every run sees the same draws.
"""

import hashlib
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate, special

from bessellab import dpp, specfun
from bessellab.dpp import (
    _BLOCK,
    CountStats,
    DiscretizedKernel,
    Samples,
    _rng,
    count_stats,
    exact_count_law,
    gap_probability,
    nystrom,
    sample,
    sample_many,
)
from bessellab.errors import DiscretizationFailure, DomainError, PrecisionFailure
from bessellab.sequences import make_sampled


def _diag_cd(nu, x):
    # K(x, x) in closed form from scipy's jv, independent of specfun's rows:
    # [J_nu^2 + J_{nu+1}^2 - (2 nu / sqrt x) J_nu J_{nu+1}] / 4 at sqrt x
    u = np.sqrt(x)
    j, j1 = special.jv(nu, u), special.jv(nu + 1.0, u)
    return 0.25 * (j * j + j1 * j1 - 2.0 * nu / u * j * j1)


def _kernel_cd(nu, x, y):
    # the Christoffel-Darboux form [J(sqrt y) sqrt(x) J1(sqrt x)
    # - J(sqrt x) sqrt(y) J1(sqrt y)] / (2 (x - y)) from scipy's jv, with
    # _diag_cd where x == y
    sx, sy = np.sqrt(x), np.sqrt(y)
    jx, jy = special.jv(nu, sx), special.jv(nu, sy)
    ex, ey = sx * special.jv(nu + 1.0, sx), sy * special.jv(nu + 1.0, sy)
    with np.errstate(divide="ignore", invalid="ignore"):
        off = 0.5 * (jy * ex - jx * ey) / (x - y)
    return np.where(x == y, _diag_cd(nu, x), off)


def _qr_sample_points(kern, seed):
    # Reference projection sampler, O(m k^3): eliminate the chosen row by a
    # pivot column, drop that column and re-orthonormalize the rest by QR.
    # It consumes the same uniforms as dpp.sample.
    # The eigenvectors belong to the last eigenvalues; the zeros before
    # them are never kept.
    rng = _rng(seed)
    keep = rng.random(kern.eigenvalues.size) < kern.eigenvalues
    V = kern.eigenvectors[:, keep[keep.size - kern.eigenvectors.shape[1]:]]
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


def _derived_seeds(n, master_seed):
    # the seeds sample_many derives, as Python ints
    return np.random.SeedSequence(master_seed).generate_state(n, dtype=np.uint64).tolist()


def _split(samples):
    # the batch's samples, one array of points each
    return np.split(samples.points, samples.offsets[1:-1])


def _kernel_from_columns(V):
    # a DiscretizedKernel whose "eigenvectors" are the given columns, all kept
    m, k = V.shape
    return DiscretizedKernel(nu=0.0, T=10.0, m=m, nodes=np.linspace(1.0, 9.0, m),
                             weights=np.ones(m), factor=V,
                             eigenvalues=np.ones(k), eigenvectors=V, eig_range=(1.0, 1.0))


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
            lambda u: 2.0 * T * u * _diag_cd(0.0, T * u * u),
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

    @pytest.mark.parametrize("s", [2.0, 5.0, 10.0, 40.0])
    def test_gap_probability_closed_form(self, s):
        # det(I - K) on (0, s) = exp(-s/4) for nu = 0 (Bornemann 2010), and
        # exp(-s/4) det[I_{j-k}(sqrt s)]_{j,k=1..nu} for integer nu
        # (Forrester & Hughes, J. Math. Phys. 35, 1994), with I_{j-k} at 30
        # digits: the worst relative difference measured was 1.9e-15
        assert abs(gap_probability(nystrom(0.0, s, 128), s) - math.exp(-s / 4.0)) <= 1e-12
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            r = mpmath.sqrt(s)
            for nu in (1, 2, 3):
                ref = mpmath.exp(-s / 4) * mpmath.det(mpmath.matrix(
                    [[mpmath.besseli(j - k, r) for k in range(nu)] for j in range(nu)]))
                got = gap_probability(nystrom(float(nu), s, 128), s)
                assert abs(got - ref) <= 1e-13 * ref

    def test_guards(self):
        with pytest.raises(ValueError):
            nystrom(0.0, 100.0, m=32)
        with pytest.raises(ValueError):
            nystrom(0.0, -5.0)


# (nu, T, m) of the factor's accuracy checks, each with the largest
# |B B^T - sqrt(w) K sqrt(w)| allowed against the Christoffel-Darboux form
# _kernel_cd: about twice what the earlier factor on a Gauss rule in s
# measured (4.4e-15, 1.4e-15, 1.1e-15, 7.0e-15, 1.8e-14 and 4.8e-14).  The
# Neumann rows measure 4.4e-15, 1.3e-15, 9.4e-16, 6.8e-15, 2.0e-14 and
# 1.3e-14, each on a pair of neighbouring nodes, where the closed form
# cancels
_FACTOR_SETS = [((0.0, 1e4, 512), 1e-14), ((2.0, 1e3, 256), 3e-15),
                ((0.5, 100.0, 128), 3e-15), ((-0.5, 1e4, 512), 1.5e-14),
                ((37.3, 1e4, 512), 4e-14), ((-0.9, 1e4, 512), 1e-13)]
_FACTOR_IDS = ["nu%g-T%g-m%d" % p for p, _ in _FACTOR_SETS]


class TestFactor:
    @pytest.mark.parametrize("params, bound", _FACTOR_SETS, ids=_FACTOR_IDS)
    def test_matches_closed_form_kernel(self, params, bound):
        kern = nystrom(*params)
        x, sw = kern.nodes, np.sqrt(kern.weights)
        dense = sw[:, None] * _kernel_cd(params[0], x[:, None], x[None, :]) * sw[None, :]
        assert kern.factor.shape == (params[2], specfun._terms(params[0], x[-1]))
        assert np.max(np.abs(kern.matrix - dense)) <= bound
        V = kern.eigenvectors
        assert np.max(np.abs(V.T @ V - np.eye(V.shape[1]))) <= 5e-15
        assert np.all(kern.eigenvalues[:params[2] - V.shape[1]] == 0.0)

    @pytest.mark.parametrize("params, bound", [(p, 1e-15) for p, _ in _FACTOR_SETS[:-1]]
                             + [(_FACTOR_SETS[-1][0], 5e-13)], ids=_FACTOR_IDS)
    def test_doubling_q_moves_little(self, params, bound):
        # self-convergence in the number of terms: 2N rows against N.  The
        # bounds are those of the earlier rule in s; the products of the
        # Neumann rows measure bit-identical at every set
        kern = nystrom(*params)
        B2 = dpp._factor(params[0], kern.nodes, kern.weights, 2 * kern.factor.shape[1])
        assert np.max(np.abs(B2 @ B2.T - kern.matrix)) <= bound

    def test_more_nodes_in_s_than_in_x(self):
        # N = 70 terms > m = 64 nodes: the spectrum has no zero padding and
        # every eigenvector is kept by some sample; the sampler still
        # matches the QR reference
        kern = nystrom(0.0, 1e4, 64)
        assert kern.factor.shape == (64, 70) and kern.eigenvectors.shape == (64, 64)
        assert np.max(np.abs(kern.eigenvectors.T @ kern.eigenvectors - np.eye(64))) <= 5e-15
        for seed in range(20):
            assert np.array_equal(sample(kern, seed).points, _qr_sample_points(kern, seed))

    @pytest.mark.parametrize("T, error", [(1e300, DiscretizationFailure),
                                          (8.98846567431158e307, PrecisionFailure)])
    def test_huge_q_raises_before_the_factor(self, monkeypatch, T, error):
        # the number of terms N is about 5e149 at T = 1e300; the guard
        # N > 2m raises before B is allocated.  Near the float maximum the
        # masses overflow first
        def never(*args):
            raise AssertionError("the factor was built")

        monkeypatch.setattr(dpp, "_factor", never)
        with pytest.raises(error):
            nystrom(0.0, T, 64)

    @pytest.mark.parametrize("nu", [0.0, -0.25])
    def test_failures_match_the_dense_build(self, nu):
        # the (T, m) at which the closed-form build with the m x m eigh
        # raised DiscretizationFailure at nu = 0, recorded before it was
        # replaced; every other (T, m) of the grid succeeded there and must
        # here.  On the Gauss-Jacobi rule in u, nu = -0.25 fails at the
        # same (T, m) as nu = 0
        fails = {(3e4, 64), (1e5, 64), (1e5, 128), (1e6, 64), (1e6, 128), (1e6, 256)}
        for T in (1e2, 1e4, 3e4, 1e5, 1e6):
            for m in (64, 128, 256):
                if (T, m) in fails:
                    with pytest.raises(DiscretizationFailure):
                        nystrom(nu, T, m)
                else:
                    assert nystrom(nu, T, m).eig_range[1] <= 1.0 + dpp.EIG_TOL

    def test_negative_order_converges_at_ordinary_sizes(self):
        # on Gauss-Legendre in u, K(x, x) ~ x^nu at 0 left (nu, T) =
        # (-0.25, 1e3) raising at m = 256 and the top eigenvalue 7.7e-9
        # above 1 at m = 1024; the rule for u^a resolves it
        small, large = nystrom(-0.25, 1e3, 256), nystrom(-0.25, 1e3, 1024)
        assert abs(small.trace - large.trace) <= 1e-12
        assert small.eig_range[1] - 1.0 <= 1e-13 and large.eig_range[1] - 1.0 <= 1e-13

    @pytest.mark.parametrize("nu", [-0.9, -0.6, -0.25, 0.3])
    def test_trace_matches_mpmath_for_every_order(self, nu):
        # the trace is the integral of K(x, x) on (0, T]; the reference
        # substitutes x = T v^10, which leaves a smooth integrand at v = 0
        # for every nu > -1.  On Gauss-Legendre in u nu = -0.9 was off by
        # 1.7e-1, nu = -0.6 by 2.9e-4 and nu = 0.3 by 1.1e-10, and nu = -0.25
        # raised; measured now within 3.3e-14
        mpmath = pytest.importorskip("mpmath")
        T = 100.0
        with mpmath.workdps(20):
            a, t = mpmath.mpf(nu), mpmath.mpf(T)

            def integrand(v):
                u = mpmath.sqrt(t * v**10)
                j, j1 = mpmath.besselj(a, u), mpmath.besselj(a + 1, u)
                return (j * j + j1 * j1 - 2 * a / u * j * j1) / 4 * 10 * t * v**9

            ref = float(mpmath.quad(integrand, [0, 0.5, 1]))
        assert abs(nystrom(nu, T, 128).trace - ref) <= 1e-12

    @pytest.mark.parametrize("nu, T, m", [(100.0, 1e6, 1024), (600.0, 1e4, 512)])
    def test_large_orders_give_a_spectrum(self, nu, T, m):
        # the Gauss-Jacobi rule for s^(2 nu + 1) of the earlier factor
        # overflowed at both.  The trace is sum w_i K(x_i, x_i) (269.9028 at
        # nu = 100); at nu = 600 J_{nu+1} underflows on all of (0, 1e4)
        kern = nystrom(nu, T, m)
        assert kern.eigenvalues.min() >= 0.0 and kern.eigenvalues.max() <= 1.0
        assert kern.eig_range[1] <= 1.0 + 1e-13
        ref = np.sum(kern.weights * _diag_cd(nu, kern.nodes))
        assert abs(kern.trace - ref) <= 1e-12 * max(ref, 1.0)

    def test_window_laws_match_the_dense_window(self):
        # each window's eigenvalues from the SVD of B's rows against
        # eigvalsh of the m x m matrix's block
        kern = nystrom(0.0, 1e3, 256)
        mean, var, _ = exact_count_law(kern, [10.0, 100.0])
        for j, t in enumerate((10.0, 100.0)):
            inside = kern.nodes <= t
            lam = np.clip(np.linalg.eigvalsh(kern.matrix[np.ix_(inside, inside)]), 0.0, 1.0)
            assert abs(mean[j] - lam.sum()) <= 1e-14
            assert abs(var[j] - np.sum(lam * (1.0 - lam))) <= 1e-14
            assert abs(gap_probability(kern, t) - np.prod(1.0 - lam)) <= 1e-15

    def test_gap_probability_guards(self):
        kern = nystrom(0.0, 10.0, 64)
        assert gap_probability(kern, 1e-12) == 1.0  # below the first node
        with pytest.raises(ValueError):
            gap_probability(kern, 20.0)
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError):
                gap_probability(kern, bad)


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
        assert cfg.offsets.tolist() == [0, cfg.points.size] and cfg.seeds.tolist() == [3]

    def test_master_seed_spawns_distinct_streams(self):
        kern = nystrom(0.0, 100.0, m=128)
        runs = _split(sample_many(kern, 4, 123))
        counts = {r.size for r in runs}
        pts = [tuple(np.round(r, 9)) for r in runs]
        assert len(set(pts)) == 4 or len(counts) > 1
        again = sample_many(kern, 4, 123)
        assert np.array_equal(np.concatenate(runs), again.points)

    def test_mean_count_matches_trace(self):
        # first moment of a determinantal sample equals the kernel trace;
        # 200 fixed-seed draws keep the Monte Carlo error ~0.06
        kern = nystrom(0.0, 100.0, m=128)
        counts = np.diff(sample_many(kern, 200, 2026).offsets).astype(float)
        se = counts.std(ddof=1) / math.sqrt(len(counts))
        assert abs(counts.mean() - kern.trace) < 3.5 * se + 1e-9

    @pytest.mark.parametrize("nu, T, m, n_seeds", [
        (0.0, 1e4, 512, 50), (0.5, 100.0, 128, 100), (2.0, 1e3, 256, 100),
        (0.5, 100.0, 100, 100)])
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

    def test_top_uniform_takes_last_node_of_positive_marginal(self, monkeypatch):
        # every uniform the largest float below 1: each draw must take the
        # last node of positive marginal, never a zero row after it.  The
        # 21 nodes fill one block of 16 and 5 of the next, padded with 11
        # rows of zero mass; the support ends at node 18, inside the padded
        # block.  Here the node-by-node sum of that block can round to just
        # below u * total, where the draw falls back to its last node of
        # positive marginal
        class Top:
            def random(self, n):
                return np.full(n, np.nextafter(1.0, 0.0))

        monkeypatch.setattr(dpp, "_rng", lambda seed: Top())
        V = np.zeros((21, 2))
        V[14:19] = np.linalg.qr(np.array([[0.0, -2.0], [-2.0, 3.0], [-4.0, -2.0],
                                          [-4.0, -4.0], [-2.0, 2.0]]))[0]
        kern = _kernel_from_columns(V)
        assert kern.m % dpp._DRAW_BLOCK != 0
        cfg = sample(kern, 0)
        assert np.array_equal(cfg.points, kern.nodes[[17, 18]])

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

    @pytest.mark.parametrize("bad", [2.5, -1, -1.0, math.nan, math.inf])
    def test_seed_must_be_a_nonnegative_integer(self, bad):
        # a fractional seed used to draw the configuration of its integer
        # part, and NaN or a negative seed raised a plain ValueError
        kern = nystrom(0.5, 100.0, 128)
        with pytest.raises(DomainError, match="seed must be an integer"):
            sample(kern, bad)
        with pytest.raises(DomainError, match="master_seed must be an integer"):
            sample_many(kern, 3, bad)

    def test_derived_seed_above_2_63_is_accepted(self):
        # about half the derived uint64 seeds are >= 2^63, past the range
        # of _as_index; each must pass as a numpy or a Python integer
        kern = nystrom(0.5, 100.0, 128)
        seeds = _derived_seeds(8, 20260825)
        j = int(np.argmax(np.array(seeds) >= 2**63))
        assert seeds[j] >= 2**63
        cfg = sample(kern, np.uint64(seeds[j]))
        assert cfg.seeds.tolist() == [seeds[j]]
        assert np.array_equal(cfg.points, sample(kern, seeds[j]).points)
        assert np.array_equal(cfg.points, _split(sample_many(kern, 8, 20260825))[j])
        assert np.array_equal(sample(kern, 2.0).points, sample(kern, 2).points)

    # the second window is small enough that most samples keep no
    # eigenvector, so a block mixes samples of k = 0 with the others; the
    # third has m = 100 nodes, not a multiple of the draw's node blocks
    @pytest.mark.parametrize("window", [(0.5, 100.0, 128), (0.5, 4.0, 64),
                                        (0.5, 100.0, 100)])
    @pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1])
    def test_blocks_never_move_a_point(self, window, n):
        # sample_many draws its derived seeds in lockstep blocks; each
        # sample must still be the one that sample draws alone
        kern = nystrom(*window)
        seeds = _derived_seeds(n, 2027)
        many = sample_many(kern, n, 2027)
        assert many.seeds.tolist() == seeds
        for pts, seed in zip(_split(many), seeds):
            assert np.array_equal(pts, sample(kern, seed).points)
        sizes = set(np.diff(many.offsets).tolist())
        if window[1] == 4.0 and n > 1:
            assert 0 in sizes and len(sizes) > 1

    def test_many_matches_qr_reference_sampler(self):
        kern = nystrom(0.5, 100.0, 128)
        seeds = _derived_seeds(_BLOCK + 1, 4)
        for pts, seed in zip(_split(sample_many(kern, _BLOCK + 1, 4)), seeds):
            assert np.array_equal(pts, _qr_sample_points(kern, seed))

    def test_default_points_are_pinned(self):
        # sha256 of the 500 samples of the dpp_stats default (size as
        # little-endian int64, then the points as little-endian float64),
        # recorded on the folded Gauss-Legendre rule of orthopoly._gauss_jacobi;
        # the draws pick the same node indices, and the samples the same
        # sizes, as on the unfolded rule and on numpy's leggauss rule
        # before it
        runs = sample_many(nystrom(0.0, 1e4, 512), 500, 20260825)
        h = hashlib.sha256()
        for start, stop in zip(runs.offsets[:-1], runs.offsets[1:]):
            h.update(np.int64(stop - start).astype("<i8").tobytes())
            h.update(runs.points[start:stop].astype("<f8").tobytes())
        assert h.hexdigest() == (
            "70bbfdef0fcc289aaa0930310bf41d2c2d2d6881705bf8dfbb7622b07e72dc64")

    def test_failures_name_the_seed(self):
        # every sample of this kernel keeps both columns on node 0, so each
        # runs out of mass at its second draw; the block reports its first
        V = np.zeros((3, 2))
        V[0] = 1.0
        seeds = _derived_seeds(3, 5)
        with pytest.raises(PrecisionFailure, match=r"\(seed %d\)" % seeds[0]):
            sample_many(_kernel_from_columns(V), 3, 5)
        V = np.array([[20357.0, 14860.0], [4038.0, -13653.0],
                      [-50.0, 7418.0], [-14558.0, 4465.0]])
        with pytest.raises(PrecisionFailure, match=r"below .*\(seed 0\)"):
            sample(_kernel_from_columns(V), 0)


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

    def test_slope_needs_two_distinct_thresholds(self, runs, kern1000):
        # a repeated threshold is one point of the fit: polyfit warned
        # RankWarning and returned the slope of a vertical line (0.0276 for
        # the exact law), where the slope is undefined
        thr = [100.0, 100.0]
        assert math.isnan(exact_count_law(kern1000, thr)[2])
        assert math.isnan(count_stats(runs, thr).var_slope)
        assert count_stats(runs, [100.0, 1000.0, 100.0]).var_slope > 0.0

    def test_exact_law_checks_window_spectrum(self):
        # a sub-window eigenvalue of 1.5625 is an error, not a value to clip
        # to 1.  The factor is diagonal; with powers of 2 on the diagonal
        # the SVD returns them exactly (0.5 and 0.75 came back a few ulp
        # off), and their squares are exact
        def kernel(diag):
            factor = np.diag(diag)
            lam = np.sort(np.square(diag))
            return DiscretizedKernel(nu=0.0, T=4.0, m=3, nodes=np.array([1.0, 2.0, 3.0]),
                                     weights=np.ones(3), factor=factor, eigenvalues=lam,
                                     eigenvectors=np.eye(3)[:, np.argsort(np.square(diag))],
                                     eig_range=(lam[0], lam[-1]))

        for law in (lambda k: exact_count_law(k, [2.5]), lambda k: gap_probability(k, 2.5)):
            with pytest.raises(DiscretizationFailure):
                law(kernel([1.25, 0.5, 0.25]))
        mean, var, _ = exact_count_law(kernel([0.5, 0.25, 1.25]), [2.5])
        assert mean[0] == 0.3125 and var[0] == 0.24609375
        assert gap_probability(kernel([0.5, 0.25, 1.25]), 2.5) == 0.703125

    def test_threshold_validation(self, runs):
        with pytest.raises(ValueError):
            count_stats(runs, [2000.0])

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_nonpositive_or_nonfinite_threshold_rejected(self, runs, kern1000, bad):
        with pytest.raises(DomainError):
            count_stats(runs, [10.0, bad])
        with pytest.raises(DomainError):
            exact_count_law(kern1000, [10.0, bad])

    def test_array_form_matches_per_sample_loop(self, runs):
        # counts and the worst growth residual equal a per-sample
        # searchsorted and PointSequence.growth_residual loop bit for bit,
        # with samples of fewer than 3 points skipped, empty ones included
        # at both ends of the batch
        short = [np.empty(0), np.array([3.0]), np.array([3.0, 40.0])]
        batch = short + _split(runs) + [np.empty(0)]

        def samples(parts):
            return Samples(points=np.concatenate(parts),
                           offsets=np.cumsum([0] + [p.size for p in parts]),
                           seeds=range(len(parts)), T=1000.0, nu=0.0, m=256)

        thr = [10.0, 100.0, 1000.0]
        counts = np.array([np.searchsorted(p, thr, side="right") for p in batch],
                          dtype=float)
        worst = 0.0
        for p in batch:
            if p.size >= 3:
                r = make_sampled(p).growth_residual(np.arange(3, p.size + 1))
                worst = max(worst, float(np.max(np.abs(r))))
        stats = count_stats(samples(batch), thr)
        assert np.array_equal(stats.mean, counts.mean(axis=0))
        assert np.array_equal(stats.var, counts.var(axis=0, ddof=1))
        assert stats.max_growth_residual == worst > 0.0
        assert count_stats(samples(short), thr).max_growth_residual == 0.0


class TestSerialization:
    def test_config_validates_ordering(self):
        def batch(points, offsets):
            return Samples(points=np.array(points, dtype=float), offsets=offsets,
                           seeds=range(len(offsets) - 1), T=10.0, nu=0.0, m=64)

        # a sample may start below where the one before it ended, also
        # across empty samples and with empty samples at either end
        ok = batch([1.0, 5.0, 2.0, 3.0, 0.5], [0, 0, 2, 2, 4, 5, 5])
        assert [p.tolist() for p in _split(ok)] == [[], [1.0, 5.0], [], [2.0, 3.0], [0.5], []]
        with pytest.raises(ValueError, match="increasing"):
            batch([2.0, 1.0], [0, 2])
        with pytest.raises(ValueError, match="increasing"):
            batch([1.0, 5.0, 2.0, 2.0], [0, 0, 2, 4])
        # offsets that do not fit the points or the seeds
        for off in ([0, 1], [0, 3, 2], [1, 2], [0, 2, 3], [0]):
            with pytest.raises(ValueError, match="offsets"):
                batch([1.0, 2.0], off)
        # every point lies in (0, T], T = 10 included
        assert batch([1.0, 10.0], [0, 2]).points.tolist() == [1.0, 10.0]
        for bad, reason in ((math.nan, "finite"), (30.0, "support"), (-1.0, "support"),
                            (0.0, "support")):
            with pytest.raises(DomainError, match=reason):
                batch([1.0, bad, 3.0], [0, 3])
        with pytest.raises(DomainError, match="T must be finite"):
            Samples(points=[1.0], offsets=[0, 1], seeds=[1], T=math.nan, nu=0.0, m=64)
