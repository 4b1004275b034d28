"""Acceptance suite: one test per release criterion, each printing a single
PASS/FAIL line with the governing tolerance and the measured value.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.  The
tolerances here are contractual and must not be loosened; a failing line
is a finding, not a test bug (criterion 1 checks the variational constant
of the constrained equilibrium measure against its closed form
ell(gamma) = 2 log gamma - 4 - 4 arccosh sqrt(gamma) + 4 sqrt(1 - 1/gamma),
which is -4 at gamma = 1 and never 0 for gamma >= 1).
"""

import cmath
import math

import numpy as np
import pytest

from bessellab import equilibrium as eq
from bessellab.lab import default_config, run_experiment
from bessellab.orthopoly import brute_force_christoffel, build_recurrence
from bessellab.sequences import make_quadratic
from bessellab.weights import ConditionalWeight, ScaledWeight


def _line(num, name, ok, detail):
    print("CRITERION %d %-24s %s  %s" % (num, name, "PASS" if ok else "FAIL", detail))


def test_criterion_1_equilibrium_measure():
    # for gamma in {1.1, 2, 5}: unit mass to 1e-10, flat variational
    # residual to 1e-6 on a 50-point grid, and |ell - ell(gamma)| <= 1e-8,
    # ell(gamma) the closed form of eq.lagrange_constant
    worst_mass = 0.0
    worst_dev = 0.0
    worst_ell = 0.0
    for g in (1.1, 2.0, 5.0):
        worst_mass = max(worst_mass, abs(eq.mass_error(g)))
        ell, dev = eq.variational_check(g)
        worst_dev = max(worst_dev, dev)
        worst_ell = max(worst_ell, abs(ell - eq.lagrange_constant(g)))
    ok = worst_mass <= 1e-10 and worst_dev <= 1e-6 and worst_ell <= 1e-8
    _line(1, "equilibrium_measure", ok,
          "mass %.2e (tol 1e-10), deviation %.2e (tol 1e-6), |ell - ell(gamma)| %.2e (tol 1e-8)"
          % (worst_mass, worst_dev, worst_ell))
    assert worst_mass <= 1e-10
    assert worst_dev <= 1e-6
    assert worst_ell <= 1e-8, (
        "variational constant departs from its closed form ell(gamma) by %.2e"
        % worst_ell)


def test_criterion_2_complex_maps():
    # phi_+ = i pi F on the support to 1e-10; f(z)/z -> pi^2/(4 c_gamma)
    # to 1e-6 relative on |z| = 1e-4; parametrix jump to 1e-10 and
    # N(10^6) - I within 2e-6
    g = 2.0
    xs = np.linspace(0.02, 0.98, 25)
    phi_res = max(abs(eq.phi_boundary(g, x, "+") - 1j * math.pi * eq.cdf(g, x))
                  for x in xs)

    g_slope = 1.05
    target = math.pi**2 / (4.0 * eq.c_gamma(g_slope))
    slope_res = 0.0
    for k in range(8):
        z = 1e-4 * cmath.exp(2j * math.pi * (k + 0.5) / 8.0)
        slope_res = max(slope_res, abs(eq.f_map(g_slope, z) / z - target) / target)

    x, nu = 0.4, 0.5
    jump = np.array([[0.0, x**nu], [-(x**-nu), 0.0]], dtype=complex)
    jump_res = float(np.max(np.abs(
        eq.global_parametrix(nu, x, side="+")
        - eq.global_parametrix(nu, x, side="-") @ jump)))
    inf_res = max(
        float(np.max(np.abs(eq.global_parametrix(nu, 1e6 * cmath.exp(1j * th)) - np.eye(2))))
        for th in (0.4, 2.0, 3.8, 5.6))

    ok = phi_res <= 1e-10 and slope_res <= 1e-6 and jump_res <= 1e-10 and inf_res <= 2e-6
    _line(2, "complex_maps", ok,
          "phi %.2e (1e-10), f-slope %.2e (1e-6), jump %.2e (1e-10), N(inf) %.2e (2e-6)"
          % (phi_res, slope_res, jump_res, inf_res))
    assert phi_res <= 1e-10
    assert slope_res <= 1e-6
    assert jump_res <= 1e-10
    assert inf_res <= 2e-6


def test_criterion_3_orthogonal_polynomials():
    # conditional weight of the quadratic sequence at R = 1e4, for
    # nu in {-0.5, 0, 0.5, 2}: orthonormal through degree 120 (Gram to
    # 1e-10), Christoffel function vs brute force to 1e-8 for n <= 6,
    # and the three scaling identities to 1e-10 under random (c, d)
    seq = make_quadratic()
    worst_gram = 0.0
    worst_chris = 0.0
    for nu in (-0.5, 0.0, 0.5, 2.0):
        w = ConditionalWeight(seq, nu, 1e4)
        tab = build_recurrence(w, 121)
        worst_gram = max(worst_gram, tab.gram_residual())
        for n in (2, 4, 6):
            lam = tab.christoffel(n, 0.3)
            ref = brute_force_christoffel(w, n, 0.3)
            worst_chris = max(worst_chris, abs(lam - ref) / ref)

    rng = np.random.default_rng(20260825)
    base = ConditionalWeight(seq, 0.5, 1e4)
    tab0 = build_recurrence(base, 12)
    worst_scale = 0.0
    for _ in range(3):
        c, d = rng.uniform(0.5, 2.0, size=2)
        tab1 = build_recurrence(ScaledWeight(base, c, d), 12)
        t = np.array([0.11, 0.42, 0.83]) / c
        for j in (1, 6, 12):
            r = np.max(np.abs(tab1.phi(j, t) - math.sqrt(c / d) * tab0.phi(j, c * t))
                       / np.maximum(np.abs(tab1.phi(j, t)), 1e-12))
            worst_scale = max(worst_scale, float(r))
        x, y = 0.21 / c, 0.67 / c
        kn = tab1.kernel_norm(12, x, y)
        worst_scale = max(worst_scale, abs(kn - c * tab0.kernel_norm(12, c * x, c * y)) / abs(kn))
        kh = tab1.kernel_hat(12, x, y)
        worst_scale = max(worst_scale, abs(kh - (c / d) * tab0.kernel_hat(12, c * x, c * y)) / abs(kh))

    ok = worst_gram <= 1e-10 and worst_chris <= 1e-8 and worst_scale <= 1e-10
    _line(3, "orthogonal_polynomials", ok,
          "gram %.2e (1e-10), christoffel %.2e (1e-8), rescaling %.2e (1e-10)"
          % (worst_gram, worst_chris, worst_scale))
    assert worst_gram <= 1e-10
    assert worst_chris <= 1e-8
    assert worst_scale <= 1e-10


def test_criterion_4_sandwich_and_ordering():
    # gamma = 1.2, R = 1e4, nu = 0: the weight sandwich holds on a
    # 1000-point grid, the kernel-diagonal ordering holds pointwise, and
    # the two-weight gap bound keeps nonnegative slack (>= -1e-8)
    cfg = default_config("sandwich_chain", gammas=(1.2,), schedule=(1e4,))
    _, _, summary = run_experiment(cfg)
    per = summary["per_gamma"][0]
    sand = per["sandwich"]
    n_viol = sand["lower_violations"] + sand["upper_violations"]
    ordering = per["ordering_violations"]
    slack = per["lubinsky_min_slack"]
    ok = n_viol == 0 and ordering == 0 and slack >= -1e-8
    _line(4, "sandwich_and_ordering", ok,
          "sandwich violations %d (grid %d), ordering violations %d, min slack %+.3f (>= -1e-8)"
          % (n_viol, sand["points"], ordering, slack))
    assert sand["points"] == 1000
    assert n_viol == 0
    assert ordering == 0
    assert slack >= -1e-8


def test_criterion_5_approximating_kernel_limits():
    # gamma = 1.5, nu = 0, n in {10, 20, 40}: sup error of every rescaled
    # kernel against its hard-edge limit decreases strictly and ends
    # below 5e-2
    cfg = default_config("approx_limit", gammas=(1.5,), schedule=(10, 20, 40))
    _, _, summary = run_experiment(cfg)
    sups = summary["sup_errors"]
    decreasing = all(
        all(a > b for a, b in zip(sups[k], sups[k][1:]))
        for k in ("plus_norm", "minus_norm", "plus_hat", "minus_hat"))
    finals = {k: sups[k][-1] for k in sups}
    worst_final = max(finals.values())
    ok = decreasing and worst_final < 5e-2
    _line(5, "approx_kernel_limits", ok,
          "strict decrease %s, final sup %.2e (tol 5e-2; plus_norm %.2e, minus_norm %.2e)"
          % (decreasing, worst_final, finals["plus_norm"], finals["minus_norm"]))
    assert decreasing
    assert worst_final < 5e-2


def test_criterion_6_conditional_kernel_limit():
    # quadratic and Bessel-zero-squared (nu = 0) sequences, windows sized
    # for N(R) in {10, 20, 40}: strictly decreasing sup error, and the two
    # final errors within a factor of 2 of each other
    finals = {}
    shrinking = True
    for kind in ("quadratic", "bessel"):
        cfg = default_config("hard_edge_limit", sequence=kind, nu=0.0,
                             schedule=(10, 20, 40))
        _, _, summary = run_experiment(cfg)
        sups = summary["sup_errors"]
        shrinking = shrinking and all(a > b for a, b in zip(sups, sups[1:]))
        assert summary["identity_residual"] < 1e-10
        finals[kind] = sups[-1]
    ratio = finals["quadratic"] / finals["bessel"]
    ok = shrinking and 0.5 <= ratio <= 2.0
    _line(6, "conditional_kernel_limit", ok,
          "strict decrease %s, final errors %.3e / %.3e, ratio %.3f (in [0.5, 2])"
          % (shrinking, finals["quadratic"], finals["bessel"], ratio))
    assert shrinking
    assert 0.5 <= ratio <= 2.0


def test_criterion_7_count_statistics():
    # nu = 0, m = 512, 500 fixed-seed samples, windows T' in
    # {1e2, 1e3, 1e4}: mean count within +-1.5 of sqrt(T')/pi, variance
    # slope in log T' within 30% of 1/(4 pi^2), and the growth residual
    # of every sampled sequence below a common constant
    cfg = default_config("dpp_stats", nu=0.0, m=512, n_samples=500,
                         thresholds=(1e2, 1e3, 1e4), seed=20260825)
    _, _, summary = run_experiment(cfg)
    offsets = summary["mean_offsets"]
    worst_off = max(abs(o) for o in offsets)
    slope = summary["var_slope"]
    slope_target = 1.0 / (4.0 * math.pi**2)
    slope_ratio = slope / slope_target
    residual = summary["max_growth_residual"]
    ok = worst_off <= 1.5 and abs(slope_ratio - 1.0) <= 0.30 and residual <= 16.0
    _line(7, "count_statistics", ok,
          "mean offset %.3f (tol 1.5), var slope %.5f vs %.5f (30%%), growth residual %.2f (<= 16)"
          % (worst_off, slope, slope_target, residual))
    assert worst_off <= 1.5
    assert abs(slope_ratio - 1.0) <= 0.30
    assert residual <= 16.0
