"""The benchmark's three workloads: their inputs, warm-up, timed pass and
accuracy checks.

A pass is a list of ops.  An op is one experiment call or one library job;
it fails when it raises or misses one of its checks.  The tolerances in the
checks are the package's acceptance tolerances.  Every op writes its
CSV/JSON artifacts into the pass's directory, and the artifacts of every
pass must be byte-identical to those of the first pass.
"""

import math
import os

import numpy as np
import scipy.linalg as sla

from bessellab import (ConditionalWeight, brute_force_christoffel, build_recurrence,
                       make_quadratic, nystrom)
from bessellab.lab import default_config, run_experiment, write_summary

# ---------------------------------------------------------------------------
# dpp_counting


def dpp_inputs(seed):
    return default_config("dpp_stats", seed=int(seed))


def dpp_warm_up(cfg, out_dir):
    # A reduced run through the same entry points at other arguments, so no
    # result the timed pass needs can be cached here.  The first LAPACK
    # call at the pass's matrix size is made here because in some fresh
    # processes it stalls for about a second.
    np.polynomial.legendre.leggauss(cfg.m)
    small = default_config("dpp_stats", m=128, n_samples=8, thresholds=(10.0, 100.0),
                           seed=cfg.seed + 1)
    run_experiment(small, out_dir=out_dir)


def dpp_pass(cfg, out_dir):
    def op():
        rows, _, summary = run_experiment(cfg, out_dir=out_dir)
        return {"rows": rows, "n_samples": summary["n_samples"]}

    return [("dpp_stats", op)]


# Exact law of N(0, T'] in the discretized process: a sum of independent
# Bernoulli(lambda_j), lambda_j the eigenvalues of the Nystrom matrix
# restricted to nodes <= T'.  Z_MAX standard errors are allowed.  The
# standard errors come from the exact cumulants, so for a correct sampler
# each z is close to standard normal and exceeds Z_MAX with probability
# of order 1e-6.
Z_MAX = 5.0
MEAN_OFFSET_MAX = 1.5
GAP_S = (2.0, 5.0, 10.0)
GAP_TOL = 1e-12


def dpp_reference(cfg):
    """Exact cumulants of each window count, and the gap-probability oracle.

    The oracle is det(I - K) on (0, s) = exp(-s/4) for nu = 0, computed as
    the product of (1 - lambda) over the eigenvalues of a 128-node
    discretization.
    """
    kern = nystrom(cfg.nu, max(cfg.thresholds), cfg.m)
    windows = []
    for t in cfg.thresholds:
        inside = kern.nodes <= t
        lam = np.clip(sla.eigvalsh(kern.matrix[np.ix_(inside, inside)]), 0.0, 1.0)
        q = lam * (1.0 - lam)
        windows.append({"threshold": float(t), "mean": float(lam.sum()),
                        "var": float(q.sum()), "k4": float(np.sum(q * (1.0 - 6.0 * q)))})
    gap = []
    for s in GAP_S:
        lam = nystrom(0.0, s, 128).eigenvalues
        gap.append({"s": s, "det": float(np.prod(1.0 - lam)), "exact": math.exp(-s / 4.0)})
    return {"windows": windows, "gap": gap}


def dpp_checks(op, data, pass_data, ref):
    out = []
    n = data["n_samples"]
    for row, w in zip(data["rows"], ref["windows"]):
        t = w["threshold"]
        se_mean = math.sqrt(w["var"] / n)
        se_var = math.sqrt(w["k4"] / n + 2.0 * w["var"] ** 2 / (n - 1))
        out.append(("mean z at T'=%g" % t, abs(row["mean"] - w["mean"]) / se_mean,
                    ("<=", Z_MAX)))
        out.append(("var z at T'=%g" % t, abs(row["var"] - w["var"]) / se_var, ("<=", Z_MAX)))
        out.append(("|mean - sqrt(T')/pi| at T'=%g" % t,
                    abs(row["mean"] - math.sqrt(t) / math.pi), ("<=", MEAN_OFFSET_MAX)))
    return out


def gap_checks(ref):
    return [("|det(I-K) - exp(-s/4)| at s=%g" % g["s"], abs(g["det"] - g["exact"]),
             ("<=", GAP_TOL)) for g in ref["gap"]]


# ---------------------------------------------------------------------------
# kernel_limits

CRITERION3_NUS = (-0.5, 0.0, 0.5, 2.0)
CRITERION3_R = 1e4
CRITERION3_DEGREE = 121
CRITERION3_X = 0.3


def kernel_inputs(seed):
    return {
        "hard_edge_quadratic": default_config("hard_edge_limit"),
        "hard_edge_bessel": default_config("hard_edge_limit", sequence="bessel"),
        "approx_limit": default_config("approx_limit"),
        "sandwich_chain": default_config("sandwich_chain"),
    }


def criterion3_job(nu, out_dir, R=CRITERION3_R, degree=CRITERION3_DEGREE):
    """Orthonormality at degree 121 and the Christoffel function against the
    moment-matrix route, written as a JSON artifact."""
    w = ConditionalWeight(make_quadratic(), nu, R)
    tab = build_recurrence(w, degree)
    summary = {"nu": nu, "R": R, "degree": degree, "gram_residual": tab.gram_residual(),
               "christoffel": []}
    for n in (2, 4, 6):
        summary["christoffel"].append({
            "n": n, "x": CRITERION3_X,
            "recurrence": float(tab.christoffel(n, CRITERION3_X)),
            "brute_force": brute_force_christoffel(w, n, CRITERION3_X)})
    write_summary(os.path.join(out_dir, "criterion3-R%g-n%d-nu%g.json" % (R, degree, nu)),
                  summary)
    return summary


def kernel_warm_up(inputs, out_dir):
    # Reduced schedules and grids; the degree stays above 60 so the
    # extended-precision Lanczos path is warmed too.
    run_experiment(default_config("hard_edge_limit", schedule=(3,), grid_points=3),
                   out_dir=out_dir)
    run_experiment(default_config("hard_edge_limit", sequence="bessel", schedule=(3,),
                                  grid_points=3), out_dir=out_dir)
    run_experiment(default_config("approx_limit", schedule=(6,), grid_points=3),
                   out_dir=out_dir)
    run_experiment(default_config("sandwich_chain", gammas=(1.5,), schedule=(300.0,)),
                   out_dir=out_dir)
    criterion3_job(0.25, out_dir, R=1e3, degree=64)


def _summary_of(cfg, out_dir):
    return lambda: {"summary": run_experiment(cfg, out_dir=out_dir)[2]}


def kernel_pass(inputs, out_dir):
    ops = [(name, _summary_of(cfg, out_dir)) for name, cfg in inputs.items()]
    for nu in CRITERION3_NUS:
        ops.append(("criterion3 nu=%g" % nu,
                    lambda nu=nu: {"summary": criterion3_job(nu, out_dir)}))
    return ops


def kernel_checks(op, data, pass_data, ref):
    s = data["summary"]
    if op.startswith("hard_edge"):
        out = [("sup errors strictly decreasing", float(s["strictly_decreasing"]), None),
               ("identity residual", s["identity_residual"], ("<", 1e-10))]
        if op == "hard_edge_bessel":
            quadratic = pass_data["hard_edge_quadratic"]
            ratio = float("nan")  # fails the rule when the quadratic run raised
            if quadratic is not None:
                ratio = quadratic["summary"]["sup_errors"][-1] / s["sup_errors"][-1]
            out.append(("final error ratio quadratic/bessel", ratio, ("in", 0.5, 2.0)))
        return out
    if op == "approx_limit":
        out = [("sup errors strictly decreasing (%s)" % k, float(v), None)
               for k, v in sorted(s["strictly_decreasing"].items())]
        final = max(v[-1] for v in s["sup_errors"].values())
        out.append(("final sup error", final, ("<", 5e-2)))
        return out
    if op == "sandwich_chain":
        out = [("no hard_fail", float(not s["hard_fail"]), None)]
        for g in s["per_gamma"]:
            sand = g["sandwich"]
            out.append(("sandwich violations gamma=%g" % g["gamma"],
                        sand["lower_violations"] + sand["upper_violations"], ("==", 0)))
            out.append(("ordering violations gamma=%g" % g["gamma"],
                        g["ordering_violations"], ("==", 0)))
            out.append(("Lubinsky slack gamma=%g" % g["gamma"],
                        g["lubinsky_min_slack"], (">=", -1e-8)))
        return out
    out = [("gram residual", s["gram_residual"], ("<=", 1e-10))]
    for c in s["christoffel"]:
        rel = abs(c["recurrence"] - c["brute_force"]) / c["brute_force"]
        out.append(("christoffel vs brute force n=%d" % c["n"], rel, ("<=", 1e-8)))
    return out


# ---------------------------------------------------------------------------
# equilibrium_maps


def equilibrium_inputs(seed):
    return default_config("equilibrium_report")


def equilibrium_warm_up(cfg, out_dir):
    run_experiment(default_config("equilibrium_report", gammas=(3.0,)), out_dir=out_dir)


def equilibrium_pass(cfg, out_dir):
    return [("equilibrium_report",
             lambda: {"summary": run_experiment(cfg, out_dir=out_dir)[2]})]


def equilibrium_checks(op, data, pass_data, ref):
    s = data["summary"]
    out = []
    for g in s["per_gamma"]:
        gamma = g["gamma"]
        out.append(("mass error gamma=%g" % gamma, g["mass_error"], ("<=", 1e-10)))
        out.append(("variational deviation gamma=%g" % gamma, g["variational_deviation"],
                    ("<=", 1e-6)))
        out.append(("phi boundary residual gamma=%g" % gamma, g["phi_boundary_residual"],
                    ("<=", 1e-10)))
        out.append(("max Re phi gamma=%g" % gamma, g["lens"]["max_re_phi"], ("<", 0.0)))
    out.append(("parametrix jump", s["parametrix_jump_residual"], ("<=", 1e-10)))
    out.append(("parametrix at infinity", s["parametrix_inf_residual"], ("<=", 2e-6)))
    return out


# ---------------------------------------------------------------------------


class Workload:
    """inputs(seed) -> inputs; warm_up(inputs, dir); run_pass(inputs, dir) ->
    [(op name, thunk returning check data)]; checks(op, data, pass data,
    reference) -> [(check name, value, rule)]; reference(inputs) -> data
    computed once per run, outside the timed passes; run_checks(reference)
    -> checks of that data, counted as one more op."""

    def __init__(self, inputs, warm_up, run_pass, checks, reference=None, run_checks=None):
        self.inputs = inputs
        self.warm_up = warm_up
        self.run_pass = run_pass
        self.checks = checks
        self.reference = reference
        self.run_checks = run_checks


WORKLOADS = {
    "dpp_counting": Workload(dpp_inputs, dpp_warm_up, dpp_pass, dpp_checks,
                             reference=dpp_reference, run_checks=gap_checks),
    "kernel_limits": Workload(kernel_inputs, kernel_warm_up, kernel_pass, kernel_checks),
    "equilibrium_maps": Workload(equilibrium_inputs, equilibrium_warm_up, equilibrium_pass,
                                 equilibrium_checks),
}


def passes(value, rule):
    """True when a check's measured value meets its rule.  A rule of None
    marks a boolean property, recorded as 1.0 (holds) or 0.0."""
    if rule is None:
        return value == 1.0
    op = rule[0]
    if op == "<":
        return value < rule[1]
    if op == "<=":
        return value <= rule[1]
    if op == ">=":
        return value >= rule[1]
    if op == "==":
        return value == rule[1]
    if op == "in":
        return rule[1] <= value <= rule[2]
    raise ValueError("unknown rule %r" % (rule,))
