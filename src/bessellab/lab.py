"""Experiment driver: composes the library into the headline numerical runs.

Five experiments are provided:

* ``hard_edge_limit``   -- scaled kernels of the conditional weight against
                           the hard-edge Bessel kernel as the window R grows;
* ``approx_limit``      -- kernel limits for the exponential approximating
                           weights, in normalized and plain form, plus the
                           pointwise weight limit;
* ``sandwich_chain``    -- sandwich margins, diagonal kernel ordering,
                           the Lubinsky gap bound, and the bracket squeeze
                           as gamma decreases toward 1;
* ``equilibrium_report``-- equilibrium-measure diagnostics and the complex
                           map/parametrix residuals;
* ``dpp_stats``         -- counting statistics of sampled configurations.

Every experiment is a pure function of its config; re-running writes
byte-identical CSV.  Floats are serialized with 17 significant digits and
no timestamps or environment info enter the output.
"""

import csv
import hashlib
import json
import os
from dataclasses import dataclass, asdict

import numpy as np

from . import equilibrium
from .dpp import count_stats, exact_count_law, nystrom, sample_many
from .orthopoly import build_recurrence, lubinsky_gap
from .sequences import make_bessel_zero_squared, make_quadratic
from .specfun import bessel_kernel
from .weights import ApproxWeight, ConditionalWeight, ScaledWeight, check_sandwich

__all__ = [
    "ExperimentConfig",
    "hard_edge_limit",
    "approx_limit",
    "sandwich_chain",
    "equilibrium_report",
    "dpp_stats",
    "run_experiment",
    "write_csv",
    "write_summary",
    "EXPERIMENTS",
    "default_config",
]

PI2 = np.pi**2


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines an experiment run.

    ``schedule`` is experiment-specific: target point counts N(R) for
    hard_edge_limit, polynomial degrees for approx_limit, and a single
    window R for sandwich_chain.
    """

    experiment: str
    sequence: str = "quadratic"           # quadratic | bessel
    nu: float = 0.0
    gammas: tuple = (1.5, 1.2, 1.1)
    schedule: tuple = (10, 20, 40)
    grid_lo: float = 0.5
    grid_hi: float = 20.0
    grid_points: int = 15
    seed: int = 20260825
    m: int = 512
    n_samples: int = 500
    thresholds: tuple = (1e2, 1e3, 1e4)
    tail_tolerance: float = 1e-10

    def grid(self):
        return np.logspace(
            np.log10(self.grid_lo), np.log10(self.grid_hi), self.grid_points
        )

    def canonical(self):
        d = asdict(self)
        for k in ("gammas", "schedule", "thresholds"):
            d[k] = list(d[k])
        return d

    def digest(self):
        blob = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    @classmethod
    def from_json(cls, path, **overrides):
        with open(path) as fh:
            d = json.load(fh)
        d.update(overrides)
        for k in ("gammas", "schedule", "thresholds"):
            if k in d:
                d[k] = tuple(d[k])
        return cls(**d)


def default_config(experiment, **overrides):
    base = dict(experiment=experiment)
    if experiment == "approx_limit":
        base.update(gammas=(1.5,), schedule=(10, 20, 40))
    elif experiment == "sandwich_chain":
        base.update(gammas=(1.5, 1.2, 1.1), schedule=(10000.0,))
    elif experiment == "equilibrium_report":
        base.update(gammas=(1.1, 2.0, 5.0), nu=0.5)
    base.update(overrides)
    return ExperimentConfig(**base)


def _sequence(cfg):
    if cfg.sequence == "quadratic":
        return make_quadratic()
    if cfg.sequence == "bessel":
        return make_bessel_zero_squared(cfg.nu)
    raise ValueError("unknown sequence kind %r" % (cfg.sequence,))


_GRID_FIELDS = ("step", "x", "y", "computed", "target", "abs_error")


def _grid_rows(label, xs, computed, target):
    xs = np.asarray(xs, dtype=float)
    xg, yg = np.meshgrid(xs, xs, indexing="ij")
    cols = [np.asarray(a, dtype=float).ravel().tolist() for a in (xg, yg, computed, target)]
    return [
        {"step": label, "x": x, "y": y, "computed": c, "target": t, "abs_error": abs(c - t)}
        for x, y, c, t in zip(*cols)
    ]


# ------------------------------------------------------------------
# hard_edge_limit


def hard_edge_limit(cfg):
    """Scaled conditional-weight kernels against the Bessel kernel.

    For each target count N in the schedule, the window R is placed halfway
    between p_N and p_{N+1}, the weight is rescaled to [0,1], and
    (1/R) K_N(x/R, y/R) is tabulated against the kernel on the grid.
    The run at the largest R is repeated through the rescaling identity
    (building the recurrence directly on [0,R]) as a consistency check.
    """
    seq = _sequence(cfg)
    xs = cfg.grid()
    target = bessel_kernel(cfg.nu, xs[:, None], xs[None, :])

    def run_step(n_target):
        # Window high in the gap (but strictly below p_{N+1}, so the count
        # is unambiguous): the largest R compatible with N(R) = N.
        R = seq.p(n_target) + 0.9 * (seq.p(n_target + 1) - seq.p(n_target))
        w = ConditionalWeight(seq, cfg.nu, R, tail_tolerance=cfg.tail_tolerance)
        n = w.n_cond
        tab = build_recurrence(w, n)
        K = tab.kernel_norm_grid(n, xs / R, xs / R) / R
        return R, w, n, K

    steps = [run_step(n) for n in cfg.schedule]
    rows, sup_errors, radii = [], [], []
    for (R, w, n, K) in steps:
        rows.extend(_grid_rows("R=%.6g" % R, xs, K, target))
        sup_errors.append(float(np.max(np.abs(K - target))))
        radii.append(R)

    # Identity route at the largest window: same kernel from the unscaled
    # weight living on [0,R].  Agreement is algebra, not asymptotics.
    R, w, n, K = steps[-1]
    bar = ScaledWeight(w, 1.0 / R, R**cfg.nu)
    tab_bar = build_recurrence(bar, n)
    K_bar = tab_bar.kernel_norm_grid(n, xs, xs)
    # sup-norm relative: pointwise ratios are meaningless at the kernel's zeros
    identity_residual = float(np.max(np.abs(K_bar - K)) / np.max(np.abs(K)))
    symmetry_defect = float(max(np.max(np.abs(K - K.T)) for (_, _, _, K) in steps))

    sup = np.asarray(sup_errors)
    summary = {
        "radii": radii,
        "counts": [int(n) for (_, _, n, _) in steps],
        "sup_errors": sup_errors,
        "strictly_decreasing": bool(np.all(np.diff(sup) < 0)),
        "identity_residual": identity_residual,
        "symmetry_defect": symmetry_defect,
    }
    return rows, _GRID_FIELDS, summary


# ------------------------------------------------------------------
# approx_limit


def approx_limit(cfg):
    """Kernel limits for the exponential approximating weights.

    Both signs are run in normalized form (weight under the square root)
    and plain form, each against its own scaled Bessel target; the two
    signs are also tied together through the exact change-of-variables
    identity, which must hold at every degree.
    """
    gamma = cfg.gammas[0]
    nu = cfg.nu
    cg = equilibrium.c_gamma(gamma)
    xs = cfg.grid()
    J = bessel_kernel(nu, xs[:, None], xs[None, :])
    XY = np.sqrt(np.outer(xs, xs))
    hat_plus_target = XY ** (-nu) / cg * bessel_kernel(
        nu, xs[:, None] / cg, xs[None, :] / cg
    )
    # The minus-sign scalings below are the ones forced by the exact weight
    # transform plus the plus-sign limit: rescaling by gamma^2 turns the
    # minus weight into the plus weight, so its kernel limit carries
    # c_gamma/gamma^2 where the plus limit carries c_gamma.  (A naive swap
    # c_gamma -> 1/c_gamma leaves a finite mismatch; the run records its
    # size under 'as_published'.)
    hat_minus_target = XY ** (-nu) * (gamma**2 / cg) * bessel_kernel(
        nu, (gamma**2 / cg) * xs[:, None], (gamma**2 / cg) * xs[None, :]
    )
    lam = gamma**2 / cg**2
    minus_literal_target = lam * bessel_kernel(
        nu, lam * xs[:, None], lam * xs[None, :]
    )

    def run_step(n):
        plus = ApproxWeight("plus", gamma, n, nu)
        minus = ApproxWeight("minus", gamma, n, nu)
        tp = build_recurrence(plus, n)
        tm = build_recurrence(minus, n)
        out = {}
        s = cg / (PI2 * n**2)
        out["plus_norm"] = tp.kernel_norm_grid(n, s * xs, s * xs) * s
        s = cg / (gamma**2 * PI2 * n**2)
        out["minus_norm"] = tm.kernel_norm_grid(n, s * xs, s * xs) * s
        # naive-swap scaling, kept as a measured record
        s = 1.0 / (cg * PI2 * n**2)
        K_lit = tm.kernel_norm_grid(n, s * xs, s * xs) * s
        out["minus_literal_sup"] = float(np.max(np.abs(K_lit - J)))
        out["minus_literal_vs_model"] = float(
            np.max(np.abs(K_lit - minus_literal_target))
        )
        s = 1.0 / (PI2 * n**2)
        f = (np.pi * n) ** (-2.0 - 2.0 * nu)
        out["plus_hat"] = tp.kernel_hat_grid(n, s * xs, s * xs) * f
        out["minus_hat"] = tm.kernel_hat_grid(n, s * xs, s * xs) * f
        # exact transform tie between the signs, at points inside (0, 1/gamma^2)
        ts = s * xs
        lhs = tm.kernel_hat_grid(n, ts, ts)
        rhs = gamma ** (2.0 + 2.0 * nu) * tp.kernel_hat_grid(
            n, gamma**2 * ts, gamma**2 * ts
        )
        out["transform_residual"] = float(
            np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1.0))
        )
        # pointwise weight limit n^{2 nu} w(x/n^2) -> x^nu
        wx = xs[: min(len(xs), 7)]
        wp = n ** (2.0 * nu) * np.exp(plus.log_density(wx / n**2))
        wm = n ** (2.0 * nu) * np.exp(minus.log_density(wx / n**2))
        out["weight_rows"] = [
            {
                "step": "n=%d" % n,
                "x": float(x),
                "weight_plus": float(a),
                "weight_minus": float(b),
                "target": float(x**nu),
            }
            for x, a, b in zip(wx, wp, wm)
        ]
        return n, out

    steps = [run_step(n) for n in cfg.schedule]
    rows, weight_rows = [], []
    sup = {k: [] for k in ("plus_norm", "minus_norm", "plus_hat", "minus_hat")}
    transform = []
    targets = {
        "plus_norm": J,
        "minus_norm": J,
        "plus_hat": hat_plus_target,
        "minus_hat": hat_minus_target,
    }
    literal_sup, literal_vs_model = [], []
    for n, out in steps:
        for key, tgt in targets.items():
            rows.extend(_grid_rows("n=%d:%s" % (n, key), xs, out[key], tgt))
            sup[key].append(float(np.max(np.abs(out[key] - tgt))))
        transform.append(out["transform_residual"])
        literal_sup.append(out["minus_literal_sup"])
        literal_vs_model.append(out["minus_literal_vs_model"])
        weight_rows.extend(out["weight_rows"])

    summary = {
        "gamma": gamma,
        "c_gamma": cg,
        "degrees": [int(n) for n, _ in steps],
        "sup_errors": sup,
        "strictly_decreasing": {
            k: bool(np.all(np.diff(np.asarray(v)) < 0)) for k, v in sup.items()
        },
        "transform_residuals": transform,
        "as_published": {
            "minus_norm_sup": literal_sup,
            "mismatch_model_sup": float(np.max(np.abs(minus_literal_target - J))),
            "residual_vs_mismatch_model": literal_vs_model,
        },
        "weight_limit_rows": weight_rows,
    }
    return rows, _GRID_FIELDS, summary


# ------------------------------------------------------------------
# sandwich_chain


def sandwich_chain(cfg):
    """Sandwich margins, kernel ordering, Lubinsky bound, bracket squeeze.

    An ordering violation is a hard failure: given the sandwich, the
    diagonal ordering of the kernels is unconditional, so a violation
    means a bug, not a borderline parameter.
    """
    R = float(cfg.schedule[0])
    seq = _sequence(cfg)
    nu = cfg.nu
    w = ConditionalWeight(seq, nu, R, tail_tolerance=cfg.tail_tolerance)
    n = w.n_cond
    tab_w = build_recurrence(w, n)
    scale = 1.0 / (PI2 * n**2)
    xs = cfg.grid()
    diag_pts = scale * np.linspace(0.5, 20.0, 20)
    kw_diag = tab_w.kernel_hat(n, diag_pts, diag_pts)

    # final scaled-kernel table (gamma-independent)
    J = bessel_kernel(nu, xs[:, None], xs[None, :])
    K_final = tab_w.kernel_norm_grid(n, scale * xs, scale * xs) * scale
    final_sup = float(np.max(np.abs(K_final - J)))
    rows = _grid_rows("final", xs, K_final, J)

    lub_grid = np.linspace(0.5, 20.0, 10) * scale

    def run_gamma(gamma):
        rep = check_sandwich(seq, nu, gamma, R, num=1000,
                             tail_tolerance=cfg.tail_tolerance)
        plus = ApproxWeight("plus", gamma, n, nu)
        minus = ApproxWeight("minus", gamma, n, nu)
        tp = build_recurrence(plus, n)
        tm = build_recurrence(minus, n)
        kp = tp.kernel_hat(n, diag_pts, diag_pts)
        km = tm.kernel_hat(n, diag_pts, diag_pts)
        # ordering: smaller weight, larger kernel
        viol_plus = int(np.sum(kp > kw_diag))
        viol_minus = int(np.sum(kw_diag > km))
        margin_plus = float(np.min((kw_diag - kp) / kw_diag))
        margin_minus = float(np.min((km - kw_diag) / kw_diag))
        # Lubinsky gap on both adjacent pairs of the sandwich
        slack = np.inf
        for small_tab, big_tab in ((tab_w, tp), (tm, tab_w)):
            lhs, rhs = lubinsky_gap(small_tab, big_tab, n,
                                    lub_grid[:, None], lub_grid[None, :])
            slack = min(slack, np.min((rhs - lhs) / np.maximum(np.maximum(rhs, lhs), 1.0)))
        # diagonal bracket width at x ~ 5 (scaled), normalized form
        t5 = 5.0 * scale
        b_lo = tp.kernel_norm(n, t5, t5) * scale
        b_hi = tm.kernel_norm(n, t5, t5) * scale
        return {
            "gamma": gamma,
            "sandwich": rep.summary(),
            "ordering_violations": viol_plus + viol_minus,
            "ordering_margin_plus": margin_plus,
            "ordering_margin_minus": margin_minus,
            "lubinsky_min_slack": float(slack),
            "bracket_width": float(b_hi - b_lo),
        }

    per_gamma = [run_gamma(g) for g in cfg.gammas]
    widths = [g["bracket_width"] for g in per_gamma]
    order = np.argsort(cfg.gammas)[::-1]  # widths along decreasing gamma
    squeeze = bool(np.all(np.diff(np.asarray(widths)[order]) < 0))
    hard_fail = any(
        g["ordering_violations"] > 0
        or g["sandwich"]["lower_violations"] > 0
        or g["sandwich"]["upper_violations"] > 0
        for g in per_gamma
    )
    summary = {
        "R": R,
        "count": int(n),
        "per_gamma": per_gamma,
        "bracket_squeeze": squeeze,
        "final_sup_error": final_sup,
        "hard_fail": bool(hard_fail),
    }
    return rows, _GRID_FIELDS, summary


# ------------------------------------------------------------------
# equilibrium_report


def equilibrium_report(cfg):
    """Equilibrium diagnostics plus complex-map and parametrix residuals."""
    nu = cfg.nu
    per_gamma = [equilibrium.diagnostics(g) for g in cfg.gammas]

    x = 0.4
    Np = equilibrium.global_parametrix(nu, x, side="+")
    Nm = equilibrium.global_parametrix(nu, x, side="-")
    jump = np.array([[0.0, x**nu], [-(x ** (-nu)), 0.0]], dtype=complex)
    jump_residual = float(np.max(np.abs(Np - Nm @ jump)))
    NI = equilibrium.global_parametrix(nu, 1e6 + 0.0j)
    inf_residual = float(np.max(np.abs(NI - np.eye(2))))

    s = np.linspace(0.05, 0.95, 19)
    rows = [
        {"gamma": float(g), "s": si, "density": d, "cdf": c}
        for g in cfg.gammas
        for si, d, c in zip(s.tolist(), equilibrium.density(g, s).tolist(),
                            equilibrium.cdf(g, s).tolist())
    ]
    summary = {
        "per_gamma": per_gamma,
        "parametrix_nu": nu,
        "parametrix_jump_residual": jump_residual,
        "parametrix_inf_residual": inf_residual,
    }
    fields = ["gamma", "s", "density", "cdf"]
    return rows, fields, summary


# ------------------------------------------------------------------
# dpp_stats


def dpp_stats(cfg):
    """Sample the process and tabulate counting statistics, with the exact
    count law of the discretized process beside the Monte Carlo values."""
    T = float(max(cfg.thresholds))
    kern = nystrom(cfg.nu, T, cfg.m)
    samples = sample_many(kern, cfg.n_samples, cfg.seed)
    st = count_stats(samples, cfg.thresholds)
    exact_mean, exact_var, exact_var_slope = exact_count_law(kern, cfg.thresholds)
    rows = st.rows()
    mean_offsets = [
        float(st.mean[i] - st.target_mean[i]) for i in range(len(st.thresholds))
    ]
    summary = {
        "trace": kern.trace,
        "eig_min": float(kern.eigenvalues.min()),
        "eig_max": float(kern.eigenvalues.max()),
        "mean_offsets": mean_offsets,
        "var": [float(v) for v in st.var],
        "var_slope": st.var_slope,
        "var_slope_target": st.var_slope_target,
        "exact_mean": [float(v) for v in exact_mean],
        "exact_var": [float(v) for v in exact_var],
        "exact_var_slope": exact_var_slope,
        "max_growth_residual": st.max_growth_residual,
        "n_samples": st.n_samples,
    }
    fields = ["threshold", "mean", "target_mean", "se_mean", "var", "se_var"]
    return rows, fields, summary


# ------------------------------------------------------------------
# dispatch and serialization

EXPERIMENTS = {
    "hard_edge_limit": hard_edge_limit,
    "approx_limit": approx_limit,
    "sandwich_chain": sandwich_chain,
    "equilibrium_report": equilibrium_report,
    "dpp_stats": dpp_stats,
}


def _fmt(v):
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def write_csv(path, rows, fields):
    with open(path, "w", newline="") as fh:
        wr = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        wr.writeheader()
        for r in rows:
            wr.writerow({k: _fmt(r[k]) for k in fields})


def write_summary(path, summary):
    with open(path, "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")


def run_experiment(cfg, out_dir=None):
    """Run one experiment; optionally write <name>-<hash>.{csv,json}.

    The summary carries the experiment name, its config and config hash,
    and ``hard_fail`` (False unless the experiment reports otherwise).
    """
    fn = EXPERIMENTS.get(cfg.experiment)
    if fn is None:
        raise ValueError("unknown experiment %r" % (cfg.experiment,))
    rows, fields, body = fn(cfg)
    digest = cfg.digest()
    summary = {"experiment": cfg.experiment, "config": cfg.canonical(),
               "config_hash": digest, "hard_fail": False}
    summary.update(body)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        stem = "%s-%s" % (cfg.experiment, digest)
        write_csv(os.path.join(out_dir, stem + ".csv"), rows, fields)
        write_summary(os.path.join(out_dir, stem + ".json"), summary)
        summary = dict(summary, csv=os.path.join(out_dir, stem + ".csv"))
    return rows, fields, summary
