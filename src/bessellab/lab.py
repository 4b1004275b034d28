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

import hashlib
import json
import math
import numbers
import operator
import os
from dataclasses import asdict, dataclass, fields as dataclass_fields

import numpy as np

from . import equilibrium
from .dpp import M_MIN, VAR_SLOPE, count_stats, exact_count_law, nystrom, sample_many
from .orthopoly import build_recurrence, lubinsky_gap
from .sequences import PI2, make_bessel_zero_squared, make_quadratic
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


def _finite_above(v, lo):
    # a finite real number above lo; a bool is no number here
    return (not isinstance(v, bool) and isinstance(v, numbers.Real) and math.isfinite(v)
            and v > lo)


def _python_number(v):
    # a numpy scalar has no JSON form; Python numbers are kept as given, so
    # that 10 and 10.0 keep their distinct digests
    return v.item() if isinstance(v, np.generic) else v


def _nan_to_none(v):
    # an undefined (NaN) slope is null in a summary: strict JSON has no NaN
    return None if math.isnan(v) else v


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines an experiment run.

    Configs are built with ``default_config``, which applies each
    experiment's own defaults; ``from_json`` reads a config file through it.
    ``schedule`` is experiment-specific: target point counts N(R) for
    hard_edge_limit, polynomial degrees for approx_limit, and a single
    window R for sandwich_chain.  approx_limit reads a single gamma; each
    of the two must hold exactly one value in the field it reads once.
    ``gammas``, ``schedule`` and ``thresholds`` must be non-empty lists or
    tuples of finite numbers, every gamma > 1 and every schedule entry and
    threshold > 0, and are stored as tuples; the schedule entries of
    hard_edge_limit and approx_limit must be integer-valued (10.0 passes);
    ``grid_points`` and ``n_samples`` must be integers >= 1, ``m`` an
    integer >= dpp.M_MIN (``nystrom``'s least node count) and ``seed`` an
    integer >= 0, none of them a bool, and are stored as Python ints;
    ``nu`` must be a finite number > -1,
    ``grid_lo``, ``grid_hi`` and ``tail_tolerance`` finite numbers > 0,
    ``sequence`` 'quadratic' or 'bessel' and ``experiment`` a key of
    ``EXPERIMENTS``.  A config that breaks one of these raises ValueError
    naming the field.  A numpy scalar in a tuple or a number field is
    stored as the Python number of its ``item()``.
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

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError("unknown experiment %r" % (self.experiment,))
        if self.sequence not in ("quadratic", "bessel"):
            raise ValueError("unknown sequence kind %r" % (self.sequence,))
        for k, lo in (("gammas", 1.0), ("schedule", 0.0), ("thresholds", 0.0)):
            values = getattr(self, k)
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError("%s must be a non-empty list or tuple, got %r" % (k, values))
            values = tuple(map(_python_number, values))
            if not all(_finite_above(v, lo) for v in values):
                raise ValueError("%s entries must be finite numbers > %g, got %r" % (k, lo, values))
            if _READ_ONCE.get(self.experiment) == k and len(values) != 1:
                raise ValueError("%s takes one %s value, got %r" % (self.experiment, k, values))
            object.__setattr__(self, k, values)
        if (self.experiment in ("hard_edge_limit", "approx_limit")
                and not all(float(v).is_integer() for v in self.schedule)):
            raise ValueError("schedule entries must be integers for %s, got %r"
                             % (self.experiment, self.schedule))
        for k, lo in (("grid_points", 1), ("m", M_MIN), ("n_samples", 1), ("seed", 0)):
            v = getattr(self, k)
            if isinstance(v, bool) or not (isinstance(v, (int, np.integer)) and v >= lo):
                raise ValueError("%s must be an integer >= %d, got %r" % (k, lo, v))
            object.__setattr__(self, k, int(v))  # a numpy integer has no JSON form
        for k, lo in (("nu", -1.0), ("grid_lo", 0.0), ("grid_hi", 0.0), ("tail_tolerance", 0.0)):
            v = _python_number(getattr(self, k))
            if not _finite_above(v, lo):
                raise ValueError("%s must be a finite number > %g, got %r" % (k, lo, v))
            object.__setattr__(self, k, v)

    def grid(self):
        return np.logspace(
            np.log10(self.grid_lo), np.log10(self.grid_hi), self.grid_points
        )

    def digest(self):
        blob = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    @classmethod
    def from_json(cls, path, **overrides):
        """``default_config`` of the JSON object in ``path``, with
        ``overrides`` on top; a document that is not an object, holds an
        unknown key or names no experiment raises ValueError."""
        with open(path) as fh:
            d = json.load(fh)
        if not isinstance(d, dict):
            raise ValueError("config file %s holds no JSON object" % (path,))
        unknown = sorted(set(d) - {f.name for f in dataclass_fields(cls)})
        if unknown:
            raise ValueError("config file %s has unknown key(s) %s" % (path, ", ".join(unknown)))
        d.update(overrides)
        if "experiment" not in d:
            raise ValueError("config file %s names no experiment" % (path,))
        return default_config(**d)


# the tuple field an experiment reads only once, so holds one value
_READ_ONCE = {"approx_limit": "gammas", "sandwich_chain": "schedule"}

# per-experiment departures from the ExperimentConfig defaults
_DEFAULTS = {
    "approx_limit": dict(gammas=(1.5,)),
    "sandwich_chain": dict(schedule=(10000.0,)),
    "equilibrium_report": dict(gammas=(1.1, 2.0, 5.0), nu=0.5),
}


def default_config(experiment, **overrides):
    return ExperimentConfig(**{"experiment": experiment,
                               **_DEFAULTS.get(experiment, {}), **overrides})


def _sequence(cfg):
    if cfg.sequence == "bessel":
        return make_bessel_zero_squared(cfg.nu)
    return make_quadratic()


def _bessel_grid(nu, xs):
    return bessel_kernel(nu, xs[:, None], xs[None, :])


_GRID_FIELDS = ("step", "x", "y", "computed", "target", "abs_error")


def _compare(rows, label, xs, computed, target):
    """Append one row per grid point (x, y) to ``rows``; return the sup error."""
    err = np.abs(computed - target)
    xl = xs.tolist()
    rows.extend([
        {"step": label, "x": x, "y": y, "computed": c, "target": t, "abs_error": e}
        for x, c_row, t_row, e_row in zip(xl, computed.tolist(), target.tolist(), err.tolist())
        for y, c, t, e in zip(xl, c_row, t_row, e_row)
    ])
    return float(np.max(err))


# ------------------------------------------------------------------
# hard_edge_limit


def hard_edge_limit(cfg):
    """Scaled conditional-weight kernels against the Bessel kernel.

    For each target count N in the schedule, the window R is placed 0.9 of
    the way from p_N to p_{N+1}, the weight is rescaled to [0,1], and
    (1/R) K_N(x/R, y/R) is tabulated against the kernel on the grid.
    The run at the schedule's last window is repeated through the
    rescaling identity (building the recurrence directly on [0,R]) as a
    consistency check.
    """
    seq = _sequence(cfg)
    xs = cfg.grid()
    target = _bessel_grid(cfg.nu, xs)
    rows, sup_errors, radii, counts = [], [], [], []
    symmetry_defect = 0.0
    for n_target in cfg.schedule:
        # Window high in the gap (but strictly below p_{N+1}, so the count
        # is unambiguous): the largest R compatible with N(R) = N.
        R = seq.p(n_target) + 0.9 * (seq.p(n_target + 1) - seq.p(n_target))
        w = ConditionalWeight(seq, cfg.nu, R, tail_tolerance=cfg.tail_tolerance)
        n = w.n_cond
        K = build_recurrence(w, n).kernel_norm_grid(n, xs / R, xs / R) / R
        sup_errors.append(_compare(rows, "R=%.6g" % R, xs, K, target))
        radii.append(R)
        counts.append(int(n))
        symmetry_defect = max(symmetry_defect, float(np.max(np.abs(K - K.T))))

    # Identity route at the last window: same kernel from the unscaled
    # weight living on [0,R].  Agreement is algebra, not asymptotics.
    bar = ScaledWeight(w, 1.0 / R, R**cfg.nu)
    K_bar = build_recurrence(bar, n).kernel_norm_grid(n, xs, xs)
    # sup-norm relative: pointwise ratios are meaningless at the kernel's zeros
    identity_residual = float(np.max(np.abs(K_bar - K)) / np.max(np.abs(K)))

    summary = {
        "radii": radii,
        "counts": counts,
        "sup_errors": sup_errors,
        "strictly_decreasing": bool(np.all(np.diff(sup_errors) < 0)),
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
    J = _bessel_grid(nu, xs)
    XY = np.sqrt(np.outer(xs, xs))
    hat_plus_target = XY ** (-nu) / cg * _bessel_grid(nu, xs / cg)
    # The minus-sign scalings below are the ones forced by the exact weight
    # transform plus the plus-sign limit: rescaling by gamma^2 turns the
    # minus weight into the plus weight, so its kernel limit carries
    # c_gamma/gamma^2 where the plus limit carries c_gamma.  (A naive swap
    # c_gamma -> 1/c_gamma leaves a finite mismatch; the run records its
    # size under 'as_published'.)
    hat_minus_target = XY ** (-nu) * (gamma**2 / cg) * _bessel_grid(
        nu, (gamma**2 / cg) * xs
    )
    lam = gamma**2 / cg**2
    minus_literal_target = lam * _bessel_grid(nu, lam * xs)

    rows, weight_rows, transform, literal_sup, literal_vs_model = [], [], [], [], []
    sup = {k: [] for k in ("plus_norm", "minus_norm", "plus_hat", "minus_hat")}
    for n in cfg.schedule:
        plus = ApproxWeight("plus", gamma, n, nu)
        minus = ApproxWeight("minus", gamma, n, nu)
        tp = build_recurrence(plus, n)
        tm = build_recurrence(minus, n)
        step = "n=%d" % n
        s = cg / (PI2 * n**2)
        K = tp.kernel_norm_grid(n, s * xs, s * xs) * s
        sup["plus_norm"].append(_compare(rows, step + ":plus_norm", xs, K, J))
        s = cg / (gamma**2 * PI2 * n**2)
        K = tm.kernel_norm_grid(n, s * xs, s * xs) * s
        sup["minus_norm"].append(_compare(rows, step + ":minus_norm", xs, K, J))
        # naive-swap scaling, kept as a measured record
        s = 1.0 / (cg * PI2 * n**2)
        K_lit = tm.kernel_norm_grid(n, s * xs, s * xs) * s
        literal_sup.append(float(np.max(np.abs(K_lit - J))))
        literal_vs_model.append(float(np.max(np.abs(K_lit - minus_literal_target))))
        s = 1.0 / (PI2 * n**2)
        f = (np.pi * n) ** (-2.0 - 2.0 * nu)
        K = tp.kernel_hat_grid(n, s * xs, s * xs) * f
        sup["plus_hat"].append(_compare(rows, step + ":plus_hat", xs, K, hat_plus_target))
        # one minus-sign table serves the hat limit and the transform tie
        ts = s * xs
        lhs = tm.kernel_hat_grid(n, ts, ts)
        sup["minus_hat"].append(_compare(rows, step + ":minus_hat", xs, lhs * f, hat_minus_target))
        # exact transform tie between the signs, at points inside (0, 1/gamma^2)
        rhs = gamma ** (2.0 + 2.0 * nu) * tp.kernel_hat_grid(
            n, gamma**2 * ts, gamma**2 * ts
        )
        transform.append(float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1.0))))
        # pointwise weight limit n^{2 nu} w(x/n^2) -> x^nu
        wx = xs[:7]
        wp = n ** (2.0 * nu) * np.exp(plus.log_density(wx / n**2))
        wm = n ** (2.0 * nu) * np.exp(minus.log_density(wx / n**2))
        weight_rows.extend(
            {"step": step, "x": float(x), "weight_plus": float(a),
             "weight_minus": float(b), "target": float(x**nu)}
            for x, a, b in zip(wx, wp, wm)
        )

    summary = {
        "gamma": gamma,
        "c_gamma": cg,
        "degrees": [int(n) for n in cfg.schedule],
        "sup_errors": sup,
        "strictly_decreasing": {k: bool(np.all(np.diff(v) < 0)) for k, v in sup.items()},
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
    K_final = tab_w.kernel_norm_grid(n, scale * xs, scale * xs) * scale
    rows = []
    final_sup = _compare(rows, "final", xs, K_final, _bessel_grid(nu, xs))

    lub_grid = np.linspace(0.5, 20.0, 10) * scale
    per_gamma = []
    for gamma, sandwich in zip(cfg.gammas, check_sandwich(w, cfg.gammas)):
        tp = build_recurrence(ApproxWeight("plus", gamma, n, nu), n)
        tm = build_recurrence(ApproxWeight("minus", gamma, n, nu), n)
        kp = tp.kernel_hat(n, diag_pts, diag_pts)
        km = tm.kernel_hat(n, diag_pts, diag_pts)
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
        per_gamma.append({
            "gamma": gamma,
            "sandwich": sandwich,
            # ordering: smaller weight, larger kernel
            "ordering_violations": int(np.sum(kp > kw_diag)) + int(np.sum(kw_diag > km)),
            "ordering_margin_plus": float(np.min((kw_diag - kp) / kw_diag)),
            "ordering_margin_minus": float(np.min((km - kw_diag) / kw_diag)),
            "lubinsky_min_slack": float(slack),
            "bracket_width": float(b_hi - b_lo),
        })

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
    return rows, ["gamma", "s", "density", "cdf"], summary


# ------------------------------------------------------------------
# dpp_stats


def dpp_stats(cfg):
    """Sample the process and tabulate counting statistics, with the exact
    count law of the discretized process beside the Monte Carlo values."""
    T = float(max(cfg.thresholds))
    kern = nystrom(cfg.nu, T, cfg.m)
    st = count_stats(sample_many(kern, cfg.n_samples, cfg.seed), cfg.thresholds)
    exact_mean, exact_var, exact_var_slope = exact_count_law(kern, cfg.thresholds)
    summary = {
        "trace": kern.trace,
        "eig_min": kern.eig_range[0],
        "eig_max": kern.eig_range[1],
        "mean_offsets": (st.mean - st.target_mean).tolist(),
        "var": st.var.tolist(),
        "var_slope": _nan_to_none(st.var_slope),
        "var_slope_target": VAR_SLOPE,
        "exact_mean": exact_mean.tolist(),
        "exact_var": exact_var.tolist(),
        "exact_var_slope": _nan_to_none(exact_var_slope),
        "max_growth_residual": st.max_growth_residual,
        "n_samples": st.n_samples,
    }
    return st.rows(), ["threshold", "mean", "target_mean", "se_mean", "var", "se_var"], summary


# ------------------------------------------------------------------
# dispatch and serialization

EXPERIMENTS = {
    "hard_edge_limit": hard_edge_limit,
    "approx_limit": approx_limit,
    "sandwich_chain": sandwich_chain,
    "equilibrium_report": equilibrium_report,
    "dpp_stats": dpp_stats,
}


# the characters the csv module would quote a field for
_NEEDS_QUOTES = ',"\n\r'


def write_csv(path, rows, fields):
    """Write the list of dicts ``rows`` as a CSV table of the columns ``fields``.

    A column of Python floats is written ``%.17g``, which reads back as the
    same float; a column with no float is written with ``str``.  The header
    is ``fields``, every line ends in a newline, and no field is quoted, so
    the rows stream through one format string.  A column that mixes floats
    with other values, and a header or ``str`` cell that holds a comma, a
    double quote or a line break, raise ``ValueError``.
    """
    specs = []
    for k in fields:
        column = operator.itemgetter(k)
        kinds = {issubclass(t, float) for t in set(map(type, map(column, rows)))}
        if len(kinds) > 1:
            raise ValueError("CSV column %r mixes floats with other values" % (k,))
        if True in kinds:
            specs.append("%.17g")
            text = k
        else:
            specs.append("%s")
            text = k + "".join(set(map(str, map(column, rows))))
        if any(c in text for c in _NEEDS_QUOTES):
            raise ValueError("CSV column %r holds a comma, a quote or a line break" % (k,))
    line = ",".join(specs) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(fields) + "\n")
        fh.writelines(map(line.__mod__, map(operator.itemgetter(*fields), rows)))


def write_summary(path, summary):
    with open(path, "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def run_experiment(cfg, out_dir=None):
    """Run one experiment; optionally write <name>-<hash>.{csv,json}.

    The summary carries the experiment name, its config and config hash,
    and ``hard_fail`` (False unless the experiment reports otherwise).
    """
    rows, fields, body = EXPERIMENTS[cfg.experiment](cfg)
    digest = cfg.digest()
    summary = {"experiment": cfg.experiment, "config": asdict(cfg),
               "config_hash": digest, "hard_fail": False}
    summary.update(body)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        stem = "%s-%s" % (cfg.experiment, digest)
        write_csv(os.path.join(out_dir, stem + ".csv"), rows, fields)
        write_summary(os.path.join(out_dir, stem + ".json"), summary)
        summary = dict(summary, csv=os.path.join(out_dir, stem + ".csv"))
    return rows, fields, summary
