"""In-memory spans around the public entry points of each bessellab module.

The benchmark's traced run calls ``Tracer.install()`` after its warm-up and
before the timed pass.  Every entry point in ``WRAPS`` is replaced by a
wrapper that records one span (group, parent, start, end); the module
attribute is replaced together with every alias of the same function object
that another bessellab module or the benchmark's workloads module holds,
including values of module-level dicts such as ``lab.EXPERIMENTS``.  Methods are patched on their class, which
covers every caller.  Spans are aggregated once, when the pass is over.

A group is named ``<layer>.<entry>``; the layer is the bessellab module.
A span's self time is its duration minus the durations of its direct
children, so nested calls within one layer are not counted twice.
"""

import functools
import sys
import time

import numpy as np

LAYERS = ("specfun", "sequences", "weights", "orthopoly", "equilibrium", "dpp", "lab")
LAB_WRITE = "lab.write"


def _size_of_result(args, kwargs, out):
    return int(np.size(out))


def _size_of_first_arg(args, kwargs, out):
    # methods: args[0] is the instance, args[1] the evaluation points
    return int(np.size(args[1]))


def _sample_points(args, kwargs, out):
    return int(out.points.size)


def _nystrom_bytes(args, kwargs, out):
    return int(sum(a.nbytes for a in (out.nodes, out.weights, out.matrix,
                                      out.eigenvalues, out.eigenvectors)))


def _lanczos_steps(args, kwargs, out):
    return int(out.n_max)


# (module, attribute, group, counter name, counter).  "Class.method"
# attributes are patched on the class.  A group of None counts calls
# without a span, for helpers whose time should stay with their caller.
WRAPS = (
    ("specfun", "bessel_kernel", "specfun.bessel_kernel", "elements", _size_of_result),
    ("specfun", "bessel_kernel_diag", "specfun.bessel_kernel_diag", None, None),
    ("specfun", "bessel_zeros", "specfun.bessel_zeros", None, None),
    ("specfun", "bessel_zero", "specfun.bessel_zero", None, None),
    ("specfun", "bessel_j", "specfun.bessel_j", None, None),
    ("specfun", "bessel_j_deriv", "specfun.bessel_j_deriv", None, None),
    ("sequences", "make_quadratic", "sequences.make", None, None),
    ("sequences", "make_bessel_zero_squared", "sequences.make", None, None),
    ("sequences", "make_sampled", "sequences.make", None, None),
    ("sequences", "make_user", "sequences.make", None, None),
    ("sequences", "PointSequence.count_upto", "sequences.count_upto", None, None),
    ("sequences", "PointSequence.growth_residual", "sequences.growth_residual", None, None),
    ("sequences", "PointSequence.tail_inverse_power", "sequences.tail_inverse_power",
     None, None),
    ("weights", "ConditionalWeight.__init__", "weights.ConditionalWeight", None, None),
    ("weights", "ConditionalWeight.log_density", "weights.log_density", "points",
     _size_of_first_arg),
    ("weights", "ApproxWeight.log_density", "weights.log_density", "points",
     _size_of_first_arg),
    ("weights", "PowerWeight.log_density", "weights.log_density", "points",
     _size_of_first_arg),
    ("weights", "ScaledWeight.log_density", "weights.log_density", "points",
     _size_of_first_arg),
    ("weights", "ConditionalWeight.log_smooth", "weights.log_smooth", None, None),
    ("weights", "ApproxWeight.log_smooth", "weights.log_smooth", None, None),
    ("weights", "PowerWeight.log_smooth", "weights.log_smooth", None, None),
    ("weights", "ScaledWeight.log_smooth", "weights.log_smooth", None, None),
    ("weights", "check_sandwich", "weights.check_sandwich", None, None),
    ("weights", "field_V", "weights.field", None, None),
    ("weights", "field_V_gamma", "weights.field", None, None),
    ("weights", "field_V_tilde", "weights.field", None, None),
    ("orthopoly", "weight_quadrature", "orthopoly.weight_quadrature", None, None),
    ("orthopoly", "build_recurrence", "orthopoly.build_recurrence", "lanczos_steps",
     _lanczos_steps),
    ("orthopoly", "RecurrenceTable.gram_residual", "orthopoly.gram_residual", None, None),
    ("orthopoly", "RecurrenceTable.kernel_hat", "orthopoly.kernel_scalar", None, None),
    ("orthopoly", "RecurrenceTable.kernel_norm", "orthopoly.kernel_scalar", None, None),
    ("orthopoly", "RecurrenceTable.christoffel", "orthopoly.kernel_scalar", None, None),
    ("orthopoly", "RecurrenceTable.phi", "orthopoly.kernel_scalar", None, None),
    ("orthopoly", "lubinsky_gap", "orthopoly.kernel_scalar", None, None),
    ("orthopoly", "RecurrenceTable.kernel_hat_grid", "orthopoly.kernel_grid", "points",
     _size_of_result),
    ("orthopoly", "RecurrenceTable.kernel_norm_grid", "orthopoly.kernel_grid", "points",
     _size_of_result),
    ("orthopoly", "RecurrenceTable.phi_table", "orthopoly.kernel_grid", "points",
     _size_of_result),
    ("orthopoly", "brute_force_christoffel", "orthopoly.brute_force_christoffel",
     None, None),
    ("orthopoly", "save_recurrence_csv", "orthopoly.save_recurrence_csv", None, None),
    ("equilibrium", "variational_check", "equilibrium.variational_check", None, None),
    ("equilibrium", "log_potential", None, None, None),
    ("equilibrium", "mass_error", "equilibrium.mass_error", None, None),
    ("equilibrium", "diagnostics", "equilibrium.diagnostics", None, None),
    ("equilibrium", "density", "equilibrium.measure", None, None),
    ("equilibrium", "cdf", "equilibrium.measure", None, None),
    ("equilibrium", "c_gamma", "equilibrium.measure", None, None),
    ("equilibrium", "phi_boundary", "equilibrium.maps", None, None),
    ("equilibrium", "phi_map", "equilibrium.maps", None, None),
    ("equilibrium", "f_map", "equilibrium.maps", None, None),
    ("equilibrium", "g_map", "equilibrium.maps", None, None),
    ("equilibrium", "lens_sign_check", "equilibrium.maps", None, None),
    ("equilibrium", "global_parametrix", "equilibrium.maps", None, None),
    ("dpp", "nystrom", "dpp.nystrom", "bytes", _nystrom_bytes),
    ("dpp", "sample", "dpp.sample", "points", _sample_points),
    ("dpp", "sample_many", "dpp.sample_many", None, None),
    ("dpp", "count_stats", "dpp.count_stats", None, None),
    ("lab", "run_experiment", "lab.run_experiment", None, None),
    ("lab", "hard_edge_limit", "lab.experiment", None, None),
    ("lab", "approx_limit", "lab.experiment", None, None),
    ("lab", "sandwich_chain", "lab.experiment", None, None),
    ("lab", "equilibrium_report", "lab.experiment", None, None),
    ("lab", "dpp_stats", "lab.experiment", None, None),
    ("lab", "default_config", "lab.experiment", None, None),
    ("lab", "write_csv", LAB_WRITE, None, None),
    ("lab", "write_summary", LAB_WRITE, None, None),
)

# Groups whose per-call durations are kept for percentiles.
KEEP_DURATIONS = ("dpp.sample",)

# Groups that are experiment glue rather than a library layer's work.
GLUE_GROUPS = ("lab.run_experiment", "lab.experiment")


def _bessellab_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "bessellab" or name.startswith("bessellab.")) and m is not None]


def _calling_modules():
    """Modules whose aliases are patched: the package's own and the
    benchmark's workloads module, which calls into the package too."""
    mods = _bessellab_modules()
    if "workloads" in sys.modules:
        mods.append(sys.modules["workloads"])
    return mods


def _resolve(module, attr):
    mod = sys.modules["bessellab." + module]
    if "." in attr:
        cls_name, meth = attr.split(".")
        owner = getattr(mod, cls_name)
        return owner, meth, owner.__dict__[meth]
    return mod, attr, getattr(mod, attr)


class Tracer:
    """Records spans and counters for one process; install once, then aggregate."""

    def __init__(self):
        self.spans = []       # [group, parent index, start, end]
        self.counters = {}    # "<group>.<counter>" -> total
        self._stack = []
        self._restore = []    # (container, key, original, is_dict)
        self.patched = []     # (module, attribute, alias description)

    # -- recording -------------------------------------------------------

    def _span_wrapper(self, fn, group, counter_name, counter):
        spans, stack, counters = self.spans, self._stack, self.counters
        key = "%s.%s" % (group, counter_name) if counter_name else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([group, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()
            if key is not None:
                counters[key] = counters.get(key, 0) + counter(args, kwargs, out)
            return out

        wrapper.__perfbench_original__ = fn
        return wrapper

    def _count_wrapper(self, fn, module, attr):
        counters = self.counters
        key = "%s.%s.calls" % (module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] = counters.get(key, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__perfbench_original__ = fn
        return wrapper

    # -- patching --------------------------------------------------------

    def install(self):
        """Wrap every entry point in WRAPS and each alias of it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = _calling_modules()
        for module, attr, group, counter_name, counter in WRAPS:
            owner, name, original = _resolve(module, attr)
            if group is None:
                wrapper = self._count_wrapper(original, module, attr)
            else:
                wrapper = self._span_wrapper(original, group, counter_name, counter)
            if "." in attr:
                self._restore.append((owner, name, original, False))
                setattr(owner, name, wrapper)
                self.patched.append((module, attr, "class"))
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original, False))
                        setattr(mod, key, wrapper)
                        self.patched.append((module, attr, "%s.%s" % (mod.__name__, key)))
                    elif isinstance(value, dict):
                        for dkey, dval in list(value.items()):
                            if dval is original:
                                self._restore.append((value, dkey, original, True))
                                value[dkey] = wrapper
                                self.patched.append(
                                    (module, attr, "%s.%s[%r]" % (mod.__name__, key, dkey)))

    def uninstall(self):
        for container, key, original, is_dict in reversed(self._restore):
            if is_dict:
                container[key] = original
            else:
                setattr(container, key, original)
        self._restore = []

    # -- aggregation -----------------------------------------------------

    def aggregate(self):
        """Per-group calls, self time and (for KEEP_DURATIONS) call durations,
        plus the total duration of root spans and the counters."""
        child = [0.0] * len(self.spans)
        for group, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        groups = {}
        root_s = 0.0
        for i, (group, parent, start, end) in enumerate(self.spans):
            dur = end - start
            g = groups.setdefault(group, {"calls": 0, "self_s": 0.0, "durations": []})
            g["calls"] += 1
            g["self_s"] += dur - child[i]
            if group in KEEP_DURATIONS:
                g["durations"].append(dur)
            if parent < 0:
                root_s += dur
        return {"groups": groups, "root_s": root_s, "counters": dict(self.counters)}


def unpatched_aliases():
    """(module, key) pairs still bound to an original that WRAPS names;
    empty when the tracer is installed completely."""
    originals = {}
    for module, attr, _, _, _ in WRAPS:
        owner, name, value = _resolve(module, attr)
        original = getattr(value, "__perfbench_original__", None)
        if original is None:
            return [(module, attr)]
        originals[id(original)] = (module, attr)
    missing = []
    for mod in _calling_modules():
        for key, value in vars(mod).items():
            if id(value) in originals:
                missing.append((mod.__name__, key))
            elif isinstance(value, dict):
                missing.extend(("%s.%s" % (mod.__name__, key), k)
                               for k, v in value.items() if id(v) in originals)
    return missing


# ---------------------------------------------------------------------------
# per-layer metrics


# name -> (unit, better).  The value is derived from the name (see
# _layer_value): "<group>.calls" and "<group>.self_s" of a span group,
# "<layer>.self_s" of a whole layer (for lab, without artifact writing),
# "<group>.p50_ms"/".p98_ms" of its call durations, and any other
# "<group>.<counter>" from the counters.
PER_LAYER = {
    "specfun.bessel_kernel.calls": ("count", "lower"),
    "specfun.bessel_kernel.elements": ("count", "lower"),
    "specfun.bessel_kernel.self_s": ("s", "lower"),
    "specfun.bessel_zeros.calls": ("count", "lower"),
    "specfun.bessel_zeros.self_s": ("s", "lower"),
    "specfun.self_s": ("s", "lower"),
    "dpp.nystrom.calls": ("count", "lower"),
    "dpp.nystrom.self_s": ("s", "lower"),
    "dpp.nystrom.bytes": ("B", "lower"),
    "dpp.sample.calls": ("count", "lower"),
    "dpp.sample.points": ("count", "lower"),
    "dpp.sample.self_s": ("s", "lower"),
    "dpp.sample.p50_ms": ("ms", "lower"),
    "dpp.sample.p98_ms": ("ms", "lower"),
    "dpp.count_stats.self_s": ("s", "lower"),
    "dpp.self_s": ("s", "lower"),
    "sequences.growth_residual.calls": ("count", "lower"),
    "sequences.tail_inverse_power.calls": ("count", "lower"),
    "sequences.self_s": ("s", "lower"),
    "weights.ConditionalWeight.calls": ("count", "lower"),
    "weights.ConditionalWeight.self_s": ("s", "lower"),
    "weights.log_density.points": ("count", "lower"),
    "weights.self_s": ("s", "lower"),
    "orthopoly.build_recurrence.calls": ("count", "lower"),
    "orthopoly.build_recurrence.lanczos_steps": ("count", "lower"),
    "orthopoly.build_recurrence.self_s": ("s", "lower"),
    "orthopoly.weight_quadrature.self_s": ("s", "lower"),
    "orthopoly.gram_residual.self_s": ("s", "lower"),
    "orthopoly.kernel_scalar.calls": ("count", "lower"),
    "orthopoly.kernel_scalar.self_s": ("s", "lower"),
    "orthopoly.kernel_grid.calls": ("count", "lower"),
    "orthopoly.kernel_grid.points": ("count", "lower"),
    "orthopoly.kernel_grid.self_s": ("s", "lower"),
    "orthopoly.self_s": ("s", "lower"),
    "equilibrium.variational_check.self_s": ("s", "lower"),
    "equilibrium.log_potential.calls": ("count", "lower"),
    "equilibrium.maps.self_s": ("s", "lower"),
    "equilibrium.self_s": ("s", "lower"),
    "lab.self_s": ("s", "lower"),
    "lab.write.self_s": ("s", "lower"),
    "lab.artifact_bytes": ("B", "lower"),
    "trace.coverage": ("fraction", "higher"),
}

# Computed by run.py from traced and untraced passes together.
TRACE_OVERHEAD = ("trace.overhead_s", "s", "lower")


def coverage(agg, wall_s):
    """Share of the traced pass's wall time spent in spans of a library layer
    or of artifact writing, i.e. not in experiment glue or outside any span."""
    glue = sum(agg["groups"][g]["self_s"] for g in GLUE_GROUPS if g in agg["groups"])
    return (agg["root_s"] - glue) / wall_s


def _layer_value(name, agg, traced_pass):
    if name == "lab.artifact_bytes":
        return traced_pass["artifact_bytes"]
    if name == "trace.coverage":
        return coverage(agg, traced_pass["wall_s"])
    group, _, stat = name.rpartition(".")
    g = agg["groups"].get(group)
    if stat == "self_s" and group in LAYERS:
        return sum(v["self_s"] for k, v in agg["groups"].items()
                   if k.split(".")[0] == group and k != LAB_WRITE)
    if stat in ("calls", "self_s") and g is not None:
        return g[stat]
    if stat in ("p50_ms", "p98_ms"):
        durations = g["durations"] if g else []
        return float(np.percentile(durations, int(stat[1:3])) * 1e3) if durations else 0.0
    if stat == "self_s":
        return 0.0
    # counters, and the calls of count-only entries
    return agg["counters"].get(name, 0)


def layer_metrics(agg, traced_pass):
    """Every PER_LAYER metric of one traced pass."""
    return {name: _layer_value(name, agg, traced_pass) for name in PER_LAYER}
