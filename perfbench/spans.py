"""Span tracing of fluxgate's public functions, installed from outside the package.

Each traced function is replaced, in every ``fluxgate`` module namespace that
binds it, by a wrapper that records a span (name, start, end, parent span).
Nothing under ``src/`` is edited: the wrappers are installed for the traced
part of a run and the original functions are restored afterwards.  Self time
is a span's duration minus the time covered by its direct children.
"""

import inspect
import sys
import time
from collections import Counter, defaultdict
from statistics import median

# (module, attribute) of every traced function; the layer name is
# "<module suffix>.<attribute>".
FUNCTIONS = (
    ("fluxgate.device", "build_hamiltonian"),
    ("fluxgate.propagator", "expm_skew"),
    ("fluxgate.propagator", "step_unitary"),
    ("fluxgate.propagator", "evolve"),
    ("fluxgate.fidelity", "fidelity_report"),
    ("fluxgate.fidelity", "fit_phases"),
    ("fluxgate.optimizer", "repair_chromosome"),
    ("fluxgate.optimizer", "validate_constraints"),
    ("fluxgate.optimizer", "run_sussade"),
    ("fluxgate.opensystem", "evolve_density"),
    ("fluxgate.opensystem", "estimate_chi"),
    ("fluxgate.robustness", "noise_sweep"),
)
# Methods are patched on their class: (module, class, method).
METHODS = (("fluxgate.pulses", "PiecewiseConstantWaveform", "frequencies"),)

# Layers reported as calls / self_s / us_per_call.
LAYERS = (
    "device.build_hamiltonian",
    "propagator.expm_skew",
    "propagator.step_unitary",
    "propagator.evolve",
    "pulses.frequencies",
    "fidelity.fidelity_report",
    "fidelity.fit_phases",
    "optimizer.repair_chromosome",
    "optimizer.validate_constraints",
    "optimizer.run_sussade",
    "opensystem.evolve_density",
    "opensystem.estimate_chi",
    "robustness.noise_sweep",
)
EXPM_DIMS = (10, 20, 64)


def _layer_name(module, attr):
    return f"{module.split('.', 1)[1]}.{attr}"


def _argument(fn, name, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        hook = _HOOKS.get(name)

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def __enter__(self):
        namespaces = [
            m for key, m in list(sys.modules.items())
            if key == "fluxgate" or key.startswith("fluxgate.")
        ]
        for module, attr in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(_layer_name(module, attr), original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patched.append((ns, key, original))
                        setattr(ns, key, wrapper)
        for module, cls_name, attr in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[attr]
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self._wrap(_layer_name(module, attr), original))
        return self

    def __exit__(self, *exc):
        while self._patched:
            target, key, original = self._patched.pop()
            setattr(target, key, original)
        return False

    def summary(self):
        """Per-name calls, inclusive and self seconds, and the number of
        step_unitary calls that computed an exponential (cache misses)."""
        child_time = [0.0] * len(self.spans)
        children = defaultdict(Counter)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
                children[parent][name] += 1
        calls, total, own = Counter(), Counter(), Counter()
        for i, (name, start, end, _parent) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child_time[i]
        step_misses = sum(
            1 for i, span in enumerate(self.spans)
            if span[0] == "propagator.step_unitary"
            and children[i]["propagator.expm_skew"]
        )
        return calls, total, own, step_misses


def _count_expm_dim(counts, fn, args, kwargs, result):
    counts[f"expm_skew.d{result.shape[0]}"] += 1


def _count_feasible(counts, fn, args, kwargs, result):
    counts["validate_constraints.feasible"] += not result


def _count_density_steps(counts, fn, args, kwargs, result):
    waveform = _argument(fn, "waveform", args, kwargs)
    trotter = _argument(fn, "trotter", args, kwargs)
    counts["density_steps"] += trotter.n_steps(waveform.duration)


_HOOKS = {
    "propagator.expm_skew": _count_expm_dim,
    "optimizer.validate_constraints": _count_feasible,
    "opensystem.evolve_density": _count_density_steps,
}


def layer_metrics(tracer, evaluations, fitness_values, accepted_moves,
                  move_evaluations, qpt_seconds):
    """The per-layer metric dict of one traced run.

    ``evaluations`` is the workload's count of scoring-chain evaluations,
    ``fitness_values`` every value the fitness callable returned,
    ``accepted_moves``/``move_evaluations`` the local-search acceptance
    counts and ``qpt_seconds`` maps "open"/"closed" to tomography times.
    """
    calls, total, own, step_misses = tracer.summary()
    out = {}
    for layer in LAYERS:
        n = calls[layer]
        out[f"{layer}.calls"] = (n, "count")
        out[f"{layer}.self_s"] = (own[layer], "s")
        out[f"{layer}.us_per_call"] = (1e6 * total[layer] / n if n else 0.0, "us")
    for dim in EXPM_DIMS:
        out[f"propagator.expm_skew.d{dim}.calls"] = (
            tracer.counts[f"expm_skew.d{dim}"], "count")
    steps = calls["propagator.step_unitary"]
    out["propagator.step_cache.hit_ratio"] = (
        (steps - step_misses) / steps if steps else 0.0, "ratio")
    out["propagator.exps_per_eval"] = (
        calls["propagator.expm_skew"] / evaluations if evaluations else 0.0,
        "count")
    out["opensystem.density_steps"] = (tracer.counts["density_steps"], "count")
    for kind in ("open", "closed"):
        times = qpt_seconds.get(kind, ())
        out[f"opensystem.run_qpt.{kind}_s"] = (
            median(times) if times else 0.0, "s")
    out["optimizer.local_search.accept_ratio"] = (
        accepted_moves / move_evaluations if move_evaluations else 0.0, "ratio")
    checked = calls["optimizer.validate_constraints"]
    out["optimizer.local_search.feasible_ratio"] = (
        tracer.counts["validate_constraints.feasible"] / checked
        if checked else 0.0, "ratio")
    out["optimizer.fitness.zero_ratio"] = (
        sum(1 for v in fitness_values if v == 0.0) / len(fitness_values)
        if fitness_values else 0.0, "ratio")
    return out
