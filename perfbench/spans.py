"""Span tracing at the public boundaries of khinchin_lab, for traced runs.

`Tracer.install()` replaces the public functions of each layer, in every
khinchin_lab module that holds them (so `haagerup.integrate_khinchin_tail`
and `schur.convolve_weighted` are wrapped as well as the originals), with
wrappers that record a span (id, name, parent, start, end) and the counts
of that boundary.  Spans stay in memory until `write`.  `CharFn.__call__`
runs once per weight and integrand batch, hundreds of thousands of times a
round, so its calls are folded into their parent span as a time and a count
instead of being kept one by one.  Untraced runs never import this module.
"""
from __future__ import annotations

import itertools
import json
import math
import sys
import threading
import time
from collections import defaultdict
from fractions import Fraction
from numbers import Rational

_INT64_SAFE = 2**62

# (module, function) pairs wrapped as spans; names are "module.function".
# The verdict functions are wrapped as well, so that the self time of
# cli.main holds only the CLI's own work.
_WRAPPED = {
    "cli": ("main",),
    "reports": ("format_reports",),
    "exactprob": ("convolve_weighted", "abs_moment", "first_abs_moment", "second_moment",
                  "weighted_sum_norm"),
    "quadrature": ("integrate_khinchin_tail", "integrate_adaptive"),
    "haagerup": ("first_abs_moment_integral", "charfn_power_integral", "l1_l2_verdict",
                 "verify_charfn_power_floor", "concavity_in_zero_mass",
                 "solve_critical_exponent", "two_weight_threshold"),
    "schur": ("schur_objective", "majorization_sample_test", "majorization_report",
              "ostrowski_check", "verify_gaussian_comparison", "equal_weight_ratio_sequence"),
    "lemmas": ("verify_two_point", "verify_convex_dominance"),
}

_MOMENTS = ("exactprob.abs_moment", "exactprob.first_abs_moment", "exactprob.second_moment")
_INTEGRALS = ("haagerup.first_abs_moment_integral", "haagerup.charfn_power_integral")
_LEMMAS = ("lemmas.verify_two_point", "lemmas.verify_convex_dominance")


def _convolve_path(laws, weights) -> tuple[str, int]:
    """Which grid `convolve_weighted` takes, and the dense width it implies.

    Same rule as the library: all-rational inputs go to the integer grid,
    int64 while the product of the laws' mass denominators is at most 2^62.
    """
    rational = all(isinstance(w, Rational) and not isinstance(w, bool) for w in weights)
    rational = rational and all(law.is_rational for law in laws)
    if not rational:
        return "exactprob.convolve_float", 0
    prods = [[Fraction(w) * Fraction(v) for v in law.values] for law, w in zip(laws, weights)]
    scale = math.lcm(*(p.denominator for ps in prods for p in ps))
    width = 1 + sum(2 * max(abs(p) for p in ps) * scale for ps in prods)
    mass_den = math.prod(math.lcm(*(m.denominator for m in law.masses)) for law in laws)
    name = "exactprob.convolve_int64" if mass_den <= _INT64_SAFE else "exactprob.convolve_bigint"
    return name, int(width)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, int, int, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.folded: dict[int, list] = defaultdict(lambda: [0, 0])  # parent -> [ns, calls]
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = 0  # the open cli.main span, parent of worker-thread spans
        self._lock = threading.Lock()  # pool threads update the counts too

    def _add(self, key: str, value) -> None:
        with self._lock:
            self.counts[key] += value

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack) -> int:
        if stack:
            return stack[-1]
        # a pool worker's outermost span belongs to the open cli.main span
        return 0 if threading.current_thread() is threading.main_thread() else self._root

    def _span(self, classify, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            name, info = classify(args, kwargs)
            stack = tracer._stack()
            parent = tracer._parent(stack)
            sid = next(tracer._ids)
            if name == "cli.main":
                tracer._root = sid
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append((sid, name, parent, t0, t1))
            if after is not None:
                after(name, info, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _charfn(self, fn):
        tracer = self

        def call(phi, t):
            t0 = time.perf_counter_ns()
            out = fn(phi, t)
            dt = time.perf_counter_ns() - t0
            parent = tracer._parent(tracer._stack())
            with tracer._lock:
                cell = tracer.folded[parent]
                cell[0] += dt
                cell[1] += 1
                tracer.counts["haagerup.charfn_points"] += getattr(t, "size", 1)
            return out

        call.__wrapped__ = fn
        return call

    # count hooks, run after the wrapped call returns
    def _after_convolve(self, name, width, args, result):
        self._add("exactprob.atoms_out", len(result))
        if name == "exactprob.convolve_float":
            self._add("float.atoms", len(result))
            self._add("float.product", math.prod(len(law.atoms) for law in args[0]))
        else:
            self._add("grid.atoms", len(result))
            self._add("grid.width", width)

    def _after_tail(self, name, info, args, result):
        self._add(name + "_evals", result.evaluations)
        self._add("quadrature.unconverged", not result.converged)

    def _after_adaptive(self, name, info, args, result):
        self._add("quadrature.panels", result.evaluations // 15)

    def _after_trials(self, name, info, args, result):
        self._add("schur.trials", result.trials)

    def install(self) -> None:
        """Wrap every listed function wherever a khinchin_lab module holds it."""
        import khinchin_lab.cli  # noqa: F401  (loads every layer module)
        from khinchin_lab import haagerup

        replace = {}  # id of the original -> wrapper
        for mod_name, fns in _WRAPPED.items():
            mod = sys.modules[f"khinchin_lab.{mod_name}"]
            for fn_name in fns:
                fn = getattr(mod, fn_name)
                replace[id(fn)] = self._make(f"{mod_name}.{fn_name}", fn)
        for name, mod in list(sys.modules.items()):
            if name == "khinchin_lab" or name.startswith("khinchin_lab."):
                for attr, value in list(vars(mod).items()):
                    wrapper = replace.get(id(value))
                    if wrapper is not None and wrapper.__wrapped__ is value:
                        setattr(mod, attr, wrapper)
        haagerup.CharFn.__call__ = self._charfn(haagerup.CharFn.__call__)

    def _make(self, name, fn):
        if name == "exactprob.convolve_weighted":
            return self._span(lambda a, k: _convolve_path(list(a[0]), list(a[1])), fn,
                              self._after_convolve)
        if name == "quadrature.integrate_khinchin_tail":
            def tail_name(a, k):
                period = k.get("period_hint", a[1] if len(a) > 1 else None)
                kind = "periodic" if period is not None else "aperiodic"
                return f"quadrature.tail_{kind}", None
            return self._span(tail_name, fn, self._after_tail)
        after = {"quadrature.integrate_adaptive": self._after_adaptive,
                 "schur.majorization_sample_test": self._after_trials}.get(name)
        return self._span(lambda a, k: (name, None), fn, after)

    # ------------------------------------------------------------ results

    def self_times(self) -> dict[int, int]:
        """Span duration minus the part of it its child spans cover."""
        children = defaultdict(list)
        for sid, _, parent, t0, t1 in self.spans:
            children[parent].append((t0, t1))
        out = {}
        for sid, _, _, t0, t1 in self.spans:
            covered = 0
            end = t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            out[sid] = (t1 - t0) - covered - self.folded.get(sid, (0, 0))[0]
        return out

    def metrics(self, rounds: int = 1) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of `rounds` identical rounds, per round: (value, unit) by name."""
        busy = defaultdict(int)
        calls = defaultdict(int)
        for _, name, _, t0, t1 in self.spans:
            busy[name] += t1 - t0
            calls[name] += 1
        selfs = self.self_times()
        self_by = defaultdict(int)
        for sid, name, _, _, _ in self.spans:
            self_by[name] += selfs[sid]
        c = self.counts
        ms = 1e-6
        trials = c["schur.trials"]
        out = {
            "cli.self_ms": (self_by["cli.main"] * ms, "ms"),
            "cli.calls": (calls["cli.main"], "count"),
            "reports.format_ms": (busy["reports.format_reports"] * ms, "ms"),
            "exactprob.atoms_out": (c["exactprob.atoms_out"], "count"),
            "exactprob.grid_density": (_ratio(c["grid.atoms"], c["grid.width"]), "ratio"),
            "exactprob.float_merge_ratio": (_ratio(c["float.atoms"], c["float.product"]), "ratio"),
            "exactprob.moment_ms": (sum(busy[n] for n in _MOMENTS) * ms, "ms"),
            "exactprob.moment_calls": (sum(calls[n] for n in _MOMENTS), "count"),
            "quadrature.adaptive_ms": (busy["quadrature.integrate_adaptive"] * ms, "ms"),
            "quadrature.panels": (c["quadrature.panels"], "count"),
            "quadrature.unconverged": (c["quadrature.unconverged"], "count"),
            "haagerup.charfn_ms": (sum(v[0] for v in self.folded.values()) * ms, "ms"),
            "haagerup.charfn_calls": (sum(v[1] for v in self.folded.values()), "count"),
            "haagerup.charfn_points": (c["haagerup.charfn_points"], "count"),
            "haagerup.integral_self_ms": (sum(self_by[n] for n in _INTEGRALS) * ms, "ms"),
            "schur.objective_ms": (busy["schur.schur_objective"] * ms, "ms"),
            "schur.objective_calls": (calls["schur.schur_objective"], "count"),
            "schur.trial_ms": (busy["schur.majorization_sample_test"] * ms / trials if trials else 0.0,
                               "ms"),
            "lemmas.verdict_ms": (sum(busy[n] for n in _LEMMAS) * ms, "ms"),
        }
        for path in ("int64", "bigint", "float"):
            name = f"exactprob.convolve_{path}"
            out[f"{name}_ms"] = (busy[name] * ms, "ms")
            out[f"{name}_calls"] = (calls[name], "count")
        for kind in ("periodic", "aperiodic"):
            name = f"quadrature.tail_{kind}"
            out[f"{name}_ms"] = (busy[name] * ms, "ms")
            out[f"{name}_calls"] = (calls[name], "count")
            out[f"{name}_evals"] = (c[f"{name}_evals"], "count")
        # every round runs the same operations, so each total, time or count, is
        # `rounds` times a round's; ratios and the time per trial need no scaling
        unscaled = {"exactprob.grid_density", "exactprob.float_merge_ratio", "schur.trial_ms"}
        for name, (value, unit) in out.items():
            if name not in unscaled:
                value /= rounds
                out[name] = (int(value) if unit == "count" and value.is_integer() else value, unit)
        return out

    def write(self, path: str) -> None:
        """Spans as JSON lines, then one line of folded CharFn time per parent."""
        with open(path, "w") as fh:
            for sid, name, parent, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent,
                                     "start_ns": t0, "end_ns": t1}) + "\n")
            fh.write(json.dumps({"folded": "haagerup.CharFn.__call__",
                                 "by_parent": {str(k): v for k, v in self.folded.items()}}) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
