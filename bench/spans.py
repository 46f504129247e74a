"""Spans around the public functions at ptspec's module boundaries.

The tracer replaces a function by a wrapper in every loaded ptspec module
that holds a reference to it (so ``from .eigen import solve_spectrum`` in
``cli`` is covered too) and restores the originals on uninstall.  A target
that no longer exists is recorded as absent and skipped.

Spans are kept in memory as (name, start, end, parent) and aggregated when
a round ends: a span's self time is its duration minus that of its direct
children.
"""

import functools
import inspect
import sys
import time

import numpy as np

# span name -> (module, public functions); the layers are ptspec's modules
TARGETS = {
    "cli.main": ("ptspec.cli", ["main"]),
    "contour.build_hamiltonian": ("ptspec.contour", ["build_hamiltonian"]),
    "eigen.eigensolve": ("ptspec.eigen", ["eig_dense"]),
    "eigen.classify_spectrum": ("ptspec.eigen", ["classify_spectrum"]),
    "eigen.pt_defect": ("ptspec.eigen", ["pt_defect"]),
    "eigen.solve_spectrum": ("ptspec.eigen", ["solve_spectrum"]),
    "eigen.match_spectra": ("ptspec.eigen", ["match_spectra"]),
    "eigen.scan_parameter": ("ptspec.eigen", ["scan_parameter"]),
    "models.levels": ("ptspec.models", ["ptho_levels", "termination_levels"]),
    "models.wavefunction": ("ptspec.models",
                            ["ptho_wavefunction", "angular_wavefunction"]),
    "specfun": ("ptspec.specfun",
                ["laguerre", "gegenbauer", "gegenbauer_is_degenerate",
                 "gegenbauer_renormalized", "hyp2f1", "cpow"]),
}
FAMILY_SPAN = "eigen.scan.family"

# per-layer metric -> unit; every traced run reports all of them
METRICS = {
    "eigen.eigensolve.s": "s",
    "eigen.eigensolve.calls": "count",
    "eigen.eigensolve.order_sum": "count",
    "contour.build_hamiltonian.s": "s",
    "contour.operator_bytes": "B",
    "eigen.scan.family_calls": "count",
    "eigen.scan.refine_calls": "count",
    "eigen.scan_parameter.self_s": "s",
    "eigen.classify_spectrum.s": "s",
    "eigen.pt_defect.s": "s",
    "eigen.pt_defect.calls": "count",
    "eigen.solve_spectrum.self_s": "s",
    "eigen.match_spectra.s": "s",
    "models.levels.s": "s",
    "models.wavefunction.s": "s",
    "specfun.s": "s",
    "specfun.calls": "count",
    "cli.main.self_s": "s",
    "cli.output_bytes": "B",
    "trace.overhead_pct": "%",
}


def _nbytes(obj, depth=0):
    """Bytes of the arrays an object holds (the computed operator size)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if depth > 1:
        return 0
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(x, depth + 1) for x in obj)
    if hasattr(obj, "__dict__"):
        return sum(_nbytes(x, depth + 1) for x in vars(obj).values())
    return 0


def _order(operator):
    """Matrix order of an eigensolver's input, or 0 if it cannot be told."""
    order = getattr(operator, "order", None)
    if order is None:
        shape = getattr(operator, "shape", None)
        order = shape[0] if shape else 0
    return int(order)


class Tracer:
    def __init__(self):
        self.absent = []
        self._saved = []          # (module, attribute, original)
        self.reset()

    def reset(self):
        self.spans = []           # [name, start, end, parent index]
        self.counts = {"order_sum": 0, "operator_bytes": 0,
                       "family_calls": 0, "refine_calls": 0}
        self._stack = []

    # -- spans -----------------------------------------------------------
    def _enter(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def _exit(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, fn, name, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    # -- hooks that record counts at the boundaries ----------------------
    def _after_build(self, args, kwargs, result):
        self.counts["operator_bytes"] = max(self.counts["operator_bytes"],
                                            _nbytes(result))

    def _after_eig(self, args, kwargs, result):
        operator = args[0] if args else next(iter(kwargs.values()), None)
        self.counts["order_sum"] += _order(operator)

    def _wrap_scan(self, fn):
        """scan_parameter with its spectrum family traced and counted:
        a call at a parameter off the sweep grid is a refinement call."""
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            signature = None
        traced_scan = self.wrap(fn, "eigen.scan_parameter")
        if signature is None or not {"spectrum_fn", "lo", "hi", "steps"} <= set(
                signature.parameters):
            self.absent.append(FAMILY_SPAN)
            return traced_scan

        @functools.wraps(fn)
        def scan(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            family = bound.arguments["spectrum_fn"]
            grid = {float(p) for p in np.linspace(
                float(bound.arguments["lo"]), float(bound.arguments["hi"]),
                int(bound.arguments["steps"]))}
            traced_family = self.wrap(family, FAMILY_SPAN)

            def counted(param):
                self.counts["family_calls"] += 1
                if float(param) not in grid:
                    self.counts["refine_calls"] += 1
                return traced_family(param)
            bound.arguments["spectrum_fn"] = counted
            return traced_scan(*bound.args, **bound.kwargs)
        return scan

    # -- install / uninstall ---------------------------------------------
    def install(self):
        self.absent = []
        hooks = {"contour.build_hamiltonian": self._after_build,
                 "eigen.eigensolve": self._after_eig}
        for name, (module_name, functions) in TARGETS.items():
            module = sys.modules.get(module_name)
            for attr in functions:
                original = getattr(module, attr, None)
                if not callable(original):
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                if name == "eigen.scan_parameter":
                    wrapper = self._wrap_scan(original)
                else:
                    wrapper = self.wrap(original, name, hooks.get(name))
                self._replace(original, wrapper)

    def _replace(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "ptspec" or mod_name.startswith("ptspec.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved = []

    # -- aggregation -------------------------------------------------------
    def summary(self):
        """Totals of one traced round: inclusive and self seconds and calls
        per span name, plus the boundary counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        total, self_s, calls = {}, {}, {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            total[name] = total.get(name, 0.0) + end - start
            self_s[name] = self_s.get(name, 0.0) + end - start - child[i]
            calls[name] = calls.get(name, 0) + 1
        return {"total": total, "self": self_s, "calls": calls,
                "counts": dict(self.counts)}


def layer_metrics(summary, output_bytes):
    """The per-layer metrics of one traced round."""
    t, s, n, c = (summary["total"], summary["self"], summary["calls"],
                  summary["counts"])
    return {
        "eigen.eigensolve.s": t.get("eigen.eigensolve", 0.0),
        "eigen.eigensolve.calls": n.get("eigen.eigensolve", 0),
        "eigen.eigensolve.order_sum": c["order_sum"],
        "contour.build_hamiltonian.s": t.get("contour.build_hamiltonian", 0.0),
        "contour.operator_bytes": c["operator_bytes"],
        "eigen.scan.family_calls": c["family_calls"],
        "eigen.scan.refine_calls": c["refine_calls"],
        "eigen.scan_parameter.self_s": s.get("eigen.scan_parameter", 0.0),
        "eigen.classify_spectrum.s": t.get("eigen.classify_spectrum", 0.0),
        "eigen.pt_defect.s": t.get("eigen.pt_defect", 0.0),
        "eigen.pt_defect.calls": n.get("eigen.pt_defect", 0),
        "eigen.solve_spectrum.self_s": s.get("eigen.solve_spectrum", 0.0),
        "eigen.match_spectra.s": t.get("eigen.match_spectra", 0.0),
        "models.levels.s": t.get("models.levels", 0.0),
        "models.wavefunction.s": t.get("models.wavefunction", 0.0),
        "specfun.s": t.get("specfun", 0.0),
        "specfun.calls": n.get("specfun", 0),
        "cli.main.self_s": s.get("cli.main", 0.0),
        "cli.output_bytes": output_bytes,
    }
