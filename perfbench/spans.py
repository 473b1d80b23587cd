"""Per-layer spans recorded from the benchmark's side of the program.

``Tracer.install()`` replaces each listed horocorr function with a timing
wrapper wherever a ``horocorr.*`` module binds it (``cli``, ``verify`` and
``analysis`` import by name, so patching only the defining module would miss
their calls) and wraps the public methods of the chart classes.  Nothing in
``src/`` changes.  A listed name that the program no longer has is recorded
in ``Tracer.absent`` instead of failing the run, so later commits may batch,
rename or delete code without editing the benchmark.

Each span is named ``<module>.<stage>`` and accumulates calls, points (the
leading-axis length of the point argument: a single chart point counts 1, a
batched ``(m, n)`` array counts m), total time and self time (total minus
the time of child spans).  A call that re-enters the span it is already in,
such as a chart method calling another chart method, is folded into the
outer call.
"""

import functools
import sys
import time

import numpy as np


def _one(args, kwargs):
    return 1


def _arg(index, name):
    """Point count from the leading axis of one argument."""

    def count(args, kwargs):
        x = args[index] if len(args) > index else kwargs.get(name)
        return int(np.shape(x)[0]) if np.ndim(x) >= 2 else 1

    return count


def _samples(args, kwargs):
    x = args[0]
    faces = getattr(x, "faces", None)
    return len(faces) if faces is not None else len(x.phi)


def _jet_route(args, kwargs):
    field = args[0] if args else kwargs["field"]
    analytic = field.gradient is not None and field.hessian is not None
    return "sphere.jets.analytic" if analytic else "sphere.jets.fd"


# (defining module, attribute, span name or callable choosing it, points)
FUNCTIONS = (
    ("sphere", "gradient_hessian", _jet_route, _arg(2, "u")),
    ("conformal", "schouten", "conformal.schouten", _arg(1, "u")),
    ("conformal", "realizability_report", "conformal.realizability_report",
     lambda a, k: len(a[1] if len(a) > 1 else k["samples"])),
    ("conformal", "path_length", "conformal.path_length", _one),
    ("correspondence", "immerse", "correspondence.immerse", _arg(1, "u")),
    ("correspondence", "extrinsic_curvatures",
     "correspondence.extrinsic_curvatures", _arg(1, "u")),
    ("correspondence", "lambda_kappa", "correspondence.dictionary",
     _arg(0, "value")),
    ("correspondence", "ricatti", "correspondence.dictionary", _arg(0, "kappa")),
    ("correspondence", "flow_metric_factor", "correspondence.dictionary",
     _arg(0, "kappa")),
    ("correspondence", "fg_metric", "correspondence.fg_metric", _arg(1, "u")),
    ("minkowski", "mink_inner", "minkowski.mink_inner", _arg(0, "u")),
    ("minkowski", "to_poincare_ball", "minkowski.to_poincare_ball",
     _arg(0, "v")),
    ("analysis", "_curve_crossings", "analysis.scan.curve", _samples),
    ("analysis", "_mesh_crossings", "analysis.scan.mesh", _samples),
    ("analysis", "first_embedded_time", "analysis.first_embedded_time",
     _samples),
    ("analysis", "gauss_winding", "analysis.gauss_winding", _samples),
    ("analysis", "boundary_at_infinity", "analysis.boundary_at_infinity", _one),
    ("analysis", "make_example", "analysis.gallery", _one),
    ("analysis", "profile_curve", "analysis.gallery", _one),
    ("analysis", "product_mesh", "analysis.gallery", _one),
    ("weingarten", "hr_inequality", "weingarten.hr_inequality", _arg(0, "a")),
    ("weingarten", "t_map", "weingarten.t_map", _arg(0, "x")),
    ("weingarten", "hessian_transform", "weingarten.hessian_transform", _one),
)

CHART_CLASSES = ("BandChart", "StereographicChart")
CHART_METHODS = ("contains", "embed", "jacobian", "metric", "metric_inverse",
                 "christoffels")
CHART_SPAN = "sphere.chart"

SPAN_NAMES = tuple(dict.fromkeys(
    ["sphere.chart", "sphere.jets.analytic", "sphere.jets.fd"]
    + [span for _, _, span, _ in FUNCTIONS if isinstance(span, str)]))


class SpanStats:
    __slots__ = ("calls", "points", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.points = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Span recorder; ``install()`` patches the program, ``uninstall()``
    restores every binding it replaced."""

    def __init__(self):
        self.stats = {name: SpanStats() for name in SPAN_NAMES}
        self.absent = []
        self._stack = []      # [span name, child seconds] of open spans
        self._undo = []       # (owner, attribute, original)

    def _wrap(self, fn, span, points):
        stack, stats = self._stack, self.stats
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = span if isinstance(span, str) else span(args, kwargs)
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                record = stats[name]
                record.calls += 1
                record.points += points(args, kwargs)
                record.total_s += elapsed
                record.self_s += elapsed - frame[1]

        return wrapper

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "horocorr" or name.startswith("horocorr.")]
        for module_name, attr, span, points in FUNCTIONS:
            home = sys.modules.get(f"horocorr.{module_name}")
            original = getattr(home, attr, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, span, points)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, name, wrapper)
        sphere = sys.modules.get("horocorr.sphere")
        for cls_name in CHART_CLASSES:
            cls = getattr(sphere, cls_name, None)
            if cls is None:
                self.absent.append(f"sphere.{cls_name}")
                continue
            for method in CHART_METHODS:
                original = cls.__dict__.get(method)
                if not callable(original):
                    self.absent.append(f"sphere.{cls_name}.{method}")
                    continue
                self._replace(cls, method,
                              self._wrap(original, CHART_SPAN, _arg(1, "u")))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
