"""In-memory span recorder that wraps dixlab's public functions from
outside the package.

Every public function and public method defined in the traced modules
is replaced by a wrapper in each dixlab namespace that binds it (a
module that did ``from .sequences import log_average`` holds its own
reference, which patching the defining module alone would miss).  A
span stack turns raw durations into self time: each span's duration
minus the time of the spans it caused, so self times add up to the
root span and nothing is counted twice.
"""

import functools
import inspect
import sys
import time

import numpy as np

TRACED_MODULES = ("kernels", "models", "sequences", "estimators", "maps",
                  "cli")


class Tracer:
    """Collects calls, self time and kernel input elements per span.

    record maps a span name to a function of its return value; what it
    returns is kept in ``recorded[name]`` (used for spectrum sizes)."""

    def __init__(self, record=None):
        self.stats = {}  # name -> [calls, self_s, elems]
        self.recorded = {name: [] for name in (record or {})}
        self._record = dict(record or {})
        self._stack = []  # per open span: time spent in its children
        self._patches = []  # (owner, attribute, original)

    def _open(self):
        self._stack.append(0.0)
        return time.perf_counter()

    def _close(self, stats, t0):
        """Ends the innermost span; charges its duration to the parent
        and its self time to stats.  Returns the duration."""
        total = time.perf_counter() - t0
        inner = self._stack.pop()
        if self._stack:
            self._stack[-1] += total
        stats[0] += 1
        stats[1] += total - inner
        return total

    def _wrap(self, name, fn, count_elems):
        stats = self.stats.setdefault(name, [0, 0.0, 0])
        keep = self._record.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(stats, t0)
            if count_elems:
                n = sum(a.size for a in args if isinstance(a, np.ndarray))
                stats[2] += n or np.size(result)
            if keep is not None:
                self.recorded[name].append(keep(result))
            return result

        return wrapper

    def span(self, name):
        """Context manager for a span around the benchmark's own code."""
        return _Span(self, name)

    def install(self):
        package = sys.modules["dixlab"]
        namespaces = [m for n, m in sys.modules.items()
                      if n == "dixlab" or n.startswith("dixlab.")]
        for short in TRACED_MODULES:
            module = getattr(package, short)
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_"):
                    continue
                own = getattr(obj, "__module__", None) == module.__name__
                if inspect.isfunction(obj) and own:
                    wrapper = self._wrap("%s.%s" % (short, attr), obj,
                                         short == "kernels")
                    for ns in namespaces:
                        for bound, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, bound, wrapper)
                elif inspect.isclass(obj) and own:
                    for meth, fn in sorted(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        name = "%s.%s.%s" % (short, attr, meth)
                        self._patch(obj, meth, self._wrap(name, fn, False))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.stats = tracer.stats.setdefault(name, [0, 0.0, 0])

    def __enter__(self):
        self.t0 = self.tracer._open()
        return self

    def __exit__(self, *exc):
        self.total = self.tracer._close(self.stats, self.t0)
        return False
