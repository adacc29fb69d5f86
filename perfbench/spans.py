"""Span tracing of the ospboson modules, from outside the program.

``Tracer.install()`` wraps the public functions of every module (and a few
hot methods) and rebinds *every* name that refers to one of them: modules
import by name (``freefield.qpoch_eval``, ``relations.theta_eval``, ...), so
patching only the defining module would miss most calls.  ``unbound()``
then asks the garbage collector for any remaining reference to an original
function outside the wrappers, which would be a binding the patch missed.

Spans (name, start, end, parent) are kept in flat arrays in memory and
written out by ``dump``.  Self time is a span's duration minus the
durations of its direct children, accumulated as spans close.
"""

import gc
import importlib
import inspect
import json
import time
from array import array

MODULES = ("scalars", "series", "theta", "freefield", "relations", "hopf",
           "degeneration", "cli")

# (module, class, attribute, span name)
METHODS = (
    ("series", "TruncatedSeries", "__mul__", "series.mul"),
    ("series", "TruncatedSeries", "__rmul__", "series.mul"),
    ("series", "TruncatedSeries", "exp", "series.exp"),
    ("series", "TruncatedSeries", "log", "series.log"),
    ("series", "TruncatedSeries", "invert", "series.invert"),
    ("freefield", "Kernel", "eval_product", "freefield.eval_product"),
    ("freefield", "Kernel", "near_singular", "freefield.near_singular"),
    ("freefield", "Kernel", "series", "freefield.series"),
    ("freefield", "Kernel", "series_from_closed_form",
     "freefield.series_from_closed_form"),
    ("hopf", "TensorExpr", "canonical", "hopf.canonical"),
    ("hopf", "TensorExpr", "__mul__", "hopf.mul"),
)

# private functions that carry a count no public function exposes
PRIVATE = (
    ("relations", "_sample_x", "relations.sample_x"),   # one accepted point
)


class Tracer:
    def __init__(self):
        self.names = []          # span-name id -> name
        self._ids = {}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = []
        self.total_s = []
        self.self_s = []
        self.terms = {}          # name -> summed work count
        self._stack = []
        self._patched = []       # (namespace, attribute, original)
        self._originals = []
        self._cells = set()
        self._term_cache = {}

    # -- recording -------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
        return self._ids[name]

    def wrap(self, name, fn, count=None):
        """``fn`` recording a span ``name`` per call; ``count(*args)`` adds to ``terms``."""
        nid = self._name_id(name)
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        terms = self.terms
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1][0] if stack else -1)
            span_start.append(0.0)
            span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                span_start[idx] = t0
                span_end[idx] = t1
                calls[nid] += 1
                total_s[nid] += d
                self_s[nid] += d - frame[1]
                if stack:
                    stack[-1][1] += d
                if count is not None:
                    terms[name] = terms.get(name, 0) + count(*args, **kwargs)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        self._cells.update(id(c) for c in wrapper.__closure__)
        return wrapper

    def _qpoch_terms(self, theta_terms_needed):
        import mpmath as mp

        cache = self._term_cache

        def count(a, q, digits, terms=None):
            if terms is not None:
                return terms
            key = (q, digits)
            if key not in cache:
                cache[key] = theta_terms_needed(abs(mp.mpc(q)), digits)
            return cache[key]
        self._cells.update(id(c) for c in count.__closure__)
        return count

    # -- patching --------------------------------------------------------

    def install(self):
        """Wrap and rebind; returns self.  ``uninstall`` restores."""
        mods = {m: importlib.import_module("ospboson." + m) for m in MODULES}
        package = importlib.import_module("ospboson")
        namespaces = [package] + list(mods.values())
        wrapped = {}   # id(original) -> wrapper
        counters = {"theta.qpoch_eval": self._qpoch_terms(
            mods["theta"].theta_terms_needed)}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = "%s.%s" % (short, attr)
                wrapped[id(obj)] = self.wrap(name, obj, counters.get(name))
                self._originals.append(obj)
        for short, attr, name in PRIVATE:
            obj = getattr(mods[short], attr)
            wrapped[id(obj)] = self.wrap(name, obj)
            self._originals.append(obj)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._patch(ns, attr, wrapped[id(obj)])
        for short, cls_name, attr, name in METHODS:
            cls = getattr(mods[short], cls_name)
            orig = cls.__dict__[attr]
            if isinstance(orig, property):
                new = property(self.wrap(name, orig.fget), orig.fset,
                               orig.fdel, orig.__doc__)
                self._originals.append(orig.fget)
            else:
                if id(orig) not in wrapped:
                    wrapped[id(orig)] = self.wrap(name, orig)
                    self._originals.append(orig)
                new = wrapped[id(orig)]
            self._patch(cls, attr, new)
        return self

    def _patch(self, ns, attr, new):
        self._patched.append((ns, attr, vars(ns)[attr]))
        setattr(ns, attr, new)

    def uninstall(self):
        for ns, attr, orig in reversed(self._patched):
            setattr(ns, attr, orig)
        self._patched.clear()

    def unbound(self):
        """Names of wrapped functions still referenced outside the wrappers.

        Call while installed; after ``uninstall`` every original is bound again.
        """
        gc.collect()
        own = {id(self._originals), id(self._patched)}
        for entry in self._patched:
            own.update((id(entry), id(entry[2])))
        missed = set()
        for orig in self._originals:
            for ref in gc.get_referrers(orig):
                if id(ref) in own or id(ref) in self._cells:
                    continue
                if inspect.isframe(ref):
                    continue
                missed.add("%s.%s" % (orig.__module__, orig.__qualname__))
        return sorted(missed)

    # -- results ---------------------------------------------------------

    def metric(self, name, field):
        """``calls``, ``self_s`` or ``terms`` of one span name (0 if unseen)."""
        if field == "terms":
            return self.terms.get(name, 0)
        nid = self._ids.get(name)
        if nid is None:
            return 0
        return {"calls": self.calls, "self_s": self.self_s}[field][nid]

    def table(self):
        rows = [(self.names[i], self.calls[i], self.total_s[i], self.self_s[i])
                for i in range(len(self.names)) if self.calls[i]]
        return sorted(rows, key=lambda r: -r[3])

    def dump(self, path):
        """Write every span as [name, parent index, start, end]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": self.names,
                "fields": ["name", "parent", "start", "end"],
                "spans": [list(s) for s in zip(self.span_name, self.span_parent,
                                               self.span_start, self.span_end)],
            }, fh)
