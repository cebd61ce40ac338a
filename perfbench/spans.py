"""In-memory spans around the calls into each layer of ``noricert``.

The traced run patches the package from outside: every public function
named in a module's ``__all__`` (or, for ``family``, every public function
the module defines), plus ``FamilyParams.build`` and ``cli.emit_report``,
is replaced by a wrapper that records a span.  The wrapper is bound in
every ``noricert`` module namespace that holds the original object, so
calls from ``disktrace`` into ``certify`` and ``atlas`` are captured too.

The arithmetic primitives are leaf spans: while one is open, nested calls
into arithmetic run unrecorded and count towards the outer primitive.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 for none); all spans of one run share its run id.  The
self time of a span is its duration minus the durations of its children,
so the self times of all spans sum to the duration of the root span.
"""

import functools
import importlib
import inspect
import json
import time

LAYERS = ("arith", "family", "certify", "atlas", "disktrace", "cli")

# Arithmetic primitives: (span name, attribute path inside noricert.arith).
ARITH_PRIMITIVES = (
    ("arith.poly_mul", "Poly.__mul__"),
    ("arith.poly_divmod", "Poly.__divmod__"),
    ("arith.horner", "Poly.__call__"),
    ("arith.eval_scaled", "eval_scaled"),
    ("arith.poly_gcd", "poly_gcd"),
)

# Public entry points that are not listed in their module's __all__.
EXTRA = {"family": ("FamilyParams.build",), "cli": ("emit_report",)}

ROOT = "cli.workload"

# spans whose return values are kept, for counts read from the objects
KEEP = ("family.build_family",)

_clock = time.perf_counter


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.kept = {}
        self.patched = set()
        self.absent = []
        self._stack = []
        self._in_leaf = False
        self._undo = []

    def wrap(self, name: str, fn, *, leaf: bool = False, keep: bool = False):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_leaf:
                return fn(*args, **kwargs)
            record = [name, _clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            self._in_leaf = leaf
            try:
                result = fn(*args, **kwargs)
            finally:
                self._in_leaf = False
                stack.pop()
                record[2] = _clock()
            if keep:
                self.kept.setdefault(name, []).append(result)
            return result

        return wrapper

    # -- patching ---------------------------------------------------------

    def _patch(self, name: str, owner, attr: str, namespaces, **wrap_kwargs) -> None:
        """Replace ``owner.attr`` by a traced wrapper wherever it is bound."""
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        is_classmethod = isinstance(raw, classmethod)
        original = raw.__func__ if is_classmethod else raw
        if not callable(original):
            self.absent.append(name)
            return
        wrapper = self.wrap(name, original, **wrap_kwargs)
        bound = classmethod(wrapper) if is_classmethod else wrapper
        for namespace in [owner] if isinstance(owner, type) else namespaces:
            for key, value in list(vars(namespace).items()):
                if value is raw:
                    self._undo.append((namespace, key, value))
                    setattr(namespace, key, bound)
        self.patched.add(name)

    def install(self) -> None:
        """Patch every traced entry point of the imported ``noricert``."""
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"noricert.{layer}")
            except ImportError:
                continue
        namespaces = [importlib.import_module("noricert"), *modules.values()]

        def locate(layer, path):
            owner = modules.get(layer)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            return owner, attr

        for name, path in ARITH_PRIMITIVES:
            owner, attr = locate("arith", path)
            self._patch(name, owner, attr, namespaces, leaf=True)
        for layer in LAYERS[1:]:
            module = modules.get(layer)
            if module is None:
                self.absent.append(f"{layer}.*")
                continue
            public = getattr(module, "__all__", None) or [
                n for n in vars(module) if not n.startswith("_")
            ]
            # a function is traced in the module that defines it
            names = [
                n
                for n in public
                if inspect.isfunction(getattr(module, n, None))
                and getattr(module, n).__module__ == module.__name__
            ]
            extra = [p for p in EXTRA.get(layer, ()) if p not in names]
            for path in [*names, *extra]:
                owner, attr = locate(layer, path)
                name = f"{layer}.{path}"
                self._patch(name, owner, attr, namespaces, keep=name in KEEP)

    def uninstall(self) -> None:
        while self._undo:
            namespace, key, value = self._undo.pop()
            setattr(namespace, key, value)

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict:
        """``{span name: (calls, self seconds)}`` over all recorded spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            calls, seconds = stats.get(name, (0, 0.0))
            stats[name] = (calls + 1, seconds + (end - start) - inner)
        return stats

    def write(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            head = {"run": self.run_id, "absent": self.absent, **header}
            handle.write(json.dumps(head) + "\n")
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([self.run_id, name, start, end, parent]) + "\n")
