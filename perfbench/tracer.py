"""Span tracer that wraps knotrank's public functions from outside the package.

Installing the tracer replaces every public function of the traced
modules, and every public or arithmetic method of the classes they
define, with a timing wrapper.  A function is replaced at every module
attribute that refers to it (``characters.rank_int`` as well as
``seifert.rank_int``, and the re-exports in ``knotrank``), and methods
are replaced on their class, so each call is seen whichever name the
caller used.  ``uninstall`` puts every original object back.

Spans are (name, start, end, parent) and stay in memory until ``write``.
A span's self time is its duration minus the durations of its direct
children; calls are synchronous, so children never overlap.
"""

from __future__ import annotations

import inspect
import time
from array import array
from collections import defaultdict
from pathlib import Path

# Operator methods worth a span; other dunders (__init__, __eq__, ...)
# are too fine-grained to attribute and are left alone.
_ARITHMETIC = frozenset(
    {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__pow__", "__neg__"}
)


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self, package, layers) -> None:
        """``package`` is the imported top-level module; ``layers`` its traced submodules."""
        self._package = package
        self._layers = list(layers)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ----------------------------------------------------------

    def _targets(self):
        """(owner, attribute, raw object, callable, span name) for each traced function."""
        for module in self._layers:
            short = _short(module.__name__)
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield module, name, obj, obj, f"{short}.{name}"
                elif inspect.isclass(obj):
                    for attr, raw in vars(obj).items():
                        if attr.startswith("_") and attr not in _ARITHMETIC:
                            continue
                        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                        if inspect.isfunction(fn):
                            yield obj, attr, raw, fn, f"{short}.{fn.__qualname__}"

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        name_id = self._intern(name)
        stack = self._stack
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers: dict[int, object] = {}
        targets = list(self._targets())
        for owner, attr, raw, fn, name in targets:
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn, name)
        # The same function object may also sit on other modules of the
        # package under an imported name; patch it there too.
        modules = [self._package, *self._layers]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patch(module, attr, obj, wrappers[id(obj)])
        for owner, attr, raw, fn, _ in targets:
            if inspect.isclass(owner):
                wrapper = wrappers[id(fn)]
                if isinstance(raw, classmethod):
                    wrapper = classmethod(wrapper)
                elif isinstance(raw, staticmethod):
                    wrapper = staticmethod(wrapper)
                self._patch(owner, attr, raw, wrapper)

    def _patch(self, owner, attr: str, original, replacement) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- spans ---------------------------------------------------------------

    def root_span(self, name: str) -> "_RootSpan":
        """Context manager for a span the caller opens, e.g. one operation."""
        return _RootSpan(self, self._intern(name))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls and total self time in seconds."""
        child_time = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i, name_id in enumerate(self.span_name):
            name = self.names[name_id]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - child_time[i]
        return {name: {"calls": calls[name], "self_s": self_s[name]} for name in calls}

    def write(self, path: Path) -> None:
        """Write every span as CSV: name, start, end, parent index (-1 for none)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, name_id in enumerate(self.span_name):
                fh.write(
                    f"{i},{self.names[name_id]},{self.start[i]!r},{self.end[i]!r},{self.parent[i]}\n"
                )


class _RootSpan:
    def __init__(self, tracer: Tracer, name_id: int) -> None:
        self._tracer = tracer
        self._name_id = name_id

    def __enter__(self) -> None:
        t = self._tracer
        t.span_name.append(self._name_id)
        t.parent.append(t._stack[-1])
        t.end.append(0.0)
        t._stack.append(len(t.start))
        t.start.append(time.perf_counter())

    def __exit__(self, *exc) -> None:
        t = self._tracer
        t.end[t._stack.pop()] = time.perf_counter()
