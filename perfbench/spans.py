"""In-memory timing spans around the public functions of the betatails layers.

A Tracer finds every public function defined in the layer modules and
builds one timing wrapper for each. install() rebinds every module-level
name that refers to such a function, in the layer modules and in the
package itself, so re-exports such as `bounds.regularized_incomplete_beta`
or `chernoff.log_kummer_1f1` are timed too, and so is the function-local
`from .chernoff import cgf` in bounds, which resolves at call time.
uninstall() restores the originals.

Where a function calls itself (the Kummer transform for negative t, the
LOWER -> UPPER swap, log_gamma's argument shift) only the outermost call
opens a span and counts. A span's self time is its duration minus the time
covered by its child spans. Spans stay in memory until write_csv().
"""

from __future__ import annotations

import functools
import gzip
import inspect
import time

_now = time.perf_counter_ns


class Tracer:
    def __init__(self, package, layers, observe=None):
        """`layers` maps a short layer name to its module; `observe` maps a
        span name to a function of the call's result whose truth is tallied."""
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.tallies: list[int] = []
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.op = 0
        self._stack: list[list[int]] = []
        self._next_id = 0
        observe = observe or {}

        wrappers = {}
        for layer, module in layers.items():
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = self._wrap(name, obj, observe.get(name))
        self._patches = []
        for module in (package, *layers.values()):
            for attr, obj in vars(module).items():
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((module, attr, obj, wrapper))

    def index(self, name: str) -> int:
        return self.names.index(name)

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def _wrap(self, name, func, observe):
        idx = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_ns.append(0)
        self.tallies.append(0)
        stack = self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == idx:
                return func(*args, **kwargs)
            self._next_id += 1
            frame = [idx, self._next_id, 0, 0]  # index, span id, start, child ns
            stack.append(frame)
            frame[2] = _now()
            try:
                result = func(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                duration = end - frame[2]
                parent = 0
                if stack:
                    stack[-1][3] += duration
                    parent = stack[-1][1]
                self.calls[idx] += 1
                self.self_ns[idx] += duration - frame[3]
                self.spans.append((frame[1], parent, self.op, idx, frame[2], end))
            if observe is not None and observe(result):
                self.tallies[idx] += 1
            return result

        return wrapper

    def nested_calls(self, child: str, ancestor: str) -> int:
        """Spans of `child` that have a span of `ancestor` above them."""
        child_idx, ancestor_idx = self.index(child), self.index(ancestor)
        parent_of = {sid: (parent, idx) for sid, parent, _, idx, _, _ in self.spans}
        count = 0
        for sid, parent, _, idx, _, _ in self.spans:
            if idx != child_idx:
                continue
            while parent:
                parent, up_idx = parent_of[parent]
                if up_idx == ancestor_idx:
                    count += 1
                    break
        return count

    def write_csv(self, path) -> None:
        """All spans as gzip CSV: span, parent (0 = none), op, name, start/end ns."""
        with gzip.open(path, "wt", encoding="utf-8", newline="\n") as fh:
            fh.write("span,parent,op,name,start_ns,end_ns\n")
            for sid, parent, op, idx, start, end in self.spans:
                fh.write(f"{sid},{parent},{op},{self.names[idx]},{start},{end}\n")
