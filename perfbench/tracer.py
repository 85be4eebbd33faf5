"""Spans around the engine's public functions, recorded from outside.

``Tracer.install`` replaces every public function and public method of
the traced modules with a wrapper that records one span per call: name,
start, end, parent span, and the root span of the request. Every loaded
``neartag`` module that holds the same function object gets the wrapper,
so calls made through a name imported into another module are traced
too. Spans stay in memory in flat arrays until ``save``, as long as
``recording`` is true; the totals below are kept either way.

Self time (a span's duration minus the time its child spans cover) and
call counts are totalled as spans close; ``window`` hands the totals
since the previous window to the caller and starts new ones, so each
phase or pass of a run gets its own figures. Observers read counts off
the values that functions return (graph sizes, walk iterations, missing
keyword ids).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from dataclasses import dataclass, field

PACKAGE = "neartag"
TRACED_MODULES = ("fvec", "index", "keywords", "lexicon", "analysis", "annotator")
SAMPLED = frozenset({"index.VectorIndex.knn"})  # spans whose per-call self time is kept


@dataclass
class Window:
    """Totals for the spans that closed between two ``window`` calls."""

    self_s: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)  # self time per call, SAMPLED only
    spans: int = 0


def _count(counts: dict, key: str, value: float) -> None:
    counts[key] = counts.get(key, 0.0) + value


def _observe_missing(result, counts):
    _count(counts, "missing", result[1])


def _observe_senses(result, counts):
    if not result:
        _count(counts, "oov", 1)


def _observe_graph(result, counts):
    _count(counts, "graph_nodes", len(result.nodes))
    _count(counts, "graph_edges", len(result.edges))


def _observe_walk(result, counts):
    _count(counts, "walks", 1)
    _count(counts, "walk_iterations", result.iterations)
    _count(counts, "walk_unconverged", 0 if result.converged else 1)
    counts["walk_mass_error"] = max(counts.get("walk_mass_error", 0.0), float(result.max_mass_error))


def _observe_annotation(result, counts):
    _count(counts, "no_signal", 1 if result.no_keyword_signal else 0)


OBSERVERS = {
    "annotator.gather_neighbor_words": _observe_missing,
    "lexicon.Lexicon.senses": _observe_senses,
    "analysis.build_graph": _observe_graph,
    "analysis.propagate": _observe_walk,
    "annotator.annotate_from_words": _observe_annotation,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        # One row per closed span, in closing order.
        self.span_id = array("q")
        self.name = array("i")
        self.parent = array("q")
        self.root = array("q")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self._next_id = 0
        self._stack: list[list] = []  # [span id, root id, child time]
        self._window = Window()
        self._patches: list[tuple[object, str, object]] = []
        self.wrapped: set[str] = set()
        self.observer_errors: set[str] = set()  # spans whose return value an observer could not read
        self.recording = True

    # -- installing wrappers ----------------------------------------------

    def install(self) -> None:
        """Wrap the public functions and methods defined in the traced modules."""
        originals: dict[int, tuple[object, str]] = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"{PACKAGE}.{short}"]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    originals[id(value)] = (value, f"{short}.{attr}")
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    for meth, fn in list(vars(value).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            name = f"{short}.{attr}.{meth}"
                            self._patch(value, meth, self._wrap(name, fn))
        wrappers = {key: self._wrap(name, fn) for key, (fn, name) in originals.items()}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and value is originals[id(value)][0]:
                    self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _code(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return code

    def _wrap(self, name: str, fn):
        self.wrapped.add(name)
        code = self._code(name)
        observe = OBSERVERS.get(name)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id = sid + 1
            if stack:
                parent, root = stack[-1][0], stack[-1][1]
            else:
                parent, root = -1, sid
            frame = [sid, root, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][2] += duration
                tracer._close(sid, code, parent, root, start, end, duration - frame[2])
            if observe is not None:
                try:
                    observe(result, tracer._window.counts)
                except (AttributeError, TypeError, IndexError):
                    tracer.observer_errors.add(name)  # its counts are reported as absent
            return result

        return wrapper

    def _close(self, sid, code, parent, root, start, end, own):
        if self.recording:
            self.span_id.append(sid)
            self.name.append(code)
            self.parent.append(parent)
            self.root.append(root)
            self.start.append(start)
            self.end.append(end)
            self.self_time.append(own)
        name = self.names[code]
        window = self._window
        window.self_s[name] = window.self_s.get(name, 0.0) + own
        window.calls[name] = window.calls.get(name, 0) + 1
        window.spans += 1
        if name in SAMPLED:
            window.samples.setdefault(name, []).append(own)

    # -- reading results ----------------------------------------------------

    def window(self) -> Window:
        """Totals since the previous call; starts a new window."""
        done, self._window = self._window, Window()
        return done

    def save(self, path: str) -> None:
        """Write the recorded spans as tab-separated lines: id, name, parent, root, start, end, self."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tparent\troot\tstart_s\tend_s\tself_s\n")
            names = self.names
            for i in range(len(self.span_id)):
                fh.write(f"{self.span_id[i]}\t{names[self.name[i]]}\t{self.parent[i]}\t{self.root[i]}"
                         f"\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.self_time[i]:.9f}\n")
