"""Span tracing of oamlink from outside the program.

``Tracer.install`` wraps every public function of the layer modules and
rebinds the wrapper at each place that names the original: the defining
module (so ``propagate_to`` reaches the traced ``propagate``), every module
that imported it by name (``scenario`` imports ``propagate_to``), and the
package namespace.  Each call records one span
``[name, start, end, parent, probe]``; spans stay in memory until the
worker writes them out once at the end of the pass.  Each wrapper also
times its own work before and after the call it wraps; ``Tracer.own_s`` is
that time summed over the pass, the tracing overhead.

``layer_stats`` turns the spans of one pass into per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

LAYER_MODULES = ("beams", "propagation", "analysis", "rxchain", "scenario",
                 "bessel", "link_design")

NAME, START, END, PARENT, PROBE = range(5)


def _propagate_probe(fn):
    """(side, extent, wavelength, dz) of one ``propagate`` call: the key a
    transfer-function cache would use."""
    signature = inspect.signature(fn)

    def probe(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        f = bound.arguments["field"]
        return [f.side, f.extent, f.wavelength, bound.arguments["dz"]]
    return probe


PROBES = {"propagation.propagate": _propagate_probe}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []
        self.names = []
        self._own = [0.0]

    @property
    def own_s(self) -> float:
        """Seconds the wrappers spent outside the calls they wrap."""
        return self._own[0]

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        own = self._own
        probe = PROBES[name](fn) if name in PROBES else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = clock()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    probe(args, kwargs) if probe else None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                own[0] += span[START] - entered + clock() - span[END]
        return traced

    def install(self, package):
        wrappers = {}
        for short in LAYER_MODULES:
            module = sys.modules[f"{package.__name__}.{short}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or isinstance(obj, type) \
                        or not callable(obj) \
                        or getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{short}.{attr}"
                wrappers[id(obj)] = (obj, self._wrap(name, obj))
                self.names.append(name)
        prefix = package.__name__ + "."
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package.__name__ and not mod_name.startswith(prefix):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, obj))
        if not self._patched:
            raise RuntimeError("no oamlink function was found to trace")

    def uninstall(self):
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()


def _has_ancestor(spans, index, name):
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_stats(spans) -> dict:
    """Per-function stats of one pass: calls, busy_s (time inside the
    function, nested calls of itself counted once), self_s (busy time not
    covered by child spans) and ms_p50; plus the propagate and receive-chain
    counters."""
    child_s = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_s[s[PARENT]] += s[END] - s[START]
    durations, stats = {}, {}
    for i, s in enumerate(spans):
        d = durations.setdefault(s[NAME], [])
        st = stats.setdefault(s[NAME], {"calls": 0, "busy_s": 0.0,
                                        "self_s": 0.0})
        dur = s[END] - s[START]
        d.append(dur)
        st["calls"] += 1
        st["self_s"] += dur - child_s[i]
        if not _has_ancestor(spans, i, s[NAME]):
            st["busy_s"] += dur
    for name, st in stats.items():
        st["ms_p50"] = 1e3 * statistics.median(durations[name])

    prop = stats.get("propagation.propagate")
    if prop is not None:
        seen, repeats, cells = set(), 0, 0
        for s in spans:
            if s[NAME] == "propagation.propagate":
                key = tuple(s[PROBE])
                repeats += key in seen
                seen.add(key)
                cells += key[0] ** 2
        prop["cells"] = cells
        prop["key_repeat_frac"] = repeats / prop["calls"]
    chan = stats.get("rxchain.apply_channel")
    if chan is not None:
        outside = sum(1 for i, s in enumerate(spans)
                      if s[NAME] == "rxchain.apply_channel"
                      and not _has_ancestor(spans, i, "rxchain.receive"))
        chan["redundant_frac"] = outside / chan["calls"]
    return stats
