"""Spans and call counts around otocap's public functions, from outside.

``traced(recorder, otocap)`` replaces each function named in SPANNED and COUNTED
at every otocap module namespace that holds it (so calls are seen
whichever module looks the name up) and puts the originals back on
exit.  The wrappers pass arguments, return values and exceptions
through unchanged.

* SPANNED calls each get a span: name, defining layer, the namespace it
  was called through, start and end from ``perf_counter_ns``, parent span
  and item id.
* COUNTED calls are per-block (tens of thousands per item), so they are
  only counted and their time summed.  Their time still counts as child
  time of the span they run under, so a span's self time excludes it.

Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

# defining module -> public functions that get a span per call
SPANNED = {
    "instancegen": ("generate",),
    "model": ("max_degree",),
    "enumeration": ("build_state_space",),
    "optimize": ("solve_maxmin",),
    "capacity": ("link_rates", "imperfect_value_table", "linear_value_table",
                 "capacity_imperfect", "capacity_ideal", "rate_tsn"),
    "bounds": ("verify_instance", "check_assumptions", "constant_gap_condition",
               "tsn_gap_bound"),
    "cli": ("main", "load_instance"),
}
# defining module -> per-block functions that are only counted
COUNTED = {
    "model": ("effective_channel",),
    "matrices": ("cut_state_matrix", "log_det_capacity", "cut_dominance_ratio"),
}


def _state_space_sizes(args, kwargs, space):
    return {"patterns": len(space.patterns), "cuts": len(space.cuts)}


def _lp_sizes(args, kwargs, schedule):
    problem = args[0] if args else kwargs["problem"]
    cuts, patterns = problem.values.shape
    # one row per cut plus the simplex row; one column per pattern plus t
    return {"lp_rows": cuts + 1, "lp_cols": patterns + 1}


SIZERS = {
    "enumeration.build_state_space": _state_space_sizes,
    "optimize.solve_maxmin": _lp_sizes,
}


class Span:
    __slots__ = ("id", "name", "site", "item", "parent", "start", "end", "child_ns",
                 "sizes", "error")

    def __init__(self, id_, name, site, item, parent):
        self.id = id_
        self.name = name
        self.site = site
        self.item = item
        self.parent = parent
        self.start = self.end = 0
        self.child_ns = 0
        self.sizes = None
        self.error = None

    @property
    def ns(self) -> int:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Recorder:
    """Collects spans and counted-call totals; ``item`` tags new spans."""

    def __init__(self):
        self.spans: list[Span] = []
        # item -> (name, site) -> [calls, ns]
        self.counted: dict[object, dict[tuple[str, str], list[int]]] = {}
        self.item = None
        self.absent: dict[str, str] = {}
        self.sizer_errors: dict[str, str] = {}
        self.sites: set[str] = set()  # "<site>.<fn>" for every installed wrapper
        self._stack: list[Span] = []
        self._counted_depth = 0

    @property
    def item(self):
        return self._item

    @item.setter
    def item(self, item):
        self._item = item
        self._counts = self.counted.setdefault(item, {})

    def span_wrapper(self, func, name, site):
        sizer = SIZERS.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), name, site, self.item, parent)
            self.spans.append(span)
            self._stack.append(span)
            span.start = perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter_ns()
                self._stack.pop()
                if self._stack:
                    self._stack[-1].child_ns += span.ns
            if sizer is not None:
                try:
                    span.sizes = sizer(args, kwargs, result)
                except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
                    self.sizer_errors[name] = repr(exc)
            return result

        return wrapper

    def counted_wrapper(self, func, name, site):
        key = (name, site)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self._counted_depth += 1
            start = perf_counter_ns()
            try:
                return func(*args, **kwargs)
            finally:
                ns = perf_counter_ns() - start
                self._counted_depth -= 1
                totals = self._counts.get(key)
                if totals is None:
                    totals = self._counts[key] = [0, 0]
                totals[0] += 1
                totals[1] += ns
                if not self._counted_depth and self._stack:
                    self._stack[-1].child_ns += ns

        return wrapper

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")
            for item, counts in self.counted.items():
                for (name, site), (calls, ns) in counts.items():
                    fh.write(json.dumps({"counted": name, "site": site, "item": item,
                                         "calls": calls, "ns": ns}) + "\n")

    def summarize(self, items) -> dict[str, float]:
        """Per-item figures of every wrapped function over the given items.

        ``<layer>.<fn>.calls`` and ``.ms`` (inclusive) for every function,
        ``.self_ms`` for spanned ones, ``<site>.<fn>.calls`` for calls made
        through another module's namespace, and the mean problem sizes
        the sizers recorded.
        """
        items = set(items)
        calls, site_calls, ns, self_ns = Counter(), Counter(), Counter(), Counter()
        sizes = defaultdict(list)
        for span in self.spans:
            if span.item in items:
                calls[span.name] += 1
                site_calls[_site_key(span.name, span.site)] += 1
                ns[span.name] += span.ns
                self_ns[span.name] += span.ns - span.child_ns
                for k, v in (span.sizes or {}).items():
                    sizes[f"{span.name.split('.')[0]}.{k}"].append(v)
        for item in items:
            for (name, site), (c, t) in self.counted.get(item, {}).items():
                calls[name] += c
                site_calls[_site_key(name, site)] += c
                ns[name] += t
        per_item = 1.0 / len(items)
        out = {}
        for kinds in (SPANNED, COUNTED):
            for layer, fns in kinds.items():
                for fn in fns:
                    name = f"{layer}.{fn}"
                    if name in self.absent:
                        continue
                    out[f"{name}.calls"] = calls[name] * per_item
                    out[f"{name}.ms"] = ns[name] * per_item / 1e6
                    if kinds is SPANNED:
                        out[f"{name}.self_ms"] = self_ns[name] * per_item / 1e6
        for key in self.sites:
            out.setdefault(f"{key}.calls", site_calls[key] * per_item)
        for key, values in sizes.items():
            out[key] = sum(values) / len(values)
        return out


def _site_key(name: str, site: str) -> str:
    return f"{site}.{name.split('.', 1)[1]}"


def _namespaces(package):
    prefix = package.__name__ + "."
    mods = [package] + [m for n, m in sorted(sys.modules.items()) if n.startswith(prefix)]
    return [(m.__name__.rsplit(".", 1)[-1], m) for m in mods]


@contextmanager
def traced(recorder: Recorder, package):
    """Install the wrappers for the duration of the block, then restore."""
    patches = []
    try:
        for kinds, make in ((SPANNED, recorder.span_wrapper),
                            (COUNTED, recorder.counted_wrapper)):
            for layer, names in kinds.items():
                home = getattr(package, layer, None)
                for fn in names:
                    name = f"{layer}.{fn}"
                    func = getattr(home, fn, None)
                    if not callable(func):
                        recorder.absent[name] = f"{package.__name__}.{layer} has no {fn}"
                        continue
                    for site, mod in _namespaces(package):
                        if mod.__dict__.get(fn) is func:
                            patches.append((mod, fn, func))
                            recorder.sites.add(_site_key(name, site))
                            setattr(mod, fn, make(func, name, site))
        yield
    finally:
        for mod, fn, func in reversed(patches):
            setattr(mod, fn, func)
    leftover = [f"{mod.__name__}.{fn}" for mod, fn, func in patches
                if mod.__dict__.get(fn) is not func]
    if leftover:
        raise RuntimeError(f"wrappers not removed: {leftover}")
