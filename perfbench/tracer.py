"""Timing wrappers around a package's public functions, with in-memory spans.

The tracer measures the library from outside: it swaps each public function
for a wrapper at every place the function can be looked up (its own module,
every module that imported it by name, and the package namespace), so calls
made inside the library are seen as well as calls made by the benchmark.
Each call becomes a span (name, lookup site, start, end, parent). Spans live
in flat arrays until the run ends; self time is computed afterwards.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

ROOT_SPAN = "perfbench.op"


def public_functions(module, short: str) -> dict[str, object]:
    """Callables defined in ``module`` under public names, keyed ``short.name``."""
    out = {}
    for attr, obj in vars(module).items():
        if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            out[f"{short}.{attr}"] = obj
    return out


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    Children are clipped to their parent's interval and overlapping children
    are counted once, so the result never double-subtracts.
    """
    out = [e - s for s, e in zip(start, end)]
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        spans = sorted((max(start[c], lo), min(end[c], hi)) for c in kids)
        covered = 0.0
        cur_s = cur_e = None
        for s, e in spans:
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


def root_of(parent) -> list[int]:
    """Index of each span's outermost ancestor (parents precede children)."""
    roots = []
    for i, p in enumerate(parent):
        roots.append(i if p < 0 else roots[p])
    return roots


class Tracer:
    """Installs timing wrappers and records spans and counters.

    ``probes`` maps a qualified function name to ``probe(tracer, span, args,
    kwargs)``, called after a traced call returns, to add counters or to
    rename the span (for example by the argument's derivative order).
    """

    def __init__(self, probes=None):
        self.probes = dict(probes or {})
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.site = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.keys: dict[str, set] = defaultdict(set)
        self.originals: dict[str, object] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def rename(self, span: int, name: str) -> None:
        self.name[span] = self.intern(name)

    def current_root(self) -> int:
        return self._stack[0] if self._stack else -1

    def _open(self, nid: int, sid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.site.append(sid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        return i

    @contextmanager
    def span(self, name: str, site: str = "perfbench"):
        """A span opened by the benchmark itself, such as one per operation."""
        i = self._open(self.intern(name), self.intern(site))
        t0 = time.perf_counter()
        try:
            yield i
        finally:
            self.end[i] = time.perf_counter()
            self.start[i] = t0
            self._stack.pop()

    # -- installing ------------------------------------------------------

    def _wrap(self, fn, qualname: str, site: str):
        nid = self.intern(qualname)
        sid = self.intern(site)
        probe = self.probes.get(qualname)
        starts, ends, stack, clock = self.start, self.end, self._stack, time.perf_counter
        open_span = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_span(nid, sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()
            if probe is not None:
                probe(self, i, args, kwargs)
            return out

        return traced

    def install(self, package: str, modules, methods=()) -> None:
        """Wrap the public functions of ``package.<m>`` for each m in modules.

        ``methods`` lists (module, class, method) triples wrapped on the
        class. Every module of the package that holds a wrapped function
        under any name gets its own wrapper, tagged with that module as the
        lookup site. A module, class or method that does not exist is
        skipped; callers report it from ``self.originals``.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        by_id: dict[int, str] = {}
        for short in modules:
            mod = sys.modules.get(f"{package}.{short}")
            if mod is None:
                continue
            for qualname, fn in public_functions(mod, short).items():
                self.originals[qualname] = fn
                by_id[id(fn)] = qualname
        sites = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))
        }
        for name, mod in sites.items():
            site = name[len(package) + 1 :] or package
            for attr, obj in list(vars(mod).items()):
                qualname = by_id.get(id(obj))
                if qualname is not None and obj is self.originals[qualname]:
                    setattr(mod, attr, self._wrap(obj, qualname, site))
                    self._patches.append((mod, attr, obj))
        for short, cls_name, meth in methods:
            cls = getattr(sys.modules.get(f"{package}.{short}"), cls_name, None)
            fn = None if cls is None else cls.__dict__.get(meth)
            if fn is None or not callable(fn):
                continue
            qualname = f"{short}.{cls_name}.{meth}"
            self.originals[qualname] = fn
            setattr(cls, meth, self._wrap(fn, qualname, short))
            self._patches.append((cls, meth, fn))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._patches):
            setattr(owner, attr, obj)
        self._patches.clear()
