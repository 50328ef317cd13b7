"""Call tracing from outside the program.

The tracer replaces qromlab functions with timing wrappers at every module or
class attribute that resolves to them, so calls made through a re-export
(``qromlab.posw.extract.parse_label_payload`` as well as
``qromlab.posw.backend.parse_label_payload``) are seen too.  Each wrapper adds
its call to a per-name counter and its self time (duration minus the time of
traced calls nested inside it) to a per-name sum.  Wrappers created with
``span=True`` also record a span (name, start, end, parent span, op id); they
are meant for functions called a few times per op, while hot functions
(``holds``, ``Database`` construction, ``in_neighbors``) only count.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.calls: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.counts: dict = defaultdict(float)
        self.spans: list = []  # [span id, parent id, op id, name, start, end]
        self.objects: list = []  # instances kept for reading after a batch
        self.distinct: set = set()
        self._child = [0.0]  # time covered by traced children, per open frame
        self._names = [None]  # names of the open frames, innermost last
        self._open_span = [None]
        self._op = None
        self._patches: list = []

    # -- recording ------------------------------------------------------

    def reset(self) -> None:
        """Forget counters (not spans) so the next batch is counted alone."""
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()
        self.objects.clear()
        self.distinct.clear()

    @property
    def current(self):
        """Name of the innermost traced call in progress."""
        return self._names[-1]

    def _span(self, name: str, fn, args, kwargs):
        perf = time.perf_counter
        sid = len(self.spans)
        self.spans.append(None)
        self._open_span.append(sid)
        self._child.append(0.0)
        self._names.append(name)
        start = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf()
            duration = end - start
            self._names.pop()
            inner = self._child.pop()
            self._child[-1] += duration
            self.calls[name] += 1
            self.self_s[name] += duration - inner
            self._open_span.pop()
            self.spans[sid] = [sid, self._open_span[-1], self._op, name, start, end]

    def run_op(self, kind: str, fn):
        """Run one benchmark op as a root span; spans opened inside it carry
        its span id as their op id."""
        self._op = len(self.spans)
        try:
            return self._span("op." + kind, fn, (), {})
        finally:
            self._op = None

    # -- attaching ------------------------------------------------------

    def wrap(self, fn, name, span: bool = False, after=None):
        """A wrapper timing fn under name; name may be a function of
        (args, kwargs); after(result, args, kwargs) runs on success."""
        if span:
            record = self._span

            def wrapper(*args, **kwargs):
                result = record(name, fn, args, kwargs)
                if after is not None:
                    after(result, args, kwargs)
                return result
        else:
            # the counting path is inlined: it runs millions of times per batch
            perf = time.perf_counter
            child, names, calls, self_s = self._child, self._names, self.calls, self.self_s

            def wrapper(*args, **kwargs):
                label = name(args, kwargs) if callable(name) else name
                child.append(0.0)
                names.append(label)
                start = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    duration = perf() - start
                    names.pop()
                    inner = child.pop()
                    child[-1] += duration
                    calls[label] += 1
                    self_s[label] += duration - inner
                if after is not None:
                    after(result, args, kwargs)
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch_function(self, fn, name, span: bool = False, after=None) -> int:
        """Replace fn at every qromlab module attribute bound to it; returns
        how many bindings were replaced (zero means the function is gone)."""
        return self._rebind(fn, self.wrap(fn, name, span, after))

    def _rebind(self, fn, replacement) -> int:
        bound = 0
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "qromlab" or modname.startswith("qromlab.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement)
                    bound += 1
        return bound

    def patch_method(self, cls, attr: str, name, after=None) -> None:
        """Replace a method on its class; subclasses and every instance see it."""
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, after=after))

    def patch_generator(self, fn, on_item) -> int:
        """Replace a generator function so that on_item(args) runs per item."""
        def counting(*args, **kwargs):
            for item in fn(*args, **kwargs):
                on_item(args)
                yield item

        counting.__wrapped__ = fn
        return self._rebind(fn, counting)

    def detach(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
