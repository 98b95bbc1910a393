"""In-memory span tracing of the halfhandle layers, from outside the package.

The tracer wraps module attributes that callers look up at call time (for
example ``halfhandle.normal_form.realize_configuration``): every module of
the package that holds the original function gets the same wrapper, and
``restore`` puts every original back.  The package source stays untouched.

A span record is ``[span_id, op_id, name, start, end, parent_id, error,
meta]``; spans opened while one benchmark operation runs share its
``op_id``.  Start and end are wall-clock ``perf_counter`` readings, which
``run.py`` maps to reference seconds before it summarises them.  Counting
wrappers (for very hot calls) only bump a counter.
Wrappers do nothing but call through while the tracer is inactive, so the
benchmark's correctness checks stay out of the records.
"""

import json
import sys
import time
from collections import Counter

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.active = False
        self.op_id = 0
        self._stack = []
        self._patched = []

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name, fn, meta):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(spans)
            record = [sid, self.op_id, name, perf_counter(), None,
                      stack[-1] if stack else None, None, None]
            spans.append(record)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                record[6] = type(exc).__name__
                raise
            finally:
                record[4] = perf_counter()
                stack.pop()
            if meta is not None:
                record[7] = meta(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation ------------------------------------------------------

    def install(self, spans=(), counters=()):
        """Wrap functions in every halfhandle module that refers to them.

        ``spans`` holds ``(module, attribute, meta)`` triples, meta being
        None or ``f(args, result) -> dict``; ``counters`` holds ``(owner,
        attribute, counter name)`` triples where the owner is a class or
        module patched in place.
        """
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "halfhandle" or k.startswith("halfhandle."))]
        for module, attr, meta in spans:
            original = getattr(module, attr)
            name = "%s.%s" % (module.__name__.rsplit(".", 1)[-1], attr)
            wrapper = self._span_wrapper(name, original, meta)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        for owner, attr, counter in counters:
            self._patch(owner, attr, self._count_wrapper(counter, owner.__dict__[attr]))

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        self.active = False
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path):
        keys = ("id", "op", "name", "start", "end", "parent", "error", "meta")
        compact = (",", ":")
        with open(path, "w") as fh:
            for record in self.spans:
                span = {k: v for k, v in zip(keys, record) if v is not None}
                fh.write(json.dumps(span, separators=compact) + "\n")
            for name, count in sorted(self.counts.items()):
                fh.write(json.dumps({"counter": name, "value": count}, separators=compact) + "\n")


def summarize(spans):
    """Inclusive time and calls per span name, and self time per module.

    Inclusive time counts only the outermost span of a name, so a function
    reached again below itself is not counted twice.  Self time is a span's
    duration minus that of its direct children.
    """
    by_id = {r[0]: r for r in spans}
    inclusive, calls, self_time = Counter(), Counter(), Counter()
    child_time = Counter()
    for r in spans:
        if r[5] is not None:
            child_time[r[5]] += r[4] - r[3]
    for r in spans:
        name, dur = r[2], r[4] - r[3]
        calls[name] += 1
        self_time[name.split(".", 1)[0]] += dur - child_time[r[0]]
        parent = r[5]
        while parent is not None and by_id[parent][2] != name:
            parent = by_id[parent][5]
        if parent is None:
            inclusive[name] += dur
    return inclusive, calls, self_time
