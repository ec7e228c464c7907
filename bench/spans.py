"""Span recorder for traced benchmark runs.

A Recorder replaces a function with a wrapper under the name its caller
looks it up by (``uwblab.protocol.backtrack_detect`` rather than
``uwblab.receiver.backtrack_detect``, because protocol imports the name
directly) and records one span per call: name, start, end, parent span and
operation id. Spans stay in memory until ``dump`` writes them out;
``self_times`` reduces them to self time per span name, a span's duration
minus the part of it its child spans cover. The first dotted component of
a span name is its layer.

The same wrappers can instead run hooks on each call's result and take the
call's allocation peak with tracemalloc, without recording spans. Standard
library only.
"""

import json
import time
import tracemalloc
from collections import Counter, defaultdict


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Recorder:
    """Spans, allocation peaks and the wrappers that produce them."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, operation id]
        self.op = -1
        self.peaks = {}  # span name -> largest traced allocation peak, bytes
        self._stack = []
        self._patched = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name, hooks=(), spans=True, peak=False) -> None:
        """Replace owner.attr by a wrapper until restore().

        name is the span name, or a callable that derives it from the
        call's arguments. With spans on, the wrapper records a span per
        call. Otherwise it calls hook(result, *args, **kwargs) for each of
        hooks after the call, and with peak on it takes the call's
        allocation peak under the span name; such calls must not nest.
        """
        inner = getattr(owner, attr)
        rec = self

        def label(args, kwargs):
            return name(*args, **kwargs) if callable(name) else name

        if spans:
            def wrapper(*args, **kwargs):
                idx = rec.begin(label(args, kwargs))
                try:
                    return inner(*args, **kwargs)
                finally:
                    rec.end(idx)
        else:
            def wrapper(*args, **kwargs):
                if peak:
                    tracemalloc.start()
                try:
                    result = inner(*args, **kwargs)
                finally:
                    if peak:
                        got = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
                        key = label(args, kwargs)
                        rec.peaks[key] = max(rec.peaks.get(key, 0), got)
                for hook in hooks:
                    hook(result, *args, **kwargs)
                return result

        wrapper.__wrapped__ = inner
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, inner))

    def restore(self) -> None:
        for owner, attr, inner in reversed(self._patched):
            setattr(owner, attr, inner)
        self._patched.clear()

    def self_times(self):
        """(total self seconds, call count), each keyed by span name."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        total = defaultdict(float)
        calls = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start - covered[i]
            calls[name] += 1
        return total, calls

    def dump(self, path) -> None:
        """Write the spans as JSON lines, times in seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                ) + "\n")
