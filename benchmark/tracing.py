"""In-memory spans for the traced benchmark run.

A span records a layer call made from the benchmark: its name, start
and end (``time.perf_counter`` seconds), the index of the span that
enclosed it, the request it served, and whether the call raised.
"""

import contextlib
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = -1
        self._open = []

    def begin_request(self):
        self.request += 1

    @contextlib.contextmanager
    def span(self, name):
        record = {"name": name, "start": perf_counter(), "end": None,
                  "parent": self._open[-1] if self._open else None,
                  "request": self.request, "failed": False}
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        except BaseException:
            record["failed"] = True
            raise
        finally:
            record["end"] = perf_counter()
            self._open.pop()


class NullTracer:
    """Tracing off: every span is the same do-nothing context."""

    _NULL = contextlib.nullcontext()

    def begin_request(self):
        pass

    def span(self, name):
        return self._NULL


def self_times(spans):
    """Self time of each span: its duration minus the time its child spans
    cover.  Children of one span run one after another, so their
    durations add up without overlap."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out
