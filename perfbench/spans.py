"""In-memory spans recorded around calls into domkernel's modules.

The benchmark never edits the program.  It records a span by wrapping a
function and assigning the wrapper to the module attribute that callers
look up (the benchmark itself, ``domkernel.engine`` or ``domkernel.bench``)
for the duration of a traced pass; the original is put back afterwards.

A span is ``[name, start, end, parent, run, pass, value]``: ``parent`` is
the index of the enclosing span (-1 at top level), ``run`` names the
(instance, configuration) run it belongs to, ``pass`` the timed pass
(negative for set-up repetitions), and ``value`` whatever the recorder
extracted from the call (firings, hit flags, byte counts, the
kernelize report).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import process_time

NAME, START, END, PARENT, RUN, PASS, VALUE = range(7)

# Every time the benchmark takes is CPU time of its own process.  The
# program is single-threaded and CPU-bound, so on an idle machine that is
# its wall time.  On a shared host it leaves out the time the host gives
# the CPU to other guests (steal).  End-to-end times are then scaled to a
# reference CPU speed (speed.py).
clock = process_time


class Tracer:
    """Collects spans of one benchmark process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.run = None
        self.pass_index = None

    def wrap(self, name, fn, value=None):
        """Return fn wrapped in a span called name.  value(args, result),
        if given, is stored with the span."""
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run, self.pass_index, None]
            spans.append(span)
            stack.append(idx)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if value is not None:
                span[VALUE] = value(args, result)
            return result

        return traced

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": s[NAME],
                            "start": s[START],
                            "end": s[END],
                            "parent": s[PARENT],
                            "run": s[RUN],
                            "pass": s[PASS],
                            "value": _jsonable(s[VALUE]),
                        }
                    )
                    + "\n"
                )


def _jsonable(value):
    return value.to_dict() if hasattr(value, "to_dict") else value


@contextmanager
def patched(replacements):
    """Assign (module, attribute, object) triples, restoring on exit."""
    saved = [(m, a, getattr(m, a)) for m, a, _ in replacements]
    try:
        for m, a, obj in replacements:
            setattr(m, a, obj)
        yield
    finally:
        for m, a, obj in reversed(saved):
            setattr(m, a, obj)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans) -> list[float]:
    """Per span of the whole list: its duration minus the durations of its
    direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out
