"""In-memory spans recorded around calls into ccto's public functions.

A span is (name, start, end, parent, request): `parent` is the index of
the enclosing span or None, `request` the id of the request it served.
Spans stay in memory until the run ends and are then written as JSON
lines. A span's self time is its duration minus the time its children
cover; calls within one request never overlap, so that is a subtraction.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class NoTrace:
    """Stand-in used by the untraced run: calls straight through."""

    request = None

    @staticmethod
    def call(_name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = None
        self._open = []

    def call(self, name, fn, *args, **kwargs):
        record = [name, time.perf_counter(), None, self._open[-1] if self._open else None, self.request]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            record[2] = time.perf_counter()

    def self_seconds(self) -> dict:
        """Total self time per span name, in seconds."""
        total = defaultdict(float)
        for name, start, end, _parent, _request in self.spans:
            total[name] += end - start
        for _name, start, end, parent, _request in self.spans:
            if parent is not None:
                total[self.spans[parent][0]] -= end - start
        return dict(total)

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, request in self.spans:
                out.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "request": request}
                    )
                    + "\n"
                )
