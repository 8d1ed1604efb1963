"""Spans around the benchmark's calls into the library layers.

A span is (operation id, layer, function, size key, start s, end s); the
operation id ties the calls of one benchmark operation together.  Spans and
counts are kept in memory and written out when the run ends.  With tracing
off, ``call`` is a plain call, so the untraced and traced runs execute the
same code apart from the recording.
"""

import statistics
import time
from collections import defaultdict


class Tracer:
    def __init__(self, on):
        self.on = on
        self.op_id = 0
        self.spans = []
        self.counts = defaultdict(list)

    def call(self, layer, name, key, fn, *args):
        if not self.on:
            return fn(*args)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((self.op_id, layer, name, key, start, time.perf_counter()))

    def count(self, name, value):
        if self.on:
            self.counts[name].append(value)

    def durations(self, layer, name, key):
        return [end - start for _, ly, nm, k, start, end in self.spans
                if ly == layer and nm == name and k == key]

    def reached(self, layer):
        return any(ly == layer for _, ly, _, _, _, _ in self.spans)

    def busy(self, layer):
        return sum(end - start for _, ly, _, _, start, end in self.spans if ly == layer)

    def p50(self, layer, name, key):
        found = self.durations(layer, name, key)
        return statistics.median(found) if found else None
