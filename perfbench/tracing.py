"""In-memory spans recorded from outside the program, around its public calls.

A span is (name, start, end, parent) within one run id.  Spans stay in
memory until the run ends; self time is a span's duration minus the time
its direct children cover (the run is single-threaded, so children never
overlap).
"""

from __future__ import annotations

import dataclasses
import json
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self._open = []

    def begin(self, name):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(float("nan"))
        self._open.append(index)
        self.starts.append(perf_counter())
        return index

    def end(self, index):
        self.ends[index] = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def timed(self, name, fn):
        """fn wrapped so that every call records a span."""
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)
        return wrapper

    def wrap_law(self, law, label):
        """A copy of a FeedbackLaw whose evaluations and slopes record spans."""
        return dataclasses.replace(law, p=self.timed(f"feedback.{label}.p", law.p),
                                   slope=self.timed(f"feedback.{label}.slope", law.slope))

    def arrays(self):
        names = np.array(self.names)
        parents = np.array(self.parents, dtype=int)
        durations = np.array(self.ends) - np.array(self.starts)
        child_time = np.zeros(len(names))
        has_parent = parents >= 0
        np.add.at(child_time, parents[has_parent], durations[has_parent])
        return names, parents, durations, durations - child_time

    def write(self, path):
        """Dump the spans as JSON: one [name, start, end, parent] row per span."""
        rows = [[n, s, e, p] for n, s, e, p in
                zip(self.names, self.starts, self.ends, self.parents)]
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "columns": ["name", "start", "end", "parent"],
                       "spans": rows}, fh)


class TimedObserver:
    """Wraps an integrate observer so that each of its calls records a span."""

    def __init__(self, observer, tracer, name):
        self.observer = observer
        self.tracer = tracer
        self.name = name

    def __call__(self, system, state):
        index = self.tracer.begin(self.name)
        try:
            self.observer(system, state)
        finally:
            self.tracer.end(index)
