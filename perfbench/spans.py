"""Span tracing for the benchmark's traced runs, applied from outside the program.

`Tracer.patch` swaps a function of the program, in every `gchr` module that
holds a reference to it, for a wrapper that records one span per call:
name, start, end and parent span. `Tracer.patch_method` does the same for
a method on its class. A span may also keep one note taken from the call's
arguments and result (rows, K, relabel fraction), so counts are recorded
where the work happens. Spans stay in memory until `write_csv` writes them
once, at the end of a run; `restore` undoes every patch. Nothing under
`src/` knows about the tracer.
"""

from __future__ import annotations

import csv
import functools
import sys
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.notes = {}  # span index -> value recorded at the call boundary
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, note):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        notes, stack, clock = self.notes, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if note is not None:
                notes[idx] = note(args, result)
            return result

        return traced

    def patch(self, fn, name, note=None):
        """Trace `fn` under every name any loaded `gchr` module binds it to."""
        wrapper = self._wrap(name, fn, note)
        found = 0
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "gchr" and not mod_name.startswith("gchr."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, fn))
                    found += 1
        if not found:
            raise LookupError(f"{name}: function is not bound in any gchr module")

    def patch_method(self, cls, attr, name, note=None):
        fn = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(name, fn, note))
        self._undo.append((cls, attr, fn))

    def restore(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "name", "parent", "start", "end"])
            for i, name in enumerate(self.names):
                writer.writerow([i, name, self.parents[i], repr(self.starts[i]),
                                 repr(self.ends[i])])


class SpanTable:
    """Durations, self times and ancestry of a finished trace."""

    def __init__(self, tracer):
        self.names = np.array(tracer.names, dtype=object)
        self.parents = np.array(tracer.parents, dtype=np.int64)
        self.notes = tracer.notes
        self.duration = np.array(tracer.ends) - np.array(tracer.starts)
        # children run strictly inside their parent on one thread, so their
        # summed durations are the part of the parent's interval they cover
        covered = np.zeros_like(self.duration)
        has_parent = self.parents >= 0
        np.add.at(covered, self.parents[has_parent], self.duration[has_parent])
        self.self_time = self.duration - covered

    def of(self, name):
        return np.flatnonzero(self.names == name)

    def under(self, root):
        """Per span, the index of its nearest `root`-named ancestor (itself included), or -1."""
        out = np.full(len(self.names), -1, dtype=np.int64)
        for i, (name, parent) in enumerate(zip(self.names, self.parents)):
            if name == root:
                out[i] = i
            elif parent >= 0:
                out[i] = out[parent]
        return out

    def note_values(self, idx):
        return [self.notes[i] for i in idx if i in self.notes]
