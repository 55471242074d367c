"""Span tracer for the benchmark's traced run.

The tracer wraps functions of the ``mconcave`` package from the outside:
each wrapped call records one span (name, start, end, parent span, op id).
A function is rebound at every binding site, because modules such as
``mconcave.cli`` import checkers by name, so patching the defining module
alone would miss those calls. Spans are kept in flat arrays in memory and
written out once, when the run ends.

Self time is a span's duration minus the time its direct child spans
cover. The package runs serially, so children never overlap.
"""

import functools
import sys
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.op_id = -1
        self._stack = [-1]
        self._patches = []
        # name -> [calls, set of distinct call keys for the current op,
        # distinct keys summed over finished ops]
        self._keyed = {}

    # -- recording ---------------------------------------------------------

    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin_op(self, op_id):
        self.op_id = op_id

    def end_op(self):
        for entry in self._keyed.values():
            entry[2] += len(entry[1])
            entry[1].clear()
        self.op_id = -1

    def wrap(self, fn, name, key=None):
        """Return a traced version of ``fn``. ``name`` is a span name or a
        function of the call arguments returning one. ``key``, if given,
        maps the call arguments to a hashable value; the number of
        distinct values per op is counted for that span name."""
        fixed = None if callable(name) else self.name_id(name)
        if key is not None:
            keyed = self._keyed.setdefault(name, [0, set(), 0])
        names, parents, ops, starts, ends = (self.name, self.parent, self.op,
                                             self.start, self.end)
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key is not None and tracer.op_id >= 0:
                keyed[0] += 1
                keyed[1].add(key(*args, **kwargs))
            i = len(starts)
            names.append(fixed if fixed is not None else tracer.name_id(name(*args)))
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            starts.append(0)
            ends.append(0)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[i] = t0
                ends[i] = t1

        return traced

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr, name, key=None):
        """Replace ``owner.attr`` with a traced wrapper, and rebind every
        module-level name in the ``mconcave`` package that refers to the
        same function object."""
        original = getattr(owner, attr)
        wrapped = self.wrap(original, name, key)
        self._set(owner, attr, wrapped)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "mconcave" or mod_name.startswith("mconcave.")):
                continue
            for var, value in list(vars(mod).items()):
                if value is original and not (mod is owner and var == attr):
                    self._set(mod, var, wrapped)
        return wrapped

    def patch_item(self, mapping, key, name):
        """Replace ``mapping[key]`` (a function held in a dict) with a
        traced wrapper."""
        original = mapping[key]
        mapping[key] = self.wrap(original, name)
        self._patches.append((mapping, key, original, True))

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr), False))
        setattr(owner, attr, value)

    def uninstall(self):
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original, is_item = self._patches.pop()
            if is_item:
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
        }

    def summary(self, setup=False):
        """Per span name: calls, inclusive seconds, self seconds, over the
        spans recorded inside ops, or with ``setup`` over those recorded
        outside any op (input generation). Names without a span in that
        phase are left out."""
        a = self.arrays()
        k = len(self.names)
        if len(a["name"]) == 0:
            return {}
        dur = (a["end"] - a["start"]).astype(np.float64) / 1e9
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        sel = a["op"] < 0 if setup else a["op"] >= 0
        names = a["name"][sel]
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur[sel], minlength=k)
        self_s = np.bincount(names, weights=own[sel], minlength=k)
        return {name: {"calls": int(calls[i]), "s": float(total[i]),
                       "self_s": float(self_s[i])}
                for i, name in enumerate(self.names) if calls[i]}

    def seconds_where(self, name, op_ids):
        """Inclusive seconds of the spans called ``name`` in the given ops."""
        if name not in self._name_ids or not op_ids:
            return 0.0
        a = self.arrays()
        sel = (a["name"] == self._name_ids[name]) & np.isin(a["op"], list(op_ids))
        return float((a["end"][sel] - a["start"][sel]).sum()) / 1e9

    def distinct(self, name):
        """(calls, distinct keys summed per op) for a keyed span name,
        counted inside ops only."""
        calls, _, distinct = self._keyed.get(name, (0, None, 0))
        return calls, distinct

    def save(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names, dtype=str), **self.arrays())

