"""Spans around calls into subsym's modules, recorded from outside the library.

``Tracer.install()`` replaces each traced function with a wrapper in every
``subsym`` module that holds a reference to it (``from .graphs import girth``
binds the name in the importing module too), and ``uninstall()`` puts the
originals back. A traced name that no longer exists is listed as absent; it
is never an error, so the benchmark keeps running after the library is
refactored.

Each span carries its name, start, end, parent span and pass id. Spans are
kept in memory as compact arrays and written out when the run ends; per-pass
totals (calls, inclusive time, self time, extra counts and repeat counts) are
accumulated as spans close.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

# (module, attribute) of every traced function, the metrics reported for it,
# and an optional counter fed from the call's arguments. "full" reports
# calls, incl_s and self_s; "brief" reports calls and incl_s.
FULL, BRIEF = ("calls", "incl_s", "self_s"), ("calls", "incl_s")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _bfs_vertices(args, kwargs):
    return _arg(args, kwargs, 2, "n") or 0


def _domain_size(args, kwargs):
    domain = _arg(args, kwargs, 1, "domain")
    return len(domain) if domain is not None else 0


# Repeat keys: the identities of the argument objects (plus small ints that
# select what is computed). A call repeats when its key was seen earlier in
# the same pass.
def _key_graph(args, kwargs):
    return (_arg(args, kwargs, 0, "g"),), ()


def _key_group_point(args, kwargs):
    return (_arg(args, kwargs, 0, "G"),), (_arg(args, kwargs, 1, "v"),)


def _key_graph_group(args, kwargs):
    return (_arg(args, kwargs, 0, "g"), _arg(args, kwargs, 1, "G")), ()


TARGETS = [
    # (module, attribute, metrics, (extra metric, counter) or None, repeat group or None)
    ("kernels", "bfs_distances", FULL, ("vertices", _bfs_vertices), None),
    ("kernels", "all_pairs_distances", FULL, None, None),
    ("graphs", "metrics", FULL, None, ("graphs.metrics", _key_graph)),
    ("graphs", "girth", FULL, None, None),
    ("transforms", "subdivide", FULL, None, None),
    ("transforms", "subdivision_distance_matrix", FULL, None, None),
    ("transforms", "delta_of", FULL, None, None),
    ("transforms", "distance_two_graph", FULL, None, None),
    ("transforms", "reconstruct", FULL, None, None),
    ("groups", "PermGroup.chain", FULL, None, None),
    ("groups", "stabilizer_point", FULL, None, ("groups.stabilizer_point", _key_group_point)),
    ("groups", "stabilizer_edge", FULL, None, None),
    ("groups", "orbit_partition", FULL, ("domain", _domain_size), None),
    ("groups", "induced_subdivision_action", FULL, None, None),
    ("groups", "derived_subgroup", FULL, None, None),
    ("autgrp", "automorphism_group", FULL, None, None),
    ("autgrp", "is_isomorphic", FULL, None, None),
    ("symmetry", "local_distance_profile", FULL, None, ("symmetry.profile", _key_graph_group)),
    ("symmetry", "local_arc_profile", FULL, None, ("symmetry.profile", _key_graph_group)),
    ("symmetry", "global_arc_profile", FULL, None, ("symmetry.profile", _key_graph_group)),
    ("symmetry", "global_distance_profile", FULL, None, ("symmetry.profile", _key_graph_group)),
    ("theorems", "check_local_arc_equivalence", BRIEF, None, None),
    ("theorems", "check_local_distance_equivalence", BRIEF, None, None),
    ("theorems", "check_small_s_equivalences", BRIEF, None, None),
    ("theorems", "check_edge_stabilizer_conditions", BRIEF, None, None),
    ("theorems", "check_girth_bound", BRIEF, None, None),
    ("theorems", "check_girth5_three_arc", BRIEF, None, None),
    ("theorems", "check_distance_formula", BRIEF, None, None),
    ("theorems", "check_reconstruction", BRIEF, None, None),
    ("theorems", "check_classification_row", BRIEF, None, None),
    ("theorems", "check_known_exception", BRIEF, None, None),
    ("theorems", "check_bipartite_conditions", BRIEF, None, None),
    ("theorems", "check_large_s_cycles", BRIEF, None, None),
    ("formats", "read_graph", BRIEF, None, None),
    ("formats", "read_generators", BRIEF, None, None),
    ("formats", "write_generators", BRIEF, None, None),
    ("cli", "cmd_analyze", BRIEF, None, None),
]

REPEAT_GROUPS = ("graphs.metrics", "groups.stabilizer_point", "symmetry.profile")

# Functions whose share of the traced pass time is reported.
SHARES = ("graphs.girth", "groups.stabilizer_point", "autgrp.automorphism_group")


class PassTotals:
    """Totals of one pass, indexed by target position."""

    def __init__(self, size: int):
        self.calls = [0] * size
        self.incl = [0.0] * size
        self.self_time = [0.0] * size
        self.extra = [0] * size
        self.repeat_calls = {g: 0 for g in REPEAT_GROUPS}
        self.repeat_hits = {g: 0 for g in REPEAT_GROUPS}


class Tracer:
    def __init__(self):
        self.names = [f"{m}.{a}" for m, a, _, _, _ in TARGETS]
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [target index, start, child time, span id]
        self._depth = [0] * len(TARGETS)
        self._seen: dict = {}  # repeat key -> argument objects, kept alive for the pass
        self.pass_id = -1
        self.paused = False  # while set, wrapped calls are not recorded
        self.totals: list[PassTotals] = []
        # one row per span, written when it opens
        self.span_name = array("h")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_pass = array("h")

    # -- passes ------------------------------------------------------------

    def begin_pass(self) -> None:
        self.pass_id += 1
        self.totals.append(PassTotals(len(TARGETS)))
        self._seen.clear()

    def end_pass(self) -> None:
        self._seen.clear()

    # -- installing wrappers ------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "subsym" or name.startswith("subsym."))]
        for idx, (module, attr, _, extra, repeat) in enumerate(TARGETS):
            try:
                mod = importlib.import_module(f"subsym.{module}")
            except ImportError:
                self.absent.append(self.names[idx])
                continue
            if "." in attr:
                self._install_method(idx, mod, attr)
                continue
            original = getattr(mod, attr, None)
            if not callable(original):
                self.absent.append(self.names[idx])
                continue
            wrapper = self._wrap(idx, original, extra, repeat)
            for m in modules + [mod]:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, key, original))
                        setattr(m, key, wrapper)

    def _install_method(self, idx: int, mod, attr: str) -> None:
        cls_name, meth = attr.split(".", 1)
        cls = getattr(mod, cls_name, None)
        member = None if cls is None else cls.__dict__.get(meth)
        if not (isinstance(member, property) or inspect.isfunction(member)):
            self.absent.append(self.names[idx])
            return
        # PermGroup.chain: only lazy builds are spans, so a call on a group
        # whose chain already exists passes straight through.
        is_property = isinstance(member, property)
        fn = member.fget if is_property else member
        wrapped = self._wrap(idx, fn, None, None,
                             only_if=lambda args, kwargs: getattr(args[0], "_chain", None) is None)
        self._patched.append((cls, meth, member))
        setattr(cls, meth, property(wrapped) if is_property else wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def _wrap(self, idx, fn, extra, repeat, only_if=None):
        count = extra[1] if extra is not None else None
        group, key_fn = repeat if repeat is not None else (None, None)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused or (only_if is not None and not only_if(args, kwargs)):
                return fn(*args, **kwargs)
            totals = tracer.totals[-1]
            if count is not None:
                totals.extra[idx] += count(args, kwargs)
            if group is not None:
                tracer._note_repeat(totals, group, idx, key_fn(args, kwargs))
            tracer._enter(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(totals)

        return wrapper

    # -- span bookkeeping ---------------------------------------------------

    def _note_repeat(self, totals: PassTotals, group: str, idx: int, key) -> None:
        # The four profile functions share one group, but a local arc profile
        # after a local distance profile of the same pair is not a repeat.
        objs, scalars = key
        full_key = (group, idx if group == "symmetry.profile" else None,
                    tuple(id(o) for o in objs), scalars)
        totals.repeat_calls[group] += 1
        if full_key in self._seen:
            totals.repeat_hits[group] += 1
        else:
            self._seen[full_key] = objs

    def _enter(self, idx: int) -> None:
        # A span's row is written when it opens, so its id is known to its
        # children; the end time is filled in when it closes.
        span_id = len(self.span_name)
        self.span_name.append(idx)
        self.span_parent.append(self._stack[-1][3] if self._stack else -1)
        self.span_pass.append(self.pass_id)
        self.span_end.append(0.0)
        self._depth[idx] += 1
        start = time.perf_counter()
        self.span_start.append(start)
        self._stack.append([idx, start, 0.0, span_id])

    def _exit(self, totals: PassTotals) -> None:
        end = time.perf_counter()
        idx, start, child, span_id = self._stack.pop()
        self.span_end[span_id] = end
        duration = end - start
        self._depth[idx] -= 1
        totals.calls[idx] += 1
        totals.self_time[idx] += duration - child
        if self._depth[idx] == 0:  # count recursive activations once
            totals.incl[idx] += duration
        if self._stack:
            self._stack[-1][2] += duration

    def write_spans(self, path: str) -> int:
        """Write every span to an .npz file: ``name`` indexes ``names``,
        ``parent`` is a span id (-1 at the top), times are perf_counter
        seconds."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int16),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            pass_id=np.frombuffer(self.span_pass, dtype=np.int16),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
        return len(self.span_name)
