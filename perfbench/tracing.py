"""Span tracing around the public functions of each sgsov module.

The wrappers live only here: ``Tracer.installed()`` replaces each traced
function on its module (or class), and also under every other name that an
sgsov module bound to the same object with ``from .x import y``.  Spans
(name, start, end, parent) are kept in flat arrays and written out at exit.
Tracing assumes one calling thread, as every workload has.

A span's self time is its duration minus the durations of its direct
children, so self times over all spans add up to the traced wall time.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

import numpy as np

from workloads import SECTIONS

_RECONSTRUCT = ("reconstruct_u", "reconstruct_u_via_dc", "reconstruct_alpha0",
                "reconstruct_beta", "reconstruct_v2k")
_BINVA = ("binvA_dense", "binvA_power_sov", "binvA_interpolation")

# metric group -> the (module, attribute) of every function it covers
GROUPS = {
    "model_core.monodromy": [("model_core", "monodromy")],
    "model_core.yang_baxter_residual": [("model_core", "yang_baxter_residual")],
    "model_core.OperatorLaurent.evaluate": [("model_core", "OperatorLaurent.evaluate")],
    "model_core.a_coeff": [("model_core", "a_coeff")],
    "sov_basis.b_zeros": [("sov_basis", "b_zeros")],
    "sov_basis.build_sov_basis": [("sov_basis", "build_sov_basis")],
    "spectrum.diagonalize_transfer": [("spectrum", "diagonalize_transfer")],
    "spectrum.extract_Q_grid": [("spectrum", "extract_Q_grid")],
    "spectrum.fit_Q_polynomial": [("spectrum", "fit_Q_polynomial")],
    "spectrum.qbar_from_q": [("spectrum", "qbar_from_q")],
    "spectrum.check_functional_equation": [("spectrum", "check_functional_equation")],
    "separate_states.attach_q_data": [("separate_states", "attach_q_data")],
    "separate_states.materialize": [("separate_states", "materialize")],
    "separate_states.eigen_action": [("separate_states", "eigen_action")],
    "separate_states.phi_general": [("separate_states", "phi_general")],
    "separate_states.scalar_product_det": [("separate_states", "scalar_product_det")],
    "separate_states.identity_resolution_T": [("separate_states", "identity_resolution_T")],
    "local_ops.shifted_monodromy": [("local_ops", "shifted_monodromy")],
    "local_ops.reconstruct": [("local_ops", name) for name in _RECONSTRUCT],
    "local_ops.elementary_O": [("local_ops", "elementary_O")],
    "local_ops.binvA": [("local_ops", name) for name in _BINVA],
    "form_factors.ff_u": [("form_factors", "ff_u")],
    "form_factors.ff_elementary": [("form_factors", "ff_elementary")],
    "form_factors.npoint": [("form_factors", "npoint")],
    "oracle.verify_suite": [("oracle", "verify_suite")],
    "cli.main": [("cli", "main")],
}

# the preparation calls inside verify_suite, excluded from section times
PREPARATION = ("model_core.monodromy", "sov_basis.build_sov_basis",
               "spectrum.diagonalize_transfer", "spectrum.extract_Q_grid",
               "spectrum.fit_Q_polynomial", "spectrum.qbar_from_q",
               "separate_states.attach_q_data")


def _monodromy_bytes(mono):
    return sum(c.nbytes for name in "ABCD" for c in mono.entry(name).coeffs.values())


# per-layer metric -> (unit, better); the order is the order of the output
PER_LAYER = {}
for _group in GROUPS:
    PER_LAYER[_group + ".calls"] = ("count", "lower")
    PER_LAYER[_group + ".self_s"] = ("s", "lower")
PER_LAYER.update({
    "model_core.monodromy.bytes": ("B", "lower"),
    "form_factors.ff_u.selection_zero_share": ("ratio", "higher"),
    "form_factors.ff_u.max_margin": ("ratio", "lower"),
    "separate_states.eigen_action.max_margin": ("ratio", "lower"),
    "oracle.max_margin": ("ratio", "lower"),
    **{f"oracle.section.{name}.s": ("s", "lower") for name in SECTIONS},
    "oracle.checks": ("count", "higher"),
    "oracle.checks_failed": ("count", "lower"),
    "cli.rows": ("count", "higher"),
    "trace.pass_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.accounted_share": ("ratio", "higher"),
})


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._saved = []
        self.monodromy_bytes = 0
        self.selection_zeros = 0

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, kind):
        idx = len(self.kind)
        self.kind.append(kind)
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def phase(self, name):
        idx = self._open(self._id("phase:" + name))
        try:
            yield
        finally:
            self._close(idx)

    def _on_result(self, group, out):
        if group == "model_core.monodromy":
            self.monodromy_bytes = max(self.monodromy_bytes, _monodromy_bytes(out))
        elif group == "form_factors.ff_u":
            self.selection_zeros += bool(out.selection_zero)

    def _wrap(self, group, fn):
        kind = self._id(group)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(kind)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self._on_result(group, out)
            return out
        return traced

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "sgsov" or name.startswith("sgsov.")]
        try:
            for group, targets in GROUPS.items():
                for modname, attr in targets:
                    owner = sys.modules["sgsov." + modname]
                    if "." in attr:
                        cls, attr = attr.split(".")
                        owner = getattr(owner, cls)
                    original = vars(owner)[attr]
                    wrapped = self._wrap(group, original)
                    self._patch(owner, attr, wrapped)
                    for mod in modules:
                        for alias, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, alias, wrapped)
            yield self
        finally:
            while self._saved:
                owner, attr, value = self._saved.pop()
                setattr(owner, attr, value)

    def _arrays(self):
        kind = np.frombuffer(self.kind, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        covered = np.zeros(len(dur))
        inner = parent >= 0
        np.add.at(covered, parent[inner], dur[inner])
        return kind, parent, dur, covered

    def group_metrics(self):
        """Calls and self time of every group, and the counts taken from
        return values."""
        kind, _, dur, covered = self._arrays()
        self_s = dur - covered
        out = {}
        for group in GROUPS:
            mask = kind == self._ids.get(group, -1)
            out[group + ".calls"] = int(np.sum(mask))
            out[group + ".self_s"] = float(np.sum(self_s[mask]))
        ff_calls = out["form_factors.ff_u.calls"]
        out["model_core.monodromy.bytes"] = self.monodromy_bytes
        out["form_factors.ff_u.selection_zero_share"] = (
            self.selection_zeros / ff_calls if ff_calls else 0.0)
        return out

    def phase_time(self, name):
        """Wall time of a phase, and the share of it spent in traced calls."""
        kind, _, dur, covered = self._arrays()
        mask = kind == self._ids["phase:" + name]
        return float(np.sum(dur[mask])), float(np.sum(covered[mask]) / np.sum(dur[mask]))

    def section_times(self):
        """Per section: the ``verify_suite`` time outside its preparation
        calls, summed over the configs of its phase."""
        kind, parent, dur, _ = self._arrays()
        suite = self._ids.get("oracle.verify_suite", -1)
        prep_ids = [self._ids[g] for g in PREPARATION if g in self._ids]
        prep = np.zeros(len(dur))
        child = np.isin(kind, prep_ids) & (parent >= 0)
        child &= kind[np.maximum(parent, 0)] == suite
        np.add.at(prep, parent[child], dur[child])
        out = {}
        for name in SECTIONS:
            phase = self._ids.get("phase:section:" + name, -1)
            mask = (kind == suite) & (kind[np.maximum(parent, 0)] == phase) & (parent >= 0)
            out[f"oracle.section.{name}.s"] = float(np.sum(dur[mask] - prep[mask]))
        return out

    def write(self, path):
        """Spans as tab-separated name, start, end, parent index."""
        with open(path, "w") as fh:
            for k, s, e, p in zip(self.kind, self.start, self.end, self.parent):
                fh.write(f"{self.names[k]}\t{s:.9f}\t{e:.9f}\t{p}\n")
