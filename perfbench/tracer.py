"""Spans around dppkit's public functions, installed from outside the package.

``Tracer.install`` replaces each target function with a wrapper in every
``dppkit`` module namespace that holds it (methods are replaced on their
class), so calls made inside the package are caught as well as the
benchmark's own.  Spans are kept in flat arrays in memory: name, job id,
parent span, start and end.  Self time is a span's duration minus the
durations of its direct children.  ``uninstall`` restores the originals.
Runs without tracing never install the wrappers.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np


def _count_nodes(tracer, a):
    n_max = a["n_max"]
    tracer.work["dimension.s_n_q_table.nodes"] += 2 ** (n_max + 1) - 2
    tracer.trees.add((id(a["sym"]), n_max))


def _count_pairs(tracer, a):
    tracer.work["mixing.psi_finite_window.pairs"] += 4 ** a["N"]


def _count_bits(tracer, a):
    tracer.work["sampler.sample_prefix.bits"] += a["n"]


def _count_chars(tracer, a):
    n = a.get("n")
    if n is None:
        n = min(len(a["x"]), len(a["y"]))
    tracer.work["lcs.lcs_length.chars"] += 2 * n


# (dppkit module, attribute or Class.method, reported layer name, work counter)
TARGETS = (
    ("symbol", "Symbol.coeffs", "symbol.coeffs", None),
    ("symbol", "tail_sum", "symbol.tail_sum", None),
    ("toeplitz", "build_T", "toeplitz.build_T", None),
    ("toeplitz", "log_det", "toeplitz.log_det", None),
    ("toeplitz", "trace_norm", "toeplitz.trace_norm", None),
    ("measure", "PrefixState.extend", "measure.extend", None),
    ("measure", "PrefixState.conditional_one", "measure.conditional_one", None),
    ("measure", "correlation_ratio", "measure.correlation_ratio", None),
    ("mixing", "psi_bound_report", "mixing.psi_bound_report", None),
    ("mixing", "psi_finite_window", "mixing.psi_finite_window", _count_pairs),
    ("mixing", "allones_lower_witness", "mixing.allones_lower_witness", None),
    ("dimension", "dim_q_estimate", "dimension.dim_q_estimate", None),
    ("dimension", "s_n_q_table", "dimension.s_n_q_table", _count_nodes),
    ("dimension", "corr_dim_szego_lower", "dimension.szego", None),
    ("dimension", "corr_dim_szego_upper", "dimension.szego", None),
    ("sampler", "sample_many", "sampler.sample_many", None),
    ("sampler", "sample_prefix", "sampler.sample_prefix", _count_bits),
    ("lcs", "rate_experiment", "lcs.rate_experiment", None),
    ("lcs", "lcs_length", "lcs.lcs_length", _count_chars),
)
JOB = "job"
LAYERS = tuple(dict.fromkeys(name for _, _, name, _ in TARGETS))
MODULES = tuple(dict.fromkeys(name.split(".")[0] for name in LAYERS))
WORK = ("dimension.s_n_q_table.nodes", "mixing.psi_finite_window.pairs",
        "sampler.sample_prefix.bits", "lcs.lcs_length.chars")


class Tracer:
    def __init__(self):
        self.names = [JOB, *LAYERS]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.job = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.work = dict.fromkeys(WORK, 0)
        self.trees: set = set()
        self._stack: list = []
        self._job_id = -1
        self._patches: list = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.job.append(self._job_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def run_job(self, job_id: int, fn):
        """fn() under the root span of one job; spans opened inside carry its id."""
        self._job_id = job_id
        idx = self._open(self._ids[JOB])
        try:
            return fn()
        finally:
            self._close(idx)
            self._job_id = -1

    # -- patching ------------------------------------------------------------

    def _wrap(self, fn, name_id: int, counter):
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._job_id < 0:
                return fn(*args, **kwargs)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self, bound.arguments)
            idx = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "dppkit" or name.startswith("dppkit.")]
        for module_name, path, name, counter in TARGETS:
            owner = importlib.import_module(f"dppkit.{module_name}")
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                self._set(cls, attr, self._wrap(cls.__dict__[attr], self._ids[name], counter))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(original, self._ids[name], counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- summary -------------------------------------------------------------

    def summary(self) -> dict:
        """Per layer: calls, self seconds, and inclusive seconds and calls per job id."""
        names = np.frombuffer(self.name, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros(dur.size)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=self_time, minlength=k)
        jobs = np.frombuffer(self.job, dtype=np.int32)
        width = int(jobs.max(initial=0)) + 1
        out = {}
        for i, name in enumerate(self.names):
            mask = names == i
            out[name] = {
                "calls": int(calls[i]),
                "self_s": float(self_s[i]),
                "by_job": np.bincount(jobs[mask], weights=dur[mask], minlength=width),
                "calls_by_job": np.bincount(jobs[mask], minlength=width),
            }
        return out
