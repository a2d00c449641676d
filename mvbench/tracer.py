"""Span tracer that wraps mvfed entry points from outside the package.

``SPANS`` maps each span name to every ``module:attribute`` under which
callers look the entry point up: ``from .mvl import _fit_stats`` in
``vfed`` binds its own name, so wrapping ``mvfed.mvl._fit_stats`` alone
would miss the vertical and horizontal trainers.  While a ``Tracer`` is
installed each call records its name, start, end and parent span; the
spans stay in memory until ``summary`` folds them into per-name call
counts, total and self times.  Uninstalling puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from typing import Callable

SPANS: dict[str, tuple[str, ...]] = {
    "numerics.solve_spd": ("mvfed.mvl:solve_spd",),
    "mvl.fit": ("mvfed.mvl:_fit_stats", "mvfed.vfed:_fit_stats", "mvfed.hfed:_fit_stats"),
    "mvl.objective": ("mvfed.mvl:objective", "mvfed.hfed:objective"),
    "mvl.predict": (
        "mvfed:predict_mvl", "mvfed.mvl:predict_mvl",
        "mvfed.hfed:predict_mvl", "mvfed.experiments:predict_mvl",
    ),
    "vfed.client_step": ("mvfed.vfed:VerticalClient.step",),
    "vfed.server_aggregate": ("mvfed.vfed:VerticalServer.aggregate",),
    "vfed.predict": (
        "mvfed.vfed:VerticalPredictClient.step",
        "mvfed.vfed:VerticalPredictServer.aggregate",
    ),
    "hfed.client_step": ("mvfed.hfed:HorizontalClient.step",),
    "hfed.aggregate": ("mvfed.hfed:aggregate_transforms",),
    "sfed.local_training": ("mvfed.sfed:local_training", "mvfed.experiments:local_training"),
    "sfed.loss_and_grad": ("mvfed.sfed:loss_and_grad",),
    "sfed.fedavg": ("mvfed.sfed:fedavg_aggregate",),
    "sfed.extract_features": (
        "mvfed:extract_features", "mvfed.sfed:extract_features",
        "mvfed.experiments:extract_features",
    ),
    "fedcore.run_rounds": (
        "mvfed.vfed:run_rounds", "mvfed.hfed:run_rounds", "mvfed.sfed:run_rounds",
        "mvfed.fedcore:run_rounds", "mvfed.fedcore.rounds:run_rounds",
    ),
    "fedcore.encode": (
        "mvfed.fedcore.rounds:encode_message", "mvfed.fedcore.transport:encode_message",
    ),
    "fedcore.decode": ("mvfed.fedcore.transport:decode_message",),
    "data.generate": (
        "mvfed:gen_multiview", "mvfed:gen_complementary", "mvfed:gen_sequences",
        "mvfed.experiments:gen_multiview", "mvfed.experiments:gen_complementary",
        "mvfed.experiments:gen_sequences",
    ),
    "data.partition": (
        "mvfed:partition_horizontal", "mvfed:partition_sequences",
        "mvfed.experiments:partition_horizontal", "mvfed.experiments:partition_sequences",
    ),
    "experiments.run_experiment": ("mvfed:run_experiment", "mvfed.experiments:run_experiment"),
    "metrics.compute_metrics": ("mvfed:compute_metrics", "mvfed.experiments:compute_metrics"),
}


def _owner(target: str):
    """The object holding the attribute named by ``module:Class.attr``."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """In-memory span recorder; use ``with tracer.installed():``.

    The benchmark records its own job spans with ``tracer.wrap``.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one span named ``name`` per call."""
        names, starts, ends, parents, open_spans = (
            self.names, self.starts, self.ends, self.parents, self._open
        )
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name)
            parents.append(open_spans[-1] if open_spans else -1)
            ends.append(0.0)
            open_spans.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                open_spans.pop()

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target in ``SPANS``; restore the originals on exit."""
        saved = []
        wrappers: dict[tuple[str, int], Callable] = {}
        try:
            for name, targets in SPANS.items():
                for target in targets:
                    owner, attr = _owner(target)
                    original = getattr(owner, attr)
                    key = (name, id(original))
                    if key not in wrappers:
                        wrappers[key] = self.wrap(name, original)
                    saved.append((owner, attr, original))
                    setattr(owner, attr, wrappers[key])
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``.

        Self time is a span's duration minus the durations of its direct
        child spans.  Spans of one thread nest without overlapping, so
        that difference is the time no child covers.
        """
        child_s = [0.0] * len(self.starts)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_s[parent] += self.ends[i] - self.starts[i]
        out: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            duration = self.ends[i] - self.starts[i]
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_s[i]
        return out
