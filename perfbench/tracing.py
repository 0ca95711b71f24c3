"""Spans and counters recorded around calls into csforge's layers.

The tracer replaces a function where its calling module binds it (for
example ``qam.encode_pair`` and ``cli.is_gcp``) with a wrapper that records
a span: name, start, end and the span that was open when it began.  Spans
stay in memory until the run ends.  A span's self time is its duration minus
the durations of its direct children; its name's busy time counts only spans
with no ancestor of the same name, so nested calls are not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import os
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """In-memory span recorder with patch/restore of traced functions."""

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.counts: Counter = Counter()
        self.worst_residual = 0.0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        if self._stack[-1] == index:
            self._stack.pop()
        else:  # a generator closed out of order
            self._stack.remove(index)

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    # -- patching --------------------------------------------------------------

    def _replace(self, owner, attr: str, wrapper) -> None:
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper))

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Record a span around every call of ``owner.attr``.

        A generator function gets one span from its first step to its end.
        ``after(args, kwargs, result)`` runs once the span has closed.
        """
        original = vars(owner)[attr]
        if inspect.isgeneratorfunction(original):
            def wrapper(*args, **kwargs):
                index = self.open(name)
                try:
                    for value in original(*args, **kwargs):
                        self.counts[name + ".yielded"] += 1
                        yield value
                finally:
                    self.close(index)
        else:
            def wrapper(*args, **kwargs):
                index = self.open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.close(index)
                if after is not None:
                    after(args, kwargs, result)
                return result
        self._replace(owner, attr, wrapper)

    def count_calls(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without recording spans."""
        original = vars(owner)[attr]
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._replace(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def layer_times(names, starts, ends, parents) -> dict[str, tuple[int, float, float]]:
    """Per span name: (spans, busy seconds, self seconds)."""
    n = len(names)
    child = [0.0] * n
    for i in range(n):
        if parents[i] >= 0:
            child[parents[i]] += ends[i] - starts[i]
    out: dict[str, tuple[int, float, float]] = {}
    for i in range(n):
        name = names[i]
        duration = ends[i] - starts[i]
        ancestor = parents[i]
        while ancestor >= 0 and names[ancestor] != name:
            ancestor = parents[ancestor]
        calls, busy, own = out.get(name, (0, 0.0, 0.0))
        outermost = duration if ancestor < 0 else 0.0
        out[name] = (calls + 1, busy + outermost, own + duration - child[i])
    return out


def enclosing(index: int, name: str, names, parents) -> int:
    """Index of the nearest ancestor span called ``name``, or -1."""
    index = parents[index]
    while index >= 0 and names[index] != name:
        index = parents[index]
    return index


def instrument(tracer: Tracer) -> None:
    """Wrap each layer's entry points where csforge's own modules call them."""
    from csforge import boolean, cli, encoder, qam

    def metrology(args, kwargs, result):
        tracer.counts["analysis.elements"] += len(args[0])

    def gcp(args, kwargs, result):
        tracer.counts["analysis.elements"] += len(args[0]) + len(args[1])
        tracer.worst_residual = max(tracer.worst_residual, result.residual)

    def distinct(args, kwargs, result):
        tracer.counts["qam.distinct"] += result

    def codebook(args, kwargs, result):
        tracer.counts["qam.distinct"] += len(result)

    def simulated(args, kwargs, result):
        tracer.counts["simulate.distance_evals"] += (
            result.trials * len(result.ebn0_db) * result.codebook_size)

    def written(args, kwargs, result):
        out_path = args[1] if len(args) > 1 else kwargs.get("out_path")
        if out_path:
            tracer.counts["cli.json_bytes"] += os.path.getsize(out_path)

    tracer.patch(cli, "encode_pair", "encoder.encode_pair")
    tracer.patch(qam, "encode_pair", "encoder.encode_pair")
    tracer.patch(encoder, "component_functions", "encoder.component_functions")
    tracer.patch(qam, "recursion_to_encoder", "encoder.recursion_to_encoder")
    tracer.count_calls(boolean.BooleanPolynomial, "__init__", "boolean.poly_constructed")
    tracer.patch(boolean.BooleanPolynomial, "table", "boolean.table")
    for builder in ("green_params", "yellow_params", "blue_params", "cyan_params",
                    "orange_params", "rule_params"):
        tracer.patch(qam, builder, "qam.build_params")
    tracer.patch(qam, "enumerate_rule", "qam.enumerate_rule")
    tracer.patch(qam, "sequence_key", "qam.sequence_key")
    tracer.patch(qam, "distinct_sequences", "qam.distinct_sequences", after=distinct)
    tracer.patch(cli, "_codebook_from_args", "cli.codebook", after=codebook)
    tracer.patch(cli, "is_gcp", "analysis.is_gcp", after=gcp)
    # the complementarity check every SeedPair runs on construction
    tracer.patch(encoder, "is_gcp", "analysis.is_gcp.seed", after=gcp)
    tracer.patch(cli, "papr_bound_db", "analysis.papr_bound_db", after=metrology)
    tracer.patch(cli, "papr_oversampled_db", "analysis.papr_oversampled_db", after=metrology)
    tracer.patch(cli, "min_distance_sim", "simulate.min_distance_sim", after=simulated)
    tracer.patch(cli, "sequence_record", "cli.sequence_record")
    tracer.patch(cli, "_emit", "cli.json_write", after=written)
    tracer.patch(cli, "_load_json", "cli.json_read")
