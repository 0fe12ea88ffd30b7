"""Outside-in span tracing: wraps layer entry points, edits nothing in src/.

:class:`SpanTracer` replaces each layer's entry point at the name its
caller resolves (a module attribute such as
``repro.core.pipeline.render_block``, or a method on the class the
caller's instance comes from) with a wrapper that opens a span, calls
the original, closes the span and counts the work done.  Uninstalling
puts every original back.

A span is ``(id, parent, layer, start, end, op)`` in host
``perf_counter`` seconds.  Spans stay in memory and are written once,
when the run ends.  A layer's self time is its span's duration minus
the durations of its direct child spans, computed on the fly from a
stack; spans with layer ``None`` are boundaries only (their self time
is left unattributed).

The program is single-threaded and its coroutine ranks are resumed one
at a time, so spans nest strictly: every span opens and closes inside
one resume of one generator.  The compositing backends' ``compose`` is
itself a generator; its wrapper times each resume separately.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable

#: Layers in report order; each is a module (or module group) of src/repro.
LAYERS = (
    "render", "pio", "plan", "compositing", "vmpi", "network", "sim", "data", "farm",
)


class SpanTracer:
    """In-memory span recorder with per-layer self time and counters."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.op: int | None = None
        self._stack: list[list] = []  # [id, layer, start, child_seconds]
        self._next_id = 0
        self._saved: list[tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------

    def begin(self, layer: str | None) -> None:
        self._stack.append([self._next_id, layer, time.perf_counter(), 0.0])
        self._next_id += 1

    def end(self) -> None:
        end = time.perf_counter()
        sid, layer, start, child = self._stack.pop()
        duration = end - start
        if layer is not None:
            self.self_s[layer] += duration - child
        parent = None
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        self.spans.append((sid, parent, layer, start, end, self.op))

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    # -- installing wrappers ---------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str | None,
        before: Callable[..., Any] | None = None,
        after: Callable[..., None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a spanned call.

        ``before(*args)`` runs ahead of the span; its value and the
        call's result go to ``after(state, result, *args)``, which
        records counts.
        """
        original = getattr(owner, attr)
        tracer = self

        def spanned(*args, **kwargs):
            state = before(*args) if before is not None else None
            tracer.begin(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end()
            if after is not None:
                after(state, result, *args)
            return result

        self._replace(owner, attr, spanned)

    def wrap_generator(self, owner: Any, attr: str, layer: str) -> None:
        """Replace a generator function; each resume is its own span."""
        original = getattr(owner, attr)
        tracer = self

        def spanned(*args, **kwargs):
            inner = original(*args, **kwargs)
            send, thrown = None, None
            while True:
                tracer.begin(layer)
                try:
                    if thrown is not None:
                        value = inner.throw(thrown)
                    else:
                        value = inner.send(send)
                except StopIteration as stop:
                    return stop.value
                finally:
                    tracer.end()
                send, thrown = None, None
                try:
                    send = yield value
                except GeneratorExit:
                    inner.close()
                    raise
                except BaseException as exc:  # forwarded into the inner generator
                    thrown = exc

        self._replace(owner, attr, spanned)

    def _replace(self, owner: Any, attr: str, new: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span as CSV: id, parent, layer, start, end, op."""
        with open(path, "w") as fh:
            fh.write("id,parent,layer,start,end,op\n")
            for sid, parent, layer, start, end, op in self.spans:
                fh.write(
                    f"{sid},{'' if parent is None else parent},{layer or ''},"
                    f"{start!r},{end!r},{'' if op is None else op}\n"
                )


def install_layers(tracer: SpanTracer) -> None:
    """Wrap every layer entry point the benchmark reports on."""
    import repro.core.pipeline as pipeline
    import repro.data
    from repro.compositing.backends import backend_names, get_backend
    from repro.core.plan import FramePlanCache
    from repro.farm.backends import ExecuteBackend
    from repro.farm.service import RenderFarm
    from repro.network.desnet import DESNetwork
    from repro.pio.reader import AsyncBlockRead
    from repro.vmpi.comm import MessageBoard
    from repro.vmpi.runner import MPIWorld

    count = tracer.count

    def rendered(_state, partial, *_args):
        count("render.calls")
        if partial is not None:
            count("render.samples", partial.samples)

    tracer.wrap(pipeline, "render_block", "render", after=rendered)

    # collective_read_blocks is AsyncBlockRead(...).issue().wait(); the
    # pipelined time series and the progressive ladder use the same
    # class, so wrapping it covers every functional read.
    def planned_read(_state, _result, read, *_args):
        report = read.report
        count("pio.requested_bytes", report.requested_bytes)
        count("pio.physical_bytes", report.physical_bytes)
        count("pio.accesses", report.num_accesses)

    tracer.wrap(AsyncBlockRead, "__init__", "pio", after=planned_read)
    tracer.wrap(AsyncBlockRead, "issue", "pio")
    tracer.wrap(AsyncBlockRead, "wait", "pio")

    def plan_hit_or_miss(misses_before, _plan, cache, *_args):
        count("plan.misses" if cache.misses > misses_before else "plan.hits")

    tracer.wrap(
        FramePlanCache, "plan_for", "plan",
        before=lambda cache, *_a: cache.misses, after=plan_hit_or_miss,
    )

    wrapped = set()
    for name in backend_names():
        cls = type(get_backend(name))
        owner = next(k for k in cls.__mro__ if "compose" in k.__dict__)
        if owner not in wrapped:
            wrapped.add(owner)
            tracer.wrap_generator(owner, "compose", "compositing")

    tracer.wrap(MessageBoard, "post_send", "vmpi",
                after=lambda _s, _r, *_a: count("vmpi.messages"))
    tracer.wrap(MessageBoard, "post_send_many", "vmpi",
                after=lambda _s, reqs, *_a: count("vmpi.messages", len(reqs)))
    tracer.wrap(MessageBoard, "post_recv", "vmpi")

    tracer.wrap(DESNetwork, "transfer", "network",
                after=lambda _s, _r, *_a: count("network.transfers"))
    tracer.wrap(DESNetwork, "transfer_many", "network",
                after=lambda _s, futs, *_a: count("network.transfers", len(futs)))

    tracer.wrap(MPIWorld, "run", "sim",
                after=lambda _s, res, *_a: count("vmpi.bytes", res.bytes_sent))

    def written(_state, file, *_args):
        count("data.bytes", file.store.size())

    tracer.wrap(repro.data.SupernovaModel, "field", "data")
    tracer.wrap(repro.data, "write_vh1_netcdf", "data", after=written)
    tracer.wrap(repro.data, "extract_variable_raw", "data", after=written)

    def served(_state, result, *_args):
        count("farm.requests", result.arrivals)
        count("farm.rendered", result.rendered)
        count("farm.cache_hits", result.cache_hits)
        count("farm.coalesced", result.coalesced)

    tracer.wrap(RenderFarm, "run", "farm", after=served)
    # The farm's layer is its own service code: a backend render is a
    # boundary whose contents belong to the layers inside it.
    tracer.wrap(ExecuteBackend, "render", None)
