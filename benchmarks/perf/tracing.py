"""Benchmark-side tracing: spans around public calls, cProfile by layer.

Nothing here reaches inside the simulator. Spans come from wrappers the
benchmark installs with ``setattr`` at the place each public function is
looked up (``repro.browser.engine.load_page``,
``repro.testbed.campaign.produce_summary``, ...), and from ``with
tracer.span(...)`` blocks around the calls the benchmark makes itself.
Per-layer self time and call counts come from ``cProfile``, aggregated
by the source file each function lives in.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import json
import os
import pstats
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import repro

#: Layers, named after the ``repro`` module (or package) whose files
#: they cover. A file maps to the longest layer name its dotted module
#: path starts with; ``misc`` holds the remaining ``repro`` modules
#: (``util``, ``report``, ``lint``, ``transport.tls``/``config``,
#: ``netem.flowid``/``profiles``/``trace``) and ``other`` everything
#: outside ``repro``: the standard library, numpy, builtins and this
#: benchmark's own loop.
LAYERS: Tuple[str, ...] = (
    "browser", "http", "web",
    "transport.tcp", "transport.quic", "transport.ranges", "transport.cc",
    "transport.pacing", "transport.rtt",
    "netem.engine", "netem.link", "netem.path", "netem.packet",
    "netem.middlebox", "netem.proxy",
    "testbed", "study", "analysis", "misc", "other",
)

#: Boundary counters: metric name -> (file under ``repro/``, function
#: name). The count is the number of calls cProfile saw; a name defined
#: by several classes in one file (``Middlebox.process``) sums them.
BOUNDARIES: Dict[str, Tuple[str, str]] = {
    "netem.engine.events": ("netem/engine.py", "step"),
    "netem.link.packets": ("netem/link.py", "send"),
    "transport.tcp.acks": ("transport/tcp.py", "on_ack"),
    "transport.tcp.segments_rx": ("transport/tcp.py", "on_segment"),
    "transport.quic.ack_frames": ("transport/quic.py", "on_ack_frame"),
    "transport.quic.packets_rx": ("transport/quic.py", "on_data_packet"),
    "transport.ranges.adds": ("transport/ranges.py", "add"),
    "netem.middlebox.box_calls": ("netem/middlebox.py", "process"),
    "http.requests": ("http/base.py", "request"),
}

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def _repro_relative(filename: str) -> Optional[str]:
    """``transport/tcp.py`` for a ``repro`` source file, else None.

    cProfile names builtins ``~`` and generated code ``<...>``.
    """
    path = os.path.abspath(filename) if filename[:1] not in "~<" else ""
    if not path.startswith(_REPRO_DIR):
        return None
    return path[len(_REPRO_DIR):].replace(os.sep, "/")


def layer_of(filename: str) -> str:
    """The layer a source file belongs to (see :data:`LAYERS`)."""
    relative = _repro_relative(filename)
    if relative is None:
        return "other"
    module = relative.removesuffix(".py").replace("/", ".")
    matches = [layer for layer in LAYERS
               if module == layer or module.startswith(layer + ".")]
    return max(matches, key=len) if matches else "misc"


def profile_breakdown(
        profile) -> Tuple[Dict[str, float], Dict[str, int], Dict[str, int]]:
    """``(self_s, calls, boundary_counts)`` per layer from a profile."""
    self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
    counts: Dict[str, int] = {name: 0 for name in BOUNDARIES}
    wanted = {target: name for name, target in BOUNDARIES.items()}
    for (filename, _, func), (_, ncalls, tottime, _, _) in \
            pstats.Stats(profile).stats.items():
        layer = layer_of(filename)
        self_s[layer] += tottime
        calls[layer] += ncalls
        name = wanted.get((_repro_relative(filename) or "", func))
        if name is not None:
            counts[name] += ncalls
    return self_s, calls, counts


class NullTracer:
    """Tracing off: spans cost one no-op context manager, nothing more."""

    def begin_op(self, op: object) -> None:
        pass

    def span(self, name: str, op: object = None):
        return contextlib.nullcontext()

    def measured(self):
        return contextlib.nullcontext()


class Tracer:
    """Records spans in memory and wraps public functions by ``setattr``.

    A span is ``{name, start, end, id, parent, op}``: times in seconds
    since the tracer was created, ``parent`` the enclosing span's id,
    ``op`` the load index or condition label it belongs to (inherited
    from the enclosing span when the wrapper cannot tell).

    ``cProfile`` runs only inside :meth:`measured` blocks, the calls
    into the program, so the benchmark's own output checks and digests
    stay out of the per-layer numbers.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        #: Return values of wrappers installed with ``keep_results``.
        self.load_results: List[object] = []
        self.profile = cProfile.Profile()
        #: Wall time spent inside :meth:`measured` blocks.
        self.measured_s = 0.0
        self._origin = time.perf_counter()
        self._open: List[Tuple[int, object]] = []
        self._op: object = None
        self._next_id = 1
        self._patches: List[Tuple[object, str, object]] = []

    def begin_op(self, op: object) -> None:
        """Set the op id for spans opened outside any other span."""
        self._op = op

    @contextlib.contextmanager
    def measured(self) -> Iterator[None]:
        """Profile the block and add its wall time to ``measured_s``."""
        start = time.perf_counter()
        self.profile.enable()
        try:
            yield
        finally:
            self.profile.disable()
            self.measured_s += time.perf_counter() - start

    @contextlib.contextmanager
    def span(self, name: str, op: object = None) -> Iterator[None]:
        span_id = self._next_id
        self._next_id += 1
        parent, parent_op = self._open[-1] if self._open else (None, self._op)
        if op is None:
            op = parent_op
        self._open.append((span_id, op))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans.append({
                "name": name, "start": start - self._origin,
                "end": end - self._origin, "id": span_id,
                "parent": parent, "op": op,
            })

    def patch(self, owner: object, attr: str, name: str,
              op_of: Optional[Callable[..., object]] = None,
              keep_results: bool = False) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            op = op_of(*args, **kwargs) if op_of is not None else None
            with tracer.span(name, op):
                result = original(*args, **kwargs)
            if keep_results:
                tracer.load_results.append(result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        """Restore every wrapped function."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def with_self_times(self) -> List[Dict[str, object]]:
        """Spans with ``self_s``: duration minus what child spans cover.

        Children run strictly inside their parent on one thread, so the
        time they cover is the sum of their durations.
        """
        child_time: Dict[object, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        return [dict(span, self_s=span["end"] - span["start"]
                     - child_time[span["id"]])
                for span in sorted(self.spans, key=lambda s: s["id"])]

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(span["end"] - span["start"] for span in self.spans
                   if span["name"] == name)

    def write(self, path: Path) -> None:
        """Write the spans, with their self times, as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in self.with_self_times():
                handle.write(json.dumps(span, sort_keys=True) + "\n")
