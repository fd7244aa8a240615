"""Outside-in layer tracing: spans taken around calls into the library.

Nothing here edits the library.  Every span is recorded by this file, at a
public seam the library already offers:

* timing subclasses the workload hands in (a root component, a coin, a
  codec, a transport and its endpoints);
* a delegating adversary;
* class or module attributes swapped for the length of one traced pass
  (``Environment.coin_outcome`` and the Reed-Solomon decoders), restored
  afterwards by :meth:`Layers.close`;
* ``gc.callbacks``.

Every wrapper reads the clock and counts calls, nothing else, so a traced
trial must reproduce the untraced trial's trajectory digest exactly; the
campaign checks that on every traced trial.
"""

from __future__ import annotations

import gc
import time
from collections import Counter, defaultdict

from repro.adversary.base import Adversary
from repro.coin import reedsolomon
from repro.coin import shamir as shamir_module
from repro.coin.feldman_micali import FeldmanMicaliCoin, FeldmanMicaliInstance
from repro.core.clock_sync import SSByzClockSync
from repro.net.environment import Environment
from repro.runtime.codec import BinaryCodec
from repro.runtime.transport import LocalTransport
from repro.runtime.wire import MSG

__all__ = [
    "Layers",
    "MarkedTransport",
    "TimedAdversary",
    "TimedCodec",
    "TimedTransport",
    "timed_clock_sync",
    "timed_feldman_micali",
]

#: Raw spans kept per traced pass; the aggregates cover every span.
RAW_SPAN_CAP = 20000


class Layers:
    """Nested wall-clock spans, aggregated per layer name.

    ``enter``/``exit`` must pair on one synchronous stretch of code: every
    wrapped call here is synchronous (the runtime's awaited receive is
    recorded with :meth:`add_wait`, not as a span), so the single stack is
    correct even with many asyncio tasks on the loop.  A span's self time
    is its duration minus its child spans.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Deterministic work counts (units, bytes, view sizes, ...).
        self.counts: Counter = Counter()
        #: Time spent suspended waiting, per name (never nested in spans).
        self.waits: dict[str, float] = defaultdict(float)
        #: ``(id, parent id, name, start, end, trial, beat)`` of the first
        #: :data:`RAW_SPAN_CAP` spans, in completion order.
        self.raw: list[tuple] = []
        self.trial = None
        self.beat = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._gc_started = 0.0
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> None:
        stack = self._stack
        parent = stack[-1][3] if stack else None
        # [name, start, child time, span id, parent span id]
        stack.append([name, self.clock(), 0.0, self._next_id, parent])
        self._next_id += 1

    def exit(self) -> None:
        end = self.clock()
        name, start, child, span_id, parent = self._stack.pop()
        duration = end - start
        self.total[name] += duration
        self.self_time[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if len(self.raw) < RAW_SPAN_CAP:
            self.raw.append(
                (span_id, parent, name, start, end, self.trial, self.beat)
            )

    def add_wait(self, name: str, seconds: float) -> None:
        self.waits[name] += seconds

    # -- global seams ----------------------------------------------------------

    def install(self) -> None:
        """Swap the class/module seams and hook the collector."""
        layers = self

        original_coin = Environment.coin_outcome

        def coin_outcome(env, path, beat, p0, p1):
            layers.enter("coin.oracle")
            try:
                return original_coin(env, path, beat, p0, p1)
            finally:
                layers.exit()

        self._patch(Environment, "coin_outcome", coin_outcome)
        # Every decode ends in one of these two bindings of the same
        # function: ``decode_best_effort`` (GVSS recovery) calls the
        # module-global ``reedsolomon.decode``, and Shamir reconstruction
        # calls its own imported ``decode``.  Wrapping ``decode_best_effort``
        # too would open two nested spans per decode.
        for module, name in (
            (reedsolomon, "decode"),
            (shamir_module, "decode"),
        ):
            self._patch(module, name, self._timed_decoder(getattr(module, name)))
        gc.callbacks.append(self._on_gc)

    def _timed_decoder(self, decoder):
        layers = self

        def timed(*args, **kwargs):
            layers.enter("coin.rs_decode")
            try:
                return decoder(*args, **kwargs)
            finally:
                layers.exit()

        return timed

    def _patch(self, owner, name, value) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._gc_started = self.clock()
        else:
            self.total["py.gc"] += self.clock() - self._gc_started
            self.calls["py.gc"] += 1

    def close(self) -> None:
        """Undo :meth:`install`."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    def spans_jsonable(self) -> list[dict]:
        return [
            {"id": span_id, "parent": parent, "name": name, "start": start,
             "end": end, "trial": trial, "beat": beat}
            for span_id, parent, name, start, end, trial, beat in self.raw
        ]


# -- protocol tower ------------------------------------------------------------


def timed_clock_sync(layers: Layers):
    """A timing subclass of the clock-sync root (send/update per node-beat)."""

    class TimedClockSync(SSByzClockSync):
        def on_send(self, ctx) -> None:
            layers.enter("tower.send")
            try:
                super().on_send(ctx)
            finally:
                layers.exit()

        def on_update(self, ctx) -> None:
            layers.enter("tower.update")
            try:
                super().on_update(ctx)
            finally:
                layers.exit()

    return TimedClockSync


def timed_feldman_micali(layers: Layers):
    """A timing subclass of the GVSS coin whose instances time each round."""

    class TimedInstance(FeldmanMicaliInstance):
        def send_round(self, round_index, ctx) -> None:
            layers.enter("coin.gvss")
            try:
                super().send_round(round_index, ctx)
            finally:
                layers.exit()

        def update_round(self, round_index, ctx) -> None:
            layers.enter("coin.gvss")
            try:
                super().update_round(round_index, ctx)
            finally:
                layers.exit()

    class TimedFeldmanMicali(FeldmanMicaliCoin):
        def new_instance(self):
            return TimedInstance(self)

    return TimedFeldmanMicali


# -- adversary -------------------------------------------------------------------


class TimedAdversary(Adversary):
    """Delegates every hook to ``inner``; times and sizes ``craft_messages``."""

    def __init__(self, inner: Adversary, layers: Layers) -> None:
        super().__init__()
        self.inner = inner
        self.layers = layers

    def select_faulty(self, n, f, rng):
        return self.inner.select_faulty(n, f, rng)

    def setup(self, n, f, faulty_ids, rng) -> None:
        super().setup(n, f, faulty_ids, rng)
        self.inner.setup(n, f, faulty_ids, rng)

    def craft_messages(self, view):
        layers = self.layers
        layers.counts["adversary.view_msgs"] += len(view.visible_messages)
        layers.enter("adversary.craft")
        try:
            crafted = list(self.inner.craft_messages(view))
        finally:
            layers.exit()
        layers.counts["adversary.units"] += len(crafted)
        return crafted

    def choose_divergent_outputs(self, key, bits):
        return self.inner.choose_divergent_outputs(key, bits)


# -- runtime wire path -----------------------------------------------------------


class TimedCodec(BinaryCodec):
    """The ``binary`` codec, timed per call and sized per unit."""

    def __init__(self, layers: Layers) -> None:
        self.layers = layers

    def encode_batch(self, frames):
        layers = self.layers
        layers.enter("codec.encode")
        try:
            units = super().encode_batch(frames)
        finally:
            layers.exit()
        counts = layers.counts
        counts["codec.encode_units"] += len(units)
        counts["codec.bytes"] += sum(len(unit) for unit in units)
        counts["codec.msg_frames"] += sum(
            1 for frame in frames if frame.kind == MSG
        )
        return units

    def decode_batch(self, data):
        layers = self.layers
        layers.enter("codec.decode")
        try:
            return super().decode_batch(data)
        finally:
            layers.exit()


class MarkedTransport(LocalTransport):
    """``LocalTransport`` that notes when its last endpoint opened.

    The run's set-up ends there: every node and the Byzantine process
    open their endpoints before the first beat starts.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        super().__init__()
        self.clock = clock
        self.opened_at = 0.0

    async def open(self, node_id: int):
        endpoint = await super().open(node_id)
        self.opened_at = self.clock()
        return endpoint


class _TimedEndpoint:
    """Endpoint proxy: spans on sends and non-blocking receives, plus the
    time an honest node's task spends suspended in ``recv`` (barrier
    wait)."""

    def __init__(self, inner, layers: Layers, honest: bool) -> None:
        self.node_id = inner.node_id
        self._inner = inner
        self._layers = layers
        self._honest = honest

    def send_nowait(self, receiver: int, data: bytes) -> None:
        layers = self._layers
        layers.enter("transport.send")
        try:
            self._inner.send_nowait(receiver, data)
        finally:
            layers.exit()

    async def send(self, receiver: int, data: bytes) -> None:
        self.send_nowait(receiver, data)

    def recv_nowait(self):
        layers = self._layers
        layers.enter("transport.recv")
        try:
            item = self._inner.recv_nowait()
        finally:
            layers.exit()
        if item is not None:
            layers.counts["transport.received"] += 1
        return item

    async def recv(self):
        layers = self._layers
        started = layers.clock()
        try:
            item = await self._inner.recv()
        finally:
            if self._honest:
                layers.add_wait("sync.wait", layers.clock() - started)
        layers.counts["transport.received"] += 1
        return item


class TimedTransport(MarkedTransport):
    """``MarkedTransport`` whose endpoints are timed proxies."""

    def __init__(self, layers: Layers, adversary: Adversary) -> None:
        super().__init__(layers.clock)
        self.layers = layers
        # The runner sets the adversary up before it opens any endpoint.
        self.adversary = adversary

    async def open(self, node_id: int):
        endpoint = await super().open(node_id)
        honest = node_id not in self.adversary.faulty_ids
        return _TimedEndpoint(endpoint, self.layers, honest)
