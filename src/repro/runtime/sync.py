"""The round barrier: synchronous beats on top of bounded-delay delivery.

The simulator hands every node the synchronous-round abstraction for free;
a live network does not.  :class:`BeatSynchronizer` rebuilds it per node:

* every frame is tagged with the beat its sender emitted it at;
* after its send phase a peer emits an ``end`` marker for the beat; the
  barrier for beat ``b`` closes when markers for ``b`` from *every*
  expected peer have arrived — or, if a ``beat_timeout`` is set, when the
  timeout expires (a peer withholding markers can slow each beat to the
  timeout, never halt the run);
* traffic tagged for a *near-future* beat (a faster peer is ahead) is
  buffered until that beat opens — under FIFO links honest peers drift
  by less than one full beat, so the buffering horizon
  (:data:`MAX_LOOKAHEAD` beats) is generous for every correct peer while
  bounding what a Byzantine peer streaming far-future tags can pin in
  memory (the same threat model :mod:`repro.runtime.wire` caps frame
  sizes for); frames beyond the horizon are counted in
  ``premature_messages`` and dropped;
* traffic tagged for a *past* beat arrives too late to be delivered
  without breaking the round abstraction: it is **counted and dropped**
  (``late_messages``), and never leaks into a later beat's inbox.

At barrier close the beat's traffic is sorted by ``(sender, seq)`` — the
per-sender emission sequence stamped in the wire frames — and grouped into
per-path inboxes.  For one sender this reproduces emission order, across
senders ascending id order: exactly the stable sender sort the simulation
engines deliver, which is what makes a zero-delay runtime bit-identical to
the lock-step simulator (``tests/test_runtime_differential.py``).
"""

from __future__ import annotations

import asyncio
from typing import Iterable

from repro.errors import ConfigurationError
from repro.net.events import DriftingClock
from repro.net.message import Envelope
from repro.runtime.codec import Codec, DEFAULT_CODEC, resolve_codec
from repro.runtime.transport import Endpoint
from repro.runtime.wire import END, MSG, MAX_FRAME_LEN, Frame, WireError

__all__ = ["MAX_LOOKAHEAD", "BeatSynchronizer", "PulseBarrier", "check_sync"]

#: Buffering horizon, in beats: frames tagged this far past the current
#: beat are discarded rather than parked.  Honest peers drift by less
#: than one beat under FIFO links; the slack covers pathological-but-
#: correct schedules while denying a Byzantine peer unbounded buffers.
MAX_LOOKAHEAD = 64

#: Sort key + envelope, as buffered per beat.
Entry = tuple[tuple[int, int], Envelope]


def check_sync(sync: str, rho: float, pulse_period: float) -> None:
    """Validate a run's barrier mode: ``"beat"`` (fixed timeout, no
    drift) or ``"pulse"`` (drifting clocks; ``rho`` and ``pulse_period``
    checked with the event engine's own
    :class:`~repro.net.events.DriftingClock` rules)."""
    if sync not in ("beat", "pulse"):
        raise ConfigurationError(
            f"unknown sync mode {sync!r}: expected 'beat' or 'pulse'"
        )
    if sync == "beat" and rho:
        raise ConfigurationError(
            "clock drift (rho) only applies to the pulse barrier; "
            "use sync='pulse'"
        )
    if sync == "pulse":
        DriftingClock(0, 0, rho, pulse_period)


class BeatSynchronizer:
    """Per-node round barrier over one transport endpoint.

    Args:
        endpoint: the node's transport attachment; the synchronizer is its
            sole reader.
        expected: peer ids whose ``end`` markers close each barrier —
            normally every node id in the system, including this node's
            own (its loopback marker) and the faulty ids (the Byzantine
            process emits markers after injecting its traffic, which is
            what lets a *rushing* adversary act within the beat).
        beat_timeout: seconds to wait for the barrier before closing it
            anyway (counted in ``barrier_timeouts``); ``None`` waits
            forever, which is only safe when every expected peer is
            guaranteed live (e.g. the differential harness).
        codec: the run's wire codec (name or instance); every wire unit
            the endpoint yields is decoded through it, and a unit that is
            oversized or fails to decode is counted in
            ``malformed_frames`` and dropped whole.
    """

    def __init__(
        self,
        endpoint: Endpoint,
        expected: Iterable[int],
        *,
        beat_timeout: "float | None" = None,
        codec: "str | Codec" = DEFAULT_CODEC,
    ) -> None:
        self.endpoint = endpoint
        self.expected = frozenset(expected)
        self.beat_timeout = beat_timeout
        self.codec = resolve_codec(codec)
        self.beat = 0
        self.late_messages = 0
        self.premature_messages = 0
        self.malformed_frames = 0
        self.barrier_timeouts = 0
        self._messages: dict[int, list[Entry]] = {}
        self._markers: dict[int, set[int]] = {}
        # The receiver of every delivered envelope: this endpoint, never
        # the frame's claimed field (honest broadcasts claim BROADCAST).
        self._node_id = endpoint.node_id
        # Transport fast path: endpoints backed by an in-process queue
        # expose a non-blocking drain, which lets one await service a
        # whole burst of queued wire units.
        self._recv_nowait = getattr(endpoint, "recv_nowait", None)

    @property
    def counters(self) -> dict[str, int]:
        """The barrier's health counters, as one name-keyed snapshot —
        what the CLI summary, :meth:`ClusterResult.to_jsonl` health line
        and the metrics collectors read."""
        return {
            "late_messages": self.late_messages,
            "premature_messages": self.premature_messages,
            "malformed_frames": self.malformed_frames,
            "barrier_timeouts": self.barrier_timeouts,
        }

    # -- frame intake ------------------------------------------------------

    def note(self, sender: int, data: bytes) -> None:
        """Classify one received wire unit (tests may call this directly)."""
        try:
            if len(data) > MAX_FRAME_LEN:
                raise WireError(
                    f"unit of {len(data)} bytes exceeds the "
                    f"{MAX_FRAME_LEN}-byte cap"
                )
            frames = self.codec.decode_batch(data)
        except WireError:
            self.malformed_frames += 1
            return
        for frame in frames:
            self._classify(sender, frame)

    def _classify(self, sender: int, frame: Frame) -> None:
        if frame.beat >= self.beat + MAX_LOOKAHEAD:
            # Far beyond any correct peer's possible drift: refuse to
            # buffer (a faulty peer could otherwise pin unbounded memory).
            self.premature_messages += 1
            return
        if frame.kind == END:
            if frame.beat >= self.beat:
                self._markers.setdefault(frame.beat, set()).add(sender)
            return
        if frame.kind != MSG:
            return  # hello frames never reach past the transport layer
        if frame.beat < self.beat:
            # Tagged for a barrier that already closed: count and drop.
            self.late_messages += 1
            return
        self._messages.setdefault(frame.beat, []).append(
            ((sender, frame.seq), frame.envelope(sender, self._node_id))
        )

    # -- the barrier -------------------------------------------------------

    def _deadline(self, loop: asyncio.AbstractEventLoop) -> "float | None":
        """Loop time at which the current barrier gives up waiting.

        The base barrier waits a fixed ``beat_timeout`` from the moment
        the barrier is requested; :class:`PulseBarrier` overrides this
        with its drifting clock's pulse schedule.
        """
        return (
            None if self.beat_timeout is None
            else loop.time() + self.beat_timeout
        )

    def _note_timeout(self) -> None:
        """Account one barrier closed by its deadline rather than markers."""
        self.barrier_timeouts += 1

    def _note_close(self, loop: asyncio.AbstractEventLoop) -> None:
        """Hook invoked at every barrier close (timeout or markers)."""

    async def collect_entries(self, beat: int) -> list[Entry]:
        """Close beat ``beat``'s barrier; return its sorted traffic."""
        if beat != self.beat:
            raise ConfigurationError(
                f"barrier for beat {beat} requested, but the synchronizer "
                f"is at beat {self.beat}; beats close strictly in order"
            )
        loop = asyncio.get_running_loop()
        deadline = self._deadline(loop)
        drain = self._recv_nowait
        while not self._markers.get(beat, set()) >= self.expected:
            if drain is not None:
                # Service everything already queued without suspending;
                # the await below then only pays for genuinely absent
                # traffic.
                item = drain()
                if item is not None:
                    self.note(*item)
                    continue
            if deadline is None:
                sender, data = await self.endpoint.recv()
            else:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    self._note_timeout()
                    break
                try:
                    sender, data = await asyncio.wait_for(
                        self.endpoint.recv(), remaining
                    )
                except asyncio.TimeoutError:
                    # asyncio.TimeoutError: distinct from the builtin
                    # until 3.11, and this package supports 3.10.
                    self._note_timeout()
                    break
            self.note(sender, data)
        self._markers.pop(beat, None)
        entries = self._messages.pop(beat, [])
        entries.sort(key=lambda entry: entry[0])
        self._note_close(loop)
        self.beat = beat + 1
        return entries

    async def collect(self, beat: int) -> dict[str, list[Envelope]]:
        """Close the barrier and return per-path inboxes for the beat."""
        inboxes: dict[str, list[Envelope]] = {}
        for _key, envelope in await self.collect_entries(beat):
            inboxes.setdefault(envelope.path, []).append(envelope)
        return inboxes


class PulseBarrier(BeatSynchronizer):
    """The timeout-based pulse barrier: the continuous-time mode's round
    barrier for live transports (``repro runtime --sync pulse``).

    Instead of a fixed per-beat timeout, the barrier's deadline follows a
    :class:`~repro.net.events.DriftingClock`'s pulse schedule: the
    barrier for beat ``b`` gives up when the node's local clock crosses
    pulse ``b + 1`` — the wall-clock realization of the event engine's
    close rule.  A healthy barrier still closes *early* on the full
    marker set (so fault-free runs move at network speed, not at the
    pulse period), while a stalled or Byzantine-silent peer can delay a
    beat only until the pulse fires: the run always terminates in at most
    ``beats × period / (1 - rho)`` real seconds.

    Deadline closes are accounted twice: in the new ``pulse_timeouts``
    counter and in the inherited ``barrier_timeouts``, so every existing
    health surface (CLI summary lines, :attr:`RuntimeResult.health`,
    cluster JSONL, the obs collectors) sees pulse-mode trouble without
    modification.  Per-beat close offsets (real seconds since the run
    anchor) accumulate in :attr:`pulse_closes`; the runner turns them
    into the max-pairwise-skew and real-time-convergence metrics.

    Args:
        endpoint, expected, codec: as :class:`BeatSynchronizer`.
        clock: this node's drifting clock — built from the run's shared
            ``"timing"`` seed so rates match the event-driven simulator.
        anchor: loop time of the run's pulse 0.  Pass one shared reading
            so co-located nodes' deadlines (and close offsets) are
            comparable; ``None`` self-anchors at the first barrier.
    """

    def __init__(
        self,
        endpoint: Endpoint,
        expected: Iterable[int],
        *,
        clock,
        anchor: "float | None" = None,
        codec: "str | Codec" = DEFAULT_CODEC,
    ) -> None:
        super().__init__(endpoint, expected, beat_timeout=None, codec=codec)
        self.clock = clock
        self.anchor = anchor
        self.pulse_timeouts = 0
        #: Per-beat close offsets, in real seconds since the anchor.
        self.pulse_closes: list[float] = []

    @property
    def counters(self) -> dict[str, int]:
        counters = super().counters
        counters["pulse_timeouts"] = self.pulse_timeouts
        return counters

    def _deadline(self, loop: asyncio.AbstractEventLoop) -> float:
        if self.anchor is None:
            self.anchor = loop.time() - self.clock.pulse_time(self.beat)
        return self.anchor + self.clock.pulse_time(self.beat + 1)

    def _note_timeout(self) -> None:
        self.pulse_timeouts += 1
        self.barrier_timeouts += 1

    def _note_close(self, loop: asyncio.AbstractEventLoop) -> None:
        self.pulse_closes.append(loop.time() - self.anchor)
