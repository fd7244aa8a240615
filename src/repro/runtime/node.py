"""A live protocol node: one asyncio task driving the component tower.

:class:`RuntimeNode` is the runtime's counterpart of the simulator's
update loop for one correct node.  It reuses :class:`repro.net.node.Node`
— and therefore the entire :mod:`repro.core` component tower — unchanged:
the node still experiences a strict send-phase / update-phase beat; only
the message plane underneath it is now a real concurrent transport plus a
:class:`~repro.runtime.sync.BeatSynchronizer` round barrier instead of a
lock-step engine.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.net.engine import FastOutbox
from repro.net.message import BROADCAST
from repro.net.node import Node
from repro.runtime.sync import BeatSynchronizer
from repro.runtime.transport import Endpoint
from repro.runtime.wire import END, MSG, Frame

__all__ = ["RuntimeNode"]


class RuntimeNode:
    """One correct node running live.

    Per beat: run the tower's send phase into a
    :class:`~repro.net.engine.FastOutbox`, so a full broadcast is one
    record and the record index is the frame's per-sender emission
    ``seq``.  An honest broadcast is the same message to every node (the
    paper's broadcast footnote), so its frame is built once with
    ``receiver=BROADCAST`` — each receiving barrier stamps the receiver
    from its own endpoint.  The broadcast frames plus the beat's ``end``
    marker are encoded once and the same bytes ship on every link; a
    link that also carries point-to-point sends gets its own list, merged
    in ``seq`` order, encoded on its own.  That is one wire unit per
    (link, beat) on a batching codec, one unit per frame on ``json``.
    Then await the round barrier and drive the tower's update phase with
    the sorted inboxes.  :attr:`messages_sent` counts per-receiver copies
    (n per full broadcast), as the simulator's message stats do.
    ``probe`` is snapshotted after every update phase into :attr:`trace`
    (beat, value) pairs — the runtime's equivalent of a
    :class:`~repro.net.trace.Tracer` monitor.

    ``clock`` (usually ``time.perf_counter``, set by the runner when a
    flight recorder is attached) turns on per-beat stats: each beat
    appends ``(beat, elapsed_seconds, messages)`` to :attr:`beat_stats`.
    Timing reads only the clock — never the RNG, never node state — so
    the trajectory is identical with it on or off; ``None`` (the
    default) skips even the clock reads.
    """

    def __init__(
        self,
        node: Node,
        endpoint: Endpoint,
        synchronizer: BeatSynchronizer,
        *,
        probe: "Callable[[Any], Any] | None" = None,
        clock: "Callable[[], float] | None" = None,
    ) -> None:
        self.node = node
        self.endpoint = endpoint
        self.synchronizer = synchronizer
        self.probe = probe
        self.clock = clock
        self.trace: list[tuple[int, Any]] = []
        self.beat_stats: list[tuple[int, float, int]] = []
        self.messages_sent = 0
        self.frames_sent = 0
        self.beats_run = 0

    async def run(self, beats: int) -> None:
        """Execute ``beats`` consecutive beats."""
        node = self.node
        node_id = node.node_id
        n = node.n
        endpoint = self.endpoint
        codec = self.synchronizer.codec
        send_nowait = getattr(endpoint, "send_nowait", None)
        clock = self.clock
        outbox = FastOutbox(n)
        for _ in range(beats):
            beat = self.synchronizer.beat
            beat_started = clock() if clock is not None else 0.0
            # The record index is the per-sender seq (the simulator's
            # delivery sort key).  ``direct`` holds the links that carry
            # point-to-point sends: each starts as a copy of the broadcast
            # frames so far and then takes every later frame in seq order.
            shared: "list[Frame]" = []
            direct: "dict[int, list[Frame]]" = {}
            messages = 0
            records = node.send_phase(beat, outbox)
            for seq, (path, payload, receiver) in enumerate(records):
                if receiver is None:
                    frame = Frame(
                        MSG, node_id, beat, seq, BROADCAST, path, payload
                    )
                    shared.append(frame)
                    for frames in direct.values():
                        frames.append(frame)
                    messages += n
                else:
                    frames = direct.get(receiver)
                    if frames is None:
                        frames = direct[receiver] = shared.copy()
                    frames.append(
                        Frame(MSG, node_id, beat, seq, receiver, path, payload)
                    )
                    messages += 1
            # Every in-system link carries the beat's end marker last;
            # sends to ids outside the system are dead letters, as in the
            # simulator.
            marker = Frame(kind=END, sender=node_id, beat=beat)
            shared.append(marker)
            shared_units = None
            for receiver in range(n):
                frames = direct.get(receiver)
                if frames is None:
                    if shared_units is None:
                        shared_units = codec.encode_batch(shared)
                    units = shared_units
                else:
                    frames.append(marker)
                    units = codec.encode_batch(frames)
                for unit in units:
                    self.frames_sent += 1
                    if send_nowait is not None:
                        send_nowait(receiver, unit)
                    else:
                        await endpoint.send(receiver, unit)
            self.messages_sent += messages
            inboxes = await self.synchronizer.collect(beat)
            node.update_phase(beat, inboxes)
            if self.probe is not None:
                self.trace.append((beat, self.probe(node.root)))
            if clock is not None:
                self.beat_stats.append((beat, clock() - beat_started, messages))
            self.beats_run += 1
