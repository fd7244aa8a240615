"""Byzantine behaviour as a live peer.

In the simulator the adversary is a phase of the beat loop; in the runtime
it is a *process*: :class:`ByzantineProcess` owns every faulty id's
transport endpoint and speaks for all of them at once, reusing the
:mod:`repro.adversary` strategy objects and payload machinery unchanged.

The rushing power survives the move to a live network because the process
participates in the round barrier asymmetrically: it waits until every
*honest* peer has closed its send phase for beat ``b`` (their ``end``
markers arrived at the faulty endpoints), inspects everything addressed to
faulty ids — which includes every honest broadcast — crafts the beat's
faulty traffic, sends it, and only *then* emits the faulty ids' own
markers.  Honest barriers wait for those markers, so the crafted messages
always land inside beat ``b``: same-beat rushing, exactly the §6.1 power
the lock-step adversary phase grants.

Determinism note: the visible set is canonically ordered by ``(sender,
emission seq, faulty receiver)`` before the strategy sees it, which is the
same order the simulation engines build their adversary view in — one of
the two facts (with keyed coin outcomes) that make zero-delay runtime runs
bit-identical to the simulator even under an adversary.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.net.network import ensure_faulty_senders
from repro.runtime.codec import Codec
from repro.runtime.transport import Endpoint
from repro.runtime.wire import END, Frame, frame_for_envelope

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.world import World

__all__ = ["ByzantineProcess"]


class ByzantineProcess:
    """One task speaking for every faulty node over real endpoints.

    Args:
        world: the run's :class:`~repro.net.world.World`; its
            already-``setup()`` adversary, sizes, environment and
            adversary stream are exactly what the lock-step engines
            show the strategy.
        endpoints: one transport endpoint per faulty id.
        codec: the run's wire codec — the faulty peers speak whatever the
            run speaks (a Byzantine node may *garble* frames, but that is
            modeled as malformed traffic, not a codec of its own).
        synchronizer_factory: ``(endpoint, expected, node_id) ->
            BeatSynchronizer`` for the per-endpoint barriers — the run's
            own barrier kind, so in pulse mode a stalled *honest* peer
            cannot hang the adversary either.
    """

    def __init__(
        self,
        world: "World",
        endpoints: dict[int, Endpoint],
        *,
        codec: Codec,
        synchronizer_factory,
    ) -> None:
        self.adversary = world.adversary
        self.endpoints = dict(sorted(endpoints.items()))
        self.n = world.n
        self.f = world.f
        self.env = world.env
        self.rng = world.adversary_rng
        self.codec = codec
        self.faulty_ids = frozenset(self.endpoints)
        self.honest_ids = [
            i for i in range(world.n) if i not in self.faulty_ids
        ]
        self.messages_sent = 0
        self.frames_sent = 0
        self.dead_letters = 0
        # One barrier per faulty endpoint, each closed by the honest
        # markers alone: the faulty ids' own markers are this process's
        # output, and other faulty traffic is never part of the legal view.
        self._synchronizers = {
            node_id: synchronizer_factory(endpoint, self.honest_ids, node_id)
            for node_id, endpoint in self.endpoints.items()
        }

    @property
    def late_messages(self) -> int:
        return sum(s.late_messages for s in self._synchronizers.values())

    @property
    def premature_messages(self) -> int:
        return sum(s.premature_messages for s in self._synchronizers.values())

    @property
    def barrier_timeouts(self) -> int:
        return sum(s.barrier_timeouts for s in self._synchronizers.values())

    @property
    def pulse_timeouts(self) -> int:
        """Pulse-deadline closes, when the barriers are pulse barriers."""
        return sum(
            getattr(s, "pulse_timeouts", 0)
            for s in self._synchronizers.values()
        )

    async def run(self, beats: int) -> None:
        """Participate in ``beats`` consecutive beats."""
        from repro.adversary.base import AdversaryView

        for beat in range(beats):
            entries = []
            for node_id, synchronizer in self._synchronizers.items():
                entries.extend(await synchronizer.collect_entries(beat))
            # Canonical visible order: (sender, seq) from the wire key,
            # then faulty receiver — the engines' view-building order.
            entries.sort(key=lambda entry: (entry[0], entry[1].receiver))
            visible = [
                envelope
                for _key, envelope in entries
                if envelope.sender not in self.faulty_ids
            ]
            view = AdversaryView(
                beat=beat,
                n=self.n,
                f=self.f,
                faulty_ids=self.faulty_ids,
                visible_messages=visible,
                env=self.env,
                rng=self.rng,
            )
            crafted = ensure_faulty_senders(
                self.faulty_ids, list(self.adversary.craft_messages(view))
            )
            # Group per (faulty sender, honest receiver) link; the seq
            # stays global over the crafted list (dead letters included)
            # so the honest barriers' sort key matches the lock-step
            # engines' delivery order exactly.
            batches: "dict[tuple[int, int], list[Frame]]" = {}
            for seq, envelope in enumerate(crafted):
                if (
                    envelope.receiver in self.faulty_ids
                    or envelope.receiver not in range(self.n)
                ):
                    # Faulty-to-faulty traffic is a dead letter in the
                    # simulator too: it exists only in the adversary's head.
                    self.dead_letters += 1
                    continue
                batches.setdefault(
                    (envelope.sender, envelope.receiver), []
                ).append(frame_for_envelope(envelope, seq))
                self.messages_sent += 1
            for node_id, endpoint in self.endpoints.items():
                marker = Frame(kind=END, sender=node_id, beat=beat)
                for receiver in self.honest_ids:
                    frames = batches.pop((node_id, receiver), [])
                    frames.append(marker)
                    for unit in self.codec.encode_batch(frames):
                        self.frames_sent += 1
                        await endpoint.send(receiver, unit)
