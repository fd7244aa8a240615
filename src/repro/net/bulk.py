"""BulkEngine: structure-of-arrays batch execution of whole beats.

The reference and fast engines both execute a beat by walking every
node's component tree and materializing Python objects per message (or
per fan-out record).  That is O(n²) Python-level work per beat — every
node's update phase iterates an inbox of n envelopes — which caps the
simulator near ~10 beats/s at n=256 and makes the campaign-scale regimes
the paper's *fast* stabilization claim is about practically unreachable.

:class:`BulkEngine` keeps per-node protocol state in structure-of-arrays
(SoA) form — one int64 row per state variable across all honest nodes,
numpy-backed when numpy is installed (the ``fast`` optional extra) and
packed ``array('q')`` otherwise — and executes an entire beat's
broadcast fan-out, adversary view, link ruling, inbox merge and vote
tallies as batch operations.  The speedup is algorithmic, not just
constant-factor: under perfect (or intra-group partition) links every
in-group receiver of one broadcast path sees the *same* inbox, so the
per-beat vote tally is computed **once per (path, group)** and shared —
O(n) per beat instead of O(n²) — with no per-message Python objects on
the hot path.

Bit-reproducibility contract
----------------------------

The bulk engine is only allowed to exist because its runs are
bit-identical to the reference engine (``tests/test_bulk_engine.py``
enforces this differentially, mirroring ``tests/test_engines.py``):

* **Protocol state** is mirrored exactly: the SoA rows are loaded from
  the (scrambled) component trees, every value extracted from a row is
  converted back to a plain Python ``int`` before it can reach a payload
  or a ``repr``-based tie-break, and the tallies reuse the exact helpers
  of :mod:`repro.core.majority`.
* **Keyed randomness** stays keyed.  Oracle-coin outcomes are resolved
  through :meth:`~repro.net.environment.Environment.coin_outcome` with
  the same ``derive_seed``-keyed ``(path, beat)`` keys, *in the
  reference engine's first-resolution order* (per node: A1's pipeline,
  then A2's when gated, then the root pipeline), so even an
  order-sensitive divergence chooser observes an identical sequence.
  :class:`~repro.net.linkmodel.PartitionLinks` rulings are pure
  functions of the schedule, so the vectorized path computes whole-lane
  drop counts from the group structure and calls ``classify`` only for
  the rare per-envelope (Byzantine) traffic.
* **Stateful link models fall back.**  Lossy and bounded-delay links
  key their draws on per-directed-link emission counters; skipping any
  per-envelope ``classify`` call would desynchronize those counters, so
  runs under them execute on the inherited :class:`FastEngine` path
  (which is itself differentially pinned against the reference).
* **Per-message traffic still works.**  Byzantine envelopes and
  phantoms enter a per-receiver *dirty* merge that reproduces the
  reference router's sender-sorted, stage-ordered delivery exactly;
  only the affected receivers pay the per-object cost.

Protocols opt in by registering a :class:`BulkProgram` builder for their
root component type (:func:`register_bulk_program`); the ss-Byz
clock-sync tower (oracle coin) and the Dolev-Welch baseline ship
vectorized programs, everything else — including clock-sync over a
message-passing coin such as GVSS — falls back per-node.  The catalog
attribute :attr:`repro.core.protocol.Protocol.bulk_execution` declares
which case each registered protocol is in.

Observability contract: in vectorized mode the component trees are
dormant — only each root's clock observable (``full_clock`` /
``clock``) is written back per beat, which is all monitors, trial
runners and tracers read.  External writes to node state must go
through ``Simulation.scramble`` (which notifies the engine) and a full
tree materialization is available via :meth:`BulkEngine.sync_trees`.
"""

from __future__ import annotations

from array import array
from collections import Counter
from typing import TYPE_CHECKING, Any, Callable

try:  # numpy is optional (the ``fast`` extra); the packed fallback is exact
    import numpy
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    numpy = None

from repro.core.majority import (
    BOTTOM,
    count_values,
    most_frequent,
    value_with_count_at_least,
)
from repro.net.engine import ENGINES, FastEngine, _craft_byzantine
from repro.net.linkmodel import PartitionLinks
from repro.net.message import Envelope
from repro.net.node import ROOT_PATH

if TYPE_CHECKING:  # pragma: no cover - break import cycle, typing only
    from repro.net.simulator import Simulation

__all__ = [
    "BulkEngine",
    "BulkProgram",
    "HAVE_NUMPY",
    "UnsupportedBulkLayout",
    "build_bulk_program",
    "has_bulk_program",
    "register_bulk_program",
]

#: Whether the numpy SoA backend is active (else: packed ``array('q')``).
HAVE_NUMPY = numpy is not None

#: Encoded ⊥ for a 2-clock row (domain {0, 1, ⊥}).
_ENC_BOTTOM = 2

#: Cache sentinel distinguishing "not computed" from a computed ``None``.
_MISSING = object()


def _int_row(size: int, fill: int = 0):
    """One SoA row: ``size`` int64 slots (numpy array or packed array)."""
    if numpy is not None:
        return numpy.full(size, fill, dtype=numpy.int64)
    return array("q", [fill]) * size


class UnsupportedBulkLayout(Exception):
    """A protocol tree has no exact SoA mapping; fall back per-node."""


class Lane:
    """One broadcast path's honest traffic for one beat, in SoA form.

    ``present[slot]`` says whether the honest node in that slot broadcast
    on this path this beat; ``payloads[slot]`` is its payload (plain
    Python objects — built once per *sender*, never per receiver copy).
    """

    __slots__ = ("path", "present", "payloads")

    def __init__(self, path: str, present: list, payloads: list) -> None:
        self.path = path
        self.present = present
        self.payloads = payloads

    def sender_count(self) -> int:
        return sum(1 for flag in self.present if flag)

    def sender_slots(self) -> list[int]:
        return [slot for slot, flag in enumerate(self.present) if flag]


class _Delivery:
    """One beat's merged view of lanes + per-receiver extra traffic.

    ``group_of`` is the per-slot partition group during a partition
    window (``None`` otherwise: everybody shares group 0); ``extras``
    maps honest node id -> path -> ``[(merge_key, envelope), ...]`` with
    the fast engine's ``(sender, stage, seq)`` merge keys.
    """

    __slots__ = ("ids", "slot_of", "lanes", "lane_by_path", "extras",
                 "group_of", "_values_cache")

    def __init__(self, ids, slot_of, lanes, extras, group_of) -> None:
        self.ids = ids
        self.slot_of = slot_of
        self.lanes = lanes
        self.lane_by_path = {lane.path: lane for lane in lanes}
        self.extras = extras
        self.group_of = group_of
        self._values_cache: dict = {}

    def group_key(self, slot: int) -> int:
        return 0 if self.group_of is None else self.group_of[slot]

    def dirty_slots(self, path: str) -> set[int]:
        """Receiver slots whose inbox on ``path`` differs from the lane."""
        dirty = set()
        for node_id, per_path in self.extras.items():
            if path in per_path:
                dirty.add(self.slot_of[node_id])
        return dirty

    def lane_values(self, path: str, group: int) -> list:
        """Payloads a clean group-``group`` receiver sees on ``path``,
        in ascending sender order (shared by the whole group)."""
        key = (path, group)
        values = self._values_cache.get(key)
        if values is None:
            values = []
            lane = self.lane_by_path.get(path)
            if lane is not None:
                present = lane.present
                payloads = lane.payloads
                group_of = self.group_of
                for slot in range(len(self.ids)):
                    if present[slot] and (
                        group_of is None or group_of[slot] == group
                    ):
                        values.append(payloads[slot])
            self._values_cache[key] = values
        return values

    def merged_first_per_sender(self, path: str, slot: int) -> dict[int, Any]:
        """Exact ``first_payload_per_sender`` of a dirty receiver's inbox.

        Reproduces the reference router's delivery: lane traffic (stage
        0, a sender's sole broadcast) merged with the receiver's extras
        under the fast engine's ``(sender, stage, seq)`` sort, collapsed
        first-wins per sender in ascending order.
        """
        node_id = self.ids[slot]
        entries: list[tuple[tuple[int, int, int], Any]] = []
        lane = self.lane_by_path.get(path)
        if lane is not None:
            group_of = self.group_of
            group = None if group_of is None else group_of[slot]
            present = lane.present
            payloads = lane.payloads
            for sender_slot in range(len(self.ids)):
                if present[sender_slot] and (
                    group_of is None or group_of[sender_slot] == group
                ):
                    entries.append(
                        ((self.ids[sender_slot], 0, 0), payloads[sender_slot])
                    )
        for key, envelope in self.extras.get(node_id, {}).get(path, ()):
            entries.append((key, envelope.payload))
        entries.sort(key=lambda item: item[0])
        collapsed: dict[int, Any] = {}
        for (sender, _stage, _seq), payload in entries:
            if sender not in collapsed:
                collapsed[sender] = payload
        return collapsed


class BulkProgram:
    """SoA mirror of one protocol's per-node state, across all nodes.

    Subclasses hold the rows and implement :meth:`load`, :meth:`send`,
    :meth:`update`, :meth:`flush_observables` and :meth:`flush_full`.
    Slots index the honest ids in ascending order.
    """

    def __init__(self, simulation: "Simulation") -> None:
        self.simulation = simulation
        self.ids: list[int] = sorted(simulation.nodes)
        self.slot_of = {nid: slot for slot, nid in enumerate(self.ids)}
        self.size = len(self.ids)
        # Everything starts stale: rows are first loaded from the trees
        # (post-construction, post any initial scramble) at beat 0.
        self._stale: set[int] = set(range(self.size))

    def mark_stale(self, node_ids) -> None:
        """External writes (scramble) happened; reload before next beat."""
        slot_of = self.slot_of
        for node_id in node_ids:
            slot = slot_of.get(node_id)
            if slot is not None:
                self._stale.add(slot)

    def reload_stale(self) -> None:
        if self._stale:
            self.load(sorted(self._stale))
            self._stale.clear()

    # -- subclass hooks ----------------------------------------------------

    def load(self, slots: list[int]) -> None:
        """Mirror the given slots' component-tree state into the rows."""
        raise NotImplementedError

    def send(self, beat: int) -> list[Lane]:
        """Run the send phase; return lanes in per-node emission order."""
        raise NotImplementedError

    def update(self, beat: int, delivery: _Delivery) -> None:
        """Run the update phase against one beat's delivery."""
        raise NotImplementedError

    def flush_observables(self) -> None:
        """Write each root's clock observable back to its tree."""
        raise NotImplementedError

    def flush_full(self) -> None:
        """Materialize the full SoA state back onto the component trees."""
        raise NotImplementedError


# -- the ss-Byz clock-sync tower program -----------------------------------


def _encode_two_clock(value) -> int:
    """{0, 1, ⊥} -> {0, 1, 2} for a 2-clock SoA row."""
    return _ENC_BOTTOM if value is None else int(value)


def _decode_two_clock(encoded: int):
    """Inverse of :func:`_encode_two_clock` (plain Python values)."""
    return None if encoded == _ENC_BOTTOM else int(encoded)


def _two_clock_step(values: list, threshold: int):
    """ss-Byz-2-Clock lines 3-6 on an already-substituted value list."""
    maj, maj_count = most_frequent(count_values(values))
    if maj_count >= threshold and maj in (0, 1):
        return 1 - maj
    return BOTTOM


class ClockSyncProgram(BulkProgram):
    """Vectorized ss-Byz-Clock-Sync tower (Figures 1-4, oracle coin).

    Rows: ``fc`` and ``save`` (mod-k ints), ``a_clock`` (4-clock, -1
    encodes ⊥), ``a1``/``a2`` (2-clocks, 2 encodes ⊥).  The previous
    beat's root inbox — the only cross-beat message state — is kept in
    shared form (last root lane + its group structure) with per-slot
    dict overrides for receivers whose inbox diverged (Byzantine
    traffic, phantoms, reloads after a scramble).

    The oracle-coin pipelines carry *no* live state between beats: every
    beat the output slot re-resolves its environment outcome before the
    bit is read, and slot instances are overwritten before they are ever
    read, so mirroring the pipelines is exactly the per-beat outcome
    resolution done in :meth:`update`.
    """

    def __init__(self, simulation, k, share_coin, coin_a1, coin_a2,
                 coin_root) -> None:
        super().__init__(simulation)
        self.k = k
        self.share_coin = share_coin
        self.threshold = simulation.n - simulation.f
        self.path_root = ROOT_PATH
        self.path_a1 = f"{ROOT_PATH}/A/A1"
        self.path_a2 = f"{ROOT_PATH}/A/A2"
        # Coin keys: (environment path, p0, p1) per pipeline; the path's
        # slot index is the pipeline's *last* slot, the one that resolves.
        self.key_a1 = (f"{ROOT_PATH}/A/A1/coin/slot{coin_a1[2]}",
                       coin_a1[0], coin_a1[1])
        self.key_a2 = (f"{ROOT_PATH}/A/A2/coin/slot{coin_a2[2]}",
                       coin_a2[0], coin_a2[1])
        self.key_root = None if share_coin else (
            f"{ROOT_PATH}/coin/slot{coin_root[2]}", coin_root[0], coin_root[1]
        )
        size = self.size
        self.fc = _int_row(size)
        self.save = _int_row(size)
        self.a_clock = _int_row(size)
        self.a1 = _int_row(size)
        self.a2 = _int_row(size)
        #: Start-of-beat phase (clock(A) captured before A's beat) and
        #: A2's activation gate, kept between the send and update halves.
        self.ph: list = [None] * size
        self.gate: list = [False] * size
        # Previous-beat root inbox: shared lane + per-slot overrides.
        self.prev_lane: Lane | None = None
        self.prev_group_of: list | None = None
        self.prev_override: dict[int, dict[int, Any]] = {}
        self._prev_cache: dict = {}
        self._lane_root: Lane | None = None

    # -- tree mirroring ----------------------------------------------------

    def load(self, slots: list[int]) -> None:
        nodes = self.simulation.nodes
        for slot in slots:
            root = nodes[self.ids[slot]].root
            self.fc[slot] = int(root.full_clock)
            self.save[slot] = int(root.save)
            a_clock = root.a.clock
            self.a_clock[slot] = a_clock if a_clock in (0, 1, 2, 3) else -1
            self.a1[slot] = _encode_two_clock(
                root.a.a1.clock if root.a.a1.clock in (0, 1) else None
            )
            self.a2[slot] = _encode_two_clock(
                root.a.a2.clock if root.a.a2.clock in (0, 1) else None
            )
            self.prev_override[slot] = dict(root._previous)

    def flush_observables(self) -> None:
        nodes = self.simulation.nodes
        fc = self.fc
        for slot, node_id in enumerate(self.ids):
            nodes[node_id].root.full_clock = int(fc[slot])

    def flush_full(self) -> None:
        nodes = self.simulation.nodes
        for slot, node_id in enumerate(self.ids):
            root = nodes[node_id].root
            root.full_clock = int(self.fc[slot])
            root.save = int(self.save[slot])
            root._phase = self.ph[slot]
            a_clock = int(self.a_clock[slot])
            root.a.clock = None if a_clock < 0 else a_clock
            root.a.a1.clock = _decode_two_clock(int(self.a1[slot]))
            root.a.a2.clock = _decode_two_clock(int(self.a2[slot]))
            root.a._run_a2 = bool(self.gate[slot])
            root._previous = self._prev_dict(slot)

    def _prev_dict(self, slot: int) -> dict[int, Any]:
        override = self.prev_override.get(slot)
        if override is not None:
            return dict(override)
        collapsed: dict[int, Any] = {}
        lane = self.prev_lane
        if lane is not None:
            group_of = self.prev_group_of
            group = None if group_of is None else group_of[slot]
            for sender_slot in range(self.size):
                if lane.present[sender_slot] and (
                    group_of is None or group_of[sender_slot] == group
                ):
                    collapsed[self.ids[sender_slot]] = (
                        lane.payloads[sender_slot]
                    )
        return collapsed

    # -- previous-beat helpers (shared per prev-group, exact per slot) -----

    def _prev_values(self, slot: int, kind: str) -> list:
        """``SSByzClockSync._previous_values`` for one receiver slot."""
        override = self.prev_override.get(slot)
        if override is not None:
            values = []
            for payload in override.values():
                if (
                    isinstance(payload, tuple)
                    and len(payload) == 2
                    and payload[0] == kind
                ):
                    values.append(payload[1])
            return values
        group = (
            0 if self.prev_group_of is None else self.prev_group_of[slot]
        )
        key = ("values", group, kind)
        values = self._prev_cache.get(key)
        if values is None:
            values = []
            lane = self.prev_lane
            if lane is not None:
                group_of = self.prev_group_of
                for s in range(self.size):
                    if lane.present[s] and (
                        group_of is None or group_of[s] == group
                    ):
                        payload = lane.payloads[s]
                        if (
                            isinstance(payload, tuple)
                            and len(payload) == 2
                            and payload[0] == kind
                        ):
                            values.append(payload[1])
            self._prev_cache[key] = values
        return values

    def _proposal(self, slot: int):
        """Figure 4 block 3.b: the value seen n-f times last beat."""
        if slot in self.prev_override:
            return value_with_count_at_least(
                self._prev_values(slot, "fc"), self.threshold
            )
        group = (
            0 if self.prev_group_of is None else self.prev_group_of[slot]
        )
        key = ("prop", group)
        proposal = self._prev_cache.get(key, _MISSING)
        if proposal is _MISSING:
            proposal = value_with_count_at_least(
                self._prev_values(slot, "fc"), self.threshold
            )
            self._prev_cache[key] = proposal
        return proposal

    def _phase2(self, slot: int) -> tuple[int, int]:
        """Figure 4 block 3.c: the (bit, save) pair from last beat."""
        if slot not in self.prev_override:
            group = (
                0 if self.prev_group_of is None else self.prev_group_of[slot]
            )
            key = ("phase2", group)
            cached = self._prev_cache.get(key)
            if cached is not None:
                return cached
        proposals = [
            value for value in self._prev_values(slot, "prop")
            if value is not BOTTOM
        ]
        majority_value, majority_count = most_frequent(count_values(proposals))
        if majority_value is not BOTTOM and majority_count >= self.threshold:
            bit = 1
        else:
            bit = 0
        if majority_value is BOTTOM or not isinstance(majority_value, int):
            save = 0
        else:
            save = majority_value % self.k
        if slot not in self.prev_override:
            self._prev_cache[key] = (bit, save)
        return bit, save

    def _prev_bits(self, slot: int) -> tuple[int, int]:
        """Figure 4 block 3.d tallies: (#ones, #zeros) of last beat."""
        if slot not in self.prev_override:
            group = (
                0 if self.prev_group_of is None else self.prev_group_of[slot]
            )
            key = ("bits", group)
            cached = self._prev_cache.get(key)
            if cached is not None:
                return cached
        bits = self._prev_values(slot, "bit")
        ones = sum(1 for bit in bits if bit == 1)
        zeros = sum(1 for bit in bits if bit == 0)
        if slot not in self.prev_override:
            self._prev_cache[key] = (ones, zeros)
        return ones, zeros

    # -- beat halves -------------------------------------------------------

    def send(self, beat: int) -> list[Lane]:
        size = self.size
        a1 = self.a1
        a2 = self.a2
        a_clock = self.a_clock
        ph = self.ph
        gate = self.gate
        # Start-of-beat captures (Figure 4 line 3 footnote; Figure 3's
        # send-time gating decision), before any state advances.
        for slot in range(size):
            clock_a = a_clock[slot]
            ph[slot] = int(clock_a) if 0 <= clock_a <= 3 else None
            gate[slot] = a1[slot] == 1
        # A1 broadcasts every beat; A2 only when gated (emission order is
        # A1, A2, root — exactly the per-node order of the tree walk).
        lane_a1 = Lane(
            self.path_a1,
            [True] * size,
            [_decode_two_clock(int(a1[slot])) for slot in range(size)],
        )
        lane_a2 = Lane(
            self.path_a2,
            list(gate),
            [
                _decode_two_clock(int(a2[slot])) if gate[slot] else None
                for slot in range(size)
            ],
        )
        # Figure 4 line 2: the full clock ticks every beat.
        fc = self.fc
        k = self.k
        if numpy is not None and isinstance(fc, numpy.ndarray):
            fc += 1
            fc %= k
        else:
            for slot in range(size):
                fc[slot] = (fc[slot] + 1) % k
        present = [False] * size
        payloads: list = [None] * size
        for slot in range(size):
            phase = ph[slot]
            if phase == 0:
                present[slot] = True
                payloads[slot] = ("fc", int(fc[slot]))
            elif phase == 1:
                present[slot] = True
                payloads[slot] = ("prop", self._proposal(slot))
            elif phase == 2:
                bit, save = self._phase2(slot)
                self.save[slot] = save
                present[slot] = True
                payloads[slot] = ("bit", bit)
            # Phase 3 (and an unconverged A) sends nothing at this layer.
        lane_root = Lane(self.path_root, present, payloads)
        self._lane_root = lane_root
        return [lane_a1, lane_a2, lane_root]

    def _coin_order(self) -> list[tuple[str, float, float]]:
        """Coin keys in the reference's first-resolution order.

        Each node's update resolves its A1 pipeline, then (when gated)
        its A2 pipeline, then the root pipeline; nodes run in ascending
        id order.  Outcomes are memoized per key, so only the *first*
        resolution of each key matters — and only through an
        order-sensitive divergence chooser — but we reproduce that order
        exactly rather than assume choosers are pure.
        """
        expected = 1 + (0 if self.share_coin else 1)
        if any(self.gate):
            expected += 1
        order: list[tuple[str, float, float]] = []
        seen: set[str] = set()
        for slot in range(self.size):
            candidates = [self.key_a1]
            if self.gate[slot]:
                candidates.append(self.key_a2)
            if not self.share_coin:
                candidates.append(self.key_root)
            for key in candidates:
                if key[0] not in seen:
                    seen.add(key[0])
                    order.append(key)
            if len(order) == expected:
                break
        return order

    def _tally_two_clock(self, delivery, path, rand, dirty, active):
        """One 2-clock's update across all (active) slots.

        Clean receivers in one partition group share one tally per rand
        bit; dirty receivers replay the exact per-node inbox merge.
        Returns the new clock values ({0, 1, ⊥}), ``None`` rows for
        inactive slots.
        """
        size = self.size
        out: list = [None] * size
        shared: dict = {}
        threshold = self.threshold
        for slot in range(size):
            if active is not None and not active[slot]:
                continue
            rand_bit = rand[slot]
            if slot in dirty:
                merged = delivery.merged_first_per_sender(path, slot)
                values = [
                    rand_bit if payload is BOTTOM else payload
                    for payload in merged.values()
                ]
                out[slot] = _two_clock_step(values, threshold)
                continue
            cache_key = (delivery.group_key(slot), rand_bit)
            decision = shared.get(cache_key, _MISSING)
            if decision is _MISSING:
                raw = delivery.lane_values(path, cache_key[0])
                values = [
                    rand_bit if payload is BOTTOM else payload
                    for payload in raw
                ]
                decision = _two_clock_step(values, threshold)
                shared[cache_key] = decision
            out[slot] = decision
        return out

    def update(self, beat: int, delivery: _Delivery) -> None:
        size = self.size
        ids = self.ids
        env = self.simulation.env
        gate = self.gate
        outcomes = {}
        for path, p0, p1 in self._coin_order():
            outcomes[path] = env.coin_outcome(path, beat, p0, p1)
        out_a1 = outcomes[self.key_a1[0]]
        rand_a1 = [out_a1.bit_for(ids[slot]) for slot in range(size)]
        out_a2 = outcomes.get(self.key_a2[0])
        rand_a2 = (
            None if out_a2 is None
            else [out_a2.bit_for(ids[slot]) for slot in range(size)]
        )
        if self.share_coin:
            rand_root = rand_a1
        else:
            out_root = outcomes[self.key_root[0]]
            rand_root = [out_root.bit_for(ids[slot]) for slot in range(size)]
        # A's update: A1 for everyone, A2 for the gated slots, composite.
        new_a1 = self._tally_two_clock(
            delivery, self.path_a1, rand_a1,
            delivery.dirty_slots(self.path_a1), None,
        )
        new_a2 = self._tally_two_clock(
            delivery, self.path_a2, rand_a2,
            delivery.dirty_slots(self.path_a2), gate,
        )
        a1 = self.a1
        a2 = self.a2
        a_clock = self.a_clock
        for slot in range(size):
            a1[slot] = _encode_two_clock(new_a1[slot])
            if gate[slot]:
                a2[slot] = _encode_two_clock(new_a2[slot])
            c1 = a1[slot]
            c2 = a2[slot]
            a_clock[slot] = (
                2 * c2 + c1 if c1 != _ENC_BOTTOM and c2 != _ENC_BOTTOM
                else -1
            )
        # Figure 4 block 3.d, for the slots in phase 3.
        fc = self.fc
        save = self.save
        k = self.k
        threshold = self.threshold
        ph = self.ph
        for slot in range(size):
            if ph[slot] != 3:
                continue
            ones, zeros = self._prev_bits(slot)
            if ones >= threshold:
                fc[slot] = (int(save[slot]) + 3) % k
            elif zeros >= threshold:
                fc[slot] = 0
            elif rand_root[slot] == 1:
                fc[slot] = (int(save[slot]) + 3) % k
            else:
                fc[slot] = 0
        # This beat's root inbox becomes the next beat's ``_previous``.
        new_override: dict[int, dict[int, Any]] = {}
        for slot in delivery.dirty_slots(self.path_root):
            new_override[slot] = delivery.merged_first_per_sender(
                self.path_root, slot
            )
        self.prev_override = new_override
        self.prev_lane = self._lane_root
        self.prev_group_of = delivery.group_of
        self._prev_cache = {}


# -- the Dolev-Welch baseline program --------------------------------------


class DolevWelchProgram(BulkProgram):
    """Vectorized Dolev-Welch local-coin clock (one row: the clock).

    The only randomness is the per-node fallback draw, taken from each
    node's *own* RNG stream — streams are independent, and the reference
    draws in ascending node order only on threshold misses, which is
    exactly what the slot loop below reproduces.
    """

    def __init__(self, simulation, k) -> None:
        super().__init__(simulation)
        self.k = k
        self.threshold = simulation.n - simulation.f
        self.path_root = ROOT_PATH
        self.clock = _int_row(self.size)

    def load(self, slots: list[int]) -> None:
        nodes = self.simulation.nodes
        for slot in slots:
            self.clock[slot] = int(nodes[self.ids[slot]].root.clock)

    def send(self, beat: int) -> list[Lane]:
        clock = self.clock
        size = self.size
        return [
            Lane(
                self.path_root,
                [True] * size,
                [int(clock[slot]) for slot in range(size)],
            )
        ]

    def _decide(self, values):
        """The adopt-(winner+1) rule; ``None`` means "draw locally"."""
        winner, count = most_frequent(count_values(values))
        if (
            winner is not BOTTOM
            and isinstance(winner, int)
            and count >= self.threshold
        ):
            return (winner + 1) % self.k
        return None

    def update(self, beat: int, delivery: _Delivery) -> None:
        nodes = self.simulation.nodes
        dirty = delivery.dirty_slots(self.path_root)
        shared: dict = {}
        clock = self.clock
        k = self.k
        for slot in range(self.size):
            if slot in dirty:
                merged = delivery.merged_first_per_sender(
                    self.path_root, slot
                )
                decision = self._decide(list(merged.values()))
            else:
                group = delivery.group_key(slot)
                decision = shared.get(group, _MISSING)
                if decision is _MISSING:
                    decision = self._decide(
                        delivery.lane_values(self.path_root, group)
                    )
                    shared[group] = decision
            if decision is None:
                clock[slot] = nodes[self.ids[slot]].rng.randrange(k)
            else:
                clock[slot] = decision

    def flush_observables(self) -> None:
        nodes = self.simulation.nodes
        clock = self.clock
        for slot, node_id in enumerate(self.ids):
            nodes[node_id].root.clock = int(clock[slot])

    flush_full = flush_observables


# -- program registry ------------------------------------------------------

#: Root component type -> builder(simulation) -> BulkProgram.  Builders
#: raise :class:`UnsupportedBulkLayout` when the concrete tree cannot be
#: mapped exactly (e.g. a message-passing coin inside the tower).
_PROGRAM_BUILDERS: dict[type, Callable] = {}


def register_bulk_program(root_type: type, builder: Callable) -> None:
    """Declare that ``root_type`` trees can run as a bulk program."""
    _PROGRAM_BUILDERS[root_type] = builder


def has_bulk_program(root_type: type) -> bool:
    """Whether a bulk program builder is registered for ``root_type``."""
    return root_type in _PROGRAM_BUILDERS


def build_bulk_program(simulation: "Simulation") -> "BulkProgram | None":
    """The simulation's bulk program, or ``None`` to fall back per-node."""
    if not simulation.nodes:
        return None
    first = next(iter(simulation.nodes.values())).root
    builder = _PROGRAM_BUILDERS.get(type(first))
    if builder is None:
        return None
    try:
        return builder(simulation)
    except UnsupportedBulkLayout:
        return None


def _oracle_params(pipeline) -> tuple[float, float, int]:
    """(p0, p1, rounds) of an *exact* oracle-coin pipeline, or raise."""
    from repro.coin.oracle import OracleCoin

    algorithm = pipeline.algorithm
    if type(algorithm) is not OracleCoin:
        raise UnsupportedBulkLayout(
            f"coin {getattr(algorithm, 'name', algorithm)!r} sends "
            "messages or overrides oracle semantics"
        )
    return (algorithm.p0, algorithm.p1, algorithm.rounds)


def _clock_sync_signature(root):
    coin_root = None if root.share_coin else _oracle_params(root._pipeline)
    return (
        root.k,
        root.share_coin,
        _oracle_params(root.a.a1.pipeline),
        _oracle_params(root.a.a2.pipeline),
        coin_root,
    )


def _build_clock_sync(simulation: "Simulation") -> ClockSyncProgram:
    roots = [node.root for node in simulation.nodes.values()]
    first = roots[0]
    signature = _clock_sync_signature(first)
    for root in roots[1:]:
        if (
            type(root) is not type(first)
            or _clock_sync_signature(root) != signature
        ):
            raise UnsupportedBulkLayout("heterogeneous clock-sync trees")
    k, share_coin, coin_a1, coin_a2, coin_root = signature
    return ClockSyncProgram(
        simulation, k, share_coin, coin_a1, coin_a2, coin_root
    )


def _build_dolev_welch(simulation: "Simulation") -> DolevWelchProgram:
    roots = [node.root for node in simulation.nodes.values()]
    first = roots[0]
    for root in roots[1:]:
        if type(root) is not type(first) or root.k != first.k:
            raise UnsupportedBulkLayout("heterogeneous Dolev-Welch trees")
    return DolevWelchProgram(simulation, first.k)


def _register_builtin_programs() -> None:
    from repro.baselines.dolev_welch import DolevWelchClock
    from repro.core.clock_sync import SSByzClockSync

    register_bulk_program(SSByzClockSync, _build_clock_sync)
    register_bulk_program(DolevWelchClock, _build_dolev_welch)


_register_builtin_programs()


# -- the engine ------------------------------------------------------------


class BulkEngine(FastEngine):
    """Structure-of-arrays batch engine (see the module docstring).

    Vectorized when (a) the protocol registered a bulk program for its
    root component type, (b) the link model's per-beat effect is a pure
    function of the schedule (perfect links, partition links), and
    (c) the simulation has no churn schedule — membership changes make
    the active set time-varying, which the batch kernels do not model;
    in every other configuration it executes as a :class:`FastEngine`,
    so selecting ``engine="bulk"`` is always safe and always
    bit-identical.
    """

    name = "bulk"
    description = (
        "structure-of-arrays batch engine: one shared tally per "
        "broadcast group, vectorized for supported protocols, "
        "fast-engine fallback otherwise"
    )

    def __init__(self) -> None:
        super().__init__()
        self._program: BulkProgram | None = None
        self._vector_mode = False

    def bind(self, simulation: "Simulation") -> None:
        super().bind(simulation)
        self._program = build_bulk_program(simulation)
        link = simulation.link
        self._vector_mode = (
            self._program is not None
            and (link.is_perfect or type(link) is PartitionLinks)
            and simulation.churn is None
        )

    @property
    def vectorized(self) -> bool:
        """Whether this run executes on the vectorized path."""
        return self._vector_mode

    def notify_state_written(self, node_ids) -> None:
        """External state writes (``Simulation.scramble``) happened."""
        if self._program is not None:
            self._program.mark_stale(node_ids)

    def sync_trees(self) -> None:
        """Materialize the SoA rows back onto the component trees."""
        if self._vector_mode and self._program is not None:
            self._program.flush_full()

    def execute_beat(self, simulation: "Simulation", beat: int) -> None:
        if not self._vector_mode:
            super().execute_beat(simulation, beat)
            return
        program = self._program
        program.reload_stale()
        lanes = program.send(beat)
        stats = self.stats
        n = self._n
        nodes = simulation.nodes
        ids = program.ids
        # -- traffic accounting: one O(1) record per lane ------------------
        for lane in lanes:
            senders = lane.sender_count()
            if senders:
                stats.record_fanout(lane.path, beat, n * senders, honest=True)
        link = self._link
        partitioned = (not link.is_perfect) and link.partitioned_at(beat)
        faulty = self._faulty
        adversary_active = simulation.adversary is not None and bool(faulty)
        # extras[receiver][path] = [((sender, stage, seq), envelope), ...]
        extras: dict[int, dict[str, list]] = {}

        def stash(receiver, path, key, envelope):
            extras.setdefault(receiver, {}).setdefault(path, []).append(
                (key, envelope)
            )

        # -- adversary phase ----------------------------------------------
        if adversary_active:
            # The legal view: every copy addressed to a faulty node, in
            # the engines' canonical order (sender ascending, then the
            # node's emission order, then faulty receiver ascending).
            visible: list[Envelope] = []
            for slot, sender in enumerate(ids):
                for lane in lanes:
                    if lane.present[slot]:
                        payload = lane.payloads[slot]
                        for faulty_id in faulty:
                            visible.append(
                                Envelope(
                                    sender, faulty_id, lane.path, payload,
                                    beat,
                                )
                            )
            for seq, envelope in enumerate(
                _craft_byzantine(simulation, beat, visible)
            ):
                stats.record(envelope, honest=False)
                receiver = envelope.receiver
                if receiver not in nodes:
                    continue  # dead letter (faulty receiver)
                if (
                    partitioned
                    and link.classify(envelope.sender, receiver, beat)
                    is None
                ):
                    stats.record_dropped(envelope)
                    continue
                stash(
                    receiver, envelope.path,
                    (envelope.sender, self._STAGE_REGULAR, seq), envelope,
                )

        # -- phantom delivery (bypasses the link layer) --------------------
        if self._pending_phantoms:
            phantoms, self._pending_phantoms = self._pending_phantoms, []
            for seq, envelope in enumerate(phantoms):
                stats.record(envelope, honest=False)
                if envelope.receiver in nodes:
                    stash(
                        envelope.receiver, envelope.path,
                        (envelope.sender, self._STAGE_PHANTOM, seq),
                        envelope,
                    )

        # -- partition structure + whole-lane drop accounting --------------
        group_of = None
        if partitioned:
            group_of = [link.group_of(node_id) for node_id in ids]
            group_sizes = Counter(group_of)
            honest_total = len(ids)
            lost = 0
            for lane in lanes:
                for slot in lane.sender_slots():
                    lost += honest_total - group_sizes[group_of[slot]]
            if lost:
                stats.record_dropped_block(beat, lost)

        # -- update phase --------------------------------------------------
        program.update(
            beat, _Delivery(ids, program.slot_of, lanes, extras, group_of)
        )
        program.flush_observables()


ENGINES[BulkEngine.name] = BulkEngine
