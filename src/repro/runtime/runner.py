"""Build and drive one live run: the runtime's ``Simulation`` counterpart.

:func:`run_runtime` gets its system — correct
:class:`~repro.net.node.Node` towers, the shared
:class:`~repro.net.environment.Environment`, the adversary and its
faulty set — from :func:`~repro.net.world.build_world`, the same builder
every simulator uses, then runs it as concurrent asyncio tasks over a
transport instead of a lock-step beat loop.  That shared construction is
one half of the runtime determinism contract; the other half is the
round barrier's canonical ``(sender, seq)`` inbox order
(:mod:`repro.runtime.sync`).  Together they make a zero-delay
:class:`~repro.runtime.transport.LocalTransport` run reproduce the
simulator's per-beat honest clock trajectories bit-for-bit — enforced for
seeds 0-9, with and without an adversary, by
``tests/test_runtime_differential.py``.

What deliberately stays *outside* the contract: wall-clock timing, socket
scheduling and arrival interleavings (normalized away by the barrier's
sort), and the runtime's message accounting (the simulator counts shared
fan-outs, the runtime counts wire frames).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.core.problem import converged_at
from repro.errors import ConfigurationError
from repro.net.component import Component
from repro.net.events import DriftingClock, _default_probe
from repro.net.trace import BeatRecord, records_to_jsonl
from repro.net.world import World, build_world
from repro.runtime.byzantine import ByzantineProcess
from repro.runtime.codec import Codec, DEFAULT_CODEC, resolve_codec
from repro.runtime.node import RuntimeNode
from repro.runtime.sync import BeatSynchronizer, PulseBarrier, check_sync
from repro.runtime.transport import (
    DEFAULT_TRANSPORT,
    Transport,
    resolve_transport,
)

if TYPE_CHECKING:  # pragma: no cover - break import cycle, typing only
    from repro.adversary.base import Adversary

__all__ = ["RuntimeResult", "run_runtime"]


def _history_rows(records: "tuple[BeatRecord, ...]") -> tuple[tuple, ...]:
    """Per-beat honest values, node-id-sorted — the monitors' shape."""
    return tuple(
        tuple(record.values[i] for i in sorted(record.values))
        for record in records
    )


@dataclass(frozen=True)
class RuntimeResult:
    """Outcome of one live run.

    ``records`` holds one :class:`~repro.net.trace.BeatRecord` per beat —
    the honest nodes' probe values — in the same shape a simulator-side
    :class:`~repro.net.trace.Tracer` produces, so both serialize to the
    same JSONL trace format.  ``converged_beat`` is computed from the
    records when ``k`` was supplied (else ``None``), with the simulator's
    Definition 3.2 semantics.
    """

    seed: int
    transport: str
    beats_run: int
    records: tuple[BeatRecord, ...] = field(repr=False)
    converged_beat: "int | None"
    messages_sent: int
    late_messages: int
    premature_messages: int
    barrier_timeouts: int
    elapsed_s: float
    codec: str = "json"
    frames_sent: int = 0
    malformed_frames: int = 0
    frames_by_node: "dict[int, int] | None" = None
    #: Barrier mode: ``"beat"`` (fixed timeout) or ``"pulse"`` (drifting
    #: clock pulse schedule — see :class:`~repro.runtime.sync.PulseBarrier`).
    sync: str = "beat"
    pulse_timeouts: int = 0
    #: Pulse mode only: max pairwise spread of barrier-close instants over
    #: any beat, in real seconds (the run's measured precision).
    pulse_skew_s: "float | None" = None
    #: Pulse mode only: real seconds from the run anchor to the last
    #: honest close of the convergence beat (``None`` if not converged).
    converged_time_s: "float | None" = None

    @property
    def converged(self) -> bool:
        return self.converged_beat is not None

    @property
    def history(self) -> tuple[tuple, ...]:
        """Per-beat honest values, node-id-sorted — the monitors' shape."""
        return _history_rows(self.records)

    @property
    def health(self) -> dict[str, int]:
        """The barrier drop counters as one name-keyed snapshot."""
        return {
            "late_messages": self.late_messages,
            "premature_messages": self.premature_messages,
            "malformed_frames": self.malformed_frames,
            "barrier_timeouts": self.barrier_timeouts,
        }

    def to_jsonl(self, *, health: bool = False) -> str:
        """The trajectory in the shared JSONL trace format (see
        :mod:`repro.net.trace`) — byte-identical to what a simulator-side
        :class:`~repro.net.trace.Tracer` over the same run serializes.

        ``health=True`` appends one flight-recorder ``health`` event
        line (barrier counters plus per-node frame totals); old readers
        skip it, and the default stays byte-compatible.
        """
        text = records_to_jsonl(self.records)
        if health:
            from repro.obs.recorder import TraceEvent

            frames = {
                str(node_id): count
                for node_id, count in sorted(
                    (self.frames_by_node or {}).items()
                )
            }
            event = TraceEvent(
                "health", self.beats_run,
                {**self.health, "frames_by_node": frames},
            )
            text += event.to_jsonl() + "\n"
        return text

    @property
    def beats_per_sec(self) -> float:
        return self.beats_run / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def messages_per_sec(self) -> float:
        return (
            self.messages_sent / self.elapsed_s if self.elapsed_s > 0 else 0.0
        )


async def _run_world(
    world: World,
    transport: Transport,
    node_ids: "Iterable[int]",
    *,
    beats: int,
    codec: Codec,
    beat_timeout: "float | None",
    sync: str,
    rho: float,
    pulse_period: float,
    probe: Callable[[Component], Any],
    clock: "Callable[[], float] | None" = None,
    host_byzantine: bool = True,
    on_open: "Callable[[list[int]], None] | None" = None,
) -> tuple[list[RuntimeNode], "ByzantineProcess | None"]:
    """Run one process's share of ``world`` over ``transport``.

    Opens an endpoint and a barrier per honest id in ``node_ids``, plus —
    when ``host_byzantine`` and the world has faulty ids — the Byzantine
    process speaking for all of them.  ``on_open`` receives the opened
    ids before the first beat (a cluster worker publishes their
    addresses there).  Always closes the transport.
    """
    if sync == "pulse":
        # One anchor per process, so co-located barriers' deadlines (and
        # close offsets, hence the skew metric) live on one time axis.
        timing_seed = world.seeds.seed_for("timing")
        anchor = asyncio.get_running_loop().time()

        def synchronizer_factory(endpoint, expected, node_id):
            return PulseBarrier(
                endpoint,
                expected,
                clock=DriftingClock(timing_seed, node_id, rho, pulse_period),
                anchor=anchor,
                codec=codec,
            )
    else:
        def synchronizer_factory(endpoint, expected, _node_id):
            return BeatSynchronizer(
                endpoint, expected, beat_timeout=beat_timeout, codec=codec
            )

    runtime_nodes: list[RuntimeNode] = []
    process: "ByzantineProcess | None" = None
    try:
        all_ids = frozenset(range(world.n))
        for node_id in node_ids:
            endpoint = await transport.open(node_id)
            runtime_nodes.append(
                RuntimeNode(
                    world.nodes[node_id],
                    endpoint,
                    synchronizer_factory(endpoint, all_ids, node_id),
                    probe=probe,
                    clock=clock,
                )
            )
        opened = [rn.node.node_id for rn in runtime_nodes]
        if host_byzantine and world.adversary is not None and world.faulty_ids:
            endpoints = {
                node_id: await transport.open(node_id)
                for node_id in sorted(world.faulty_ids)
            }
            opened.extend(endpoints)
            process = ByzantineProcess(
                world,
                endpoints,
                codec=codec,
                synchronizer_factory=synchronizer_factory,
            )
        if on_open is not None:
            on_open(opened)
        tasks = [node.run(beats) for node in runtime_nodes]
        if process is not None:
            tasks.append(process.run(beats))
        await asyncio.gather(*tasks)
    finally:
        await transport.aclose()
    return runtime_nodes, process


def _tally(
    runtime_nodes: "list[RuntimeNode]",
    process: "ByzantineProcess | None",
    transport: Transport,
) -> dict[str, Any]:
    """One process's wire and barrier counters, summed over its honest
    nodes and its Byzantine process (the result and payload fields)."""
    barriers = [rn.synchronizer for rn in runtime_nodes]
    counters = {
        "messages_sent": sum(rn.messages_sent for rn in runtime_nodes),
        "frames_sent": sum(rn.frames_sent for rn in runtime_nodes),
        "late_messages": sum(b.late_messages for b in barriers),
        "premature_messages": sum(b.premature_messages for b in barriers),
        "barrier_timeouts": sum(b.barrier_timeouts for b in barriers),
        "pulse_timeouts": sum(
            getattr(b, "pulse_timeouts", 0) for b in barriers
        ),
        "malformed_frames": sum(b.malformed_frames for b in barriers)
        + getattr(transport, "malformed_frames", 0),
        "frames_by_node": {
            rn.node.node_id: rn.frames_sent for rn in runtime_nodes
        },
    }
    if process is not None:
        for name in (
            "messages_sent", "frames_sent", "late_messages",
            "premature_messages", "barrier_timeouts", "pulse_timeouts",
        ):
            counters[name] += getattr(process, name)
    return counters


def _pulse_skew(
    runtime_nodes: "list[RuntimeNode]", beats: int
) -> "float | None":
    """Max per-beat spread of the pulse barriers' close offsets, or
    ``None`` when no barrier ran or one closed fewer than ``beats``."""
    closes = [rn.synchronizer.pulse_closes for rn in runtime_nodes]
    if not closes or any(len(c) < beats for c in closes):
        return None
    return max(
        max(c[beat] for c in closes) - min(c[beat] for c in closes)
        for beat in range(beats)
    )


def run_runtime(
    n: int,
    f: int,
    root_factory: Callable[[int], Component],
    *,
    adversary: "Adversary | None" = None,
    seed: int = 0,
    beats: int = 60,
    transport: "str | Transport" = DEFAULT_TRANSPORT,
    codec: "str | Codec" = DEFAULT_CODEC,
    k: "int | None" = None,
    scramble: bool = True,
    beat_timeout: "float | None" = 30.0,
    sync: str = "beat",
    pulse_period: float = 0.2,
    rho: float = 0.0,
    stall_ids: "tuple[int, ...]" = (),
    probe: Callable[[Component], Any] = _default_probe,
    metrics: "object | None" = None,
    recorder: "object | None" = None,
) -> RuntimeResult:
    """Run the protocol live for ``beats`` beats; return the trajectory.

    Takes the :class:`~repro.net.simulator.Simulation` constructor's
    parameters and builds the same world (see the module docstring); ``beats``
    is the run's duration — there is no early stopping, because no live
    node can locally know the *global* convergence beat.  ``k`` enables
    convergence reporting on the collected records.  ``codec`` picks the
    wire format (see :mod:`repro.runtime.codec`) — a run-wide choice that
    never changes the trajectory, only the bytes: the differential suite
    pins ``binary`` runs trace-identical to ``json`` runs.

    ``sync="pulse"`` swaps the fixed ``beat_timeout`` barrier for the
    continuous-time :class:`~repro.runtime.sync.PulseBarrier`: every node
    gets a :class:`~repro.net.events.DriftingClock` (rate keyed in
    ``[1 - rho, 1 + rho]`` from the run's shared ``"timing"`` seed, pulse
    every ``pulse_period`` local seconds), barriers close early on full
    marker sets but never wait past the next pulse, and the result gains
    the precision metrics ``pulse_skew_s`` / ``converged_time_s`` /
    ``pulse_timeouts``.  ``beat_timeout`` is ignored in pulse mode — the
    pulse schedule *is* the timeout.

    ``stall_ids`` injects crash faults on *honest* nodes: those node
    processes never start (no endpoint, no markers), so every live
    peer's barrier must absorb the silence — fixed timeouts in beat
    mode, pulse-deadline closes in pulse mode — and the run must still
    terminate after ``beats`` beats.  The stalled nodes contribute no
    trace records.

    Telemetry: ``metrics`` (a :class:`~repro.obs.MetricsRegistry`) gets
    the run's counters re-homed onto ``runtime_*`` instruments after the
    run; ``recorder`` (a :class:`~repro.obs.FlightRecorder`) turns on
    per-beat timing stats on the nodes and receives the event stream via
    :meth:`~repro.obs.FlightRecorder.observe_runtime`.  Neither touches
    the trajectory — the differential suite pins instrumented runs
    trace-identical to bare ones.
    """
    if beats < 1:
        raise ConfigurationError(f"need at least one beat, got {beats}")
    check_sync(sync, rho, pulse_period)
    world = build_world(n, f, root_factory, adversary=adversary, seed=seed)
    stalled = frozenset(stall_ids)
    bad_stalls = sorted(i for i in stalled if i not in world.nodes)
    if bad_stalls:
        raise ConfigurationError(
            f"stall_ids {bad_stalls} are not honest node ids: only "
            "correct processes can be stalled (the adversary already "
            "speaks for the faulty ones)"
        )
    if stalled and len(stalled) >= len(world.honest_ids):
        raise ConfigurationError(
            "cannot stall every honest node: nobody would be left to "
            "drive the run to termination"
        )
    if scramble:
        world.scramble()

    transport_obj = resolve_transport(transport)
    codec_obj = resolve_codec(codec)
    started = time.perf_counter()
    runtime_nodes, process = asyncio.run(
        _run_world(
            world,
            transport_obj,
            # Stalled nodes never open an endpoint nor mark a beat.
            [i for i in world.honest_ids if i not in stalled],
            beats=beats,
            codec=codec_obj,
            beat_timeout=beat_timeout,
            sync=sync,
            rho=rho,
            pulse_period=pulse_period,
            probe=probe,
            clock=getattr(recorder, "clock", None),
        )
    )
    elapsed = time.perf_counter() - started

    records = tuple(
        BeatRecord(
            beat,
            {
                rn.node.node_id: rn.trace[beat][1]
                for rn in runtime_nodes
                if beat < len(rn.trace)
            },
        )
        for beat in range(beats)
    )
    converged = (
        converged_at(_history_rows(records), k) if k is not None else None
    )
    pulse_skew = None
    converged_time = None
    if sync == "pulse":
        # All barriers share one anchor on one event loop (local and TCP
        # runs alike are in-process), so close offsets are comparable:
        # the per-beat spread is the run's realized pulse skew.
        pulse_skew = _pulse_skew(runtime_nodes, beats)
        closes = [rn.synchronizer.pulse_closes for rn in runtime_nodes]
        if converged is not None and closes:
            converged_time = max(
                c[converged] for c in closes if len(c) > converged
            )
    result = RuntimeResult(
        seed=seed,
        transport=transport_obj.name,
        beats_run=beats,
        records=records,
        converged_beat=converged,
        elapsed_s=elapsed,
        codec=codec_obj.name,
        sync=sync,
        pulse_skew_s=pulse_skew,
        converged_time_s=converged_time,
        **_tally(runtime_nodes, process, transport_obj),
    )
    if metrics is not None:
        from repro.obs.metrics import record_runtime

        record_runtime(metrics, result)
    if recorder is not None:
        recorder.observe_runtime(result, runtime_nodes)
    return result
