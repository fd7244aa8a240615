"""Build and drive one live run: the runtime's ``Simulation`` counterpart.

:func:`run_runtime` assembles the same objects a
:class:`~repro.net.simulator.Simulation` would — correct
:class:`~repro.net.node.Node` towers, the shared
:class:`~repro.net.environment.Environment`, the adversary — using the
**identical** :class:`~repro.net.rng.SeedSequence` label derivations
(``"env"``, ``"adversary"``, ``("node", i)``, ``"faults"``) and the
identical construction order, then runs them as concurrent asyncio tasks
over a transport instead of a lock-step beat loop.  That shared seed
discipline is one half of the runtime determinism contract; the other half
is the round barrier's canonical ``(sender, seq)`` inbox order
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
from typing import TYPE_CHECKING, Any, Callable

from repro.core.problem import converged_at
from repro.errors import ConfigurationError, check_resilience
from repro.net.component import Component
from repro.net.environment import Environment
from repro.net.node import Node
from repro.net.rng import SeedSequence
from repro.net.trace import BeatRecord, records_to_jsonl
from repro.runtime.byzantine import ByzantineProcess
from repro.runtime.codec import Codec, DEFAULT_CODEC, resolve_codec
from repro.runtime.node import RuntimeNode
from repro.runtime.sync import BeatSynchronizer, PulseBarrier
from repro.runtime.transport import (
    DEFAULT_TRANSPORT,
    Transport,
    resolve_transport,
)

if TYPE_CHECKING:  # pragma: no cover - break import cycle, typing only
    import random

    from repro.adversary.base import Adversary

__all__ = ["RuntimeResult", "run_runtime"]


def _default_probe(root: Component) -> Any:
    """Snapshot the tower's clock value (every clock tower exposes one)."""
    return getattr(root, "clock_value", None)


def _select_faulty(
    adversary: "Adversary", n: int, f: int, rng: "random.Random"
) -> frozenset[int]:
    """The adversary's faulty set, rejected unless it is at most ``f``
    known node ids (shared by the single-process and cluster runners)."""
    faulty = adversary.select_faulty(n, f, rng)
    if len(faulty) > f:
        raise ConfigurationError(
            f"adversary corrupted {len(faulty)} nodes, but f={f}"
        )
    if any(i not in range(n) for i in faulty):
        raise ConfigurationError("adversary corrupted unknown node ids")
    return frozenset(faulty)


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


async def _run_async(
    transport: Transport,
    nodes: dict[int, Node],
    byzantine: "tuple | None",
    beats: int,
    beat_timeout: "float | None",
    probe: Callable[[Component], Any],
    n: int,
    codec: Codec,
    clock: "Callable[[], float] | None" = None,
    timing: "tuple | None" = None,
    stall_ids: frozenset = frozenset(),
) -> tuple[list[RuntimeNode], "ByzantineProcess | None"]:
    runtime_nodes: list[RuntimeNode] = []
    process: "ByzantineProcess | None" = None
    synchronizer_factory = None
    if timing is not None:
        # Pulse mode: one shared anchor so every barrier's deadlines (and
        # close offsets, hence the skew metric) live on one time axis.
        from repro.net.events import DriftingClock

        timing_seed, rho, pulse_period = timing
        anchor = asyncio.get_running_loop().time()

        def synchronizer_factory(endpoint, expected, node_id):
            return PulseBarrier(
                endpoint,
                expected,
                clock=DriftingClock(timing_seed, node_id, rho, pulse_period),
                anchor=anchor,
                codec=codec,
            )
    try:
        all_ids = frozenset(range(n))
        for node_id, node in nodes.items():
            if node_id in stall_ids:
                continue  # stalled: never opens, never marks a beat
            endpoint = await transport.open(node_id)
            if synchronizer_factory is not None:
                synchronizer = synchronizer_factory(
                    endpoint, all_ids, node_id
                )
            else:
                synchronizer = BeatSynchronizer(
                    endpoint, all_ids, beat_timeout=beat_timeout, codec=codec
                )
            runtime_nodes.append(
                RuntimeNode(
                    node, endpoint, synchronizer, probe=probe, clock=clock
                )
            )
        if byzantine is not None:
            adversary, faulty_ids, env, rng = byzantine
            endpoints = {
                node_id: await transport.open(node_id)
                for node_id in sorted(faulty_ids)
            }
            process = ByzantineProcess(
                adversary,
                endpoints,
                n=n,
                f=len(faulty_ids),
                env=env,
                rng=rng,
                beat_timeout=beat_timeout,
                codec=codec,
                synchronizer_factory=synchronizer_factory,
            )
        tasks = [node.run(beats) for node in runtime_nodes]
        if process is not None:
            tasks.append(process.run(beats))
        await asyncio.gather(*tasks)
    finally:
        await transport.aclose()
    return runtime_nodes, process


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
    root_path: str = "root",
    probe: Callable[[Component], Any] = _default_probe,
    metrics: "object | None" = None,
    recorder: "object | None" = None,
) -> RuntimeResult:
    """Run the protocol live for ``beats`` beats; return the trajectory.

    Mirrors the :class:`~repro.net.simulator.Simulation` constructor's
    parameters and seed discipline (see the module docstring); ``beats``
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
    if sync not in ("beat", "pulse"):
        raise ConfigurationError(
            f"unknown sync mode {sync!r}: expected 'beat' or 'pulse'"
        )
    if sync == "beat" and rho:
        raise ConfigurationError(
            "clock drift (rho) only applies to the pulse barrier; "
            "pass sync='pulse'"
        )
    check_resilience(n, f)
    seeds = SeedSequence(seed)
    timing = None
    if sync == "pulse":
        # DriftingClock validates rho and pulse_period at construction;
        # fail fast here, before any transport work.
        from repro.net.events import DriftingClock

        timing_seed = seeds.seed_for("timing")
        DriftingClock(timing_seed, 0, rho, pulse_period)
        timing = (timing_seed, rho, pulse_period)
    env = Environment(n, seeds.seed_for("env"))
    adversary_rng = seeds.stream("adversary")
    byzantine: "tuple | None" = None
    if adversary is not None:
        faulty_ids = _select_faulty(adversary, n, f, adversary_rng)
        adversary.setup(n, f, faulty_ids, adversary_rng)
        env.divergence_chooser = adversary.choose_divergent_outputs
        if faulty_ids:
            byzantine = (adversary, faulty_ids, env, adversary_rng)
    else:
        faulty_ids = frozenset()
    honest_ids = [i for i in range(n) if i not in faulty_ids]
    stalled = frozenset(stall_ids)
    bad_stalls = sorted(i for i in stalled if i not in honest_ids)
    if bad_stalls:
        raise ConfigurationError(
            f"stall_ids {bad_stalls} are not honest node ids: only "
            "correct processes can be stalled (the adversary already "
            "speaks for the faulty ones)"
        )
    if stalled and len(stalled) >= len(honest_ids):
        raise ConfigurationError(
            "cannot stall every honest node: nobody would be left to "
            "drive the run to termination"
        )
    nodes = {
        i: Node(
            i,
            n,
            f,
            root_factory(i),
            seeds.stream("node", i),
            env,
            root_path=root_path,
        )
        for i in honest_ids
    }
    fault_rng = seeds.stream("faults")
    if scramble:
        for node_id in honest_ids:
            nodes[node_id].scramble(fault_rng)

    transport_obj = resolve_transport(transport)
    codec_obj = resolve_codec(codec)
    clock = getattr(recorder, "clock", None)
    started = time.perf_counter()
    runtime_nodes, process = asyncio.run(
        _run_async(
            transport_obj, nodes, byzantine, beats, beat_timeout, probe, n,
            codec_obj, clock, timing, stalled,
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
    messages = sum(rn.messages_sent for rn in runtime_nodes)
    frames = sum(rn.frames_sent for rn in runtime_nodes)
    late = sum(rn.synchronizer.late_messages for rn in runtime_nodes)
    premature = sum(
        rn.synchronizer.premature_messages for rn in runtime_nodes
    )
    timeouts = sum(rn.synchronizer.barrier_timeouts for rn in runtime_nodes)
    malformed = sum(
        rn.synchronizer.malformed_frames for rn in runtime_nodes
    )
    if process is not None:
        messages += process.messages_sent
        frames += process.frames_sent
        late += process.late_messages
        premature += process.premature_messages
        timeouts += process.barrier_timeouts
    if hasattr(transport_obj, "malformed_frames"):
        malformed += transport_obj.malformed_frames
    frames_by_node = {
        rn.node.node_id: rn.frames_sent for rn in runtime_nodes
    }
    pulse_timeouts = 0
    pulse_skew = None
    converged_time = None
    if sync == "pulse":
        pulse_timeouts = sum(
            rn.synchronizer.pulse_timeouts for rn in runtime_nodes
        )
        if process is not None:
            pulse_timeouts += process.pulse_timeouts
        # All barriers share one anchor on one event loop (local and TCP
        # runs alike are in-process), so close offsets are comparable:
        # the per-beat spread is the run's realized pulse skew.
        closes = [rn.synchronizer.pulse_closes for rn in runtime_nodes]
        if closes and all(len(c) >= beats for c in closes):
            pulse_skew = max(
                max(c[beat] for c in closes) - min(c[beat] for c in closes)
                for beat in range(beats)
            )
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
        messages_sent=messages,
        late_messages=late,
        premature_messages=premature,
        barrier_timeouts=timeouts,
        elapsed_s=elapsed,
        codec=codec_obj.name,
        frames_sent=frames,
        malformed_frames=malformed,
        frames_by_node=frames_by_node,
        sync=sync,
        pulse_timeouts=pulse_timeouts,
        pulse_skew_s=pulse_skew,
        converged_time_s=converged_time,
    )
    if metrics is not None:
        from repro.obs.metrics import record_runtime

        record_runtime(metrics, result)
    if recorder is not None:
        recorder.observe_runtime(result, runtime_nodes)
    return result
