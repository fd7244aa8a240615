"""Multi-process cluster orchestration for the live runtime.

:func:`run_runtime` keeps every node task inside one process; this module
launches a *cluster*: worker processes, each hosting a contiguous block
of node ids over :class:`~repro.runtime.transport.TcpTransport`, with the
Byzantine process (when the spec names an adversary) hosted by worker 0.
The entry points are declarative — a :class:`ClusterSpec` per experiment,
grouped into plain Python spec files that expose an ``experiments`` list
(:func:`load_specs`), the pattern simulation orchestration harnesses use
for their ``experiments/*.py`` trees — and the ``repro cluster run``
command drives them end to end.

Launch sequence (two-phase address exchange):

1. the parent partitions ``range(n)`` contiguously across
   ``spec.processes`` workers and starts each with a
   :mod:`multiprocessing` pipe;
2. every worker binds one ephemeral TCP listener per id it hosts and
   reports ``{node_id: (host, port)}`` up the pipe;
3. the parent merges the maps and broadcasts the full address book; each
   worker feeds it to
   :meth:`~repro.runtime.transport.TcpTransport.register_peers` and
   starts its beat loops;
4. workers stream back their per-node probe traces and wire statistics;
   the parent merges them into per-beat
   :class:`~repro.net.trace.BeatRecord` rows — the same JSONL trace
   shape every other harness in the repository emits.

Determinism: every worker builds the *complete* world with
:func:`~repro.net.world.build_world` — the builder
:func:`~repro.runtime.runner.run_runtime` and the simulators use, so the
same faulty set, honest towers and scramble order over **all** ids, not
just its own block — and then runs only the nodes it owns, through the
runner's own wiring coroutine.  Shared randomness stays aligned across
processes because every cross-node draw is keyed (coin outcomes memoized
per ``(path, beat)``, transport jitter per link counter), never
streamed.  The one caveat: adversaries whose ``divergence_chooser``
consumes the adversary RNG stream would advance it differently per
process, so cluster runs are pinned against the simulator only for the
fault-free and stream-independent strategies the tests cover.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

from repro.core.problem import converged_at
from repro.errors import ConfigurationError, TransportError, check_resilience
from repro.net.trace import BeatRecord, records_to_jsonl
from repro.net.world import build_world
from repro.runtime.codec import DEFAULT_CODEC, resolve_codec
from repro.runtime.runner import _default_probe, _pulse_skew, _run_world, _tally
from repro.runtime.sync import check_sync
from repro.runtime.transport import TcpTransport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.connection import Connection

__all__ = ["ClusterResult", "ClusterSpec", "load_specs", "run_cluster"]

#: Ceiling on one worker handshake or result wait, seconds.
_PIPE_TIMEOUT = 300.0


@dataclass(frozen=True)
class ClusterSpec:
    """One declarative cluster experiment.

    Everything is named, not instantiated, so a spec pickles cleanly into
    spawned worker processes and reads naturally in a spec file::

        experiments = [
            ClusterSpec(name="smoke-n4", n=4, f=1, k=6, beats=12,
                        processes=2, codec="binary"),
        ]
    """

    name: str
    n: int
    f: int
    k: int = 8
    protocol: str = "clock-sync"
    coin: str = "oracle"
    adversary: str = "none"
    codec: str = DEFAULT_CODEC
    seed: int = 0
    beats: int = 30
    processes: int = 2
    beat_timeout: "float | None" = 30.0
    host: str = "127.0.0.1"
    scramble: bool = True
    #: Barrier mode: ``"beat"`` (fixed timeout) or ``"pulse"`` (drifting
    #: clock pulse schedule; ``beat_timeout`` is then ignored).
    sync: str = "beat"
    pulse_period: float = 0.2
    rho: float = 0.0

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on an inconsistent spec."""
        from repro.analysis.campaign import ADVERSARY_REGISTRY, PROTOCOL_REGISTRY

        if not self.name:
            raise ConfigurationError("cluster spec needs a non-empty name")
        check_resilience(self.n, self.f)
        if self.beats < 1:
            raise ConfigurationError(
                f"need at least one beat, got {self.beats}"
            )
        if not 1 <= self.processes <= self.n:
            raise ConfigurationError(
                f"processes must be in 1..n={self.n}, got {self.processes}"
            )
        if self.protocol not in PROTOCOL_REGISTRY:
            raise ConfigurationError(
                f"unknown protocol {self.protocol!r}; "
                f"known: {sorted(PROTOCOL_REGISTRY)}"
            )
        if self.adversary not in ADVERSARY_REGISTRY:
            raise ConfigurationError(
                f"unknown adversary {self.adversary!r}; "
                f"known: {sorted(ADVERSARY_REGISTRY)}"
            )
        if self.coin not in ("oracle", "gvss", "local"):
            raise ConfigurationError(
                f"unknown coin {self.coin!r}; try oracle, gvss or local"
            )
        resolve_codec(self.codec)  # unknown codec -> ConfigurationError
        check_sync(self.sync, self.rho, self.pulse_period)


@dataclass(frozen=True)
class ClusterResult:
    """Merged outcome of one cluster run (the multi-process
    :class:`~repro.runtime.runner.RuntimeResult`)."""

    name: str
    n: int
    f: int
    seed: int
    codec: str
    processes: int
    beats_run: int
    records: "tuple[BeatRecord, ...]" = field(repr=False)
    converged_beat: "int | None" = None
    messages_sent: int = 0
    frames_sent: int = 0
    late_messages: int = 0
    premature_messages: int = 0
    barrier_timeouts: int = 0
    malformed_frames: int = 0
    elapsed_s: float = 0.0
    frames_by_node: "dict[int, int] | None" = None
    sync: str = "beat"
    pulse_timeouts: int = 0
    #: Pulse mode only: max pairwise barrier-close spread observed within
    #: any single worker, in real seconds.  Clocks are not comparable
    #: *across* worker processes, so this is a per-worker measurement
    #: merged by max — a lower bound on the cluster-wide skew.
    pulse_skew_s: "float | None" = None
    #: Merged per-worker metrics registries (a
    #: :class:`~repro.obs.MetricsRegistry`); excluded from equality so
    #: result comparison stays about the trajectory and its counters.
    metrics: "Any | None" = field(default=None, repr=False, compare=False)

    @property
    def converged(self) -> bool:
        return self.converged_beat is not None

    @property
    def history(self) -> tuple[tuple, ...]:
        """Per-beat honest values, node-id-sorted — the monitors' shape."""
        return tuple(
            tuple(record.values[i] for i in sorted(record.values))
            for record in self.records
        )

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
        """The trajectory in the shared JSONL trace format.

        ``health=True`` appends one flight-recorder ``health`` event
        line (barrier counters plus per-node frame totals) — the same
        shape :meth:`~repro.runtime.runner.RuntimeResult.to_jsonl`
        emits; the default stays byte-identical to a single-process
        run's trace.
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


def load_specs(path: str) -> "tuple[ClusterSpec, ...]":
    """Load the ``experiments`` list from a Python spec file.

    A spec file is ordinary Python: it imports :class:`ClusterSpec` (from
    :mod:`repro.runtime`) and assigns a module-level ``experiments`` list.
    Every loading problem — unreadable file, import error, missing or
    mistyped ``experiments``, invalid specs — raises
    :class:`ConfigurationError`.
    """
    import importlib.util

    spec = importlib.util.spec_from_file_location("repro_cluster_spec", path)
    if spec is None or spec.loader is None:
        raise ConfigurationError(f"cannot load cluster spec file {path!r}")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except ConfigurationError:
        raise
    except Exception as error:
        raise ConfigurationError(
            f"cluster spec file {path!r} failed to import: {error}"
        ) from error
    experiments = getattr(module, "experiments", None)
    if experiments is None:
        raise ConfigurationError(
            f"cluster spec file {path!r} defines no `experiments` list"
        )
    specs = tuple(experiments)
    if not specs or not all(isinstance(s, ClusterSpec) for s in specs):
        raise ConfigurationError(
            f"`experiments` in {path!r} must be a non-empty list of "
            "ClusterSpec objects"
        )
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ConfigurationError(
            f"duplicate experiment names in {path!r}: {sorted(names)}"
        )
    for s in specs:
        s.validate()
    return specs


# -- the worker side -------------------------------------------------------


async def _worker_async(
    spec: ClusterSpec,
    worker_index: int,
    owned_ids: "tuple[int, ...]",
    conn: "Connection",
) -> dict:
    """One worker's whole run; returns the payload for the parent."""
    from repro import coin_by_name
    from repro.analysis.campaign import ADVERSARY_REGISTRY
    from repro.core.protocol import resolve_protocol

    n, f, k = spec.n, spec.f, spec.k
    protocol = resolve_protocol(spec.protocol)
    root_factory = protocol.factory(
        n, f, k, coin_factory=coin_by_name(spec.coin, n, f)
    )
    adversary_cls = ADVERSARY_REGISTRY[spec.adversary]
    adversary = adversary_cls() if adversary_cls is not None else None

    # Every worker builds the FULL world and scrambles every honest node
    # in id order, so the shared streams stay aligned with a
    # single-process run — then runs only its own block.
    world = build_world(n, f, root_factory, adversary=adversary, seed=spec.seed)
    if spec.scramble:
        world.scramble()

    transport = TcpTransport(host=spec.host)

    def exchange_addresses(opened: "list[int]") -> None:
        # Phase 1: report the ephemeral addresses this worker bound.
        conn.send(("addrs", {i: transport.address_of(i) for i in opened}))
        # Phase 2: learn everyone else's before the beat loops start.
        if not conn.poll(_PIPE_TIMEOUT):
            raise TransportError("orchestrator never sent the address book")
        transport.register_peers(conn.recv())

    # Pulse mode anchors deadlines per worker: workers start at different
    # wall instants, so skew is a within-worker measurement (see
    # ClusterResult.pulse_skew_s).
    runtime_nodes, process = await _run_world(
        world,
        transport,
        [i for i in owned_ids if i not in world.faulty_ids],
        beats=spec.beats,
        codec=resolve_codec(spec.codec),
        beat_timeout=spec.beat_timeout,
        sync=spec.sync,
        rho=spec.rho,
        pulse_period=spec.pulse_period,
        probe=_default_probe,
        host_byzantine=worker_index == 0,
        on_open=exchange_addresses,
    )

    payload: dict[str, Any] = {
        "traces": {
            rn.node.node_id: list(rn.trace) for rn in runtime_nodes
        },
        "sync": spec.sync,
        **_tally(runtime_nodes, process, transport),
    }
    if spec.sync == "pulse":
        payload["pulse_skew_s"] = (
            _pulse_skew(runtime_nodes, spec.beats)
            if len(runtime_nodes) >= 2
            else None
        )
    payload["metrics"] = _worker_registry(payload).to_json()
    return payload


def _worker_registry(payload: "dict[str, Any]"):
    """One worker's counters re-homed onto a fresh metrics registry.

    Per-node labels on frame counts keep worker sample sets disjoint, so
    the parent's :meth:`~repro.obs.MetricsRegistry.merge_json` fold is
    lossless.  Metric names match :func:`repro.obs.record_runtime`, so a
    merged cluster registry reads like a single-process run's.
    """
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    registry.counter(
        "runtime_messages_sent_total", "protocol messages sent"
    ).set_total(payload["messages_sent"])
    frames = registry.counter(
        "runtime_frames_sent_total", "wire units shipped, per node"
    )
    for node_id, count in sorted(payload["frames_by_node"].items()):
        frames.set_total(count, node=str(node_id))
    registry.counter(
        "runtime_late_messages_total",
        "frames that arrived after their barrier closed (dropped)",
    ).set_total(payload["late_messages"])
    registry.counter(
        "runtime_premature_messages_total",
        "frames tagged beyond the lookahead horizon (dropped)",
    ).set_total(payload["premature_messages"])
    registry.counter(
        "runtime_malformed_frames_total",
        "wire units that failed to decode (dropped whole)",
    ).set_total(payload["malformed_frames"])
    registry.counter(
        "runtime_barrier_timeouts_total",
        "round barriers closed by timeout instead of full markers",
    ).set_total(payload["barrier_timeouts"])
    if payload.get("sync") == "pulse":
        registry.counter(
            "runtime_pulse_timeouts_total",
            "pulse barriers closed by the pulse deadline",
        ).set_total(payload.get("pulse_timeouts", 0))
    return registry


def _cluster_worker(
    spec: ClusterSpec,
    worker_index: int,
    owned_ids: "tuple[int, ...]",
    conn: "Connection",
) -> None:
    """Worker process entry point (module-level for spawn picklability)."""
    try:
        payload = asyncio.run(
            _worker_async(spec, worker_index, owned_ids, conn)
        )
        conn.send(("ok", payload))
    except Exception as error:  # surfaced by the parent as TransportError
        try:
            conn.send(("error", f"{type(error).__name__}: {error}"))
        except OSError:  # parent already gone
            pass
    finally:
        conn.close()


# -- the parent side -------------------------------------------------------


def _partition(n: int, processes: int) -> "list[tuple[int, ...]]":
    """Contiguous, non-empty blocks of ``range(n)``, one per process."""
    base, extra = divmod(n, processes)
    blocks, start = [], 0
    for index in range(processes):
        size = base + (1 if index < extra else 0)
        blocks.append(tuple(range(start, start + size)))
        start += size
    return blocks


def run_cluster(spec: ClusterSpec) -> ClusterResult:
    """Launch ``spec`` as a multi-process TCP cluster and merge the result.

    Worker failures (crash, import error, handshake timeout) terminate
    the whole cluster and raise :class:`TransportError` naming the
    failing worker.
    """
    spec.validate()
    context = multiprocessing.get_context("spawn")
    blocks = _partition(spec.n, spec.processes)
    workers: "list[tuple[int, Any, Connection]]" = []
    started = time.perf_counter()
    try:
        for index, block in enumerate(blocks):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_cluster_worker,
                args=(spec, index, block, child_conn),
                name=f"repro-cluster-{spec.name}-{index}",
            )
            process.start()
            child_conn.close()
            workers.append((index, process, parent_conn))

        address_book: dict[int, tuple[str, int]] = {}
        for index, _process, conn in workers:
            kind, value = _expect(conn, index, "addrs")
            address_book.update(value)
        missing = set(range(spec.n)) - set(address_book)
        if missing:
            raise TransportError(
                f"no worker bound node ids {sorted(missing)}"
            )
        for _index, _process, conn in workers:
            conn.send(address_book)

        payloads = []
        for index, _process, conn in workers:
            _kind, value = _expect(conn, index, "ok")
            payloads.append(value)
    except Exception:
        for _index, process, _conn in workers:
            if process.is_alive():
                process.terminate()
        raise
    finally:
        for _index, process, conn in workers:
            process.join(timeout=10.0)
            conn.close()
    elapsed = time.perf_counter() - started

    values_by_beat: "dict[int, dict[int, Any]]" = {}
    for payload in payloads:
        for node_id, trace in payload["traces"].items():
            for beat, value in trace:
                values_by_beat.setdefault(beat, {})[node_id] = value
    records = tuple(
        BeatRecord(beat, values_by_beat.get(beat, {}))
        for beat in range(spec.beats)
    )
    history = tuple(
        tuple(record.values[i] for i in sorted(record.values))
        for record in records
    )
    from repro.obs.metrics import MetricsRegistry

    metrics = MetricsRegistry()
    for payload in payloads:
        metrics.merge_json(payload["metrics"])
    metrics.counter(
        "runtime_beats_total", "beats the run executed"
    ).set_total(spec.beats)
    metrics.gauge(
        "runtime_elapsed_seconds", "wall-clock duration of the run"
    ).set(elapsed)
    frames_by_node: dict[int, int] = {}
    for payload in payloads:
        frames_by_node.update(payload["frames_by_node"])
    pulse_timeouts = sum(p.get("pulse_timeouts", 0) for p in payloads)
    worker_skews = [
        p["pulse_skew_s"]
        for p in payloads
        if p.get("pulse_skew_s") is not None
    ]
    pulse_skew = max(worker_skews) if worker_skews else None
    if spec.sync == "pulse" and pulse_skew is not None:
        metrics.gauge(
            "runtime_pulse_skew_seconds",
            "max within-worker pulse barrier close spread",
        ).set(pulse_skew)
    return ClusterResult(
        name=spec.name,
        n=spec.n,
        f=spec.f,
        seed=spec.seed,
        codec=spec.codec,
        processes=spec.processes,
        beats_run=spec.beats,
        records=records,
        converged_beat=converged_at(history, spec.k),
        messages_sent=sum(p["messages_sent"] for p in payloads),
        frames_sent=sum(p["frames_sent"] for p in payloads),
        late_messages=sum(p["late_messages"] for p in payloads),
        premature_messages=sum(p["premature_messages"] for p in payloads),
        barrier_timeouts=sum(p["barrier_timeouts"] for p in payloads),
        malformed_frames=sum(p["malformed_frames"] for p in payloads),
        elapsed_s=elapsed,
        frames_by_node=frames_by_node,
        sync=spec.sync,
        pulse_timeouts=pulse_timeouts,
        pulse_skew_s=pulse_skew,
        metrics=metrics,
    )


def _expect(conn: "Connection", index: int, want: str) -> tuple:
    """Receive one pipe message from worker ``index``, demanding ``want``."""
    try:
        if not conn.poll(_PIPE_TIMEOUT):
            raise TransportError(
                f"cluster worker {index} sent nothing within "
                f"{_PIPE_TIMEOUT:.0f}s"
            )
        kind, value = conn.recv()
    except (EOFError, OSError) as error:
        raise TransportError(
            f"cluster worker {index} died before reporting: {error}"
        ) from None
    if kind == "error":
        raise TransportError(f"cluster worker {index} failed: {value}")
    if kind != want:
        raise TransportError(
            f"cluster worker {index} sent {kind!r}, expected {want!r}"
        )
    return kind, value


# Re-exported convenience: spec files often tweak a base spec.
clone = replace
