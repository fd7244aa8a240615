"""The four closed-loop workloads and their reference trajectories.

Every workload runs ss-Byz-Clock-Sync (k = 8) from a scrambled start with
f = floor((n - 1) / 3), one trial at a time: the next beat starts only
when the previous one has closed, the next trial only when the previous
one has ended.  A trial returns its trajectory digest, which the campaign
compares with ``reference.json``; :meth:`Workload.reference` recomputes
that digest along an independent path (see ``refgen.py``).
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import Counter
from dataclasses import dataclass, field

from layers import (
    Layers,
    MarkedTransport,
    TimedAdversary,
    TimedCodec,
    TimedTransport,
    timed_clock_sync,
    timed_feldman_micali,
)
from repro.adversary.mixed_dealing import MixedDealingAdversary
from repro.adversary.strategies import CrashAdversary, EquivocatorAdversary
from repro.analysis.convergence import ClockConvergenceMonitor
from repro.coin.feldman_micali import FeldmanMicaliCoin
from repro.coin.oracle import OracleCoin
from repro.core.clock_sync import SSByzClockSync
from repro.net.events import ContinuousSimulation
from repro.net.simulator import Simulation
from repro.net.trace import Tracer
from repro.runtime import run_runtime

__all__ = ["WORKLOADS", "Trial", "Workload"]

#: Clock modulus of every workload.
K = 8
#: Closure beats past convergence before a lock-step trial stops early
#: (``TrialConfig.closure_window``'s default, so trials end where
#: ``run_trial`` would end them).
CLOSURE_WINDOW = 12

clock = time.perf_counter


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def history_digest(history) -> str:
    """Digest of a monitor history (per-beat honest clock values)."""
    return _sha(json.dumps([list(row) for row in history]))


@dataclass
class Trial:
    """One completed trial, as the campaign sees it."""

    seed: int
    digest: str
    beats: int
    messages: int
    converged: "int | None"
    setup_s: float
    loop_s: float
    #: Wall time between consecutive beat completions.
    beat_s: list[float] = field(repr=False)
    #: Late, premature and malformed frames plus barrier timeouts (live).
    dropped: int = 0
    late: int = 0
    vectorized: bool = False
    #: Wall time of the whole trial, set-up included (set by the campaign).
    wall_s: float = 0.0
    #: Factor turning this trial's measured seconds into reference-CPU
    #: seconds (set by the campaign from the calibration around it).
    scale: float = 1.0


class _BeatClock:
    """A clock-read-only probe: notes when the last honest node has
    probed each beat, and returns the clock value unchanged."""

    def __init__(self, honest: int, layers: "Layers | None") -> None:
        self.honest = honest
        self.layers = layers
        self.completions: list[float] = []
        self._next_beat: dict[int, int] = {}
        self._probes: Counter = Counter()

    def __call__(self, root):
        layers = self.layers
        if layers is not None:
            layers.enter("monitor")
        key = id(root)
        beat = self._next_beat.get(key, 0)
        self._next_beat[key] = beat + 1
        self._probes[beat] += 1
        if self._probes[beat] == self.honest:
            del self._probes[beat]
            self.completions.append(clock())
            if layers is not None:
                layers.beat = beat + 1
        value = root.clock_value
        if layers is not None:
            layers.exit()
        return value

    def intervals(self, started: float) -> list[float]:
        edges = [started, *self.completions]
        return [b - a for a, b in zip(edges, edges[1:])]


class _Per:
    """Per-beat and per-node-beat views of a run's traced trials."""

    def __init__(self, layers: Layers, trials: list[Trial], honest: int):
        self.layers = layers
        self.trials = trials
        self.beats = sum(trial.beats for trial in trials)
        self.node_beats = self.beats * honest
        #: Times are reported in reference-CPU seconds, like end to end.
        self.scale = sum(t.scale for t in trials) / len(trials)

    def ms_per_beat(self, *names: str) -> float:
        total = sum(self.layers.total[name] for name in names)
        return total * self.scale / self.beats * 1e3

    def us_per_node_beat(self, name: str) -> float:
        return self.layers.total[name] * self.scale / self.node_beats * 1e6

    def us_per_call(self, name: str, calls: "int | None" = None) -> float:
        calls = self.layers.calls[name] if calls is None else calls
        return self.layers.total[name] * self.scale / max(1, calls) * 1e6

    def self_ms_per_beat(self, name: str) -> float:
        return self.layers.self_time[name] * self.scale / self.beats * 1e3

    def per_beat(self, value: float) -> float:
        return value / self.beats

    def setup_ms(self) -> float:
        setup = sum(t.setup_s * t.scale for t in self.trials)
        return setup / len(self.trials) * 1e3

    def common(self) -> dict:
        """The metrics every workload has, under shared names."""
        layers = self.layers
        messages = sum(trial.messages for trial in self.trials)
        return {
            "setup.ms_per_trial": (self.setup_ms(), "ms"),
            "plane.msgs_per_beat": (self.per_beat(messages), "msgs"),
            "adversary.craft_ms_per_beat": (
                self.ms_per_beat("adversary.craft"), "ms"),
            "adversary.view_msgs_per_beat": (
                self.per_beat(layers.counts["adversary.view_msgs"]), "msgs"),
            "coin.us_per_beat": (
                self.ms_per_beat("coin.oracle", "coin.gvss") * 1e3, "us"),
            "monitor.us_per_beat": (self.ms_per_beat("monitor") * 1e3, "us"),
            "py.gc_ms_per_beat": (self.ms_per_beat("py.gc"), "ms"),
        }

    def oracle_calls(self) -> dict:
        return {"coin.oracle_calls_per_beat": (
            self.per_beat(self.layers.calls["coin.oracle"]), "calls")}


class Workload:
    """A named campaign: a fixed pool of trial seeds and a trial runner."""

    name = ""
    why = ""
    n = 0
    f = 0
    #: Trial seeds of one campaign pass (the run's seed orders them).
    pool: tuple[int, ...] = ()
    #: What one attempted operation is: a ``"trial"`` or a ``"beat"``.
    op = "trial"
    #: The layer metric holding the message plane's self time per beat.
    plane_metric = ""

    @property
    def honest(self) -> int:
        return self.n - self.f

    def trial(self, seed: int, layers: "Layers | None" = None) -> Trial:
        raise NotImplementedError

    def reference(self, seed: int) -> str:
        """The trajectory digest along the independent reference path."""
        raise NotImplementedError

    def layer_metrics(self, layers: Layers, trials: list[Trial]) -> dict:
        """``{name: (value, unit)}`` for the traced trials: the shared
        metrics plus this workload's own layers."""
        per = _Per(layers, trials, self.honest)
        metrics = per.common()
        metrics.update(self._layers(per))
        metrics["plane.self_ms_per_beat"] = metrics[self.plane_metric]
        return metrics

    def _layers(self, per: _Per) -> dict:
        raise NotImplementedError


# -- live-n16 ----------------------------------------------------------------


class LiveN16(Workload):
    name = "live-n16"
    why = (
        "run_runtime over LocalTransport with the binary codec and an "
        "equivocating Byzantine process: the runtime codec, transport, "
        "barrier and byzantine layers carry the work"
    )
    n, f = 16, 5
    pool = (0, 1, 2, 3)
    op = "beat"
    plane_metric = "runtime.self_ms_per_beat"
    #: Beats per live trial; each trial is one ``run_runtime`` call.
    beats = 150

    def trial(self, seed: int, layers: "Layers | None" = None) -> Trial:
        adversary = EquivocatorAdversary()
        if layers is None:
            root_type = SSByzClockSync
            codec = "binary"
            transport = MarkedTransport(clock)
        else:
            adversary = TimedAdversary(adversary, layers)
            root_type = timed_clock_sync(layers)
            codec = TimedCodec(layers)
            transport = TimedTransport(layers, adversary)
        beat_clock = _BeatClock(self.honest, layers)
        started = clock()
        result = run_runtime(
            self.n,
            self.f,
            lambda _i: root_type(K, OracleCoin),
            adversary=adversary,
            seed=seed,
            beats=self.beats,
            transport=transport,
            codec=codec,
            k=K,
            sync="beat",
            probe=beat_clock,
        )
        opened = transport.opened_at
        return Trial(
            seed=seed,
            digest=_sha(result.to_jsonl()),
            beats=result.beats_run,
            messages=result.messages_sent,
            converged=result.converged_beat,
            setup_s=opened - started,
            loop_s=beat_clock.completions[-1] - opened,
            beat_s=beat_clock.intervals(opened),
            dropped=sum(result.health.values()),
            late=result.late_messages,
        )

    def reference(self, seed: int) -> str:
        # The runtime reproduces the lock-step simulator bit-for-bit.
        simulation = Simulation(
            self.n,
            self.f,
            lambda _i: SSByzClockSync(K, OracleCoin),
            adversary=EquivocatorAdversary(),
            seed=seed,
            engine="reference",
        )
        tracer = Tracer(lambda root: root.clock_value)
        simulation.add_monitor(tracer)
        simulation.scramble()
        simulation.run(self.beats)
        return _sha(tracer.to_jsonl())

    def _layers(self, per: _Per) -> dict:
        layers, trials = per.layers, per.trials
        counts = layers.counts
        loop_s = sum(trial.loop_s for trial in trials)
        # Whatever the beat loop spent outside the protocol, the
        # adversary and the probe: codec, transport, barrier and loop.
        outside = sum(
            layers.total[name]
            for name in ("tower.send", "tower.update", "adversary.craft",
                         "monitor")
        )
        metrics = per.oracle_calls()
        metrics.update({
            "tower.send_us": (per.us_per_node_beat("tower.send"), "us"),
            "tower.update_us": (per.us_per_node_beat("tower.update"), "us"),
            "codec.encode_us": (
                per.us_per_call("codec.encode", counts["codec.encode_units"]),
                "us"),
            "codec.decode_us": (per.us_per_call("codec.decode"), "us"),
            "codec.encode_calls_per_beat": (
                per.per_beat(layers.calls["codec.encode"]), "calls"),
            "codec.units_per_beat": (
                per.per_beat(counts["codec.encode_units"]), "units"),
            "codec.bytes_per_msg": (
                counts["codec.bytes"] / max(1, counts["codec.msg_frames"]),
                "bytes"),
            "transport.send_us": (per.us_per_call("transport.send"), "us"),
            "transport.recv_us": (
                per.us_per_call("transport.recv", counts["transport.received"]),
                "us"),
            "sync.wait_ms_per_beat": (
                layers.waits["sync.wait"] * per.scale / per.node_beats
                * 1e3, "ms"),
            "sync.dropped_per_beat": (
                per.per_beat(sum(trial.dropped for trial in trials)), "frames"),
            "byzantine.craft_ms_per_beat": (
                per.ms_per_beat("adversary.craft"), "ms"),
            "byzantine.units_per_beat": (
                per.per_beat(counts["adversary.units"]), "msgs"),
            "runtime.self_ms_per_beat": (
                (loop_s - outside) * per.scale / per.beats * 1e3, "ms"),
        })
        return metrics


# -- lock-step campaigns -------------------------------------------------------


class _LockStep(Workload):
    """A ``run_trial``-shaped campaign on one engine, beat by beat."""

    engine = ""
    reference_engine = ""
    max_beats = 200

    def root_factory(self, layers: "Layers | None"):
        raise NotImplementedError

    def adversary(self):
        raise NotImplementedError

    def trial(self, seed: int, layers: "Layers | None" = None) -> Trial:
        return self._run(seed, self.engine, layers)

    def reference(self, seed: int) -> str:
        return self._run(seed, self.reference_engine, None).digest

    def _run(self, seed: int, engine: str, layers: "Layers | None") -> Trial:
        adversary = self.adversary()
        if layers is not None:
            adversary = TimedAdversary(adversary, layers)
        started = clock()
        simulation = Simulation(
            self.n,
            self.f,
            self.root_factory(layers),
            adversary=adversary,
            seed=seed,
            engine=engine,
        )
        monitor = ClockConvergenceMonitor(K)
        if layers is None:
            simulation.add_monitor(monitor)
        else:
            def timed_monitor(sim, beat):
                layers.enter("monitor")
                try:
                    monitor(sim, beat)
                finally:
                    layers.exit()

            simulation.add_monitor(timed_monitor)
        simulation.scramble()
        loop_started = clock()
        beat_s = []
        for beat in range(self.max_beats):
            beat_started = clock()
            if layers is None:
                simulation.run_beat()
            else:
                layers.beat = beat
                layers.enter("engine.beat")
                try:
                    simulation.run_beat()
                finally:
                    layers.exit()
            beat_s.append(clock() - beat_started)
            if monitor.closure_streak > CLOSURE_WINDOW:
                break
        loop_ended = clock()
        return Trial(
            seed=seed,
            digest=history_digest(monitor.history),
            beats=len(beat_s),
            messages=simulation.stats.total_messages,
            converged=monitor.convergence_beat(),
            setup_s=loop_started - started,
            loop_s=loop_ended - loop_started,
            beat_s=beat_s,
            vectorized=bool(getattr(simulation.engine, "vectorized", False)),
        )


class SimBulkN256(_LockStep):
    name = "sim-bulk-n256"
    why = (
        "Simulation on the bulk engine at n=256 with a silent (crash) "
        "adversary: the vectorized engine and the adversary-view build "
        "carry the work, towers and coins stay dormant"
    )
    n, f = 256, 85
    pool = tuple(range(8))
    engine = "bulk"
    reference_engine = "fast"
    plane_metric = "bulk.self_ms"

    def root_factory(self, layers):
        # No timing root here: bulk eligibility keys on the exact root
        # type, and a subclass would silently fall back per node.
        return lambda _i: SSByzClockSync(K, OracleCoin)

    def adversary(self):
        return CrashAdversary()

    def _layers(self, per: _Per) -> dict:
        layers, trials = per.layers, per.trials
        metrics = per.oracle_calls()
        metrics.update({
            "simulator.setup_ms": (per.setup_ms(), "ms"),
            "bulk.beat_ms": (per.ms_per_beat("engine.beat"), "ms"),
            "bulk.self_ms": (per.self_ms_per_beat("engine.beat"), "ms"),
            "bulk.view_msgs_per_beat": (
                per.per_beat(layers.counts["adversary.view_msgs"]), "msgs"),
            "bulk.vectorized_frac": (
                sum(trial.vectorized for trial in trials) / len(trials),
                "ratio"),
        })
        return metrics


class SimGvssN10(_LockStep):
    name = "sim-gvss-n10"
    why = (
        "FastEngine at n=10 with the GVSS (Feldman-Micali) coin under "
        "mixed dealing: the coin and Reed-Solomon decoding carry the work"
    )
    n, f = 10, 3
    pool = tuple(range(12))
    engine = "fast"
    reference_engine = "reference"
    plane_metric = "engine.self_ms"

    def root_factory(self, layers):
        n, f = self.n, self.f
        if layers is None:
            return lambda _i: SSByzClockSync(K, lambda: FeldmanMicaliCoin(n, f))
        root_type = timed_clock_sync(layers)
        coin_type = timed_feldman_micali(layers)
        return lambda _i: root_type(K, lambda: coin_type(n, f))

    def adversary(self):
        return MixedDealingAdversary()

    def _layers(self, per: _Per) -> dict:
        layers, trials = per.layers, per.trials
        return {
            "simulator.setup_ms": (per.setup_ms(), "ms"),
            "tower.send_us": (per.us_per_node_beat("tower.send"), "us"),
            "tower.update_us": (per.us_per_node_beat("tower.update"), "us"),
            "coin.gvss_us": (per.us_per_node_beat("coin.gvss"), "us"),
            "coin.rs_decode_us": (per.us_per_call("coin.rs_decode"), "us"),
            "coin.rs_decodes_per_beat": (
                per.per_beat(layers.calls["coin.rs_decode"]), "calls"),
            "engine.beat_ms": (per.ms_per_beat("engine.beat"), "ms"),
            "engine.self_ms": (per.self_ms_per_beat("engine.beat"), "ms"),
            "engine.msgs_per_beat": (
                per.per_beat(sum(trial.messages for trial in trials)),
                "msgs"),
        }


# -- sim-drift-n16 -------------------------------------------------------------


class SimDriftN16(Workload):
    name = "sim-drift-n16"
    why = (
        "ContinuousSimulation with drifting clocks (rho=1e-3) and keyed "
        "delays in [0.05, 0.3]: the event heap and pulse synchronizers "
        "carry the work"
    )
    n, f = 16, 5
    pool = tuple(range(12))
    plane_metric = "events.self_ms_per_beat"
    #: Fixed horizon per trial (the event schedule is built up front).
    beats = 120
    rho = 1e-3
    delay_bounds = (0.05, 0.3)
    pulse_period = 1.0

    def trial(self, seed: int, layers: "Layers | None" = None) -> Trial:
        adversary = EquivocatorAdversary()
        root_type = SSByzClockSync
        if layers is not None:
            adversary = TimedAdversary(adversary, layers)
            root_type = timed_clock_sync(layers)
        beat_clock = _BeatClock(self.honest, layers)
        started = clock()
        simulation = ContinuousSimulation(
            self.n,
            self.f,
            lambda _i: root_type(K, OracleCoin),
            adversary=adversary,
            seed=seed,
            rho=self.rho,
            delay_bounds=self.delay_bounds,
            pulse_period=self.pulse_period,
            probe=beat_clock,
        )
        simulation.scramble()
        loop_started = clock()
        if layers is None:
            result = simulation.run(self.beats, k=K)
        else:
            layers.enter("events.run")
            try:
                result = simulation.run(self.beats, k=K)
            finally:
                layers.exit()
        loop_ended = clock()
        return Trial(
            seed=seed,
            digest=_sha(result.to_jsonl()),
            beats=result.beats_run,
            messages=result.total_messages,
            converged=result.converged_beat,
            setup_s=loop_started - started,
            loop_s=loop_ended - loop_started,
            beat_s=beat_clock.intervals(loop_started),
            late=result.late_messages,
        )

    def reference(self, seed: int) -> str:
        # No second engine models drift: the reference is this commit's
        # own trajectory, pinned so later changes must reproduce it.
        return self.trial(seed).digest

    def _layers(self, per: _Per) -> dict:
        trials = per.trials
        metrics = per.oracle_calls()
        metrics.update({
            "simulator.setup_ms": (per.setup_ms(), "ms"),
            "tower.send_us": (per.us_per_node_beat("tower.send"), "us"),
            "tower.update_us": (per.us_per_node_beat("tower.update"), "us"),
            "events.ms_per_beat": (per.ms_per_beat("events.run"), "ms"),
            "events.self_ms_per_beat": (
                per.self_ms_per_beat("events.run"), "ms"),
            "events.msgs_per_beat": (
                per.per_beat(sum(trial.messages for trial in trials)),
                "msgs"),
            "events.late_per_beat": (
                per.per_beat(sum(trial.late for trial in trials)), "msgs"),
        })
        return metrics


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (LiveN16(), SimBulkN256(), SimGvssN10(), SimDriftN16())
}
