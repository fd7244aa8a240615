"""Baseline comparators: phase-king BA, Turpin-Coan, deterministic and
Dolev-Welch clock sync — the rows of Table 1."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.adversary.strategies import (
    CrashAdversary,
    EquivocatorAdversary,
    RandomNoiseAdversary,
    ScriptedAdversary,
    SplitWorldAdversary,
)
from repro.analysis.convergence import ClockConvergenceMonitor
from repro.baselines.turpin_coan import TurpinCoanClock as DeterministicClockSync
from repro.baselines.dolev_welch import DolevWelchClock
from repro.baselines.phase_king import PhaseKingState, phase_king_rounds
from repro.baselines.turpin_coan import TurpinCoanInstance, turpin_coan_rounds
from repro.net.simulator import Simulation
from tests.conftest import CoinHarness


class _AgreementAlgorithm:
    """Adapter: run agreement instances under the CoinHarness."""

    def __init__(self, instance_factory, rounds):
        self.rounds = rounds
        self.p0 = self.p1 = 0.0
        self._factory = instance_factory
        self._counter = 0

    def new_instance(self):
        instance = self._factory(self._counter)
        self._counter += 1
        return instance


def run_phase_king(n, f, inputs, *, faulty=frozenset(), byz_hook=None, seed=0):
    algorithm = _AgreementAlgorithm(
        lambda idx: PhaseKingState(n, f, inputs[idx]), phase_king_rounds(f)
    )
    harness = CoinHarness(algorithm, n, f, faulty=faulty, seed=seed)
    return harness.run(byz_hook)


def run_turpin_coan(n, f, k, inputs, *, faulty=frozenset(), byz_hook=None, seed=0):
    algorithm = _AgreementAlgorithm(
        lambda idx: TurpinCoanInstance(n, f, k, inputs[idx]),
        turpin_coan_rounds(f),
    )
    harness = CoinHarness(algorithm, n, f, faulty=faulty, seed=seed)
    return harness.run(byz_hook)


class TestPhaseKing:
    def test_round_count(self):
        assert phase_king_rounds(1) == 6
        assert phase_king_rounds(2) == 9

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=4, max_size=4))
    def test_agreement_fault_free(self, inputs):
        outputs = run_phase_king(4, 1, inputs)
        assert len(set(outputs.values())) == 1

    @given(st.integers(min_value=0, max_value=1))
    def test_validity(self, bit):
        """If every correct node starts with b, the decision is b."""
        outputs = run_phase_king(4, 1, [bit] * 4, faulty=frozenset({3}))
        assert set(outputs.values()) == {bit}

    def test_agreement_with_byzantine_king(self):
        """Kings are nodes 0..f; corrupt node 0 (a king) and equivocate."""
        n, f = 4, 1
        faulty = frozenset({0})

        def evil_king(round_index, visible):
            messages = []
            for receiver in range(n):
                bit = receiver % 2
                messages.append((0, receiver, ("k", bit)))
                messages.append((0, receiver, ("v", bit)))
                messages.append((0, receiver, ("d", bit)))
            return messages

        for inputs in ([0, 1, 0, 1], [1, 1, 0, 0], [0, 0, 1, 1]):
            outputs = run_phase_king(
                n, f, inputs, faulty=faulty, byz_hook=evil_king
            )
            assert len(set(outputs.values())) == 1

    def test_agreement_under_random_equivocation(self):
        import random

        n, f = 7, 2
        faulty = frozenset({5, 6})
        rng = random.Random(3)

        def chaos(round_index, visible):
            messages = []
            for sender in faulty:
                for receiver in range(n):
                    kind = rng.choice(("v", "d", "k"))
                    messages.append((sender, receiver, (kind, rng.randrange(2))))
            return messages

        for seed in range(5):
            inputs = [rng.randrange(2) for _ in range(n)]
            outputs = run_phase_king(
                n, f, inputs, faulty=faulty, byz_hook=chaos, seed=seed
            )
            assert len(set(outputs.values())) == 1

    def test_output_always_binary(self):
        outputs = run_phase_king(4, 1, [1, 0, 1, 0])
        assert set(outputs.values()) <= {0, 1}


class TestTurpinCoan:
    def test_round_count(self):
        assert turpin_coan_rounds(1) == 8

    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=4, max_size=4))
    def test_agreement_fault_free(self, inputs):
        outputs = run_turpin_coan(4, 1, 10, inputs)
        assert len(set(outputs.values())) == 1

    @given(st.integers(min_value=0, max_value=9))
    def test_validity_multivalued(self, value):
        outputs = run_turpin_coan(4, 1, 10, [value] * 4, faulty=frozenset({3}))
        assert set(outputs.values()) == {value}

    def test_agreement_under_equivocation(self):
        n, f, k = 4, 1, 10
        faulty = frozenset({3})

        def equivocate(round_index, visible):
            messages = []
            for receiver in range(n):
                if round_index == 1:
                    messages.append((3, receiver, ("tc-val", receiver % k)))
                elif round_index == 2:
                    messages.append((3, receiver, ("tc-prop", receiver % 2)))
                else:
                    messages.append((3, receiver, ("d", receiver % 2)))
            return messages

        for inputs in ([7, 7, 7, 0], [1, 2, 3, 4], [5, 5, 2, 2]):
            outputs = run_turpin_coan(
                n, f, k, inputs, faulty=faulty, byz_hook=equivocate
            )
            assert len(set(outputs.values())) == 1

    def test_n_minus_f_agreeing_inputs_win(self):
        """With n-f equal correct inputs the decision is that value even
        under a silent faulty node (strong validity via the proposal round)."""
        outputs = run_turpin_coan(4, 1, 10, [6, 6, 6, 1], faulty=frozenset({3}))
        assert set(outputs.values()) == {6}


class TestDeterministicClockSync:
    def make_sim(self, n, f, k, adversary=None, seed=0):
        sim = Simulation(
            n,
            f,
            lambda i: DeterministicClockSync(n, f, k),
            adversary=adversary,
            seed=seed,
        )
        monitor = ClockConvergenceMonitor(k=k)
        sim.add_monitor(monitor)
        return sim, monitor

    @pytest.mark.parametrize(
        "adversary_factory",
        [
            lambda: None,
            CrashAdversary,
            RandomNoiseAdversary,
            EquivocatorAdversary,
            SplitWorldAdversary,
        ],
    )
    def test_converges_deterministically(self, adversary_factory):
        n, f, k = 4, 1, 8
        sim, monitor = self.make_sim(n, f, k, adversary=adversary_factory())
        sim.scramble()
        depth = turpin_coan_rounds(f)
        sim.run(3 * depth)
        beat = monitor.convergence_beat()
        assert beat is not None
        assert beat <= 2 * depth  # the deterministic bound

    def test_latency_linear_in_f(self):
        """Table 1's O(f) row: latency grows with f."""
        latencies = {}
        for n, f in ((4, 1), (10, 3), (16, 5)):
            sim, monitor = self.make_sim(n, f, 8)
            sim.scramble()
            sim.run(4 * turpin_coan_rounds(f))
            beat = monitor.convergence_beat()
            assert beat is not None
            latencies[f] = beat
        assert latencies[1] < latencies[3] < latencies[5]

    def test_latency_identical_across_seeds(self):
        """Deterministic means deterministic: same latency, every seed."""
        beats = set()
        for seed in range(5):
            sim, monitor = self.make_sim(4, 1, 8, seed=seed)
            sim.scramble()
            sim.run(30)
            beats.add(monitor.convergence_beat())
        assert len(beats) == 1

    def test_frozen_fixed_point_regression(self):
        """Evidence for the DESIGN.md concession: adopting every lane's
        agreement output each beat (naive label-free pipelining) can freeze
        the clock at a fixed value — agreed, but not ticking.  The cyclic
        anchored design must tick +1 every beat instead."""
        n, f, k = 4, 1, 8
        sim, monitor = self.make_sim(n, f, k, seed=2)
        sim.scramble()
        sim.run(3 * turpin_coan_rounds(f))
        values = [h[0] for h in monitor.history[-6:]]
        assert len(set(values)) == 6, f"clock frozen or repeating: {values}"

    def test_naive_pipelining_demonstrably_freezes(self):
        """The failure mode itself, preserved as a live demonstration.

        The naive design starts one agreement per beat on the current
        clock and adopts every completing output as ``output + depth``.
        Each of the ``depth`` interleaved agreement lanes is then
        self-consistent on its own (``end(r) = end(r - depth) + depth``),
        so the composite clock can reach a state where all correct nodes
        *agree* on a value that never ticks — "synchronized" junk that
        violates the k-Clock problem's closure.  This is exactly why the
        shipped baseline anchors a single cyclic agreement instead, and
        why removing the shared phase label is the real contribution of
        the papers it substitutes for.
        """
        import random as random_module

        from repro.coin.interfaces import InstanceContext
        from repro.net.component import Component

        n, f, k = 4, 1, 8
        depth = turpin_coan_rounds(f)

        class NaivePipelinedClockSync(Component):
            modulus = k

            def __init__(self):
                super().__init__()
                self.slots = [
                    TurpinCoanInstance(n, f, k, 0) for _ in range(depth)
                ]
                self.clock = 0

            @property
            def clock_value(self):
                return self.clock

            def _ictx(self, ctx, slot, inbox, sending):
                emit = None
                if sending:
                    def emit(receiver, payload, _slot=slot):
                        ctx.send(receiver, (_slot, payload))
                return InstanceContext(
                    node_id=ctx.node_id, n=ctx.n, f=ctx.f, beat=ctx.beat,
                    rng=ctx.rng, env=ctx.env, path=f"{ctx.path}/s{slot}",
                    inbox=inbox, emit=emit,
                )

            def on_send(self, ctx):
                for index, instance in enumerate(self.slots):
                    instance.send_round(
                        index + 1, self._ictx(ctx, index + 1, [], True)
                    )

            def on_update(self, ctx):
                by_slot = {}
                for envelope in ctx.inbox:
                    payload = envelope.payload
                    if (
                        isinstance(payload, tuple)
                        and len(payload) == 2
                        and isinstance(payload[0], int)
                    ):
                        by_slot.setdefault(payload[0], []).append(
                            (envelope.sender, payload[1])
                        )
                for index, instance in enumerate(self.slots):
                    instance.update_round(
                        index + 1,
                        self._ictx(ctx, index + 1, by_slot.get(index + 1, []), False),
                    )
                self.clock = (self.slots[-1].output() + depth) % k
                self.slots = [
                    TurpinCoanInstance(n, f, k, self.clock)
                ] + self.slots[:-1]

            def scramble(self, rng: random_module.Random):
                self.clock = rng.randrange(k)
                for instance in self.slots:
                    instance.scramble(rng)

        sim = Simulation(n, f, lambda i: NaivePipelinedClockSync(), seed=2)
        monitor = ClockConvergenceMonitor(k=k)
        sim.add_monitor(monitor)
        sim.scramble()
        sim.run(6 * depth)
        # All correct nodes agree beat after beat...
        tail = monitor.history[-2 * depth:]
        assert all(len(set(values)) == 1 for values in tail)
        # ...but the k-Clock problem is not solved: closure never holds.
        assert monitor.convergence_beat() is None
        # The freeze in its purest form: with depth ≡ 0 (mod k) — which is
        # what f=1, k=8 gives (depth = 2 + 3(f+1) = 8) — the lane
        # recurrence end(r) = end(r - depth) + depth collapses to
        # end(r) = end(r - depth): the agreed value stops moving entirely.
        assert depth % k == 0
        distinct_tail_values = {values[0] for values in tail}
        assert len(distinct_tail_values) == 1  # frozen, not ticking

    def test_closure_through_wraparound(self):
        sim, monitor = self.make_sim(4, 1, 5, seed=3)
        sim.scramble()
        sim.run(40)
        beat = monitor.convergence_beat()
        assert beat is not None
        tail = [h[0] for h in monitor.history[beat:]]
        for previous, current in zip(tail, tail[1:]):
            assert current == (previous + 1) % 5


class TestDolevWelch:
    def make_sim(self, n, f, k, seed=0, adversary=None):
        sim = Simulation(
            n, f, lambda i: DolevWelchClock(k), adversary=adversary, seed=seed
        )
        monitor = ClockConvergenceMonitor(k=k)
        sim.add_monitor(monitor)
        return sim, monitor

    def test_converges_small_system(self):
        converged = 0
        for seed in range(6):
            sim, monitor = self.make_sim(4, 1, 2, seed=seed)
            sim.scramble()
            sim.run(400)
            if monitor.convergence_beat() is not None:
                converged += 1
        assert converged >= 4

    def test_closure_once_synched(self):
        sim, monitor = self.make_sim(4, 1, 4, seed=1)
        sim.scramble()
        sim.run(600)
        beat = monitor.convergence_beat()
        if beat is None:
            pytest.skip("unlucky seed for the exponential baseline")
        tail = [h[0] for h in monitor.history[beat:]]
        for previous, current in zip(tail, tail[1:]):
            assert current == (previous + 1) % 4

    def test_latency_blows_up_with_system_size(self):
        """The expected-exponential shape: mean latency explodes as n-f
        grows, where the paper's algorithm stays constant."""
        def mean_latency(n, f, beats):
            latencies = []
            for seed in range(8):
                sim, monitor = self.make_sim(n, f, 2, seed=seed)
                sim.scramble()
                sim.run(beats)
                beat = monitor.convergence_beat()
                latencies.append(beat if beat is not None else beats)
            return sum(latencies) / len(latencies)

        small = mean_latency(4, 1, 300)
        large = mean_latency(13, 4, 300)
        assert large > small

    def test_junk_payloads_tolerated(self):
        script = {b: [(3, r, "root", ("junk",)) for r in range(4)] for b in range(10)}
        sim, _ = self.make_sim(4, 1, 4, adversary=ScriptedAdversary(script))
        sim.run(10)
        for node in sim.nodes.values():
            assert 0 <= node.root.clock < 4
