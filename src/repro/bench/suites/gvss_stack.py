"""End-to-end cost of the full GVSS stack (engineering bench).

Not a paper artifact: this one exists so regressions in the algebraic
substrate (field ops, Berlekamp-Welch) show up as changes in the
complete ss-Byz-Clock-Sync over the real Feldman-Micali-style coin —
three GVSS pipelines, n dealings each, four rounds deep.  Convergence
beat and per-beat traffic are simulation-deterministic, so both gate
against the baseline; wall-clock beats/sec is informational.
"""

from __future__ import annotations

import time

from repro.bench.registry import Benchmark, register
from repro.bench.result import BenchOutcome, BenchResult


def run(
    n: int = 4, f: int = 1, k: int = 16, beats: int = 40, seed: int = 3
) -> BenchOutcome:
    from repro.analysis.convergence import ClockConvergenceMonitor
    from repro.coin.feldman_micali import FeldmanMicaliCoin
    from repro.core.clock_sync import SSByzClockSync
    from repro.net.simulator import Simulation

    coin_factory = lambda: FeldmanMicaliCoin(n, f)
    sim = Simulation(n, f, lambda i: SSByzClockSync(k, coin_factory), seed=seed)
    monitor = ClockConvergenceMonitor(k=k)
    sim.add_monitor(monitor)
    sim.scramble()
    started = time.perf_counter()
    sim.run(beats)
    elapsed = time.perf_counter() - started
    converged_beat = monitor.convergence_beat()
    total_messages = sim.stats.total_messages

    axes = {"n": n, "f": f, "k": k}
    results = [
        BenchResult(
            benchmark="gvss_stack",
            metric="messages_per_beat",
            value=total_messages / beats,
            unit="messages",
            scenario=axes,
            direction="lower",
        ),
        BenchResult(
            benchmark="gvss_stack",
            metric="beats_per_sec",
            value=beats / elapsed,
            unit="beats/s",
            scenario=axes,
            direction="higher",
            gated=False,  # wall-clock
        ),
    ]
    failures = []
    if converged_beat is None:
        failures.append(
            f"full GVSS stack failed to converge within {beats} beats"
        )
    else:
        results.append(
            BenchResult(
                benchmark="gvss_stack",
                metric="converged_beat",
                value=converged_beat,
                unit="beats",
                scenario=axes,
                direction="lower",
            )
        )
    table = (
        f"n={n} f={f} k={k}: converged at beat {converged_beat}, "
        f"{total_messages} messages over {beats} beats "
        f"({total_messages / beats:.0f}/beat)"
    )
    return BenchOutcome(
        results=tuple(results),
        failures=tuple(failures),
        tables=(("gvss_stack", table),),
    )


register(
    Benchmark(
        name="gvss_stack",
        tier="full",
        runner=run,
        params={"n": 4, "f": 1, "k": 16, "beats": 40, "seed": 3},
        description="end-to-end ss-Byz-Clock-Sync over the real GVSS coin "
                    "(algebraic-substrate canary)",
    )
)
