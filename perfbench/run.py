"""Run one benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload live-n16 --seed 1 --seconds 25 --trace 0

One process, one thread.  The run imports the library from ``src/`` of
the checkout it sits in and nothing else; without it the run exits 2
before measuring anything.

``--trace 0`` measures the end-to-end metrics: trials of the workload's
fixed campaign (its seed pool, in an order drawn from ``--seed``) run one
after another until ``--seconds`` have passed and every trial of the pool
has run at least once.  ``--trace 1`` runs each trial of the campaign
twice in a row, untraced then traced, and reports the per-layer metrics
of the traced trials plus the tracing overhead.

Times are wall-clock times scaled to a reference CPU speed: a fixed
calibration kernel runs right before and after every trial, and the
trial's times are multiplied by ``CAL_REF_S`` over the kernel's time
(see :func:`calibrate`).  The unscaled rate is printed alongside.

Every trial's trajectory digest is checked against ``reference.json``
(regenerate it with ``python3 perfbench/refgen.py``).  A mismatch, a
missed convergence, a dropped frame or a barrier timeout counts as a
failed operation and makes the exit code 1.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The per-layer table goes to standard error, and the whole
result, with the environment fingerprint and the traced trials' first
spans, to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"

#: End-to-end metrics of a ``--trace 0`` run, with their units.
END_TO_END = {
    "beats_per_s": "beats/s",
    "msgs_per_s": "msgs/s",
    "trials_per_s": "trials/s",
    "beat_p50_ms": "ms",
    "beat_p90_ms": "ms",
    "converge_beats": "beats",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics of a ``--trace 1`` run that every workload has.
PER_LAYER = {
    "setup.ms_per_trial": "ms",
    "plane.self_ms_per_beat": "ms",
    "plane.msgs_per_beat": "msgs",
    "adversary.craft_ms_per_beat": "ms",
    "adversary.view_msgs_per_beat": "msgs",
    "coin.us_per_beat": "us",
    "monitor.us_per_beat": "us",
    "py.gc_ms_per_beat": "ms",
    "trace.overhead_frac": "ratio",
}

#: Median time of :func:`_calibration_kernel` on the reference CPU (a
#: shared 2-core Intel Xeon VM, Python 3.11).  Reported times are
#: measured times scaled to that speed; see :func:`calibrate`.
CAL_REF_S = 2.0e-3
CAL_REPEATS = 9

clock = time.perf_counter


def _calibration_kernel() -> int:
    """Fixed interpreter work: dict inserts, a sort, integer arithmetic.

    It allocates no object the garbage collector tracks, so it cannot
    move the collector's schedule inside the trials it brackets.
    """
    table = {}
    for i in range(4000):
        table[i * 7919 % 4001] = i * i % 977
    total = 0
    for key in sorted(table):
        total ^= key + table[key]
    return total


def calibrate() -> float:
    """The machine's current speed: median seconds of the kernel.

    Shared machines drift in speed by tens of percent over seconds to
    minutes.  Timing the same fixed work right before and after each
    trial and scaling the trial's times by ``CAL_REF_S`` over it cancels
    that drift while leaving any change in the library's own cost intact.
    """
    times = []
    for _ in range(CAL_REPEATS):
        started = clock()
        _calibration_kernel()
        times.append(clock() - started)
    return statistics.median(times)


def timed_trial(workload, seed: int, layers=None):
    """Run one trial between two calibrations; set its wall time and scale."""
    before = calibrate()
    started = clock()
    trial = workload.trial(seed, layers)
    trial.wall_s = clock() - started
    trial.scale = CAL_REF_S / ((before + calibrate()) / 2)
    return trial


def pin_hash_seed(script: Path, argv: list[str]) -> None:
    """Re-execute under ``PYTHONHASHSEED=0`` unless already pinned.

    ``MixedDealingAdversary.craft_messages`` iterates a ``set`` of paths,
    so sim-gvss-n10 trajectories depend on string-hash randomization (see
    ``perfbench/tests/test_perfbench.py::test_gvss_trajectory_ignores_hash_seed``).
    Until that is fixed, the digests are defined under hash seed 0.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, str(script), *argv], env)


def import_library() -> None:
    """Put this checkout's ``src/`` first on the path; refuse to run on
    any other copy of the library."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no library source at {package}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"expected {package}", file=sys.stderr)
        raise SystemExit(2)


def fingerprint() -> dict:
    """What the numbers were measured on."""
    from repro.net.bulk import HAVE_NUMPY

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy_bulk": HAVE_NUMPY,
        "nproc": nproc,
        "cpu": cpu,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").split("\n"):
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def judge(workload, trial, expected: dict) -> tuple[int, int, list[str]]:
    """``(attempted, failed, problems)`` for one trial."""
    problems = []
    if trial.digest != expected.get(str(trial.seed)):
        problems.append("trajectory digest differs from reference.json")
    if trial.converged is None:
        problems.append("did not converge")
    if getattr(workload, "engine", "") == "bulk" and not trial.vectorized:
        problems.append("bulk engine fell back to per-node execution")
    if workload.op == "beat":
        # Each beat is an operation; a trajectory fault spoils them all.
        if problems:
            return trial.beats, trial.beats, problems
        if trial.dropped:
            problems.append(f"{trial.dropped} dropped frames or timeouts")
        return trial.beats, min(trial.beats, trial.dropped), problems
    return 1, 1 if problems else 0, problems


def beats_per_s(trials: list) -> float:
    """Beats per reference-CPU second of beat loop."""
    return sum(t.beats for t in trials) / sum(t.loop_s * t.scale for t in trials)


def end_to_end(trials: list) -> dict:
    loop_s = sum(trial.loop_s * trial.scale for trial in trials)
    beat_ms = [
        s * trial.scale * 1e3 for trial in trials for s in trial.beat_s
    ]
    cuts = statistics.quantiles(beat_ms, n=100)
    # One value per pool seed; a trial that never converged is a failure.
    converged = {t.seed: t.converged for t in trials if t.converged is not None}
    return {
        "beats_per_s": beats_per_s(trials),
        "msgs_per_s": sum(trial.messages for trial in trials) / loop_s,
        "trials_per_s": len(trials) / sum(t.wall_s * t.scale for t in trials),
        "beat_p50_ms": statistics.median(beat_ms),
        "beat_p90_ms": cuts[89],
        "converge_beats": statistics.fmean(converged.values() or [0.0]),
        "setup_s": statistics.median(t.setup_s * t.scale for t in trials),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        # Reported, not gated: the highest percentile this run supports.
        "beat_p99_ms": cuts[98] if len(beat_ms) >= 1000 else None,
        "beat_samples": len(beat_ms),
        # Unscaled, for reference: the wall-clock rate and the machine's
        # median speed relative to the reference CPU.
        "beats_per_s_wall": sum(t.beats for t in trials)
        / sum(t.loop_s for t in trials),
        "speed_vs_ref": statistics.median(t.scale for t in trials),
    }


def campaign(workload, seed: int, seconds: float, trace: bool,
             expected: dict) -> dict:
    from layers import Layers

    order = list(workload.pool)
    random.Random(seed).shuffle(order)
    trials = []
    if trace:
        # Each traced trial runs right after its untraced twin, so the
        # pair sees the same machine speed.
        layers = Layers()
        traced = []
        for trial_seed in order:
            trials.append(timed_trial(workload, trial_seed))
            layers.trial = trial_seed
            layers.install()
            try:
                traced.append(timed_trial(workload, trial_seed, layers))
            finally:
                layers.close()
    else:
        started = clock()
        while len(trials) < len(order) or clock() - started < seconds:
            trials.append(
                timed_trial(workload, order[len(trials) % len(order)])
            )
    result = {"e2e": end_to_end(trials), "trials": trials}
    if trace:
        table = workload.layer_metrics(layers, traced)
        ratios = [
            beats_per_s([t]) / beats_per_s([u])
            for u, t in zip(trials, traced)
        ]
        table["trace.overhead_frac"] = (1 - statistics.median(ratios), "ratio")
        result["table"] = table
        result["spans"] = layers.spans_jsonable()
        result["trials"] = trials = trials + traced
    attempted = failed = 0
    problems = []
    for trial in trials:
        a, f, why = judge(workload, trial, expected)
        attempted += a
        failed += f
        problems.extend(f"seed {trial.seed}: {p}" for p in why)
    result.update(attempted=attempted, failed=failed, problems=problems)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_library()
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(WORKLOADS)}")
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    expected = reference["workloads"][workload.name]["digests"]
    env = fingerprint()
    outcome = campaign(
        workload, args.seed, args.seconds, bool(args.trace), expected
    )
    e2e = outcome["e2e"]
    attempted, failed = outcome["attempted"], outcome["failed"]
    if args.trace:
        metrics = {
            name: {"value": outcome["table"][name][0], "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": e2e[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    report(workload, args, env, outcome)
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "end_to_end": e2e,
        "failed_frac": failed / attempted,
        "problems": outcome["problems"],
        "trials": [
            {"seed": t.seed, "beats": t.beats, "converged": t.converged,
             "setup_s": t.setup_s, "loop_s": t.loop_s, "digest": t.digest}
            for t in outcome["trials"]
        ],
    }
    if args.trace:
        record["layers"] = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome["table"].items()
        }
        record["spans"] = outcome["spans"]
    path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def report(workload, args, env: dict, outcome: dict) -> None:
    """The human-readable table, on standard error."""
    err = sys.stderr
    e2e = outcome["e2e"]
    print(f"perfbench {workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}", file=err)
    print("env " + ", ".join(f"{k}={v}" for k, v in env.items()), file=err)
    print(f"{'end-to-end':<32} {'value':>14}  unit", file=err)
    for name, unit in END_TO_END.items():
        print(f"{name:<32} {e2e[name]:>14.6g}  {unit}", file=err)
    print(f"{'beats_per_s_wall':<32} {e2e['beats_per_s_wall']:>14.6g}  "
          "beats/s (unscaled)", file=err)
    print(f"{'speed_vs_ref':<32} {e2e['speed_vs_ref']:>14.6g}  ratio",
          file=err)
    if e2e["beat_p99_ms"] is not None:
        print(f"{'beat_p99_ms':<32} {e2e['beat_p99_ms']:>14.6g}  ms", file=err)
    print(f"{'beat_samples':<32} {e2e['beat_samples']:>14}  beats", file=err)
    frac = outcome["failed"] / outcome["attempted"]
    print(f"{'failed_frac':<32} {frac:>14.6g}  ratio "
          f"({outcome['failed']}/{outcome['attempted']} {workload.op}s)",
          file=err)
    if args.trace:
        print(f"{'layer (traced trials)':<32} {'value':>14}  unit", file=err)
        for name, (value, unit) in sorted(outcome["table"].items()):
            print(f"{name:<32} {value:>14.6g}  {unit}", file=err)
    for problem in outcome["problems"]:
        print("FAILED " + problem, file=err)


if __name__ == "__main__":
    pin_hash_seed(Path(__file__), sys.argv[1:])
    sys.exit(main())
