"""Regenerate ``reference.json``: per-workload, per-seed trajectory digests.

From the repository root::

    python3 perfbench/refgen.py

Each digest comes from a path independent of the one the benchmark
measures, wherever the library has one:

* ``live-n16``: the lock-step simulator (reference engine) over the same
  seed, adversary and beat count; the runtime reproduces it bit-for-bit.
* ``sim-bulk-n256``: the same trials on the fast engine.
* ``sim-gvss-n10``: the same trials on the reference engine.
* ``sim-drift-n16``: no second engine models drift, so the digest is the
  ``ContinuousResult.to_jsonl()`` of the commit that generated the file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import REFERENCE, import_library, pin_hash_seed  # noqa: E402

HOW = {
    "live-n16": "lock-step Simulation(engine='reference') trace JSONL",
    "sim-bulk-n256": "same trials on engine='fast', monitor history JSON",
    "sim-gvss-n10": "same trials on engine='reference', monitor history JSON",
    "sim-drift-n16": "ContinuousResult.to_jsonl() at the generating commit",
}


def main() -> int:
    import_library()
    from workloads import WORKLOADS

    document = {
        "command": "python3 perfbench/refgen.py",
        "workloads": {},
    }
    for name, workload in WORKLOADS.items():
        digests = {}
        for seed in workload.pool:
            digests[str(seed)] = workload.reference(seed)
            print(f"{name} seed {seed}: {digests[str(seed)]}", file=sys.stderr)
        document["workloads"][name] = {"how": HOW[name], "digests": digests}
    REFERENCE.write_text(
        json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    pin_hash_seed(Path(__file__), sys.argv[1:])
    sys.exit(main())
