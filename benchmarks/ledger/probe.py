"""The set-up probe: a fresh interpreter doing only a workload's set-up.

``python -m benchmarks.ledger.probe`` imports ``repro``, installs the
competitors, builds the workload's first cell up to but not including its
first simulated event, and exits; the measuring process times spawn to
exit.  A :class:`~benchmarks.ledger.calibration.Sampler` runs through all of
it and its passes go to ``--passes`` for the parent to calibrate with.
"""

from __future__ import annotations

import json
import sys

from benchmarks.ledger.calibration import PROBE_INTERVAL_S, Sampler


def main(argv: list[str]) -> int:
    name, seed, workdir, passes_file = argv
    sampler = Sampler(PROBE_INTERVAL_S)
    sampler.start()
    try:
        from pathlib import Path

        # Imported here: importing the program is most of what set-up costs.
        from benchmarks.ledger.workloads import make_workload

        make_workload(name, int(seed), Path(workdir)).setup()
    finally:
        passes = sampler.stop()
    with open(passes_file, "w") as fh:
        json.dump(passes, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
