"""Record the SHA-256 of every workload's generated inputs for seeds 0-99.

Run from the repository root, only after changing a generator on purpose:

    python3 perfbench/record_digests.py

run.py fails a run whose inputs no longer match the digest recorded here for
its seed, so a silent change to the inputs cannot pass as a speed-up.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = range(100)


def main() -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads

    table = {
        name: {str(seed): workloads.digest(w.build(seed)) for seed in SEEDS}
        for name, w in workloads.WORKLOADS.items()
    }
    (HERE / "digests.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
