"""Record the reference outputs the benchmark pins.

    PYTHONPATH=src python3 perfbench/record_reference.py

Runs three fixed-seed ops per workload and writes their configs and the
checked parts of their outputs to perfbench/reference.json. Record only on
a commit whose outputs are known to be right: the benchmark then fails any
later change that alters them.
"""

import json
import random
import sys
import tempfile
from pathlib import Path

from workloads import REFERENCE_PATH, make_workloads

REFERENCE_OPS = 3


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as scratch:
        for name, workload in make_workloads(Path(scratch)).items():
            rng = random.Random(f"reference/{name}")
            entries = []
            for _ in range(REFERENCE_OPS):
                config = workload.config(rng)
                code, output = workload.run(config)
                problems = workload.check(config, code, output)
                if problems:
                    print(f"{name}: {problems}", file=sys.stderr)
                    return 1
                entries.append({"config": config, "digest": workload.digest(output)})
            reference[name] = entries
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
