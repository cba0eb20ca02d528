"""Record the frozen output digests that ``checks.py`` compares against.

Run once, from the root of a checkout of the commit whose output is to be
frozen (it takes several minutes):

    python3 perfbench/freeze.py

It writes ``perfbench/frozen.json``: for the default seed, the emission
sequence digest of each workload's first inputs, and the sorted-mask digest
of the full reverse-search output of the 14-vertex instance.  Re-freezing is
only right for a change that alters the emission order on purpose.
"""

from __future__ import annotations

import json
import sys

from run import import_package

FROZEN_INPUTS = {"cubic14_rs": 48, "cubic14_vs": 3, "verify_small": 1500}


def main() -> int:
    import_package()
    from chordalenum import Graph, chordal_completion_system, reverse_search
    from checks import FROZEN_PATH, digest, pass_digest
    from workloads import (CUBIC14_EDGES, DEFAULT_SEED, WORKLOADS, run_for)

    frozen = {"seed": DEFAULT_SEED, "sequence": {}, "full_set": {}}
    for name, count in FROZEN_INPUTS.items():
        passes = run_for(WORKLOADS[name], DEFAULT_SEED, 0, count=count)
        frozen["sequence"][name] = [pass_digest(p) for p in passes]
        print(f"{name}: {count} inputs", flush=True)
    system = chordal_completion_system(Graph(14, CUBIC14_EDGES))
    frozen["full_set"]["cubic14_vs"] = digest(
        sorted(f.mask for f in reverse_search(system)))
    with open(FROZEN_PATH, "w", encoding="utf-8") as out:
        json.dump(frozen, out, indent=1)
        out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
