"""Record the output digests the benchmark checks against.

Usage, from the root of a repository checkout::

    python3 perfbench/pin.py

Answers every input the sim and design workloads can draw -- each
application seed of each sim grid, each homogeneous design query and
each mix query -- and writes their digests to ``perfbench/pinned.json``.
The digests pin the outputs of the commit that wrote them, so a change
that alters an output shows up as a failed operation.  Re-pin only
when an output change is intended and explained, never to make a
failing check pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads as w

    pinned: dict[str, str] = {}
    for name in w.SIM_APPS:
        grid = w.SimGrid(name, 0, ROOT)
        for app_seed in w.APP_SEEDS:
            out, _ = grid.run(("grid", app_seed))
            for (app, spec_name), result in out["cells"].items():
                key = w.sim_key(app, grid.apps[app], app_seed, spec_name.split("/")[0])
                pinned[key] = w.sim_cell_digest(result)
            print(f"{name} seed {app_seed}: pinned", file=sys.stderr)
    design = w.Design("design", 0, ROOT)
    for workload in w.DESIGN_WORKLOADS:
        for budget in w.DESIGN_BUDGETS:
            out, _ = design.run(("design", workload, budget))
            pinned[w.design_key("design", workload, budget)] = w.design_digest(out)
        out, _ = design.run(("mix", workload, w.MIX_BUDGET))
        pinned[w.design_key("mix", workload, w.MIX_BUDGET)] = w.mix_digest(out)
        print(f"design {workload}: pinned", file=sys.stderr)
    w.PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pinned)} digests to {w.PINNED}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
