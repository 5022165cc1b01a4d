"""Regenerate reference/norm_track.json, the stored results norm_track is
checked against.

Draws the packets once from fixed ranges with a fixed generator, runs
each through the program in this checkout, and stores the l2 drift, the
record count and the final weighted norms.  Run it only when the program's
numerics are meant to change, and say so in the change that does:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json

import numpy as np

from workloads import (NORM_TRACK, REFERENCE, import_program, norm_track_observe,
                       norm_track_setup)

CASES = 16
DRAW_SEED = 1709_07134
RANGES = {"center": (0.8, 1.2), "width": (0.75, 0.85), "momentum": (0.4, 0.6)}


def main():
    ps = import_program()
    rng = np.random.default_rng(DRAW_SEED)
    cases = []
    for _ in range(CASES):
        packet = {k: round(float(rng.uniform(lo, hi)), 6) for k, (lo, hi) in RANGES.items()}
        handle, u0, cfg = norm_track_setup(ps, packet)
        run = ps.propagate(cfg, handle, u0, norm_orders=NORM_TRACK["norm_orders"])
        cases.append({**packet, **norm_track_observe(run)})
        print(cases[-1], flush=True)
    doc = {"workload": {k: list(v) if isinstance(v, tuple) else v
                        for k, v in NORM_TRACK.items()},
           "ranges": RANGES, "draw_seed": DRAW_SEED, "cases": cases}
    REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
