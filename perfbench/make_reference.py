"""Write reference.json: the final angles of one train-exact fit on a fixed
table, which every train-exact run refits and compares within the stored
tolerance.  Regenerate only when a change is meant to alter training:

    python3 perfbench/make_reference.py
"""
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402

SEED = 2025
# Two Adam steps move each angle by about 2e-2; the same fit with the loss
# computed in closed form instead of by circuits lands within 1e-16.  1e-9
# allows reordered floating-point sums and catches a change of behaviour.
TOLERANCE = 1e-9


def main():
    wl = workloads.TrainExact()
    table = workloads._standardized(wl.rows, wl.features, SEED)
    model = wl.fit(table, wl.config(SEED))
    ref = {
        "seed": SEED,
        "shape": [wl.rows, wl.features, wl.iterations, wl.batch],
        "final_phis": [float(p) for p in model.phis],
        "tolerance": TOLERANCE,
    }
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
