"""Cold tower construction and the field-arithmetic kernel table.

Run in a fresh interpreter per tower shape, so no canonical modulus is
cached yet:

    PYTHONPATH=src python3 bench/galois_probe.py --tower gf2_k4 --seed 1

A shape names the conformance tower GF(q) -> k -> k -> 2 that a
`pipeline --conformance` run with |E(N)| = k builds.  Prints one JSON
object: the wall time of building the whole tower, and ns per
`mul_enc` / `inv_enc` on the tower levels this shape owns in the kernel
table.  Operands are batches drawn from --seed and start from an empty
memo, so on the large levels nearly every call computes; on GF(4) and
GF(256) repeats hit the memo, as they do in the program.  Levels:
gf4 = GF(2)->2, gf2_8 = GF(2)->2->2->2, gf2_16 = GF(2)->4->4,
gf2_32 = GF(2)->4->4->2, gf3_9 = GF(3)->3->3.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
from time import perf_counter

from matroidfrag.galois import extend_field, make_prime_field

TOWERS = {"gf2_k2": (2, 2), "gf2_k3": (2, 3), "gf2_k4": (2, 4), "gf3_k3": (3, 3)}
# kernel-table entries: name -> (tower shape, number of tower steps)
LEVELS = {
    "gf4": ("gf2_k2", 1),
    "gf2_8": ("gf2_k2", 3),
    "gf2_16": ("gf2_k4", 2),
    "gf2_32": ("gf2_k4", 3),
    "gf3_9": ("gf3_k3", 2),
}
MUL_BATCH = 2000
INV_BATCH = 32
BATCHES = 5


def _per_op_ns(fn, items) -> float:
    t0 = perf_counter()
    for item in items:
        fn(*item)
    return (perf_counter() - t0) * 1e9 / len(items)


def kernel_ns(spec, rng: random.Random) -> tuple[float, float]:
    """Median ns per mul_enc and per inv_enc over fresh seeded batches."""
    muls, invs = [], []
    top = spec.order - 1
    for _ in range(BATCHES):
        pairs = [(rng.randint(2, top), rng.randint(2, top)) for _ in range(MUL_BATCH)]
        muls.append(_per_op_ns(spec.mul_enc, pairs))
        elems = [(rng.randint(2, top),) for _ in range(INV_BATCH)]
        invs.append(_per_op_ns(spec.inv_enc, elems))
    return statistics.median(muls), statistics.median(invs)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--tower", choices=sorted(TOWERS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    q, k = TOWERS[args.tower]
    cap = 2 * k * k
    t0 = perf_counter()
    levels = [make_prime_field(q)]
    for d in (k, k, 2):
        levels.append(extend_field(levels[-1], d, degree_cap=cap))
    tower_ms = (perf_counter() - t0) * 1000.0
    rng = random.Random(f"{args.seed}:{args.tower}")
    mul_ns, inv_ns = {}, {}
    for name, (shape, steps) in LEVELS.items():
        if shape == args.tower:
            mul_ns[name], inv_ns[name] = kernel_ns(levels[steps], rng)
    print(json.dumps({"tower": args.tower, "tower_ms": tower_ms,
                      "mul_ns": mul_ns, "inv_ns": inv_ns}))


if __name__ == "__main__":
    main()
