"""Fragility: the minor sits in the matroid in exactly one way.

The certificate is exhaustive.  fragile_partitions decides every
partition (C, D) of E(M) - E(N), by a depth-first search that prunes
only what provably cannot realise N, and keeps the ones with
M/C\\D = N, so "fragile" means the returned set has exactly one
element.  On the matrix side, X-fragility asks the X block to vanish
while X raises the rank of every disjoint nonempty Y; a failed check
names the first offending entry or subset.
"""

from matroidfrag import (
    LabeledMatrix,
    MinorSpec,
    ReprMatroid,
    display_basis,
    fragile_partitions,
    isolated,
    make_prime_field,
    one_move_partition,
    x_fragile_failure,
)

GF2 = make_prime_field(2)

# c coloop-side, d a loop, e parallel to c
A = LabeledMatrix(GF2, ["c"], ["d", "e"], [[0, 1]])
M = ReprMatroid(A)
N = isolated({"c"}, {"c", "d"})

parts = fragile_partitions(M, N)
print("partitions realising the (c, d) pair:")
for p in parts:
    print("  contract", sorted(p.contract), " delete", sorted(p.delete))
print("fragile:", len(parts) == 1)
print("displayed by basis:", sorted(display_basis(M, N)))

print("\nmatrix view, X = {c, d}:")
print("  x_fragile_failure:", x_fragile_failure(A, {"c", "d"}))
print("  X-fragile:", x_fragile_failure(A, {"c", "d"}) is None)

# kill the parallel element and both definitions fail together:
# the loop e can be contracted or deleted, two partitions each work
B = LabeledMatrix(GF2, ["c"], ["d", "e"], [[0, 0]])
MB = ReprMatroid(B)
print("\nafter zeroing the e column:")
print("  failure witness:", x_fragile_failure(B, {"c", "d"}))
print("  partitions now:", len(fragile_partitions(MB, N)))
# the cheap witness: moving the loop e to the other side keeps the minor
part = MinorSpec({"e"}, ())
print("  one move from", part, "->", one_move_partition(MB, part))

# a witness is minimal in size-then-lexicographic order
C = LabeledMatrix(GF2, ["c"], ["d", "x", "y"], [[0, 0, 0]])
print("\nwitness order demo (x and y both fail):", x_fragile_failure(C, {"c", "d"}))
