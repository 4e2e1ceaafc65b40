"""The full reduction chain, stage by stage.

Input: a matroid M fragile for an isolated minor N (all loops and
coloops).  The chain zeroes the displayed block, collapses each side of
the minor to a single element placed freely on its span, and finally
relaxes the circuit-hyperplane displayed by the surviving pair.  Every
stage re-verifies its defining property before returning, so a trace
that comes back at all is a certificate.

Degrees: default mode keeps extensions minimal (a side that is already
one element costs nothing).  Conformance mode collapses both sides at
degree k = |E(N)| so the final field has degree exactly 2k^2 over the
input field.
"""

from matroidfrag import (
    ReprMatroid,
    gen_random,
    is_relaxation,
    isolated,
    LabeledMatrix,
    make_prime_field,
    pipeline,
)

GF2 = make_prime_field(2)


def show(tr):
    for s in tr.stages:
        flags = " ".join(k for k, v in s.verdicts.items() if v)
        print(f"  {s.name:24s} degree {s.degree_over_input:3d}  [{flags}]")
    print("  hyperplane:", sorted(tr.hyperplane),
          " final degree:", tr.final_degree_over_input,
          " bound 2k^2 =", tr.degree_bound)
    assert is_relaxation(tr.relaxed, tr.relaxation, tr.hyperplane)


M = ReprMatroid(LabeledMatrix(GF2, ["c"], ["d", "e"], [[0, 1]]))
N = isolated({"c"}, {"c", "d"})

print("tiny pair, default degrees:")
show(pipeline(M, N))

print("\nsame pair, conformance tower:")
show(pipeline(M, N, conformance=True))

# a bigger seeded instance where one side really collapses
gi = gen_random("pipeline", seed=2, q=2, rows=3, cols=3, minor_size=3)
M2 = ReprMatroid(gi.instance.matrix)
N2 = gi.instance.task.minor
print("\nseeded 6-element instance, minor of size 3"
      f" (rejected {gi.rejections} draws first):")
tr = pipeline(M2, N2)
show(tr)
print("  relaxed matroid has", len(tr.relaxed.bases()), "bases;",
      "relaxation adds exactly one:", len(tr.relaxation.bases()))
