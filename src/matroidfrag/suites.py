"""Seeded verification suites over generated instances.

Each suite draws instances deterministically from a master seed, runs
one property of the toolkit against an independent in-suite check, and
returns a JSON-ready report.  A count-based suite is one case per draw:
the case draws its instance and returns its first failure record or
None, and `_cases` runs the cases in order on one master generator.
The report holds the suite name, seed, number checked, the failures
(instance plus the first witness in enumeration order), an overall ok
flag, and a timing.  canonical_report() strips the timing fields and
renders the rest with sorted keys and fixed separators, so re-running a
suite with the same seed must reproduce it byte for byte.
"""

from __future__ import annotations

import json
import random
import time

from .errors import Exhausted, InvalidArgs
from .fragility import fragile_partitions, is_N_fragile
from .galois import embed, extend_field, field_of_order, make_prime_field
from .instances import InstanceFile, _random_matrix, gen_random, serialize_instance
from .matroids import MinorSpec, ReprMatroid, is_relaxation, isolated
from .matrices import submatrix_rank
from .reductions import free_extension, pipeline, relax_entry, zero_out
from .subsets import subsets_by_size


def canonical_report(report: dict) -> str:
    """Canonical byte form of a report: timing fields removed, keys
    sorted, compact separators.  Two runs with identical inputs and
    seeds must agree on this string exactly."""

    def strip(x):
        if isinstance(x, dict):
            return {k: strip(v) for k, v in x.items() if k != "timing_ms"}
        if isinstance(x, list):
            return [strip(v) for v in x]
        return x

    return json.dumps(strip(report), sort_keys=True, separators=(",", ":"))


def _finish(name: str, seed, checked: int, failures: list, t0: float) -> dict:
    return {
        "suite": name,
        "seed": seed,
        "checked": checked,
        "failures": failures,
        "ok": not failures,
        "timing_ms": round((time.perf_counter() - t0) * 1000.0, 3),
    }


def _cases(name: str, seed, count: int, case) -> dict:
    """The report of `case(i, master)` for i = 0, ..., count - 1, one
    master generator seeded with `seed` shared by all: each case draws
    its instance from `master` and returns its first failure record, or
    None; the records are kept in case order."""
    t0 = time.perf_counter()
    master = random.Random(seed)
    failures = [record for i in range(count) if (record := case(i, master)) is not None]
    return _finish(name, seed, count, failures, t0)


def _gen_with_retry(kind: str, master: random.Random, shape_fn):
    """Draw up to 40 shapes until one admits an instance.  Some
    parameter combos make the acceptance predicate improbable or
    impossible (the generator raises Exhausted for those); redrawing the
    shape keeps the suite deterministic without cataloguing them."""
    last = None
    for _ in range(40):
        shape = shape_fn(master)
        sub = master.randrange(2**32)
        try:
            inst, _ = gen_random(kind, seed=sub, max_attempts=3000, **shape)
            return inst
        except Exhausted as exc:
            last = exc
    raise last


# ---------------------------------------------------------------------------
# field axioms and subfield membership


def _axiom_failure(F) -> str | None:
    encs = list(range(F.order))
    add, mul, neg, inv = F.add_enc, F.mul_enc, F.neg_enc, F.inv_enc
    zero, one = 0, 1  # encodings: from_int(0) == 0 and from_int(1) == 1
    for a in encs:
        if add(a, zero) != a:
            return f"a + 0 != a at {a}"
        if mul(a, one) != a:
            return f"a * 1 != a at {a}"
        if add(a, neg(a)) != zero:
            return f"a + (-a) != 0 at {a}"
        if a != zero and mul(a, inv(a)) != one:
            return f"a * a^-1 != 1 at {a}"
    for a in encs:
        for b in encs:
            if add(a, b) != add(b, a):
                return f"addition not commutative at ({a},{b})"
            if mul(a, b) != mul(b, a):
                return f"multiplication not commutative at ({a},{b})"
    for a in encs:
        for b in encs:
            for c in encs:
                if add(add(a, b), c) != add(a, add(b, c)):
                    return f"addition not associative at ({a},{b},{c})"
                if mul(mul(a, b), c) != mul(a, mul(b, c)):
                    return f"multiplication not associative at ({a},{b},{c})"
                if mul(a, add(b, c)) != add(mul(a, b), mul(a, c)):
                    return f"distributivity fails at ({a},{b},{c})"
    return None


def field_core(seed: int = 0) -> dict:
    """Exhaustive field axioms for GF(q), q in {2,3,4,5,7,8,9}, plus
    agreement of the Frobenius subfield test with explicit embedding
    images for GF(4)/GF(2), GF(9)/GF(3) and GF(16)/GF(4).  The seed is
    accepted for interface uniformity; nothing here is random."""
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for q in (2, 3, 4, 5, 7, 8, 9):
        reason = _axiom_failure(field_of_order(q))
        checked += 1
        if reason:
            failures.append({"field": q, "reason": reason})

    g2 = make_prime_field(2)
    g4 = extend_field(g2, 2)
    pairs = [
        ("GF(4)/GF(2)", g4, g2),
        ("GF(9)/GF(3)", extend_field(make_prime_field(3), 2), make_prime_field(3)),
        ("GF(16)/GF(4)", extend_field(g4, 2), g4),
    ]
    for name, big, small in pairs:
        image = {embed(a, big).enc for a in small.elements()}
        checked += 1
        for x in big.elements():
            frob = x.enc == big.pow_enc(x.enc, small.order)
            if frob != (x.enc in image):
                failures.append(
                    {"pair": name, "element": x.enc,
                     "reason": "Frobenius test disagrees with embedding image"}
                )
                break
    return _finish("field-core", seed, checked, failures, t0)


# ---------------------------------------------------------------------------
# X-fragile matrices represent fragile matroids


def _xfragile_shape(rng: random.Random) -> dict:
    q = rng.choice((2, 3))
    rows = rng.randint(1, 4)
    cols = rng.randint(1, min(4, 8 - rows))
    # a side X misses entirely must have no elements outside X either,
    # or a one-sided Y makes rank(A[X+Y]) = rank(A[Y]) unconditionally
    combos = [
        (a, b)
        for a in range(0, min(rows, 3) + 1)
        for b in range(0, min(cols, 3 - a) + 1)
        if a + b >= 1 and (a >= 1 or b == cols) and (b >= 1 or a == rows)
    ]
    a, b = rng.choice(combos)
    return {"q": q, "rows": rows, "cols": cols, "x_rows": a, "x_cols": b}


def isolated_minor_equivalence(seed: int = 0, count: int = 200) -> dict:
    """Accepted X-fragile matrices, viewed as standard representations,
    give matroids fragile for the isolated minor with coloop set X cap
    rows and ground set X."""

    def case(i: int, master: random.Random) -> dict | None:
        inst = _gen_with_retry("xfragile", master, _xfragile_shape)
        A, X = inst.matrix, inst.task.x
        M = ReprMatroid(A)
        N = isolated(X & frozenset(A.rows), X)
        if is_N_fragile(M, N):
            return None
        parts = sorted(
            (sorted(p.contract), sorted(p.delete)) for p in fragile_partitions(M, N)
        )
        return {"index": i, "instance": serialize_instance(inst), "partitions": parts,
                "reason": "matrix accepted but matroid not fragile for the isolated minor"}

    return _cases("isolated-minor", seed, count, case)


# ---------------------------------------------------------------------------
# zeroing the displayed block


def _nfragile_shape(rng: random.Random, max_ground: int, max_minor: int) -> dict:
    rows = rng.randint(1, 4)
    cols = rng.randint(1, min(4, max_ground - rows))
    # a 1-element minor is only realisable uniquely on near-degenerate
    # matroids (the whole ground set a circuit or a cocircuit)
    lo = 1 if (rows == 1 or cols == 1) else 2
    hi = min(max_minor, rows + cols)
    minor = rng.randint(min(lo, hi), hi)
    return {"q": rng.choice((2, 3)), "rows": rows, "cols": cols, "minor_size": minor}


def _minors_agree(
    M: ReprMatroid, B: frozenset[str], D: frozenset[str],
    M2: ReprMatroid, B2: frozenset[str], D2: frozenset[str],
) -> bool:
    """M/B\\D and M2/B2\\D2 have one ground set and agree on every subset
    S of it: r_M(S + B) - r_M(B) = r_M2(S + B2) - r_M2(B2), by single
    rank queries, without a rebase or a rank table."""
    rest = M.ground - B - D
    if not (B | D <= M.ground and B2 | D2 <= M2.ground and M2.ground - B2 - D2 == rest):
        return False
    base, base2 = M.rank(B), M2.rank(B2)
    return all(M.rank(S | B) - base == M2.rank(S | B2) - base2 for S in subsets_by_size(rest))


def zeroed_block(seed: int = 0, count: int = 100) -> dict:
    """zero_out on random fragile pairs: the zeroed matroid is fragile
    for the isolated minor on E(N) with the displayed basis of N as its
    coloops, by a partition search, and contracting that basis gives
    the same matroid before and after, by rank queries; both re-checked
    here rather than trusted from the operation."""

    def case(i: int, master: random.Random) -> dict | None:
        inst = _gen_with_retry(
            "nfragile", master, lambda rng: _nfragile_shape(rng, 7, 3)
        )
        M = ReprMatroid(inst.matrix)
        N = inst.task.minor
        record = {"index": i, "instance": serialize_instance(inst)}
        try:
            M2, A2 = zero_out(M, N)
        except Exception as exc:
            return {**record, "reason": f"{type(exc).__name__}: {exc}"}
        BN = frozenset(A2.rows) & N.ground
        if not is_N_fragile(M2, isolated(BN, N.ground)):
            return {**record, "reason": "zeroed matroid is not fragile for the isolated minor"}
        if not _minors_agree(M, BN, frozenset(), M2, BN, frozenset()):
            return {**record, "basis": sorted(BN),
                    "reason": "contraction by the displayed minor basis changed"}
        return None

    return _cases("zeroed-block", seed, count, case)


# ---------------------------------------------------------------------------
# free placement on a flat


def free_placement(seed: int = 0, count: int = 100) -> dict:
    """free_extension on random matrices and column sets: re-derive the
    flat condition from scratch on the result (every old subset spanning
    the new element spans all of X, and X spans it)."""

    def case(i: int, master: random.Random) -> dict | None:
        q = master.choice((2, 3))
        rows = master.randint(1, 4)
        cols = master.randint(1, min(5, 7 - rows))
        x_size = master.choice([0] + [min(cols, s) for s in (1, 1, 2, 2, 3)])
        field = field_of_order(q)
        rng = random.Random(master.randrange(2**32))
        row_labels = [f"r{j}" for j in range(rows)]
        col_labels = [f"c{j}" for j in range(cols)]
        A = _random_matrix(rng, field, row_labels, col_labels)
        X = frozenset(rng.sample(col_labels, x_size))
        record = {
            "index": i,
            "instance": serialize_instance(InstanceFile(field, A, None, seed)),
            "x": sorted(X),
        }
        try:
            A2 = free_extension(A, X, "e")
        except Exception as exc:
            return {**record, "reason": f"{type(exc).__name__}: {exc}"}
        Mn = ReprMatroid(A2)
        old = A.labels()
        if Mn.rank(X | {"e"}) != Mn.rank(X):
            return {**record, "reason": "X does not span the new element"}
        for S in subsets_by_size(old):
            rs = Mn.rank(S)
            if Mn.rank(S | {"e"}) == rs and Mn.rank(S | X) != rs:
                return {**record, "witness": sorted(S),
                        "reason": "subset spans the new element but not X"}
        return None

    return _cases("free-placement", seed, count, case)


# ---------------------------------------------------------------------------
# relaxing the displayed entry


def entry_relaxation(seed: int = 0, count: int = 100) -> dict:
    """relax_entry on random fragile coloop/loop pairs.  Checked from
    scratch: ranks of label subsets differ exactly at {c,d}; H is a
    circuit-hyperplane of the first matroid and its complement a
    cocircuit; the second matroid is the relaxation at H."""

    def case(i: int, master: random.Random) -> dict | None:
        inst = _gen_with_retry(
            "relax", master,
            lambda rng: {
                "q": rng.choice((2, 2, 2, 3)),
                "rows": rng.randint(2, 5),
                "cols": rng.randint(2, 5),
            },
        )
        M = ReprMatroid(inst.matrix)
        task = inst.task
        record = {"index": i, "instance": serialize_instance(inst)}
        try:
            M1, M2, H = relax_entry(M, task.contract, task.delete)
        except Exception as exc:
            return {**record, "reason": f"{type(exc).__name__}: {exc}"}
        A1, A2 = M1.rep, M2.rep
        rest = M.ground - task.contract - task.delete
        c = next(iter(rest & frozenset(A1.rows)))
        d = next(iter(rest - {c}))
        pair = frozenset({c, d})
        for Z in subsets_by_size(A1.labels()):
            if (submatrix_rank(A1, Z) != submatrix_rank(A2, Z)) != (Z == pair):
                return {**record, "witness": sorted(Z),
                        "reason": "rank difference not confined to the pair"}
        record["h"] = sorted(H)
        if not M1.is_circuit_hyperplane(H):
            return {**record, "reason": "H is not a circuit-hyperplane"}
        if not M1.dual().is_circuit(M1.ground - H):
            return {**record, "reason": "complement of H is not a cocircuit"}
        if not is_relaxation(M1, M2, H):
            return {**record, "reason": "second matroid is not the relaxation"}
        return None

    return _cases("entry-relaxation", seed, count, case)


# ---------------------------------------------------------------------------
# the full pipeline


def full_pipeline(seed: int = 0, count: int = 50) -> dict:
    """End-to-end conformance-mode pipeline on random fragile pairs over
    GF(2): every stage completes, the common minor survives, the output
    is a relaxation, and the final extension degree equals the 2k^2
    bound."""

    def case(i: int, master: random.Random) -> dict | None:
        k = 2 + i % 2

        def shape(rng: random.Random) -> dict:
            rows = rng.randint(1, 4)
            cols = rng.randint(max(1, k + 1 - rows), min(4, 8 - rows))
            return {"q": 2, "rows": rows, "cols": cols, "minor_size": k}

        try:
            inst = _gen_with_retry("pipeline", master, shape)
        except Exception as exc:
            return {"index": i, "reason": f"generation: {type(exc).__name__}: {exc}"}
        M = ReprMatroid(inst.matrix)
        N = inst.task.minor
        record = {"index": i, "instance": serialize_instance(inst)}
        try:
            tr = pipeline(M, N, conformance=True)
        except Exception as exc:
            return {**record, "reason": f"{type(exc).__name__}: {exc}"}
        reasons = []
        c, d = frozenset({tr.c_label}), frozenset({tr.d_label})
        if not _minors_agree(M, tr.coloop_side, tr.loop_side, tr.relaxed, c, d):
            reasons.append("common minor lost")
        if not is_relaxation(tr.relaxed, tr.relaxation, tr.hyperplane):
            reasons.append("output is not a relaxation")
        bound = 2 * len(N.ground) ** 2
        if tr.final_degree_over_input != bound:
            reasons.append(f"conformance degree {tr.final_degree_over_input} != {bound}")
        return {**record, "reason": "; ".join(reasons)} if reasons else None

    return _cases("pipeline", seed, count, case)


# ---------------------------------------------------------------------------
# structural invariants


def _sample_partitions(rng: random.Random, ground: frozenset[str], extra: int):
    """All single-element contractions/deletions plus a few random
    disjoint pairs; the exhaustive part of each invariant is the subset
    enumeration inside a fixed partition."""
    parts = [(frozenset({e}), frozenset()) for e in sorted(ground)]
    parts += [(frozenset(), frozenset({e})) for e in sorted(ground)]
    for _ in range(extra):
        C, D = set(), set()
        for e in sorted(ground):
            roll = rng.random()
            if roll < 1 / 3:
                C.add(e)
            elif roll < 2 / 3:
                D.add(e)
        parts.append((frozenset(C), frozenset(D)))
    return parts


def _structural_failure(M: ReprMatroid, master: random.Random) -> str | None:
    """The first structural invariant M fails, or None.  In turn: the
    rank axioms, dual involution and the corank formula, then on each
    sampled partition the minor-rank identity, minor/dual commutation
    and transport of fragility to the dual.  The partitions are drawn
    from `master` only once the checks before them pass."""
    E = M.ground
    subsets = list(subsets_by_size(E))
    ranks = {S: M.rank(S) for S in subsets}
    if ranks[frozenset()] != 0:
        return "rank of the empty set is not 0"
    for S in subsets:
        if not 0 <= ranks[S] <= len(S):
            return f"rank out of bounds at {sorted(S)}"
        for x in E - S:
            r2 = ranks[S | {x}]
            if not ranks[S] <= r2 <= ranks[S] + 1:
                return f"unit increase fails at {sorted(S)} + {x}"
    for S in subsets:
        for T in subsets:
            if ranks[S | T] + ranks[S & T] > ranks[S] + ranks[T]:
                return f"submodularity fails at {sorted(S)}, {sorted(T)}"
    Md = M.dual()
    if Md.dual().rep != M.rep:
        return "dual of the dual is not the original representation"
    rE = ranks[E]
    for S in subsets:
        if Md.rank(S) != len(S) + ranks[E - S] - rE:
            return f"corank formula fails at {sorted(S)}"
    for C, D in _sample_partitions(master, E, 5):
        Mm = M.minor(C, D)
        rC = ranks[C]
        for X in subsets_by_size(Mm.ground):
            if Mm.rank(X) != ranks[X | C] - rC:
                return f"minor-rank identity fails at C={sorted(C)}, X={sorted(X)}"
        if not Mm.dual().equals(Md.minor(D, C)):
            return f"minor/dual commutation fails at C={sorted(C)}, D={sorted(D)}"
        if len(C) + len(D) <= 5:
            parts = fragile_partitions(M, Mm)
            dparts = fragile_partitions(Md, Mm.dual())
            if {MinorSpec(p.delete, p.contract) for p in parts} != set(dparts):
                return f"fragility does not transport to the dual at C={sorted(C)}, D={sorted(D)}"
    return None


def structural_invariants(seed: int = 0, count: int = 50) -> dict:
    """Rank axioms, the minor-rank identity, dual involution and the
    corank formula, minor/dual commutation, and transport of fragility
    to the dual, on random matroids with at most 7 elements."""

    def case(i: int, master: random.Random) -> dict | None:
        q = master.choice((2, 3, 4))
        rows = master.randint(1, 4)
        cols = master.randint(0, min(5, 7 - rows))
        rng = random.Random(master.randrange(2**32))
        field = field_of_order(q)
        A = _random_matrix(
            rng, field, [f"r{j}" for j in range(rows)], [f"c{j}" for j in range(cols)]
        )
        reason = _structural_failure(ReprMatroid(A), master)
        if reason is None:
            return None
        return {"index": i, "instance": serialize_instance(InstanceFile(field, A, None, seed)),
                "reason": reason}

    return _cases("structural", seed, count, case)


# ---------------------------------------------------------------------------
# determinism


def determinism(seed: int = 0) -> dict:
    """Every suite, run twice at reduced count with the same seed, must
    produce byte-identical canonical reports."""
    t0 = time.perf_counter()
    failures = []
    runs = [
        ("field-core", lambda: field_core(seed)),
        ("isolated-minor", lambda: isolated_minor_equivalence(seed, 12)),
        ("zeroed-block", lambda: zeroed_block(seed, 8)),
        ("free-placement", lambda: free_placement(seed, 10)),
        ("entry-relaxation", lambda: entry_relaxation(seed, 6)),
        ("pipeline", lambda: full_pipeline(seed, 4)),
        ("structural", lambda: structural_invariants(seed, 5)),
    ]
    for name, run in runs:
        first = canonical_report(run())
        second = canonical_report(run())
        if first != second:
            failures.append(
                {"suite": name, "reason": "re-run changed the canonical report"}
            )
    return _finish("determinism", seed, len(runs), failures, t0)


SUITES = {
    "field-core": field_core,
    "isolated-minor": isolated_minor_equivalence,
    "zeroed-block": zeroed_block,
    "free-placement": free_placement,
    "entry-relaxation": entry_relaxation,
    "pipeline": full_pipeline,
    "structural": structural_invariants,
    "determinism": determinism,
}


def run_suite(name: str, seed: int = 0) -> dict:
    """Run one suite (or all of them) at the default criterion counts."""
    if name == "all":
        t0 = time.perf_counter()
        reports = [fn(seed) for fn in SUITES.values()]
        return {
            "suite": "all",
            "seed": seed,
            "suites": reports,
            "ok": all(r["ok"] for r in reports),
            "timing_ms": round((time.perf_counter() - t0) * 1000.0, 3),
        }
    fn = SUITES.get(name)
    if fn is None:
        raise InvalidArgs(
            f"unknown suite {name!r}; choose from {', '.join(SUITES)} or all"
        )
    return fn(seed)
