"""Golden canonical outputs at pinned seeds.

Each entry is the sha256 of a byte-stable report: a suite's canonical
report at seed 0 (at the determinism suite's reduced counts), or the
timing-stripped `pipeline` CLI report on a seeded instance.  A change
that only restructures the code keeps every hash; a hash that moves is
a change of output and has to be deliberate.
"""

import hashlib

import pytest

from matroidfrag import gen_random, suites
from matroidfrag.cli import run


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


SUITE_RUNS = {
    "field-core": lambda: suites.field_core(0),
    "isolated-minor": lambda: suites.isolated_minor_equivalence(0, 12),
    "zeroed-block": lambda: suites.zeroed_block(0, 8),
    "free-placement": lambda: suites.free_placement(0, 10),
    "entry-relaxation": lambda: suites.entry_relaxation(0, 6),
    "pipeline": lambda: suites.full_pipeline(0, 4),
    "structural": lambda: suites.structural_invariants(0, 5),
}

SUITE_HASHES = {
    "field-core": "e650fae58757e8800d011604df6d8c62a629bbff0146d6e648d588958866cbf7",
    "isolated-minor": "c487d164c522310433ef462805daedddd5268b42b3fea360aedc1a451826406a",
    "zeroed-block": "f5349c117a33d2804c29f5021b29864beee98254dc189b6be03f9cfc95a23013",
    "free-placement": "4afb0ac35e402505df005728ac47aa7f87e27ae66deee2ba51f8a579e39ff003",
    "entry-relaxation": "9a7263e226e0414e1255d786f34333e7222c3522296adb2ea831a6d15e66b9c7",
    "pipeline": "4cd1a62dd2dfad084af6920086eddb14ecc86a8eb144cc90dd9fccb0bba803f7",
    "structural": "8cb4bf817c469093eacee90888ba83602095738aaf222eb4f7761b85a8d4e755",
}

# (seed, q, rows, cols, minor_size) of gen_random("pipeline"), conformance
# flag -> hash.  The k = 4 and GF(3) k = 3 instances collapse both sides
# (or an empty one) in default mode; their conformance towers are left
# out because building them dominates the run.
PIPELINE_HASHES = {
    ((2, 2, 3, 3, 3), False): "c7ae31fb39a18cc54168a9709d731c9994182594e48d83729d15e384d216635c",
    ((2, 2, 3, 3, 3), True): "0e16d1951059197821af744f97f60471906f0c5fbf4ea0507c070e6625abc6f4",
    ((5, 3, 3, 3, 2), False): "76cc83c9436853e94e4e7c70f1b06d717aef27108455eba8f0cd291c523b3e96",
    ((5, 3, 3, 3, 2), True): "655d6cbc3a3c1c1e3f172372202c934f25c296a2338dc2a53801614fb75183ab",
    ((7, 2, 4, 3, 3), False): "7940e555b59e6876534c3c7d5554e2950da818b29fd7d9986fcd2cd8f8300389",
    ((7, 2, 4, 3, 3), True): "011cb33af752124516c8fab8a7da4d5cf4485d7840e2d8a23f6faa21e337f210",
    ((3, 2, 3, 4, 2), False): "67a6e36d34155f5cac0b084ab04e56a7adc54543c5fb9f4533dad5e218e65765",
    ((3, 2, 3, 4, 2), True): "d23ab8eacdfaf72b6f70265f2e7fea30d0220375569ea88713da927a7bd9f942",
    ((1, 2, 4, 4, 4), False): "f51039d1e403034d42c9a38ecade78a33ced99298dbb77970b6fafbf3caa2eb3",
    ((2, 3, 4, 4, 4), False): "5604f8743da18c115061b08c6bbe5a45585d920625a4245a773e09579b06d355",
    ((2, 3, 3, 4, 3), False): "de95ce2d03f892bda3ef3f71e5897b785c6751a8c9ce9d17f399a9f20fd7fbf6",
}


@pytest.mark.parametrize("name", sorted(SUITE_HASHES))
def test_suite_canonical_report_hash(name):
    assert sha(suites.canonical_report(SUITE_RUNS[name]())) == SUITE_HASHES[name]


@pytest.mark.parametrize("shape, conformance", sorted(PIPELINE_HASHES))
def test_cli_pipeline_report_hash(shape, conformance):
    seed, q, rows, cols, k = shape
    inst = gen_random(
        "pipeline", seed=seed, q=q, rows=rows, cols=cols, minor_size=k
    ).instance
    report, code = run("pipeline", inst, conformance=conformance)
    assert code == 0, report
    assert sha(suites.canonical_report(report)) == PIPELINE_HASHES[(shape, conformance)]
