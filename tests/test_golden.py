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
    ((2, 2, 3, 3, 3), False): "f983951d4bd503bbc4e738215b706decee3768f14108bbcd45f792e5e31fab39",
    ((2, 2, 3, 3, 3), True): "98385200aaad367aa58de178c67f1d2b96e6e052f373f56d7e21034a9613bb67",
    ((5, 3, 3, 3, 2), False): "37b5324f04c317b1ce4af06e3af3bad103515db4a8470225243f946ba3310b88",
    ((5, 3, 3, 3, 2), True): "3e30071c24b70cd4fdad3011065d6f0e77e742afc955a20650a12dca6546da1f",
    ((7, 2, 4, 3, 3), False): "260deaaed1a4a38b8efed4e30602b59b89fa5d8abb83cd4e377a9b0dee4fc75c",
    ((7, 2, 4, 3, 3), True): "a2e199de80bcb6ee9053d45d9adb62d4b1f54d58a00c5d5cd37bd8ecfd4c8584",
    ((3, 2, 3, 4, 2), False): "9745974e0a1ea03f560b682aafa7f7481719dc72d2dae19280ae072d4a930228",
    ((3, 2, 3, 4, 2), True): "9daf36048c456883ed82830d02d36995a3a897e92fae689e7a1c70bbcb606d8a",
    ((1, 2, 4, 4, 4), False): "8e218f90c532dd22c61b6a3004a643077f325b28c0eb92641dcd6085e6fb3cf2",
    ((2, 3, 4, 4, 4), False): "3162a05f31b8a47dfabd28604bf2b3de2de30ec027ebb59fb913f32450b3f38d",
    ((2, 3, 3, 4, 3), False): "a7be2d80671c6945bad756800a5a2bacd1d699302e6408fd06237346f608ce53",
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
