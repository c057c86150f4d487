"""The outputs of three workloads' seed-1 and seed-11 rounds, pinned by
digest.

tools/output_digest.py runs every request of a benchmark round through
hypercheck and hashes the requests, exit codes and outputs.  Two of the
workloads pinned here, exact-count and extend-sweep, decide everything in
exact arithmetic, so their digests must not move with numpy or LAPACK.
The third, falsify-exhaust, runs the float-ranked falsifier on hyperbolic
hooks and the quintic; every output of its rounds is a
NoCounterexampleFound document with a pattern count, which no near-tie in
the prescreen order can change.  The falsify rounds that find witnesses
are left unpinned, since another LAPACK build may break such near-ties
differently.  So are a sample of extend requests that no benchmark round
builds (random_extend) and one of phi requests that refine their roots,
which no benchmark round does (random_phi).  The check-quartic requests
of random_witness are pinned by their argv alone.
"""

import hashlib
import importlib.util
import json
import os
from collections import Counter

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _output_digest():
    path = os.path.join(ROOT, "tools", "output_digest.py")
    spec = importlib.util.spec_from_file_location("output_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# workload: {seed: (requests, sha256) of the seeded round}
PINNED = {
    "exact-count": {
        1: (100, "3011ccc332236c5bdce7ad56cac1f3986d7670cd34e28a2a0844ffd438839a58"),
        11: (100, "73089c58242fd328ba35c548aebdc07560a11b9ff16b657c6c65ab9f3323f671"),
    },
    "falsify-exhaust": {
        1: (50, "6ba64828d4d898a553a99d8cb620b921098f1b6d277ae200f0a25fadc3d4f66a"),
        11: (50, "faab35c3a8264f5c7033bee9ca36458226075bb4bd606c5d426742d25df02d76"),
    },
    "extend-sweep": {
        1: (90, "968dc2f34ec4337e631dc900c9ecb01b03cb43afb56b5f13d81e23ef37395d72"),
        11: (90, "d1b7fc87444b43140df24b724dea81205511fc49cc8a836b31611695ab5f6608"),
    },
}


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_exact_workload_outputs_pinned(workload):
    digest = _output_digest().digest
    pinned = PINNED[workload]
    assert {seed: digest(workload, seed) for seed in pinned} == pinned


def test_random_extend_outputs_pinned():
    """Maps and planted targets of random_extend reach every outcome of
    extend: each certificate kind, both error documents and the
    UnboundLocalError of decide_extendable (ROADMAP item 1)."""
    tool = _output_digest()
    kinds = Counter()
    assert tool.digest_requests(tool.random_extend(), kinds) == (
        200, "233fdab8dcf7645beaa066314df70c84dab8417521b342b2c37d3a79a39d79e0"
    )
    assert kinds == {
        "Extension": 118, "SweepRefutation": 43, "MultiplicityObstruction": 10,
        "DegreeMismatch": 20, "DegreeTooLow": 5, "UnboundLocalError": 4,
    }


def test_random_phi_outputs_pinned():
    """Recorded with the lockstep loop that bisected every root once per
    pass: the enclosures after the least pass count that fits."""
    tool = _output_digest()
    assert tool.digest_requests(tool.random_phi()) == (
        123, "eb086fbf445f7a6eb730bc668351aa730e91e3642ea25c2d2049f1ef93b072dc"
    )


def test_random_witness_requests_pinned():
    """The check-quartic requests random_witness selects with the quartic
    closed form; the list is exact, unlike the falsifier's witnesses."""
    requests = _output_digest().random_witness()
    argv = json.dumps([call["cli"] for call in requests]).encode()
    assert (len(requests), hashlib.sha256(argv).hexdigest()) == (
        26, "f8eed6e122aaff830065604245be2ccc0845761b45e52c85221cc83481c43a0f"
    )
