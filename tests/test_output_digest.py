"""The outputs of the exact workloads' seed-1 and seed-11 rounds, pinned
by digest.

tools/output_digest.py runs every request of a benchmark round through
hypercheck and hashes the requests, exit codes and outputs.  The two
workloads pinned here decide everything in exact arithmetic, so their
digests must not move with numpy or LAPACK; the float-ranked falsify
rounds are left unpinned, since another LAPACK build may break near-ties
in the prescreen order differently.
"""

import importlib.util
import os

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
    "extend-sweep": {
        1: (90, "a8a126648d1e4bed47eabd39467e16bc307f0cb85c041c4b6636466f5fabc800"),
        11: (90, "821730dd2d329e1db8d09c66d3b731d80f6c3cb5fe014817a8ab9066a4ba16c9"),
    },
}


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_exact_workload_outputs_pinned(workload):
    digest = _output_digest().digest
    pinned = PINNED[workload]
    assert {seed: digest(workload, seed) for seed in pinned} == pinned
