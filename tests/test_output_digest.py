"""The outputs of the exact workloads' seed-1 rounds, pinned by digest.

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


# (requests, sha256) of the seed-1 round
PINNED = {
    "exact-count": (
        100, "3011ccc332236c5bdce7ad56cac1f3986d7670cd34e28a2a0844ffd438839a58"
    ),
    "extend-sweep": (
        90, "a8a126648d1e4bed47eabd39467e16bc307f0cb85c041c4b6636466f5fabc800"
    ),
}


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_exact_workload_outputs_pinned(workload):
    assert _output_digest().digest(workload, 1) == PINNED[workload]
