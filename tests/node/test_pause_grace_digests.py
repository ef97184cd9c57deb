"""The hot→paused lifecycle at non-default pause graces, pinned.

The golden fingerprints run every node at the default ``pause_grace_s``.
These digests pin two loaded single-node cells at a zero, a short and the
default grace, under our invoker (FC) and the stock-OpenWhisk baseline, so
a change to how the grace is timed (a process per release, or a calendar
timer) must reproduce every record and node statistic bit for bit.
"""

import hashlib
import json

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.metrics.serialize import records_to_dicts

#: (cores, intensity, policy, pause_grace_s) -> digest, seed 3.  Captured
#: when the grace was a ``Timeout`` inside a process spawned per release.
PAUSE_GRACE_DIGESTS = {
    (5, 60, "FC", 0.0): "4616aa1219e3cca471ccb45066a0ed9cc30dcd917bceeb4a5e5813ed7ab4a34f",
    (5, 60, "FC", 0.05): "a03fc61522e05af184bde2ad1d259dc2482e13d7af62daca005b4b50f360b3fe",
    (5, 60, "FC", 1.2): "cc94c0656d4a5c7458ee33731e61db858714289e4e563ff6439f650cb0ed726d",
    (5, 60, "baseline", 0.0): "26536a2359c3d5ddc7f28dd4f8b0b5d9debe348d53d5ec2eb600270d9da4c2ea",
    (5, 60, "baseline", 0.05): "e55599bc6719d03ac25dd94904c9b544f2c0563a94b9d22b3806aaf4955ec6f0",
    (5, 60, "baseline", 1.2): "8c8068c46f2e05d35996016771ffb2a66d86423e40cff8b1ea3568697895dc36",
    (10, 90, "FC", 0.0): "2db15d5c14720a12d988c5063dc05906f4de91a3997ff29f8f8790ec50a12e76",
    (10, 90, "FC", 0.05): "9457806222114ea030cb4d9890db66daa489aeab8ccfbf4f8f36e958301ecbbf",
    (10, 90, "FC", 1.2): "363f82239382d0b2e2457aff4c5e173da098a3aced4e3cde819d3fe95397b5c8",
    (10, 90, "baseline", 0.0): "05dd7311887226590525da5fe69102bd434b10368191253c104b3dee47f2b6f1",
    (10, 90, "baseline", 0.05): "da14fcd0400a603328f9fd2218c1c80d0980239e859434a31a4d7eb8d72e2992",
    (10, 90, "baseline", 1.2): "b8d0833e836537d2d7a974684024397470fd2d90b61aa31298499a1d744b049d",
}


def run_digest(result) -> str:
    """SHA-256 over a run's call records and node diagnostics.

    ``cpu_utilization`` is left out (its last ulps are not deterministic;
    see ``tools/golden_fingerprints.py``).
    """
    payload = {
        "records": records_to_dicts(result.records),
        "node_stats": [
            {k: v for k, v in stats.items() if k != "cpu_utilization"}
            for stats in result.node_stats
        ],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("cell", sorted(PAUSE_GRACE_DIGESTS, key=repr), ids=repr)
def test_pause_grace_cell_matches_pinned_digest(cell):
    cores, intensity, policy, grace = cell
    config = ExperimentConfig(
        cores=cores,
        intensity=intensity,
        policy=policy,
        seed=3,
        node_overrides=(("pause_grace_s", grace),),
    )
    assert run_digest(run_experiment(config)) == PAUSE_GRACE_DIGESTS[cell]
