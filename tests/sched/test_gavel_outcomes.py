"""Gavel's exact outcomes, pinned.

The shape tests in ``test_gavel.py`` say who wins; these say exactly what
happens: every job's finish time and attained service (as ``float.hex``)
and its per-round allocations, for each policy with and without
heterogeneous allocations, plus the default ``repro gavel`` table.  The
expected values were captured from the simulator before it moved onto the
event runtime and :class:`~repro.elastic.jobs.JobState`.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cli import main
from repro.elastic.trace import generate_trace
from repro.sched import GavelSimulator

CLUSTER = {"V100": 4, "P100": 8, "K80": 16}

# (policy, heterogeneous) -> (avg JCT as float.hex, sha256 of _render).
EXPECTED = {
    ("las", False): ("0x1.12e068aedd9c9p+12",
                     "5a8b6119473308769f3fa9a4773620d3ecbcc54c08921950bee39408deaeb010"),
    ("las", True): ("0x1.f9703c5fc2df0p+11",
                    "0c14bdbe279fa7ee176e09654578f86c7f871c345a9289d495576a2f4676bb95"),
    ("fifo", False): ("0x1.d6db8eb93d1c9p+11",
                      "448c4e5afc90b8d2bab6b8ee027165965ca712f1305d103e5b0b73734cef0718"),
    ("fifo", True): ("0x1.97e00c845894bp+11",
                     "7d7d0bb409ec44a43f8346872edf7dc3c50bd43607add4b8816d1c3f75e97826"),
    ("srtf", False): ("0x1.1555ca841bab3p+12",
                      "db968f6cdda03a82b60c5c90080e44de505b38173670eb1e0b7efa99c0954b6a"),
    ("srtf", True): ("0x1.028f022006443p+12",
                     "8a74d13c290732d3f8602dad580c56d5cdd389958cc04d8eb0ec3b4d368438a4"),
}

DEFAULT_TABLE = (
    "12 jobs at 8.0/h on 16xK80, 8xP100, 4xV100\n"
    "scheduler | avg JCT (s) | hetero rounds\n"
    "----------+-------------+--------------\n"
    "Gavel     | 4815        | 0.0%         \n"
    "Gavel+HT  | 4531        | 11.3%        \n"
)


def _render(result) -> str:
    lines = []
    for job in result.jobs.values():
        lines.append(f"job {job.job_id} {job.finish_time.hex()} "
                     f"{job.attained_service.hex()}")
        for t, alloc in job.round_log:
            kinds = ",".join(f"{k}={n}" for k, n in sorted(alloc.items()))
            lines.append(f"  {t.hex()} {kinds}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("heterogeneous", [False, True], ids=["stock", "ht"])
@pytest.mark.parametrize("policy", GavelSimulator.POLICIES)
def test_exact_outcomes(policy, heterogeneous):
    trace = generate_trace(12, 8, seed=2, target_runtime=2400)
    result = GavelSimulator(CLUSTER, heterogeneous=heterogeneous,
                            policy=policy).run(trace)
    digest = hashlib.sha256(_render(result).encode()).hexdigest()
    assert (result.avg_jct().hex(), digest) == EXPECTED[policy, heterogeneous]


def test_default_cli_table(capsys):
    assert main(["gavel"]) == 0
    assert capsys.readouterr().out == DEFAULT_TABLE
