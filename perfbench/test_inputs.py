"""Inputs are a function of the seed alone, and computed counts repeat."""

import pytest

from measure import NullTracer
from workloads import WORKLOADS, Counts, DeskCascade


def fingerprint(name, seed, tmp_path):
    workload = WORKLOADS[name](seed, NullTracer(), tmp_path / f"{name}-{seed}")
    workload.setup()
    return workload.fingerprint()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    first = fingerprint(name, 7, tmp_path / "a")
    assert fingerprint(name, 7, tmp_path / "b") == first
    assert fingerprint(name, 8, tmp_path / "c") != first


def test_computed_counts_repeat_exactly(tmp_path):
    workload = DeskCascade(3, NullTracer(), tmp_path)
    workload.steps_per_stage = 2
    workload.setup()
    runs = []
    for i in range(2):
        counts = Counts()
        for round_ in range(2):
            workload.run_traced_round(tmp_path / f"run{i}-{round_}", counts)
        runs.append(counts)
    assert runs[0] == runs[1]
    # One count per stage: the three depths differ, the two rounds agree.
    assert len(set(runs[0].nodes)) == 3
    assert runs[0].nodes[:3] == runs[0].nodes[3:]
