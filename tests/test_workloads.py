"""Every item of the benchmark's workloads passes the benchmark's own check."""

import importlib.util
import sys
from pathlib import Path

import pytest

from csforge import cli

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture
def workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the module up by name while it runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["detect", "family-dedup"])
def test_unit_zero_items_pass_their_checks(workloads, monkeypatch, tmp_path, workload):
    monkeypatch.setattr(workloads, "DETECT_TRIALS", 2000)
    items = workloads.build_items(workload, 1, 0, tmp_path)
    assert items
    for item in items:
        for argv in item.argvs:
            assert cli.main(argv) == 0, argv
        assert workloads.CHECKS[workload](item) is None, item.label
