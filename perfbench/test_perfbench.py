"""Tests of the benchmark's own code: inputs, rung lengths and span arithmetic.

Run from the repository root with ``python -m pytest perfbench``.
"""

import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from csforge import cli  # noqa: E402
from csforge.analysis import shifts_avoid_overlap  # noqa: E402
from csforge.encoder import MAX_ENCODE_VARS  # noqa: E402

SEEDS = range(12)


def test_inputs_repeat_for_a_seed_and_differ_across_seeds(tmp_path):
    for workload in workloads.WORKLOADS:
        first = workloads.build_items(workload, 7, 2, tmp_path / "a")
        again = workloads.build_items(workload, 7, 2, tmp_path / "b")
        other = workloads.build_items(workload, 8, 2, tmp_path / "c")

        def view(items, root):
            return [[str(a).replace(str(root), "") for a in argv]
                    for item in items for argv in item.argvs]

        assert view(first, tmp_path / "a") == view(again, tmp_path / "b")
        assert view(first, tmp_path / "a") != view(other, tmp_path / "c")
        for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_params_documents_load_through_the_cli(seed):
    specs = workloads.ladder_specs(seed, 0)
    params = [spec for spec in specs if spec["mode"] == "params"]
    assert len(params) in (len(specs) // 2, (len(specs) + 1) // 2)
    for spec in params:
        p = cli.params_from_dict(spec["params"])
        assert (p.m, p.H, len(p.seed)) == (spec["m"], spec["params"]["H"], spec["N"])
        assert max(abs(x) for x in p.e + (p.e_prime,)) <= workloads.MAX_AMP_EXP
        assert shifts_avoid_overlap(p.d, p.pi)


@pytest.mark.parametrize("seed", SEEDS)
def test_rung_lengths(seed):
    specs = workloads.ladder_specs(seed, 0)
    rungs = [spec["rung"] for spec in specs]
    assert sorted(set(rungs)) == list(range(6, 17))
    assert all(rungs.count(r) == (workloads.SMALL_REPEATS if r <= 10 else 1) for r in set(rungs))
    gapped = Counter()
    for spec in specs:
        r, n_seed, m = spec["rung"], spec["N"], spec["m"]
        assert n_seed in workloads.SEED_LENGTHS and m == r - (n_seed.bit_length() - 1)
        assert 2**r <= n_seed * 2**m < 2 ** (r + 1)
        assert n_seed * 2**m <= spec["length"] <= 1.25 * n_seed * 2**m
        if r >= workloads.EXACT_RUNG:
            assert spec["length"] == 2**r and n_seed == workloads.EXACT_SEEDS[r]
        gapped[r] += spec["length"] > n_seed * 2**m
    top = [spec for spec in specs if spec["rung"] == 16]
    assert [(spec["N"], spec["m"]) for spec in top] == [(1, MAX_ENCODE_VARS)]
    assert sum(gapped.values()) == len(specs) // 4
    assert all(gapped[r] >= workloads.SMALL_REPEATS // 4 for r in range(6, 11))


@pytest.mark.parametrize("seed", SEEDS)
def test_ladders_have_the_same_make_up(seed):
    def make_up(specs):
        return Counter((s["rung"], s["N"], s["mode"]) for s in specs if s["rung"] <= 10)

    specs = workloads.ladder_specs(seed, 0)
    small = make_up(specs)
    assert set(small.values()) == {workloads.SMALL_COPIES}
    assert small == make_up(workloads.ladder_specs(seed + 100, 3))
    large = [s["mode"] for s in specs if s["rung"] > 10]
    assert large.count("params") == large.count("rule")


def test_self_time_arithmetic_on_a_span_tree():
    #  run [0, 10]
    #  +- a [1, 6]
    #  |  +- b [2, 3]
    #  |  +- a [3, 5]      nested a: busy counts the outer a only
    #  |     +- b [4, 4.5]
    #  +- b [7, 9]
    names = ["run", "a", "b", "a", "b", "b"]
    starts = [0.0, 1.0, 2.0, 3.0, 4.0, 7.0]
    ends = [10.0, 6.0, 3.0, 5.0, 4.5, 9.0]
    parents = [-1, 0, 1, 1, 3, 0]
    times = tracing.layer_times(names, starts, ends, parents)
    assert times["run"] == (1, 10.0, 3.0)
    assert times["a"] == (2, 5.0, 2.0 + 1.5)
    assert times["b"] == (3, 3.5, 3.5)
    assert sum(own for _, _, own in times.values()) == pytest.approx(10.0)
    assert tracing.enclosing(4, "a", names, parents) == 3
    assert tracing.enclosing(4, "run", names, parents) == 0
    assert tracing.enclosing(0, "a", names, parents) == -1


def test_tracer_records_nested_spans_and_restores_originals():
    class Layer:
        def __init__(self, scale=1):
            self.scale = scale

        def leaf(self, x):
            return x + 1

        def outer(self, x):
            return self.leaf(x) * 2

        def walk(self, n):
            for i in range(n):
                yield self.leaf(i)

    originals = dict(vars(Layer))
    tracer = tracing.Tracer()
    for attr in ("leaf", "outer", "walk"):
        tracer.patch(Layer, attr, attr)
    tracer.count_calls(Layer, "__init__", "made")
    layer = Layer()
    Layer(scale=2)
    with tracer.span("root"):
        assert layer.outer(1) == 4
        assert list(layer.walk(3)) == [1, 2, 3]
    tracer.restore()
    for attr in ("__init__", "leaf", "outer", "walk"):
        assert vars(Layer)[attr] is originals[attr]
    assert tracer.counts["made"] == 2
    assert tracer.names == ["root", "outer", "leaf", "walk", "leaf", "leaf", "leaf"]
    assert list(tracer.parents) == [-1, 0, 1, 0, 3, 3, 3]
    assert tracer.counts["walk.yielded"] == 3
    times = tracing.layer_times(tracer.names, tracer.starts, tracer.ends, tracer.parents)
    wall = tracer.ends[0] - tracer.starts[0]
    assert sum(own for _, _, own in times.values()) == pytest.approx(wall)
