import json
import os

from perfbench import bench, trace
from perfbench.tests.conftest import ROOT


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return [(m["name"], m["unit"]) for m in json.load(handle)[kind]]


def test_end_to_end_metrics_match_the_declaration():
    win = bench.Window(op_s=[i / 1e3 for i in range(1, 1001)],
                       attempted=1000, failed=0)
    metrics = bench.end_to_end(win, bench.HitWarm, 0.5, 50.0)
    assert [(k, v["unit"]) for k, v in metrics.items()] == \
        declared("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


def test_per_layer_metrics_match_the_declaration():
    metrics = bench.per_layer(trace.Recorder(), bench.Window(), {}, {}, 0.0)
    assert [(k, v["unit"]) for k, v in metrics.items()] == \
        declared("per_layer")
