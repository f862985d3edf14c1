"""Self-test of the Graph500 end-to-end benchmark on tiny-scale workloads.

Run from the repository root:

    python -m pytest e2ebench -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import repro  # noqa: E402
import run  # noqa: E402
from repro.graph.csr import build_csr  # noqa: E402
from repro.graph.kronecker import generate_kronecker  # noqa: E402
from repro.graph500.roots import sample_roots  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def tiny(name: str) -> bench.Workload:
    return dataclasses.replace(bench.WORKLOADS[name], scale=9)


def test_benchmark_json_declares_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    for key, table in (("end_to_end", bench.E2E_METRICS), ("per_layer", bench.LAYER_METRICS)):
        declared = {m["name"]: m for m in SPEC[key]}
        assert list(declared) == list(table)
        for name, metric in declared.items():
            assert NAME.match(name), name
            assert metric["unit"] == table[name]
            assert metric["better"] in ("higher", "lower")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_one_command_prints_every_metric_with_its_unit(name, trace, monkeypatch, capsys):
    monkeypatch.setitem(bench.WORKLOADS, name, tiny(name))
    argv = ["--workload", name, "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    provenance = json.loads(lines[-2])["provenance"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    # Every root of the warm-up and of every instance in each timed round.
    w = bench.WORKLOADS[name]
    assert result["attempted"] == w.roots * (1 + bench.INSTANCES * bench.MIN_ROUNDS)
    table = bench.LAYER_METRICS if trace else bench.E2E_METRICS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == table
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    assert provenance["seed"] == SEED
    assert provenance["instance_seeds"] == bench.instance_seeds(SEED)
    assert provenance["workload"]["scale"] == 9
    for key in ("nproc", "cpu_model", "python", "numpy", "git_sha", "l2_cache_bytes"):
        assert key in provenance


@pytest.mark.parametrize("corruption", ["one-vertex-off", "reaches-only-its-root"])
@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_a_wrong_answer_counts_its_root_as_failed(name, corruption, monkeypatch):
    w = tiny(name)
    # The victim is a root of the run's first instance only.
    seed = bench.instance_seeds(SEED)[0]
    graph = build_csr(generate_kronecker(w.scale, edgefactor=w.edgefactor, seed=seed))
    roots = [int(r) for r in sample_roots(graph, w.roots, seed=seed)]
    victim = roots[0]
    real_run = repro.run

    def corrupting_run(graph, source, **kwargs):
        out = real_run(graph, source, **kwargs)
        sources = [int(r) for r in np.atleast_1d(source)]
        if kwargs.get("engine") == "shared" or sources != roots:
            return out
        answer = out.result.level if w.is_bfs else out.result.dist
        column = answer[:, sources.index(victim)]
        if corruption == "one-vertex-off":
            reached = np.flatnonzero(column >= 0 if w.is_bfs else np.isfinite(column))
            column[reached[reached != victim][0]] += 1
        else:
            column[column != 0] = -1 if w.is_bfs else np.inf
        return out

    monkeypatch.setattr(repro, "run", corrupting_run)
    result = bench.run_workload(w, SEED, seconds=0, trace=False)
    assert not result.correct
    assert result.failed == 1 + bench.MIN_ROUNDS  # the warm-up and each timed round
    assert {(f["instance_seed"], f["root"]) for f in result.failures} == {(seed, victim)}


@pytest.mark.parametrize("trace", [0, 1])
def test_a_raising_search_fails_every_root_and_still_prints_a_result(trace, monkeypatch, capsys):
    name = "sssp-batch64-s13"
    monkeypatch.setitem(bench.WORKLOADS, name, tiny(name))
    real_run = repro.run

    def raising_run(graph, source, **kwargs):
        if kwargs.get("engine") == "shared":
            return real_run(graph, source, **kwargs)
        raise RuntimeError("injected failure")

    monkeypatch.setattr(repro, "run", raising_run)
    argv = ["--workload", name, "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] > 0 and result["failed"] == result["attempted"]
    table = bench.LAYER_METRICS if trace else bench.E2E_METRICS
    assert set(result["metrics"]) == set(table)


def test_diverging_counts_are_flagged_as_nondeterminism(monkeypatch):
    w = tiny("sssp-batch64-s13")
    real_run = repro.run
    calls = []

    def drifting_run(graph, source, **kwargs):
        out = real_run(graph, source, **kwargs)
        if kwargs.get("engine") != "shared":
            calls.append(source)
            out.comm["total_bytes"] += len(calls)
        return out

    monkeypatch.setattr(repro, "run", drifting_run)
    result = bench.run_workload(w, SEED, seconds=0, trace=False)
    assert result.failed == 0
    assert result.nondeterministic == ["simmpi.bytes"]
    assert not result.correct


def test_combined_counts_are_those_of_one_iteration():
    counts = [
        {"traversed": 10, "modeled_s": 1.0, "engine.edges_relaxed": 20,
         "graph500.modeled_teps_hmean": 2.0, "simmpi.bytes": 100},
        {"traversed": 30, "modeled_s": 3.0, "engine.edges_relaxed": 20,
         "graph500.modeled_teps_hmean": 6.0, "simmpi.bytes": 300},
    ]
    mixed = bench.combine_counts(counts)
    assert mixed["simmpi.bytes"] == 200
    assert mixed["modeled_teps"] == 10.0  # 40 edges / 4 s, not the mean of 10 and 10
    assert mixed["engine.relax_efficiency"] == 1.0
    assert mixed["graph500.modeled_teps_hmean"] == 3.0  # 2 / (1/2 + 1/6)
    assert bench.combine_counts([counts[0], {}]) == {}
