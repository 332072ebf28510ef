"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from crtrans.scalar import GaussianRational, qr  # noqa: E402
from crtrans.series import Series  # noqa: E402


def test_smoke_checks_digests_and_metric_names():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "smoke: ok" in proc.stdout


def test_generators_are_seeded_and_keep_their_shape():
    for name in workloads.WORKLOADS:
        a, b = workloads.generate(name, 3), workloads.generate(name, 4)
        assert a == workloads.generate(name, 3)
        assert sorted(d.name for d in a) == sorted(d.name for d in b)
        if name != "registry":  # the registry documents differ only in flags
            assert {d.text for d in a} != {d.text for d in b}


def test_default_seed_digests_cover_every_document():
    digests = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
    for name in workloads.WORKLOADS:
        docs = workloads.generate(name, workloads.DEFAULT_SEED)
        assert sorted(digests[name]) == sorted(d.name for d in docs)
        assert digests["smoke"][name]


def test_coeff_products_counts_the_scalar_products_of_a_series_product():
    rng = random.Random(7)

    def series(arity, degree, terms, top):
        out = {}
        for _ in range(terms):
            idx = tuple(rng.randint(0, top) for _ in range(arity))
            out[idx] = qr(rng.randint(1, 5), rng.randint(-3, 3))
        return Series.polynomial(arity, degree, out)

    original = GaussianRational.__mul__
    for arity, degree in ((1, 6), (2, 5), (3, 4)):
        a, b = series(arity, degree, 6, 3), series(arity, degree + 1, 9, 3)
        calls = []

        def counting(x, y):
            calls.append(1)
            return original(x, y)

        GaussianRational.__mul__ = counting
        try:
            a * b
        finally:
            GaussianRational.__mul__ = original
        assert len(calls) == tracer.coeff_products(a, b)


def _degenerate_report(k_max, status="certified_false"):
    def verdict(rank, target):
        return {"status": status, "witness": {"k_max": k_max, "rank_reached": rank,
                                              "target": target}}
    result = {"validate": {"status": "certified_true"}, "class_c": verdict(1, 2),
              "holomorphically_nondegenerate": verdict(2, 3)}
    return json.dumps({"schema": gate.SCHEMA, "errors": [], "results": [result]}).encode()


def test_gate_requires_degenerate_scans_to_reach_their_cap():
    doc = workloads.generate("degenerate_rank", 5)[0]
    cap = doc.expect["k_max"]
    assert cap == int(doc.text.split()[1]) - 1
    assert gate.check(doc, 0, _degenerate_report(cap))[1] == []
    assert gate.check(doc, 0, _degenerate_report(cap, "unknown_at_truncation"))[1] == []
    assert gate.check(doc, 0, _degenerate_report(cap - 2))[1]
    assert gate.check(doc, 0, _degenerate_report(cap, "certified_true"))[1]


def test_gate_checks_every_examples_instance():
    doc = workloads.Doc("examples", ("examples",), None, "examples")
    report = {
        "schema": gate.SCHEMA,
        "families": [{"name": n} for n in gate.EXAMPLE_FAMILIES],
        "map_instances": [
            {"id": i, "sends_into": {"status": "certified_false" if i in gate.EXAMPLE_FALSE
                                     else "certified_true"}}
            for i in gate.EXAMPLE_INSTANCES
        ],
    }
    assert gate.check(doc, 0, json.dumps(report).encode())[1] == []
    report["map_instances"][0]["sends_into"]["status"] = "unknown_at_truncation"
    assert gate.check(doc, 0, json.dumps(report).encode())[1]
    report["map_instances"][0]["sends_into"]["status"] = "certified_true"
    report["errors"] = [{"task": None, "error": "x"}]
    assert gate.check(doc, 0, json.dumps(report).encode())[1]


def test_tail_level_leaves_ten_samples_beyond_at_twenty_five():
    values = [float(i) for i in range(25)]
    tail = run.percentile(values, run.TAIL)
    assert sum(v > tail for v in values) == 10


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "registry", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
