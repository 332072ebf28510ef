"""crtrans benchmark: seeded documents through the CLI, one fresh process each.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --record-digests

Run from anywhere inside a crtrans checkout; the benchmark finds the sources
in `src/` next to this directory and writes its scratch files to `.perfbench/`.

A closed loop with one client: each document runs as `python -m crtrans ...`
in a fresh process, the next one starting when the previous one exits. One
process per document is how the tool is used, and `models.py` memoizes its
constructors, so repeating documents inside one process would time cached
objects instead of real work. The document set is cycled until `--seconds`
have passed (always at least once). Every report goes through gate.py.

Times are reported at a fixed machine speed. On a shared host (the baseline
was recorded on a 2-core virtual machine) the speed of one and the same
process changes by up to a factor of two from one second to the next, which
would swamp the changes the benchmark must detect.
So a fixed CPU load that does not use crtrans (REFERENCE) runs in its own
process before the first and after every measured process, and each measured
time is scaled by REFERENCE_S / (mean of the reference times just before and
just after it). The raw seconds and the median speed factor are printed too.

With `--trace 0` the last line of stdout is a JSON object with the end-to-end
metrics of BENCHMARK.json. With `--trace 1` the set is run under tracer.py in
passes (at least two; the first also runs each document plain, to measure the
tracing overhead), and the last line carries the per-layer metrics: counts
from one pass (they must repeat exactly in every pass) and times as the median
over passes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import gate
import tracer
import workloads
from workloads import Doc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"

CPU_LIMIT_S = 60  # a document that needs more CPU time than this fails as a timeout
MEMORY_LIMIT = 2 << 30
SETUP_RUNS = 9
TAIL = 0.6  # doc_s.tail level: a run of --seconds 30 yields 25 or more samples
REFERENCE = "from fractions import Fraction as F\nfor i in range(1, 4000): F(i, i + 1) * F(i + 2, i + 3) + F(1, 7)\n"
REFERENCE_S = 0.1  # the reference's nominal time; reported seconds are wall seconds at that speed
EXACT_UNITS = ("count", "ratio")  # per-layer metrics that must repeat exactly


@dataclass
class Sample:
    wall: float
    rss_kb: int
    returncode: int
    stdout: bytes
    ok: bool = True  # set by Run.judge


def _limits() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_LIMIT_S, CPU_LIMIT_S + 1))
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"  # so per-layer counts repeat exactly
    return env


def run_child(argv: List[str], env: Dict[str, str], out: Path) -> Sample:
    """Run one process to completion; wall time covers start-up to exit."""
    with open(out, "w+b") as stdout, open(out.with_suffix(".err"), "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr,
                                cwd=ROOT, env=env, preexec_fn=_limits)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout.seek(0)
        return Sample(wall, usage.ru_maxrss, proc.returncode, stdout.read())


def crtrans_argv(doc: Doc, path: Optional[Path]) -> List[str]:
    return list(doc.argv) + ([str(path)] if path else [])


class Run:
    """Documents of one workload and seed, with the checks on their reports."""

    def __init__(self, workload: str, seed: int, docs: List[Doc], expected: Dict[str, str],
                 tag: str) -> None:
        self.docs = docs
        self.expected = expected
        self.env = child_env()
        self.dir = WORK / f"{workload}-seed{seed}-{tag}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.paths: Dict[str, Optional[Path]] = {}
        for doc in docs:
            path = None
            if doc.text is not None:
                path = self.dir / f"{doc.name}.crt"
                path.write_text(doc.text, encoding="utf-8")
            self.paths[doc.name] = path
        self.digests: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def plain(self, doc: Doc) -> Sample:
        argv = [sys.executable, "-m", "crtrans"] + crtrans_argv(doc, self.paths[doc.name])
        return self.judge(doc, run_child(argv, self.env, self.dir / f"{doc.name}.out"))

    def traced(self, doc: Doc, trace_out: Path) -> Sample:
        argv = [sys.executable, str(HERE / "tracer.py"), str(trace_out), doc.name]
        argv += crtrans_argv(doc, self.paths[doc.name])
        return self.judge(doc, run_child(argv, self.env, self.dir / f"{doc.name}.traced.out"))

    def reference(self) -> float:
        argv = [sys.executable, "-c", REFERENCE]
        sample = run_child(argv, self.env, self.dir / "reference.out")
        if sample.returncode != 0:
            self.problems.append(f"reference load failed with exit code {sample.returncode}")
        return sample.wall

    def judge(self, doc: Doc, sample: Sample) -> Sample:
        self.attempted += 1
        digest, problems = gate.check(doc, sample.returncode, sample.stdout)
        if digest is not None:
            if doc.name in self.expected and digest != self.expected[doc.name]:
                problems.append("digest differs from the recorded one")
            if self.digests.setdefault(doc.name, digest) != digest:
                problems.append("report differs between runs of the same document")
        if problems:
            sample.ok = False
            self.failed += 1
            self.problems += [f"{doc.name}: {p}" for p in problems]
        return sample

    def setup_s(self) -> tuple:
        """Median time from a fresh interpreter to a CLI that has answered: (scaled, raw)."""
        argv = [sys.executable, "-m", "crtrans", "print-grammar"]
        out = self.dir / "print-grammar.out"
        run_child(argv, self.env, out)  # compiles the bytecode, which users pay once per install
        raw, scaled = [], []
        before = self.reference()
        for _ in range(SETUP_RUNS):
            sample = run_child(argv, self.env, out)
            if sample.returncode != 0 or not sample.stdout.startswith(b"document"):
                self.problems.append(f"print-grammar failed with exit code {sample.returncode}")
            after = self.reference()
            raw.append(sample.wall)
            scaled.append(sample.wall * speed_scale(before, after))
            before = after
        return statistics.median(scaled), statistics.median(raw)


def speed_scale(before: float, after: float) -> float:
    """Factor from wall seconds to seconds at the reference speed."""
    return REFERENCE_S / ((before + after) / 2)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def e2e_values(walls: Dict[str, List[float]], rss_kb: int, setup: float) -> Dict[str, float]:
    samples = [w for ws in walls.values() for w in ws]
    return {
        "wall_s": sum(statistics.median(ws) for ws in walls.values() if ws),
        "doc_s.p50": statistics.median(samples),
        "doc_s.tail": percentile(samples, TAIL),
        "peak_rss_mb": rss_kb / 1024,
        "setup_s": setup,
    }


def end_to_end(run: Run, seconds: float) -> tuple:
    setup, setup_raw = run.setup_s()
    walls: Dict[str, List[float]] = {d.name: [] for d in run.docs}
    raw: Dict[str, List[float]] = {d.name: [] for d in run.docs}
    scales = []
    rss_kb = 0
    before = run.reference()
    deadline = time.perf_counter() + seconds
    n = 0
    while n < len(run.docs) or time.perf_counter() < deadline:
        doc = run.docs[n % len(run.docs)]
        sample = run.plain(doc)
        after = run.reference()
        if sample.ok:
            scales.append(speed_scale(before, after))
            walls[doc.name].append(sample.wall * scales[-1])
            raw[doc.name].append(sample.wall)
            rss_kb = max(rss_kb, sample.rss_kb)
        before = after
        n += 1
    if not scales:
        return {}, ["no document succeeded"]
    values = e2e_values(walls, rss_kb, setup)
    raw_values = e2e_values(raw, rss_kb, setup_raw)
    samples = [w for ws in walls.values() for w in ws]
    beyond = sum(1 for w in samples if w > values["doc_s.tail"])
    notes = [
        f"{len(run.docs)} documents, {n} runs ({n / len(run.docs):.1f} passes), closed loop, 1 client",
        "wall_s: sum over the document set of each document's median wall time",
        f"doc_s.p50 and doc_s.tail (p{round(TAIL * 100)}, {beyond} samples beyond) over {len(samples)} samples",
        f"setup_s: median of {SETUP_RUNS} runs of `crtrans print-grammar`",
        f"failed_frac = {run.failed}/{run.attempted} = {run.failed / max(run.attempted, 1):.4f}",
        f"median speed scale {statistics.median(scales):.4f}; raw wall seconds: "
        + ", ".join(f"{k} = {v:.6g}" for k, v in raw_values.items() if k != "peak_rss_mb"),
    ]
    return values, notes


def per_layer(run: Run, seconds: float, spec: List[dict], trace_file: Path) -> tuple:
    """Traced passes over the document set until the next one would end past --seconds.

    The first pass also runs every document plain, for trace.overhead_s.
    """
    deadline = time.perf_counter() + seconds
    passes: List[Dict[str, float]] = []
    documents = []
    plain_s, traced_s = 0.0, 0.0
    while len(passes) < 2 or time.perf_counter() + traced_s < deadline:
        traces, traced_s = [], 0.0
        for doc in run.docs:
            if not passes:
                plain_s += run.plain(doc).wall
            out = run.dir / f"{doc.name}.trace.json"
            traced_s += run.traced(doc, out).wall
            if out.exists():
                traces.append(json.loads(out.read_text(encoding="utf-8")))
                out.unlink()
        documents.append(traces)
        values = tracer.per_layer_metrics(tracer.merge(traces))
        values["trace.overhead_s"] = traced_s - plain_s
        passes.append(values)
    trace_file.write_text(json.dumps({"passes": documents}), encoding="utf-8")

    result = {}
    for m in spec:
        series = [p[m["name"]] for p in passes]
        if m["unit"] in EXACT_UNITS:
            if len(set(series)) != 1:
                run.problems.append(f"{m['name']} differs between traced passes: {series}")
            result[m["name"]] = series[0]
        else:
            result[m["name"]] = statistics.median(series)
    notes = [
        f"{len(run.docs)} documents, {len(passes)} traced passes; counts from one pass, "
        f"times are medians over passes; trace written to {trace_file.relative_to(ROOT)}",
    ]
    return result, notes


def load_expected(workload: str, seed: int) -> Dict[str, str]:
    if seed != workloads.DEFAULT_SEED or not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, {})


def benchmark(args, spec: dict) -> int:
    docs = workloads.generate(args.workload, args.seed)
    run = Run(args.workload, args.seed, docs, load_expected(args.workload, args.seed),
              f"trace{args.trace}")
    if args.trace:
        metrics_spec = spec["per_layer"]
        trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        values, notes = per_layer(run, args.seconds, metrics_spec, trace_file)
    else:
        metrics_spec = spec["end_to_end"]
        values, notes = end_to_end(run, args.seconds)
    for line in notes:
        print(line)
    for problem in run.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    metrics = {}
    for m in metrics_spec:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    correct = not run.problems and len(metrics) == len(metrics_spec)
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


def smoke(spec: dict) -> int:
    """One tiny document per workload: digests, invariants and metric names."""
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))["smoke"]
    want_e2e = {m["name"] for m in spec["end_to_end"]}
    want_layer = {m["name"] for m in spec["per_layer"]}
    problems = []
    for name in workloads.WORKLOADS:
        doc = workloads.smoke_doc(name)
        run = Run("smoke", 0, [doc], {doc.name: expected[name]}, name)
        sample = run.plain(doc)
        out = run.dir / "trace.json"
        run.traced(doc, out)
        layer = tracer.per_layer_metrics(tracer.merge([json.loads(out.read_text(encoding="utf-8"))]))
        layer["trace.overhead_s"] = 0.0
        e2e = set(e2e_values({doc.name: [sample.wall]}, sample.rss_kb, sample.wall))
        if set(layer) != want_layer:
            problems.append(f"{name}: per-layer names differ: {sorted(set(layer) ^ want_layer)}")
        if e2e != want_e2e:
            problems.append(f"end-to-end names differ: {sorted(e2e ^ want_e2e)}")
        problems += run.problems
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


def record_digests() -> int:
    """Write the report digests of the default seed and the smoke documents."""
    out: Dict[str, Dict[str, str]] = {"smoke": {}}
    problems = []
    for name in workloads.WORKLOADS:
        docs = workloads.generate(name, workloads.DEFAULT_SEED) + [workloads.smoke_doc(name)]
        run = Run(name, workloads.DEFAULT_SEED, docs, {}, "record")
        for doc in docs:
            run.plain(doc)
        problems += run.problems
        out[name] = {d.name: run.digests[d.name] for d in docs[:-1] if d.name in run.digests}
        out["smoke"][name] = run.digests.get(docs[-1].name, "")
    if problems:
        for p in problems:
            print(f"problem: {p}", file=sys.stderr)
        return 1
    DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS.relative_to(ROOT)}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="quick self-test of the benchmark")
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json from the current program")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "crtrans" / "cli.py").is_file():
        print(f"error: no crtrans sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    WORK.mkdir(exist_ok=True)
    if args.smoke:
        return smoke(spec)
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        parser.error("--workload is required")
    return benchmark(args, spec)


if __name__ == "__main__":
    sys.exit(main())
