"""tlab benchmark: time to a certified translator, certification throughput
and CLI latency, with per-module layer timings from a traced run.

Run from the root of a tlab checkout:

    python3 perfbench/run.py --workload strip_newton --seed 1 --seconds 35 --trace 0

It imports tlab from ``src/`` (nothing is installed), sets up the workload
several times, then runs whole passes of the workload's fixed operations
until another pass would overrun ``--seconds``. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics that BENCHMARK.json names, end to end with ``--trace 0`` and per
layer with ``--trace 1``. Lines before it give every figure by name, the
failures with their base, and the provenance; the full record, and in a
traced run every span, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer, layer_metrics

ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUPS = 9


def cap_threads(nproc):
    """Cap BLAS/OpenMP pools at the usable cores, before numpy is imported."""
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return {var: os.environ[var] for var in THREAD_VARS}


def provenance(nproc, threads):
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    git_sha = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True, timeout=30,
                              capture_output=True,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        if done.returncode == 0:
            git_sha = done.stdout.strip()
    return {"git_sha": git_sha, "src_sha256": digest.hexdigest(), "nproc": nproc,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(), "threads": threads}


def tail_percentile(n):
    """Highest of p50/p75/p90/p95/p99 with at least ten samples beyond it."""
    supported = [p for p in (50, 75, 90, 95, 99) if n * (100 - p) / 100 >= 10]
    return supported[-1] if supported else None


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def import_breakdown(env, samples=3):
    """Cumulative seconds of three imports, from ``python -X importtime``."""
    wanted = {"scipy.interpolate": "import.scipy_interpolate_s",
              "scipy.sparse.linalg": "import.scipy_sparse_linalg_s", "tlab": "import.tlab_s"}
    found = {metric: [] for metric in wanted.values()}
    for _ in range(samples):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import tlab"],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            raise RuntimeError(f"import tlab failed: {done.stderr.strip()[-300:]}")
        for line in done.stderr.splitlines():
            if not line.startswith("import time:"):
                continue
            parts = line.split("|")
            module = parts[-1].strip()
            if module in wanted:
                found[wanted[module]].append(int(parts[1]) / 1e6)
    return {metric: statistics.median(v) if v else 0.0 for metric, v in found.items()}


def run_op(kind, fn, tracer):
    """One operation: its figure, its problems and whether an output was wrong."""
    t0 = time.perf_counter()
    try:
        result = fn(tracer)
    except Exception:  # a crashing operation is a failed one; the run goes on
        return {"kind": kind, "seconds": time.perf_counter() - t0,
                "problems": [traceback.format_exc(limit=-3).strip()], "wrong": True}
    wall = time.perf_counter() - t0
    problems, value = result if isinstance(result, tuple) else (result, wall)
    return {"kind": kind, "seconds": value, "problems": list(problems),
            "wrong": any(p.wrong for p in problems)}


def measure(workload, seconds, tracer):
    """Whole passes until another would overrun; traced runs alternate passes."""
    passes = []
    t_start = time.perf_counter()
    needed = max(workload.min_passes, 2 if tracer else 1)
    while True:
        index = len(passes)
        traced = tracer is not None and index % 2 == 1
        ops = workload.ops(index)
        if traced:
            tracer.run = index
            tracer.install()
        t_pass = time.perf_counter()
        try:
            records = [run_op(kind, fn, tracer if traced else None) for kind, fn in ops]
        finally:
            if traced:
                tracer.uninstall()
        passes.append({"index": index, "traced": traced, "ops": records,
                       "seconds": time.perf_counter() - t_pass})
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(p["seconds"] for p in passes)
        if len(passes) >= needed and elapsed + typical > seconds:
            return passes


def set_up(workload, tracer):
    """Set up SETUPS times; a traced run traces the last, and its spans count
    with every pass."""
    samples = []
    for k in range(SETUPS):
        traced = tracer is not None and k == SETUPS - 1
        if traced:
            tracer.run = "setup"
            tracer.install()
        t0 = time.perf_counter()
        try:
            workload.setup()
        finally:
            if traced:
                tracer.uninstall()
        samples.append(time.perf_counter() - t0)
    return samples


def end_to_end(workload, setup_samples, passes):
    """The gated metrics, plus the workload's named timings."""
    named = {}
    for name in dict.fromkeys(workload.metric_names.values()):
        values = [op["seconds"] for p in passes for op in p["ops"]
                  if workload.metric_names[op["kind"]] == name]
        tail = tail_percentile(len(values))
        named[name] = {"value": statistics.median(values), "unit": "s", "n": len(values),
                       "tail": None if tail is None else {"p": tail,
                                                          "value": percentile(values, tail)}}
    rss_kb = resource.getrusage(workload.rusage).ru_maxrss
    values = {"setup_s": statistics.median(setup_samples),
              "pass_s": statistics.median(p["seconds"] for p in passes),
              "peak_rss_mb": rss_kb / 1024.0}
    return values, named


def per_layer(tracer, passes, env, cli_steps):
    """Layer figures: median over traced passes, each with the traced set-up."""
    traced = [p for p in passes if p["traced"]]
    per_pass = []
    for p in traced:
        spans = [s for s in tracer.spans if s["run"] in ("setup", p["index"])]
        counts = tracer.run_counts("setup")
        for name, n in tracer.run_counts(p["index"]).items():
            counts[name] = counts.get(name, 0) + n
        per_pass.append(layer_metrics(spans, counts, cli_steps))
    values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    values.update(import_breakdown(env))
    plain = statistics.median(p["seconds"] for p in passes if not p["traced"])
    values["trace.overhead_s"] = statistics.median(p["seconds"] for p in traced) - plain
    values["trace.overhead_frac"] = values["trace.overhead_s"] / plain
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "tlab" / "__init__.py").is_file():
        print("perfbench: no tlab sources under src/tlab; run from a tlab checkout",
              file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    threads = cap_threads(nproc)
    sys.path.insert(0, str(ROOT / "src"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    import workloads  # imports numpy, so only after the thread caps

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}"
    if args.workload == "strip_newton":
        workload = workloads.StripNewton(args.seed)
    elif args.workload == "certify_sweep":
        workload = workloads.CertifySweep(args.seed, work)
    else:
        workload = workloads.CliPipeline(args.seed, work, env, in_process=bool(args.trace))

    tracer = Tracer() if args.trace else None
    setup_samples = set_up(workload, tracer)
    passes = measure(workload, args.seconds, tracer)
    ops = [op for p in passes for op in p["ops"]]
    failures = [f"pass {p['index']} {op['kind']}: {msg}"
                for p in passes for op in p["ops"] for msg in op["problems"]]
    attempted = len(ops)
    failed = sum(1 for op in ops if op["problems"])
    correct = not any(op["wrong"] for op in ops)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance(nproc, threads),
              "setup_samples_s": setup_samples, "passes": passes,
              "attempted": attempted, "failed": failed, "correct": correct,
              "failures": failures}
    OUT.mkdir(exist_ok=True)
    if args.trace:
        values = per_layer(tracer, passes, env,
                           [step for step, _, _ in workloads.CliPipeline.STEPS])
        spans_path = OUT / f"spans-{tag}.jsonl"
        spans_path.write_text("".join(json.dumps(s) + "\n" for s in tracer.spans))
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        wanted = spec["per_layer"]
    else:
        values, record["named"] = end_to_end(
            workload, setup_samples, [p for p in passes if not p["traced"]])
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record["metrics"] = metrics
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes "
          f"({sum(1 for p in passes if p['traced'])} traced), set-up x{SETUPS}")
    for name, m in record.get("named", {}).items():
        tail = ("no tail percentile (needs >= 20 samples)" if m["tail"] is None
                else f"p{m['tail']['p']} {m['tail']['value']:.6g} s")
        print(f"  {name:32s} {m['value']:.6g} s  median of {m['n']}; {tail}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"  fail_frac {failed / attempted:.4g} ({failed} failed of {attempted} operations)")
    for line in failures:
        print(f"  failed: {line}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
