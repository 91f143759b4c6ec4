"""Benchmark for waring: five workloads, each a closed loop with one client.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root (any directory works; paths are taken from
this file).  With a workload name the benchmark builds that workload's
inputs from the seed, repeats passes back to back for the given seconds
(at least three), checks every output against its reference, and prints
as its last line one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer ones from a traced run.  `all` runs every workload
in its own process and prints one table.

Set-up time is measured in fresh interpreter processes, several times per
run.  Reported times are normalized to the host's speed (speed.py), whose
drift would otherwise swamp the program's.  Temporary files and span logs go to .perfbench_out/ at the root.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 9
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def _cap_threads() -> None:
    """Cap numpy's thread pools at the usable cores before numpy loads."""
    n = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ.setdefault(var, n)


def _pin() -> int:
    """Keep this process and its children on one core; return the core.

    The cores of a shared virtual machine slow down independently of each
    other, so the speed probes and the steps they normalize must run on the
    same one.  waring runs single-threaded, so a pass loses no parallelism.
    """
    core = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def _cache_sizes() -> dict:
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True,
                             timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    sizes = {}
    for line in out.splitlines():
        key, _, val = line.partition(":")
        if key.strip() in ("L1d cache", "L2 cache", "L3 cache"):
            sizes[key.strip()] = val.strip()
    return sizes


def environment() -> dict:
    import numpy
    src = hashlib.sha256()
    for path in sorted((SRC / "waring").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": _git_sha(), "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "pinned_core": max(os.sched_getaffinity(0)),
            "caches": _cache_sizes(),
            "thread_caps": {var: os.environ[var] for var in THREAD_VARS}}


def _setup_probe(workload: str, seed: int) -> None:
    """Time `import waring` plus building the inputs, in this fresh process."""
    t0 = time.perf_counter()
    import workloads
    workloads.WORKLOADS[workload].inputs(seed, OUT)
    print(repr(time.perf_counter() - t0))


def _setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Raw and speed-normalized set-up times of SETUP_SAMPLES fresh processes."""
    import speed
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    raw, normed = [], []
    before = speed.probe()
    for _ in range(SETUP_SAMPLES):
        took = float(subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                                    check=True).stdout.split()[-1])
        after = speed.probe()
        raw.append(took)
        normed.append(speed.normalize(took, before, after))
        before = after
    return raw, normed


def _measure(w, inputs, seconds: float, min_passes: int, clock):
    """Passes back to back until `seconds` have gone and min_passes are done.

    `clock` (a running speed.Clock) times each op.  Returns the raw pass
    times, each pass's normalized time per op and the kept results.
    """
    import workloads
    times, normed, results = [], [], []
    start = time.perf_counter()
    while len(times) < min_passes or time.perf_counter() - start < seconds:
        workloads.clear_caches()
        raw, op_normed = {}, {}
        pass_start = clock.raw_now()
        for op in w.ops:
            t0 = clock.now()
            try:
                raw[op.name] = op.run(inputs)
            except Exception as exc:   # a raising op counts as failed
                raw[op.name] = exc
            op_normed[op.name] = clock.now() - t0
        times.append(clock.raw_now() - pass_start)
        normed.append(op_normed)
        kept = {}
        for op in w.ops:
            r = raw.pop(op.name)
            try:
                kept[op.name] = r if isinstance(r, Exception) else op.collect(r, inputs)
            except Exception as exc:
                kept[op.name] = exc
        results.append(kept)
    return times, normed, results


def _op_median_sum(passes: list[dict]) -> float:
    """Sum over ops of each op's median normalized time across passes."""
    return sum(statistics.median(p[name] for p in passes) for name in passes[0])


def _passes_check(check, result, expected) -> bool:
    if isinstance(result, Exception):
        return False
    try:
        return bool(check(result, expected))
    except Exception:   # a checker that raises counts the op as failed
        return False


def run_workload(args, spec: dict) -> int:
    import speed
    import tracing
    import waring
    import workloads

    setup_raw, setup = _setup_seconds(args.workload, args.seed)
    w = workloads.WORKLOADS[args.workload]
    scratch = OUT / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        inputs = w.inputs(args.seed, scratch)
        clock = speed.Clock()
        clock.start()
        try:
            if args.trace:
                # alternate untraced and traced passes, so that what drift
                # the clock leaves falls on both sides of trace_overhead_ratio
                tracer = tracing.Tracer(now=clock.now)
                plain, normed, traced, results, layer_passes = [], [], [], [], []
                start = time.perf_counter()
                while (len(traced) < MIN_TRACED_PASSES
                       or time.perf_counter() - start < args.seconds):
                    times, times_normed, kept = _measure(w, inputs, 0, 1, clock)
                    plain += times
                    normed += times_normed
                    results += kept
                    tracer.install(waring)
                    try:
                        _, times_normed, kept = _measure(w, inputs, 0, 1, clock)
                    finally:
                        tracer.uninstall()
                    traced += times_normed
                    results += kept
                    layer_passes.append(tracer.take())
            else:
                plain, normed, results = _measure(w, inputs, args.seconds,
                                                  MIN_PASSES, clock)
        finally:
            clock.stop()
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        refs = {}
        for op in w.ops:
            try:
                refs[op.name] = op.reference(inputs)
            except Exception as exc:   # checks against it then fail
                refs[op.name] = exc
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    problems = [f"reference for {name} raised {exc!r}" for name, exc in refs.items()
                if isinstance(exc, Exception)]
    attempted = failed = 0
    for i, res in enumerate(results):
        for op in w.ops:
            attempted += 1
            if not _passes_check(op.check, res[op.name], refs[op.name]):
                failed += 1
                problems.append(f"pass {i} op {op.name}: {res[op.name]!r:.300}")
    # every checker must count a corrupted result as failed
    tested = rejected = 0
    for op in w.ops:
        r = results[0][op.name]
        if isinstance(r, Exception):
            continue
        tested += 1
        if _passes_check(op.check, op.corrupt(r), refs[op.name]):
            problems.append(f"checker for {op.name} accepted a corrupted result")
        else:
            rejected += 1

    wall_s = statistics.median(plain)
    wall_norm_s = _op_median_sum(normed)
    pass_normed = [sum(p.values()) for p in normed]
    metrics = {}
    if args.trace:
        names = [m["name"] for m in spec["per_layer"] if m["name"] != "trace_overhead_ratio"]
        values, unstable = tracing.summarize(names, layer_passes)
        values["trace_overhead_ratio"] = _op_median_sum(traced) / wall_norm_s - 1
        problems += [f"counter {n} differs between traced passes" for n in unstable]
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(span_file)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {"wall_norm_s": wall_norm_s, "setup_s": statistics.median(setup),
                  "peak_rss_mib": peak_rss_mib}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, unit in units.items():
        metrics[name] = {"value": values[name], "unit": unit}

    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "passes": len(plain), "pass_seconds": [round(t, 4) for t in plain],
               "pass_seconds_normalized": [round(t, 4) for t in pass_normed],
               "setup_seconds": [round(t, 4) for t in setup_raw],
               "traced_passes": len(traced) if args.trace else 0,
               "setup_samples": len(setup), "fail_ratio": failed / attempted,
               "checkers_rejecting_corruption": f"{rejected}/{tested}"}
    print("# env: " + json.dumps(environment()))
    for line in problems:
        print("# problem: " + line)
    print(f"# wall_norm_s {wall_norm_s:.4f} s (raw wall {wall_s:.4f} s): median of"
          f" {len(plain)} untraced passes; setup_s {statistics.median(setup):.4f} s"
          f" (raw {statistics.median(setup_raw):.4f} s): median of {len(setup)}"
          f" set-ups; fail_ratio {failed / attempted:g} ({failed}/{attempted} ops)")
    if args.trace:
        print(f"# spans: {len(tracer.spans)} written to "
              f"{span_file.relative_to(ROOT)}")
    print("# summary: " + json.dumps(summary))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args, spec: dict) -> int:
    """Each workload in its own process; one table of every metric."""
    names = [w["name"] for w in spec["workloads"]]
    columns = {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        summary = next(json.loads(line[len("# summary: "):]) for line in lines
                       if line.startswith("# summary: "))
        for line in lines:
            if line.startswith("# problem: "):
                print(f"{name}: {line[2:]}")
        columns[name] = (json.loads(lines[-1]), summary)

    kind = "per_layer" if args.trace else "end_to_end"
    rows = [(m["name"], m["unit"]) for m in spec[kind]]
    header = f"{'metric':44} {'unit':8}" + "".join(f" {n:>14}" for n in names)
    print(header)
    for metric, unit in rows:
        cells = "".join(f" {columns[n][0]['metrics'][metric]['value']:14.6g}"
                        for n in names)
        print(f"{metric:44} {unit:8}{cells}")
    for label, key in (("fail_ratio", "fail_ratio"), ("passes (wall_norm_s samples)", "passes"),
                       ("traced passes", "traced_passes"),
                       ("setup_s samples", "setup_samples")):
        cells = "".join(f" {columns[n][1][key]:14.6g}" for n in names)
        print(f"{label:44} {'':8}{cells}")
    cells = "".join(f" {str(columns[n][0]['correct']):>14}" for n in names)
    print(f"{'correct':44} {'':8}{cells}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "waring" / "__init__.py").is_file():
        print(f"perfbench: no waring package under {SRC}; run from a full "
              "source checkout", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    known = [w["name"] for w in spec["workloads"]]
    if args.workload not in known + ["all"]:
        print(f"perfbench: unknown workload {args.workload!r}; one of {known} "
              "or all", file=sys.stderr)
        return 2
    _pin()
    _cap_threads()
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
