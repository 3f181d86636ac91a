"""Run one benchmark workload for a fixed time and report its metrics.

    python3 bench/run.py --workload design-search --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: the code under test is imported from its
``src/`` directory, never from an installed package.  With ``--trace 0``
the run reports the end-to-end metrics; with ``--trace 1`` it records
spans around every call into planarwind and reports per-layer metrics
instead.  The last line of standard output is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat the metrics for people, and ``bench/out/`` receives the full
result, its environment and, for a traced run, the spans.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import OFF, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("design-search", "corpus-x10", "cli-estimate")

# One BLAS thread: the only BLAS work is a 48k x 10 least-squares solve,
# and a single thread keeps the passes steady on a shared machine.
BLAS_THREADS = 1
# Set-up is timed this many times per untraced run (this process plus
# fresh children) and reported as the median.
SETUP_SAMPLES = 3
# The tail is the highest percentile with at least this many samples
# beyond it.  When that percentile would not lie above the median (20
# samples or fewer), the slowest sample is reported instead.
TAIL_BEYOND = 10
END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_p50_ms": "ms",
    "pass_tail_ms": "ms",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def pin_environment() -> None:
    """Pin BLAS threads and point imports (also children's) at ``src/``."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    sys.path.insert(0, str(SRC))


def time_setup(name: str, seed: int, tiny: bool, tracer=None):
    """Import, build inputs and run one untimed warm-up pass.

    Returns the workload, the warm-up output and the set-up time in s.
    """
    start = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[name](seed, tiny, OUT)
    if tracer is not None:
        tracer.pass_id = "setup"
    workload.setup(tracer or OFF)
    warm = workload.run_pass(OFF)
    return workload, warm, time.perf_counter() - start


def setup_in_child(args) -> float:
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
               "--setup-probe"] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(command, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples beyond it, and which."""
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND
    if rank <= len(ordered) / 2:
        return ordered[-1], 100.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def read_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def environment(seeds: dict | None = None) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "planarwind").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": read_commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": cache_sizes(),
        "blas_threads": BLAS_THREADS,
        "seeds": seeds or {},
    }


def run_loop(workload, seconds: float, tracer=None):
    """Closed loop: passes back to back until ``seconds`` have elapsed.

    With a tracer, odd passes are traced and even ones are not, so the
    tracing overhead is measured in the same run.  Outputs are checked
    after each pass, outside its timing.  Returns the per-pass records,
    the last output (None if that pass raised) and one (label, failures)
    entry per pass.
    """
    records = []
    operations = []
    output = None
    start = time.perf_counter()
    index = 0
    while (time.perf_counter() - start < seconds
           or index < (2 if tracer is not None else 1)):
        traced = tracer is not None and index % 2 == 1
        active = tracer if traced else OFF
        if traced:
            tracer.pass_id = index
        # Every pass starts from the same collector state, so each pays
        # for the collections its own allocations trigger and no more.
        gc.collect()
        began = time.perf_counter()
        try:
            with active.span("pass"):
                output = workload.run_pass(active)
        except Exception:
            traceback.print_exc()
            operations.append((f"pass {index}", ["raised"]))
            output = None
        else:
            elapsed = time.perf_counter() - began
            operations.append((f"pass {index}", workload.check(output)))
            records.append({"index": index, "seconds": elapsed, "traced": traced,
                            "items": workload.items(output)})
        index += 1
    return records, output, operations


def end_to_end(workload, records, setup_samples) -> tuple[dict, dict]:
    seconds = [r["seconds"] for r in records]
    tail_s, tail_pct = tail(seconds)
    if workload.peak_rss_kb is not None:
        rss_kb, rss_of = workload.peak_rss_kb, "largest estimate subprocess"
    else:
        rss_kb, rss_of = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, "this process"
    q1, _, q3 = statistics.quantiles(seconds, n=4) if len(seconds) > 1 else seconds * 3
    values = {
        "setup_s": statistics.median(setup_samples),
        "pass_p50_ms": statistics.median(seconds) * 1e3,
        "pass_tail_ms": tail_s * 1e3,
        "items_per_s": sum(r["items"] for r in records) / sum(seconds),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup_samples)}: "
                   + ", ".join(f"{v:.3f}" for v in setup_samples),
        "pass_p50_ms": f"q1 {q1 * 1e3:.1f}, q3 {q3 * 1e3:.1f}, {len(seconds)} passes",
        "pass_tail_ms": (f"p{tail_pct:.1f} of {len(seconds)} passes" if tail_pct < 100.0
                         else f"slowest of {len(seconds)} passes, too few for a percentile"),
        "items_per_s": f"{workload.item} per second of pass time",
        "peak_rss_mb": rss_of,
    }
    return values, notes


# Workload-specific names of the end-to-end metrics: name, scale, unit.
ALIASES = {
    "design-search": {"pass_p50_ms": ("design_search_s", 1e-3, "s")},
    "corpus-x10": {"items_per_s": ("corpus_rows_per_s", 1.0, "rows/s")},
    "cli-estimate": {"pass_p50_ms": ("cli_estimate_p50_ms", 1.0, "ms"),
                     "pass_tail_ms": ("cli_estimate_tail_ms", 1.0, "ms")},
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="2 restarts per N_T in design-search, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    if not (SRC / "planarwind" / "__init__.py").is_file():
        print(f"error: {SRC / 'planarwind'} not found; run from a planarwind checkout",
              file=sys.stderr)
        return 2
    pin_environment()
    OUT.mkdir(exist_ok=True)

    if args.setup_probe:
        workload, _, setup_s = time_setup(args.workload, args.seed, args.tiny)
        workload.cleanup()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    setup_samples = []
    if not args.trace:
        setup_samples = [setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]
    tracer = Tracer() if args.trace else None
    workload, warm, setup_s = time_setup(args.workload, args.seed, args.tiny, tracer)
    import planarwind
    if Path(planarwind.__file__).resolve().parent != (SRC / "planarwind").resolve():
        print(f"error: imported planarwind from {planarwind.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    setup_samples.append(setup_s)
    operations = [("warm-up", workload.check(warm))]
    records, output, pass_operations = run_loop(workload, args.seconds, tracer)
    operations += pass_operations
    if output is None:
        raise RuntimeError("the last pass raised, nothing left to check or trace")
    operations.append(("final check", workload.final_check(output)))
    if tracer is not None:
        operations.append(("probe", workload.probe(tracer, output)))
    failures = [f"{label}: {message}" for label, messages in operations for message in messages]

    env = environment(dict(workload.seeds(), workload_seed=args.seed))
    if tracer is None:
        values, notes = end_to_end(workload, records, setup_samples)
        units = END_TO_END_UNITS
    else:
        traced = [r["index"] for r in records if r["traced"]]
        values = workload.layer_metrics(tracer, traced, output)
        plain = [r["seconds"] for r in records if not r["traced"]]
        with_spans = [r["seconds"] for r in records if r["traced"]]
        values["trace.overhead_pct"] = 100.0 * (
            statistics.median(with_spans) / statistics.median(plain) - 1.0)
        import workloads  # already imported, and timed, by time_setup
        units = workloads.LAYER_UNITS
        not_run = [name for name in units if name not in values]
        values.update({name: 0.0 for name in not_run})
        notes = {name: "layer not run by this workload" for name in not_run}
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed, "environment": env})
    workload.cleanup()

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": not failures,
        "attempted": len(operations),
        "failed": sum(1 for _, messages in operations if messages),
    }
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(records)} passes, {result['attempted']} operations, {result['failed']} failed")
    for failure in failures:
        print(f"  FAILED {failure}")
    for name, entry in metrics.items():
        note = notes.get(name, "")
        alias = ALIASES.get(args.workload, {}).get(name)
        if alias:
            note += f"; {alias[0]} = {entry['value'] * alias[1]:.6g} {alias[2]}"
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}" + (f"  ({note})" if note else ""))
    print(f"  failed_ratio = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    print(f"  environment = {json.dumps(env, sort_keys=True)}")
    document = dict(result, metrics=metrics, workload=args.workload, seed=args.seed,
                    trace=args.trace, seconds=args.seconds, tiny=args.tiny, passes=records,
                    setup_samples_s=setup_samples, failures=failures, environment=env)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(document, indent=1) + "\n")
    print(json.dumps(dict(result, metrics=metrics)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
