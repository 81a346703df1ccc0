"""gsembed benchmark: one command prints every metric and checks every answer.

    python3 gsbench/run.py --workload exact-sweep --seed 1 --seconds 30 --trace 0

Workloads: exact-sweep, lab-sections, cli-cold (see README.md).  The harness
uses only the standard library: it never imports gsembed or numpy.  It
starts the program as fresh processes with ``PYTHONPATH=src`` and one BLAS
thread, and checks every answer after the timed loop, against the known
answers of gen.py.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
from worker import reference_loop  # noqa: E402

WORKLOADS = ("exact-sweep", "lab-sections", "cli-cold")
SETUP_SAMPLES = 11      # fresh set-ups per run; setup_s is their median
PROBE_REPS = 7          # rounds of the outside-in CLI probes
OUT_DIR = ROOT / ".gsbench_out"
# reference speed: worker.reference_loop takes this long on the 2-core VM
# where the benchmark was defined; timings are scaled to it (end_to_end)
REF_LOOP_S = 0.002


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # the lab subcommands would take their search seed from it; the
    # generated arguments alone decide each command
    env.pop("GSEMBED_SEED", None)
    return env


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def stamp(args) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "commit": commit()}


# ---------------------------------------------------------------------------
# statistics

def percentile(xs, q: float) -> float:
    """q-th quantile (0..1) by linear interpolation between order statistics."""
    s = sorted(xs)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


# The tail percentile per workload: the highest of p99/p95/p90 that keeps at
# least ten samples beyond it in a 30 s run of the seed program, also when
# the machine runs slow (lab-sections then does 210 operations, and p95
# would keep ten only just).  It is fixed, so a faster program adds samples
# but never changes which percentile is read.
TAIL = {"exact-sweep": 0.99, "lab-sections": 0.90, "cli-cold": 0.90}


# ---------------------------------------------------------------------------
# processes

def worker_cmd(args, *extra) -> list:
    return [sys.executable, str(HERE / "worker.py"), "--workload",
            args.workload, "--seed", str(args.seed), *extra]


def stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def start_until_ready(cmd, env, stdin=subprocess.DEVNULL):
    """Start cmd; return (process, seconds until it printed ``ready``)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stdin=stdin)
    try:
        line = proc.stdout.readline()
    except BaseException:
        stop(proc)
        raise
    dt = time.perf_counter() - t0
    if line.strip() != b"ready":
        stop(proc)
        raise BenchError(f"worker did not start: {line[:200]!r}")
    return proc, dt


def setup_samples(args, env, count: int, prime: bool = True) -> tuple:
    """(set-up seconds, reference-loop seconds timed just before each).

    With ``prime``, one unmeasured start comes first, so that byte-code
    caches and the file cache fill."""
    samples, refs = [], []
    for i in range(count + prime):
        ref = reference_loop()
        proc, dt = start_until_ready(worker_cmd(args, "--setup-only"), env)
        try:
            proc.communicate(timeout=60)
        finally:
            stop(proc)
        if proc.returncode != 0:
            raise BenchError("set-up run failed")
        if i or not prime:
            samples.append(dt)
            refs.append(ref)
    return samples, refs


def wall(cmd, env, timeout=120):
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    return proc, time.perf_counter() - t0


def cli_probes(env) -> dict:
    """Outside-in split of a CLI run (ms), each a median over PROBE_REPS
    rounds: a bare interpreter, the numpy and ``gsembed.cli`` imports above
    it, and the work of a small `seq parse` command above its imports, taken
    as paired differences within a round so that slow drift cancels."""
    py = sys.executable
    probes = {"pass": [py, "-c", "pass"],
              "numpy": [py, "-c", "import numpy"],
              "cli": [py, "-c", "import gsembed.cli"],
              "parse": [py, "-m", "gsembed.cli", "seq", "parse", "2^(j)"]}
    rounds = []
    for _ in range(PROBE_REPS):
        t = {}
        for key, cmd in probes.items():
            proc, dt = wall(cmd, env)
            if proc.returncode != 0:
                raise BenchError(f"probe {key} failed: {proc.stderr[-300:]}")
            t[key] = dt * 1e3
        rounds.append(t)

    def med(f):
        return statistics.median(f(t) for t in rounds)

    return {"cli.interpreter_ms": med(lambda t: t["pass"]),
            "cli.import_numpy_ms": med(lambda t: t["numpy"] - t["pass"]),
            "cli.import_ms": med(lambda t: t["cli"] - t["pass"]),
            "cli.work_ms": med(lambda t: t["parse"] - t["cli"])}


# ---------------------------------------------------------------------------
# workloads

def run_in_process(args, env, spans_path):
    """exact-sweep and lab-sections: one worker process, one closed loop."""
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if spans_path is not None:
        extra += ["--spans", str(spans_path)]
    setup_ref = reference_loop()
    proc, setup = start_until_ready(worker_cmd(args, *extra), env,
                                    subprocess.PIPE)
    try:
        raw, _ = proc.communicate(b"go\n", timeout=args.seconds + 120)
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    lines = raw.splitlines()
    report = json.loads(lines.pop())
    ops = [json.loads(line) for line in lines]
    if [op[0] for op in ops] != list(range(len(ops))):
        raise BenchError("worker output lines are missing or out of order")
    report["latency_s"] = [dt for _, dt, _, _ in ops]
    report["traced"] = [on for _, _, on, _ in ops]
    report["outputs"] = [out for _, _, _, out in ops]
    items = gen.take(gen.STREAMS[args.workload](args.seed), len(ops))
    check = checks.check_exact if args.workload == "exact-sweep" \
        else checks.check_lab
    report["problems"] = [checked(check, it, out)
                          for it, out in zip(items, report["outputs"])]
    report["items"] = items
    report["setup"] = (setup, setup_ref)
    return report


def checked(check, *args) -> list:
    """check(*args), where an output too malformed to check is a problem."""
    try:
        return check(*args)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


def run_cli(args, env, spans_path):
    """cli-cold: one fresh ``python -m gsembed.cli`` per operation."""
    stream = gen.cli_stream(args.seed)
    cycle = len(gen.CLI_CYCLE)
    items, lat, problems, traced_lat, ref = [], [], [], [], []
    py = sys.executable
    t_end = time.perf_counter() + args.seconds
    while time.perf_counter() < t_end or len(items) % cycle:
        i, item = len(items), next(stream)
        ref.append(reference_loop())
        runs = [("plain", [py, "-m", "gsembed.cli", *item["argv"]])]
        if spans_path is not None:
            runs.append(("traced", [py, str(HERE / "clitrace.py"),
                                    str(spans_path), str(i), *item["argv"]]))
            if i % 2:
                runs.reverse()
        found = []
        for mode, cmd in runs:
            proc, dt = wall(cmd, env)
            found += checked(checks.check_cli, item, proc.returncode,
                             proc.stdout)
            (lat if mode == "plain" else traced_lat).append(dt)
        items.append(item)
        problems.append(found)
    return {"items": items, "latency_s": lat, "problems": problems,
            "traced_latency_s": traced_lat, "reference_s": ref,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}


# ---------------------------------------------------------------------------
# metrics

def raw_timings(args, report, setup) -> dict:
    """Timings as measured: name -> (value, unit, samples)."""
    lat = report["latency_s"]
    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "ops_per_s": (len(lat) / sum(lat), "1/s", len(lat)),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms", len(lat)),
        "op_tail_ms": (percentile(lat, TAIL[args.workload]) * 1e3, "ms",
                       len(lat)),
    }


def end_to_end(args, report, setup, setup_refs) -> dict:
    """The bounded metrics: name -> (value, unit, samples).

    Timings are taken at reference speed: each is scaled by REF_LOOP_S over
    the median reference loop timed alongside it (before each set-up start
    for setup_s, before each block or command otherwise).  The loop never
    changes with the program, so a slower program still reads slower, while
    a slower machine mostly cancels out."""
    raw = raw_timings(args, report, setup)
    slow = statistics.median(report["reference_s"]) / REF_LOOP_S
    slow_setup = statistics.median(setup_refs) / REF_LOOP_S
    out = {
        "setup_s": raw["setup_s"][0] / slow_setup,
        "ops_per_s": raw["ops_per_s"][0] * slow,
        "op_p50_ms": raw["op_p50_ms"][0] / slow,
        "op_tail_ms": raw["op_tail_ms"][0] / slow,
    }
    metrics = {k: (v, raw[k][1], raw[k][2]) for k, v in out.items()}
    metrics["peak_rss_mb"] = (report["peak_rss_kb"] / 1024.0, "MB", 1)
    return metrics


def _ratio(flags) -> tuple:
    flags = list(flags)
    return (sum(flags) / len(flags) if flags else 0.0, "ratio", len(flags))


def figures(args, report) -> dict:
    """Unbounded figures of every run: correctness, quality, drift and the
    cli-cold command classes.  name -> (value, unit, samples); a figure a
    workload cannot have reads 0 with no samples."""
    lat, outputs = report["latency_s"], report.get("outputs", [])
    tail = percentile(lat, TAIL[args.workload])
    verdicts = [v for o in outputs for v in (o.get("compact"), o.get("nuclear"),
                                             o.get("entropy", {}).get("kind"))
                if v is not None]
    ladders = [o["upper"] for o in outputs if "upper" in o]
    ref = statistics.median(report["reference_s"])
    out = {
        "error_ratio": _ratio(bool(p) for p in report["problems"]),
        "embanalyzer.inconclusive_ratio": _ratio(v == "inconclusive"
                                                 for v in verdicts),
        "seqspacelab.norm_search_ok_ratio": _ratio(
            checks.norm_search_ok(o) for o in outputs if "search" in o),
        "seqspacelab.entropy_upper_rise_ratio": _ratio(
            checks.upper_increases(u) > 0 for u in ladders),
        "op_tail_beyond": (sum(t > tail for t in lat), "count", len(lat)),
        "ref_loop_ms": (ref * 1e3, "ms", len(report["reference_s"])),
    }
    for cls in ("exact", "lab"):
        xs = [t for t, it in zip(lat, report["items"]) if it.get("class") == cls]
        out[f"cli.{cls}_cmd_p50_ms"] = (statistics.median(xs) * 1e3 if xs
                                        else 0.0, "ms", len(xs))
    return out


LAYER_FIGURES = ("error_ratio", "embanalyzer.inconclusive_ratio",
                 "seqspacelab.norm_search_ok_ratio",
                 "seqspacelab.entropy_upper_rise_ratio", "ref_loop_ms",
                 "cli.exact_cmd_p50_ms", "cli.lab_cmd_p50_ms")


def per_layer(args, report, spans_path, env) -> dict:
    """Per-layer metrics of a traced run: name -> (value, unit, samples)."""
    agg = spans.aggregate(spans.read(spans_path))
    m = {}
    for name in spans.LAYER_NAMES:
        rec = agg.get(name, {"calls": 0, "self_s": 0.0})
        m[f"{name}.calls"] = (rec["calls"], "count", rec["calls"])
        m[f"{name}.us_per_call"] = (rec["self_s"] / rec["calls"] * 1e6
                                    if rec["calls"] else 0.0, "us", rec["calls"])
    ops = agg.get(spans.OP, {"total_s": 0.0, "calls": 0})
    search = agg.get("seqspacelab.embedding_norm_search", {"total_s": 0.0})
    m["traced_ops"] = (ops["calls"], "count", ops["calls"])
    m["seqspacelab.norm_search_share_pct"] = (
        100.0 * search["total_s"] / ops["total_s"] if ops["total_s"] else 0.0,
        "pct", ops["calls"])
    lat = report["latency_s"]
    if args.workload == "cli-cold":
        plain, traced = lat, report["traced_latency_s"]
    else:
        plain = [t for t, on in zip(lat, report["traced"]) if not on]
        traced = [t for t, on in zip(lat, report["traced"]) if on]
    overhead = 100.0 * (sum(traced) / len(traced) / (sum(plain) / len(plain))
                        - 1.0) if plain and traced else 0.0
    m["tracing_overhead_pct"] = (overhead, "pct", len(traced))
    m.update((k, v) for k, v in figures(args, report).items()
             if k in LAYER_FIGURES)
    for key, value in cli_probes(env).items():
        m[key] = (value, "ms", PROBE_REPS)
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM unwind normally, so that child processes are stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "gsembed" / "__init__.py").is_file():
        print("gsbench: src/gsembed not found next to the benchmark",
              file=sys.stderr)
        return 2
    env = child_env()
    info = stamp(args)
    print("# " + json.dumps(info, sort_keys=True))

    spans_path = None
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}.csv"
        with open(spans_path, "w", newline="") as fh:
            fh.write(",".join(spans.FIELDS) + "\n")

    try:
        # a traced run reports no set-up time: it only primes the caches.
        # Half the set-ups come before the timed loop and half after it, so
        # that setup_s samples the machine over the whole run.
        count = 0 if args.trace else SETUP_SAMPLES - (args.workload != "cli-cold")
        setup, setup_refs = setup_samples(args, env, count // 2)
        if args.workload == "cli-cold":
            report = run_cli(args, env, spans_path)
        else:
            report = run_in_process(args, env, spans_path)
            setup.append(report["setup"][0])
            setup_refs.append(report["setup"][1])
        after, after_refs = setup_samples(args, env, count - count // 2,
                                          prime=False)
        setup += after
        setup_refs += after_refs
        attempted = len(report["problems"])
        failed = sum(1 for p in report["problems"] if p)
        if args.trace:
            metrics = per_layer(args, report, spans_path, env)
            shown = metrics
        else:
            metrics = end_to_end(args, report, setup, setup_refs)
            raw = {f"raw.{k}": v for k, v in raw_timings(args, report, setup).items()}
            setup_ref = (statistics.median(setup_refs) * 1e3, "ms", len(setup_refs))
            shown = {**metrics, **raw, **figures(args, report),
                     "setup_ref_loop_ms": setup_ref}
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"gsbench: {exc}", file=sys.stderr)
        return 1

    for name, (value, unit, n) in shown.items():
        print(f"{name:48s} {value:14.6g} {unit:6s} n={n}")
    bad = [(it, p) for it, p in zip(report["items"], report["problems"]) if p]
    for it, p in bad[:5]:
        print(f"FAILED {json.dumps(it)[:300]}: {p}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u, _) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
