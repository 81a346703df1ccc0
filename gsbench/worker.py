"""In-process client for the exact-sweep and lab-sections workloads.

Run by run.py as a fresh process with ``PYTHONPATH=src`` and one BLAS
thread.  It imports gsembed, warms up on a fixed input set and prints
``ready``; run.py times set-up up to that line.  Unless ``--setup-only`` is
given it then waits for a line on stdin and runs one closed loop for
``--seconds``: the next operation starts when the previous one returns.
Blocks end on whole input cycles.  Each operation is timed alone, and its
outputs go to stdout as plain values that run.py checks after the loop.

With ``--trace 1`` the loop alternates untraced and traced blocks, so that
the traced rate can be set against the untraced one, and the spans of the
traced blocks are written once, at the end, to ``--spans``.

A fixed pure-Python reference loop is timed before every block as a drift
stamp for the machine; it never depends on gsembed.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402  (standard library only)

BLOCK_S = 0.5
WARMUP_SEED = -1
WARMUP_OPS = {"exact-sweep": 50, "lab-sections": 3}
REF_SAMPLES = 3  # reference loops timed before each block


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop; never changes with the program."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc = (acc * 31 + i) % 1000003
    return time.perf_counter() - t0


def _fmt(x):
    if x is None:
        return None
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return str(x)


def _jsonable(x):
    if isinstance(x, float) and not math.isfinite(x):
        return str(x)
    return x


def exact_op(g, item: dict) -> dict:
    """EmbeddingProblem -> compactness -> nuclearity when Banach -> entropy_rate."""
    if "band" in item:
        b = item["band"]
        band = g.compact_not_nuclear_band(b["p1"], b["p2"], b["dim"])
        return {"band": {"lower": _fmt(band.lower), "upper": _fmt(band.upper),
                         "empty": band.empty}}
    pr = g.EmbeddingProblem(**item["problem"])
    c = g.compactness(pr)
    n = g.nuclearity(pr) if pr.is_banach() else None
    e = g.entropy_rate(pr)
    return {"compact": c.status, "nuclear": n.status if n is not None else None,
            "entropy": {"kind": e.kind, "k_exponent": _fmt(e.k_exponent),
                        "log_exponent": _fmt(e.log_exponent),
                        "residual": e.residual}}


def fit_levels(dim: int) -> list:
    # keeps every fitted section inside rate_fit's default caps
    return [1, 2, 3, 4] if dim == 1 else [1, 2]


def lab_op(g, item: dict) -> dict:
    """Closed norm, norm search, nuclear norms, entropy ladder, rate fit."""
    problem = None
    if item["kind"] == "problem":
        problem = g.EmbeddingProblem(**item["problem"])
        sec = g.finite_section(problem, item["levels"])
    else:
        s = item["section"]
        sec = g.FiniteSection(tuple(s["beta"]), tuple(s["M"]), s["p1"], s["q1"],
                              s["p2"], s["q2"])
    out = {"n": sec.n}
    out["closed"] = g.embedding_norm_closed(sec)
    out["search"] = g.embedding_norm_search(sec, seed=item["search_seed"],
                                            restarts=1, iters=40)
    if item["banach"]:
        out["tong"] = g.nuclear_norm_tong(sec)
        out["oracle"] = {k: _jsonable(v)
                         for k, v in g.nuclear_norm_oracle(sec).items()}
    if sec.n <= gen.ENTROPY_MAX_N:
        out["upper"] = [g.entropy_upper(sec, k).value for k in gen.ENTROPY_KS]
        out["lower"] = [g.entropy_lower(sec, k).value for k in gen.ENTROPY_KS]
    if item["rate_fit"]:
        levels = fit_levels(problem.dim)
        fit = g.rate_fit(problem, levels=levels)
        out["fit"] = {"levels": levels, "ks": list(fit.ks),
                      "bounds": [_jsonable(b) for b in fit.bounds],
                      "slope": _jsonable(fit.slope)}
    return out


OPS = {"exact-sweep": exact_op, "lab-sections": lab_op}


def run_op(g, op, item, rec=None, index=0):
    """(outputs, seconds) of one operation; an exception is an output too."""
    t0 = time.perf_counter()
    try:
        out = op(g, item) if rec is None else rec.run_op(index, op, g, item)
    except Exception as exc:  # counted as a failed operation by run.py
        out = {"exception": f"{type(exc).__name__}: {exc}"}
    return out, time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(OPS) + ["cli-cold"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="CSV file for the spans of a traced run")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if args.workload == "cli-cold":
        # set-up of a CLI process: its imports, nothing to warm
        import gsembed.cli  # noqa: F401
        print("ready", flush=True)
        return 0

    import gsembed as g

    op = OPS[args.workload]
    warm = gen.STREAMS[args.workload](WARMUP_SEED)
    for _ in range(WARMUP_OPS[args.workload]):
        run_op(g, op, next(warm))
    print("ready", flush=True)
    if args.setup_only:
        return 0
    # nothing more is written until run.py says go, so that its read of
    # "ready" cannot swallow operation lines
    sys.stdin.readline()

    rec = None
    if args.trace:
        from spans import Recorder
        rec = Recorder()

    # one line per operation, written as it completes, so that the outputs
    # do not pile up in this process and inflate its peak memory
    emit = sys.stdout.write
    stream = gen.STREAMS[args.workload](args.seed)
    cycle = len(gen.CYCLES[args.workload])
    ref = []
    done = 0
    t_end = time.perf_counter() + args.seconds
    block = 0
    while time.perf_counter() < t_end:
        ref.extend(reference_loop() for _ in range(REF_SAMPLES))
        on = rec is not None and block % 2 == 1
        if on:
            rec.install()
        block_end = min(time.perf_counter() + BLOCK_S, t_end)
        while True:
            out, dt = run_op(g, op, next(stream), rec if on else None, done)
            emit(json.dumps([done, dt, on, out], separators=(",", ":")) + "\n")
            done += 1
            # blocks end on whole input cycles, so every run sees the same mix
            if done % cycle == 0 and time.perf_counter() >= block_end:
                break
        if on:
            rec.uninstall()
        block += 1

    if rec is not None and args.spans:
        with open(args.spans, "w", newline="") as fh:
            rec.write(fh)
    emit(json.dumps({"reference_s": ref, "peak_rss_kb": resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
