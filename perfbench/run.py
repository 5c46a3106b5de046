"""kernelcert benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/kernelcert`` and ``zoo/``).
Workloads, metric names, units and bounds are declared in BENCHMARK.json.

With ``--trace 0`` the run measures the end-to-end metrics: ``setup_s`` is
the median of three fresh processes that each import kernelcert, load the
zoo and derive the sinc-squared spectrum; the workload then runs in one
more fresh process, warms up, and times a fixed number of whole passes of
requests: the fewest that fill ``--seconds`` of busy time at the speed each
workload declares for one pass, and at least two.  The work of a run depends on the seed and
``--seconds`` alone, never on how fast the program is, and every pass holds
the same mix of request classes.  With ``--trace 1`` the same process times
the passes for half of ``--seconds`` untraced, replays them with spans
around calls into every kernelcert module, and reports per-layer totals
plus the tracing overhead (traced minus untraced busy time).

End-to-end metrics: ``p50_ms`` and ``p90_ms`` are percentiles of request
latency, failed requests included; ``ops_per_s`` is requests per second of
busy time; ``peak_rss_mb`` is the measuring process's resident high-water
mark; ``bound_digits`` is the mean of -log10 over the certified error bounds
behind the requests' outputs (higher means tighter bounds).

Every process is single-threaded: BLAS and OpenMP pools are pinned to one
thread.  The last line of standard output is the JSON result; the lines
before it give each metric, the sample counts and the environment.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) \
    if (ROOT / "BENCHMARK.json").is_file() else None

THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
DEADLINE_S = 170.0  # every run must end within 180 s
MIN_TAIL_SAMPLES = 10
MIN_PASSES = 2  # every request class is timed at least twice a run


def samples_beyond(q, n):
    """Number of the ``n`` samples that lie above the ``q`` quantile."""
    return math.floor(n * (1.0 - q) + 1e-9)


def tail_supported(q, n):
    """A percentile is reported as such only with ten samples beyond it."""
    return samples_beyond(q, n) >= MIN_TAIL_SAMPLES


def quantile(values, q):
    """Linear interpolation between order statistics (statistics' inclusive
    method); needs at least one value."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# inside the measuring processes
# ---------------------------------------------------------------------------

def import_program():
    sys.path.insert(0, str(ROOT / "src"))
    kc = importlib.import_module("kernelcert")
    importlib.import_module("kernelcert.cli")
    where = Path(kc.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise RuntimeError(f"kernelcert imported from {where}, not from this checkout")
    return kc


def set_up(kc):
    """The set-up a user pays once per process: the zoo and the lazily
    derived sinc-squared spectrum."""
    for path in sorted((ROOT / "zoo").glob("*.json")):
        kc.kernel_from_json(json.loads(path.read_text()))
    kc.sinc_sq_spectrum()


def role_setup():
    t0 = time.perf_counter()
    set_up(import_program())
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def n_passes(workload, seconds, least=MIN_PASSES):
    """The fewest whole passes, and at least ``least``, that fill
    ``seconds`` at the workload's declared busy time per pass."""
    return max(least, math.ceil(seconds / workload.pass_seconds - 1e-9))


def measure(workload, passes, tracer=None):
    """Time ``passes`` whole passes.  Every request is checked, between
    requests and outside the timing."""
    latencies, statuses, bounds = [], {"ok": 0, "error": 0, "wrong": 0}, []
    for p in range(passes):
        for req in workload.requests(p):
            with tracer.request_span(len(latencies)) if tracer else nullcontext():
                t = time.perf_counter()
                try:
                    out = req.run()
                except Exception:
                    out = None
                    traceback.print_exc(file=sys.stderr)
                latencies.append(time.perf_counter() - t)
            if out is None:
                statuses["error"] += 1
                continue
            try:
                status, got = req.check(out)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                status, got = "wrong", []
            statuses[status] += 1
            bounds.extend(got)
            if status == "wrong":
                print(f"wrong output: {req.label}", file=sys.stderr)
    return {"latencies": latencies, "statuses": statuses, "bounds": bounds,
            "busy_s": math.fsum(latencies), "passes": passes}


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def role_worker(args):
    from tracing import Tracer, layer_totals
    from workloads import WORKLOADS

    kc = import_program()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    with tracer.request_span(-1) if tracer else nullcontext():
        set_up(kc)
    if tracer:
        tracer.uninstall()
    workload = WORKLOADS[args.workload](kc, args.seed, args.workdir)
    for req in workload.warmup_requests():
        out = req.run()
        if out is not None:
            req.check(out)

    if args.trace:
        plain = measure(workload, n_passes(workload, args.seconds / 2, least=1))
        tracer.install()
        try:
            traced = measure(workload, plain["passes"], tracer)
        finally:
            tracer.uninstall()
        tracer.write(Path(args.workdir).parent / f"spans-{args.workload}.jsonl")
        metrics = layer_totals(tracer.spans)
        metrics["trace.busy_s"] = traced["busy_s"]
        metrics["trace.overhead_s"] = traced["busy_s"] - plain["busy_s"]
        metrics["trace.spans"] = len(tracer.spans)
        result = traced
    else:
        result = measure(workload, n_passes(workload, args.seconds))
        lat = result["latencies"]
        digits = [-math.log10(max(b, 1e-300)) for b in result["bounds"]]
        metrics = {
            "p50_ms": 1e3 * quantile(lat, 0.5),
            "p90_ms": 1e3 * quantile(lat, 0.9),
            "ops_per_s": len(lat) / math.fsum(lat),
            "bound_digits": statistics.fmean(digits) if digits else float("nan"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    st = result["statuses"]
    print(json.dumps({
        "attempted": len(result["latencies"]),
        "failed": st["error"] + st["wrong"],
        "wrong": st["wrong"],
        "passes": result["passes"],
        "bounds": len(result["bounds"]),
        "metrics": metrics,
        "env": environment(),
    }))


# ---------------------------------------------------------------------------
# the parent: fresh processes, assembly of the result
# ---------------------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env.update({v: str(THREADS) for v in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("out of time before starting a process")
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *argv], env=child_env(),
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[:2]} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def parent(args):
    deadline = time.monotonic() + DEADLINE_S
    # a terminated run still stops its child and removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("error: terminated"))
    if SPEC is None or not (ROOT / "src" / "kernelcert" / "__init__.py").is_file() \
            or not (ROOT / "zoo").is_dir():
        sys.exit("error: run from a kernelcert checkout (BENCHMARK.json, src/kernelcert, zoo/)")
    declared = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workdir = Path(tmp) / "work"
        workdir.mkdir()
        setups = [] if args.trace else \
            [run_child(["--role", "setup"], deadline)["setup_s"] for _ in range(SETUP_REPEATS)]
        res = run_child(["--role", "worker", "--workload", args.workload,
                         "--seed", str(args.seed), "--seconds", str(args.seconds),
                         "--trace", str(args.trace), "--workdir", str(workdir)], deadline)
        spans = Path(tmp) / f"spans-{args.workload}.jsonl"
        if spans.exists():
            spans.replace(OUT_DIR / f"spans-{args.workload}.jsonl")
    got = dict(res["metrics"])
    if setups:
        got["setup_s"] = statistics.median(setups)
    metrics = {}
    for m in declared:
        value = got.get(m["name"], 0 if args.trace else None)
        if value is None or not math.isfinite(value):
            sys.exit(f"error: metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    n = res["attempted"]
    print(f"environment: {json.dumps(res['env'], sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {res['passes']} passes, "
          f"ops {n}, ops_failed {res['failed']} "
          f"(wrong outputs {res['wrong']}), {res['bounds']} certified bounds")
    if not args.trace:
        print(f"setup_s over {len(setups)} processes: {', '.join(f'{s:.4f}' for s in setups)}")
        if not tail_supported(0.9, n):
            print(f"note: p90_ms rests on {n} samples, "
                  f"{samples_beyond(0.9, n)} beyond it (fewer than {MIN_TAIL_SAMPLES})")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": res["wrong"] == 0, "attempted": n, "failed": res["failed"],
              "metrics": metrics}
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "env": res["env"], "passes": res["passes"]}, indent=2) + "\n")
    print(json.dumps(result))


def main(argv=None):
    names = [w["name"] for w in SPEC["workloads"]] if SPEC else None
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("parent", "setup", "worker"), default="parent")
    ap.add_argument("--workdir")
    args = ap.parse_args(argv)
    if args.role == "setup":
        role_setup()
    elif args.role == "worker":
        sys.path.insert(0, str(HERE))
        role_worker(args)
    else:
        if args.workload is None:
            ap.error("--workload is required")
        parent(args)


if __name__ == "__main__":
    main()
