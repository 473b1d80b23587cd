"""horocorr benchmark: one workload per run, closed loop, one thread.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload pointwise --seed 1 --seconds 20 --trace 0

Each pass runs every op of the workload once, each op starting after the
previous one returns; passes repeat until the time is spent.  Pass times
are scaled to a fixed host speed: a calibration loop is timed between ops,
and each op's wall time is multiplied by CAL_NOMINAL_S over the calibration
times around it, because a shared host's speed can change by half within a
run.  The wall times and the calibration times are reported too.  Set-up
is timed in a fresh interpreter before every pass.  With
``--trace 0`` the run reports the end-to-end metrics, with ``--trace 1``
the per-layer metrics (half the time untraced, half with spans installed).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the human-readable report, including the environment block.
"""

import argparse
import hashlib
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_MIN_REPEATS = 5
SETUP_EXAMPLES = ("geodesic-sphere", "incomplete-band", "cylinder-delaunay",
                  "alpha-curve", "alpha-product")
SETUP_CODE = ("import horocorr.cli\n"
              "from horocorr.analysis import make_example\n"
              f"for name in {SETUP_EXAMPLES!r}:\n"
              "    make_example(name)\n")
MIN_PASSES = 3

# pass_s is scaled to a host on which the calibration loop takes this long
CAL_NOMINAL_S = 0.005
CAL_LOOPS = 100


def cap_blas_threads():
    """Set BLAS and OpenMP threads to nproc; call before numpy is imported.
    Returns the cap."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def git_sha(root):
    """Commit of the git checkout at ``root``; None outside one."""
    # the ceiling keeps git from reporting a repository that encloses root
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(src):
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(workload, seed, nproc):
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": nproc,
        "nproc": nproc,
        "machine": platform.machine(),
        "git_sha": git_sha(ROOT),
        "src_sha256": source_digest(SRC),
    }


def time_setup():
    """Wall time of a fresh interpreter importing horocorr.cli and building
    the gallery payloads the workloads use.  No timeout: with one,
    subprocess polls the child every 50 ms and rounds the time up to that."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                   check=True)
    return time.perf_counter() - start


def calibrate():
    """Median over three timings of a fixed loop with the same mix of work as
    horocorr's per-point code: tiny numpy arrays, a 2x2 generalized
    eigensolve and an inverse.  It shares no code with the program, so its
    time tracks only the host's current speed."""
    import numpy as np
    from scipy.linalg import eigh

    g = np.array([[2.0, 0.3], [0.3, 1.0]])
    acc = 0.0
    times = []
    for _ in range(3):
        start = time.perf_counter()
        for i in range(CAL_LOOPS):
            u = np.asarray([0.1 * i, 0.2])
            x = np.empty(3)
            x[:2] = 2.0 * u / (1.0 + u @ u)
            h = np.eye(2) * math.exp(0.01 * i) + np.outer(u, u)
            acc += float(eigh(h, g, eigvals_only=True)[0]) + np.linalg.inv(h)[0, 0]
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Tally:
    """Op outcomes and timings of a run, per pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []          # (error, tolerance) over every checked op
        self.walls = {}           # op name -> wall seconds, one per pass
        self.results = {}         # op name -> outcomes, one per pass
        self.failures = []

    def run_op(self, op):
        start = time.perf_counter()
        try:
            outcome = op.run()
        except Exception:  # an op that raises is a failed op; keep measuring
            from workloads import Outcome
            outcome = Outcome(False, [], traceback.format_exc(limit=4))
        wall = time.perf_counter() - start
        self.attempted += 1
        self.errors.extend(outcome.errors)
        self.walls.setdefault(op.name, []).append(wall)
        self.results.setdefault(op.name, []).append(outcome)
        if not outcome.ok:
            self.failed += 1
            self.failures.append(f"{op.name}: {outcome.why.strip(' |')}")
        return wall

    @property
    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 1.0


def run_passes(ops, tally, seconds, min_passes, before_pass=None):
    """Repeat passes until the next one would overrun ``seconds``; call
    ``before_pass()`` before each pass, inside the time budget.

    Returns (scaled, wall, cal), one entry per pass: the sum over ops of
    each op's wall time multiplied by CAL_NOMINAL_S over the mean of the
    calibration times taken just before and just after it; the plain sum of
    the wall times; and the median of the pass's calibration times.
    """
    scaled, walls, cals, rounds = [], [], [], []
    calibrate()  # the first call pays one-time costs
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        if before_pass is not None:
            before_pass()
        probes = [calibrate()]
        pass_scaled = pass_wall = 0.0
        for op in ops:
            wall = tally.run_op(op)
            probes.append(calibrate())
            pass_scaled += wall * CAL_NOMINAL_S / (0.5 * sum(probes[-2:]))
            pass_wall += wall
        scaled.append(pass_scaled)
        walls.append(pass_wall)
        cals.append(statistics.median(probes))
        now = time.perf_counter()
        rounds.append(now - round_start)
        if (len(walls) >= min_passes
                and now - start + statistics.median(rounds) > seconds):
            return scaled, walls, cals


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def accuracy(tally):
    from workloads import accuracy_digits

    return min((accuracy_digits(e, t) for e, t in tally.errors), default=16.0)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(ops, seconds, setup_once=time_setup):
    """End-to-end metrics.  ``setup_s`` is the fastest of the set-up times
    taken before each pass (at least SETUP_MIN_REPEATS): other load on the
    host only ever adds to it, and one sample per pass spreads the samples
    over the whole run instead of one burst."""
    tally = Tally()
    setups = []
    passes, walls, cals = run_passes(
        ops, tally, seconds, MIN_PASSES,
        before_pass=lambda: setups.append(setup_once()))
    while len(setups) < SETUP_MIN_REPEATS:
        setups.append(setup_once())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "pass_s": metric(statistics.median(passes), "s"),
        "accuracy_digits": metric(accuracy(tally), "digits"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "setup_s": metric(min(setups), "s"),
    }
    q1, q3 = quartiles(passes)
    report = {"passes": len(passes), "pass_s_q1": q1, "pass_s_q3": q3,
              "pass_s_samples": passes, "pass_wall_s_samples": walls,
              "pass_cal_s_samples": cals, "setup_s_samples": setups,
              "ops_failed_frac": tally.failed_frac}
    return tally, metrics, report


def per_layer(ops, seconds):
    from spans import SPAN_NAMES, Tracer
    from workloads import CLI_COMMANDS, VERIFY_CHECKS, VERIFY_LIMITS_S

    tally = Tally()
    plain, _, _ = run_passes(ops, tally, seconds / 2, 1)
    tracer = Tracer().install()
    try:
        traced, _, _ = run_passes(ops, tally, seconds / 2, 1)
    finally:
        tracer.uninstall()

    metrics = {}
    n = len(traced)
    for name in SPAN_NAMES:
        s = tracer.stats[name]
        metrics[f"{name}.calls"] = metric(s.calls / n, "count")
        metrics[f"{name}.points"] = metric(s.points / n, "count")
        metrics[f"{name}.self_s"] = metric(s.self_s / n, "s")
        metrics[f"{name}.us_per_point"] = metric(
            1e6 * s.self_s / s.points if s.points else 0.0, "us")

    # op timings come from the untraced passes, verdict data from all passes
    k = len(plain)
    layer_walls = {}
    for op in ops:
        if op.layer:
            walls = tally.walls[op.name][:k]
            summed = layer_walls.get(op.layer, [0.0] * k)
            layer_walls[op.layer] = [a + b for a, b in zip(summed, walls)]
    results = {op.layer: tally.results[op.name] for op in ops
               if op.layer.startswith("verify.")}
    for check in VERIFY_CHECKS:
        key = f"verify.{check}"
        walls = layer_walls.get(key)
        outs = results.get(key, [])
        metrics[f"{key}.wall_s"] = metric(
            statistics.median(walls) if walls else 0.0, "s")
        errors = [o.max_error for o in outs if o.max_error is not None]
        metrics[f"{key}.max_error"] = metric(max(errors, default=0.0), "1")
        if check in VERIFY_LIMITS_S:
            runtimes = [o.runtime for o in outs[:k] if o.runtime is not None]
            metrics[f"{key}.headroom"] = metric(
                VERIFY_LIMITS_S[check] / statistics.median(runtimes)
                if runtimes else 0.0, "ratio")
    for command in CLI_COMMANDS:
        walls = layer_walls.get(f"cli.{command}")
        metrics[f"cli.{command}.wall_s"] = metric(
            statistics.median(walls) if walls else 0.0, "s")
    metrics["trace.overhead"] = metric(
        statistics.median(traced) / statistics.median(plain), "ratio")
    metrics["trace.absent"] = metric(len(tracer.absent), "count")
    report = {"untraced_passes": len(plain), "traced_passes": n,
              "absent": tracer.absent, "ops_failed_frac": tally.failed_frac,
              "spans_per_pass": {
                  name: {"calls": s.calls / n, "points": s.points / n,
                         "total_s": s.total_s / n, "self_s": s.self_s / n}
                  for name, s in tracer.stats.items() if s.calls}}
    return tally, metrics, report


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "horocorr" / "__init__.py").is_file():
        print(f"error: no horocorr sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import horocorr.cli  # noqa: F401  (loads every module the spans patch)
    import horocorr.verify  # noqa: F401
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    # SIGTERM interrupts like Ctrl-C, so the scratch directory is removed
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    env = environment(args.workload, args.seed, nproc)
    print("environment " + json.dumps(env))
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as out:
        ops = workloads.build(args.workload, args.seed, out)
        if args.trace:
            tally, metrics, report = per_layer(ops, args.seconds)
        else:
            tally, metrics, report = end_to_end(ops, args.seconds)

    print("report " + json.dumps(report))
    for name in tally.walls:
        walls = tally.walls[name]
        print(f"op {name}: median {statistics.median(walls):.4f} s "
              f"over {len(walls)}")
    for line in tally.failures:
        print(f"FAILED {line}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
