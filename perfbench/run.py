"""hadwalk benchmark: drives the real CLI, checks every answer exactly.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/hadwalk`` must exist).
Every invocation is a fresh ``python -m hadwalk.cli ...`` process with
``src`` on the path, as a user of the CLI runs it, so the in-memory
caches (the root cache, the r family, the memoised generating
functions) start cold in each process.  The load is a closed loop: one
client, one child process at a time.

A run first makes one untimed warm-up invocation (bytecode compilation
is not a per-run cost), then repeats a cycle until the next one would
end past ``--seconds``: SETUP_PER_PASS trivial invocations timed for
``setup_s`` (reported as their median), then the workload's pass -- a
fixed, seeded list of invocations.

Each invocation's cost is the lower quartile of its times over the
passes.  Interference from other tenants of a shared host only ever
slows a process down; on a 2-core VM it came in bursts that stretched
half of 36 back-to-back ``table --n-max 80`` runs by up to 70 %, and
blocks of six of those runs varied by 18 % (quartile spread) in their
medians but by 5 % in their lower quartiles.

The same VM also changed speed for minutes at a time: for over half an hour
every CLI invocation, the trivial one included, took about 1.8 times as
long as before.  So each set-up sample is paired with a reference
process that runs no hadwalk code (interpreter start, the mpmath import
and fixed mpmath and Fraction arithmetic), and every time metric is
scaled by REFERENCE_S / (median reference time of the run): times are
reported in seconds at the speed where the reference takes REFERENCE_S.
The unscaled figures and the reference time are printed as well.

With ``--trace 1`` the passes alternate untraced and traced
(``trace_entry.py``), at least two of each.  The traced passes give the
per-layer metrics; their exact counts must agree between passes, and
the traced/untraced wall-time ratio is reported as the tracing
overhead.

Metric names and units come from BENCHMARK.json.  The last line of
stdout is the result record; the lines before it name every metric with
its unit, the environment, the seed and the generated inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from typing import Callable, NamedTuple

import mpmath

import oracle

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
SPAN_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

SETUP_PER_PASS = 3
# See the module docstring.  REFERENCE_S only fixes the unit of the
# reported times: a round figure of the order of the reference's time on
# a 2-vCPU Xeon VM (Python 3.11.7, mpmath 1.3.0 on its pure-Python
# backend).
REFERENCE_CODE = """\
import mpmath
from fractions import Fraction
with mpmath.workprec(256):
    x = mpmath.mpc(0)
    for k in range(1, 1000):
        x = x * mpmath.mpc(0.5, 0.25) + k
s = Fraction(0)
for k in range(1, 1000):
    s += Fraction(1, k)
"""
REFERENCE_S = 0.1
# Every child must end well inside the 180 s a whole run may take.
RUN_LIMIT_S = 170.0
STDERR_CHARS = 200

# Cost of a cell grows with n and, more weakly, with the start site's
# distance from the walls.  Each pass covers a fixed set of n; the seed
# picks j in the central band n//3 .. n - n//3, where the cost is flat
# to a few percent, so passes of different seeds cost about the same.
NUMERIC_NS = (10, 12, 14, 16, 18)
SIMULATE_NS = (10, 12, 14)
VERIFY_N_MAX = 14
VERIFY_CHECKS = (
    "watrous-recurrence", "row-recurrence", "outer-pair-sum",
    "first-two-entries", "boundary-conventions", "convergence-sandwich",
    "method-agreement", "series-vs-paths", "recurrence-built-gf",
    "absorbed-mass-series", "simulator-bracketing", "first-column-limit",
    "center-column-limit", "pole-classification", "quotient-structure",
    "squarefree-denominators", "denominator-bound-integrality",
    "first-column-numerators",
)


class Invocation(NamedTuple):
    """One CLI process: its argv, its operation count and the check of
    its stdout, which returns (failed operations, error messages)."""

    argv: list
    ops: int
    check: Callable


# ------------------------------------------------------------ answer checks


def _header_errors(cell, n, j, method):
    if (cell.get("n"), cell.get("j"), cell.get("method")) == (n, j, method):
        return []
    return [f"cell header {cell.get('n')},{cell.get('j')},{cell.get('method')}"]


def _exact_cell_check(n, j, method, orc):
    def check(cell):
        p = orc.p(j, n)
        errors = _header_errors(cell, n, j, method)
        if cell.get("p") != oracle.pair(p):
            errors.append(f"p={cell.get('p')} expected {p}")
        if cell.get("q") != oracle.pair(1 - p):
            errors.append("q != 1 - p")
        bad_decimal = oracle.decimal_error(cell.get("decimal", ""), p)
        if bad_decimal:
            errors.append(bad_decimal)
        return errors
    return check


def _prob_json(cell_check):
    def check(stdout):
        try:
            errors = cell_check(json.loads(stdout))
        except (ValueError, KeyError, AttributeError, TypeError) as exc:
            errors = [f"unparsable output: {exc}"]
        return 1 if errors else 0, errors
    return check


def _simulate_check(n, j, eps, orc):
    def check(cell):
        p = orc.p(j, n)
        errors = _header_errors(cell, n, j, "simulate")
        lower = Fraction(int(cell["p"]["num"]), int(cell["p"]["den"]))
        right = Fraction(int(cell["q"]["num"]), int(cell["q"]["den"]))
        residual = Fraction(int(cell["residual"]["num"]),
                            int(cell["residual"]["den"]))
        if not lower <= p <= lower + residual:
            errors.append(f"bracket [{lower}, +{residual}] misses {p}")
        if not residual < eps:
            errors.append(f"residual {residual} not below {eps}")
        if lower + right + residual != 1:
            errors.append("p + q + residual != 1")
        return errors
    return check


def _verify_check(n_max):
    def check(stdout):
        try:
            got = json.loads(stdout)
            results = {r["name"]: r["passed"] for r in got["results"]}
        except (ValueError, KeyError, TypeError) as exc:
            return len(VERIFY_CHECKS), [f"unparsable output: {exc}"]
        errors = [f"{name} did not PASS" for name in VERIFY_CHECKS
                  if results.get(name) is not True]
        if set(results) != set(VERIFY_CHECKS) or got.get("n_max") != n_max:
            errors.append(f"unexpected checks or n_max: {sorted(results)}")
        return min(len(errors), len(VERIFY_CHECKS)), errors
    return check


def _trivial_invocation(orc):
    def check(stdout):
        want = oracle.pair(orc.p(1, 2))
        ok = stdout.strip() == f"{want['num']}/{want['den']}"
        return 0 if ok else 1, [] if ok else [f"got {stdout.strip()!r}"]
    return Invocation(["prob", "--n", "2", "--j", "1"], 1, check)


# ---------------------------------------------------------------- workloads


def _central_j(rng, n):
    lo = max(1, n // 3)
    return rng.randint(lo, n - lo)


def cell_numeric(rng, orc):
    cells = [(n, _central_j(rng, n)) for n in NUMERIC_NS]
    rng.shuffle(cells)
    return [
        Invocation(
            ["prob", "--n", str(n), "--j", str(j), "--method", "numeric",
             "--format", "json"],
            1, _prob_json(_exact_cell_check(n, j, "numeric", orc)))
        for n, j in cells
    ]


def cell_simulate(rng, orc):
    eps = Fraction(1, 10 ** 10)
    cells = [(n, _central_j(rng, n)) for n in SIMULATE_NS]
    rng.shuffle(cells)
    return [
        Invocation(
            ["prob", "--n", str(n), "--j", str(j), "--method", "simulate",
             "--tail-eps", "1e-10", "--format", "json"],
            1, _prob_json(_simulate_check(n, j, eps, orc)))
        for n, j in cells
    ]


def verify(rng, orc):
    # The seed varies only the simulator's tail target, within a factor
    # of two, which moves the cost of the run by under a percent.
    eps = f"1/{rng.randint(5 * 10 ** 9, 10 ** 10)}"
    return [Invocation(
        ["verify", "--suite", "all", "--n-max", str(VERIFY_N_MAX),
         "--tail-eps", eps, "--format", "json"],
        len(VERIFY_CHECKS), _verify_check(VERIFY_N_MAX))]


WORKLOADS = {
    "cell-numeric": cell_numeric,
    "verify": verify,
    "cell-simulate": cell_simulate,
}


# ------------------------------------------------------------------ running


class Runner:
    """Starts the child processes and tallies checked operations."""

    def __init__(self, hard_deadline):
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.hard_deadline = hard_deadline
        self.attempted = 0
        self.failed = 0
        self.diagnostics = []

    def reference(self):
        """Wall time of one run of REFERENCE_CODE."""
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", REFERENCE_CODE], check=True,
                       capture_output=True, timeout=60)
        return time.perf_counter() - t0

    def invoke(self, inv, traced=False):
        """Run and check one process; returns (wall_s, cpu_s, failed_ops,
        spans)."""
        span_path = None
        if traced:
            os.makedirs(SPAN_DIR, exist_ok=True)
            span_path = os.path.join(SPAN_DIR, f"spans-{os.getpid()}.json")
            cmd = [sys.executable, os.path.join(HERE, "trace_entry.py"), span_path]
        else:
            cmd = [sys.executable, "-m", "hadwalk.cli"]
        timeout = max(1.0, self.hard_deadline - time.monotonic())
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd + inv.argv, capture_output=True,
                                  text=True, env=self.env, cwd=ROOT,
                                  timeout=timeout)
            code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired as exc:
            code, stdout, stderr = "timeout", "", str(exc)
        wall = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        self.attempted += inv.ops
        spans = None
        if code == 0:
            failed, errors = inv.check(stdout)
        else:
            failed, errors = inv.ops, [f"exit {code}: {stderr[:STDERR_CHARS]}"]
        if span_path is not None and os.path.exists(span_path):
            with open(span_path) as fh:
                spans = json.load(fh)
            os.remove(span_path)
        if failed:
            self.failed += failed
            self.diagnostics.append({
                "argv": inv.argv,
                "errors": [e[:STDERR_CHARS] for e in errors[:5]]})
        return wall, cpu, failed, spans


def _median(values):
    return statistics.median(values) if values else 0.0


def _low_quartile(values):
    return sorted(values)[len(values) // 4]


def untraced_pass(runner, invocations):
    walls, cpus, ok_ops = [], [], 0
    for inv in invocations:
        wall, cpu, failed, _ = runner.invoke(inv)
        walls.append(wall)
        cpus.append(cpu)
        ok_ops += inv.ops - failed
    return {"walls": walls, "cpus": cpus, "wall": sum(walls), "ok_ops": ok_ops}


# ------------------------------------------------------------------ tracing


def aggregate_spans(spans):
    """Per-layer totals of one traced invocation: self seconds by span
    name, inclusive seconds of verification checks, and exact counts."""
    child_ns = [0] * len(spans)
    for name, parent, t0, t1, attr, esc in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    self_s = Counter()
    total_s = Counter()
    counts = Counter()
    integrations = {}
    for i, (name, parent, t0, t1, attr, esc) in enumerate(spans):
        self_s[name] += (t1 - t0 - child_ns[i]) / 1e9
        total_s[name] += (t1 - t0) / 1e9
        counts[name + ".calls"] += 1
        counts["residue_engine.escalations"] += esc
        if name.startswith("residue_engine.find_roots."):
            counts["residue_engine.find_roots.calls"] += 1
            if attr is not None:
                counts["residue_engine.find_roots.cache_hits"] += attr[1]
        if name == "residue_engine.integrate_exact":
            integrations[i] = {"rungs": 0, "cert": 0, "delta": 0, "true": attr or 0}
        if parent in integrations:
            rec = integrations[parent]
            if name == "residue_engine.find_roots.d":
                rec["rungs"] += 1
            elif name == "residue_engine.residue_sum" and attr is not None:
                rec["cert"] = attr
            elif name == "residue_engine.denominator_bound" and attr is not None:
                rec["delta"] = attr
    for rec in integrations.values():
        counts["residue_engine.integrate_exact.rungs_tried"] += rec["rungs"]
        counts["residue_engine.integrate_exact.cert_bits"] += rec["cert"]
        counts["residue_engine.denominator_bound.delta_bits"] += rec["delta"]
        counts["residue_engine.true_den_bits"] += rec["true"]
    return self_s, total_s, counts


# Exact counts compared between traced passes and reported as metrics.
COUNTS = (
    "residue_engine.find_roots.calls",
    "residue_engine.find_roots.cache_hits",
    "residue_engine.escalations",
    "residue_engine.integrate_exact.cert_bits",
    "residue_engine.integrate_exact.rungs_tried",
    "residue_engine.denominator_bound.delta_bits",
    "residue_engine.true_den_bits",
    "exactq.poly_divmod.calls",
    "exactq.Polynomial.mul.calls",
    "walk_core.p_exact.calls",
    "walk_core.p_closed.calls",
    "simulator.step.calls",
    "simulator.interior_mass.calls",
    "cli.decimal_expansion.calls",
)
SELF_TIMES = (
    "residue_engine.find_roots.d", "residue_engine.find_roots.c",
    "residue_engine.denominator_bound", "residue_engine.residue_sum",
    "residue_engine.classify_roots", "residue_engine.build_integrand",
    "exactq.poly_resultant", "exactq.poly_discriminant", "exactq.poly_divmod",
    "exactq.Polynomial.mul", "exactq.QuadExt.pow",
    "walk_core.p_exact", "walk_core.p_closed", "walk_core.RFamily.r",
    "walk_core.gf_via_recurrence",
    "simulator.step", "simulator.interior_mass",
    "cli.decimal_expansion",
)


def traced_pass(runner, invocations):
    walls, self_s, total_s, counts = [], Counter(), Counter(), Counter()
    for inv in invocations:
        wall, _, _, spans = runner.invoke(inv, traced=True)
        walls.append(wall)
        if spans is not None:
            s, t, c = aggregate_spans(spans)
            self_s.update(s)
            total_s.update(t)
            counts.update(c)
    return {"wall": sum(walls), "self": self_s, "total": total_s,
            "counts": {k: counts[k] for k in COUNTS}}


def layer_metrics(traced, untraced):
    out = {}
    for name in SELF_TIMES:
        out[f"{name}.self_s"] = _median([p["self"][name] for p in traced])
    for check in VERIFY_CHECKS:
        out[f"verification.{check}.s"] = _median(
            [p["total"][f"verification.{check}"] for p in traced])
    counts = traced[0]["counts"]
    out.update(counts)
    calls = counts["residue_engine.find_roots.calls"]
    out["residue_engine.find_roots.cache_hit_ratio"] = (
        counts["residue_engine.find_roots.cache_hits"] / calls if calls else 0.0)
    out["trace.overhead_ratio"] = (
        _median([p["wall"] for p in traced])
        / _median([p["wall"] for p in untraced]))
    return out


# ------------------------------------------------------------------ records


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def environment():
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "hadwalk", "cli.py")):
        sys.stderr.write("error: run from the root of a hadwalk checkout "
                         "(src/hadwalk/cli.py not found)\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    oracle.self_test()

    rng = random.Random(args.seed)
    invocations = WORKLOADS[args.workload](rng, oracle.Oracle(100))
    runner = Runner(started + RUN_LIMIT_S)
    print(json.dumps({"env": environment(), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace,
                      "inputs": [inv.argv for inv in invocations]}))

    trivial = _trivial_invocation(oracle.Oracle(2))
    runner.invoke(trivial)  # warm-up: bytecode compilation, file cache
    t_measure = time.monotonic()
    cycles = []

    def another(minimum):
        """Whether to start another cycle: always below ``minimum``
        cycles, then only if a median-length one ends within --seconds."""
        if len(cycles) < minimum:
            return True
        return time.monotonic() - t_measure + _median(cycles) <= args.seconds

    if args.trace:
        untraced, traced = [], []
        while another(2):
            t0 = time.monotonic()
            untraced.append(untraced_pass(runner, invocations))
            traced.append(traced_pass(runner, invocations))
            cycles.append(time.monotonic() - t0)
        for later in traced[1:]:
            if later["counts"] != traced[0]["counts"]:
                runner.failed += 1
                runner.diagnostics.append({
                    "error": "traced passes disagree on exact counts",
                    "counts": [traced[0]["counts"], later["counts"]]})
        metrics = layer_metrics(traced, untraced)
        wanted = spec["per_layer"]
    else:
        # Set-up and reference samples are spread over the run, a few
        # before each pass, so that one busy moment cannot set them.
        setup, reference, passes = [], [], []
        while another(1):
            t0 = time.monotonic()
            for _ in range(SETUP_PER_PASS):
                reference.append(runner.reference())
                setup.append(runner.invoke(trivial)[0])
            passes.append(untraced_pass(runner, invocations))
            cycles.append(time.monotonic() - t0)
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        walls = [_low_quartile(w) for w in zip(*(p["walls"] for p in passes))]
        raw = {
            "setup_s": _median(setup),
            "wall_s": sum(walls),
            "cpu_s": sum(_low_quartile(c) for c in zip(*(p["cpus"] for p in passes))),
            "call_p50_s": _median(walls),
        }
        speed = REFERENCE_S / _median(reference)
        metrics = {name: value * speed for name, value in raw.items()}
        metrics["ops_per_s"] = _median([p["ok_ops"] for p in passes]) / metrics["wall_s"]
        metrics["peak_rss_mb"] = peak / 1024.0
        metrics["passes"] = len(passes)
        metrics["reference_s"] = _median(reference)
        metrics.update({f"unscaled.{name}": value for name, value in raw.items()})
        wanted = spec["end_to_end"]
    metrics["failed_ratio"] = runner.failed / max(runner.attempted, 1)

    for diag in runner.diagnostics[:10]:
        print("FAILED", json.dumps(diag))
    units = {m["name"]: m["unit"] for m in wanted}
    for name in sorted(metrics):
        print(f"{name} {metrics[name]} {units.get(name, '')}".rstrip())
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
