"""Benchmark of nervecheck: end-to-end and per-layer numbers of three workloads.

    python3 benchmarks/run.py --workload fd-checks --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --smoke

Run from the root of a checkout; the program is imported from its `src`.
One run repeats whole passes over the workload's operations for --seconds,
then checks every output against computations made apart from the program.
The last line of standard output is a JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics of a separate traced run with --trace 1.  Raw pass
times, cold starts and (traced) spans go to benchmarks/out/.  See README.md.
"""

from __future__ import annotations

import os

# BLAS pinned to one thread, before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import re
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

import verify  # noqa: E402  (after the thread pins)
import workloads  # noqa: E402

MC_STEP = 1e-5   # the CLI's default fd step, which the fd checks use
# The reference loop's typical time on the machine the README describes:
# verdict_s is in seconds at that speed.
REF_NOMINAL_S = 0.040

# From just before `import nervecheck` until a check or an expression can
# start: every CLI call pays this.
COLD_START = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import nervecheck
from nervecheck import cli, formdsl
print(repr(time.perf_counter() - t0))
"""


def cold_start(extra: list[str]) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *extra, "-c", COLD_START, SRC],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"cold start failed: {proc.stderr.strip()}")
    return proc


def import_times() -> dict[str, float]:
    """Cumulative import times from `python -X importtime`, in ms."""
    cumulative = {}
    for line in cold_start(["-X", "importtime"]).stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| *(\S+)$", line)
        if m:
            cumulative.setdefault(m.group(2), int(m.group(1)) / 1e3)
    numpy_ms = cumulative["numpy"]
    scipy_ms = cumulative["scipy.linalg"]
    return {"setup.import.numpy_ms": numpy_ms,
            "setup.import.scipy_ms": scipy_ms,
            "setup.import.nervecheck_ms":
                cumulative["nervecheck"] - numpy_ms - scipy_ms}


def reference_loop() -> float:
    """Seconds taken by fixed work that imports nothing from nervecheck, in
    the program's own mix: 4x4 linear solves (a Cayley rotation stands in
    for the exponential), small matrix products, closures, tuples and Python
    float arithmetic.  It uses numpy alone, so the process imports nothing
    the program does not.

    The processor's speed drifts by 20 % and more over tens of seconds, so
    raw pass times spread as much from run to run.  Scaling each pass by the
    reference time measured among its operations cancels most of the drift.
    """
    import numpy as np

    a = np.linspace(-1.0, 1.0, 16).reshape(4, 4)
    a = a - a.T
    eye = np.eye(4)
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(1500):
        s = (0.5 + 1e-3 * (k % 7)) * a
        e = np.linalg.solve(eye - s, eye + s)
        step = (lambda m, e=e: e @ m @ e.T)
        mats = tuple(step(m) for m in (a, e, a.T))
        rows = mats[0].tolist()
        acc += sum(rows[i][j] * rows[j][i] for i in range(4) for j in range(4))
        acc += float(mats[1][0, 1] - mats[2][1, 0]) * 1e-9
    return time.perf_counter() - t0


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".evals")):
        return "count"
    if name.endswith(".per_trial"):
        return "evals/trial" if name.startswith("formcalc.") else "calls/trial"
    return "s" if name.endswith("_s") else "ms"


def timed_passes(one_pass, seconds: float, after_pass):
    """Whole passes until `seconds` have gone by.

    Returns the pass times, the reference loop's times and the outputs.  A
    pass's time is the sum of its operations' times; the reference loop
    after each operation and `after_pass` after each pass are not in it.
    """
    times, ref, outputs = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        spent = 0.0
        out = []
        for k in range(len(one_pass.ops)):
            t0 = time.perf_counter()
            out.append(one_pass.run_op(k))
            spent += time.perf_counter() - t0
            ref.append(reference_loop())
        times.append(spent)
        outputs.append(out)
        after_pass()
        if time.perf_counter() >= deadline:
            return times, ref, outputs


def verify_outputs(workload: str, seed: int, one_pass, outputs):
    """(per-operation failure flags, problems) for every pass of a run."""
    import runner

    if workload == "dsl-eval":
        return verify.dsl_values(one_pass.exprs, outputs)
    failed, problems = verify.check_reports(one_pass.ops, outputs,
                                            workloads.TRIALS)
    if workload == "fd-checks":
        problems += verify.mc_probes(runner.probe_mc(workload, seed, MC_STEP),
                                     MC_STEP)
    else:
        problems += verify.cochain_probes(runner.probe_cochains(workload, seed))
        problems += verify.golden_probes(runner.probe_golden())
    return failed, problems


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, SRC)
    import runner
    from nervecheck.harness import CHECK_IDS

    os.makedirs(OUT, exist_ok=True)
    one_pass = runner.make_pass(workload, seed)
    raw = {"workload": workload, "seed": seed, "trace": trace,
           "ops": [str(op) for op in one_pass.ops]}
    setup, marks = [], [0]
    if trace:
        import spans
        log = spans.SpanLog()
        spans.install(log)

        def after_pass() -> None:
            marks.append(len(log))
    else:
        # One cold start before the passes and one after each: cold starts
        # spread over the run give a steadier median than a block of them.
        def after_pass() -> None:
            setup.append(float(cold_start([]).stdout))

        after_pass()
    times, ref, outputs = timed_passes(one_pass, seconds, after_pass)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = len(one_pass.ops)
    scaled = [t * REF_NOMINAL_S / statistics.mean(ref[k * n:(k + 1) * n])
              for k, t in enumerate(times)]
    verdict = statistics.mean(scaled)
    raw.update(pass_s=times, ref_s=ref, scaled_pass_s=scaled)

    if trace:
        per_pass = [spans.layer_metrics(spans.pass_spans(log, lo, hi),
                                        one_pass.trials, CHECK_IDS)
                    for lo, hi in zip(marks, marks[1:])]
        metrics = {name: (statistics.median(p[name] for p in per_pass),
                          layer_unit(name))
                   for name in per_pass[0]}
        for name, value in import_times().items():
            metrics[name] = (value, "ms")
        metrics["traced.verdict_s"] = (verdict, "s")
        raw["per_pass"] = per_pass
        log.write(os.path.join(OUT, f"spans-{workload}-seed{seed}.npz"))
    else:
        raw["setup_s"] = setup
        metrics = {"setup_s": (statistics.median(setup), "s"),
                   "verdict_s": (verdict, "s"),
                   "peak_rss_mb": (peak, "MB")}

    failed, problems = verify_outputs(workload, seed, one_pass, outputs)
    raw["problems"] = problems
    with open(os.path.join(OUT, f"run-{workload}-seed{seed}-trace{int(trace)}"
                                ".json"), "w", encoding="utf-8") as fh:
        json.dump(raw, fh, indent=1)
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    return {"correct": not problems, "attempted": len(failed),
            "failed": sum(failed),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one short pass per workload; show that the "
                             "comparators reject perturbed outputs")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nervecheck", "__init__.py")):
        print(f"error: no program at {SRC}; run from a checkout of the "
              f"repository", file=sys.stderr)
        return 2
    if args.smoke:
        sys.path.insert(0, SRC)
        import smoke
        return smoke.main()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
