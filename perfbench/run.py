"""Benchmark of tricoh: one closed-loop caller, one thread, outputs checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep_reports --seed 1 --seconds 20 --trace 0

``--trace 0`` runs untraced passes and reports the end-to-end metrics;
``--trace 1`` runs traced passes and reports the per-layer metrics. Each
metric is printed as ``name = value unit``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--record FILE`` also appends the result, with the
environment it was measured in, to a JSON-lines file. See README.md.
"""

import argparse
import dataclasses
import json
import os
from pathlib import Path
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

import bootstrap

SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60
MIN_TRACED_PASSES = 2
# item_p90_s is reported only with at least this many items beyond it
TAIL_SAMPLES = 10
MAX_PROBLEMS_SHOWN = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "units_per_s": "1/s",
    "item_p50_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, help="append the result to this JSON-lines file")
    return parser.parse_args(argv)


# ---------------------------------------------------------------- environment


def environment(seed):
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in bootstrap.THREAD_VARS},
        "machine": platform.machine(),
        "git_sha": bootstrap.git_sha(),
        "seed": seed,
    }


def peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------- closed loop


class SpeedGauge:
    """A fixed reference kernel, timed between items, that measures machine speed.

    On a shared 2-vCPU VM the same code runs up to 1.8x slower while other
    tenants load the physical core, and such phases last from seconds to
    minutes, so raw times of one run can differ from the next by 25%.
    The kernel (8x8 ``eigh`` calls and Python arithmetic, the program's own
    mix, and no program code) slows down with it. An item's time divided by
    the mean of the gauge samples just before and after it, times
    ``REFERENCE_S``, is its time at the reference speed.
    """

    REFERENCE_S = 0.010
    CALLS = 300

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        a = rng.normal(size=(16, 8, 8)) + 1j * rng.normal(size=(16, 8, 8))
        self._mats = list((a + a.conj().transpose(0, 2, 1)) / 2)
        # bound now, so a tracer installed later never sees the gauge's calls
        self._eigh = np.linalg.eigh
        self._abs = np.abs
        self.last = self.sample()

    def sample(self):
        t0 = perf_counter()
        acc = 0.0
        for k in range(self.CALLS):
            _, v = self._eigh(self._mats[k % 16])
            acc += float(self._abs(v[:, 0]).max()) + sum(x * x for x in range(40))
        return perf_counter() - t0

    def slowdown(self):
        """Slowdown over the interval since the previous call, against the reference speed."""
        now = self.sample()
        factor = (self.last + now) / 2 / self.REFERENCE_S
        self.last = now
        return factor


class Loop:
    """Issues items one at a time, times each call, and checks each output."""

    def __init__(self, out_dir, gauge):
        self.out_dir = out_dir
        self.gauge = gauge
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.item_pass = []
        self.item_slowdown = []

    def run_item(self, item, pass_index=-1):
        """Run one item; returns (units delivered, raw seconds, seconds at reference speed)."""
        for entry in os.scandir(self.out_dir):
            os.unlink(entry.path)
        if self.tracer is not None:
            self.tracer.item_id = len(self.item_pass)
        self.item_pass.append(pass_index)
        self.attempted += 1
        t0 = perf_counter()
        try:
            output = item.call(self.out_dir)
            elapsed = perf_counter() - t0
            problems = item.check(self.out_dir, output)
            units = item.units(output)
        except Exception:
            elapsed = perf_counter() - t0
            problems = [traceback.format_exc(limit=3).strip()]
            units = 0
        if problems:
            self.failed += 1
            self.problems.append(f"{item.name}: {'; '.join(problems)}")
            units = 0
        slowdown = self.gauge.slowdown()
        self.item_slowdown.append(slowdown)
        return units, elapsed, elapsed / slowdown

    def run_passes(self, items, seconds, min_passes):
        """Whole passes over ``items`` until ``seconds`` have passed.

        Returns one list of (units, raw s, reference s) per pass.
        """
        passes = []
        start = perf_counter()
        while len(passes) < min_passes or perf_counter() - start < seconds:
            passes.append([self.run_item(item, len(passes)) for item in items])
        return passes


def column(passes, k):
    return [row[k] for p in passes for row in p]


def pass_totals(passes, k):
    return [sum(row[k] for row in p) for p in passes]


def measure_setup(workload, seed, work_root, loop):
    """Median time, at reference speed, of fresh interpreters that import,
    generate inputs and warm up; also returns the raw median.

    Each probe's warm-up item counts as an attempted item of ``loop``.
    """
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    raw, corrected = [], []
    for _ in range(SETUP_REPEATS):
        input_dir = tempfile.mkdtemp(dir=work_root)
        loop.gauge.slowdown()
        t0 = perf_counter()
        done = subprocess.run(
            [sys.executable, str(probe), "--workload", workload, "--seed", str(seed), "--dir", input_dir],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            env=os.environ.copy(),
        )
        raw.append(perf_counter() - t0)
        corrected.append(raw[-1] / loop.gauge.slowdown())
        shutil.rmtree(input_dir)
        loop.attempted += 1
        if done.returncode != 0:
            loop.failed += 1
            loop.problems.append(f"set-up probe (exit {done.returncode}): {done.stderr.strip()}")
    return statistics.median(corrected), statistics.median(raw)


def untraced_run(args, work_root, input_dir, out_dir):
    import workloads

    build = workloads.build(args.workload, args.seed, input_dir)
    loop = Loop(out_dir, SpeedGauge())
    setup_s, setup_raw = measure_setup(args.workload, args.seed, work_root, loop)
    loop.run_item(build.warmup)
    passes = loop.run_passes(build.items, args.seconds, 1)

    units = pass_totals(passes, 0)
    times, raw = column(passes, 2), column(passes, 1)
    walls, raw_walls = pass_totals(passes, 2), pass_totals(passes, 1)
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "units_per_s": statistics.median(u / t for u, t in zip(units, walls)),
        "item_p50_s": statistics.median(times),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = [
        f"passes = {len(passes)}, items = {len(times)} ({len(build.items)} per pass)",
        f"failed_frac = {loop.failed / loop.attempted:.6g} ({loop.failed} of {loop.attempted})",
        f"times are at reference speed; as measured: setup_s = {setup_raw:.6g} s, "
        f"wall_s = {statistics.median(raw_walls):.6g} s, "
        f"units_per_s = {statistics.median(u / t for u, t in zip(units, raw_walls)):.6g} 1/s, "
        f"item_p50_s = {statistics.median(raw):.6g} s",
    ]
    beyond = len(times) // 10
    if beyond >= TAIL_SAMPLES:
        p90 = statistics.quantiles(times, n=10)[-1]
        notes.append(f"item_p90_s = {p90:.6g} s (n = {len(times)}, {beyond} beyond)")
    else:
        notes.append(f"item_p90_s not reported: n = {len(times)} leaves {beyond} items beyond p90, "
                     f"fewer than {TAIL_SAMPLES}")
    return loop, metrics, END_TO_END_UNITS, notes


def traced_run(args, work_root, input_dir, out_dir):
    import numpy as np
    import tracing
    import workloads

    build = workloads.build(args.workload, args.seed, input_dir)
    loop = Loop(out_dir, SpeedGauge())
    loop.run_item(build.warmup)
    notes = []
    consistent = True

    # self-check: the wrappers must see every kernel call a profiler sees
    codes = {tracing.code_of(np.linalg.eigh): "eigh", tracing.code_of(np.linalg.eigvalsh): "eigvalsh"}
    counted = dict.fromkeys(codes.values(), 0)
    item = workloads.selfcheck_item()
    profiled = dataclasses.replace(item, call=lambda out: tracing.count_python_calls(codes, lambda: item.call(out),
                                                                                      counted))
    check_tracer = tracing.Tracer()
    check_tracer.install()
    try:
        loop.run_item(profiled)
    finally:
        check_tracer.uninstall()
    seen = check_tracer.arrays()["name"]
    traced_counts = {k: int((seen == check_tracer.name_id(f"linalg.{k}")).sum()) for k in ("eigh", "eigvalsh")}
    if None in codes or traced_counts != counted:
        consistent = False
        notes.append(f"self-check FAILED: wrappers saw {traced_counts}, profiler saw {counted}")
    verdict = "equal to" if traced_counts == workloads.SEED_KERNEL_CALLS else "differ from"
    notes.append(f"self-check {workloads.SELFCHECK_ITEM}: eigh {traced_counts['eigh']}, eigvalsh "
                 f"{traced_counts['eigvalsh']} calls ({verdict} the seed's {workloads.SEED_KERNEL_CALLS})")

    untraced = pass_totals(loop.run_passes(build.items, 0.0, 1), 2)[0]

    tracer = tracing.Tracer()
    loop.tracer = tracer
    loop.item_pass, loop.item_slowdown = [], []
    tracer.install()
    try:
        pass_times = pass_totals(loop.run_passes(build.items, args.seconds, MIN_TRACED_PASSES), 2)
    finally:
        tracer.uninstall()
    per_pass = tracing.layer_metrics(tracer, loop.item_pass, loop.item_slowdown, len(pass_times))
    tracer.save(work_root / f"trace_{args.workload}.npz", item_pass=loop.item_pass,
                item_slowdown=loop.item_slowdown)

    units = tracing.metric_units()
    metrics = {}
    for key, unit in units.items():
        values = [m[key] for m in per_pass]
        if unit == "s":
            metrics[key] = statistics.median(values)
        else:
            if any(v != values[0] for v in values):
                consistent = False
                notes.append(f"count {key} differs between traced passes: {values}")
            metrics[key] = values[0]
    metrics["trace_overhead_s"] = statistics.median(pass_times) - untraced
    metrics["selfcheck.sweep_zz.eigh_calls"] = traced_counts["eigh"]
    metrics["selfcheck.sweep_zz.eigvalsh_calls"] = traced_counts["eigvalsh"]
    units = dict(units, **{"trace_overhead_s": "s", "selfcheck.sweep_zz.eigh_calls": "count",
                           "selfcheck.sweep_zz.eigvalsh_calls": "count"})
    notes.append(f"traced passes = {len(pass_times)}, spans = {len(tracer.start)}, "
                 f"counts repeat across passes: {'yes' if consistent else 'NO'}")
    if tracer.absent:
        notes.append(f"absent (reported as 0): {', '.join(sorted(set(tracer.absent)))}")
    if not consistent:
        loop.failed += 1
    return loop, metrics, units, notes


def main(argv=None):
    args = parse_args(argv)
    try:
        bootstrap.import_program()
    except (bootstrap.MissingProgram, ImportError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}, expected one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    if not workloads.REFERENCE_PATH.is_file():
        print(f"perfbench: cannot run: no reference outputs at {workloads.REFERENCE_PATH}", file=sys.stderr)
        return 2

    work_root = bootstrap.ROOT / ".perfbench_out"
    work_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    input_dir, out_dir = scratch / "inputs", scratch / "out"
    input_dir.mkdir()
    out_dir.mkdir()
    try:
        run = traced_run if args.trace else untraced_run
        loop, metrics, units, notes = run(args, work_root, str(input_dir), str(out_dir))
    finally:
        shutil.rmtree(scratch)

    env = environment(args.seed)
    print(f"workload = {args.workload}, seed = {args.seed}, trace = {args.trace}, closed loop, 1 caller, 1 thread")
    print("env " + json.dumps(env, sort_keys=True))
    for note in notes:
        print(note)
    for problem in loop.problems[:MAX_PROBLEMS_SHOWN]:
        print(f"FAILED {problem}", file=sys.stderr)
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {units[key]}")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    if args.record:
        record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds, "env": env,
                  "result": result}
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
