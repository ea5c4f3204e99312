"""Run tier-1, the CLI verbs and the benchmark's output check under several OpenBLAS kernel sets.

numpy's wheel links OpenBLAS built with ``DYNAMIC_ARCH``, which picks its
kernels by CPU. ``OPENBLAS_CORETYPE`` forces the set that another CPU family
would get, so one machine can show how the printed digits and the bit-pinning
tests depend on the CPU. For the machine's own kernels and for each forced
set, this prints:

- the tier-1 tests that fail, in two runs: the tests not marked
  ``kernel_rounding``, which must all pass under every set, and the marked
  ones, which pin bits that follow the kernel set and may fail;
- for each CLI output file, the count of cells that differ from the run with
  the machine's own kernels (a cell is a CSV field, a JSON leaf or a
  whitespace-separated word of stdout, stderr or the exit code);
- with ``--against DIR``, the count of cells that differ between this
  checkout and the checkout ``DIR`` run under the same kernel set;
- the verdict of ``perfbench/run.py --seconds 0`` on each workload.

The CLI verbs run on their default grids: ``sweep``, ``ratios``,
``trotter-audit`` and ``schedule`` on linear and adaptive schedules,
``geometry``, ``sweep --log-base e`` and ``tomo --repair`` on the
benchmark's 48 seed-1 files. A kernel set the CPU cannot run fails with an
illegal instruction; ``Core:`` shows the set OpenBLAS took. Run from the
root of a checkout; it needs the standard library and numpy, and takes a
few minutes:

    python tools/kernels.py [--against DIR]

It is not part of tier-1.
"""

import argparse
import csv
import json
import os
from pathlib import Path
import subprocess
import sys
import tempfile

ROOT = Path(__file__).resolve().parent.parent
CORES = ("SkylakeX", "Haswell", "Sandybridge", "Nehalem")
WORKLOADS = ("sweep_reports", "adiabatic_design", "tomo_batch")

# runs each argv through tricoh.cli.main in one process, in out/<k>/ with its stdout, stderr and exit code;
# each run writes to "." so that the paths it prints are the same in every tree
_CLI_RUNNER = """
import contextlib, io, json, os, pathlib, sys
from tricoh import cli
out = pathlib.Path(sys.argv[1])
for k, argv in enumerate(json.loads(sys.argv[2])):
    run = out / f"{k:02d}_{'_'.join(a for a in argv[:5] if '/' not in a).replace('-', '')}"
    run.mkdir()
    os.chdir(run)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(argv + ["--out", "."])
    (run / "stdout.txt").write_text(stdout.getvalue())
    (run / "stderr.txt").write_text(stderr.getvalue())
    (run / "exit_code.txt").write_text(f"{rc}\\n")
"""


def _env(tree, core):
    env = dict(os.environ, PYTHONPATH=str(Path(tree) / "src"), OPENBLAS_NUM_THREADS="1")
    env.pop("OPENBLAS_CORETYPE", None)
    if core is not None:
        env["OPENBLAS_CORETYPE"] = core
    return env


def _run(argv, tree, core):
    return subprocess.run(argv, cwd=tree, env=_env(tree, core), capture_output=True, text=True)


def cli_runs(tomo_files):
    runs = [["sweep", "--model", "zz", "--log-base", "e"]]
    for model in ("zz", "zzz"):
        runs.append(["geometry", "--model", model])
        for schedule in ("linear", "adaptive"):
            for verb in ("sweep", "ratios", "trotter-audit", "schedule"):
                runs.append([verb, "--model", model, "--schedule", schedule])
    runs.append(["tomo", "--model", "zz", "--repair", *tomo_files])
    return runs


def run_cli(tree, core, runs, out):
    result = _run([sys.executable, "-c", _CLI_RUNNER, str(out), json.dumps(runs)], tree, core)
    if result.returncode != 0:
        raise RuntimeError(f"the CLI runs failed in {tree} under {core}:\n{result.stderr}")


def cells(path):
    """The cells of an output file, in order: CSV fields, JSON leaves or words."""
    text = path.read_text()
    if path.suffix == ".csv":
        return [field for row in csv.reader(text.splitlines()) for field in row]
    if path.suffix == ".json":
        leaves = []

        def walk(node, where):
            if isinstance(node, dict):
                for key in sorted(node):
                    walk(node[key], f"{where}.{key}")
            elif isinstance(node, list):
                for k, item in enumerate(node):
                    walk(item, f"{where}[{k}]")
            else:
                leaves.append((where, repr(node)))

        walk(json.loads(text), "")
        return leaves
    return text.split()


def changed_cells(got, ref):
    """``{file: (changed, total)}`` over the files of two output trees; a file whose cell count differs counts whole."""
    counts = {}
    names = sorted({p.relative_to(got) for p in got.rglob("*") if p.is_file()}
                   | {p.relative_to(ref) for p in ref.rglob("*") if p.is_file()})
    for name in names:
        a, b = got / name, ref / name
        if not (a.exists() and b.exists()):
            counts[str(name)] = (1, 1)
            continue
        x, y = cells(a), cells(b)
        total = max(len(x), len(y))
        changed = total if len(x) != len(y) else sum(u != v for u, v in zip(x, y))
        counts[str(name)] = (changed, total)
    return counts


def print_changes(title, counts):
    moved = {name: c for name, c in counts.items() if c[0]}
    cells_total = sum(total for _, total in counts.values())
    print(f"  {title}: {sum(c for c, _ in moved.values())} of {cells_total} cells differ in "
          f"{len(moved)} of {len(counts)} files")
    for name, (changed, total) in moved.items():
        print(f"    {name}: {changed} of {total}")


def tier1(tree, core):
    for marks in ("not kernel_rounding", "kernel_rounding"):
        result = _run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p",
                       "no:cacheprovider", "-m", marks], tree, core)
        lines = result.stdout.splitlines()
        failing = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in lines if line.startswith(("FAILED ", "ERROR "))]
        summary = lines[-1] if lines else result.stderr.strip()
        print(f"  tier-1 -m \"{marks}\": {summary.strip('= ')}")
        for test in failing:
            print(f"    failing: {test}")


def bench(tree, core):
    verdicts = []
    for workload in WORKLOADS:
        result = _run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
                       "--seconds", "0", "--trace", "0"], tree, core)
        try:
            last = json.loads(result.stdout.strip().splitlines()[-1])
            verdicts.append(f"{workload} correct {last['correct']} failed {last['failed']}")
        except (IndexError, ValueError, KeyError):
            verdicts.append(f"{workload} did not finish (exit {result.returncode})")
    print(f"  benchmark: {'; '.join(verdicts)}")


def core_name(core):
    result = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True, text=True,
                            env=dict(_env(ROOT, core), OPENBLAS_VERBOSE="2"))
    found = [line for line in result.stderr.splitlines() if line.startswith("Core:")]
    return found[0] if found else "Core: not reported"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", type=Path, default=None,
                        help="another checkout whose CLI outputs to compare under each kernel set")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        tomo_dir = work / "tomo_inputs"
        tomo_dir.mkdir()
        made = _run([sys.executable, "-c", "import sys; sys.path.insert(0, 'perfbench'); import workloads; "
                     "print('\\n'.join(p for batch in workloads.tomo_inputs(1, sys.argv[1]) for p in batch))",
                     str(tomo_dir)], ROOT, None)
        runs = cli_runs(made.stdout.split())
        default = work / "default"
        default.mkdir()
        run_cli(ROOT, None, runs, default)
        for core in [None, *CORES]:
            print(f"kernel set {core or 'default'} ({core_name(core)})")
            tier1(ROOT, core)
            if core is not None:
                out = work / core
                out.mkdir()
                run_cli(ROOT, core, runs, out)
                print_changes("CLI cells against the default kernels", changed_cells(out, default))
            else:
                out = default
            if args.against is not None:
                other = work / f"against_{core or 'default'}"
                other.mkdir()
                run_cli(args.against.resolve(), core, runs, other)
                print_changes(f"CLI cells against {args.against}", changed_cells(out, other))
            bench(ROOT, core)
            sys.stdout.flush()


if __name__ == "__main__":
    main()
