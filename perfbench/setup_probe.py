"""Set-up probe, run in a fresh interpreter by run.py to time set-up.

It imports tricoh, generates the workload's inputs into ``--dir`` and runs
the workload's warm-up item once, checking its output. The parent process
times it from start to exit.
"""

import argparse
import sys
import tempfile

import bootstrap


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, help="directory for generated inputs and outputs")
    args = parser.parse_args(argv)
    bootstrap.import_program()
    import workloads

    build = workloads.build(args.workload, args.seed, args.dir)
    out_dir = tempfile.mkdtemp(dir=args.dir)
    problems = build.warmup.check(out_dir, build.warmup.call(out_dir))
    if problems:
        print("; ".join(problems), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
