"""Command-line front end.

Verbs: sweep, ratios, geometry, tomo, trotter-audit, schedule. Outputs are
deterministic CSV/JSON files (floats printed with 9 significant digits) laid
out for external plotting; identical configuration and inputs produce
byte-identical files. Each CSV is built as one table, an ordered dict from
column name to values, whose keys are the header.

Library records name the geometry points (``coherence.Tetrahedron``) and
tomo's check columns (``qmat.validate_density``), ``models.MODELS`` holds
the defaults, and the schedule builders check --steps (``file:`` ignores it).

The argument parser is built once per process and reused by every
in-process ``main`` call, and each CSV column is formatted with one
``%.9g`` format call (cells holding text or None one at a time). ``tomo``
validates, repairs and scores its files as one stack and builds its columns
from the stacked checks; a failing file is blamed, after the lines of the
files before it, as if each were checked in turn.

Each verb takes only the options it reads; any other option is a usage
error. Exit codes: 0 success, 1 usage error, 2 validation failure, 3
assertion failure (trotter-audit below threshold).
"""

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

import numpy as np

from . import adiabatic, coherence, models, qmat, states

TROTTER_FIDELITY_THRESHOLD = 0.999
# reference step interval for the error-scaling table; chosen small enough
# that both models sit in the asymptotic third-order regime
RATIO_TABLE_TAU = 0.1

# ratio columns of ``ratios``: (column, numerator field, denominator field)
RATIO_COLUMNS = (
    ("CG_over_CL", "c_global", "c_local"),
    ("C23_over_CL", "c_2_3", "c_local"),
    ("C123_over_CA123", "c_1_23", "c_abs_1_23"),
    ("C23_over_C123", "c_2_3", "c_1_23"),
)


def _fmt(x):
    if x is None:
        return ""
    return f"{x:.9g}"


def _round9(x):
    return float(f"{x:.9g}")


class _Parser(argparse.ArgumentParser):
    """Argument parser that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _per_model(field):
    """Help text listing each model's default ``field`` as "<value> for <tag>"."""
    return ", ".join(f"{getattr(m, field)} for {tag}" for tag, m in models.MODELS.items())


def build_parser():
    common = _Parser(add_help=False)
    common.add_argument("--model", choices=models.MODEL_TAGS, default="zz")
    common.add_argument("--out", default=".", help="output directory (default current)")

    grid = _Parser(add_help=False)
    grid.add_argument("--steps", "--m-steps", dest="steps", type=int, default=None,
                      help=f"number of schedule steps M (default: {_per_model('steps')})")
    grid.add_argument("--tau", type=float, default=None, help=f"step interval (default: {_per_model('tau')})")
    grid.add_argument("--schedule", default="linear",
                      help="schedule kind: linear, adaptive, or file:PATH (default linear)")

    log = _Parser(add_help=False)
    log.add_argument("--log-base", choices=("2", "e"), default="2")

    parser = _Parser(prog="tricoh", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", parents=[common, grid, log], help="exact sweep + evolved fidelities to CSV")
    p.set_defaults(run=cmd_sweep)
    p.add_argument("--mu", type=float, default=1.0,
                   help="pseudopure mixing parameter for reported fidelities (default 1)")

    p = sub.add_parser("ratios", parents=[common, grid, log], help="coherence ratio columns and monogamy to CSV")
    p.set_defaults(run=cmd_ratios)

    p = sub.add_parser("geometry", parents=[common, log], help="tetrahedron embeddings at sample couplings")
    p.set_defaults(run=cmd_geometry)
    p.add_argument("--j-values", default=None,
                   help="comma-separated coupling values (default: model-specific sample list)")

    p = sub.add_parser("tomo", parents=[common, log], help="validate density-matrix files and report coherences")
    p.set_defaults(run=cmd_tomo)
    p.add_argument("files", nargs="+", help="density-matrix JSON files")
    p.add_argument("--j", type=float, default=None,
                   help="coupling at which to compare against the exact ground state (default: sweep end)")
    p.add_argument("--repair", action="store_true",
                   help="replace each matrix by its Hermitian part with negative eigenvalues clipped to 0 and the "
                   "trace rescaled to 1 (a valid state, not in general the nearest one)")
    p.add_argument("--tol", type=float, default=1e-6, help="validation tolerance (default 1e-6)")

    p = sub.add_parser("trotter-audit", parents=[common, grid], help="audit the per-step Trotter fidelity")
    p.set_defaults(run=cmd_trotter_audit)

    p = sub.add_parser("schedule", parents=[common, grid], help="emit a schedule (and optional refocusing table)")
    p.set_defaults(run=cmd_schedule)
    p.add_argument("--nmr-config", default=None,
                   help="JSON config with deltas/j_couplings; adds a refocusing CSV")
    # an option the verb does not read is reported with the verb's own usage
    for verb in sub.choices.values():
        verb.set_defaults(verb_parser=verb)
    return parser


@functools.cache
def _parser():
    """The parser every ``main`` call in this process shares; parsing leaves no state in it."""
    return build_parser()


def _schedule(args):
    """The --schedule kind on the model's grid; --steps and --tau default to the model's."""
    model = models.model(args.model)
    steps = args.steps if args.steps is not None else model.steps
    tau = args.tau if args.tau is not None else model.tau
    kind = args.schedule
    if kind == "linear":
        return adiabatic.linear_schedule(args.model, steps, tau)
    if kind == "adaptive":
        return adiabatic.gap_adaptive_schedule(args.model, steps, tau)
    if kind.startswith("file:"):
        return adiabatic.load_schedule(kind[len("file:"):], args.model, tau)
    raise ValueError(f"unknown schedule kind {kind!r}: expected linear, adaptive, or file:PATH")


def _base(args):
    return 2.0 if args.log_base == "2" else math.e


def _cells(column):
    """A column's CSV cells: ``_fmt`` of each value, with one format call when all are numbers."""
    values = tuple(column.tolist() if isinstance(column, np.ndarray) else column)
    try:
        return ("%.9g\n" * len(values) % values).split("\n")[:-1]
    except TypeError:  # a str or None cell
        return [x if isinstance(x, str) else _fmt(x) for x in values]


def _csv(table):
    """CSV text of a table, an ordered dict from column name to the column's values."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table)
    writer.writerows(zip(*map(_cells, table.values()), strict=True))
    return buf.getvalue()


def _write(args, name, text):
    """Write a fully built text as ``--out``/``name`` (UTF-8) and report the path."""
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    print(f"wrote {path}")


def cmd_sweep(args):
    result = adiabatic.evolve(_schedule(args), mu=args.mu)
    reports = coherence.coherence_reports(states.density(result.ground_states), base=_base(args))
    table = {"m": range(len(reports)), "J": result.j_values, "E0": result.ground_energies,
             "E1": result.excited_energies, "gap": result.gaps, "fid_instant": result.fid_instant}
    table.update(zip(coherence.REPORT_COLUMNS, zip(*reports)))
    _write(args, f"sweep_{args.model}.csv", _csv(table))
    print(
        f"min_fidelity={_fmt(result.min_fidelity)} final_fidelity={_fmt(result.final_fidelity)} "
        f"ground_target_fidelity={_fmt(result.ground_target_fidelity)}"
    )
    return 0


def cmd_ratios(args):
    sweep = adiabatic.ground_sweep(_schedule(args))
    reports = coherence.coherence_reports(states.density(sweep.ground_states), base=_base(args))

    def ratio(num, den):
        return num / den if den >= 1e-9 else None

    table = {"J": sweep.j_values}
    for col, num, den in RATIO_COLUMNS:
        table[col] = [ratio(getattr(rep, num), getattr(rep, den)) for rep in reports]
    table["M"] = [rep.monogamy_m for rep in reports]
    _write(args, f"ratios_{args.model}.csv", _csv(table))
    return 0


def cmd_geometry(args):
    if args.j_values is not None:
        try:
            j_list = [float(x) for x in args.j_values.split(",") if x.strip() != ""]
        except ValueError as exc:
            raise ValueError(f"--j-values: {exc}") from None
        if not j_list:
            raise ValueError("--j-values must contain at least one coupling")
    else:
        j_list = list(models.model(args.model).geometry_j)
    _, grounds, _ = qmat.ground_states(models.hamiltonian(args.model, j_list))
    reports = coherence.coherence_reports(states.density(grounds), base=_base(args))
    records = []
    for j, rep in zip(j_list, reports):
        tet = coherence.embed_tetrahedron(rep)
        records.append(
            {
                "j": _round9(j),
                "coherences": {name: _round9(value) for name, value in zip(coherence.REPORT_COLUMNS, rep)},
                "points": {name: [_round9(x) for x in p] for name, p in zip(tet._fields, tet[:4])},
                "residual": _round9(tet.residual),
            }
        )
    _write(args, f"geometry_{args.model}.json", json.dumps(records, sort_keys=True, indent=1) + "\n")
    return 0


def cmd_tomo(args):
    qmat.check_tolerance(args.tol)
    j = args.j if args.j is not None else models.model(args.model).j_range[1]
    ground_density = states.density(qmat.ground_state(models.hamiltonian(args.model, j)).state)

    def score(raws):
        rhos, checks = qmat.validate_density(raws, tol=args.tol, repair=args.repair)
        return rhos, checks, qmat.root_fidelity(rhos, ground_density)

    # The files are scored as one stack, yet the first failing file is blamed, after the lines of
    # the files before it, as if each were loaded, validated and scored in turn. So loading stops
    # at the first file that fails to load or has another shape, and its error waits for the rest.
    raws, failure = [], None
    for path in args.files:
        try:
            raw = qmat.load_density(path)
        except Exception as exc:  # raised below, unless an earlier file fails first
            failure = exc
            break
        if raw.shape != ground_density.shape:
            try:
                score(raw)  # raises: the file's own check error, else the dimension mismatch
            except ValueError as exc:
                failure = ValueError(f"{path}: {exc}")
            break
        raws.append(raw)
    stack = np.array(raws).reshape((len(raws),) + ground_density.shape)
    try:
        rhos, checks, fids = score(stack)
    except qmat.DensityError as exc:
        failure = ValueError(f"{args.files[exc.index]}: {exc}")
        stack = stack[:exc.index]
        rhos, checks, fids = score(stack)
    names = [os.path.basename(path) for path in args.files[:len(stack)]]
    repaired = np.abs(rhos - stack).max(axis=(-2, -1)) > args.tol
    for name, fid, rep in zip(names, fids, repaired):
        print(f"{name}: fidelity {_fmt(fid)} (J={_fmt(j)}, repaired={rep})")
    if failure is not None:
        raise failure
    try:
        reports = coherence.coherence_reports(rhos, base=_base(args))
    except coherence.CrossCheckError as exc:
        # an input state the two QJSD routes disagree on is reported under its file
        raise ValueError(f"{args.files[exc.index]}: {exc}") from exc
    table = {"file": names, "J": [j] * len(names), "fidelity": fids, **checks,
             "repaired": ["yes" if rep else "no" for rep in repaired]}
    table.update(zip(coherence.REPORT_COLUMNS, zip(*reports)))
    _write(args, "tomo_report.csv", _csv(table))
    return 0


def cmd_trotter_audit(args):
    schedule = _schedule(args)
    fids = qmat.unitary_fidelity(*adiabatic.trotter_pair(args.model, schedule.values, schedule.tau))
    table = {"m": range(len(fids)), "J": schedule.values, "unitary_fidelity": fids}
    _write(args, f"trotter_audit_{args.model}.csv", _csv(table))

    lo, hi = models.model(args.model).j_range
    print(f"error-scaling ratios at tau={_fmt(RATIO_TABLE_TAU)} (expected near 8):")
    couplings = np.linspace(lo, hi, 5)
    for j, ratio in zip(couplings, adiabatic.trotter_error_scaling(args.model, couplings, RATIO_TABLE_TAU)):
        print(f"  J={_fmt(j)}: ratio={_fmt(ratio)}")

    worst = int(np.argmin(fids))
    print(f"min unitary fidelity {_fmt(fids[worst])} at step {worst} (J={_fmt(schedule.values[worst])}), "
          f"tau={_fmt(schedule.tau)}")
    if fids[worst] <= TROTTER_FIDELITY_THRESHOLD:
        print(f"FAIL: below threshold {TROTTER_FIDELITY_THRESHOLD}")
        return 3
    print(f"PASS: above threshold {TROTTER_FIDELITY_THRESHOLD}")
    return 0


def cmd_schedule(args):
    schedule = _schedule(args)
    # the refocusing table is built before any file is written, so a bad config leaves none
    config = args.nmr_config
    refocus = config is not None and adiabatic.refocus_params(models.load_nmr_params(config), schedule)
    _write(args, f"schedule_{args.model}.json", json.dumps([_round9(v) for v in schedule.values]) + "\n")
    if refocus:
        table, notices = refocus
        for notice in notices:
            print(notice)
        _write(args, f"refocus_{args.model}.csv", _csv(table))
    return 0


def main(argv=None):
    args, extra = _parser().parse_known_args(argv)
    if extra:
        args.verb_parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
