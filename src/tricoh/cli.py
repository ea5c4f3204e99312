"""Command-line front end.

Verbs: sweep, ratios, geometry, tomo, trotter-audit, schedule. Outputs are
deterministic CSV/JSON files (floats printed with 9 significant digits) laid
out for external plotting; identical configuration and inputs produce
byte-identical files.

Exit codes: 0 success, 1 usage error, 2 validation failure, 3 assertion
failure (trotter-audit below threshold).
"""

import argparse
import csv
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

DEFAULT_GEOMETRY_J = {"zz": (0.0, 0.5, 1.0, 1.5, 2.0), "zzz": (0.0, 0.25, 1.0, 2.5, 5.0)}

SWEEP_HEADER = ("m", "J", "E0", "E1", "gap", "fid_instant") + coherence.REPORT_COLUMNS
RATIOS_HEADER = ("J", "CG_over_CL", "C23_over_CL", "C123_over_CA123", "C23_over_C123", "M")


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


def build_parser():
    common = _Parser(add_help=False)
    common.add_argument("--model", choices=models.MODEL_TAGS, default="zz")
    common.add_argument("--steps", "--m-steps", dest="steps", type=int, default=None,
                        help="number of schedule steps M (default: 300 for zz, 200 for zzz)")
    common.add_argument("--tau", type=float, default=None,
                        help="step interval (default: 0.7 for zz, 0.4 for zzz)")
    common.add_argument("--schedule", default="linear",
                        help="schedule kind: linear, adaptive, or file:PATH (default linear)")
    common.add_argument("--out", default=".", help="output directory (default current)")
    common.add_argument("--log-base", choices=("2", "e"), default="2")

    parser = _Parser(prog="tricoh", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", parents=[common], help="exact sweep + evolved fidelities to CSV")
    p.add_argument("--mu", type=float, default=1.0,
                   help="pseudopure mixing parameter for reported fidelities (default 1)")

    sub.add_parser("ratios", parents=[common], help="coherence ratio columns and monogamy to CSV")

    p = sub.add_parser("geometry", parents=[common], help="tetrahedron embeddings at sample couplings")
    p.add_argument("--j-values", default=None,
                   help="comma-separated coupling values (default: model-specific sample list)")

    p = sub.add_parser("tomo", parents=[common], help="validate density-matrix files and report coherences")
    p.add_argument("files", nargs="+", help="density-matrix JSON files")
    p.add_argument("--j", type=float, default=None,
                   help="coupling at which to compare against the exact ground state (default: sweep end)")
    p.add_argument("--repair", action="store_true", help="project invalid matrices to the nearest valid state")
    p.add_argument("--tol", type=float, default=1e-6, help="validation tolerance (default 1e-6)")

    sub.add_parser("trotter-audit", parents=[common], help="audit the per-step Trotter fidelity")

    p = sub.add_parser("schedule", parents=[common], help="emit a schedule (and optional refocusing table)")
    p.add_argument("--nmr-config", default=None,
                   help="JSON config with deltas/j_couplings; adds a refocusing CSV")
    return parser


def _resolve(args):
    model = models.model(args.model)
    steps = args.steps if args.steps is not None else model.steps
    tau = args.tau if args.tau is not None else model.tau
    base = 2.0 if args.log_base == "2" else math.e
    if steps < 1:
        raise ValueError(f"--steps must be at least 1, got {steps}")
    return steps, tau, base


def _make_schedule(args, steps, tau):
    kind = args.schedule
    if kind == "linear":
        return adiabatic.linear_schedule(args.model, steps, tau)
    if kind == "adaptive":
        return adiabatic.gap_adaptive_schedule(args.model, steps, tau)
    if kind.startswith("file:"):
        return adiabatic.load_schedule(kind[len("file:"):], args.model, tau)
    raise ValueError(f"unknown schedule kind {kind!r}: expected linear, adaptive, or file:PATH")


def _outpath(args, name):
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(x) if not isinstance(x, str) else x for x in row] for row in rows)


def cmd_sweep(args):
    steps, tau, base = _resolve(args)
    schedule = _make_schedule(args, steps, tau)
    result = adiabatic.evolve(schedule, mu=args.mu)
    reports = coherence.coherence_reports(states.density(result.ground_states), base=base)
    rows = [
        [m, j, result.ground_energies[m], result.excited_energies[m], result.gaps[m], result.fid_instant[m]]
        + coherence.report_values(rep)
        for m, (j, rep) in enumerate(zip(result.j_values, reports))
    ]
    path = _outpath(args, f"sweep_{args.model}.csv")
    _write_csv(path, SWEEP_HEADER, rows)
    print(f"wrote {path}")
    print(
        f"min_fidelity={_fmt(result.min_fidelity)} final_fidelity={_fmt(result.final_fidelity)} "
        f"ground_target_fidelity={_fmt(result.ground_target_fidelity)}"
    )
    return 0


def cmd_ratios(args):
    steps, tau, base = _resolve(args)
    schedule = _make_schedule(args, steps, tau)
    sweep = adiabatic.ground_sweep(schedule)
    reports = coherence.coherence_reports(states.density(sweep.ground_states), base=base)

    def ratio(num, den):
        return num / den if den >= 1e-9 else None

    rows = []
    for j, rep in zip(sweep.j_values, reports):
        rows.append(
            [
                j,
                ratio(rep.c_global, rep.c_local),
                ratio(rep.c_2_3, rep.c_local),
                ratio(rep.c_1_23, rep.c_abs_1_23),
                ratio(rep.c_2_3, rep.c_1_23),
                rep.monogamy_m,
            ]
        )
    path = _outpath(args, f"ratios_{args.model}.csv")
    _write_csv(path, RATIOS_HEADER, rows)
    print(f"wrote {path}")
    return 0


def cmd_geometry(args):
    _, _, base = _resolve(args)
    if args.j_values is not None:
        j_list = [float(x) for x in args.j_values.split(",") if x.strip() != ""]
        if not j_list:
            raise ValueError("--j-values must contain at least one coupling")
    else:
        j_list = list(DEFAULT_GEOMETRY_J[args.model])
    _, grounds, _ = qmat.ground_states(models.hamiltonian(args.model, j_list))
    reports = coherence.coherence_reports(states.density(grounds), base=base)
    records = []
    for j, rep in zip(j_list, reports):
        tet = coherence.embed_tetrahedron(rep)
        records.append(
            {
                "j": _round9(j),
                "coherences": {
                    name: _round9(value)
                    for name, value in zip(coherence.REPORT_COLUMNS, coherence.report_values(rep))
                },
                "points": {
                    "rho": [_round9(x) for x in tet.rho],
                    "pi_product": [_round9(x) for x in tet.pi_product],
                    "pi_product_dephased": [_round9(x) for x in tet.pi_product_dephased],
                    "split_1_23": [_round9(x) for x in tet.split_1_23],
                },
                "residual": _round9(tet.residual),
            }
        )
    path = _outpath(args, f"geometry_{args.model}.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(records, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


def cmd_tomo(args):
    _, _, base = _resolve(args)
    j = args.j if args.j is not None else models.model(args.model).j_range[1]
    ground_density = states.density(qmat.ground_state(models.hamiltonian(args.model, j)).state)
    header = ("file", "J", "fidelity", "herm_dev", "trace_dev", "min_eig", "repaired") + coherence.REPORT_COLUMNS
    rows = []
    for path in args.files:
        rho_raw = qmat.load_density(path)
        rho, checks = qmat.validate_density(rho_raw, tol=args.tol, repair=args.repair)
        repaired = bool(np.abs(rho - rho_raw).max() > args.tol)
        fid = qmat.root_fidelity(rho, ground_density)
        rep = coherence.coherence_report(rho, base=base)
        rows.append(
            [os.path.basename(path), j, fid, checks["herm_dev"], checks["trace_dev"], checks["min_eig"],
             "yes" if repaired else "no"]
            + coherence.report_values(rep)
        )
        print(f"{os.path.basename(path)}: fidelity {_fmt(fid)} (J={_fmt(j)}, repaired={repaired})")
    out = _outpath(args, "tomo_report.csv")
    _write_csv(out, header, rows)
    print(f"wrote {out}")
    return 0


def cmd_trotter_audit(args):
    steps, tau, _ = _resolve(args)
    schedule = _make_schedule(args, steps, tau)
    rows = []
    worst = (1.0, 0, 0.0)
    fids = qmat.unitary_fidelity(*adiabatic.trotter_pair(args.model, schedule.values, tau))
    for m, (j, f) in enumerate(zip(schedule.values, fids)):
        rows.append([m, j, f])
        if f < worst[0]:
            worst = (f, m, j)
    path = _outpath(args, f"trotter_audit_{args.model}.csv")
    _write_csv(path, ("m", "J", "unitary_fidelity"), rows)
    print(f"wrote {path}")

    lo, hi = models.model(args.model).j_range
    print(f"error-scaling ratios at tau={_fmt(RATIO_TABLE_TAU)} (expected near 8):")
    couplings = np.linspace(lo, hi, 5)
    for j, ratio in zip(couplings, adiabatic.trotter_error_scaling(args.model, couplings, RATIO_TABLE_TAU)):
        print(f"  J={_fmt(j)}: ratio={_fmt(ratio)}")

    print(f"min unitary fidelity {_fmt(worst[0])} at step {worst[1]} (J={_fmt(worst[2])}), tau={_fmt(tau)}")
    if worst[0] <= TROTTER_FIDELITY_THRESHOLD:
        print(f"FAIL: below threshold {TROTTER_FIDELITY_THRESHOLD}")
        return 3
    print(f"PASS: above threshold {TROTTER_FIDELITY_THRESHOLD}")
    return 0


def cmd_schedule(args):
    steps, tau, _ = _resolve(args)
    schedule = _make_schedule(args, steps, tau)
    path = _outpath(args, f"schedule_{args.model}.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump([_round9(v) for v in schedule.values], fh)
        fh.write("\n")
    print(f"wrote {path}")
    if args.nmr_config:
        nmr = models.load_nmr_params(args.nmr_config)
        model_params = models.ModelParams()
        ref = adiabatic.refocus_params(nmr, schedule, model_params.omega_z, omega_x=model_params.omega_x)
        for notice in ref.notices:
            print(notice)
        csv_path = _outpath(args, f"refocus_{args.model}.csv")
        header = ("m", "J", *ref.columns, "pulse_angle")
        rows = [
            [m, j, *(col[i] for col in ref.columns.values()), ref.pulse_angle]
            for i, (m, j) in enumerate(zip(ref.m_indices, ref.j_values))
        ]
        _write_csv(csv_path, header, rows)
        print(f"wrote {csv_path}")
    return 0


_COMMANDS = {
    "sweep": cmd_sweep,
    "ratios": cmd_ratios,
    "geometry": cmd_geometry,
    "tomo": cmd_tomo,
    "trotter-audit": cmd_trotter_audit,
    "schedule": cmd_schedule,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
