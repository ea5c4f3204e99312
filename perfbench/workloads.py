"""The benchmark's workloads: their items, generated inputs and output checks.

An item is one request of a closed loop: the caller issues it, waits for it
to return, checks its outputs, and only then issues the next one. Items reach
the program through its public entry points only: ``tricoh.cli.main(argv)``
in-process, or library calls. Why each workload exists:

- ``sweep_reports``: the figure pipeline. ``sweep``, ``ratios`` and
  ``geometry`` for both models on the default grids, plus one adaptive
  sweep. About 90% of its time is coherence reports on pure states (nine
  QJSD distances per step), so it is where QJSD work shows.
- ``adiabatic_design``: schedule design and dynamics with no coherence
  reports. Trotter audits, schedules with NMR tables, evolutions on linear
  and adaptive schedules, the perturbative endpoint fidelities and the
  step-count search. It exercises models, eigendecomposition, propagation
  and the schedule solver; the coherence layer does no work here.
- ``tomo_batch``: density-matrix files generated from the seed, scored by
  ``tomo --repair`` in fixed-size batches. Mixed states read from files,
  where ``sweep_reports`` has pure states and CSV writes.

Only ``tomo_batch`` depends on the seed; the other two run the paper's fixed
grids and are checked against reference outputs captured from the seed
commit (``reference/fixed_items.json.gz``).
"""

import contextlib
from dataclasses import dataclass
import gzip
import io
import json
import math
from pathlib import Path
import re
from typing import Callable

import numpy as np

from tricoh import adiabatic, cli, models, perturbation

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_PATH = HERE / "reference" / "fixed_items.json.gz"
NMR_CONFIG = ROOT / "configs" / "nmr_params.json"

# the paper's default grids: (steps, tau) and coupling range per model
GRID = {"zz": (300, 0.7), "zzz": (200, 0.4)}
J_RANGE = {"zz": (0.0, 2.0), "zzz": (0.0, 5.0)}
GEOMETRY_POINTS = 5
SEARCH_TARGETS = (0.9, 0.99, 0.999)

TOMO_FILES = 48
TOMO_BATCH = 8
TOMO_HEADER = (
    "file,J,fidelity,herm_dev,trace_dev,min_eig,repaired,C_T,C_G,C_L,C_A,C_1_23,C_2_3,"
    "C_A_1_23,C_1_2,C_1_3,M,slack7,slack10a,slack10b,slack11"
)
# columns that are QJSD distances, hence in [0, 1] in base-2 units
TOMO_DISTANCES = ("C_T", "C_G", "C_L", "C_A", "C_1_23", "C_2_3", "C_A_1_23", "C_1_2", "C_1_3")
TOMO_SLACKS = ("slack7", "slack10a", "slack10b", "slack11")
SLACK_FLOOR = -1e-8

OUT_MARK = "<out>"


@dataclass
class Output:
    """What an item returned: its exit code and its standard output."""

    rc: int
    stdout: str


@dataclass
class Item:
    """One request of a workload.

    ``call(out_dir)`` runs it; ``check(out_dir, output)`` returns a list of
    problems (empty when the outputs are correct); ``units(output)`` is the
    work it delivered: J points for schedule work, matrices for tomography.
    """

    name: str
    call: Callable[[str], Output]
    check: Callable[[str, Output], list]
    units: Callable[[Output], int]


@dataclass
class Workload:
    name: str
    items: list
    warmup: Item


# ---------------------------------------------------------------- running


def run_cli(argv, out_dir):
    """``tricoh.cli.main`` in-process, looked up at call time so tracing sees it."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv) + ["--out", out_dir])
    return Output(rc=rc, stdout=buf.getvalue())


def _text(values):
    """Render library results as ``name=value`` lines with every digit."""
    lines = []
    for key, value in values.items():
        if isinstance(value, (list, tuple, np.ndarray)):
            value = ",".join(repr(float(v)) for v in value)
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- reference check

_SEPARATORS = re.compile(r'([\s,\[\]{}:="()]+)')


def same_to_9_digits(got, ref):
    """True when ``got`` is within one unit of the 9th significant digit of ``ref``."""
    if not (math.isfinite(got) and math.isfinite(ref)):
        return False
    if ref == 0.0:
        return got == 0.0
    unit = 10.0 ** (math.floor(math.log10(abs(ref))) - 8)
    return abs(got - ref) <= unit * (1.0 + 1e-6)


def compare_text(got, ref):
    """First difference between two outputs, or None.

    Separators and words must match exactly; numbers must agree to one unit
    in the 9th significant digit, so a recorded ``%.9g`` digit flip passes.
    """
    g = _SEPARATORS.split(got)
    r = _SEPARATORS.split(ref)
    if len(g) != len(r):
        return f"{len(g)} tokens, reference has {len(r)}"
    for k, (a, b) in enumerate(zip(g, r)):
        if a == b:
            continue
        if k % 2:
            return f"separator {a!r} where reference has {b!r}"
        try:
            x, y = float(a), float(b)
        except ValueError:
            return f"{a!r} where reference has {b!r}"
        if not same_to_9_digits(x, y):
            return f"{a} where reference has {b}"
    return None


_REFERENCE = None


def reference():
    global _REFERENCE
    if _REFERENCE is None:
        with gzip.open(REFERENCE_PATH, "rt", encoding="utf-8") as fh:
            _REFERENCE = json.load(fh)["items"]
    return _REFERENCE


def capture(item, out_dir, files):
    """Run a fixed item once and return its outputs in reference form."""
    output = item.call(out_dir)
    record = {"rc": output.rc, "stdout": output.stdout.replace(out_dir, OUT_MARK), "files": {}}
    for name in files:
        record["files"][name] = (Path(out_dir) / name).read_text(encoding="ascii")
    return record


def _reference_check(name, files):
    def check(out_dir, output):
        ref = reference().get(name)
        if ref is None:
            return [f"no reference recorded for {name}"]
        problems = []
        if output.rc != ref["rc"]:
            problems.append(f"exit code {output.rc}, expected {ref['rc']}")
        diff = compare_text(output.stdout.replace(out_dir, OUT_MARK), ref["stdout"])
        if diff:
            problems.append(f"stdout: {diff}")
        for fname in files:
            path = Path(out_dir) / fname
            if not path.is_file():
                problems.append(f"{fname} missing")
                continue
            diff = compare_text(path.read_text(encoding="ascii"), ref["files"][fname])
            if diff:
                problems.append(f"{fname}: {diff}")
        return problems

    return check


# ---------------------------------------------------------------- fixed items


def _cli_item(name, argv, files, units):
    return Item(
        name=name,
        call=lambda out_dir: run_cli(argv, out_dir),
        check=_reference_check(name, files),
        units=lambda output: units,
    ), files


def _library_item(name, fn, units):
    return Item(
        name=name,
        call=lambda out_dir: Output(rc=0, stdout=_text(fn())),
        check=_reference_check(name, ()),
        units=units,
    ), ()


def _evolve(model, kind):
    steps, tau = GRID[model]
    if kind == "linear":
        schedule = adiabatic.linear_schedule(model, steps, tau)
    else:
        schedule = adiabatic.gap_adaptive_schedule(model, steps, tau)
    result = adiabatic.evolve(schedule)
    return {
        "min_fidelity": result.min_fidelity,
        "final_fidelity": result.final_fidelity,
        "ground_target_fidelity": result.ground_target_fidelity,
        "fid_instant": result.fid_instant,
    }


def _endpoints():
    params = models.ModelParams()
    j_zz, j_zzz = J_RANGE["zz"][1], J_RANGE["zzz"][1]
    secular = perturbation.secular_solve(perturbation.zzz_split(models.ModelParams(j3=j_zzz)))
    coeffs = np.asarray(secular.coefficients)
    return {
        "zz_fidelity": perturbation.zz_fidelity_formula(params.omega_x, params.omega_z, j_zz),
        "zzz_fidelity": perturbation.zzz_fidelity_formula(params.omega_x, j_zzz),
        "secular_shift": secular.energy_shift,
        "secular_re": coeffs.real,
        "secular_im": coeffs.imag,
    }


def _search(model, target):
    return {"m_steps": adiabatic.min_steps_search(model, target, GRID[model][1])}


def _search_units(output):
    return int(output.stdout.split("=")[1]) + 1


def fixed_items():
    """Every fixed-input item with the output files its check compares."""
    out = {}

    def add(pair):
        item, files = pair
        out[item.name] = (item, files)

    for model in ("zz", "zzz"):
        points = GRID[model][0] + 1
        add(_cli_item(f"sweep_{model}", ["sweep", "--model", model], [f"sweep_{model}.csv"], points))
        add(_cli_item(f"ratios_{model}", ["ratios", "--model", model], [f"ratios_{model}.csv"], points))
        add(_cli_item(f"geometry_{model}", ["geometry", "--model", model], [f"geometry_{model}.json"],
                      GEOMETRY_POINTS))
    add(_cli_item("sweep_zz_adaptive", ["sweep", "--model", "zz", "--schedule", "adaptive"],
                  ["sweep_zz.csv"], GRID["zz"][0] + 1))

    for model in ("zz", "zzz"):
        points = GRID[model][0] + 1
        add(_cli_item(f"trotter_audit_{model}_adaptive",
                      ["trotter-audit", "--model", model, "--schedule", "adaptive"],
                      [f"trotter_audit_{model}.csv"], points))
        add(_cli_item(f"schedule_{model}_nmr",
                      ["schedule", "--model", model, "--schedule", "adaptive", "--nmr-config", str(NMR_CONFIG)],
                      [f"schedule_{model}.json", f"refocus_{model}.csv"], points))
        for kind in ("linear", "adaptive"):
            add(_library_item(f"evolve_{model}_{kind}", lambda m=model, k=kind: _evolve(m, k),
                              lambda output, p=points: p))
    add(_library_item("perturbative_endpoints", _endpoints, lambda output: 2))
    for model in ("zz", "zzz"):
        for target in SEARCH_TARGETS:
            add(_library_item(f"min_steps_{model}_{target}", lambda m=model, t=target: _search(m, t),
                              _search_units))
    return out


SWEEP_REPORTS = ("sweep_zz", "sweep_zzz", "ratios_zz", "ratios_zzz", "geometry_zz", "geometry_zzz",
                 "sweep_zz_adaptive")
ADIABATIC_DESIGN = (
    "trotter_audit_zz_adaptive", "trotter_audit_zzz_adaptive", "schedule_zz_nmr", "schedule_zzz_nmr",
    "evolve_zz_linear", "evolve_zz_adaptive", "evolve_zzz_linear", "evolve_zzz_adaptive",
    "perturbative_endpoints",
    "min_steps_zz_0.9", "min_steps_zz_0.99", "min_steps_zz_0.999",
    "min_steps_zzz_0.9", "min_steps_zzz_0.99", "min_steps_zzz_0.999",
)

# the tracer self-check runs this item and counts its eigh/eigvalsh calls
SELFCHECK_ITEM = "sweep_zz"
SEED_KERNEL_CALLS = {"eigh": 11438, "eigvalsh": 8127}


# ---------------------------------------------------------------- tomography inputs

_SX = np.array([[0.0, 0.5], [0.5, 0.0]])
_SZ = np.diag([0.5, -0.5])


def _site(op, k):
    mats = [np.eye(2)] * 3
    mats[k] = op
    return np.kron(np.kron(mats[0], mats[1]), mats[2])


def model_hamiltonian(model, j):
    """The sweep models built here from Pauli matrices, independent of the program."""
    x = sum(_site(_SX, k) for k in range(3))
    z = [_site(_SZ, k) for k in range(3)]
    if model == "zz":
        return -2.0 * sum(z) + 0.1 * x + 2.0 * j * (z[0] @ z[1] + z[0] @ z[2] + z[1] @ z[2])
    return 0.1 * x + 4.0 * j * (z[0] @ z[1] @ z[2])


def _ginibre(rng, rank):
    a = rng.normal(size=(8, rank)) + 1j * rng.normal(size=(8, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _noisy_ground(rng, model):
    _, v = np.linalg.eigh(model_hamiltonian(model, rng.uniform(*J_RANGE[model])))
    rho = np.outer(v[:, 0], v[:, 0].conj())
    e = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = rho + 1e-3 * (e + e.conj().T) / 2 + 1e-5 * e
    return rho + np.eye(8) * rng.uniform(-1e-3, 1e-3) / 8


def tomo_inputs(seed, directory):
    """Write the seeded density-matrix files and return them in batches.

    A third are full-rank Ginibre states, a third low-rank states (ranks 1
    to 3), and a third noisy ground states of both models, which are not
    positive and have a trace off 1, so they need repair. The mix is fixed;
    the seed sets the matrices and their order.
    """
    rng = np.random.default_rng(seed)
    third = TOMO_FILES // 3
    kinds = ["full"] * third + ["low"] * third + ["noisy"] * (TOMO_FILES - 2 * third)
    rng.shuffle(kinds)
    paths = []
    for k, kind in enumerate(kinds):
        if kind == "full":
            rho = _ginibre(rng, 8)
        elif kind == "low":
            rho = _ginibre(rng, 1 + k % 3)
        else:
            rho = _noisy_ground(rng, ("zz", "zzz")[k % 2])
        path = Path(directory) / f"rho_{k:03d}.json"
        payload = {"dim": 8, "re": rho.real.tolist(), "im": rho.imag.tolist()}
        path.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="ascii")
        paths.append(str(path))
    return [paths[i:i + TOMO_BATCH] for i in range(0, len(paths), TOMO_BATCH)]


def _tomo_check(files):
    names = [Path(f).name for f in files]

    def check(out_dir, output):
        if output.rc != 0:
            return [f"exit code {output.rc}, expected 0"]
        problems = []
        lines = output.stdout.splitlines()
        if len(lines) != len(files) + 1:
            problems.append(f"{len(lines)} stdout lines, expected {len(files) + 1}")
        rows = (Path(out_dir) / "tomo_report.csv").read_text(encoding="ascii").splitlines()
        if rows[0] != TOMO_HEADER:
            return problems + [f"unexpected header {rows[0]!r}"]
        header = rows[0].split(",")
        if len(rows) - 1 != len(files):
            return problems + [f"{len(rows) - 1} report rows, expected {len(files)}"]
        for name, row in zip(names, rows[1:]):
            cells = dict(zip(header, row.split(",")))
            if cells["file"] != name:
                problems.append(f"row for {cells['file']}, expected {name}")
            if cells["repaired"] not in ("yes", "no"):
                problems.append(f"{name}: repaired={cells['repaired']!r}")
            values = {k: float(v) for k, v in cells.items() if k not in ("file", "repaired")}
            bad = [k for k, v in values.items() if not math.isfinite(v)]
            bad += [k for k in TOMO_DISTANCES + ("fidelity",) if not 0.0 <= values[k] <= 1.0]
            bad += [k for k in TOMO_SLACKS if values[k] < SLACK_FLOOR]
            if bad:
                problems.append(f"{name}: out of range {', '.join(f'{k}={cells[k]}' for k in bad)}")
        return problems

    return check


def _tomo_item(k, files):
    argv = ["tomo", *files, "--model", "zz", "--repair"]
    return Item(
        name=f"tomo_batch_{k}",
        call=lambda out_dir: run_cli(argv, out_dir),
        check=_tomo_check(files),
        units=lambda output: len(files),
    )


# ---------------------------------------------------------------- workloads

WORKLOADS = ("sweep_reports", "adiabatic_design", "tomo_batch")


def build(name, seed, input_dir):
    """The named workload; generates its inputs into ``input_dir``."""
    if name == "tomo_batch":
        items = [_tomo_item(k, batch) for k, batch in enumerate(tomo_inputs(seed, input_dir))]
        return Workload(name=name, items=items, warmup=items[0])
    fixed = fixed_items()
    if name == "sweep_reports":
        return Workload(name=name, items=[fixed[n][0] for n in SWEEP_REPORTS], warmup=fixed["geometry_zz"][0])
    if name == "adiabatic_design":
        return Workload(name=name, items=[fixed[n][0] for n in ADIABATIC_DESIGN],
                        warmup=fixed["schedule_zzz_nmr"][0])
    raise ValueError(f"unknown workload {name!r}, expected one of {WORKLOADS}")


def selfcheck_item():
    return fixed_items()[SELFCHECK_ITEM][0]
