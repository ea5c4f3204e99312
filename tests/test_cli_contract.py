"""The command line's contract on odd and bad input, as one table of runs.

Each case writes its input files, runs ``cli.main`` on its argv with
``--steps 3`` where the verb builds a schedule, and checks the contract of
every run: the exit code is 0, 1, 2 or 3; nothing escapes ``cli.main``, not
even a warning (the suite turns warnings into errors); a failure (exit 1 or 2) prints exactly one ``error:`` line,
which names the path or option at fault, and writes no file; and every
number cell of a written CSV or JSON file is finite, apart from the
``ratios`` cells left empty.
"""

import csv
import json
import math
import os
import re

import numpy as np
import pytest

from tricoh import cli

NMR = {"deltas": [7792.0, 15480.0, 3845.0],
       "j_couplings": [[0.0, 47.6, 160.7], [47.6, 0.0, 25.7], [160.7, 25.7, 0.0]]}
SCHEDULE = [0.0, 0.5, 1.0, 1.5, 2.0]
DENSITY = np.eye(8) / 8
# file contents: a missing file and a directory in the file's place
MISSING, DIRECTORY = object(), object()
# a refocusing table the couplings and schedule cannot build names the spin pair or the step at fault
REFOCUS_FAULT = r"|coupling J\d\d = \S+ Hz |refocusing column \w+ must be finite, got \S+ at step m=\d+ with J="

# each number as it reads on the command line and as a JSON value
NUMBERS = {
    "nan": ("nan", math.nan), "inf": ("inf", math.inf), "-inf": ("-inf", -math.inf),
    "-0.0": ("-0.0", -0.0), "5e-324": ("5e-324", 5e-324), "1e-300": ("1e-300", 1e-300),
    "1e308": ("1e308", 1e308), "2**53+1": (str(2**53 + 1), 2**53 + 1), "text": ("x", "x"),
}


def density_json(rho):
    rho = np.asarray(rho, dtype=complex)
    return {"dim": len(rho), "re": rho.real.tolist(), "im": rho.imag.tolist()}


def nested(depth, leaf=0.125):
    """``depth`` levels of one-item lists around ``leaf``, as JSON text (no recursion, any depth)."""
    return "[" * depth + json.dumps(leaf) + "]" * depth


def density_with(entry):
    payload = density_json(DENSITY)
    payload["re"][0][0] = entry
    return payload


def nmr_with(j12):
    payload = json.loads(json.dumps(NMR))
    payload["j_couplings"][0][1] = payload["j_couplings"][1][0] = j12
    return payload


# the verbs that read each input file, with the input's argv; ``{f}`` is its path
LOADERS = {
    "tomo": [["tomo", "{f}"], ["tomo", "--repair", "{f}"]],
    "schedule_file": [["sweep", "--schedule", "file:{f}"],
                      ["schedule", "--schedule", "file:{f}", "--nmr-config", "{nmr}"]],
    "nmr_config": [["schedule", "--nmr-config", "{f}"], ["schedule", "--schedule", "adaptive", "--nmr-config", "{f}"]],
}


def loader_content(loader, value_json):
    """File text with the loader's array replaced by ``value_json`` (JSON text)."""
    if loader == "tomo":
        return '{"dim": 8, "re": %s, "im": %s}' % (value_json, json.dumps(np.zeros((8, 8)).tolist()))
    if loader == "schedule_file":
        return value_json
    return '{"deltas": %s, "j_couplings": %s}' % (json.dumps(NMR["deltas"]), value_json)


def loader_with_number(loader, number):
    if loader == "tomo":
        return json.dumps(density_with(number))
    if loader == "schedule_file":
        return json.dumps([0.0, number, 2.0])
    return json.dumps(nmr_with(number))


def json_cases():
    shapes = {
        "ragged": {"tomo": json.dumps([[0.125] * 8] * 7 + [[0.125] * 7]), "schedule_file": "[[0.0], [1.0, 2.0]]",
                   "nmr_config": "[[0.0, 47.6, 160.7], [47.6, 0.0], [160.7, 25.7, 0.0]]"},
        "object": {loader: '{"a": 1}' for loader in LOADERS},
        "empty_array": {loader: "[]" for loader in LOADERS},
        "huge_values": {"tomo": json.dumps(np.full((8, 8), 1e308).tolist()), "schedule_file": "[0.0, 1e308, 2.0]",
                        "nmr_config": json.dumps([[0.0, 1e308, 1e308], [1e308, 0.0, 1e308], [1e308, 1e308, 0.0]])},
        "huge_int": {"tomo": json.dumps([[10**400] * 8] * 8), "schedule_file": f"[0.0, {10**400}, 2.0]",
                     "nmr_config": json.dumps([[0, 10**400, 1], [10**400, 0, 1], [1, 1, 0]])},
        **{f"nested_{depth}": {loader: nested(depth) for loader in LOADERS} for depth in (2, 33, 64, 65, 100000)},
    }
    for name, by_loader in shapes.items():
        for loader, value_json in by_loader.items():
            yield f"json-{name}-{loader}", loader, loader_content(loader, value_json)
    for loader in LOADERS:
        yield f"json-empty_file-{loader}", loader, ""
        yield f"json-not_json-{loader}", loader, "[0.0, "
        for name, (_, number) in NUMBERS.items():
            yield f"json-number_{name}-{loader}", loader, loader_with_number(loader, number)


def cases():
    """Params (argv, files, fault): ``files`` maps names to text, ``fault`` is a regex the error line must match."""
    out = []

    def add(case_id, argv, files, fault):
        out.append(pytest.param(argv, files, fault, id=case_id))

    # numbers in every numeric option
    options = {
        "sweep-tau": (["sweep", "--tau"], "tau"), "sweep-mu": (["sweep", "--mu"], "mu"),
        "trotter_audit-tau": (["trotter-audit", "--tau"], "tau"),
        "ratios_zzz-tau": (["ratios", "--model", "zzz", "--tau"], "tau"),
        "schedule_nmr-tau": (["schedule", "--nmr-config", "{nmr}", "--tau"], "tau"),
        "geometry-j_values": (["geometry", "--j-values"], r"--j-values|j2 must"),
        "tomo-j": (["tomo", "{rho}", "--j"], r"--j\b|j2 must"), "tomo-tol": (["tomo", "{rho}", "--tol"], "tol"),
        "tomo_repair-tol": (["tomo", "{rho}", "--repair", "--tol"], "tol"),
    }
    for label, (argv, fault) in options.items():
        for name, (text, _) in NUMBERS.items():
            add(f"option-{label}-{name}", [*argv, text], {}, fault)
    for text in ("0", "-1", "x", "1e308", "-0.0"):
        add(f"option-sweep-steps-{text}", ["sweep", "--steps", text], {}, "steps")
    # an option the verb does not take is a usage error
    add("option-geometry-steps", ["geometry", "--steps", "5"], {}, "--steps")
    # a step count past the ceiling fails by name before its schedule is allocated
    add("option-sweep-steps-2**53+1", ["sweep", "--steps", str(2**53 + 1)], {},
        rf"^error: m_steps must lie in \[1, 100000\], got {2**53 + 1}$")
    # malformed and odd JSON through every loader
    for case_id, loader, content in json_cases():
        for k, argv in enumerate(LOADERS[loader]):
            fault = "^error: {f}: " + (REFOCUS_FAULT if "--nmr-config" in argv else "")
            add(f"{case_id}-{k}", argv, {"f": content}, fault)
    # density-matrix files of each dimension
    for dim in (0, 1, 4, 8, 16):
        rho = np.eye(dim) / dim if dim else np.zeros((0, 0))
        add(f"dim-{dim}", ["tomo", "{f}"], {"f": json.dumps(density_json(rho))}, "{f}")
    # paths: non-ASCII, missing, a directory, and an --out that is a file
    valid = {"tomo": json.dumps(density_json(DENSITY)), "schedule_file": json.dumps(SCHEDULE),
             "nmr_config": json.dumps(NMR)}
    for loader, argvs in LOADERS.items():
        for k, argv in enumerate(argvs):
            add(f"path-non_ascii-{loader}-{k}", argv, {"f": valid[loader], "f_name": "é ü.json"}, "{f}")
            add(f"path-missing-{loader}-{k}", argv, {"f": MISSING}, "{f}")
            add(f"path-directory-{loader}-{k}", argv, {"f": DIRECTORY}, "{f}")
    add("path-out_is_a_file", ["sweep", "--out", "{f}"], {"f": "not a directory\n"}, "{f}")
    return out


GRID_VERBS = ("sweep", "ratios", "trotter-audit", "schedule")


def snapshot(root):
    """Every file under ``root`` with its bytes."""
    found = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                found[path] = fh.read()
    return found


def check_finite_cells(path):
    if path.endswith(".csv"):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        cells = [cell for row in rows for cell in row]
        numbers = []
        for cell in cells:
            try:
                numbers.append(float(cell))
            except ValueError:  # a file name, a yes/no flag or an empty ratios cell
                if os.path.basename(path).startswith("ratios_"):
                    assert cell == "", f"{path}: cell {cell!r}"
    else:
        def walk(x):
            if isinstance(x, dict):
                return [n for v in x.values() for n in walk(v)]
            if isinstance(x, list):
                return [n for v in x for n in walk(v)]
            return [x]

        with open(path, encoding="utf-8") as fh:
            numbers = [x for x in walk(json.load(fh)) if isinstance(x, (int, float))]
    bad = [x for x in numbers if not math.isfinite(x)]
    assert not bad, f"{path}: non-finite cells {bad[:3]}"


@pytest.mark.parametrize("argv, files, fault", cases())
def test_cli_contract(tmp_path, capsys, argv, files, fault):
    inputs = tmp_path / "in"
    inputs.mkdir()
    paths = {"nmr": inputs / "nmr.json", "rho": inputs / "rho.json"}
    paths["nmr"].write_text(json.dumps(NMR))
    paths["rho"].write_text(json.dumps(density_json(DENSITY)))
    if "f" in files:
        paths["f"] = inputs / files.get("f_name", "input.json")
        if files["f"] is DIRECTORY:
            paths["f"].mkdir()
        elif files["f"] is not MISSING:
            paths["f"].write_text(files["f"], encoding="utf-8")
    argv = [arg.format(**{k: str(v) for k, v in paths.items()}) for arg in argv]
    out = str(tmp_path / "out")
    if "--out" not in argv:
        argv += ["--out", out]
    argv += ["--model", "zz"] if "--model" not in argv else []
    if argv[0] in GRID_VERBS:
        argv[1:1] = ["--steps", "3"]
    before = snapshot(tmp_path)

    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()

    assert code in (0, 1, 2, 3)
    assert "Traceback" not in captured.err and "Warning" not in captured.err
    if code in (1, 2):
        lines = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(lines) == 1, captured.err
        assert re.search(fault.format(**{k: re.escape(str(v)) for k, v in paths.items()}), lines[0]), lines[0]
        assert snapshot(tmp_path) == before
    else:
        assert "error:" not in captured.err
        written = sorted(set(snapshot(tmp_path)) - set(before))
        assert written
        for path in written:
            check_finite_cells(path)
