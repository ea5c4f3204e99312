import argparse
import csv
import filecmp
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from tricoh import adiabatic, cli, coherence, models, qmat, states


def run_cli(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return rows


def column(rows, name):
    return np.array([float(r[name]) for r in rows])


def test_sweep_zz_row_count_and_crossover(tmp_path):
    assert run_cli(["sweep", "--model", "zz", "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "sweep_zz.csv")
    assert len(rows) == 301
    j = column(rows, "J")
    diff = column(rows, "C_L") - column(rows, "C_G")
    flips = np.where(np.sign(diff[:-1]) != np.sign(diff[1:]))[0]
    assert len(flips) >= 1
    k = flips[0]
    step = j[1] - j[0]
    # 1e-6 cushion absorbs the 9-significant-digit rounding of the CSV
    assert min(abs(j[k] - 1.0), abs(j[k + 1] - 1.0)) <= step + 1e-6


def test_sweep_zzz_crossover(tmp_path):
    assert run_cli(["sweep", "--model", "zzz", "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "sweep_zzz.csv")
    assert len(rows) == 201
    j = column(rows, "J")
    diff = column(rows, "C_L") - column(rows, "C_G")
    flips = np.where(np.sign(diff[:-1]) != np.sign(diff[1:]))[0]
    k = flips[0]
    step = j[1] - j[0]
    assert min(abs(j[k] - 0.25), abs(j[k + 1] - 0.25)) <= step + 1e-9


def test_sweep_tiny_and_steps_alias(tmp_path):
    assert run_cli(["sweep", "--model", "zz", "--m-steps", "2", "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "sweep_zz.csv")
    assert len(rows) == 3
    assert [r["m"] for r in rows] == ["0", "1", "2"]


def test_ratios_columns(tmp_path):
    assert run_cli(["ratios", "--model", "zz", "--steps", "60", "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "ratios_zz.csv")
    j = column(rows, "M")
    assert abs(j[0]) <= 1e-6
    assert all(float(r["M"]) > 0 for r in rows[1:])
    band = [float(r["C23_over_C123"]) for r in rows if float(r["J"]) >= 0.2 and r["C23_over_C123"] != ""]
    assert max(band) - min(band) < 0.05


def test_ratios_empty_cells_at_zero_denominator(tmp_path):
    assert run_cli(["ratios", "--model", "zz", "--steps", "10", "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "ratios_zz.csv")
    # at J=0 the ground state is a product state, so C123/CA123-type ratios vanish
    assert rows[0]["C23_over_C123"] == ""


def test_number_columns_take_the_one_call_format(monkeypatch):
    # the per-cell fallback of a column with a str or None cell writes the same text, so only a _fmt that
    # raises shows that an all-number column never reaches it
    def per_cell(x):
        raise AssertionError("an all-number column must be formatted in one call")

    mixed = cli._cells([0.5, None, "x"])
    monkeypatch.setattr(cli, "_fmt", per_cell)
    assert cli._cells(np.array([0.1, 2.0, -3e-12, 1 / 3])) == ["0.1", "2", "-3e-12", "0.333333333"]
    assert cli._cells(range(3)) == ["0", "1", "2"]
    assert cli._cells(np.array([], dtype=float)) == []
    assert mixed == ["0.5", "", "x"]


def test_geometry_records(tmp_path):
    assert run_cli(["geometry", "--model", "zzz", "--out", str(tmp_path)]) == 0
    records = json.loads((tmp_path / "geometry_zzz.json").read_text())
    assert [r["j"] for r in records] == [0.0, 0.25, 1.0, 2.5, 5.0]
    pairs = (
        ("rho", "pi_product_dephased", "C_A"),
        ("rho", "pi_product", "C_G"),
        ("pi_product", "pi_product_dephased", "C_L"),
        ("rho", "split_1_23", "C_1_23"),
        ("split_1_23", "pi_product_dephased", "C_A_1_23"),
        ("split_1_23", "pi_product", "C_2_3"),
    )
    for rec in records:
        assert sorted(rec["points"]) == sorted(coherence.Tetrahedron._fields[:4])
        pts = {k: np.array(v) for k, v in rec["points"].items()}
        for a, b, name in pairs:
            got = np.linalg.norm(pts[a] - pts[b])
            assert abs(got - rec["coherences"][name]) <= rec["residual"] + 1e-6
    # start point is a product state: everything collapses onto the x-axis
    first = records[0]
    for point in first["points"].values():
        assert abs(point[1]) < 1e-6 and abs(point[2]) < 1e-6
    # three-body sweep keeps C_A in a narrow band while C_L drops to near zero
    ca = [rec["coherences"]["C_A"] for rec in records]
    assert max(ca) - min(ca) < 0.01
    assert records[-1]["coherences"]["C_L"] < 0.05 < records[0]["coherences"]["C_L"]


def test_geometry_custom_j_values(tmp_path):
    assert run_cli(["geometry", "--model", "zz", "--j-values", "0.5,1.5", "--out", str(tmp_path)]) == 0
    records = json.loads((tmp_path / "geometry_zz.json").read_text())
    assert [r["j"] for r in records] == [0.5, 1.5]


@pytest.mark.parametrize("model", models.MODEL_TAGS)
def test_geometry_stacked_grounds_match_per_coupling_bitwise(model):
    # cmd_geometry takes its grounds from one stacked ground_states call
    j_list = list(models.model(model).geometry_j) + [0.123, 1.7]
    _, grounds, _ = qmat.ground_states(models.hamiltonian(model, j_list))
    for j, g in zip(j_list, grounds):
        assert g.tobytes() == qmat.ground_states(models.hamiltonian(model, j))[1].tobytes()


def test_tomo_exact_target_state(tmp_path):
    path = tmp_path / "w001.json"
    qmat.save_density(path, states.density(states.make_state("W001")))
    assert run_cli(["tomo", "--model", "zz", "--j", "2", str(path), "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "tomo_report.csv")
    assert abs(float(rows[0]["fidelity"]) - 0.9978) < 5e-4
    assert rows[0]["repaired"] == "no"


def test_tomo_maximally_mixed(tmp_path):
    path = tmp_path / "mixed.json"
    qmat.save_density(path, np.eye(8) / 8)
    assert run_cli(["tomo", "--model", "zz", str(path), "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "tomo_report.csv")
    for name in ("C_T", "C_G", "C_L", "C_A", "C_1_23", "C_2_3", "M"):
        assert abs(float(rows[0][name])) < 1e-6


def test_tomo_noisy_repair(tmp_path):
    rng = np.random.default_rng(81)
    g = qmat.ground_states(models.hamiltonian("zz", 2.0))[1]
    rho = states.density(g)
    w, v = np.linalg.eigh(rho)
    w = w + rng.uniform(-1e-4, 1e-4, size=8)
    path = tmp_path / "noisy.json"
    qmat.save_density(path, (v * w) @ v.conj().T)
    assert run_cli(["tomo", "--model", "zz", "--j", "2", str(path), "--out", str(tmp_path)]) == 2
    assert run_cli(["tomo", "--model", "zz", "--j", "2", "--repair", str(path), "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "tomo_report.csv")
    assert float(rows[0]["fidelity"]) >= 0.999
    assert rows[0]["repaired"] == "yes"


def test_tomo_repair_of_valid_matrix_reports_unchanged(tmp_path, capsys):
    path = tmp_path / "w001.json"
    qmat.save_density(path, states.density(states.make_state("W001")))
    assert run_cli(["tomo", "--model", "zz", "--j", "2", "--repair", str(path), "--out", str(tmp_path)]) == 0
    assert read_csv(tmp_path / "tomo_report.csv")[0]["repaired"] == "no"
    assert "repaired=False" in capsys.readouterr().out


def test_tomo_without_repair_reports_states_within_tolerance(tmp_path, states_within_tomo_tolerance):
    paths = [tmp_path / "skewed.json", tmp_path / "negative.json"]
    for path, rho in zip(paths, states_within_tomo_tolerance):
        qmat.save_density(path, rho)
    assert run_cli(["tomo", "--model", "zz", *map(str, paths), "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "tomo_report.csv")
    assert [row["repaired"] for row in rows] == ["no", "no"]
    reports = coherence.coherence_reports(np.array([qmat.load_density(p) for p in paths]))
    for row, rep in zip(rows, reports):
        assert [row[c] for c in coherence.REPORT_COLUMNS] == [f"{x:.9g}" for x in rep]


def test_tomo_reports_a_failed_cross_check_under_its_file(tmp_path, capsys, state_failing_cross_check):
    ok, bad = tmp_path / "ok.json", tmp_path / "negative.json"
    qmat.save_density(ok, np.eye(8) / 8)
    qmat.save_density(bad, state_failing_cross_check)
    assert qmat.validate_density(qmat.load_density(bad), tol=1e-6)[1]["min_eig"] < -4e-7
    argv = ["tomo", "--model", "zz", str(ok), str(bad), "--out", str(tmp_path)]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: qjsd cross-check failed: defining form ")
    assert not (tmp_path / "tomo_report.csv").exists()
    assert run_cli([*argv, "--repair"]) == 0


def seeded_density_files(directory, seed, count, failing=None, failing_index=None):
    # ``count`` seeded full-rank mixed states as density files, one of them replaced by ``failing``
    rng = np.random.default_rng(seed)
    paths = []
    for k in range(count):
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        rho = a @ a.conj().T
        paths.append(directory / f"f{k}.json")
        qmat.save_density(paths[-1], failing if k == failing_index else rho / np.trace(rho).real)
    return paths


def test_tomo_over_two_report_chunks_blames_the_file_and_repeats_its_bytes(
    tmp_path, capsys, monkeypatch, no_thread, state_failing_cross_check
):
    # 20 files span two report chunks; a second run writes the same bytes
    paths = seeded_density_files(tmp_path, 91, 20, state_failing_cross_check, 17)
    chunks = []

    def spy(rho, *args, _fn=coherence._report_stacks):
        chunks.append(len(rho))
        return _fn(rho, *args)

    monkeypatch.setattr(coherence, "_report_stacks", spy)
    files = [str(path) for path in paths]
    assert run_cli(["tomo", *files, "--out", str(tmp_path / "first")]) == 2
    out, err = capsys.readouterr()
    assert [line.split(": fidelity ")[0] for line in out.splitlines()] == [f"f{k}.json" for k in range(20)]
    assert err.startswith(f"error: {paths[17]}: qjsd cross-check failed")
    assert not (tmp_path / "first" / "tomo_report.csv").exists()
    assert run_cli(["tomo", *files, "--repair", "--out", str(tmp_path / "first")]) == 0
    assert chunks == [16, 4, 16, 4]
    assert run_cli(["tomo", *files, "--repair", "--out", str(tmp_path / "second")]) == 0
    assert chunks == [16, 4] * 3
    assert filecmp.cmp(*(tmp_path / run / "tomo_report.csv" for run in ("first", "second")), shallow=False)


def test_no_verb_starts_a_thread_or_loads_the_thread_pool(tmp_path, no_thread):
    files = [str(path) for path in seeded_density_files(tmp_path, 93, 20)]
    out = ["--out", str(tmp_path)]
    assert run_cli(["sweep", "--model", "zz", *out]) == 0
    assert run_cli(["ratios", "--model", "zzz", *out]) == 0
    assert run_cli(["tomo", "--repair", *files, *out]) == 0
    # a fresh process, as a shell user runs it, never imports the thread pool
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = ("import sys\nfrom tricoh import cli\nassert cli.main(['sweep', '--model', 'zz', '--out', sys.argv[1]]) == 0\n"
              "assert 'concurrent.futures' not in sys.modules\n")
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "fresh")], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert filecmp.cmp(tmp_path / "sweep_zz.csv", tmp_path / "fresh" / "sweep_zz.csv", shallow=False)


def test_tomo_names_the_trace_and_spectrum_a_loose_tolerance_let_through(tmp_path, capsys):
    # --tol 1e-2 accepts a trace 7e-3 off 1 and a lowest eigenvalue -3.6e-3, which the
    # coherence report cannot score; the error says so and points to --repair
    a = np.random.default_rng(2).standard_normal((8, 8, 2)) @ [1, 1j]
    _, v = np.linalg.eigh(a @ a.conj().T)
    w = np.array([-3.6e-3] + [1.0106 / 7] * 7)
    path = tmp_path / "loose.json"
    qmat.save_density(path, (v * w) @ v.conj().T)
    argv = ["tomo", "--model", "zz", str(path), "--tol", "1e-2", "--out", str(tmp_path)]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: qjsd cross-check failed: ") and err.count("\n") == 1
    assert "trace differs from 1 by 7.000e-03 and its lowest eigenvalue is -3.600e-03" in err
    assert err.endswith("which --repair corrects\n")
    assert not (tmp_path / "tomo_report.csv").exists()
    assert run_cli([*argv, "--repair"]) == 0


def test_tomo_missing_file(tmp_path, capsys):
    # the stack validated before the error is raised is empty
    absent = tmp_path / "absent.json"
    assert run_cli(["tomo", "--model", "zz", str(absent), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr() == ("", f"error: [Errno 2] No such file or directory: '{absent}'\n")
    assert not (tmp_path / "tomo_report.csv").exists()


HUGE_ENTRIES = {
    "all_1e308": np.full((8, 8), 1e308),
    "all_5e307": np.full((8, 8), 5e307),
    "all_1e307": np.full((8, 8), 1e307),
    "off_diagonal_5e307": 5e307 * (1.0 - np.eye(8)),  # finite trace and Hermitian part; an eigenvalue 3.5e308
}


@pytest.mark.parametrize("name, repair, message", [
    ("all_1e308", False, "density matrix entries too large: its trace, Hermitian part or spectrum overflows"),
    ("all_1e308", True, "density matrix entries too large: its trace, Hermitian part or spectrum overflows"),
    ("all_5e307", False, "density matrix entries too large: its trace, Hermitian part or spectrum overflows"),
    ("all_5e307", True, "density matrix entries too large: its trace, Hermitian part or spectrum overflows"),
    ("all_1e307", False, "trace differs from 1 by 8.000e+307, exceeds tolerance 1.0e-06"),
    ("all_1e307", True, None),  # repair gives |+++><+++|
    ("off_diagonal_5e307", False, "trace differs from 1 by 1.000e+00, exceeds tolerance 1.0e-06"),
    ("off_diagonal_5e307", True, "density matrix entries too large: its trace, Hermitian part or spectrum overflows"),
], ids=["1e308", "1e308_repair", "5e307", "5e307_repair", "1e307", "1e307_repair", "off_diagonal",
        "off_diagonal_repair"])
def test_tomo_huge_entries_fail_by_name_or_repair(tmp_path, capsys, name, repair, message):
    # runs with numpy warnings as errors (pyproject filterwarnings), so a warning fails the test
    path = tmp_path / f"{name}.json"
    qmat.save_density(path, HUGE_ENTRIES[name])
    out = tmp_path / "out"
    code = run_cli(["tomo", str(path), *(["--repair"] if repair else []), "--out", str(out)])
    captured = capsys.readouterr()
    if message is None:
        assert code == 0 and captured.err == ""
        (row,) = read_csv(out / "tomo_report.csv")
        ground = states.density(qmat.ground_states(models.hamiltonian("zz", 2.0))[1])
        want = qmat.root_fidelity(np.full((8, 8), 1 / 8), ground)
        assert row["repaired"] == "yes" and float(row["fidelity"]) == pytest.approx(want, abs=1e-7)
    else:
        assert (code, captured) == (2, ("", f"error: {path}: {message}\n"))
        assert not out.exists()


def test_trotter_audit_defaults_pass(tmp_path, capsys):
    for tag in models.MODEL_TAGS:
        assert run_cli(["trotter-audit", "--model", tag, "--out", str(tmp_path)]) == 0
        # the ratio table has one row for each of five couplings spanning the model's range
        table = re.findall(r"^  J=(.*): ratio=(.*)$", capsys.readouterr().out, flags=re.M)
        couplings = np.linspace(*models.model(tag).j_range, 5)
        ratios = adiabatic.trotter_error_scaling(tag, couplings, cli.RATIO_TABLE_TAU)
        assert table == [(cli._fmt(j), cli._fmt(r)) for j, r in zip(couplings, ratios)]
    rows = read_csv(tmp_path / "trotter_audit_zz.csv")
    assert len(rows) == 301
    assert column(rows, "unitary_fidelity").min() > 0.999


def test_trotter_audit_large_tau_fails(tmp_path, capsys):
    assert run_cli(["trotter-audit", "--model", "zz", "--steps", "20", "--tau", "3.0", "--out", str(tmp_path)]) == 3
    out = capsys.readouterr().out
    assert "FAIL" in out and "min unitary fidelity" in out


def test_trotter_audit_summary_names_the_worst_row_at_fidelity_one(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text(json.dumps([1.5]))
    argv = ["trotter-audit", "--model", "zzz", "--schedule", f"file:{path}", "--tau", "1e-6", "--out", str(tmp_path)]
    assert run_cli(argv) == 0
    (row,) = read_csv(tmp_path / "trotter_audit_zzz.csv")
    assert row["unitary_fidelity"] == "1"
    assert "min unitary fidelity 1 at step 0 (J=1.5), tau=1e-06\n" in capsys.readouterr().out


def test_schedule_verb_and_refocus(tmp_path, capsys):
    code = run_cli([
        "schedule", "--model", "zz", "--steps", "40", "--schedule", "adaptive",
        "--nmr-config", "configs/nmr_params.json", "--out", str(tmp_path),
    ])
    assert code == 0
    values = json.loads((tmp_path / "schedule_zz.json").read_text())
    assert len(values) == 41
    assert values[0] == 0.0 and abs(values[-1] - 2.0) < 1e-8
    assert all(b >= a for a, b in zip(values, values[1:]))
    out = capsys.readouterr().out
    assert "skipped step m=0" in out
    rows = read_csv(tmp_path / "refocus_zz.csv")
    assert len(rows) == 40
    for name in ("tau1", "tau2", "tau3"):
        assert column(rows, name).min() >= 0.0
    assert abs(float(rows[0]["pulse_angle"]) - 0.1 * 0.7 / 2) < 1e-9


def test_schedule_file_input(tmp_path):
    assert run_cli(["schedule", "--model", "zzz", "--steps", "30", "--schedule", "adaptive", "--out", str(tmp_path)]) == 0
    path = tmp_path / "schedule_zzz.json"
    out2 = tmp_path / "second"
    assert run_cli(["sweep", "--model", "zzz", "--steps", "30", "--schedule", f"file:{path}", "--out", str(out2)]) == 0
    rows = read_csv(out2 / "sweep_zzz.csv")
    got = column(rows, "J")
    want = json.loads(path.read_text())
    np.testing.assert_allclose(got, want, atol=1e-9)


def test_log_base_scaling(tmp_path):
    base2 = tmp_path / "b2"
    basee = tmp_path / "be"
    assert run_cli(["sweep", "--model", "zz", "--steps", "20", "--out", str(base2)]) == 0
    assert run_cli(["sweep", "--model", "zz", "--steps", "20", "--log-base", "e", "--out", str(basee)]) == 0
    ct2 = column(read_csv(base2 / "sweep_zz.csv"), "C_T")
    cte = column(read_csv(basee / "sweep_zz.csv"), "C_T")
    np.testing.assert_allclose(cte, ct2 * math.sqrt(math.log(2.0)), atol=1e-7)


def test_deterministic_outputs(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert run_cli(["sweep", "--model", "zzz", "--steps", "40", "--schedule", "adaptive", "--out", str(out)]) == 0
        assert run_cli(["geometry", "--model", "zz", "--out", str(out)]) == 0
    assert filecmp.cmp(a / "sweep_zzz.csv", b / "sweep_zzz.csv", shallow=False)
    assert filecmp.cmp(a / "geometry_zz.json", b / "geometry_zz.json", shallow=False)


def test_usage_errors_exit_one():
    assert run_cli(["sweep", "--model", "bogus"]) == 1
    assert run_cli(["not-a-verb"]) == 1
    assert run_cli([]) == 1


GRID = {"--steps", "--m-steps", "--tau", "--schedule"}


@pytest.mark.parametrize(
    "verb, options",
    [
        ("sweep", GRID | {"--log-base", "--mu"}),
        ("ratios", GRID | {"--log-base"}),
        ("geometry", {"--log-base", "--j-values"}),
        ("tomo", {"--log-base", "--j", "--repair", "--tol"}),
        ("trotter-audit", GRID),
        ("schedule", GRID | {"--nmr-config"}),
    ],
)
def test_each_verb_takes_only_the_options_it_reads(verb, options):
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    accepted = {s for a in sub.choices[verb]._actions for s in a.option_strings} - {"-h", "--help"}
    assert accepted == {"--model", "--out"} | options


def test_main_builds_the_parser_once_per_process(tmp_path, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    for _ in range(3):
        assert run_cli(["schedule", "--model", "zz", "--steps", "5", "--out", str(tmp_path)]) == 0
    assert len(built) == 1


SMALL_SWEEP = ["sweep", "--model", "zz", "--steps", "5"]


@pytest.mark.parametrize(
    "between, code",
    [
        (["sweep", "--mu", "0.5"], 0),
        (["sweep", "--model", "bogus"], 1),
        (["geometry", "--steps", "5"], 1),
        (["sweep", "--help"], 0),
    ],
    ids=["mu", "bad_choice", "foreign_option", "help"],
)
def test_reused_parser_keeps_no_state_between_calls(tmp_path, capsys, between, code):
    def call(argv, name):
        """Exit code, stdout, stderr and written files of one call, with its output directory masked."""
        out_dir = tmp_path / name
        rc = run_cli(argv + ["--out", str(out_dir)])
        out, err = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in out_dir.iterdir()} if out_dir.exists() else {}
        return rc, out.replace(str(out_dir), "OUT"), err, files

    cli._parser.cache_clear()
    lone_sweep = call(SMALL_SWEEP, "lone_sweep")
    cli._parser.cache_clear()
    lone_between = call(between, "lone_between")
    assert lone_between[0] == code
    cli._parser.cache_clear()
    calls = [call(SMALL_SWEEP, "first"), call(between, "between"), call(SMALL_SWEEP, "second")]
    assert calls == [lone_sweep, lone_between, lone_sweep]


@pytest.mark.parametrize(
    "argv",
    [
        ["geometry", "--tau", "nan"],
        ["geometry", "--steps", "0"],
        ["tomo", "f.json", "--schedule", "bogus"],
        ["trotter-audit", "--log-base", "e"],
    ],
)
def test_option_a_verb_does_not_read_is_a_usage_error(tmp_path, capsys, argv):
    assert run_cli(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: tricoh {argv[0]} ")
    assert "unrecognized arguments" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("verb, name", [("ratios", "ratios_zz.csv"), ("trotter-audit", "trotter_audit_zz.csv")])
def test_m_steps_alias(tmp_path, verb, name):
    assert run_cli([verb, "--model", "zz", "--m-steps", "3", "--out", str(tmp_path)]) == 0
    assert len(read_csv(tmp_path / name)) == 4


def test_validation_errors_exit_two(tmp_path, capsys):
    for schedule in ("linear", "adaptive"):
        for steps in ("0", str(2**53 + 1)):
            argv = ["sweep", "--model", "zz", "--steps", steps, "--schedule", schedule, "--out", str(tmp_path)]
            assert run_cli(argv) == 2
            assert capsys.readouterr().err == f"error: m_steps must lie in [1, 100000], got {steps}\n"
    assert run_cli(["sweep", "--model", "zz", "--schedule", "file:/nonexistent.json", "--out", str(tmp_path)]) == 2
    assert run_cli(["sweep", "--model", "zz", "--schedule", "spline", "--out", str(tmp_path)]) == 2
    assert run_cli(["geometry", "--model", "zz", "--j-values", "", "--out", str(tmp_path)]) == 2
    capsys.readouterr()
    assert run_cli(["geometry", "--model", "zz", "--j-values", "a,1", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: --j-values: could not convert string to float: 'a'\n"
    assert list(tmp_path.iterdir()) == []


def test_file_schedule_does_not_read_steps(tmp_path):
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps([0.0, 0.5, 2.0]))
    out = tmp_path / "out"
    assert run_cli(["sweep", "--model", "zz", "--schedule", f"file:{path}", "--steps", "0", "--out", str(out)]) == 0
    assert len(read_csv(out / "sweep_zz.csv")) == 3


@pytest.mark.parametrize("verb", ["sweep", "ratios", "trotter-audit", "schedule"])
def test_grid_help_shows_each_model_default(capsys, verb):
    assert run_cli([verb, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for tag, m in models.MODELS.items():
        assert f"{m.steps} for {tag}" in text and f"{m.tau} for {tag}" in text


def test_tomo_help_says_what_repair_does(capsys):
    # the repair clips and renormalizes, which is not the nearest valid state
    assert run_cli(["tomo", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "Hermitian part with negative eigenvalues clipped to 0 and the trace rescaled to 1" in text
    assert "not in general the nearest" in text


def test_couplings_outside_model_range_exit_two(tmp_path, capsys):
    for values in ("3", "nan", "-0.5"):
        assert run_cli(["geometry", "--model", "zz", "--j-values", values, "--out", str(tmp_path)]) == 2
        assert "j2 must lie in [0, 2]" in capsys.readouterr().err
    path = tmp_path / "w001.json"
    qmat.save_density(path, states.density(states.make_state("W001")))
    assert run_cli(["tomo", "--model", "zzz", "--j", "7", str(path), "--out", str(tmp_path)]) == 2
    assert "j3 must lie in [0, 5]" in capsys.readouterr().err


@pytest.mark.parametrize("values", [[0.0, 1.0, 2.0000000005], [-5e-10, 1.0, 2.0]], ids=["past_end", "before_start"])
def test_schedule_file_outside_range_rejected_by_every_verb(tmp_path, capsys, values):
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(values))
    for verb in ("schedule", "sweep"):
        assert run_cli([verb, "--model", "zz", "--schedule", f"file:{path}", "--out", str(tmp_path)]) == 2
        assert "j2 must lie in [0, 2], got " in capsys.readouterr().err


@pytest.mark.parametrize(
    "deltas, couplings, message",
    [
        ([7792.0, math.nan, 3845.0], [[0.0, 47.6, 160.7], [47.6, 0.0, 25.7], [160.7, 25.7, 0.0]],
         "chemical shift delta2 must be finite"),
        ([7792.0, 15480.0, 3845.0], [[0.0, 47.6, math.nan], [47.6, 0.0, 25.7], [math.nan, 25.7, 0.0]],
         "coupling J13 must be finite"),
        ([7792.0, 15480.0, 3845.0], [[0.0, -47.6, 160.7], [-47.6, 0.0, 25.7], [160.7, 25.7, 0.0]],
         "coupling J12 = -47.6 Hz must be positive"),
        ([7792.0, 15480.0, 3845.0], [[0.0, 1e-320, 160.7], [1e-320, 0.0, 25.7], [160.7, 25.7, 0.0]],
         "coupling J12 = 9.99989e-321 Hz is too small: its delay 1/(2 J12) overflows"),
    ],
    ids=["nan_shift", "nan_coupling", "negative_coupling", "tiny_coupling"],
)
def test_schedule_rejects_unphysical_nmr_config(tmp_path, capsys, deltas, couplings, message):
    path = tmp_path / "nmr.json"
    path.write_text(json.dumps({"deltas": deltas, "j_couplings": couplings}))
    for model in ("zz", "zzz"):
        assert run_cli(["schedule", "--model", model, "--nmr-config", str(path), "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / f"refocus_{model}.csv").exists()
        assert not (tmp_path / f"schedule_{model}.json").exists()


def test_schedule_rejects_an_empty_nmr_config_path(tmp_path, capsys):
    # an empty path is a path that cannot be read, not a missing option
    assert run_cli(["schedule", "--model", "zz", "--steps", "5", "--nmr-config", "", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(": ''\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("content, message", [
    (b'{"dim": 8, "re": }', "Expecting value: line 1 column 18 (char 17)"),
    (b'{"note": "\xc3\xa9"}', "'ascii' codec can't decode byte 0xc3"),
], ids=["bad_json", "non_ascii"])
@pytest.mark.parametrize("loader", ["tomo", "schedule_file", "nmr_config"])
def test_unreadable_json_input_names_the_file(tmp_path, capsys, loader, content, message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    ok = tmp_path / "ok.json"
    qmat.save_density(ok, np.eye(8) / 8)
    out = tmp_path / "out"
    argv = {
        "tomo": ["tomo", str(ok), str(bad)],
        "schedule_file": ["schedule", "--schedule", f"file:{bad}"],
        "nmr_config": ["schedule", "--nmr-config", str(bad)],
    }[loader]
    assert run_cli([*argv, "--model", "zz", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and message in err
    assert not out.exists()


NOT_NUMBERS = {"object": {"a": 1}, "string": "0.125", "bool": False, "null": None, "oversized_int": 10**400}


@pytest.mark.parametrize("case", [*NOT_NUMBERS, "ragged"])
@pytest.mark.parametrize("loader", ["tomo", "schedule_file", "nmr_config"])
def test_json_inputs_take_only_rectangular_arrays_of_numbers(tmp_path, capsys, loader, case):
    def spoil(rows):
        """A valid table with its first entry replaced by the case's value, or its last row cut short."""
        rows = [list(row) for row in rows]
        if case == "ragged":
            rows[-1].pop()
        else:
            rows[0][0] = NOT_NUMBERS[case]
        return rows

    path = tmp_path / "bad.json"
    if loader == "tomo":
        field, argv = "re", ["tomo", str(path)]
        content = {"dim": 8, "re": spoil(np.eye(8) / 8), "im": np.zeros((8, 8)).tolist()}
    elif loader == "schedule_file":
        field, argv = "schedule values", ["sweep", "--schedule", f"file:{path}"]
        content = [[0.0], [1.0, 2.0]] if case == "ragged" else [0.0, NOT_NUMBERS[case], 2.0]
    else:
        field, argv = "j_couplings", ["schedule", "--nmr-config", str(path)]
        couplings = [[0.0, 47.6, 160.7], [47.6, 0.0, 25.7], [160.7, 25.7, 0.0]]
        content = {"deltas": [7792.0, 15480.0, 3845.0], "j_couplings": spoil(couplings)}
    path.write_text(json.dumps(content))
    out = tmp_path / "out"
    assert run_cli([*argv, "--model", "zz", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {field} must be a rectangular array of JSON numbers\n"
    assert not out.exists()


def test_empty_schedule_file_names_the_file(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text("[]")
    assert run_cli(["sweep", "--model", "zz", "--schedule", f"file:{path}", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {path}: schedule needs at least one value\n"
    assert not (tmp_path / "out").exists()


def test_bad_tau_does_not_blame_the_schedule_file(tmp_path, capsys):
    path = tmp_path / "good.json"
    path.write_text(json.dumps(adiabatic.linear_schedule("zz", 4, 0.7).values.tolist()))
    argv = ["sweep", "--model", "zz", "--schedule", f"file:{path}", "--tau", "-1", "--out", str(tmp_path / "out")]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == "error: tau must lie in (0, inf), got -1.0\n"
    assert not (tmp_path / "out").exists()


def test_tomo_rejects_bad_tolerance(tmp_path, capsys):
    path = tmp_path / "negative.json"
    qmat.save_density(path, np.diag([1.2, -0.2, 0, 0, 0, 0, 0, 0]))
    for tol in ("nan", "inf", "-1"):
        assert run_cli(["tomo", "--model", "zz", "--tol", tol, str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "tolerance must lie in [0, inf)" in err
        assert path.name not in err
        assert err == f"error: tolerance must lie in [0, inf), got {float(tol)}\n"


def test_sweep_rejects_infinite_tau(tmp_path, capsys):
    assert run_cli(["sweep", "--model", "zz", "--steps", "4", "--tau", "inf", "--out", str(tmp_path)]) == 2
    assert "tau must lie in (0, inf), got " in capsys.readouterr().err


def test_sweep_rejects_nan_tau(tmp_path, capsys):
    assert run_cli(["sweep", "--model", "zz", "--steps", "4", "--tau", "nan", "--out", str(tmp_path)]) == 2
    assert "tau must lie in (0, inf), got " in capsys.readouterr().err


def test_sweep_rejects_nan_in_schedule_file(tmp_path, capsys):
    path = tmp_path / "schedule.json"
    path.write_text("[0.0, NaN, 2.0]\n")
    assert run_cli(["sweep", "--model", "zz", "--schedule", f"file:{path}", "--out", str(tmp_path)]) == 2
    assert "schedule values must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["sweep", "trotter-audit"])
def test_tau_overflowing_the_trotter_phases_exits_two(tmp_path, capsys, verb):
    assert run_cli([verb, "--model", "zz", "--tau", "1e308", "--steps", "3", "--out", str(tmp_path)]) == 2
    assert "tau 1e+308 is too large: the Trotter step phases overflow" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("dim, size", [(8.7, 8), (True, 1), ("8", 8)])
def test_tomo_rejects_non_integer_dim(tmp_path, capsys, dim, size):
    path = tmp_path / "bad_dim.json"
    path.write_text(json.dumps({"dim": dim, "re": np.eye(size).tolist(), "im": np.zeros((size, size)).tolist()}))
    assert run_cli(["tomo", "--model", "zz", str(path), "--out", str(tmp_path)]) == 2
    assert f"{path}: dim must be a JSON integer, got {json.dumps(dim)}" in capsys.readouterr().err


def test_tomo_quotes_file_names_in_csv(tmp_path):
    names = ['a,b.json', 'say "hi".json', "plain.json"]
    for name in names:
        qmat.save_density(tmp_path / name, np.eye(8) / 8)
    assert run_cli(["tomo", "--model", "zz", *(str(tmp_path / n) for n in names), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "tomo_report.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert len(header) == 21
    assert [len(row) for row in rows] == [21] * len(names)
    assert [row[0] for row in rows] == names
    lines = (tmp_path / "tomo_report.csv").read_text().splitlines()
    assert lines[1].startswith('"a,b.json",') and lines[2].startswith('"say ""hi"".json",')
    assert lines[3].startswith("plain.json,")


def test_csv_matches_per_cell_formatting():
    # every cell type the verbs write, against one csv.writer row per cell-formatted row
    table = {
        "m": range(5),
        "m64": np.arange(5, dtype=np.int64) * 7,
        "J": np.array([0.0, 1 / 3, -0.0, 5e-324, 1e300]),
        "E": np.array([np.nan, np.inf, -np.inf, 2.0**53 + 1, -1e-5]),
        "py": [0.1, float("nan"), float("inf"), -0.0, 5e-324],
        "ints": [0, -3, 2**53 + 1, 123456789012, True],
        "report": (np.float64(1 / 7), 0.5, np.float64(-2.5e-10), 3, np.float64(np.nan)),
        "ratio": [0.5, None, None, 1 / 7, np.float64(2.0)],
        "file": ["a,b.json", 'say "hi".json', "plain.json", "\u00e9.json", ""],
        "repaired": ("yes", "no", "no", "yes", "no"),
    }

    def reference(table):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(table)
        for row in zip(*table.values(), strict=True):
            writer.writerow([x if isinstance(x, str) else "" if x is None else f"{x:.9g}" for x in row])
        return buf.getvalue()

    text = cli._csv(table)
    assert text == reference(table)
    lines = text.splitlines()
    assert lines[1].endswith(',0.5,"a,b.json",yes') and lines[2].endswith(',,"say ""hi"".json",no')
    assert lines[2].split(",")[:6] == ["1", "7", "0.333333333", "inf", "nan", "-3"]
    empty = {"J": np.array([]), "file": [], "m": range(0)}
    assert cli._csv(empty) == reference(empty) == "J,file,m\n"


def test_tomo_errors_name_the_file(tmp_path, capsys):
    ok = tmp_path / "ok.json"
    qmat.save_density(ok, np.eye(8) / 8)
    bad = tmp_path / "bad.json"
    rho = np.eye(8) / 8
    rho[0, 1] = 0.3
    qmat.save_density(bad, rho)
    small = tmp_path / "small.json"
    qmat.save_density(small, np.eye(4) / 4)
    assert run_cli(["tomo", "--model", "zz", str(ok), str(bad), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: not Hermitian: max deviation 3.000e-01 exceeds tolerance 1.0e-06\n"
    assert run_cli(["tomo", "--model", "zz", str(ok), str(small), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {small}: dimension mismatch: (4, 4) vs (8, 8)\n"
    assert not (tmp_path / "tomo_report.csv").exists()


def test_tomo_non_ascii_file_name(tmp_path, capsys):
    names = ["ok.json", "\u00e9.json"]
    for name in names:
        qmat.save_density(tmp_path / name, np.eye(8) / 8)
    assert run_cli(["tomo", "--model", "zz", *(str(tmp_path / n) for n in names), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.endswith(f"wrote {tmp_path / 'tomo_report.csv'}\n")
    with open(tmp_path / "tomo_report.csv", encoding="utf-8", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert [row[0] for row in rows] == names
    assert [len(row) for row in rows] == [len(header)] * 2


@pytest.fixture
def tomo_files(tmp_path):
    """ok: a valid state; invalid: not Hermitian; missing: no such file; small_skew: a non-Hermitian 4x4; small_ok
    and small_ok2: the valid 4x4 state I/4; negative: -I/8, which --repair cannot mend; dir: a directory; f0 to f19:
    seeded full-rank states, with f13 replaced by invalid."""
    names = ("ok", "invalid", "missing", "small_skew", "small_ok", "small_ok2", "negative", "dir")
    paths = {name: tmp_path / f"{name}.json" for name in names}
    qmat.save_density(paths["ok"], np.eye(8) / 8)
    rho = np.eye(8) / 8
    rho[0, 1] = 0.3
    qmat.save_density(paths["invalid"], rho)
    small = np.eye(4) / 4
    small[0, 1] = 0.2
    qmat.save_density(paths["small_skew"], small)
    for name in ("small_ok", "small_ok2"):
        qmat.save_density(paths[name], np.eye(4) / 4)
    qmat.save_density(paths["negative"], -np.eye(8) / 8)
    paths["dir"].mkdir()
    (tmp_path / "seeded").mkdir()
    paths.update((path.stem, path) for path in seeded_density_files(tmp_path / "seeded", 94, 20, rho, 13))
    return paths


# each order is the argv of tomo, with files named as in tomo_files; the expected lines are those of the files
# before the blamed one, each as that file prints it alone. The first three also pin the printed digits of
# the ok line, whose last digit follows the OpenBLAS kernel set
TOMO_PINNED_ORDERS = [
    (("ok", "invalid", "missing"), "invalid"),
    (("ok", "missing", "invalid"), "missing"),
    (("ok", "small_skew", "invalid"), "small_skew"),
]
TOMO_BLAME_ORDERS = [
    *(pytest.param(*case, marks=pytest.mark.kernel_rounding) for case in TOMO_PINNED_ORDERS),
    (("ok", "small_ok", "missing"), "small_ok"),
    (("small_ok", "small_ok2"), "small_ok"),
    (("ok", "dir", "invalid"), "dir"),
    (("--repair", "ok", "negative", "invalid"), "negative"),
    (("ok", "invalid", "small_ok"), "invalid"),
    (tuple(f"f{k}" for k in range(20)), "f13"),
]


@pytest.mark.parametrize("order, blamed", TOMO_BLAME_ORDERS)
def test_tomo_blames_the_first_failing_file_after_the_lines_before_it(tmp_path, capsys, tomo_files, order, blamed):
    files = [name for name in order if name in tomo_files]
    options = [name for name in order if name not in tomo_files]
    alone = []
    for name in files[:files.index(blamed)]:
        assert run_cli(["tomo", "--model", "zz", str(tomo_files[name]), *options, "--out", str(tmp_path / name)]) == 0
        alone.append(capsys.readouterr().out.splitlines()[0] + "\n")
    out = tmp_path / "out"
    assert run_cli(["tomo", "--model", "zz", *(str(tomo_files[n]) for n in files), *options, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "".join(alone)
    if (order, blamed) in TOMO_PINNED_ORDERS:
        assert alone == ["ok.json: fidelity 0.353553393 (J=2, repaired=False)\n"]
    path = tomo_files[blamed]
    not_hermitian = f"error: {path}: not Hermitian: max deviation 3.000e-01 exceeds tolerance 1.0e-06\n"
    assert captured.err == {
        "invalid": not_hermitian,
        "f13": not_hermitian,
        "missing": f"error: [Errno 2] No such file or directory: '{path}'\n",
        "small_skew": f"error: {path}: not Hermitian: max deviation 2.000e-01 exceeds tolerance 1.0e-06\n",
        "small_ok": f"error: {path}: dimension mismatch: (4, 4) vs (8, 8)\n",
        "dir": f"error: [Errno 21] Is a directory: '{path}'\n",
        "negative": f"error: {path}: density matrix repair failed: all eigenvalues nonpositive\n",
    }[blamed]
    assert not out.exists()


def test_tomo_scores_its_files_as_one_stack(tmp_path, monkeypatch):
    rng = np.random.default_rng(90)
    paths = []
    for k in range(3):
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        rho = a @ a.conj().T / np.trace(a @ a.conj().T).real
        rho[0, 0] -= 0.2  # a negative eigenvalue or trace off 1 for repair to fix
        paths.append(tmp_path / f"rho_{k}.json")
        qmat.save_density(paths[-1], rho)
    singles = []
    for k, path in enumerate(paths):
        assert run_cli(["tomo", str(path), "--repair", "--out", str(tmp_path / f"one_{k}")]) == 0
        singles.append((tmp_path / f"one_{k}" / "tomo_report.csv").read_text().splitlines()[1])
    calls = []
    for name in ("validate_density", "root_fidelity"):
        def spy(m, *args, _fn=getattr(qmat, name), _name=name, **kwargs):
            calls.append((_name, np.shape(m)))
            return _fn(m, *args, **kwargs)
        monkeypatch.setattr(qmat, name, spy)
    assert run_cli(["tomo", *map(str, paths), "--repair", "--out", str(tmp_path / "all")]) == 0
    assert calls == [("validate_density", (3, 8, 8)), ("root_fidelity", (3, 8, 8))]
    assert (tmp_path / "all" / "tomo_report.csv").read_text().splitlines()[1:] == singles
