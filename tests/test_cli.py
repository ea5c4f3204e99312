import csv
import filecmp
import json
import math

import numpy as np
import pytest

from tricoh import cli, models, qmat, states


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
    g = qmat.ground_state(models.h_zz(models.ModelParams(j2=2.0))).state
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


def test_tomo_missing_file(tmp_path):
    assert run_cli(["tomo", "--model", "zz", str(tmp_path / "absent.json"), "--out", str(tmp_path)]) == 2


def test_trotter_audit_defaults_pass(tmp_path):
    assert run_cli(["trotter-audit", "--model", "zz", "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "trotter_audit_zz.csv")
    assert len(rows) == 301
    assert column(rows, "unitary_fidelity").min() > 0.999
    assert run_cli(["trotter-audit", "--model", "zzz", "--out", str(tmp_path)]) == 0


def test_trotter_audit_large_tau_fails(tmp_path, capsys):
    assert run_cli(["trotter-audit", "--model", "zz", "--steps", "20", "--tau", "3.0", "--out", str(tmp_path)]) == 3
    out = capsys.readouterr().out
    assert "FAIL" in out and "min unitary fidelity" in out


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


def test_validation_errors_exit_two(tmp_path):
    assert run_cli(["sweep", "--model", "zz", "--steps", "0", "--out", str(tmp_path)]) == 2
    assert run_cli(["sweep", "--model", "zz", "--schedule", "file:/nonexistent.json", "--out", str(tmp_path)]) == 2
    assert run_cli(["sweep", "--model", "zz", "--schedule", "spline", "--out", str(tmp_path)]) == 2
    assert run_cli(["geometry", "--model", "zz", "--j-values", "", "--out", str(tmp_path)]) == 2


def test_sweep_rejects_infinite_tau(tmp_path, capsys):
    assert run_cli(["sweep", "--model", "zz", "--steps", "4", "--tau", "inf", "--out", str(tmp_path)]) == 2
    assert "tau must be positive and finite" in capsys.readouterr().err


def test_sweep_rejects_nan_tau(tmp_path, capsys):
    assert run_cli(["sweep", "--model", "zz", "--steps", "4", "--tau", "nan", "--out", str(tmp_path)]) == 2
    assert "tau must be positive and finite" in capsys.readouterr().err


def test_sweep_rejects_nan_in_schedule_file(tmp_path, capsys):
    path = tmp_path / "schedule.json"
    path.write_text("[0.0, NaN, 2.0]\n")
    assert run_cli(["sweep", "--model", "zz", "--schedule", f"file:{path}", "--out", str(tmp_path)]) == 2
    assert "schedule values must be finite" in capsys.readouterr().err
