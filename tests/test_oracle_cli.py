"""Ground-truth helpers, the verification battery, and the command-line
front end (exit codes, row formats, determinism)."""

import json
import csv as csv_mod

import numpy as np
import pytest

from sgsov import model_core as mc
from sgsov import oracle
from sgsov import spectrum as sp
from sgsov.cli import main, load_config, ConfigError


def test_direct_matrix_element_identity(cfg_a):
    cov, vec = cfg_a.covs[3], cfg_a.vecs[3]
    me = oracle.direct_matrix_element(cov, np.eye(cfg_a.params.dim), vec)
    assert abs(me - cov @ vec) <= 1e-12 * abs(me)


def test_direct_matrix_element_eigen_relation(cfg_a):
    lam = cfg_a.params.spectral_samples(cfg_a.rng(601), 1)[0]
    T = mc.transfer(cfg_a.params, lam, cfg_a.mono)
    for i, j in ((0, 0), (2, 5)):
        me = oracle.direct_matrix_element(cfg_a.covs[i], T, cfg_a.vecs[j])
        pairing = cfg_a.covs[i] @ cfg_a.vecs[j]
        expect = cfg_a.states[j].t_at(lam) * pairing
        scale = max(abs(me), mc.frob(T) * np.linalg.norm(cfg_a.covs[i])
                    * np.linalg.norm(cfg_a.vecs[j]) / cfg_a.params.dim)
        assert abs(me - expect) <= 1e-9 * scale


def test_direct_matrix_element_dimension_mismatch(cfg_a):
    with pytest.raises(ValueError):
        oracle.direct_matrix_element(cfg_a.covs[0], np.eye(5), cfg_a.vecs[0])


def test_verify_suite_all_pass(desk_bundles):
    for bundle in desk_bundles.values():
        reports = oracle.verify_suite(bundle.params, seed=2024)
        failed = [r for r in reports if not r.passed]
        assert not failed, [r.label for r in failed]


def test_verify_suite_deterministic(cfg_b):
    r1 = oracle.reports_to_jsonl(oracle.verify_suite(cfg_b.params, seed=55))
    r2 = oracle.reports_to_jsonl(oracle.verify_suite(cfg_b.params, seed=55))
    assert r1 == r2


def test_verify_suite_threaded_matches_serial(cfg_b):
    r1 = oracle.reports_to_jsonl(oracle.verify_suite(cfg_b.params, seed=9))
    r2 = oracle.reports_to_jsonl(oracle.verify_suite(cfg_b.params, seed=9,
                                                     threads=3))
    assert r1 == r2


def test_fault_localization(cfg_a):
    # a corrupted eigenvalue trips the spectral verifiers while the algebra
    # section stays green
    params = cfg_a.params
    algebra = oracle.verify_suite(params, seed=3, sections={"algebra"})
    assert all(r.passed for r in algebra)
    pert = dict(cfg_a.states[0].t_coeffs)
    key = sorted(pert)[0]
    pert[key] = pert[key] + 0.1
    res = sp.check_functional_equation(params, pert, cfg_a.rng(602))
    assert res > 1e-3
    with pytest.raises(sp.EmptyNullspace):
        sp.fit_Q_polynomial(params, pert, cfg_a.rng(603))


def test_report_serialization_roundtrip(cfg_b):
    reports = oracle.verify_suite(cfg_b.params, seed=4, sections={"algebra"})
    for line in oracle.reports_to_jsonl(reports).strip().splitlines():
        row = json.loads(line)
        assert {"label", "lhs", "rhs", "absErr", "relErr",
                "tolerance", "margin", "pass", "context"} <= set(row)


# -- command line -----------------------------------------------------------

def _write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _cfg_a_payload(**extra):
    payload = {
        "model": {"N": 3, "p": 3, "p_prime": 2,
                  "kappa": [[0.0, 1.1], [0.0, 1.3], [0.0, 0.7]],
                  "xi": [[1.0, 0.0], [1.2, 0.0], [0.9, 0.0]]},
        "seed": 1234,
    }
    payload.update(extra)
    return payload


def _n1_payload():
    return {"model": {"N": 1, "p": 3, "p_prime": 2,
                      "kappa": [[0.0, 0.9]], "xi": [[1.1, 0.0]]},
            "seed": 1234}


def test_report_margin_in_reports_and_cli_rows(tmp_path):
    report = oracle.ComparisonReport("x", 0.0, 0.0, 1e-9, 2e-9, 1e-8, True)
    assert report.margin == 2e-9 / 1e-8
    diag = oracle.ComparisonReport("y", 0.0, 0.0, 1.0, 1.0, 0.0, True,
                                   {"diagnostic": True})
    assert diag.margin is None and json.loads(diag.to_json())["margin"] is None
    out = tmp_path / "rows.json"
    assert main(["check-algebra", "--config", _write_cfg(tmp_path, _n1_payload()),
                 "--json", str(out)]) == 0
    for line in out.read_text().splitlines():
        row = json.loads(line)
        assert row["margin"] == row["relErr"] / row["tolerance"]


def test_cli_check_algebra_ok(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, _cfg_a_payload())
    assert main(["check-algebra", "--config", cfg]) == 0
    out = capsys.readouterr().out
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert rows and all(r["pass"] for r in rows)


def test_cli_rejects_even_p(tmp_path, capsys):
    payload = _cfg_a_payload()
    payload["model"]["p"] = 4
    cfg = _write_cfg(tmp_path, payload)
    assert main(["check-algebra", "--config", cfg]) == 2
    assert "odd" in capsys.readouterr().err


def test_cli_rejects_malformed_complex(tmp_path):
    payload = _cfg_a_payload()
    payload["model"]["kappa"][0] = "1.1j"
    cfg = _write_cfg(tmp_path, payload)
    assert main(["check-algebra", "--config", cfg]) == 2


def test_cli_degenerate_exit(tmp_path):
    payload = _cfg_a_payload(tolerances={"zero_gap": 1.0})
    cfg = _write_cfg(tmp_path, payload)
    assert main(["verify-all", "--config", cfg]) == 3


def test_cli_degenerate_coupling_on_clock_request(tmp_path):
    payload = {"model": {"N": 1, "p": 3, "p_prime": 2,
                         "kappa": [[0.0, 1.0]], "xi": [[1.1, 0.0]]},
               "seed": 1}
    cfg = _write_cfg(tmp_path, payload)
    assert main(["ff", "--kind", "npoint", "--ops", "v21,u1",
                 "--config", cfg]) == 3


def test_cli_spectrum_rows_and_stable_csv_header(tmp_path):
    cfg = _write_cfg(tmp_path, _n1_payload())
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["spectrum", "--config", cfg, "--csv", str(out1)]) == 0
    assert main(["spectrum", "--config", cfg, "--csv", str(out2)]) == 0
    rows1 = out1.read_text().splitlines()
    rows2 = out2.read_text().splitlines()
    assert rows1 == rows2
    header = rows1[0].split(",")
    assert header[0] == "index"
    assert len(rows1) == 1 + 3  # one row per eigenstate


def test_cli_spectrum_row_count_cfg_a(tmp_path):
    cfg = _write_cfg(tmp_path, _cfg_a_payload())
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--config", cfg, "--csv", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv_mod.DictReader(fh))
    assert len(rows) == 27


def test_cli_scalar_and_sov_build(tmp_path):
    cfg = _write_cfg(tmp_path, _n1_payload())
    out = tmp_path / "rows.jsonl"
    assert main(["sov-build", "--config", cfg, "--json", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    kinds = {r.get("kind") for r in rows}
    assert {"variable", "measure"} <= kinds
    assert main(["scalar", "--config", cfg]) == 0


def test_cli_ff_u_full_pair_table(tmp_path):
    cfg = _write_cfg(tmp_path, _cfg_a_payload())
    out = tmp_path / "ff.jsonl"
    assert main(["ff", "--kind", "u", "--site", "1", "--config", cfg,
                 "--json", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 27 * 27
    assert all(r["pass"] for r in rows)


def test_cli_ff_npoint(tmp_path):
    cfg = _write_cfg(tmp_path, _n1_payload())
    out = tmp_path / "np.jsonl"
    assert main(["ff", "--kind", "npoint", "--ops", "u1,u1", "--config", cfg,
                 "--json", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 3 and all(r["pass"] for r in rows)


def test_cli_verify_all_deterministic_stream(tmp_path):
    cfg = _write_cfg(tmp_path, _n1_payload())
    out1, out2 = tmp_path / "v1.jsonl", tmp_path / "v2.jsonl"
    assert main(["verify-all", "--config", cfg, "--json", str(out1),
                 "--seed", "17"]) == 0
    assert main(["verify-all", "--config", cfg, "--json", str(out2),
                 "--seed", "17"]) == 0
    assert out1.read_text() == out2.read_text()


def test_load_config_validation(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{\"model\": {\"N\": 2}}")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    bad.write_text(json.dumps(_cfg_a_payload(tolerances={"nope": 1.0})))
    with pytest.raises(ConfigError):
        load_config(str(bad))


@pytest.mark.parametrize("payload, argv", [
    ({"tolerances": {"algebra": float("nan")}}, []),
    ({"tolerances": {"algebra": -1.0}}, []),
    ({"tolerances": {"algebra": True}}, []),
    ({"seed": True}, []),
    ({}, ["--tol", "nan"]),
    ({}, ["--tol", "-1"]),
], ids=["tol-nan", "tol-negative", "tol-bool", "seed-bool", "cli-tol-nan", "cli-tol-negative"])
def test_bad_tolerance_or_seed_rejected_at_load(tmp_path, capsys, payload, argv):
    cfg = _write_cfg(tmp_path, dict(_n1_payload(), **payload))
    assert main(["verify-all", "--config", cfg] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "config error" in captured.err
