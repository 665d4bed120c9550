"""CLI contract tests: exit codes, output formats, determinism.

Where the process itself is under test, a run goes through a fresh
interpreter, so the exit codes and the exact bytes on stdout are the ones a
shell pipeline would see: the README examples, byte-identical reruns,
--out, --help, usage errors and the timed requests. Every other run calls
cli.main in process (run_main), which
test_one_parser_serves_every_request_in_a_process checks gives the same
exit code and stdout as a fresh process.
"""

import ast
import contextlib
import io
import json
import math
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from metriq import cli
from metriq.cli import ConfigError, _decode_pt, _matrix
from metriq.hilbert import validate_metric
from metriq.montecarlo import simulate_g_eta
from metriq.ptsym import PtHamiltonian
from metriq.rng import RngStream
from metriq.tomography import default_design, honest_prover, reconstruct, run_prover, verify
from readme_examples import examples as readme_examples

ETA2_JSON = [[[0.8, 0.0], [0.0, -0.2]], [[0.0, 0.2], [0.8, 0.0]]]
IDENTITY_JSON = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
INDEFINITE_JSON = [[[1.0, 0.0], [2.0, 0.0]], [[2.0, 0.0], [1.0, 0.0]]]
STATE00_JSON = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]

CSV_HEADER = "seed,N,total_copies,success_ratio,analytic_prob,abs_error"


def run_cli(*args, timeout=None):
    """A fresh `python -m metriq.cli` process."""
    return subprocess.run(
        [sys.executable, "-m", "metriq.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def run_main(*args):
    """cli.main in this process, with its exit code, stdout and stderr shaped as run_cli's."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


# ---------------------------------------------------------------------------
# metric-validate
# ---------------------------------------------------------------------------

def test_metric_validate_accepts_both_file_forms(tmp_path):
    bare = write_json(tmp_path / "bare.json", ETA2_JSON)
    wrapped = write_json(tmp_path / "wrapped.json", {"dim": 2, "matrix": ETA2_JSON})
    for path in (bare, wrapped):
        proc = run_main("metric-validate", path)
        assert proc.returncode == 0
        assert proc.stdout.startswith("valid")
        assert "0.6" in proc.stdout
        assert "subidentity" in proc.stdout


def test_metric_validate_rejects_indefinite(tmp_path):
    path = write_json(tmp_path / "bad.json", INDEFINITE_JSON)
    proc = run_main("metric-validate", path)
    assert proc.returncode == 2
    assert proc.stdout.startswith("invalid")


def test_metric_validate_parse_failures(tmp_path):
    proc = run_main("metric-validate", str(tmp_path / "missing.json"))
    assert proc.returncode == 3
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert run_main("metric-validate", str(garbled)).returncode == 3
    # parses as JSON but rows are not [re, im] pairs
    schema = write_json(tmp_path / "schema.json", [[1, 2], [3, 4]])
    assert run_main("metric-validate", schema).returncode == 3


def test_metric_validate_never_prints_nan(tmp_path):
    # entries near the float maximum give a finite spectrum or a domain error
    for i, (rows, code) in enumerate((
        ([[[1e308, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e308, 0.0]]], 0),
        ([[[1e308, 0.0], [1e308, 0.0]], [[1e308, 0.0], [1e308, 0.0]]], 2),
    )):
        proc = run_main("metric-validate", write_json(tmp_path / f"m{i}.json", rows))
        assert proc.returncode == code, rows
        assert "nan" not in proc.stdout
        if code == 0:
            assert "inf" not in proc.stdout


def test_matrix_decoder_is_exact():
    back = _matrix(ETA2_JSON, "metric")
    assert back.dtype == complex
    assert np.array_equal(back, np.array([[0.8, -0.2j], [0.2j, 0.8]]))


def test_malformed_matrices_are_parse_errors(tmp_path):
    for i, rows in enumerate((
        [[[1.0], [0.0, 0.0]]],
        [[{"re": 1.0, "im": 0.0}]],
        [[[10**400, 0.0]]],
        [[["1", 0.0]]],
        [[[float("nan"), 0.0]]],
        [1, 2, 3],
        5,
        [[[True, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        [[[0.8, 0.0, 9], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]],
        [],
    )):
        proc = run_main("metric-validate", write_json(tmp_path / f"m{i}.json", rows))
        assert proc.returncode == 3, rows
        assert "metric" in proc.stderr
    # the same decoder reads the state of a g-eta config
    bad_state = [[[True, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    cfg = write_json(
        tmp_path / "ge.json", {"metric": ETA2_JSON, "state": bad_state, "shots": 10, "seed": 1}
    )
    proc = run_main("simulate", "g-eta", "--config", cfg)
    assert proc.returncode == 3
    assert "state[0][0]" in proc.stderr


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_g_eta_csv_contract(tmp_path):
    cfg = write_json(
        tmp_path / "ge.json",
        {"metric": ETA2_JSON, "state": STATE00_JSON, "shots": 2000, "seed": 7},
    )
    proc = run_main("simulate", "g-eta", "--config", cfg)
    assert proc.returncode == 0
    header, row = proc.stdout.strip().split("\n")
    assert header == CSV_HEADER
    seed, n, total, ratio, analytic, err = row.split(",")
    assert (seed, n) == ("7", "2000")
    assert int(total) >= 2000
    assert abs(float(analytic) - 0.8) < 1e-15
    assert abs(float(ratio) - 0.8) < 4 * 0.8 * (0.2 / 2000) ** 0.5
    assert abs(abs(float(ratio) - float(analytic)) - float(err)) < 1e-15


def test_simulate_outputs_are_byte_identical(tmp_path):
    cfg = write_json(
        tmp_path / "ge.json",
        {"metric": ETA2_JSON, "state": STATE00_JSON, "shots": 500, "seed": 7},
    )
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("simulate", "g-eta", "--config", cfg, "--out", str(out1)).returncode == 0
    assert run_cli("simulate", "g-eta", "--config", cfg, "--out", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    pt = write_json(
        tmp_path / "pt.json",
        {"r": 1.0, "s": 2.0, "phi": 0.5235987755982988, "t": 1.0, "shots": 500, "seed": 9},
    )
    sampled = write_json(
        tmp_path / "vs.json", {"metric": ETA2_JSON, "prover": "honest", "shots": 300, "seed": 3}
    )
    dishonest = {"kind": "dishonest", "unitaries": [IDENTITY_JSON], "probs": [0.7]}
    exact = write_json(
        tmp_path / "ve.json", {"metric": ETA2_JSON, "prover": dishonest, "exact": True, "seed": 3}
    )
    for i, argv in enumerate((
        ["simulate", "pt", "--config", pt],
        ["simulate", "pt", "--config", pt, "--format", "json"],
        ["verify", "--config", sampled],
        ["verify", "--config", exact],
    )):
        outs = [tmp_path / f"rerun{i}{k}.out" for k in "ab"]
        codes = [run_cli(*argv, "--out", str(out)).returncode for out in outs]
        assert codes[0] == codes[1] and codes[0] in (0, 1), argv
        assert outs[0].read_bytes() == outs[1].read_bytes(), argv
    # the flag overrides the config seed and changes the sample path
    proc = run_cli("simulate", "g-eta", "--config", cfg, "--seed", "8", "--format", "json")
    assert proc.returncode == 0
    blob = json.loads(proc.stdout)
    assert blob["seed"] == 8
    assert blob["N"] == 500
    assert set(blob) == {"seed", "N", "total_copies", "success_ratio", "analytic_prob", "abs_error"}


def test_summary_keys(tmp_path):
    cfg = write_json(
        tmp_path / "ge.json",
        {"metric": ETA2_JSON, "state": STATE00_JSON, "shots": 1000, "seed": 90},
    )
    rec = simulate_g_eta(
        validate_metric(_matrix(ETA2_JSON, "metric")), _matrix(STATE00_JSON, "state"),
        1000, RngStream(seed=90),
    )
    proc = run_main("simulate", "g-eta", "--config", cfg, "--format", "json")
    assert proc.returncode == 0
    row = json.loads(proc.stdout)
    assert (row["seed"], row["N"], row["total_copies"]) == (90, 1000, rec.total_copies_used)
    assert set(row) == {"seed", "N", "total_copies", "success_ratio", "analytic_prob", "abs_error"}
    assert row["success_ratio"] == rec.success_ratio
    assert row["abs_error"] == pytest.approx(abs(rec.success_ratio - 0.8))
    # the CSV line carries the same values in the header's order
    header, line = run_main("simulate", "g-eta", "--config", cfg).stdout.splitlines()
    assert dict(zip(header.split(","), map(float, line.split(",")))) == row


def test_simulate_pt_matches_analytic_column(tmp_path):
    cfg = write_json(
        tmp_path / "pt.json",
        {"r": 1.0, "s": 2.0, "phi": 0.5235987755982988, "t": 1.0, "shots": 2000, "seed": 9},
    )
    proc = run_main("simulate", "pt", "--config", cfg, "--format", "json")
    assert proc.returncode == 0
    blob = json.loads(proc.stdout)
    assert abs(blob["analytic_prob"] - 0.56629840696256628) < 1e-12
    assert blob["abs_error"] < 0.05


def test_simulate_pt_broken_regime_is_domain_error(tmp_path):
    cfg = write_json(
        tmp_path / "pt.json",
        {"r": 1.0, "s": 0.4, "phi": 1.5707963267948966, "t": 1.0, "shots": 10, "seed": 9},
    )
    proc = run_main("simulate", "pt", "--config", cfg)
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_simulate_seed_and_shots_requirements(tmp_path):
    cfg = write_json(
        tmp_path / "ge.json", {"metric": ETA2_JSON, "state": STATE00_JSON, "shots": 100}
    )
    assert run_main("simulate", "g-eta", "--config", cfg).returncode == 3
    assert run_main("simulate", "g-eta", "--config", cfg, "--seed", "1").returncode == 0
    noshots = write_json(
        tmp_path / "ge2.json", {"metric": ETA2_JSON, "state": STATE00_JSON, "seed": 1}
    )
    assert run_main("simulate", "g-eta", "--config", noshots).returncode == 3
    assert run_main("simulate", "g-eta", "--config", noshots, "--shots", "0").returncode == 3


def test_seed_must_fit_in_64_bits(tmp_path):
    top = 2**64 - 1
    base = {
        "simulate": {"metric": ETA2_JSON, "state": STATE00_JSON, "shots": 10},
        "verify": {"metric": ETA2_JSON, "prover": "honest", "shots": 10, "exact": True},
    }
    for cmd, cfg in base.items():
        argv = ["simulate", "g-eta"] if cmd == "simulate" else ["verify"]
        for seed, code in ((top, 0), (top + 1, 3)):
            from_cfg = write_json(tmp_path / f"{cmd}{seed}.json", {**cfg, "seed": seed})
            assert run_main(*argv, "--config", from_cfg).returncode == code
            from_flag = write_json(tmp_path / f"{cmd}.json", {**cfg, "seed": 0})
            proc = run_main(*argv, "--config", from_flag, "--seed", str(seed))
            assert proc.returncode == code
            if code == 3:
                assert "seed" in proc.stderr


def test_config_numbers_must_be_integers(tmp_path):
    base = {
        "simulate": {"metric": ETA2_JSON, "state": STATE00_JSON, "shots": 10, "seed": 1},
        "verify": {"metric": ETA2_JSON, "prover": "honest", "shots": 10, "exact": True, "seed": 1},
    }
    cases = [
        ("shots", float("inf"), 3),
        ("seed", float("inf"), 3),
        ("shots", float("nan"), 3),
        ("shots", 2.5, 3),
        ("seed", 1.5, 3),
        ("shots", True, 3),
        ("seed", False, 3),
        ("shots", "10", 3),
        ("seed", "1", 3),
        ("shots", 1e3, 0),
        ("seed", 7.0, 0),
    ]
    for cmd, cfg in base.items():
        argv = ["simulate", "g-eta"] if cmd == "simulate" else ["verify"]
        for i, (key, value, code) in enumerate(cases):
            path = write_json(tmp_path / f"{cmd}{i}.json", {**cfg, key: value})
            proc = run_main(*argv, "--config", path)
            assert proc.returncode == code, (cmd, key, value)
            if code == 3:
                assert key in proc.stderr


def test_matrix_dim_must_be_an_integer(tmp_path):
    for dim, code in ((2.9, 3), (float("inf"), 3), (True, 3), ("2", 3), (2.0, 0)):
        path = write_json(tmp_path / "m.json", {"dim": dim, "matrix": ETA2_JSON})
        proc = run_main("metric-validate", path)
        assert proc.returncode == code, dim
        if code == 3:
            assert "dim" in proc.stderr


def test_oversized_config_numbers_are_parse_errors(tmp_path):
    huge = 10**400
    pt = write_json(
        tmp_path / "pt.json", {"r": 1.0, "s": huge, "phi": 0.5, "t": 1.0, "shots": 10, "seed": 1}
    )
    assert run_main("simulate", "pt", "--config", pt).returncode == 3
    metric = write_json(tmp_path / "m.json", [[[huge, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]])
    assert run_main("metric-validate", metric).returncode == 3


def test_pt_parameters_reject_booleans(tmp_path):
    base = {"r": 1.0, "s": 2.0, "phi": 0.5, "t": 1.0, "shots": 10, "seed": 1}
    assert run_main("simulate", "pt", "--config", write_json(tmp_path / "ok.json", base)).returncode == 0
    for key, value in (("r", True), ("s", True), ("phi", False), ("t", True)):
        path = write_json(tmp_path / f"{key}.json", {**base, key: value})
        proc = run_main("simulate", "pt", "--config", path)
        assert proc.returncode == 3, key
        assert f"'{key}'" in proc.stderr


def test_pt_config_decoding(tmp_path):
    back, t = _decode_pt({"r": 1.0, "s": 2.0, "phi": math.pi / 6, "t": 2.5})
    assert back == PtHamiltonian(r=1.0, s=2.0, phi=math.pi / 6)
    assert t == 2.5
    base = {"r": 1.0, "s": 2.0, "phi": 0.0, "t": 0.0, "shots": 10, "seed": 1}
    missing = {"r": 1.0, "s": 2.0, "shots": 10, "seed": 1}
    proc = run_main("simulate", "pt", "--config", write_json(tmp_path / "missing.json", missing))
    assert proc.returncode == 3
    for key, value in (
        ("r", "x"),
        ("s", 10**400),
        ("r", "1"),
        ("r", float("inf")),
        ("t", float("inf")),
        ("phi", float("-inf")),
        ("s", float("nan")),
    ):
        path = write_json(tmp_path / f"{key}.json", {**base, key: value})
        proc = run_main("simulate", "pt", "--config", path)
        assert proc.returncode == 3, (key, value)
        assert f"'{key}'" in proc.stderr
    for key in ("r", "s", "phi", "t"):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            _decode_pt({"r": 1.0, "s": 2.0, "phi": 0.0, "t": 0.0, key: True})


def test_near_singular_metric_finishes_at_once(tmp_path):
    # a metric eigenvalue of 1e-9 and a state on its eigenvector: about 2e12 copies
    cfg = write_json(
        tmp_path / "ge.json",
        {
            "metric": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e-9, 0.0]]],
            "state": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            "shots": 2000,
            "seed": 1,
        },
    )
    t0 = time.perf_counter()
    proc = run_cli("simulate", "g-eta", "--config", cfg, timeout=30)
    assert proc.returncode == 0
    assert time.perf_counter() - t0 < 5.0
    row = proc.stdout.splitlines()[1].split(",")
    assert int(row[2]) > 10**12


def test_over_budget_requests_are_domain_errors(tmp_path):
    ge = write_json(
        tmp_path / "ge.json", {"metric": ETA2_JSON, "state": STATE00_JSON, "seed": 1}
    )
    pt = write_json(
        tmp_path / "pt.json", {"r": 1.0, "s": 2.0, "phi": 0.5, "t": 1.0, "shots": 10**10, "seed": 1}
    )
    ver = write_json(
        tmp_path / "v.json", {"metric": ETA2_JSON, "prover": "honest", "shots": 1e12, "seed": 3}
    )
    for argv in (
        ("simulate", "g-eta", "--config", ge, "--shots", str(10**9 + 1)),
        ("simulate", "pt", "--config", pt),
        ("verify", "--config", ver),
    ):
        t0 = time.perf_counter()
        proc = run_cli(*argv, timeout=30)
        assert proc.returncode == 2, argv
        assert time.perf_counter() - t0 < 5.0
        assert "budget" in proc.stderr
        assert proc.stdout == ""


def test_over_budget_mixture_reads_no_slot(tmp_path, monkeypatch):
    """A two-unitary prover's branch slots are refused by the budget check, not read first."""
    swap = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
    prover = {"kind": "dishonest", "unitaries": [IDENTITY_JSON, swap], "probs": [0.3, 0.4]}
    cfg = write_json(tmp_path / "v.json", {"metric": ETA2_JSON, "prover": prover, "seed": 3})

    def no_slot(self, count, start=0):
        raise AssertionError("a slot was read")

    monkeypatch.setattr(RngStream, "uniforms", no_slot)
    proc = run_main("verify", "--config", cfg, "--shots", str(10**9 + 1))
    assert proc.returncode == 2
    assert "budget" in proc.stderr
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_honest_accepts_with_exit_zero(tmp_path):
    cfg = write_json(
        tmp_path / "v.json",
        {"metric": ETA2_JSON, "prover": "honest", "shots": 3000, "seed": 3},
    )
    out = tmp_path / "report.json"
    proc = run_cli("verify", "--config", cfg, "--out", str(out))
    assert proc.returncode == 0
    blob = json.loads(out.read_text())
    assert blob["verdict"] == "accept"
    assert blob["distance"] < blob["threshold"]
    assert blob["shots_per_input"] == 3000
    assert blob["eta_eigenvalues"][0] >= blob["eta_eigenvalues"][1]


def test_verify_uncertified_accept_keeps_its_verdict_and_stdout(tmp_path, monkeypatch):
    from metriq import UncertifiedAcceptWarning, tomography

    cfg = write_json(
        tmp_path / "v.json",
        {"metric": ETA2_JSON, "prover": "honest", "shots": 3000, "seed": 3},
    )
    certified = run_main("verify", "--config", cfg)
    monkeypatch.setattr(tomography, "_choi_bound", lambda superop: math.inf)
    with pytest.warns(UncertifiedAcceptWarning, match="not certified"):
        uncertified = run_main("verify", "--config", cfg)
    assert (uncertified.returncode, uncertified.stdout) == (0, certified.stdout)


def test_verify_dishonest_rejects_with_exit_one(tmp_path):
    cfg = write_json(
        tmp_path / "v.json",
        {
            "metric": ETA2_JSON,
            "prover": {"kind": "dishonest", "unitaries": [IDENTITY_JSON], "probs": [0.7]},
            "exact": True,
            "seed": 3,
        },
    )
    proc = run_main("verify", "--config", cfg)
    assert proc.returncode == 1
    blob = json.loads(proc.stdout)
    assert blob["verdict"] == "reject"
    assert blob["distance"] >= blob["threshold"]


def test_report_to_json_structure(tmp_path):
    cfg = write_json(
        tmp_path / "v.json", {"metric": ETA2_JSON, "prover": "honest", "exact": True, "seed": 42}
    )
    proc = run_main("verify", "--config", cfg)
    assert proc.returncode == 0
    blob = json.loads(proc.stdout)
    assert set(blob) == {
        "distance",
        "threshold",
        "verdict",
        "eta_eigenvalues",
        "shots_per_input",
        "seed",
    }
    assert blob["verdict"] == "accept"
    assert blob["eta_eigenvalues"][0] >= blob["eta_eigenvalues"][1]
    assert blob["seed"] == 42
    # the row is the library's report
    eta = validate_metric(_matrix(ETA2_JSON, "metric"))
    design = default_design()
    responses = run_prover(honest_prover(), eta, design, 0, RngStream(seed=42), exact=True)
    report = verify(eta, reconstruct(responses, design))
    assert (blob["distance"], blob["threshold"]) == (report.distance, report.threshold)


def test_verify_exact_must_be_a_boolean(tmp_path):
    base = {"metric": ETA2_JSON, "prover": "honest", "seed": 3}
    for value in ("false", "true", 0, 1, None, []):
        path = write_json(tmp_path / "v.json", {**base, "exact": value})
        proc = run_main("verify", "--config", path)
        assert proc.returncode == 3, value
        assert "exact" in proc.stderr
    exact = write_json(tmp_path / "t.json", {**base, "exact": True})
    proc = run_main("verify", "--config", exact)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["shots_per_input"] == 0
    sampled = write_json(tmp_path / "f.json", {**base, "exact": False, "shots": 10})
    assert run_main("verify", "--config", sampled).returncode in (0, 1)


def test_verify_ignores_thread_env(tmp_path, monkeypatch):
    """METRIQ_THREADS, which once selected a thread pool, changes no exit code or byte."""
    cfg = write_json(
        tmp_path / "v.json",
        {"metric": ETA2_JSON, "prover": "honest", "shots": 300, "seed": 3},
    )
    monkeypatch.delenv("METRIQ_THREADS", raising=False)
    unset = run_main("verify", "--config", cfg)
    assert unset.returncode in (0, 1)
    for value in ("0", "-1", "two", "3"):
        monkeypatch.setenv("METRIQ_THREADS", value)
        proc = run_main("verify", "--config", cfg)
        assert (proc.returncode, proc.stdout) == (unset.returncode, unset.stdout), value


def test_program_reads_no_environment():
    """No module under src/metriq reads os.environ, os.getenv or os.cpu_count: the program has no knobs."""
    banned = {"environ", "getenv", "cpu_count"}
    found = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in banned
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                found.append(f"{path.name}:{node.lineno} os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [f"{path.name}:{node.lineno} from os import {a.name}"
                          for a in node.names if a.name in banned]
    assert found == []


def test_verify_degenerate_metric_is_domain_error(tmp_path):
    cfg = write_json(
        tmp_path / "v.json",
        {"metric": IDENTITY_JSON, "prover": "honest", "shots": 10, "seed": 3},
    )
    assert run_main("verify", "--config", cfg).returncode == 2


def test_verify_prover_schema_errors(tmp_path):
    base = {"metric": ETA2_JSON, "shots": 10, "seed": 3}
    bad_kind = write_json(tmp_path / "a.json", dict(base, prover="evil"))
    assert run_main("verify", "--config", bad_kind).returncode == 3
    missing = write_json(
        tmp_path / "b.json", dict(base, prover={"kind": "dishonest", "probs": [1.0]})
    )
    assert run_main("verify", "--config", missing).returncode == 3
    shear = [[[1.0, 0.0], [0.3, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    nonunitary = write_json(
        tmp_path / "c.json",
        dict(base, prover={"kind": "dishonest", "unitaries": [shear], "probs": [1.0]}),
    )
    assert run_main("verify", "--config", nonunitary).returncode == 3
    dishonest = {"kind": "dishonest", "unitaries": [IDENTITY_JSON], "probs": [0.7]}
    for i, (key, value, field) in enumerate((
        ("probs", ["0.7"], "probs[0]"),
        ("probs", [True], "probs[0]"),
        ("probs", [float("nan")], "probs[0]"),
        ("probs", 0.7, "'probs'"),
        ("unitaries", 5, "'unitaries'"),
        ("unitaries", [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], ["1", 0.0]]]], "unitaries[0][1][1]"),
    )):
        cfg = write_json(tmp_path / f"d{i}.json", dict(base, prover={**dishonest, key: value}))
        proc = run_main("verify", "--config", cfg)
        assert proc.returncode == 3, (key, value)
        assert field in proc.stderr


def test_unwritable_out_is_a_config_error(tmp_path):
    verify_cfg = write_json(
        tmp_path / "v.json",
        {"metric": ETA2_JSON, "prover": "honest", "shots": 3000, "seed": 3},
    )
    sim_cfg = write_json(
        tmp_path / "ge.json",
        {"metric": ETA2_JSON, "state": STATE00_JSON, "shots": 10, "seed": 1},
    )
    for argv in (["verify", "--config", verify_cfg], ["simulate", "g-eta", "--config", sim_cfg]):
        # a missing directory, and a path that is a directory
        for out in (tmp_path / "missing" / "r.json", tmp_path):
            proc = run_cli(*argv, "--out", str(out))
            assert proc.returncode == 3, (argv, out)
            assert proc.stdout == ""
            assert f"cannot write {out}" in proc.stderr
            assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# usage
# ---------------------------------------------------------------------------

def test_usage_errors_exit_64(tmp_path):
    cfg = write_json(
        tmp_path / "ge.json",
        {"metric": ETA2_JSON, "state": STATE00_JSON, "shots": 10, "seed": 1},
    )
    proc = run_cli("simulate", "g-eta", "--config", cfg, "--bogus")
    assert proc.returncode == 64
    assert run_cli().returncode == 64
    assert run_cli("simulate").returncode == 64


def test_help_lists_all_flags():
    proc = run_cli("--help")
    assert proc.returncode == 0
    sub = run_cli("simulate", "g-eta", "--help")
    assert sub.returncode == 0
    for flag in ("--config", "--seed", "--shots", "--out", "--format"):
        assert flag in sub.stdout
    ver = run_cli("verify", "--help")
    assert ver.returncode == 0
    for flag in ("--config", "--seed", "--shots", "--out"):
        assert flag in ver.stdout


def test_one_parser_serves_every_request_in_a_process(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # the same help layout in and out of process
    cfg = write_json(
        tmp_path / "ge.json",
        {"metric": ETA2_JSON, "state": STATE00_JSON, "shots": 10, "seed": 1},
    )
    requests = (
        ["simulate", "g-eta", "--config", cfg, "--bogus"],
        ["simulate", "g-eta", "--config", cfg],
        ["--help"],
    )
    fresh = [run_cli(*argv) for argv in requests]
    for _ in range(2):
        for argv, want in zip(requests, fresh):
            rc = cli.main(argv)
            assert (rc, capsys.readouterr().out) == (want.returncode, want.stdout), argv
    assert cli._parser() is cli._parser()


# ---------------------------------------------------------------------------
# README examples
# ---------------------------------------------------------------------------

README = Path(__file__).resolve().parent.parent / "README.md"


def check_readme_examples(tmp_path, run):
    examples = readme_examples(README)
    assert len(examples) >= 3
    for config, argv, expected in examples:
        name = argv[argv.index("--config") + 1]
        (tmp_path / name).write_text(config)
        argv[argv.index("--config") + 1] = str(tmp_path / name)
        assert run(*argv).stdout == expected, argv


def test_readme_cli_examples_print_what_they_show(tmp_path):
    check_readme_examples(tmp_path, run_cli)


def test_readme_cli_examples_print_the_same_in_process(tmp_path):
    check_readme_examples(tmp_path, run_main)
