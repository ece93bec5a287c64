"""End-to-end tests for the command-line interface."""

import csv
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fedcausal import cli
from fedcausal.cli import EXIT_DATA, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from fedcausal.errors import AllSourcesFailedWarning, TooFewUnits
from fedcausal.federation import MAX_SOURCES
from fedcausal.numkit import expit
from fedcausal.simbench import load_scenario, method_config, rep_config_seed


def _write_site_csv(path, seed, n, names):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, len(names)))
    p = expit(0.5 * X[:, 0])
    a = (rng.random(n) < p).astype(int)
    y = 1.0 + X[:, 0] - 0.5 * X[:, 1] + a + rng.standard_normal(n)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y", "a"] + list(names))
        for i in range(n):
            w.writerow([repr(float(y[i])), int(a[i])] + [repr(float(v)) for v in X[i]])
    return path


def test_simulate_smoke(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["simulate", "--scenario", "c1", "--methods", "target",
                 "--reps", "2", "--seed", "0", "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "metrics.csv").is_file()
    assert (out / "replications.csv").is_file()
    assert (out / "ledger.jsonl").is_file()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenario"] == "c1"
    assert manifest["reps"] == 2
    # 5 sites: one config broadcast, 4 moment summaries, 4 source uploads.
    assert manifest["ledger_audit"]["n_messages"] == 9
    # The transcript is replication 0's round, config seed included.
    config = method_config("target", load_scenario("c1"), seed=rep_config_seed(0, 0))
    first = json.loads((out / "ledger.jsonl").read_text().splitlines()[0])
    assert first["kind"] == "config"
    assert first["digest"] == hashlib.sha256(
        json.dumps(config.to_dict()).encode("utf-8")).hexdigest()

    code = main(["report", "--metrics", str(out / "metrics.csv")])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "method" in printed and "target" in printed


def test_simulate_transcript_round_error_is_reported(tmp_path, capsys, monkeypatch):
    # The study tolerates a few failed replications, so replaying replication
    # 0 for the ledger can fail after the CSVs are written.
    def failing_round(frames, config):
        raise TooFewUnits("validation set needs at least 2 units")

    monkeypatch.setattr(cli, "run_round", failing_round)
    out = tmp_path / "run"
    code = main(["simulate", "--scenario", "c1", "--methods", "target",
                 "--reps", "1", "--out", str(out)])
    assert code == EXIT_RUNTIME
    assert capsys.readouterr().err == "error: validation set needs at least 2 units\n"
    assert (out / "metrics.csv").is_file()
    assert not (out / "manifest.json").exists()


def test_simulate_prints_no_warnings(tmp_path):
    # The study runs with warnings silenced, and so does the transcript's
    # replay of its replication 0: on c0, propensity clipping is active at
    # three sites of that round, and stderr stays empty.
    src = Path(cli.__file__).resolve().parents[1]
    run = subprocess.run(
        [sys.executable, "-m", "fedcausal.cli", "simulate", "--scenario", "c0",
         "--methods", "mr_l1", "--reps", "1", "--seed", "5", "--out", str(tmp_path / "run")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert run.returncode == EXIT_OK
    assert run.stderr == ""


def test_simulate_usage_errors(tmp_path):
    out = str(tmp_path / "x")
    assert main(["simulate", "--scenario", "nope", "--out", out]) == EXIT_USAGE
    # Rejected while parsing, like the out-of-range arguments below.
    for flag, value in (("--methods", "magic"), ("--methods", ","),
                        ("--methods", "ivw,ivw"), ("--reps", "0")):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--scenario", "c1", flag, value, "--out", out])
        assert err.value.code == EXIT_USAGE


def test_simulate_out_naming_a_file_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # The output directory is made before the study runs, so a name that
    # cannot be a directory fails at once.
    def no_study(*args, **kwargs):
        raise AssertionError("the study ran")

    monkeypatch.setattr(cli, "run_scenario", no_study)
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    code = main(["simulate", "--scenario", "c1", "--methods", "target",
                 "--reps", "3", "--out", str(afile)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
    assert afile.read_text() == "kept\n"


def _required_args(command, tmp_path):
    return {"simulate": ["--scenario", "c1", "--reps", "1", "--out", str(tmp_path)],
            "estimate": ["--target", str(tmp_path / "absent.csv")]}[command]


@pytest.mark.parametrize("command", ["simulate", "estimate"])
@pytest.mark.parametrize("flag,value", [
    ("--alpha", "0"), ("--alpha", "1.5"),  # --alpha is not an option at all
    ("--seed", "-1"), ("--seed", str(2**53)),
])
def test_out_of_range_arguments_are_usage_errors(tmp_path, command, flag, value):
    # Rejected while parsing, before any file is read or scenario run.
    with pytest.raises(SystemExit) as err:
        main([command, *_required_args(command, tmp_path), f"{flag}={value}"])
    assert err.value.code == EXIT_USAGE


@pytest.mark.parametrize("command", ["simulate", "estimate"])
def test_alpha_is_an_unknown_argument(tmp_path, capsys, command):
    # Every interval is at the protocol level federation.ALPHA.
    with pytest.raises(SystemExit) as err:
        main([command, *_required_args(command, tmp_path), "--alpha", "0.1"])
    assert err.value.code == EXIT_USAGE
    assert "unrecognized arguments: --alpha 0.1" in capsys.readouterr().err


def test_estimate_end_to_end(tmp_path, capsys):
    tgt = _write_site_csv(tmp_path / "tgt.csv", 1, 250, ["x1", "x2"])
    src = _write_site_csv(tmp_path / "src.csv", 2, 300, ["x1", "x2", "x3"])
    out = tmp_path / "est"
    code = main(["estimate", "--target", str(tgt), "--source", str(src),
                 "--method", "mr_l1", "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert np.isfinite(report["delta_hat"])
    assert report["ci"][0] < report["delta_hat"] < report["ci"][1]
    assert set(report["eta"]) == {"tgt", "src"}
    # The adaptive weights report the chosen penalty and the CV curve.
    curve = report["cv_trace"]
    assert report["lambda"] in curve["lambda"]
    assert len(curve["mean_validation_error"]) == len(curve["lambda"])
    assert all(np.isfinite(curve["mean_validation_error"]))
    assert (out / "report.json").is_file()
    assert (out / "ledger.jsonl").is_file()


def test_estimate_labels_a_one_candidate_mr_l1_round_as_aipw_l1(tmp_path, capsys):
    # estimate gives every site one raw candidate, so its default mr_l1 runs
    # exactly the aipw_l1 round; the report keeps the requested name and says
    # what ran.
    tgt = _write_site_csv(tmp_path / "tgt.csv", 1, 250, ["x1", "x2"])
    src = _write_site_csv(tmp_path / "src.csv", 2, 300, ["x1", "x2", "x3"])
    reports = {}
    for method in (None, "aipw_l1"):
        extra = [] if method is None else ["--method", method]
        assert main(["estimate", "--target", str(tgt), "--source", str(src), *extra]) == EXIT_OK
        reports[method] = json.loads(capsys.readouterr().out)
    default, aipw = reports[None], reports["aipw_l1"]
    assert default["method"] == "mr_l1"
    assert default["diagnostics"]["effective_method"] == "aipw_l1"
    assert aipw["diagnostics"]["effective_method"] == "aipw_l1"
    assert default["delta_hat"] == aipw["delta_hat"] and default["ci"] == aipw["ci"]


def test_estimate_target_only(tmp_path, capsys):
    tgt = _write_site_csv(tmp_path / "tgt.csv", 3, 200, ["x1", "x2"])
    code = main(["estimate", "--target", str(tgt), "--method", "target"])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["method"] == "target"
    assert report["lambda"] is None and report["cv_trace"] == {}


def test_estimate_without_sources_reports_target_weights(tmp_path, capsys):
    # No source is configured, so the adaptive method has nothing to weight:
    # the round uses the target-only weights and says so, without a warning.
    tgt = _write_site_csv(tmp_path / "tgt.csv", 3, 200, ["x1", "x2"])
    with warnings.catch_warnings():
        warnings.simplefilter("error", AllSourcesFailedWarning)
        code = main(["estimate", "--target", str(tgt), "--method", "mr_l1"])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["diagnostics"]["effective_method"] == "target"
    assert report["eta"] == {"tgt": 1.0}
    assert report["lambda"] is None and report["privacy_ledger"] == []


def test_estimate_data_errors(tmp_path, capsys):
    tgt = _write_site_csv(tmp_path / "tgt.csv", 4, 200, ["x1", "x2"])

    missing = tmp_path / "absent.csv"
    assert main(["estimate", "--target", str(missing)]) == EXIT_DATA

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["estimate", "--target", str(empty)]) == EXIT_DATA

    bad_a = tmp_path / "bad_a.csv"
    bad_a.write_text("y,a,x1\n1.0,2,0.5\n")
    assert main(["estimate", "--target", str(bad_a)]) == EXIT_DATA

    bad_header = tmp_path / "bad_header.csv"
    bad_header.write_text("outcome,a,x1\n1.0,1,0.5\n")
    assert main(["estimate", "--target", str(bad_header)]) == EXIT_DATA

    # Source must carry every covariate the target observes.
    src = _write_site_csv(tmp_path / "src.csv", 5, 200, ["x1", "x9"])
    assert main(["estimate", "--target", str(tgt),
                 "--source", str(src)]) == EXIT_DATA
    capsys.readouterr()


def test_estimate_names_a_row_of_the_wrong_length(tmp_path, capsys):
    # Rows are numbered from the header as row 1, as `report` numbers them.
    for text, bad in (("y,a,x1\n1,0,0.5\n2,1\n", "row 3 has 2 cells"),
                      ("y,a,x1\n1,0,0.5\n\n2,1,0.1\n", "row 3 has 0 cells"),
                      ("y,a,x1\n1,0,0.5,9\n2,1,0.1,9\n", "row 2 has 4 cells")):
        ragged = tmp_path / "ragged.csv"
        ragged.write_text(text)
        assert main(["estimate", "--target", str(ragged)]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {ragged}: {bad}, expected 3\n"


def test_estimate_rejects_repeated_site_ids(tmp_path, capsys):
    # A site's id is its file name without the extension. Sites sharing an id
    # could not be told apart in the ledger or the weights, and one file
    # passed twice would count its units as two independent sources.
    paths = []
    for seed, folder in enumerate(("t", "s1", "s2")):
        (tmp_path / folder).mkdir()
        paths.append(str(_write_site_csv(tmp_path / folder / "site.csv", seed, 150,
                                         ["x1", "x2"])))
    assert main(["estimate", "--target", paths[0], "--source", paths[1],
                 "--source", paths[2]]) == EXIT_DATA
    assert capsys.readouterr().err == (
        "error: site ids must be distinct; repeated: ['site']\n")
    src = str(_write_site_csv(tmp_path / "src.csv", 3, 150, ["x1", "x2"]))
    assert main(["estimate", "--target", paths[0], "--source", src,
                 "--source", src]) == EXIT_DATA
    assert capsys.readouterr().err == (
        "error: site ids must be distinct; repeated: ['src']\n")


def test_estimate_rejects_repeated_column_names(tmp_path, capsys):
    # A repeated covariate name is ambiguous: the shared columns would all
    # read its first occurrence.
    ok = str(_write_site_csv(tmp_path / "ok.csv", 1, 200, ["x1", "x2"]))
    for role, names in (("target", ["x1", "x1"]), ("source", ["x1", "x2", "x1"])):
        bad = str(_write_site_csv(tmp_path / f"{role}.csv", 2, 200, names))
        tgt, src = (bad, ok) if role == "target" else (ok, bad)
        assert main(["estimate", "--target", tgt, "--source", src]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {bad}: repeated column names ['x1']\n"


def test_estimate_out_naming_a_file_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # Checked before the round runs, so no report is printed.
    def no_round(frames, config):
        raise AssertionError("the round ran")

    monkeypatch.setattr(cli, "run_round", no_round)
    tgt = _write_site_csv(tmp_path / "tgt.csv", 1, 200, ["x1", "x2"])
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    code = main(["estimate", "--target", str(tgt), "--out", str(afile)])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert afile.read_text() == "kept\n"


def test_estimate_runtime_error(tmp_path, capsys):
    # Constant treatment at the target cannot be fit.
    path = tmp_path / "flat.csv"
    rng = np.random.default_rng(6)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y", "a", "x1"])
        for _ in range(50):
            w.writerow([repr(float(rng.standard_normal())), 1,
                        repr(float(rng.standard_normal()))])
    assert main(["estimate", "--target", str(path)]) == EXIT_RUNTIME
    capsys.readouterr()


def test_estimate_adaptive_round_over_too_many_sources_fails(tmp_path, capsys):
    # An adaptive round takes at most MAX_SOURCES sources; a fixed scheme
    # over the same files runs.
    tgt = str(_write_site_csv(tmp_path / "tgt.csv", 0, 150, ["x1", "x2"]))
    sources = []
    for k in range(MAX_SOURCES + 1):
        sources += ["--source", str(_write_site_csv(tmp_path / f"s{k}.csv", k + 1, 150,
                                                     ["x1", "x2"]))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["estimate", "--target", tgt, *sources, "--method", "aipw_l1"])
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err == (
            f"error: adaptive weights take at most {MAX_SOURCES} sources, got 11\n")
        assert main(["estimate", "--target", tgt, *sources, "--method", "ivw"]) == EXIT_OK
    capsys.readouterr()


def test_report_data_errors(tmp_path, capsys):
    assert main(["report", "--metrics", str(tmp_path / "none.csv")]) == EXIT_DATA
    not_metrics = tmp_path / "other.csv"
    not_metrics.write_text("a,b\n1,2\n")
    assert main(["report", "--metrics", str(not_metrics)]) == EXIT_DATA
    # A short row and a blank line inside the table are ragged rows.
    for text, bad in (("method,reps,mae\nivw,3\n", "row 2 has 2 cells"),
                      ("method,reps,mae\nivw,3,0.1\n\nss,3,0.2\n", "row 3 has 0 cells")):
        ragged = tmp_path / "ragged.csv"
        ragged.write_text(text)
        capsys.readouterr()
        assert main(["report", "--metrics", str(ragged)]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {ragged}: {bad}, expected 3\n"


def test_report_prints_non_finite_cells_as_written(tmp_path, capsys):
    metrics = tmp_path / "metrics.csv"
    metrics.write_text("method,reps,rmse,se_over_sd\nmr_l1,3,nan,inf\nivw,3,0.05,-inf\n")
    assert main(["report", "--metrics", str(metrics)]) == EXIT_OK
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["method", "reps", "rmse", "se_over_sd"],
                    ["mr_l1", "3", "nan", "inf"],
                    ["ivw", "3", "0.050", "-inf"]]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert capsys.readouterr().out.strip()


def _readme_command_lines():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines
            if line.startswith("fedcausal ")]


def test_readme_command_lines_parse():
    # Parsed only, not run: a README naming a removed flag or command fails.
    commands = _readme_command_lines()
    assert commands
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])
