"""Tests for the command-line interface.

Each test drives ``main`` in process and inspects exit codes, stdout,
and the artifact files.  Oracles: known constants on stdout, byte
determinism of artifacts, manifests whose digests match the files, and
documented exit codes (1 configuration, 2 numerical).
"""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracfield
from fracfield import cli, report
from fracfield.cli import main
from fracfield.sampler import _openblas_thread_api


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def read_manifest(out_dir):
    with open(out_dir / "run_manifest.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def assert_manifest_digests(out_dir):
    manifest = read_manifest(out_dir)
    assert manifest["artifact_version"] == 1
    assert manifest["wall_clock_seconds"] >= 0.0
    for name, digest in manifest["outputs"].items():
        assert hashlib.sha256((out_dir / name).read_bytes()).hexdigest() \
            == digest
    return manifest


# The options of each subcommand besides -h/--help, --config and --out,
# in the order its --help lists them.
OPTIONS = {
    "constants": ["--hurst", "--H"],
    "cov": ["--hurst", "--H", "--equation"],
    "sample": ["--hurst", "--H", "--equation", "--seed", "--replicates"],
    "solve-det": ["--equation"],
    "simulate": ["--hurst", "--H", "--equation", "--seed", "--replicates",
                 "--threads"],
    "hoelder": ["--hurst", "--H", "--equation", "--direction", "--p"],
    "hconv": ["--hurst", "--H", "--equation"],
    "verify-lemmas": ["--hurst", "--H"],
}


class TestParser:
    def test_unknown_subcommand_exits_one(self, capsys):
        assert main(["transmogrify"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self, capsys):
        assert main(["constants", "--frequency", "3"]) == 1

    def test_missing_subcommand_exits_one(self, capsys):
        assert main([]) == 1

    def test_each_subcommand_takes_its_options(self):
        sub, = (action for action in cli._build_parser()._actions
                if action.dest == "subcommand")
        got = {name: [option for action in parser._actions
                      for option in action.option_strings]
               for name, parser in sub.choices.items()}
        head = ["-h", "--help", "--config", "--out"]
        assert list(got) == list(OPTIONS)
        assert got == {name: head + tail for name, tail in OPTIONS.items()}

    def test_metavars(self, capsys):
        # A flag whose dest is a dotted config key or differs from its
        # option string names its value as the option does.
        for name in ("hoelder", "simulate"):
            assert main([name, "--help"]) == 0
            usage = " ".join(capsys.readouterr().out.split("\n\n")[0].split())
            for shown in ("[--hurst HURST]", "[--equation {heat,wave}]",
                          *(("[--direction {time,space}]", "[--p P]")
                            if name == "hoelder" else
                            ("[--seed SEED]", "[--replicates REPLICATES]",
                             "[--threads THREADS]"))):
                assert shown in usage

    def test_one_parser_serves_successive_calls(self, capsys):
        assert cli._build_parser() is cli._build_parser()
        assert main(["constants", "--hurst", "0.5"]) == 0
        first = capsys.readouterr().out
        assert "noise_constant 0.159155" in first
        assert main(["hoelder", "--equation", "heat", "--hurst", "0.5",
                     "--direction", "space"]) == 0
        assert capsys.readouterr().out.endswith(" ok\n")
        assert main(["hoelder", "--equation", "heat", "--p", "x"]) == 1
        assert "invalid float value" in capsys.readouterr().err
        # Values parsed by earlier calls do not carry over.
        assert main(["constants"]) == 1
        assert "roughness" in capsys.readouterr().err
        assert main(["constants", "--hurst", "0.5"]) == 0
        assert capsys.readouterr().out == first


def _loaded_by_cli_import() -> set:
    """The modules a fresh ``import fracfield.cli`` loads."""
    src = str(Path(fracfield.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import json, sys, fracfield.cli; "
            "print(json.dumps(list(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return set(json.loads(done.stdout))


def test_import_leaves_scipy_unloaded():
    # numpy is the only run-time dependency; scipy serves the tests.
    assert not {m for m in _loaded_by_cli_import()
                if m == "scipy" or m.startswith("scipy.")}


def test_callable_wave_v0_loads_no_scipy():
    # A wave v0 given as a plain callable is integrated by numpy's
    # Gauss-Legendre rules, without loading scipy: for u0 = sin and
    # v0 = cos the initial term (sin(x+t) + sin(x-t))/2 + (sin(x+t) -
    # sin(x-t))/2 is sin(x + t).
    src = str(Path(fracfield.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from fracfield import (EquationKind, InitialData, PointGrid,\n"
        "                       initial_term_grid)\n"
        "grid = PointGrid(2.0, 1.5, 8, 12)\n"
        "got = initial_term_grid(EquationKind.WAVE,\n"
        "                        InitialData(u0=np.sin, v0=np.cos), grid)\n"
        "t, x = grid.nodes()\n"
        "want = np.sin(x + t).reshape(9, 13)\n"
        "print(np.max(np.abs(got.values - want)))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    done = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120,
                          check=True)
    err, loaded = done.stdout.splitlines()
    assert float(err) <= 1e-12
    assert loaded == "[]"


class TestConstants:
    def test_stdout_values(self, capsys):
        assert main(["constants", "--hurst", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "noise_constant 0.159155" in out
        assert "spectral_exponent 0" in out
        assert "dalang_wave_t1 1.5708" in out
        assert "dalang_heat_t1 3.54491" in out

    def test_missing_hurst_exits_one(self, capsys):
        assert main(["constants"]) == 1
        assert "roughness" in capsys.readouterr().err

    def test_artifacts(self, tmp_path):
        out = tmp_path / "run"
        assert main(["constants", "--hurst", "0.3",
                     "--out", str(out)]) == 0
        table = (out / "constants.csv").read_text().splitlines()
        assert table[0] == "name,value"
        assert len(table) == 5
        manifest = assert_manifest_digests(out)
        assert manifest["subcommand"] == "constants"
        assert manifest["config"]["hurst"] == 0.3


class TestCov:
    def test_symmetric_table(self, tmp_path, capsys):
        # The second list holds time 0, whose row is exactly 0, the heat
        # pair form (0.05 against 1.0) and the far fields (|dx| = 20).
        for k, (hurst, points) in enumerate((
                ("0.5", [[0.5, 0.0], [1.0, 0.25], [1.0, -0.5]]),
                ("0.7", [[0.0, 0.0], [0.05, 0.0], [1.0, 0.5], [0.5, -0.25],
                         [1.0, 20.0]]))):
            cfg = write_config(tmp_path, {"points": points})
            out = tmp_path / f"run{k}"
            assert main(["cov", "--config", cfg, "--equation", "heat",
                         "--hurst", hurst, "--out", str(out)]) == 0
            rows = np.loadtxt(out / "cov_matrix.csv", delimiter=",",
                              skiprows=1)
            n = len(points)
            assert rows.shape == (n * n, 7)
            cov = rows[:, 6].reshape(n, n)
            assert np.array_equal(cov, cov.T)
            zero = np.array([t == 0.0 for t, _ in points])
            assert not cov[zero].any()
            assert np.all(np.diag(cov)[~zero] > 0.0)
            assert_manifest_digests(out)

    def test_missing_points_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {})
        assert main(["cov", "--config", cfg, "--equation", "heat",
                     "--hurst", "0.5"]) == 1
        assert "points" in capsys.readouterr().err

    def test_negative_time_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"points": [[0.5, 0.0], [-1.0, 0.0]]})
        assert main(["cov", "--config", cfg, "--equation", "heat",
                     "--hurst", "0.5"]) == 1
        assert "time coordinate must be >= 0" in capsys.readouterr().err

    def test_bad_config_json_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["cov", "--config", str(bad), "--equation", "heat",
                     "--hurst", "0.5"]) == 1


class TestSample:
    CONFIG = {"points": [[0.5, 0.0], [1.0, 0.5]]}

    def run_sample(self, tmp_path, out_name, seed):
        cfg = write_config(tmp_path, self.CONFIG)
        out = tmp_path / out_name
        code = main(["sample", "--config", cfg, "--equation", "wave",
                     "--hurst", "0.5", "--seed", str(seed),
                     "--replicates", "3", "--out", str(out)])
        assert code == 0
        return out

    def test_fixed_seed_is_byte_identical(self, tmp_path):
        a = self.run_sample(tmp_path, "a", 7)
        b = self.run_sample(tmp_path, "b", 7)
        assert (a / "samples.csv").read_bytes() \
            == (b / "samples.csv").read_bytes()

    def test_seed_changes_samples(self, tmp_path):
        a = self.run_sample(tmp_path, "a", 7)
        b = self.run_sample(tmp_path, "b", 8)
        assert (a / "samples.csv").read_bytes() \
            != (b / "samples.csv").read_bytes()

    def test_zero_replicates_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(self.CONFIG, n_replicates=3))
        out = tmp_path / "run"
        assert main(["sample", "--config", cfg, "--equation", "wave",
                     "--hurst", "0.5", "--replicates", "0",
                     "--out", str(out)]) == 1
        assert "replicate" in capsys.readouterr().err
        assert not (out / "samples.csv").exists()

    def test_manifest_records_seed(self, tmp_path):
        out = self.run_sample(tmp_path, "a", 7)
        manifest = assert_manifest_digests(out)
        assert manifest["master_seed"] == 7
        assert manifest["config"]["jitter_used"] >= 0.0


class TestSolveDet:
    def test_unit_drift_prints_time_field(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {
            "grid": {"horizon": 1.0, "half_width": 0.5,
                     "n_t": 2, "n_x": 2},
            "drift": {"kind": "const", "params": {"c": 1.0}},
            "eta": {"kind": "zero"}})
        assert main(["solve-det", "--config", cfg,
                     "--equation", "wave"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "t,x,value"
        assert len(lines) == 10
        # Final row: t = 1, value = t^2 / 2.
        assert lines[-1].split(",")[2] == "0.5"

    def test_eta_csv_round_trip(self, tmp_path):
        # With zero drift the solver returns the forcing bit for bit,
        # and shuffled CSV rows must be re-sorted onto the grid.
        grid = {"horizon": 1.0, "half_width": 0.5, "n_t": 2, "n_x": 2}
        ts = np.linspace(0.0, 1.0, 3)
        xs = np.linspace(-0.5, 0.5, 3)
        rows = [(float(t), float(x), 1.0 + 2.0 * float(t) + 3.0 * float(x))
                for t in ts for x in xs]
        rng = np.random.default_rng(0)
        rng.shuffle(rows)
        eta_path = tmp_path / "eta.csv"
        eta_path.write_text("t,x,value\n" + "".join(
            f"{t!r},{x!r},{v!r}\n" for t, x, v in rows))
        cfg = write_config(tmp_path, {
            "grid": grid, "drift": {"kind": "zero"},
            "eta": {"csv": str(eta_path)}})
        out = tmp_path / "run"
        assert main(["solve-det", "--config", cfg, "--equation", "wave",
                     "--out", str(out)]) == 0
        got = np.loadtxt(out / "field.csv", delimiter=",", skiprows=1)
        want = np.array([(t, x, 1.0 + 2.0 * t + 3.0 * x)
                         for t in ts for x in xs])
        assert np.array_equal(got, want)

    def test_eta_csv_header_checked(self, tmp_path, capsys):
        eta_path = tmp_path / "eta.csv"
        eta_path.write_text("time,pos,val\n0,0,1\n")
        cfg = write_config(tmp_path, {
            "grid": {"horizon": 1.0, "half_width": 0.5,
                     "n_t": 2, "n_x": 2},
            "eta": {"csv": str(eta_path)}})
        assert main(["solve-det", "--config", cfg,
                     "--equation", "wave"]) == 1
        assert "t,x,value" in capsys.readouterr().err

    def test_eta_csv_row_count_checked(self, tmp_path, capsys):
        eta_path = tmp_path / "eta.csv"
        eta_path.write_text("t,x,value\n0.0,0.0,1.0\n")
        cfg = write_config(tmp_path, {
            "grid": {"horizon": 1.0, "half_width": 0.5,
                     "n_t": 2, "n_x": 2},
            "eta": {"csv": str(eta_path)}})
        assert main(["solve-det", "--config", cfg,
                     "--equation", "wave"]) == 1
        assert "rows" in capsys.readouterr().err

    def test_sin_time_eta(self, tmp_path):
        cfg = write_config(tmp_path, {
            "grid": {"horizon": 1.0, "half_width": 0.5,
                     "n_t": 4, "n_x": 4},
            "drift": {"kind": "zero"},
            "eta": {"kind": "sin_time", "rate": 2.0}})
        out = tmp_path / "run"
        assert main(["solve-det", "--config", cfg, "--equation", "wave",
                     "--out", str(out)]) == 0
        got = np.loadtxt(out / "field.csv", delimiter=",", skiprows=1)
        for t, _, value in got:
            assert value == pytest.approx(math.sin(2.0 * t), abs=1e-15)

    def test_unknown_eta_kind_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "grid": {"horizon": 1.0, "half_width": 0.5,
                     "n_t": 2, "n_x": 2},
            "eta": {"kind": "sawtooth"}})
        assert main(["solve-det", "--config", cfg,
                     "--equation", "wave"]) == 1
        assert "sawtooth" in capsys.readouterr().err

    def test_misaligned_wave_grid_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "grid": {"horizon": 1.0, "half_width": 0.7,
                     "n_t": 4, "n_x": 4}})
        assert main(["solve-det", "--config", cfg,
                     "--equation", "wave"]) == 1
        assert "alignment" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["horizon", "half_width"])
    def test_infinite_grid_extent_exits_one(self, tmp_path, capsys, key):
        # JSON reads 1e400 as inf; the grid rejects it before any solve.
        grid = {"horizon": 1.0, "half_width": 0.5, "n_t": 2, "n_x": 2}
        text = json.dumps({"eta": {"kind": "zero"}, "grid": grid})
        cfg = tmp_path / "config.json"
        cfg.write_text(text.replace(f'"{key}": {grid[key]}',
                                    f'"{key}": 1e400'))
        assert main(["solve-det", "--config", str(cfg),
                     "--equation", "wave"]) == 1
        assert f"{key} must be finite" in capsys.readouterr().err

    def test_manifest_records_solver_outcome(self, tmp_path):
        cfg = write_config(tmp_path, {
            "grid": {"horizon": 1.0, "half_width": 0.5,
                     "n_t": 2, "n_x": 2},
            "drift": {"kind": "const", "params": {"c": 1.0}},
            "eta": {"kind": "zero"}})
        out = tmp_path / "run"
        assert main(["solve-det", "--config", cfg, "--equation", "wave",
                     "--out", str(out)]) == 0
        manifest = assert_manifest_digests(out)
        assert manifest["diagnostics"]["solve"] == {
            "method": "explicit_march", "pointwise_iterations": []}
        assert not set(manifest["config"]) & {
            "iterations", "used_certificate", "tol", "max_iter"}
        assert manifest["config"]["eta"] == {"kind": "zero"}
        # A heat solve records how many evaluations its nodes took: the
        # constant drift settles every one of the 2 x 3 nodes after the
        # first row in two.
        assert main(["solve-det", "--config", cfg, "--equation", "heat",
                     "--out", str(tmp_path / "heat")]) == 0
        manifest = assert_manifest_digests(tmp_path / "heat")
        assert manifest["diagnostics"]["solve"] == {
            "method": "pointwise_march", "pointwise_iterations": [0, 0, 6]}

    def test_hurst_flag_rejected(self, tmp_path, capsys):
        # A deterministic solve has no roughness index to select.
        cfg = write_config(tmp_path, {
            "grid": {"horizon": 1.0, "half_width": 0.5,
                     "n_t": 2, "n_x": 2},
            "eta": {"kind": "zero"}})
        assert main(["solve-det", "--config", cfg, "--equation", "wave",
                     "--hurst", "0.3"]) == 1
        assert "--hurst" in capsys.readouterr().err


SIM_CONFIG = {
    "equation": "wave", "hurst": 0.5,
    "grid": {"horizon": 1.0, "half_width": 0.5, "n_t": 4, "n_x": 4},
    "drift": {"kind": "tanh_scaled", "params": {"a": 1.0}},
    "initial": {"u0": {"kind": "const", "params": {"c": 1.0}}},
    "n_replicates": 2, "master_seed": 11}


@pytest.mark.parametrize("hurst", [1e-300, 2.0 ** -55, 1e-9])
@pytest.mark.parametrize("equation", ["wave", "heat"])
def test_hurst_near_zero(tmp_path, capsys, equation, hurst):
    # cov, sample and simulate run at every such H, the wave's too,
    # although its spectral exponent 1 - 2H rounds to 1 at H <= 2**-55:
    # the wave forms' factor is exactly 1/8 and needs no exponent.
    points = {"points": [[0.5, 0.0], [1.0, 0.25], [1.0, -0.5]],
              "master_seed": 1}
    runs = (["cov"], ["sample", "--replicates", "2"])
    configs = [points, points, dict(SIM_CONFIG, equation=equation)]
    for k, (argv, cfg) in enumerate(zip([*runs, ["simulate"]], configs)):
        path = write_config(tmp_path, dict(cfg, hurst=hurst), f"c{k}.json")
        out = tmp_path / f"run{k}"
        code = main([*argv, "--config", path, "--equation", equation,
                     "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        for name in assert_manifest_digests(out)["outputs"]:
            if name.endswith(".csv"):
                table = np.loadtxt(out / name, delimiter=",",
                                   skiprows=1, ndmin=2)
                assert np.all(np.isfinite(table))


@pytest.mark.parametrize("hurst", [1e-300, 2.0 ** -55, 1e-9, 1.0 - 1e-9,
                                   1.0 - 2.0 ** -53])
def test_analysis_commands_at_extreme_hurst(tmp_path, capsys, hurst):
    # constants and verify-lemmas work in alpha = 1 - 2H, which rounds
    # to 1 at H <= 2**-55: a numerical failure saying so.  Every other
    # call runs; hconv's default ladder approaches H from below near 1,
    # and its sups fall strictly.
    tiny = hurst <= 2.0 ** -55
    runs = ((["constants"], 2 if tiny else 0),
            (["hoelder", "--equation", "wave"], 0),
            (["hoelder", "--equation", "heat"], 0),
            (["verify-lemmas"], 2 if tiny else 0),
            (["hconv", "--equation", "wave"], 0))
    for k, (argv, want) in enumerate(runs):
        code = main([*argv, "--hurst", repr(hurst),
                     "--out", str(tmp_path / f"run{k}")])
        err = capsys.readouterr().err
        assert code == want, (argv, err)
        if want == 2:
            assert "numerical failure" in err and "rounds to 1" in err
    summary = json.loads((tmp_path / "run4" / "hconv_summary.json")
                         .read_text())
    assert summary["converging"] and 0.0 < min(summary["hursts"])
    assert max(summary["hursts"]) < 1.0


# Runs whose printed table has more than 8,192 cells: (argv without
# --config, config, the file that holds the table).
BIG_TABLES = {
    "cov": (["cov", "--equation", "heat", "--hurst", "0.7"],
            {"points": [[0.125 * (1 + i // 8), -1.0 + 0.25 * (i % 8)]
                        for i in range(40)]}, "cov_matrix.csv"),
    "sample": (["sample", "--equation", "wave", "--hurst", "0.3",
                "--replicates", "400"],
               {"points": [[0.5, 0.0], [1.0, 0.0], [1.0, 0.5], [0.25, -1.0],
                           [1.0, 20.0]]}, "samples.csv"),
    "solve-det": (["solve-det", "--equation", "heat"],
                  {"grid": {"horizon": 1.0, "half_width": 1.0, "n_t": 64,
                            "n_x": 64},
                   "initial": {"u0": {"kind": "sin", "params": {}}}},
                  "field.csv"),
    "simulate": (["simulate"], dict(SIM_CONFIG, n_replicates=100),
                 "fields.csv"),
}


@pytest.mark.parametrize("run", sorted(BIG_TABLES))
def test_stdout_is_the_table_on_the_numpy_route(tmp_path, capsys,
                                                monkeypatch, run):
    # Each table has more than 8,192 cells, so it is rendered in numpy,
    # its repeating columns gathered by shape.
    def refuse(cols, n_rows):
        raise AssertionError("table was not rendered in numpy")

    monkeypatch.setattr(report, "_percent_chunks", refuse)
    argv, config, name = BIG_TABLES[run]
    argv = [*argv, "--config", write_config(tmp_path, config)]
    out = tmp_path / "run"
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert main([*argv, "--out", str(out)]) == 0
    assert printed == (out / name).read_text()
    header = printed[:printed.index("\n")].split(",")
    assert printed.count("\n") * len(header) > 8192 + len(header)


LADDER_CONFIG = {
    "equation": "heat", "hurst": 0.5,
    "grid": {"horizon": 0.5, "half_width": 0.75, "n_t": 6, "n_x": 4},
    "drift": {"kind": "linear", "params": {"a": 1.0}},
    "initial": {"u0": {"kind": "const", "params": {"c": 40.0}}},
    "n_replicates": 3, "master_seed": 3,
    "truncation_ladder": [2.0, 8.0, 32.0, 256.0]}


class TestSimulate:
    def run_sim(self, tmp_path, out_name, extra_args=()):
        cfg = write_config(tmp_path, SIM_CONFIG)
        out = tmp_path / out_name
        code = main(["simulate", "--config", cfg, "--out", str(out),
                     *extra_args])
        assert code == 0
        return out

    def test_artifacts_and_summary(self, tmp_path):
        out = self.run_sim(tmp_path, "run")
        manifest = assert_manifest_digests(out)
        assert manifest["master_seed"] == 11
        assert set(manifest["outputs"]) == {
            "fields.csv", "noise.csv", "summary.json"}
        with open(out / "summary.json", "r", encoding="utf-8") as fh:
            summary = json.load(fh)
        assert summary["n_replicates"] == 2
        assert len(summary["times"]) == 5
        assert len(summary["positions"]) == 5
        mean = np.asarray(summary["mean"])
        var = np.asarray(summary["variance"])
        se = np.asarray(summary["se"])
        assert mean.shape == var.shape == se.shape == (5, 5)
        assert np.allclose(se, np.sqrt(var / 2.0), rtol=1e-12)
        fields = np.loadtxt(out / "fields.csv", delimiter=",", skiprows=1)
        assert fields.shape == (50, 4)
        got_mean = fields[:, 3].reshape(2, 5, 5).mean(axis=0)
        assert np.allclose(got_mean, mean, rtol=0, atol=1e-15)

    def test_fixed_seed_is_byte_identical(self, tmp_path):
        a = self.run_sim(tmp_path, "a")
        b = self.run_sim(tmp_path, "b")
        for name in ("fields.csv", "noise.csv", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        a = self.run_sim(tmp_path, "a", ("--threads", "1"))
        b = self.run_sim(tmp_path, "b", ("--threads", "3"))
        assert (a / "fields.csv").read_bytes() \
            == (b / "fields.csv").read_bytes()

    @pytest.mark.parametrize("value", ["zero", "0", "-2"])
    def test_bad_thread_count_exits_one(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, SIM_CONFIG)
        assert main(["simulate", "--config", cfg, "--threads", value]) == 1
        assert "--threads" in capsys.readouterr().err

    def test_zero_replicates_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SIM_CONFIG)
        assert main(["simulate", "--config", cfg, "--replicates", "0"]) == 1
        assert "n_replicates" in capsys.readouterr().err

    def test_stdout_is_the_fields_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SIM_CONFIG)
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg]) == 0
        printed = capsys.readouterr().out
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert printed == (out / "fields.csv").read_text()

    def test_march_failure_exits_two(self, tmp_path, capsys):
        # Heat steps of 1/4 with a drift of slope 8 leave each node's
        # map without a contraction (dt L / 2 = 1): a numerical failure.
        cfg = dict(SIM_CONFIG, equation="heat",
                   drift={"kind": "tanh_scaled", "params": {"a": 8.0}})
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "dt L / 2 < 1" in err

    def test_old_solver_keys_are_ignored(self, tmp_path):
        # Configs written for the Picard loop still run, to the same
        # bytes.
        a = self.run_sim(tmp_path, "a")
        path = write_config(tmp_path, dict(SIM_CONFIG, tol=1e-14,
                                           max_iter=1))
        out = tmp_path / "b"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        assert (a / "fields.csv").read_bytes() \
            == (out / "fields.csv").read_bytes()
        manifest = assert_manifest_digests(out)
        assert not set(manifest["config"]) & {"tol", "max_iter"}

    def test_manifest_records_the_solve(self, tmp_path):
        out = self.run_sim(tmp_path, "run")
        manifest = assert_manifest_digests(out)
        assert manifest["diagnostics"]["solve"]["method"] == "explicit_march"
        path = write_config(tmp_path, LADDER_CONFIG)
        out = tmp_path / "ladder"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        solves = assert_manifest_digests(out)["diagnostics"]["solves"]
        assert len(solves) == len(LADDER_CONFIG["truncation_ladder"])
        for solve in solves:
            assert solve["method"] == "pointwise_march"
            # 3 replicates, 6 rows after the first, 5 nodes a row.
            assert sum(solve["pointwise_iterations"]) == 3 * 6 * 5

    def test_ladder_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, LADDER_CONFIG)
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out",
                     str(out)]) == 0
        dev = np.loadtxt(out / "ladder_deviations.csv", delimiter=",",
                         skiprows=1)
        assert dev.shape == (4, 2)
        assert np.all(np.diff(dev[:, 1]) < 0.0)
        assert dev[-1, 1] == 0.0
        consec = np.loadtxt(out / "ladder_consecutive.csv",
                            delimiter=",", skiprows=1)
        assert consec.shape == (3, 2)
        assert_manifest_digests(out)

    def test_empty_ladder_needs_two_levels(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(LADDER_CONFIG,
                                          truncation_ladder=[]))
        assert main(["simulate", "--config", cfg]) == 1
        assert "truncation ladder needs >= 2 levels" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("case, levels", [
        (dict(LADDER_CONFIG, drift={"kind": "tanh_scaled"}), [0.5, 1, 2]),
        (SIM_CONFIG, [0.5, 1, 2]),
        (dict(SIM_CONFIG, drift={"kind": "linear"}), [0.5, 8, 256]),
        (dict(LADDER_CONFIG, drift=dict(LADDER_CONFIG["drift"],
                                        truncation_level=4)), [2, 4, 8]),
    ], ids=["heat-tanh", "wave-tanh", "wave-linear", "heat-clipped"])
    def test_ladder_takes_any_drift_and_either_equation(self, tmp_path,
                                                        case, levels):
        # Bounded, unbounded and clipped drifts, heat and wave: the
        # rungs at or above the drift's sup on the field (1 for tanh, 4
        # for the clip, 8 for these wave fields) deviate by exactly 0.
        cfg = write_config(tmp_path, dict(case, truncation_ladder=levels))
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        manifest = assert_manifest_digests(out)
        assert manifest["config"]["truncation_ladder"] == [
            float(m) for m in levels]
        dev = np.loadtxt(out / "ladder_deviations.csv", delimiter=",",
                         skiprows=1)
        assert np.array_equal(dev[:, 0], levels)
        assert dev[0, 1] > 0.0 and np.all(dev[1:, 1] == 0.0)
        consec = np.loadtxt(out / "ladder_consecutive.csv",
                            delimiter=",", skiprows=1)
        assert consec[0, 1] > 0.0 and consec[1, 1] == 0.0


class TestHoelder:
    def test_stdout_verdict(self, capsys):
        assert main(["hoelder", "--equation", "wave", "--hurst", "0.3",
                     "--direction", "time"]) == 0
        out = capsys.readouterr().out
        assert "slope" in out
        assert "ok" in out

    def test_fit_artifact(self, tmp_path):
        out = tmp_path / "run"
        assert main(["hoelder", "--equation", "wave", "--hurst", "0.3",
                     "--direction", "time", "--out", str(out)]) == 0
        with open(out / "hoelder_fit.json", "r", encoding="utf-8") as fh:
            fit = json.load(fh)
        assert fit["within_tolerance"] is True
        assert abs(fit["slope"] - fit["expected_slope"]) <= 0.1
        assert fit["expected_slope"] == pytest.approx(0.6)
        moments = np.loadtxt(out / "hoelder_moments.csv", delimiter=",",
                             skiprows=1)
        assert moments.shape == (6, 2)
        assert_manifest_digests(out)

    def test_unreachable_tolerance_is_reported(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "hoelder": {"direction": "time", "tolerance": 1e-6}})
        assert main(["hoelder", "--config", cfg, "--equation", "wave",
                     "--hurst", "0.3"]) == 0
        assert "OUT_OF_TOLERANCE" in capsys.readouterr().out

    @pytest.mark.parametrize("equation, direction", [
        ("heat", "time"), ("heat", "space"), ("wave", "space")])
    def test_flat_moments_fit_slope_zero(self, tmp_path, equation,
                                         direction):
        # At H = 1e-300 these increment moments are one constant: a flat
        # line, slope 0 within tolerance, not nan.
        out = tmp_path / "run"
        assert main(["hoelder", "--equation", equation, "--hurst", "1e-300",
                     "--direction", direction, "--out", str(out)]) == 0
        fit = json.loads((out / "hoelder_fit.json").read_text())
        moments = np.loadtxt(out / "hoelder_moments.csv", delimiter=",",
                             skiprows=1)[:, 1]
        assert np.all(moments == moments[0])
        assert (fit["slope"], fit["r_squared"], fit["stderr_slope"]) == \
            (0.0, 1.0, 0.0)
        assert fit["within_tolerance"] is True


class TestHConv:
    def test_summary_artifact(self, tmp_path):
        cfg = write_config(tmp_path, {
            "hconv": {"reference": 0.5, "hursts": [0.6, 0.55, 0.51]}})
        out = tmp_path / "run"
        assert main(["hconv", "--config", cfg, "--equation", "wave",
                     "--out", str(out)]) == 0
        with open(out / "hconv_summary.json", "r",
                  encoding="utf-8") as fh:
            summary = json.load(fh)
        assert summary["strictly_decreasing"] is True
        assert summary["converging"] is True
        assert summary["final_over_first"] < 1.0
        sups = np.loadtxt(out / "hconv_sups.csv", delimiter=",",
                          skiprows=1)
        assert sups.shape == (3, 2)
        assert np.all(np.diff(sups[:, 1]) < 0.0)
        assert_manifest_digests(out)

    @staticmethod
    def reference(tmp_path, argv, config):
        out = tmp_path / "run"
        argv = ["hconv", "--equation", "wave", "--out", str(out), *argv]
        if config is not None:
            argv += ["--config", write_config(tmp_path, config)]
        assert main(argv) == 0
        with open(out / "hconv_summary.json", "r", encoding="utf-8") as fh:
            return json.load(fh)["reference"]

    def test_reference_resolution_order(self, tmp_path):
        # hconv.reference, then --hurst or the config hurst, then 1/2.
        hursts = {"hursts": [0.45, 0.42, 0.41]}
        assert self.reference(tmp_path, ["--hurst", "0.4"],
                              {"hconv": hursts}) == 0.4
        assert self.reference(tmp_path, [],
                              {"hurst": 0.4, "hconv": hursts}) == 0.4
        assert self.reference(tmp_path, ["--hurst", "0.4"],
                              {"hurst": 0.3, "hconv": hursts}) == 0.4
        assert self.reference(
            tmp_path, ["--hurst", "0.3"],
            {"hurst": 0.3, "hconv": dict(hursts, reference=0.4)}) == 0.4
        assert self.reference(tmp_path, [],
                              {"hconv": {"hursts": [0.6, 0.55]}}) == 0.5

    def test_empty_index_list_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"hconv": {"hursts": []}})
        assert main(["hconv", "--config", cfg, "--equation", "wave"]) == 1
        assert "at least one trial index" in capsys.readouterr().err

    def test_hurst_flag_sets_default_ladder(self, tmp_path):
        # Without hconv.hursts the ladder approaches the reference.
        out = tmp_path / "run"
        assert main(["hconv", "--equation", "wave", "--hurst", "0.3",
                     "--out", str(out)]) == 0
        with open(out / "hconv_summary.json", "r", encoding="utf-8") as fh:
            summary = json.load(fh)
        assert summary["reference"] == 0.3
        assert summary["hursts"][0] == pytest.approx(0.5)
        assert summary["hursts"][-1] == pytest.approx(0.3 + 0.2 / 128)

    @pytest.mark.parametrize("equation", ["wave", "heat"])
    @pytest.mark.parametrize("hurst", [0.8, 0.85])
    def test_default_ladder_comes_from_below_near_one(self, tmp_path,
                                                      equation, hurst):
        # reference + 0.2 would reach 1, so the ladder climbs to the
        # reference from reference - 0.2, and its sups fall strictly.
        out = tmp_path / "run"
        assert main(["hconv", "--equation", equation, "--hurst",
                     repr(hurst), "--out", str(out)]) == 0
        summary = json.loads((out / "hconv_summary.json").read_text())
        assert summary["hursts"] == [hurst - 0.2 * 2.0 ** -k
                                     for k in range(8)]
        assert summary["converging"] is True


class TestVerifyLemmas:
    def test_alpha_lattice_from_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "lemmas": {"alphas": [0.0, 0.5], "shifts": [0.25, 0.5]}})
        out = tmp_path / "run"
        assert main(["verify-lemmas", "--config", cfg,
                     "--out", str(out)]) == 0
        with open(out / "summary.json", "r", encoding="utf-8") as fh:
            summary = json.load(fh)
        assert summary["all_within"] is True
        cells = [k for k in summary if k != "all_within"]
        assert len(cells) == 8
        assert "time_shift:wave:alpha=0.5" in summary
        table = (out / "lemma_margins.csv").read_text().splitlines()
        assert table[0] == "kind,equation,alpha,shift,lhs,rhs,ratio"
        assert len(table) == 1 + 8 * 2
        assert_manifest_digests(out)

    def test_alphas_that_g_shortens_keep_one_key_each(self, tmp_path,
                                                      capsys):
        # 1 - 2H on a 0.025 ladder of H: 17 of the 33 alphas print
        # shorter under :g, but no two alike, so each table keeps its
        # summary entry.
        alphas = [1.0 - 2.0 * round(0.1 + 0.025 * i, 3) for i in range(33)]
        assert len({f"{a:g}" for a in alphas}) == 33
        assert sum(f"{a:g}" != repr(a) for a in alphas) == 17
        cfg = write_config(tmp_path, {"lemmas": {"alphas": alphas}})
        out = tmp_path / "run"
        assert main(["verify-lemmas", "--config", cfg,
                     "--out", str(out)]) == 0
        with open(out / "summary.json", "r", encoding="utf-8") as fh:
            summary = json.load(fh)
        assert len(summary) == 4 * 33 + 1
        table = (out / "lemma_margins.csv").read_text().splitlines()
        assert len(table) == 1 + 4 * 33 * 8

    def test_small_shifts_within_bounds(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "lemmas": {"alphas": [-0.9, -0.5, 0.0, 0.5, 0.9],
                       "shifts": [1e-6, 1e-4, 1e-3, 0.5]}})
        assert main(["verify-lemmas", "--config", cfg]) == 0
        assert capsys.readouterr().out.endswith("all_within True\n")

    @pytest.mark.parametrize("horizon", [1e-5, 1e-10, 1e-20, 1e-300])
    def test_tiny_horizons_within_bounds(self, tmp_path, capsys, horizon):
        # Every lhs is finite and every time-shift lhs positive.  The
        # wave's space-shift rows at 1e-300 are variances of order
        # T^(2 - alpha), below the smallest double, and read 0.  Past
        # the horizon's reach the space-shift lhs falls, unchecked.
        cfg = write_config(tmp_path, {"lemmas": {"horizon": horizon}})
        out = tmp_path / "run"
        assert main(["verify-lemmas", "--config", cfg,
                     "--out", str(out)]) == 0
        with open(out / "lemma_margins.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 96
        for row in rows:
            lhs = float(row["lhs"])
            assert math.isfinite(lhs) and lhs >= 0.0
            assert lhs > 0.0 or row["kind"] == "space_shift"
        assert json.loads((out / "summary.json").read_text())["all_within"]

    def test_quad_key_is_ignored(self, tmp_path):
        # The rows are closed forms; a stale quadrature setting, even an
        # invalid one, changes no byte.
        lemmas = {"alphas": [-0.5, 0.5], "shifts": [0.125, 0.5]}
        tables = []
        for extra in ({}, {"quad": {"rel_tol": 2.0}}):
            cfg = write_config(tmp_path, dict(extra, lemmas=lemmas))
            out = tmp_path / f"run{len(tables)}"
            assert main(["verify-lemmas", "--config", cfg,
                         "--out", str(out)]) == 0
            tables.append((out / "lemma_margins.csv").read_bytes())
        assert tables[0] == tables[1]

    @pytest.mark.filterwarnings("error")
    def test_overflowing_row_exits_two_with_one_line(self, tmp_path, capsys):
        # At alpha = -0.9 every row at shift 1e300 leaves double range,
        # the wave time-shift lhs (2.05e571) and every rhs; the first one
        # run, the wave space-shift row, is reported.  A run used to
        # print VIOLATED over the other rows' ratios after six numpy
        # warnings.
        cfg = write_config(tmp_path, {
            "lemmas": {"alphas": [-0.9], "shifts": [0.1, 1e300]}})
        assert main(["verify-lemmas", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "fracfield: numerical failure: space_shift:wave:alpha=-0.9 at "
            "shift 1e+300 has lhs 14.14338879745347 and rhs inf: ")
        assert captured.err.count("\n") == 1

    def test_hurst_flag_selects_single_alpha(self, capsys):
        assert main(["verify-lemmas", "--hurst", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "space_shift:wave:alpha=0.4" in out
        assert "all_within True" in out


HEAT_WITH_V0 = {"u0": {"kind": "sin", "params": {}},
                "v0": {"kind": "bump", "params": {"w": 0.5}}}

# Settings a run must refuse with exit 1 and a one-line message that
# names the key: sections that are not objects, counts and seeds that
# are not integers, and malformed profiles, pairs and parameters.
MALFORMED = {
    "hoelder-section": (["hoelder", "--equation", "wave", "--hurst", "0.3"],
                        {"hoelder": 5}, "hoelder"),
    "hconv-section": (["hconv", "--equation", "wave"], {"hconv": [1]},
                      "hconv"),
    "lemmas-section": (["verify-lemmas"], {"lemmas": "x"}, "lemmas"),
    "lemmas-shifts-empty": (["verify-lemmas"], {"lemmas": {"shifts": []}},
                            "shifts"),
    "hoelder-base": (["hoelder", "--equation", "wave", "--hurst", "0.3"],
                     {"hoelder": {"base": [1.0]}}, "hoelder.base"),
    "grid-n_t": (["simulate"], dict(SIM_CONFIG, grid=dict(
        SIM_CONFIG["grid"], n_t=4.7)), "grid.n_t"),
    "n_replicates": (["simulate"], dict(SIM_CONFIG, n_replicates=2.9),
                     "n_replicates"),
    "master_seed": (["simulate"], dict(SIM_CONFIG, master_seed=1.5),
                    "master_seed"),
    "master_seed-true": (["sample", "--equation", "heat", "--hurst", "0.5"],
                         {"points": [[0.5, 0.0]], "master_seed": True},
                         "master_seed"),
    "master_seed-negative": (
        ["sample", "--equation", "heat", "--hurst", "0.5"],
        {"points": [[0.5, 0.0]], "master_seed": -1}, "master_seed"),
    "u0-name": (["simulate"], dict(SIM_CONFIG, initial={"u0": "sin"}),
                "initial.u0"),
    "u0-empty": (["simulate"], dict(SIM_CONFIG, initial={"u0": {}}),
                 "initial.u0.kind"),
    "drift-params": (["simulate"], dict(SIM_CONFIG, drift={
        "kind": "zero", "params": [1]}), "drift.params"),
    "equation": (["simulate"], dict(SIM_CONFIG, equation=5), "equation"),
    # Registry parameters: a misspelt key, a non-finite or string value.
    "drift-param-name": (["simulate"], dict(SIM_CONFIG, drift={
        "kind": "tanh_scaled", "params": {"A": 5.0}}), "A"),
    "drift-param-nan": (["solve-det", "--equation", "heat"], dict(
        SIM_CONFIG, drift={"kind": "linear", "params": {"a": math.nan}}),
        "a"),
    "u0-param-name": (["simulate"], dict(SIM_CONFIG, initial={
        "u0": {"kind": "const", "params": {"C": 1.0}}}), "C"),
    "v0-param-string": (["solve-det", "--equation", "wave"], dict(
        SIM_CONFIG, initial={"u0": {"kind": "sin", "params": {}}, "v0": {
            "kind": "bump", "params": {"w": "0.5"}}}), "w"),
    # A list where the parameter takes one number.
    "drift-param-list": (["simulate"], dict(SIM_CONFIG, drift={
        "kind": "const", "params": {"c": [1, 2]}}), "c"),
    "u0-param-list": (["simulate"], dict(SIM_CONFIG, initial={
        "u0": {"kind": "sin", "params": {"k": [1.0]}}}), "k"),
    # The heat equation takes no initial speed.
    "heat-v0-simulate": (["simulate", "--equation", "heat"], dict(
        SIM_CONFIG, initial=HEAT_WITH_V0), "v0"),
    "heat-v0-solve-det": (["solve-det", "--equation", "heat"], dict(
        SIM_CONFIG, initial=HEAT_WITH_V0), "v0"),
    # An explicit forcing reads no initial data, so it refuses some; the
    # CSV is refused before it is looked for.
    "initial-with-eta-zero": (["solve-det", "--equation", "heat"], dict(
        SIM_CONFIG, initial=HEAT_WITH_V0, eta={"kind": "zero"}), "initial"),
    "initial-with-eta-csv": (["solve-det", "--equation", "wave"], dict(
        SIM_CONFIG, eta={"csv": "absent.csv"}), "initial"),
    # A misspelt key in a section would leave its default in force.
    "drift-key": (["simulate"], dict(SIM_CONFIG, drift={
        "kind": "tanh_scaled", "parms": {"a": 5.0}}), "drift.parms"),
    "eta-key": (["solve-det", "--equation", "heat"], {
        "grid": SIM_CONFIG["grid"], "eta": {"kind": "constant",
                                            "valeu": 3.0}}, "eta.valeu"),
    "grid-key": (["simulate"], dict(SIM_CONFIG, grid=dict(
        SIM_CONFIG["grid"], nt=8)), "grid.nt"),
    "u0-key": (["simulate"], dict(SIM_CONFIG, initial={
        "u0": {"kind": "const", "param": {"c": 2.0}}}), "initial.u0.param"),
    "v0-key": (["solve-det", "--equation", "wave"], dict(
        SIM_CONFIG, initial={"u0": {"kind": "sin", "params": {}}, "v0": {
            "kind": "bump", "params": {"w": 0.5}, "a": 2.0}}),
        "initial.v0.a"),
    # Two alphas that the summary keys would show alike.
    "lemmas-alphas-collide": (["verify-lemmas"], {
        "lemmas": {"alphas": [0.5, 0.5000001]}}, "lemmas.alphas"),
    "lemmas-alphas-repeat": (["verify-lemmas"], {
        "lemmas": {"alphas": [0.0, -0.5, 0.0]}}, "lemmas.alphas"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_setting_exits_one_naming_its_key(tmp_path, capsys, case):
    argv, config, key = MALFORMED[case]
    assert main([*argv, "--config", write_config(tmp_path, config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fracfield: invalid configuration: ")
    assert err.count("\n") == 1 and f" {key} " in err


def test_eta_kind_csv_names_the_csv_key(tmp_path, capsys):
    # A CSV forcing is selected by the eta.csv key, not by a kind.
    config = {key: value for key, value in SIM_CONFIG.items()
              if key != "initial"}
    config["eta"] = {"kind": "csv"}
    assert main(["solve-det", "--config",
                 write_config(tmp_path, config)]) == 1
    assert capsys.readouterr().err == (
        "fracfield: invalid configuration: unknown eta kind 'csv'; use "
        "'initial', 'zero', 'constant' or 'sin_time', or name a CSV "
        "forcing with the eta.csv key\n")


@pytest.mark.parametrize("blocked", ["out", "artifact"])
def test_unwritable_output_exits_one_with_one_line(tmp_path, capsys,
                                                   blocked):
    # --out names an existing file, or a directory stands where an
    # artifact should go.
    out = tmp_path / "run"
    if blocked == "out":
        out.write_text("")
    else:
        (out / "constants.csv").mkdir(parents=True)
    assert main(["constants", "--hurst", "0.3", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fracfield: cannot write output: ")
    assert err.count("\n") == 1 and str(out) in err


def test_failed_write_leaves_no_unpinned_artifact(tmp_path, capsys):
    # A directory stands where noise.csv should go: fields.csv, written
    # before it, and the old manifest go; a file the run did not write
    # stays.
    out = tmp_path / "partial"
    (out / "noise.csv").mkdir(parents=True)
    (out / "run_manifest.json").write_text("{}")
    (out / "bystander.txt").write_text("kept")
    assert main(["simulate", "--config", write_config(tmp_path, SIM_CONFIG),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fracfield: cannot write output: ")
    assert err.count("\n") == 1
    assert sorted(p.name for p in out.iterdir()) == ["bystander.txt",
                                                     "noise.csv"]
    assert (out / "bystander.txt").read_text() == "kept"


def test_closed_stdout_ends_quietly(tmp_path):
    # The reader closes the pipe after the header.  14,400 rows are two
    # chunks, so a write after the close meets the closed pipe however
    # the two processes interleave.
    points = [[0.1 * (1 + i // 10), -1.0 + 0.25 * (i % 10)]
              for i in range(120)]
    cfg = write_config(tmp_path, {"equation": "heat", "hurst": 0.7,
                                  "points": points})
    src = str(Path(fracfield.__file__).resolve().parents[1])
    with subprocess.Popen(
            [sys.executable, "-m", "fracfield.cli", "cov", "--config", cfg],
            env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"i,j,t_i,x_i,t_j,x_j,cov\n"
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=120) == 1


@pytest.mark.parametrize("message, shown", [
    ("Unable to allocate 7.28 TiB for an array",
     "Unable to allocate 7.28 TiB for an array"),
    ("", "allocation failed")])
def test_out_of_memory_exits_two_with_one_line(monkeypatch, capsys,
                                               message, shown):
    # A grid too large to allocate (numpy's message), or the
    # interpreter's bare MemoryError; raised here without allocating.
    def allocate(cfg, args):
        raise MemoryError(message)

    _, text, keys = cli._COMMANDS["constants"]
    monkeypatch.setitem(cli._COMMANDS, "constants", (allocate, text, keys))
    assert main(["constants", "--hurst", "0.3"]) == 2
    assert capsys.readouterr().err == f"fracfield: out of memory: {shown}\n"


# One default run of each subcommand, and the precedence cases, with the
# settings its manifest records, as resolved before the config reader
# was one function (the fitted and measured values are pinned above).
POINTS_CONFIG = {"equation": "heat", "hurst": 0.7,
                 "points": [[0.5, 0.0], [1, -0.25]]}
GRID_2X2 = {"grid": {"horizon": 1, "half_width": 0.5, "n_t": 2, "n_x": 2}}
RESOLVED = {
    "constants": (["constants", "--hurst", "0.3"], None, {"hurst": 0.3}),
    "cov": (["cov"], POINTS_CONFIG, {
        "equation": "heat", "hurst": 0.7,
        "points": [[0.5, 0.0], [1.0, -0.25]]}),
    "sample": (["sample", "--equation", "wave"], POINTS_CONFIG, {
        "equation": "wave", "hurst": 0.7, "jitter_used": 0.0,
        "master_seed": 0, "n_replicates": 1,
        "points": [[0.5, 0.0], [1.0, -0.25]]}),
    "solve-det": (["solve-det", "--equation", "heat"], GRID_2X2, {
        "drift": "zero", "equation": "heat", "eta": {"kind": "initial"},
        "grid": {"half_width": 0.5, "horizon": 1.0, "n_t": 2, "n_x": 2},
        "initial": {}}),
    "simulate": (["simulate"], dict(GRID_2X2, equation="wave", hurst=0.4), {
        "drift": "zero", "equation": "wave",
        "grid": {"half_width": 0.5, "horizon": 1.0, "n_t": 2, "n_x": 2},
        "initial": {},
        "hurst": 0.4, "jitter_used": 0.0, "master_seed": 0,
        "n_replicates": 1, "truncation_ladder": None}),
    # The initial data as given, so that runs apart only in it differ.
    "solve-det-initial": (["solve-det", "--equation", "heat"], dict(
        GRID_2X2, initial={"u0": {"kind": "sin"}}), {
        "drift": "zero", "equation": "heat", "eta": {"kind": "initial"},
        "grid": {"half_width": 0.5, "horizon": 1.0, "n_t": 2, "n_x": 2},
        "initial": {"u0": {"kind": "sin"}}}),
    "simulate-initial": (["simulate"], dict(
        GRID_2X2, equation="wave", hurst=0.4,
        initial={"u0": {"kind": "const", "params": {"c": 2.0}}}), {
        "drift": "zero", "equation": "wave",
        "grid": {"half_width": 0.5, "horizon": 1.0, "n_t": 2, "n_x": 2},
        "initial": {"u0": {"kind": "const", "params": {"c": 2.0}}},
        "hurst": 0.4, "jitter_used": 0.0, "master_seed": 0,
        "n_replicates": 1, "truncation_ladder": None}),
    "hoelder": (["hoelder", "--equation", "wave", "--hurst", "0.3"], None, {
        "base": [1.0, 0.0], "direction": "time", "equation": "wave",
        "expected_slope": 0.6, "hurst": 0.3, "p": 2.0, "tolerance": 0.1}),
    "hconv": (["hconv", "--equation", "heat"], None, {
        "equation": "heat", "reference": 0.5,
        "hursts": [0.7, 0.6, 0.55, 0.525, 0.5125, 0.50625, 0.503125,
                   0.5015625]}),
    # --hurst before the config's hurst, hconv.reference before both.
    "hconv-flag-over-config": (
        ["hconv", "--equation", "heat", "--hurst", "0.3"], {"hurst": 0.6}, {
            "equation": "heat", "reference": 0.3,
            "hursts": [0.5, 0.4, 0.35, 0.325, 0.3125, 0.30624999999999997,
                       0.303125, 0.3015625]}),
    "hconv-reference-over-flag": (
        ["hconv", "--equation", "heat", "--hurst", "0.3"],
        {"hconv": {"reference": 0.4}}, {
            "equation": "heat", "reference": 0.4,
            "hursts": [0.6000000000000001, 0.5, 0.45, 0.42500000000000004,
                       0.41250000000000003, 0.40625, 0.403125,
                       0.40156250000000004]}),
    # Without lemmas.alphas: 1 - 2H of a given index, else the lattice.
    "verify-lemmas": (["verify-lemmas"], None, {
        "alphas": [-0.5, 0.0, 0.5], "horizon": 1.0}),
    "verify-lemmas-hurst": (["verify-lemmas"], {"hurst": 0.25}, {
        "alphas": [0.5], "horizon": 1.0}),
}
@pytest.mark.parametrize("run", sorted(RESOLVED))
def test_manifest_config_is_pinned(tmp_path, run):
    argv, config, want = RESOLVED[run]
    if config is not None:
        argv = [*argv, "--config", write_config(tmp_path, config)]
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out)]) == 0
    assert read_manifest(out)["config"] == want


# For each flag that overrides a config key: a run whose config gives
# the key one value while the flag gives another, the manifest field
# that records the setting, and the flag's value as recorded there.
OVERRIDES = {
    "hurst": (["constants", "--hurst", "0.3"], {"hurst": 0.6}, "hurst", 0.3),
    "equation": (["cov", "--equation", "wave"], POINTS_CONFIG, "equation",
                 "wave"),
    "master_seed": (["sample", "--seed", "5"],
                    dict(POINTS_CONFIG, master_seed=1), "master_seed", 5),
    "n_replicates": (["sample", "--replicates", "2"],
                     dict(POINTS_CONFIG, n_replicates=3), "n_replicates", 2),
    "hoelder.direction": (
        ["hoelder", "--equation", "heat", "--hurst", "0.5", "--direction",
         "space"], {"hoelder": {"direction": "time"}}, "direction", "space"),
    "hoelder.p": (["hoelder", "--equation", "heat", "--hurst", "0.5", "--p",
                   "4"], {"hoelder": {"p": 2}}, "p", 4.0),
}
# The flags that set no config key.
NOT_SETTINGS = {"config", "out", "threads"}


@pytest.mark.parametrize("key", sorted(cli._FLAGS.keys() - NOT_SETTINGS))
def test_flag_overrides_its_key(tmp_path, key):
    argv, config, field, want = OVERRIDES[key]
    options = cli._FLAGS[key][0]
    at = argv.index(options[0])
    cfg = write_config(tmp_path, config)
    # Each option string of the flag, then no flag: the config's value.
    for i, option in enumerate([*options, None]):
        run = (argv[:at] + argv[at + 2:] if option is None
               else [*argv[:at], option, *argv[at + 1:]])
        out = tmp_path / str(i)
        assert main([*run, "--config", cfg, "--out", str(out)]) == 0
        got = read_manifest(out)["config"][field]
        if option is None:
            section, _, name = key.rpartition(".")
            assert got == (config[section] if section else config)[name]
        else:
            assert got == want


# One run of every subcommand: (argv without --config/--out, config).
RUNS = {
    "constants": (["constants", "--hurst", "0.3"], None),
    "cov": (["cov", "--equation", "heat", "--hurst", "0.5"],
            {"points": [[0.5, 0.0], [1.0, 0.25]]}),
    "sample": (["sample", "--equation", "wave", "--hurst", "0.5"],
               {"points": [[0.0, 0.0], [0.5, 0.0], [1.0, 0.5]],
                "n_replicates": 2}),
    "solve-det": (["solve-det", "--equation", "wave"],
                  {"grid": {"horizon": 1.0, "half_width": 0.5,
                            "n_t": 2, "n_x": 2},
                   "eta": {"kind": "zero"}}),
    "simulate": (["simulate"], SIM_CONFIG),
    "simulate-ladder": (["simulate"], LADDER_CONFIG),
    "hoelder": (["hoelder", "--equation", "wave", "--hurst", "0.3"], None),
    "hconv": (["hconv", "--equation", "wave"],
              {"hconv": {"reference": 0.5, "hursts": [0.6, 0.55, 0.51]}}),
    "verify-lemmas": (["verify-lemmas"],
                      {"lemmas": {"alphas": [0.0], "shifts": [0.25, 0.5]}}),
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_written_files_match_manifest(tmp_path, run):
    argv, config = RUNS[run]
    if config is not None:
        argv = [*argv, "--config", write_config(tmp_path, config)]
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out)]) == 0
    manifest = assert_manifest_digests(out)
    assert manifest["subcommand"] == argv[0]
    written = {p.name for p in out.iterdir()} - {"run_manifest.json"}
    assert written == set(manifest["outputs"])


# Small runs whose CSV digests were recorded from the per-row writer,
# so a writer that changes bytes consistently from run to run still
# fails here.  The values come from numpy, scipy and the BLAS, so
# another build of those may move the last bits and these literals.
GOLDEN_WAVE = dict(SIM_CONFIG, n_replicates=3)
GOLDEN_HEAT = {
    "equation": "heat", "hurst": 0.7,
    "grid": {"horizon": 0.5, "half_width": 0.5, "n_t": 4, "n_x": 4},
    "drift": {"kind": "tanh_scaled", "params": {"a": 1.0}},
    "initial": {"u0": {"kind": "sin", "params": {}}},
    "n_replicates": 3, "master_seed": 5}
GOLDEN_RUNS = {
    # fields.csv recorded from the wave sweep over one n_t-cell margin,
    # row 0 at half weight in its running sums; 1 ulp of each field's
    # sup from the sweep that padded a second time.
    "simulate-wave": (["simulate"], GOLDEN_WAVE, {
        "fields.csv": "6fef8dcda4587c3f391ecc5f4074f8b4"
                      "852ba6bcb6cc8bc89b220257deac4282",
        "noise.csv": "495cf096e4612f4690fff749e958aa5d"
                     "2edfbdda1f6a3a9378414d2d08703a12"}),
    # This run and "cov" were recorded with Kummer's function summed from
    # its series in covariance, not by scipy's hyp1f1; its fields.csv
    # with the causal march, 1.1e-8 from the Picard loop's at tol 1e-8.
    "simulate-heat": (["simulate"], GOLDEN_HEAT, {
        "fields.csv": "79dd35c4dd06e460428f8521b025632d"
                      "158c4f7adca8d5b9f9655790bd692bdd",
        "noise.csv": "cf55d6351af0c2ffbb49c5cd6d2914bf"
                     "a7cc341710f3d6d0c4eab20c5c35665b"}),
    # Recorded while the ladder was a field of the simulation config and
    # refused bounded drifts and the wave.
    "simulate-ladder": (["simulate"], LADDER_CONFIG, {
        "ladder_deviations.csv": "526fd9b4f465d0e7abf475fa52dbb685"
                                 "68ff199e9e31dd3d878d3ab1eacc0adb",
        "ladder_consecutive.csv": "039cfc969e0c16ae1a5baa213d8480f3"
                                  "e5bb24db6c4cc2e868a7acca502e36b0"}),
    "sample": (["sample", "--equation", "wave", "--hurst", "0.5",
                "--seed", "7", "--replicates", "3"],
               {"points": [[0.0, 0.0], [0.5, 0.0], [0.5, -0.25],
                           [1.0, 0.5]]}, {
        "samples.csv": "b213eb21eaa9b608d9311055e4c94a95"
                       "68c4941cee5a44dc141a332ab832d289"}),
    "cov": (["cov", "--equation", "heat", "--hurst", "0.5"],
            {"points": [[0.5, 0.0], [1.0, 0.25], [1.0, -0.5]]}, {
        "cov_matrix.csv": "98e6b7fd4c433c3316658d11a75c7b65"
                          "076aa4859ae988084f79ad420581a213"}),
    # Recorded from the closed-form time-shift rows, with the heat rows
    # written through d = (1 + alpha)/2 and the Cephes Gamma, and the
    # wave's factor the exact 1/8.
    "verify-lemmas": (["verify-lemmas"],
                      {"lemmas": {"alphas": [-0.5, 0.0, 0.5]}}, {
        "lemma_margins.csv": "f1c7772f12dbdb073e7e4b7c933e675a"
                             "d6bdca3258c45afb0631a4d79dce24f1"}),
}


@pytest.mark.parametrize("run", sorted(GOLDEN_RUNS))
def test_csv_digests_are_pinned(tmp_path, run):
    argv, config, digests = GOLDEN_RUNS[run]
    out = tmp_path / "run"
    assert main([*argv, "--config", write_config(tmp_path, config),
                 "--out", str(out)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.glob("*.csv")}
    assert written == digests


def test_manifest_times_compute_and_writes_apart(tmp_path):
    argv, config, digests = GOLDEN_RUNS["simulate-wave"]
    out = tmp_path / "run"
    assert main([*argv, "--config", write_config(tmp_path, config),
                 "--out", str(out)]) == 0
    manifest = assert_manifest_digests(out)
    timings = manifest["diagnostics"]
    assert set(timings) == {"compute_s", "write_s", "write", "solve",
                            "blas_threads"}
    assert timings["solve"] == {"method": "explicit_march",
                                "pointwise_iterations": []}
    # The sampler's BLAS calls ran on one OpenBLAS thread, if it is one.
    assert timings["blas_threads"] == (
        None if _openblas_thread_api() is None else 1)
    assert timings["compute_s"] >= 0.0 and timings["write_s"] >= 0.0
    assert timings["compute_s"] + timings["write_s"] \
        <= manifest["wall_clock_seconds"]
    # Each artifact's render-and-write time and size.
    writes = timings["write"]
    assert set(writes) == set(manifest["outputs"])
    for name, entry in writes.items():
        assert set(entry) == {"s", "bytes"}
        assert entry["bytes"] == (out / name).stat().st_size
        assert entry["s"] >= 0.0
    assert sum(entry["s"] for entry in writes.values()) \
        <= timings["write_s"]
    # Timings stay out of the pinned artifacts.
    csv_digests = {name: d for name, d in manifest["outputs"].items()
                   if name.endswith(".csv")}
    assert csv_digests == digests
    for name in manifest["outputs"]:
        assert "compute_s" not in (out / name).read_text()
        assert "march" not in (out / name).read_text()
