import csv
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import qgl
import qgl.spectrum
import qgl.stats
from qgl import errors
from qgl.cli import main
from qgl.graphs import load_graph, save_graph
from test_secular import _oracle_manifold_scan


def _read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_csv(tmp_path):
    rc = main(["spectrum", "--graph", "star3", "--K", "10",
               "--out", str(tmp_path)])
    assert rc == 0
    rows = _read_csv(tmp_path / "spectrum.csv")
    assert rows[0] == ["n", "k", "simple", "generic", "loop_supported"]
    assert len(rows) == 11
    assert [r[0] for r in rows[1:]] == [str(n) for n in range(1, 11)]


def test_spectrum_count_alias(tmp_path):
    rc = main(["spectrum", "--graph", "star3", "--count", "5",
               "--out", str(tmp_path)])
    assert rc == 0
    assert len(_read_csv(tmp_path / "spectrum.csv")) == 6


def test_spectrum_json_format(tmp_path):
    rc = main(["spectrum", "--graph", "lasso", "--kmax", "8.0",
               "--out", str(tmp_path), "--format", "json"])
    assert rc == 0
    data = json.loads((tmp_path / "spectrum.json").read_text())
    assert data and set(data[0]) == {"n", "k", "simple", "generic",
                                     "loop_supported"}


def test_workers_do_not_change_output(tmp_path):
    for w, sub in (("1", "a"), ("3", "b")):
        rc = main(["spectrum", "--graph", "k4", "--K", "40",
                   "--workers", w, "--out", str(tmp_path / sub)])
        assert rc == 0
    assert (tmp_path / "a/spectrum.csv").read_text() \
        == (tmp_path / "b/spectrum.csv").read_text()


def test_pool_ships_kernels_and_keeps_the_tables(tmp_path, monkeypatch):
    # the pool's levels carry their certifying frames' kernels, so the
    # parent process reconstructs them without a fresh frame
    shipped = {"1": [], "2": []}
    eigenpairs = qgl.spectrum.eigenpairs

    def recorded(graph, levels, *args):
        shipped[w].append(levels)
        return eigenpairs(graph, levels, *args)

    monkeypatch.setattr(qgl.spectrum, "eigenpairs", recorded)
    for w in ("1", "2"):
        for cmd in ("spectrum", "counts", "domains", "magnetic"):
            rc = main([cmd, "--graph", "dumbbell", "--K", "300", "--workers", w,
                       "--out", str(tmp_path / w)])
            assert rc == 0
        simple = qgl.spectrum.Levels.concat(shipped[w])
        simple = simple[simple.kept]
        assert len(simple) >= 600
        assert np.count_nonzero(~np.any(simple.kernel != 0, axis=1)) <= 0.01 * len(simple)
    for table in ("spectrum", "counts", "domains", "magnetic"):
        assert (tmp_path / "1" / f"{table}.csv").read_text() \
            == (tmp_path / "2" / f"{table}.csv").read_text()


def test_workers_split_on_degenerate_eigenvalue(tmp_path):
    # the range ends on the double eigenvalue 32 pi of lasso, where both the
    # walk and the pool take the exact count
    for w, sub in (("1", "a"), ("2", "b")):
        rc = main(["spectrum", "--graph", "lasso", "--kmax", "100.53096491487338",
                   "--workers", w, "--out", str(tmp_path / sub)])
        assert rc == 0
    assert (tmp_path / "a/spectrum.csv").read_text() \
        == (tmp_path / "b/spectrum.csv").read_text()


def test_workers_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("QGL_WORKERS", "2")
    rc = main(["spectrum", "--graph", "star3", "--K", "8",
               "--out", str(tmp_path)])
    assert rc == 0


# ---------------------------------------------------------------------------
# other subcommands


def test_counts_csv(tmp_path):
    rc = main(["counts", "--graph", "dumbbell", "--K", "30",
               "--out", str(tmp_path)])
    assert rc == 0
    rows = _read_csv(tmp_path / "counts.csv")
    assert rows[0] == ["n", "k", "phi", "mu", "sigma", "omega"]
    for r in rows[1:]:
        assert int(r[4]) in (0, 1, 2)


def test_domains_csv(tmp_path):
    rc = main(["domains", "--graph", "tree31_7", "--K", "40",
               "--out", str(tmp_path)])
    assert rc == 0
    rows = _read_csv(tmp_path / "domains.csv")
    assert rows[0] == ["n", "vertex", "N_v", "rho_v"]
    assert len(rows) > 1
    for r in rows[1:]:
        assert 1 <= int(r[2]) <= 2
        assert 1.0 <= float(r[3]) <= 2.0


def test_magnetic_csv_and_assert(tmp_path):
    rc = main(["magnetic", "--graph", "dumbbell", "--K", "20",
               "--out", str(tmp_path), "--assert", "agreement"])
    assert rc == 0
    rows = _read_csv(tmp_path / "magnetic.csv")
    assert rows[0] == ["n", "k", "sigma_counting", "sigma_magnetic",
                       "iota_1", "iota_2"]
    for r in rows[1:]:
        assert r[2] == r[3]
        assert int(r[4]) + int(r[5]) == int(r[3])


def test_stats_summary_and_asserts(tmp_path):
    rc = main(["stats", "--graph", "dumbbell", "--K", "400", "--seed", "7",
               "--out", str(tmp_path), "--assert", "symmetry,binomial"])
    assert rc == 0
    summary = json.loads((tmp_path / "stats_summary.json").read_text())
    assert summary["K"] == 400
    assert summary["tests"]["symmetry"]["ok"]
    assert summary["tests"]["binomial"]["ok"]
    # the walk's tallies: every located level is counted, at most 1.2
    # decomposed matrices each
    report = summary["report"]
    assert report["levels"] <= summary["N_raw"] <= 2 * report["levels"]
    assert report["matrices"] == report["resolves"] + sum(
        int(depth) * calls for depth, calls in report["frames_by_depth"].items())
    assert report["spare_edges"] >= 0
    assert report["matrices"] <= 1.2 * report["levels"]
    assert report["lanes"] >= 1 and report["fallbacks"] == 0
    assert 1 <= report["requests"] <= report["rounds"] <= report["levels"]
    # a simple level settled afresh takes one frame at its k in the walk
    assert report["kernel_frames"] <= (report["recounts"] + report["retries"]
                                       + report["fallbacks"])
    assert 0.0 < report["worst_residual"] < 1e-9
    rows = _read_csv(tmp_path / "stats.csv")
    assert rows[0] == ["n", "k", "sigma", "omega"]
    assert len(rows) == 401


def test_failed_assert_exits_3(tmp_path):
    # seed 5 draws nearly equal loop lengths; at small K the binomial
    # prediction is far off, so the assertion must fail loudly
    rc = main(["stats", "--graph", "dumbbell", "--K", "200", "--seed", "5",
               "--out", str(tmp_path), "--assert", "binomial"])
    assert rc == 3


def test_binomial_support_escape_exits_4(tmp_path, monkeypatch, capsys):
    # a surplus outside [0, beta] breaks a hard bound: a failed computation,
    # not a failed distribution test
    def escaped(graph, K, **kwargs):
        return qgl.stats.SurplusDistribution(
            graph, K=2, N_raw=2, sigma_hist=Counter({1: 1, 3: 1}))

    monkeypatch.setattr(qgl.stats, "run_experiment", escaped)
    rc = main(["stats", "--graph", "dumbbell", "--K", "2",
               "--out", str(tmp_path), "--assert", "binomial"])
    assert rc == 4
    assert "binomial support" in capsys.readouterr().err


def test_stats_rejects_workers(tmp_path):
    # stats runs single-process, so a worker count must not be dropped silently
    with pytest.raises(SystemExit) as exc:
        main(["stats", "--graph", "dumbbell", "--K", "20", "--workers", "2",
              "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_excessive_exclusions_exits_4(tmp_path, capsys):
    # thresholds this coarse make far more than 5% of the eigenpairs borderline
    rc = main(["stats", "--graph", "dumbbell", "--K", "30", "--seed", "7",
               "--out", str(tmp_path),
               "--thresholds", '{"value": 1e-2, "derivative": 1e-2}'])
    assert rc == 4
    assert "suspicious exclusions" in capsys.readouterr().err


def test_stats_across_the_torus_origin_exits_0(tmp_path):
    # the built-in chain2 lengths put k l_2 on a multiple of 2pi to roundoff
    # at five of the first 2000 levels; no count is undecided there
    rc = main(["stats", "--graph", "chain2", "--K", "2000", "--out", str(tmp_path)])
    assert rc == 0
    assert json.loads((tmp_path / "stats_summary.json").read_text())["K"] == 2000


@pytest.mark.parametrize("name", ("chain2", "chain4", "chain8", "dumbbell", "flower3",
                                  "k4", "k6", "lasso", "mandarin3", "star3", "tree31_7"))
def test_stats_on_every_built_in_graph_exits_0(tmp_path, name):
    # built-in and seed 0 and 1 lengths, the magnetic index wherever the
    # graph has a cycle, and every identity checked
    magnetic = ["--magnetic"] if load_graph(name).topology.betti > 0 else []
    for K, seed in ((1000, []), (3000, ["--seed", "0"]), (3000, ["--seed", "1"])):
        rc = main(["stats", "--graph", name, "--K", str(K), "--out", str(tmp_path)]
                  + seed + magnetic)
        assert rc == 0, seed
        summary = json.loads((tmp_path / "stats_summary.json").read_text())
        assert summary["K"] == K and summary["identity_failures"] == 0, seed


def test_thresholds_excluding_every_eigenpair_exit_4(tmp_path):
    # every eigenpair is non-generic, so no record ever accumulates; the
    # run must stop on the exclusion share instead of streaming forever
    src = str(Path(qgl.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "qgl.cli", "stats", "--graph", "dumbbell", "--K", "10",
         "--thresholds", '{"value": 5.0}', "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 4, proc.stderr
    assert "indices off loop states excluded" in proc.stderr


@pytest.mark.parametrize("exc, code", [
    (errors.BracketAuditFailed, 4), (errors.IdentityViolated, 4),
    (errors.CriticalPointViolated, 4), (errors.DegenerateHessian, 4),
    (errors.NoKernel, 4), (errors.NonSimple, 4),
    (errors.ExcessiveExclusions, 4), (errors.NotGeneric, 4),
    (errors.DisconnectedGraph, 2), (errors.UnsupportedDimension, 2),
    (errors.WrongFamily, 2), (errors.QGLError, 2), (ValueError, 2),
])
def test_exit_code_separates_failed_computation_from_bad_input(
        tmp_path, monkeypatch, exc, code):
    def fail(*args, **kwargs):
        raise exc("injected")

    monkeypatch.setattr(qgl.spectrum, "stream_levels", fail)
    assert main(["spectrum", "--graph", "star3", "--K", "5",
                 "--out", str(tmp_path)]) == code


@pytest.mark.parametrize("command", ("spectrum", "magnetic"))
@pytest.mark.parametrize("workers", ("1", "2"))
def test_linalg_failure_exits_4(tmp_path, capsys, monkeypatch, command, workers):
    # numpy's LinAlgError is a ValueError, but a valid graph can raise it:
    # lengths 1, 1e200 and 1.5 on star3 fail a solve in the walk
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(qgl.spectrum, "counting", singular)
    assert main([command, "--graph", "dumbbell", "--K", "50", "--workers", workers,
                 "--out", str(tmp_path)]) == 4
    assert capsys.readouterr().err == "error: numerical failure: Singular matrix\n"


@pytest.mark.parametrize("argv", [
    ["spectrum", "--graph", "star3", "--K", "0"],
    ["stats", "--graph", "dumbbell", "--K", "0"],
    ["counts", "--graph", "star3", "--K", "-3"],
    ["spectrum", "--graph", "star3", "--K", "5", "--workers", "0"],
    ["counts", "--graph", "star3", "--K", "5", "--assert", "bogus"],
    ["magnetic", "--graph", "dumbbell", "--K", "5", "--assert", "symmetry"],
    ["stats", "--graph", "dumbbell", "--K", "20", "--assert", "nosuchtest"],
    ["manifold", "--graph", "flower3", "--res", "3", "--workers", "2"],
    ["spectrum", "--graph", "star3", "--kmax", "inf"],
    ["counts", "--graph", "star3", "--kmax", "-inf"],
    ["spectrum", "--graph", "star3", "--kmax", "nan"],
    ["manifold", "--graph", "flower3", "--res", "0"],
    ["manifold", "--graph", "flower3", "--res", "-2"],
    ["spectrum", "--graph", "star3", "--K", "20", "--thresholds", '{"valu": 1e-5}'],
    ["spectrum", "--graph", "star3", "--K", "20", "--thresholds", '{"kernel": 1e-8}'],
    ["spectrum", "--graph", "star3", "--K", "20", "--thresholds", "[1, 2]"],
    ["spectrum", "--graph", "star3", "--K", "20", "--thresholds", '{"value": "abc"}'],
    ["spectrum", "--graph", "star3", "--K", "20", "--thresholds", '{"value": -1}'],
    ["spectrum", "--graph", "star3", "--K", "20", "--thresholds", '{"support": NaN}'],
    ["counts", "--graph", "star3", "--K", "300",
     "--thresholds", '{"value": 1e-20, "derivative": 1e-20}'],
    ["manifold", "--graph", "flower3", "--res", "3", "--seed", "5"],
    ["manifold", "--graph", "flower3", "--res", "3", "--thresholds", '{"value": 1e-3}'],
])
def test_invalid_arguments_exit_2_before_computing(tmp_path, capsys, argv):
    out = tmp_path / "out"
    try:
        rc = main(argv + ["--out", str(out)])
    except SystemExit as exc:
        rc = exc.code
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kmax", ["0.1", "-1"])
@pytest.mark.parametrize("workers", ["1", "2"])
def test_kmax_below_first_eigenvalue_is_empty(tmp_path, capsys, kmax, workers):
    rc = main(["spectrum", "--graph", "star3", "--kmax", kmax,
               "--workers", workers, "--out", str(tmp_path)])
    assert rc == 0
    assert _read_csv(tmp_path / "spectrum.csv") == [
        ["n", "k", "simple", "generic", "loop_supported"]]
    assert "eigenvalues: 0 located" in capsys.readouterr().out


def test_unknown_assert_rejected(tmp_path):
    rc = main(["stats", "--graph", "dumbbell", "--K", "20",
               "--out", str(tmp_path), "--assert", "nosuchtest"])
    assert rc == 2


def test_manifold_csv(tmp_path):
    rc = main(["manifold", "--graph", "flower3", "--res", "8",
               "--out", str(tmp_path)])
    assert rc == 0
    rows = _read_csv(tmp_path / "manifold.csv")
    assert rows[0] == ["k1", "k2", "k3", "component"]
    comps = {r[3] for r in rows[1:]}
    assert "loop:0" in comps
    oracle = _oracle_manifold_scan(load_graph("flower3"), 8)
    assert rows[1:] == [[f"{k:.12g}" for k in row[:3]] + [row[3]] for row in oracle]


# ---------------------------------------------------------------------------
# inputs, errors, thresholds


def test_graph_file_round_trip(tmp_path):
    g = load_graph("dumbbell")
    path = tmp_path / "mine.json"
    save_graph(g, path)
    rc = main(["spectrum", "--graph", str(path), "--K", "5",
               "--out", str(tmp_path)])
    assert rc == 0


def test_missing_graph_exits_2(tmp_path):
    assert main(["spectrum", "--graph", "nope", "--K", "5",
                 "--out", str(tmp_path)]) == 2


def test_missing_graph_file_exits_2(tmp_path, capsys):
    # a .json path that does not exist never falls back to the catalog
    assert main(["spectrum", "--graph", str(tmp_path / "k6.json"), "--K", "3",
                 "--out", str(tmp_path)]) == 2
    assert "k6.json" in capsys.readouterr().err


def test_invalid_graph_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": 3,
                                "edges": [[0, 1, 1.0], [1, 2, 1.0]]}))
    assert main(["spectrum", "--graph", str(path), "--K", "5",
                 "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("lengths", [[1.0, float("inf"), 1.0], [1e308, 1e308, 1.0]])
@pytest.mark.parametrize("command", ["spectrum", "stats"])
def test_nonfinite_length_exits_2(tmp_path, capsys, lengths, command):
    # json writes and reads Infinity; the graph is rejected, naming the edge
    path = tmp_path / "star.json"
    path.write_text(json.dumps({"vertices": 4,
                                "edges": [[0, v, l] for v, l in enumerate(lengths, 1)]}))
    assert main([command, "--graph", str(path), "--K", "5", "--out", str(tmp_path)]) == 2
    assert "edge 1 " in capsys.readouterr().err


def test_missing_range_exits_2(tmp_path):
    assert main(["counts", "--graph", "star3", "--out", str(tmp_path)]) == 2


def test_thresholds_flag(tmp_path):
    rc = main(["spectrum", "--graph", "star3", "--K", "10",
               "--out", str(tmp_path),
               "--thresholds", '{"value": 5.0}'])
    assert rc == 0
    rows = _read_csv(tmp_path / "spectrum.csv")
    # an absurd value threshold demotes every eigenpair to non-generic
    assert all(r[3] == "0" for r in rows[1:])


def test_bad_thresholds_json_exits_2(tmp_path):
    assert main(["spectrum", "--graph", "star3", "--K", "5",
                 "--out", str(tmp_path), "--thresholds", "{oops"]) == 2


def test_seed_redraws_lengths(tmp_path):
    for seed, sub in (("1", "a"), ("2", "b")):
        rc = main(["spectrum", "--graph", "dumbbell", "--K", "10",
                   "--seed", seed, "--out", str(tmp_path / sub)])
        assert rc == 0
    assert (tmp_path / "a/spectrum.csv").read_text() \
        != (tmp_path / "b/spectrum.csv").read_text()
