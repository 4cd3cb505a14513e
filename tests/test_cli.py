import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from geosp import load_labels, load_matrix, load_mesh
from geosp.cli import run


def _synth_atlas(tmp_path, **extra):
    out = tmp_path / "synth"
    args = ["synth", "--kind", "atlas", "--nx", "10", "--ny", "14",
            "--out", str(out)]
    for key, value in extra.items():
        args += [f"--{key}", str(value)]
    assert run(args) == 0
    return out


def test_synth_atlas_writes_files(tmp_path):
    out = _synth_atlas(tmp_path, fibers=50)
    mesh = load_mesh(out / "mesh.off")
    labels = load_labels(out / "labels.txt", expected_count=mesh.vertex_count)
    hemis = load_labels(out / "hemispheres.txt", expected_count=mesh.vertex_count)
    assert len(np.unique(labels)) == 70
    assert set(hemis.tolist()) == {0, 1}
    assert (out / "fibers.txt").exists()


def test_parcellate_atlas_end_to_end(tmp_path):
    synth = _synth_atlas(tmp_path)
    out = tmp_path / "parc"
    assert run(["parcellate-atlas", "--mesh", str(synth / "mesh.off"),
                "--labels", str(synth / "labels.txt"),
                "--k", "2", "--seed", "7", "--out", str(out)]) == 0
    sub = load_labels(out / "parcellation.txt")
    assert len(np.unique(sub)) == 140
    assert (out / "parcellation.ply").exists()
    summary = json.loads((out / "summary.txt").read_text())
    assert summary["sub_parcel_count"] == 140
    assert len(summary["regions"]) == 70
    assert all(r["iterations"] <= 20 for r in summary["regions"])


def test_parcellate_atlas_plan_file(tmp_path):
    synth = _synth_atlas(tmp_path)
    labels = load_labels(synth / "labels.txt")
    plan = tmp_path / "plan.txt"
    plan.write_text("".join(f"{r} {1 if r % 2 else 2}\n" for r in np.unique(labels)))
    out = tmp_path / "parc"
    assert run(["parcellate-atlas", "--mesh", str(synth / "mesh.off"),
                "--labels", str(synth / "labels.txt"),
                "--plan", str(plan), "--out", str(out)]) == 0
    sub = load_labels(out / "parcellation.txt")
    assert len(np.unique(sub)) == 35 * 1 + 35 * 2


def test_same_seed_same_bytes(tmp_path):
    synth = _synth_atlas(tmp_path)
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run(["parcellate-atlas", "--mesh", str(synth / "mesh.off"),
                    "--labels", str(synth / "labels.txt"),
                    "--k", "2", "--seed", "3", "--out", str(out)]) == 0
        runs.append(out)
    a, b = runs
    assert (a / "parcellation.txt").read_bytes() == (b / "parcellation.txt").read_bytes()
    assert (a / "parcellation.ply").read_bytes() == (b / "parcellation.ply").read_bytes()


def test_parcellate_whole_single_mesh_k1(tmp_path):
    out_s = tmp_path / "synth"
    assert run(["synth", "--kind", "icosphere", "--level", "1", "--out", str(out_s)]) == 0
    out = tmp_path / "whole"
    assert run(["parcellate-whole", "--mesh", str(out_s / "mesh.off"),
                "--k", "1", "--out", str(out)]) == 0
    sub = load_labels(out / "parcellation.txt")
    assert set(sub.tolist()) == {0}


def test_parcellate_whole_with_hemisphere_labels(tmp_path):
    out_s = tmp_path / "synth"
    assert run(["synth", "--kind", "two_hemispheres", "--level", "1",
                "--out", str(out_s)]) == 0
    out = tmp_path / "whole"
    assert run(["parcellate-whole", "--mesh", str(out_s / "mesh.off"),
                "--hemis", str(out_s / "labels.txt"),
                "--k", "3", "--seed", "1", "--out", str(out)]) == 0
    sub = load_labels(out / "parcellation.txt")
    assert len(np.unique(sub)) == 6


def test_parcellate_whole_two_mesh_files(tmp_path):
    for name, level in (("lh", 1), ("rh", 1)):
        assert run(["synth", "--kind", "icosphere", "--level", str(level),
                    "--out", str(tmp_path / name)]) == 0
    out = tmp_path / "whole"
    assert run(["parcellate-whole", "--mesh", str(tmp_path / "lh" / "mesh.off"),
                str(tmp_path / "rh" / "mesh.off"),
                "--k", "2", "--out", str(out)]) == 0
    sub = load_labels(out / "parcellation.txt")
    assert len(np.unique(sub)) == 4


def test_parcellate_whole_two_meshes_reject_hemis(tmp_path, capsys):
    assert run(["synth", "--kind", "icosphere", "--level", "1", "--out", str(tmp_path)]) == 0
    hemis = tmp_path / "hemis.txt"
    hemis.write_text("banana\n")
    out = tmp_path / "whole"
    mesh = str(tmp_path / "mesh.off")
    for meshes in ([mesh, mesh], [str(tmp_path / "nope.off"), mesh]):  # fails before loading
        assert run(["parcellate-whole", "--mesh", *meshes, "--hemis", str(hemis),
                    "--k", "2", "--out", str(out)]) == 1
        assert "geosp: error: --hemis goes with one --mesh" in capsys.readouterr().err
    assert not out.exists()


def test_parcellate_whole_rejects_three_meshes(tmp_path, capsys):
    assert run(["synth", "--kind", "icosphere", "--level", "1", "--out", str(tmp_path)]) == 0
    mesh, out = str(tmp_path / "mesh.off"), tmp_path / "whole"
    assert run(["parcellate-whole", "--mesh", mesh, mesh, mesh, "--k", "2",
                "--out", str(out)]) == 1
    assert capsys.readouterr().err == "geosp: error: --mesh takes one or two paths\n"
    assert not out.exists()


def test_non_utf8_input_fails_with_its_file_and_line(tmp_path, capsys):
    synth = _synth_atlas(tmp_path)
    mesh = tmp_path / "bad.off"
    text = (synth / "mesh.off").read_bytes().splitlines(keepends=True)
    text[3] = text[3].replace(b" ", b"\xff ", 1)
    mesh.write_bytes(b"".join(text))
    assert run(["parcellate-atlas", "--mesh", str(mesh), "--labels", str(synth / "labels.txt"),
                "--k", "2", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"geosp: error: {mesh}:4: not UTF-8 text: byte 0xff\n"


def test_module_form_runs_the_cli(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = tmp_path / "grid"
    synth = [sys.executable, "-m", "geosp.cli", "synth", "--kind", "grid", "--nx", "4", "--ny", "4"]
    proc = subprocess.run([*synth, "--out", str(out)], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "grid: 16 vertices" in proc.stdout
    assert (out / "mesh.off").exists()
    proc = subprocess.run(synth, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2  # --out is missing


def test_connectivity_and_dice_pipeline(tmp_path):
    synth = _synth_atlas(tmp_path, fibers=200)
    parc = tmp_path / "parc"
    assert run(["parcellate-atlas", "--mesh", str(synth / "mesh.off"),
                "--labels", str(synth / "labels.txt"),
                "--k", "2", "--out", str(parc)]) == 0
    conn_out = tmp_path / "conn"
    assert run(["connectivity", "--mesh", str(synth / "mesh.off"),
                "--parcellation", str(parc / "parcellation.txt"),
                "--fibers", str(synth / "fibers.txt"),
                "--out", str(conn_out)]) == 0
    counts = load_matrix(conn_out / "counts.txt")
    binary = load_matrix(conn_out / "binary.txt")
    assert counts.shape == (140, 140)
    assert counts[np.triu_indices(140)].sum() == 200
    assert set(np.unique(binary)).issubset({0, 1})

    report = tmp_path / "dice.txt"
    assert run(["dice", str(conn_out / "binary.txt"), str(conn_out / "binary.txt"),
                "--out", str(report)]) == 0
    lines = report.read_text().splitlines()
    assert "mean 1.0000" in lines


def test_dice_without_out_writes_the_report_to_stdout(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("2\n1 1\n1 0\n")
    b.write_text("2\n1 0\n0 3\n")
    report = tmp_path / "dice.txt"
    assert run(["dice", str(a), str(b), "--out", str(report)]) == 0
    assert capsys.readouterr().out == f"dice report -> {report}\n"
    assert run(["dice", str(a), str(b)]) == 0
    assert capsys.readouterr().out == report.read_text()


def test_connectivity_rejects_non_finite_point(tmp_path, capsys):
    synth = _synth_atlas(tmp_path)
    fibers = tmp_path / "fibers.txt"
    fibers.write_text("p:nan,0,0 p:inf,1,1\nv:0 v:5\n")
    out = tmp_path / "conn"
    assert run(["connectivity", "--mesh", str(synth / "mesh.off"),
                "--parcellation", str(synth / "labels.txt"),
                "--fibers", str(fibers), "--out", str(out)]) == 1
    assert f"{fibers}:1:" in capsys.readouterr().err
    assert not (out / "counts.txt").exists()


def test_connectivity_rejects_out_of_range_vertex(tmp_path, capsys):
    synth = _synth_atlas(tmp_path)
    fibers = tmp_path / "fibers.txt"
    fibers.write_text("v:0 v:5\nv:99999999999999999999 v:1\n")  # does not fit in int64
    out = tmp_path / "conn"
    assert run(["connectivity", "--mesh", str(synth / "mesh.off"),
                "--parcellation", str(synth / "labels.txt"),
                "--fibers", str(fibers), "--out", str(out)]) == 1
    assert "vertex 99999999999999999999 out of range" in capsys.readouterr().err
    assert not (out / "counts.txt").exists()


def test_workers_flag_identical_bytes(tmp_path):
    synth = _synth_atlas(tmp_path)
    outputs = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        assert run(["parcellate-atlas", "--mesh", str(synth / "mesh.off"),
                    "--labels", str(synth / "labels.txt"), "--k", "2",
                    "--seed", "5", "--workers", str(workers), "--out", str(out)]) == 0
        outputs.append(out)
    assert (outputs[0] / "parcellation.txt").read_bytes() == \
           (outputs[1] / "parcellation.txt").read_bytes()


def test_unknown_flag_fails():
    assert run(["parcellate-atlas", "--bogus"]) != 0


@pytest.mark.parametrize("workers", ["0", "-5"])
def test_non_positive_workers_fail(tmp_path, capsys, workers):
    synth = _synth_atlas(tmp_path)
    assert run(["parcellate-atlas", "--mesh", str(synth / "mesh.off"),
                "--labels", str(synth / "labels.txt"), "--k", "1",
                "--workers", workers, "--out", str(tmp_path / "atlas")]) == 1
    assert run(["parcellate-whole", "--mesh", str(synth / "mesh.off"),
                "--hemis", str(synth / "hemispheres.txt"), "--k", "2",
                "--workers", workers, "--out", str(tmp_path / "whole")]) == 1
    assert "workers must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "atlas").exists() and not (tmp_path / "whole").exists()


@pytest.mark.parametrize("tolerance", ["nan", "inf"])
def test_non_finite_tolerance_fails(tmp_path, capsys, tolerance):
    synth = _synth_atlas(tmp_path)
    assert run(["parcellate-whole", "--mesh", str(synth / "mesh.off"),
                "--hemis", str(synth / "hemispheres.txt"), "--k", "2",
                "--tolerance", tolerance, "--out", str(tmp_path / "whole")]) == 1
    assert "geosp: error: convergence tolerance must be positive and finite" in (
        capsys.readouterr().err)
    assert not (tmp_path / "whole").exists()


def test_missing_file_fails(tmp_path, capsys):
    assert run(["parcellate-atlas", "--mesh", str(tmp_path / "nope.off"),
                "--labels", str(tmp_path / "nope.txt"), "--k", "2",
                "--out", str(tmp_path / "out")]) == 1
    assert "error" in capsys.readouterr().err


def test_invalid_plan_fails(tmp_path):
    synth = _synth_atlas(tmp_path)
    plan = tmp_path / "plan.txt"
    plan.write_text("0 2\n")  # covers one region out of 70
    assert run(["parcellate-atlas", "--mesh", str(synth / "mesh.off"),
                "--labels", str(synth / "labels.txt"),
                "--plan", str(plan), "--out", str(tmp_path / "out")]) == 1


def test_dice_needs_two_matrices(tmp_path):
    m = tmp_path / "m.txt"
    m.write_text("1\n0\n")
    assert run(["dice", str(m)]) == 1


def test_synth_rejects_bad_kind():
    assert run(["synth", "--kind", "moebius", "--out", "/tmp/x"]) != 0


@pytest.mark.parametrize("kind,extra", [
    ("grid", []),
    ("wave_sheet", ["--spacing", "0.5", "--amplitude", "2", "--wavelength", "5"]),
    ("icosphere", ["--level", "1"]),
    ("dumbbell", ["--bridge-length", "8"]),
    ("two_hemispheres", ["--level", "1"]),
])
def test_synth_kinds_produce_loadable_meshes(tmp_path, kind, extra):
    out = tmp_path / kind
    assert run(["synth", "--kind", kind, "--out", str(out)] + extra) == 0
    mesh = load_mesh(out / "mesh.off")
    assert mesh.vertex_count > 0 and mesh.triangle_count > 0
