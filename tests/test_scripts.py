"""Smoke runs of the demo scripts in scripts/, each in its own interpreter."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_reproducibility_demo_prints_dice_report():
    lines = _run("reproducibility_demo.py", "--subjects", "2", "--fibers", "200")
    assert lines[0] == "140 sub-parcels over 840 vertices"
    assert lines[1] == "pairs 1"
    assert lines[2].startswith("mean ") and lines[3].startswith("median ")
    assert lines[4].startswith("pair 0 1 ")
    assert len(lines) == 5


def test_runtime_trend_prints_one_row_per_k():
    lines = _run("runtime_trend.py", "--nx", "8", "--ny", "9", "--ks", "1", "--workers", "1")
    assert lines[0] == "synthetic cortex: 144 vertices, 70 regions"
    assert lines[1].split() == ["parcels", "atlas", "[s]", "whole", "[s]"]
    assert len(lines) == 3
    assert lines[2].split()[0] == "70"


def test_paper_scale_prints_time_memory_and_digest_per_configuration():
    lines = _run("paper_scale.py", "--nx", "20", "--ny", "21")
    assert lines[0] == "mesh: 840 vertices, 70 regions"
    assert lines[1].split() == ["config", "wall", "[s]", "cpu", "[s]", "write", "[s]", "peak",
                                "RSS", "[MB]", "medoid", "rows", "rounds", "sub_parcel", "sha256"]
    assert [line.split()[:2] for line in lines[2:]] == [["atlas", "k=5"], ["whole", "k=175"]]
    for line in lines[2:]:
        wall, cpu, write, peak, rows, rounds, digest = line.split()[2:]
        assert float(wall) > 0 and float(cpu) > 0 and float(write) > 0
        assert float(peak) > 0 and int(rows) > 0 and int(rounds) > 0 and len(digest) == 64
    for config, row in (("atlas", lines[2]), ("whole", lines[3])):
        alone = _run("paper_scale.py", "--nx", "20", "--ny", "21", "--config", config)
        assert alone[:2] == lines[:2] and len(alone) == 3
        assert alone[2].split()[:2] == row.split()[:2]
        # the same medoid rows, relaxation rounds and sub_parcel
        assert alone[2].split()[-3:] == row.split()[-3:]


def test_fiber_scale_prints_times_memory_and_digest():
    lines = _run("fiber_scale.py", "--nx", "20", "--ny", "21", "--fibers", "500")
    assert lines[0] == "mesh: 840 vertices, 70 regions; 500 point fibres"
    assert lines[1].split() == ["write", "[s]", "load", "[s]", "snap+count", "[s]", "snap", "CPU",
                                "[s]", "peak", "RSS", "[MB]", "counts", "sha256"]
    write, load, count, snap, peak, digest = lines[2].split()
    assert min(float(write), float(load), float(count), float(snap)) >= 0 and float(peak) > 0
    assert len(digest) == 64 and len(lines) == 3
    again = _run("fiber_scale.py", "--nx", "20", "--ny", "21", "--fibers", "500")
    assert again[2].split()[-1] == digest  # the same fibres and counts on every run
