"""geosp benchmark: one run of one workload.

    python3 geobench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It writes the workload's inputs from the seed
in one child process, measures in a second and checks every output in a third
(so neither input generation nor the checks count toward peak memory), writes
a run record to geobench/results/, and prints the result as the last line of
stdout:

    {"correct": true, "attempted": 4, "failed": 0,
     "metrics": {"wall_s": {"value": 4.1, "unit": "s"}, ...}}

With --trace 0 the metrics are the end-to-end ones (wall_s, setup_s,
peak_rss_mb); with --trace 1 they are the per-layer ones, and the spans are
written next to the run record. Every metric's unit is the one BENCHMARK.json
declares. See README.md for the workloads.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from time import monotonic

from inputs import SPECS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = list(SPECS)
REFERENCE = HERE / "reference_digests.json"
TIME_LIMIT_S = 170.0


def fail(message: str) -> int:
    print(f"geobench: {message}", file=sys.stderr)
    return 2


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for the end_to_end or per_layer list of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def geosp_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src" / "geosp").glob("*.py")))


def compare_reference(workload: str, seed: int, found: dict) -> str:
    try:
        ref = json.loads(REFERENCE.read_text())
    except (OSError, ValueError):
        return "no reference file"
    if ref.get("seed") != seed:
        return f"no reference for seed {seed} (reference seed is {ref.get('seed')})"
    expected = ref.get("digests", {}).get(workload)
    if expected is None:
        return "no reference for this workload"
    differ = sorted(k for k in set(expected) | set(found) if expected.get(k) != found.get(k))
    return "match" if not differ else "differ: " + ", ".join(differ)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "geosp" / "__init__.py").is_file():
        return fail(f"no geosp sources at {ROOT / 'src' / 'geosp'}; run from a geosp checkout")

    began = monotonic()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = HERE / "_work" / f"{tag}-{os.getpid()}"
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    spans = results / f"{tag}.spans.jsonl"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")

    def child(script, *options, stdout=subprocess.PIPE):
        return subprocess.run([sys.executable, str(HERE / script), "--workload", args.workload,
                               *map(str, options)],
                              check=True, timeout=TIME_LIMIT_S - (monotonic() - began),
                              env=env, stdout=stdout, text=True)

    try:
        child("inputs.py", "--seed", args.seed, "--out", work / "in", stdout=subprocess.DEVNULL)
        measured = child("measure.py", "--inputs", work / "in", "--out", work / "out",
                         "--seconds", args.seconds, "--trace", args.trace, "--seed", args.seed,
                         "--spans", spans)
        checked = child("checks.py", "--inputs", work / "in", "--out", work / "out")
    except subprocess.TimeoutExpired as e:
        return fail(f"{e.cmd[1]} did not finish within {e.timeout:.0f} s")
    except subprocess.CalledProcessError as e:
        return fail(f"{e.cmd[1]} exited with code {e.returncode}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = json.loads(measured.stdout.strip().splitlines()[-1])
    found = json.loads(checked.stdout.strip().splitlines()[-1])
    # A unit that raised is failed already; its partial outputs are not checked.
    checked_units = {u: ps for u, ps in found["units"].items() if u not in report["raised"]}
    problems = [f"{args.workload} {where}/{unit}: {p}"
                for where, per_unit in (("warmup", found["warmup"]), ("full", checked_units))
                for unit, ps in per_unit.items() for p in ps]
    for p in problems:
        print(p, file=sys.stderr)
    failed = len(report["raised"]) + sum(bool(ps) for ps in checked_units.values())
    values = report.get("layers" if args.trace else "metrics", {})
    if not values:
        return fail("no unit of the workload completed; nothing was measured")
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(values) != set(units):
        return fail("measured metrics differ from BENCHMARK.json's: "
                    + ", ".join(sorted(set(values) ^ set(units))))
    result = {"correct": not problems, "attempted": report["attempted"], "failed": failed}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "result": result, "metrics": values,
        "wall_samples": report["wall_samples"], "setup_samples": report["setup_samples"],
        "rss_baseline_mb": report["rss_baseline_mb"],
        "problems": problems,
        "digests": found["digests"],
        "reference": compare_reference(args.workload, args.seed, found["digests"]),
        "counts_differ": report.get("counts_differ", []),
        "absent": report.get("absent", []),
        "environment": dict(report["versions"], scipy=found["scipy"], geosp_lines=geosp_lines(),
                            nproc=os.cpu_count(), git_sha=git_sha()),
    }
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(dict(result, metrics={name: {"value": value, "unit": units[name]}
                                           for name, value in values.items()})))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
