#!/usr/bin/env python3
"""Quick self-test of the serving benchmark on tiny inputs.

    python3 perfbench/quick_test.py

For every workload in BENCHMARK.json, and for long_scan, which runs but
is not declared there, it runs perfbench/run.py --tiny
for one second, untraced and traced, twice with one seed and once with
another, and checks that:

  * every end-to-end metric (untraced) and every per-layer metric
    (traced) prints, with the unit BENCHMARK.json gives it, and the
    traced run maps each layer metric to an end-to-end metric;
  * the exact counts repeat bit for bit across the two same-seed runs;
  * the second seed changes the generated inputs but not the set of
    metrics.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Counts the program makes, which must not depend on timing.
EXACT = {
    "sim_beats_per_char",
    "telemetry.exemplars_retained_per_request",
    "service.critical_beats_per_char",
    "service.shards_per_request",
    "service.kernel_passes_per_call",
    "multipattern.planes_per_sweep",
    "multipattern.word_ops_per_char",
    "gate.device_evals_per_char",
    "gate.beats_per_char",
}


def run(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=175)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n"
                           f"{out.stdout}{out.stderr}")
    digest = next(l for l in lines if l.startswith("inputs:"))
    return json.loads(lines[-1]), digest.split("digest=")[1].split()[0], lines


def check_workload(workload, declared, problems):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        units = {m["name"]: m["unit"] for m in declared[kind]}
        first, digest_a, lines = run(workload, 1, trace)
        again, digest_b, _ = run(workload, 1, trace)
        other, digest_c, _ = run(workload, 2, trace)
        tag = f"{workload} trace={trace}"
        if not any(l.startswith("host: nproc=") for l in lines):
            problems.append(f"{tag}: no host block")
        for res in (first, again, other):
            if not res["correct"] or res["failed"] != 0:
                problems.append(f"{tag}: run reported failures")
            if set(res["metrics"]) != set(units):
                problems.append(f"{tag}: metrics differ from BENCHMARK.json:"
                                f" {sorted(set(res['metrics']) ^ set(units))}")
        for name, unit in units.items():
            got = first["metrics"].get(name, {})
            if got.get("unit") != unit:
                problems.append(f"{tag}: {name} unit {got.get('unit')!r},"
                                f" want {unit!r}")
            if trace and not any(l.split()[:1] == [name] and "->" in l
                                 for l in lines):
                problems.append(f"{tag}: {name} printed without its mapping")
            if name in EXACT and (
                    got.get("value") != again["metrics"][name]["value"]):
                problems.append(f"{tag}: exact count {name} changed between"
                                " same-seed runs")
        if digest_a != digest_b:
            problems.append(f"{tag}: same seed generated different inputs")
        if digest_a == digest_c:
            problems.append(f"{tag}: another seed generated the same inputs")


def main():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in [w["name"] for w in declared["workloads"]] + ["long_scan"]:
        check_workload(name, declared, problems)
        print(f"checked {name}", flush=True)
    for p in problems:
        print("FAIL", p)
    print("quick test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
