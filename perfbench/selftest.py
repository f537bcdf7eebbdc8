#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale. Run from the repository root:

    python3 perfbench/selftest.py

Checks that every workload of BENCHMARK.json runs with --trace 0 and 1,
prints every metric BENCHMARK.json names with its unit and no error, that
the same seed gives byte-identical inputs and a different seed does not,
and that two same-seed read_hot runs print identical deterministic counts.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace, dump=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--scale", "tiny"]
    if dump:
        cmd += ["--dump-inputs", dump]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    assert p.returncode == 0, f"{workload} seed {seed} exited {p.returncode}:\n{p.stderr}"
    lines = [json.loads(line) for line in p.stdout.strip().splitlines()]
    return lines[-1], lines[:-1]


def check_metrics(workload, result, wanted):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, (workload, result)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    got = result["metrics"]
    assert list(got) == [m["name"] for m in wanted], (workload, sorted(got))
    for m in wanted:
        v = got[m["name"]]
        assert v["unit"] == m["unit"], (workload, m["name"], v)
        assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    tmp = os.path.join(ROOT, ".perfbench", "selftest")
    os.makedirs(tmp, exist_ok=True)
    dumps = {}
    counts = {}
    for w in workloads:
        for seed in (7, 7, 8):
            path = os.path.join(tmp, f"{w}-{seed}-{len(dumps)}.bin")
            result, info = run(w, seed, 0, dump=path)
            check_metrics(w, result, bench["end_to_end"])
            for m in bench["end_to_end"]:
                assert result["metrics"][m["name"]]["value"] > 0, (w, m["name"])
            with open(path, "rb") as f:
                dumps[(w, seed, len(dumps))] = f.read()
            for line in info:
                if "counts" in line:
                    counts.setdefault((w, seed), []).append(line["counts"])
        result, _ = run(w, 7, 1)
        check_metrics(w, result, bench["per_layer"])
        same = [v for (wl, s, _), v in dumps.items() if wl == w and s == 7]
        other = [v for (wl, s, _), v in dumps.items() if wl == w and s == 8]
        assert len(same) == 2 and same[0] == same[1], f"{w}: same seed, different inputs"
        assert other[0] != same[0], f"{w}: different seeds, same inputs"
        print(f"ok {w}", flush=True)
    hot = counts[("read_hot", 7)]
    assert len(hot) == 2 and hot[0] == hot[1], f"read_hot counts differ: {hot}"
    assert hot[0]["device_reads_after_warmup"] == 0, hot[0]
    print("ok read_hot counts repeat exactly")
    shutil.rmtree(tmp)


if __name__ == "__main__":
    main()
