#!/usr/bin/env python3
"""Build and run the benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first form builds perfbench/bench.exe with dune (from the sources in
this checkout) and runs it with DIA_JOBS=1; its last line of output is
the result JSON. The second form runs every workload at smoke scale,
traced and untraced, through the same executable, and checks that every
metric declared in BENCHMARK.json is emitted with its unit and that the
output check trips on a perturbed traced replay. A traced run leaves the
spans of instance J in perfbench/_work/spans.W.J.tsv; the self-test
checks that file too.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
ENV = dict(os.environ, DIA_JOBS="1")


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"run.py: {needed} is missing; the benchmark builds the "
                     "program from the sources of this checkout")
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "--cache=disabled",
         "./perfbench/bench.exe"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        sys.exit("run.py: build failed")


def bench(args):
    return subprocess.run([EXE] + args, cwd=ROOT, env=ENV,
                          stdout=subprocess.PIPE, text=True)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def spans_problems(workload):
    """Checks the span file a traced smoke run left for its one instance."""
    path = os.path.join(ROOT, "perfbench", "_work", f"spans.{workload}.0.tsv")
    if not os.path.exists(path):
        return [f"{workload}: no span file {path}"]
    with open(path) as f:
        rows = [line.rstrip("\n").split("\t") for line in f]
    if rows[0] != ["index", "name", "start_ns", "end_ns", "parent", "event"]:
        return [f"{workload}: span file header {rows[0]}"]
    spans = rows[1:]
    roots = [r for r in spans if r[1] == "run" and r[4] == "-1"]
    if len(roots) != 1 or any(int(r[3]) < int(r[2]) for r in spans):
        return [f"{workload}: span file has {len(roots)} root spans or a span "
                "that ends before it starts"]
    return []


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            spans = os.path.join(ROOT, "perfbench", "_work", f"spans.{w['name']}.0.tsv")
            if os.path.exists(spans):
                os.remove(spans)
            p = bench(["--workload", w["name"], "--seed", "1", "--seconds", "1",
                       "--trace", trace, "--smoke"])
            res = result_of(p)
            where = f"{w['name']} --trace {trace}"
            if p.returncode != 0 or res is None or not res["correct"]:
                problems.append(f"{where}: failed (exit {p.returncode})")
                continue
            emitted = res["metrics"]
            for m in declared:
                got = emitted.get(m["name"])
                if got is None:
                    problems.append(f"{where}: {m['name']} not emitted")
                elif got["unit"] != m["unit"]:
                    problems.append(f"{where}: {m['name']} unit {got['unit']}, "
                                    f"declared {m['unit']}")
            extra = set(emitted) - {m["name"] for m in declared}
            if extra:
                problems.append(f"{where}: undeclared metrics {sorted(extra)}")
            if trace == "1":
                problems += spans_problems(w["name"])
    # A traced replay given a different seed must fail the byte-for-byte check.
    for w in spec["workloads"]:
        p = bench(["--workload", w["name"], "--seed", "1", "--seconds", "1",
                   "--trace", "1", "--smoke", "--perturb"])
        res = result_of(p)
        if p.returncode == 0 or res is None or res["correct"]:
            problems.append(f"{w['name']}: perturbed replay passed the output check")
    for m in problems:
        print("selftest:", m)
    print("selftest", "failed" if problems else "ok")
    return 1 if problems else 0


def main():
    build()
    if sys.argv[1:] == ["--selftest"]:
        sys.exit(selftest())
    sys.exit(subprocess.run([EXE] + sys.argv[1:], cwd=ROOT, env=ENV).returncode)


if __name__ == "__main__":
    main()
