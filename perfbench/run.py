#!/usr/bin/env python3
"""Build the benchmark from source and run one workload (or all of them).

    python3 perfbench/run.py --workload write-durable --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build). Build output goes to stderr; the benchmark's last
line of stdout is its JSON result. With --workload all, every workload runs
in turn and the last line is one JSON object keyed by workload.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    target = env["CARGO_TARGET_DIR"]
    return os.path.join(ROOT, target, "release", "perfbench")


def workload_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def main(argv):
    exe = build()
    if "--workload" in argv and argv[argv.index("--workload") + 1] == "all":
        i = argv.index("--workload")
        results = {}
        for name in workload_names():
            args = argv[:i] + ["--workload", name] + argv[i + 2:]
            out = subprocess.run([exe] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(out.stdout)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                sys.exit(f"perfbench: workload {name} failed")
            results[name] = json.loads(lines[-1])
        print(json.dumps({"correct": all(r["correct"] for r in results.values()), "workloads": results}))
        return 0
    return subprocess.run([exe] + argv, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
