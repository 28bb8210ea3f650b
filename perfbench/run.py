#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (with the simulator
library from src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs one workload. Build output goes to
stderr; the benchmark's report, whose last line is the JSON result,
goes to stdout. Traces of --trace 1 runs are written under the build
directory. The exit code is the benchmark's (non-zero when the build
fails or an output check fails). The metric names and units of the
result must match BENCHMARK.json, the one place they are declared;
a mismatch also exits non-zero.
"""

import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def source_id():
    """Identify the measured code: git commit if any, else a digest."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10)
        if commit.returncode == 0:
            return "git:" + commit.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:12]


def run(cmd):
    """Run a build step, its output on stderr; exit on failure."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        sys.exit(proc.returncode or 1)


def check_declared(result_line, trace):
    """Compare the result's metrics with those BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace == "1" else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in json.loads(result_line)["metrics"].items()}
    if got != want:
        diff = sorted(set(got.items()) ^ set(want.items()))
        sys.exit("perfbench: metrics differ from BENCHMARK.json: %s" % diff)


def main():
    args = sys.argv[1:]
    build = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    build = os.path.join(ROOT, build)
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/ beside perfbench/; run from a full checkout")
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        run(["cmake", "-S", "perfbench", "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    run(["cmake", "--build", build, "-j", str(min(4, os.cpu_count() or 1))])

    workload = args[args.index("--workload") + 1] if "--workload" in args else "none"
    seed = args[args.index("--seed") + 1] if "--seed" in args else "none"
    trace = args[args.index("--trace") + 1] if "--trace" in args else "none"
    trace_out = os.path.join(build, "trace-%s-%s.json" % (workload, seed))
    sys.stdout.flush()
    proc = subprocess.run([os.path.join(build, "perfbench"), *args,
                           "--trace-out", trace_out,
                           "--source-id", source_id()],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if lines and lines[-1].startswith("{"):
        check_declared(lines[-1], trace)
    elif proc.returncode == 0:
        sys.exit("perfbench: no result line")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
