#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds `rvmond` (root package) and the benchmark binary (the
`perfbench` package) in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs one workload, checks that the result
line names every metric `BENCHMARK.json` lists for that mode with its
unit, and prints it as the last line of standard output. The exit code
is 0 only for a complete, correct run.

`--self-test` runs every workload at a tiny size, untraced and traced,
and checks the result lines and that both modes saw the same input
(the same E/M/FM/CM for the same seed).
"""

import argparse
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRATCH = ".perfbench_tmp"
WORKLOADS = ("bloat-all", "h2-all", "rvmond-2t")
# A run must end within 180 s; the binary measures for --seconds plus
# its set-up, correctness gate and daemon restarts.
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    return pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build")).resolve()


def build():
    """Builds rvmond and the benchmark; returns their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        fail("not a checkout of the repository: no Cargo.toml or crates/ beside perfbench/")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for manifest, extra in (("Cargo.toml", ["--bin", "rvmond"]), ("perfbench/Cargo.toml", [])):
        cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest] + extra
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    release = target_dir() / "release"
    return release / "rvmond", release / "rv-perfbench"


def expected_metrics(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def run_once(binary, rvmond, workload, seed, seconds, traced, size="full"):
    """Runs the benchmark binary; returns (exit code, info lines, result)."""
    scratch = ROOT / SCRATCH / f"run-{os.getpid()}"
    cmd = [
        str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "1" if traced else "0", "--size", size,
        "--rvmond", str(rvmond), "--scratch", str(scratch),
    ]
    # A session of its own, so that a timeout can stop the binary and
    # every daemon it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            (ROOT / SCRATCH).rmdir()
        except OSError:
            pass  # another run in this checkout still uses it
    lines = out.strip().splitlines()
    if not lines:
        fail(f"{workload} printed nothing (exit {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload}: last line is not a result: {lines[-1]!r}")
    return proc.returncode, lines[:-1], result


def check_result(result, traced):
    """Returns what is wrong with a result line's shape, if anything."""
    if set(result) != RESULT_KEYS:
        return f"result keys {sorted(result)}"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number of at least 1"
    if not isinstance(result["failed"], int):
        return "failed must be a whole number"
    want = expected_metrics(traced)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        return f"metrics differ from BENCHMARK.json: missing {missing} extra {extra} units {units}"
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            return f"{name} has no numeric value"
    return None


def input_counts(info):
    """The E/M/FM/CM a run reports for its input."""
    for line in info:
        if line.startswith("perfbench: workload="):
            fields = dict(f.split("=", 1) for f in line.split()[1:])
            return {k: fields.get(k) for k in ("E", "M", "FM", "CM", "triggers")}
    return None


def self_test(rvmond, binary):
    ok = True
    for workload in WORKLOADS:
        counts = []
        for traced in (False, True):
            code, info, result = run_once(binary, rvmond, workload, 5, 1, traced, size="tiny")
            problem = check_result(result, traced)
            if code != 0 or not result["correct"] or result["failed"] != 0 or problem:
                print(f"self-test: {workload} trace={int(traced)} FAILED: exit {code}, "
                      f"correct={result.get('correct')}, failed={result.get('failed')}, {problem}")
                ok = False
            counts.append(input_counts(info))
        if counts[0] is None or counts[0] != counts[1]:
            print(f"self-test: {workload} FAILED: untraced input {counts[0]} traced {counts[1]}")
            ok = False
        else:
            print(f"self-test: {workload} ok ({counts[0]})")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    rvmond, binary = build()
    if args.self_test:
        sys.exit(0 if self_test(rvmond, binary) else 1)

    traced = args.trace == 1
    code, info, result = run_once(binary, rvmond, args.workload, args.seed, args.seconds, traced)
    problem = check_result(result, traced)
    if problem:
        fail(f"{args.workload}: malformed result: {problem}")
    for line in info:
        print(line)
    print(json.dumps(result))
    sys.exit(0 if code == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
