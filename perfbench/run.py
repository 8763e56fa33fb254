"""Benchmark of the fsf toolkit: three closed-loop workloads, checked outputs, per-layer traces.

Run from the repository root:

    python3 perfbench/run.py --workload train-64 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all        # every workload, untraced then traced
    python3 perfbench/run.py --selftest   # shows each correctness check can fail

One workload run starts ``workloads.py`` in a child process with the
workload's thread settings and ``PYTHONPATH=src``, relays its report and
ends with its result JSON as the last line of standard output. ``--all``
also rewrites ``BENCHMARK.json`` and ``perfbench/environment.json``.
Scratch files go under ``.perfbench_work/`` and are removed afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spec  # noqa: E402

# A run must end within 180 s; the child is killed a little before that.
CHILD_TIMEOUT_S = 170


def _child_env(root, threads) -> dict:
    env = dict(os.environ)
    env.update(threads)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(root, script, args, threads, capture=True):
    """Run a perfbench script in a child process.

    Returns its stdout lines (empty when not captured), or None when it
    timed out or exited with a non-zero code.
    """
    work = os.path.join(root, ".perfbench_work", f"{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, script), *args, "--work", work],
            cwd=root, env=_child_env(root, threads),
            stdout=subprocess.PIPE if capture else None, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: {script} {' '.join(args)} exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        parent = os.path.dirname(work)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)
    if proc.returncode != 0:
        print(f"perfbench: {script} {' '.join(args)} exited with {proc.returncode}", file=sys.stderr)
        return None
    return proc.stdout.splitlines() if capture else []


def run_workload(root, name, seed, seconds, trace):
    """Lines a workload run printed and its result; None on failure."""
    lines = run_child(
        root, "workloads.py",
        ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        spec.WORKLOADS[name]["env"],
    )
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("perfbench: the workload printed no result", file=sys.stderr)
        return None
    return lines[:-1], result


def run_all(root, seed, seconds) -> int:
    """Every workload untraced, then traced; prints a summary and writes the spec files."""
    summary = []
    env_record = {"workloads": {}}
    ok = True
    for name in spec.WORKLOADS:
        for trace in (0, 1):
            out = run_workload(root, name, seed, seconds, trace)
            if out is None:
                return 1
            lines, result = out
            print("\n".join(lines))
            print(json.dumps(result))
            ok &= result["correct"]
            for line in lines:
                if line.startswith("env "):
                    env = json.loads(line[4:])
                    env_record["workloads"][name] = env.pop("threads")
                    env_record.update(env)
                elif line.startswith(f"{name} ") and " = " in line:
                    summary.append(f"{line}{'  (traced run)' if trace else ''}")
            summary.append(
                f"{name} checks: {result['failed']} of {result['attempted']} operations failed"
            )
    print("\nsummary (seed %d, %s s per run)" % (seed, seconds))
    print("\n".join(summary))
    with open(os.path.join(root, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
        json.dump(spec.benchmark_spec(), fh, indent=2)
        fh.write("\n")
    with open(os.path.join(HERE, "environment.json"), "w", encoding="utf-8") as fh:
        json.dump(env_record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--selftest", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fsf", "__init__.py")):
        print("perfbench: no fsf sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    if args.all:
        return run_all(root, args.seed, args.seconds)
    if args.selftest:
        ok = run_child(root, "selftest.py", [], spec.WORKLOADS["train-64"]["env"], capture=False)
        return 1 if ok is None else 0
    out = run_workload(root, args.workload, args.seed, args.seconds, args.trace)
    if out is None:
        return 1
    lines, result = out
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
