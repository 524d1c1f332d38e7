#!/usr/bin/env python3
"""Build the perfbench binary from source, then run it.

Run from the repository root:

    python3 perfbench/run.py --workload exact-fp --seed 1 --seconds 20 --trace 0

Every argument is passed to the binary. The Go build cache, the binary and
the span files all live under .bench_build/ in the repository root.

Repeat mode checks steadiness: it runs the binary once per seed, starting at
--seed, and prints each end-to-end metric's median and quartiles across the
runs together with its spread (interquartile range over median) against the
bound in BENCHMARK.json. It exits non-zero if a run is incorrect or a
spread, other than setup_s, reaches a third of its bound.

    python3 perfbench/run.py --repeat 10 --workload exact-fp --seed 1 --seconds 20
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench-bin")


def build():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOENV="off",
        GOFLAGS="",
    )
    os.makedirs(BUILD, exist_ok=True)
    proc = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env,
                          stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        sys.exit(2)


def split_flag(args, name):
    """Remove --name VALUE / --name=VALUE from args; return VALUE or None."""
    for i, a in enumerate(args):
        bare = a.lstrip("-")
        if bare == name and i + 1 < len(args):
            value = args[i + 1]
            del args[i:i + 2]
            return value
        if bare.startswith(name + "="):
            del args[i]
            return bare.split("=", 1)[1]
    return None


def run_once(args):
    proc = subprocess.run([BINARY] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, lines
    return json.loads(lines[-1]), lines


def repeat(n, args):
    seed = split_flag(args, "seed")
    seed = int(seed) if seed is not None else 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    traced = "1" == (split_flag(list(args), "trace") or "0")
    bounds = {m["name"]: m.get("bound") for m in spec["per_layer" if traced else "end_to_end"]}
    values = {}
    ok = True
    host = None
    for s in range(seed, seed + n):
        res, lines = run_once(args + ["--seed", str(s)])
        for l in lines:
            if l.startswith("host "):
                host = l[5:]
        if res is None or not res["correct"]:
            sys.stdout.write("seed %d: run failed or incorrect\n" % s)
            ok = False
            continue
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        sys.stdout.write("seed %d: %s\n" % (s, json.dumps({k: v["value"] for k, v in res["metrics"].items()})))
        sys.stdout.flush()
    if host:
        sys.stdout.write("host %s\n" % host)
    summary = {}
    for name in sorted(values):
        vs = values[name]
        if len(vs) < 2:
            continue
        q1, q2, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / q2 if q2 else 0.0
        bound = bounds.get(name)
        steady = bound is None or name == "setup_s" or spread < bound / 3
        ok = ok and steady
        summary[name] = {"median": q2, "q1": q1, "q3": q3, "spread": spread, "bound": bound, "steady": steady}
        sys.stdout.write("%-34s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f bound %s %s\n" % (
            name, q2, q1, q3, spread, bound, "" if steady else "UNSTEADY"))
    sys.stdout.write(json.dumps({"steady": ok, "runs": n, "metrics": summary}) + "\n")
    return 0 if ok else 1


def main():
    args = sys.argv[1:]
    n = split_flag(args, "repeat")
    build()
    if n is not None:
        sys.exit(repeat(int(n), args))
    os.chdir(ROOT)
    os.execv(BINARY, [BINARY] + args)


if __name__ == "__main__":
    main()
