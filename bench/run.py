"""CLI-driven benchmark of ptspec.

    python3 bench/run.py --workload verify|spectrum|scan|wavefunction
                         --seed N --seconds S --trace 0|1

Each workload runs in a fresh worker process (worker.py) that fixes BLAS to
one thread before numpy loads and drives the program only through ``ptspec.cli.main(argv)``, with config
files generated from the seed.  Set-up time is sampled in that worker and
in extra set-up-only processes.  With ``--trace 0`` the last line reports
the end-to-end metrics; with ``--trace 1`` the worker alternates untraced
and traced rounds and the last line reports the per-layer metrics and the
tracing overhead.  Lines before it describe the machine and any failures.
The exit code is 0 when a result was printed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from cases import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2          # set-up-only processes before the measuring worker
TIMEOUT_S = 170


class BenchError(Exception):
    pass


def start_worker(argv, deadline):
    """Start a worker and wait for its READY line; returns (process,
    seconds from start to READY)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")] + argv,
                            stdout=subprocess.PIPE, text=True, cwd=str(ROOT))
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "READY":
        finish(proc, deadline)
        raise BenchError(f"worker did not set up (exit {proc.returncode})")
    return proc, ready


def finish(proc, deadline):
    """Rest of a worker's output once it has exited; kills it at the deadline."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the time limit")
    return out


def run(args):
    if not (ROOT / "src" / "ptspec" / "cli.py").is_file():
        raise BenchError(f"no ptspec sources under {ROOT / 'src'}")
    deadline = time.monotonic() + TIMEOUT_S
    workdir = HERE / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--workdir", str(workdir)]
    try:
        setup = []
        for _ in range(SETUP_PROBES):
            proc, ready = start_worker(common + ["--probe"], deadline)
            finish(proc, deadline)
            if proc.returncode != 0:
                raise BenchError(f"set-up probe exited {proc.returncode}")
            setup.append(ready)
        proc, ready = start_worker(common, deadline)
        setup.append(ready)
        out = finish(proc, deadline)
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()      # only if no other run is using it
        except OSError:
            pass
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"worker printed no result: {exc}")
    return setup, result


def end_to_end(setup, result):
    plain = [r for r in result["rounds"] if not r["traced"]]
    times = [t for r in plain for t in r["times"]]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(r["wall"] for r in plain), "s"),
        "case_p50_s": (statistics.median(times), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "max_rel_err": (result["max_rel_err"], "1"),
    }


def per_layer(result):
    plain = [r["wall"] for r in result["rounds"] if not r["traced"]]
    traced = [r for r in result["rounds"] if r["traced"]]
    units = result["layer_units"]
    metrics = {name: (statistics.median(r["layers"][name] for r in traced),
                      units[name])
               for name in traced[0]["layers"]}
    overhead = (statistics.median(r["wall"] for r in traced)
                / statistics.median(plain) - 1.0) * 100.0
    metrics["trace.overhead_pct"] = (overhead, units["trace.overhead_pct"])
    return metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        setup, result = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    metrics = per_layer(result) if args.trace else end_to_end(setup, result)
    print("# machine: " + json.dumps(result["context"], sort_keys=True))
    print(f"# rounds: {len(result['rounds'])}, setup samples: "
          + ", ".join(f"{s:.3f}" for s in setup))
    if result["failures"]:
        print("# failed operations (exit codes): "
              + json.dumps(result["failures"], sort_keys=True))
    if result["absent"]:
        print("# absent layers (reported as 0): "
              + ", ".join(result["absent"]))
    for err in result["errors"]:
        print(f"# check failed: {err}")
    print(json.dumps({
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
