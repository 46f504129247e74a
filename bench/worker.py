"""One workload in one fresh process: set up, run whole rounds, check, report.

Started by run.py.  It prints ``READY`` once ptspec is imported and the
warm-up invocation has run (the parent times process start to that line as
set-up), then runs rounds of the workload's CLI invocations until the time
budget would be exceeded, and prints one JSON line with its measurements.
"""

import os

# single-threaded BLAS, fixed before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import cases as workload_cases  # noqa: E402
import checks  # noqa: E402
from spans import METRICS, Tracer, layer_metrics  # noqa: E402


def blas_context():
    """nproc, the BLAS scipy's LAPACK uses, and its thread count as the
    library itself reports it."""
    import scipy
    info = {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0]}
    try:
        lapack = scipy.show_config(mode="dicts")["Build Dependencies"]["lapack"]
        info["blas"] = f"{lapack['name']} {lapack['version']}"
    except (KeyError, TypeError, AttributeError):
        info["blas"] = "unknown"
    info["blas_threads"] = None
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads",
                       "openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = max(info["blas_threads"] or 0, fn())
                break
    if info["blas_threads"] is None:
        info["blas_threads"] = f"env {os.environ['OPENBLAS_NUM_THREADS']}"
    return info


def invoke(cli, case, config_path, out_path):
    """One timed CLI invocation; returns (exit code, seconds, output bytes)."""
    if out_path.exists():
        out_path.unlink()
    argv = [case.command, "--config", str(config_path), "--format", case.fmt,
            "--out", str(out_path)]
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:        # argparse rejects the arguments
        code = exc.code
    except Exception:                # an error the CLI does not map to a code
        traceback.print_exc()
        code = "exception"
    seconds = time.perf_counter() - start
    data = out_path.read_bytes() if out_path.exists() else b""
    return code, seconds, data


def check_case(case, text, outputs):
    """The benchmark's own check of one output; returns the worst relative
    error it measured.  `outputs` maps case names to (format, text) of the
    round's successful invocations."""
    cfg = case.config
    if case.command == "verify":
        return checks.check_verify(cfg, text, case.fmt, workload_cases.MATCH_TOL)
    if case.command == "spectrum":
        if case.fmt == "csv" and case.twin in outputs:
            twin_fmt, twin_text = outputs[case.twin]
            checks.check_rows_equal(text, case.fmt, twin_text, twin_fmt)
        return checks.check_spectrum(cfg, text, case.fmt,
                                     workload_cases.MATCH_TOL)
    if case.command == "scan":
        return checks.check_scan(cfg, text, case.fmt, 2e-2)
    return checks.check_wavefunction(cfg, text, case.fmt)


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True,
                   choices=sorted(workload_cases.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--probe", action="store_true",
                   help="set up and exit (a set-up time sample)")
    args = p.parse_args(argv)
    workdir = Path(args.workdir)

    import ptspec.cli as cli
    warm_cfg = workdir / "warmup.json"
    warm_cfg.write_text(json.dumps(workload_cases.WARMUP))
    warm_code, _, _ = invoke(cli, workload_cases.Case("warmup", "verify", {}),
                             warm_cfg, workdir / "warmup.out")
    print("READY", flush=True)
    if args.probe:
        return 0

    cases = workload_cases.make_cases(args.workload, args.seed)
    config_paths = {}
    for case in cases:
        config_paths[case.name] = workdir / f"{case.name}.cfg.json"
        config_paths[case.name].write_text(json.dumps(case.config))

    tracer = Tracer() if args.trace else None
    rounds = []            # one dict per round
    first = {}             # case name -> (exit code, sha256) of round 0
    errors = []
    if warm_code != 0:
        errors.append(f"warm-up verify exited {warm_code}")
    attempted = failed = 0
    failures = {}
    start = time.perf_counter()
    while True:
        index = len(rounds)
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        times, out_bytes = [], 0
        round_start = time.perf_counter()
        try:
            for case in cases:
                suffix = "first" if index == 0 else "last"
                out = workdir / f"{case.name}.{suffix}.{case.fmt}"
                code, seconds, data = invoke(cli, case, config_paths[case.name],
                                             out)
                times.append(seconds)
                out_bytes += len(data)
                attempted += 1
                if code != 0:
                    failed += 1
                    failures[case.name] = code
                digest = hashlib.sha256(data).hexdigest()
                if index == 0:
                    first[case.name] = (code, digest)
                elif first[case.name] != (code, digest):
                    errors.append(f"{case.name}: round {index} output or exit "
                                  f"code differs from round 0")
        finally:
            if traced:
                tracer.uninstall()
        rnd = {"traced": traced, "wall": sum(times), "times": times,
               "elapsed": time.perf_counter() - round_start}
        if traced:
            rnd["layers"] = layer_metrics(tracer.summary(), out_bytes)
        rounds.append(rnd)
        elapsed = time.perf_counter() - start
        need = 2 if tracer is not None else 1
        if len(rounds) >= need and elapsed + rnd["elapsed"] > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # checks run after timing and after the peak RSS is read
    max_rel_err = 0.0
    outputs = {case.name: (case.fmt, (workdir / f"{case.name}.first.{case.fmt}")
                           .read_text())
               for case in cases if first[case.name][0] == 0}
    for case in cases:
        if case.name not in outputs:
            continue
        try:
            err = check_case(case, outputs[case.name][1], outputs)
            max_rel_err = max(max_rel_err, err)
        except (checks.CheckFailed, ValueError, KeyError, IndexError) as exc:
            errors.append(f"{case.name}: {type(exc).__name__}: {exc}")

    result = {
        "attempted": attempted, "failed": failed, "failures": failures,
        "errors": errors, "max_rel_err": max_rel_err,
        "peak_rss_mb": peak_rss_mb, "rounds": rounds,
        "absent": tracer.absent if tracer else [],
        "layer_units": METRICS,
        "context": blas_context(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
