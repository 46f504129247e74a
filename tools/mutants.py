"""Mutation gate: each mutant below must make one of its named tests fail.

    python tools/mutants.py

A mutant is (file under src/ptspec, exact old string, new string, test
ids).  For each one the runner copies src/ to a temporary directory,
replaces the old string, which must occur exactly once, and runs only the
named tests against the copy, in a process whose ptspec must import from
the copy.  The mutant is caught when pytest exits 1 (a test failed) or
runs past TIMEOUT_S.  pytest exiting 0 means it survived; any other exit,
such as 4 for a mistyped test id, or 98 for a copy that does not import
(a mutant that is not valid Python), is an error of the runner.

The tests run from the repository's tests/, in process.  A test that
starts a subprocess on the repository's src/ would not see the mutant, so
none is named here.  The named tests must first pass on an unmutated
copy.  Exit status 0 when every mutant is caught, 1 when one survives,
2 on a runner error.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300

# imports ptspec from the copy given as argv[1], then runs pytest on the
# rest of argv; exit 98 when the copy does not import (a mutant that is
# not valid Python fails no test), 99 when ptspec resolves elsewhere (an
# installed copy)
PROBE = """\
import os, sys, traceback
import pytest
try:
    import ptspec.cli
except Exception:
    traceback.print_exc()
    sys.exit(98)
import ptspec
if os.path.commonpath([ptspec.__file__, sys.argv[1]]) != sys.argv[1]:
    print("ptspec imported from", ptspec.__file__, "not the copy")
    sys.exit(99)
sys.exit(pytest.main(sys.argv[2:]))
"""

MUTANTS = [
    # the banded LU's U diagonal read one row off
    ("eigen.py", "lu, ipiv, lu[2 * w]", "lu, ipiv, lu[2 * w - 1]",
     ["tests/test_eigen.py::TestCountMissing"
      "::test_log_det_matches_slogdet"]),
    # the band stacked one row too low for zgbtrf
    ("eigen.py", "blocks = ab[w:]", "blocks = ab[w + 1:]",
     ["tests/test_eigen.py::TestCountMissing"
      "::test_half_width_is_read_from_the_band"]),
    # count_missing without its cap on determinants
    ("eigen.py",
     "        if evaluations > MAX_LOG_DETS:\n            return None\n",
     "",
     ["tests/test_eigen.py::TestCountMissing"
      "::test_unresolved_count_stops_at_the_evaluation_cap"]),
    # failed sweep points leave zero rows, not NaN rows
    ("eigen.py", "np.full((steps, levels), np.nan, dtype=complex)",
     "np.zeros((steps, levels), dtype=complex)",
     ["tests/test_eigen.py::TestScan::test_family_failures_recorded"]),
    # a family value that is not finite no longer fails its point
    ("eigen.py", "bad = np.count_nonzero(~np.isfinite(vals))", "bad = 0",
     ["tests/test_eigen.py::TestScan"
      "::test_non_finite_family_values_fail_their_points"]),
    # the closed-form energies left unsorted
    ("models.py", "return np.sort([energy(n, s, p)",
     "return np.array([energy(n, s, p)",
     ["tests/test_models.py::TestAngularEnergies"
      "::test_termination_level_multisets",
      "tests/test_cli.py::TestVerifyCommand"
      "::test_analytic_levels_hold_the_lowest"]),
    # spurious values counted as real levels
    ("eigen.py", "self.classifications == REAL]",
     "self.classifications != PAIR]",
     ["tests/test_eigen.py::TestClassify::test_labels"]),
    # a potential that is not finite reaches the solver
    ("contour.py",
     "    bad = np.count_nonzero(~np.isfinite(v))\n    if bad:\n"
     "        raise ValueError(f\"potential is not finite at {bad} of "
     "{len(v)} \"\n                         \"grid points\")\n",
     "",
     ["tests/test_contour.py::TestHamiltonian"
      "::test_non_finite_potential_rejected"]),
    # no bound on wavefunction.index
    ("cli.py", '(wf["index"] < npoints,', "(True,",
     ["tests/test_cli.py::TestWavefunctionCommand"
      "::test_index_beyond_the_grid_exits_2_before_any_numerics"]),
    # the whole-grid wavefunction call in place of the blocks
    ("cli.py",
     "        for start in range(0, len(t), BLOCK_ROWS):\n"
     "            rows = slice(start, start + BLOCK_ROWS)\n",
     "        for start in [0]:\n"
     "            rows = slice(0, len(t))\n",
     ["tests/test_cli.py::TestWavefunctionCommand"
      "::test_working_set_is_psi_grid_and_one_block"]),
    # an overflow that is not a FloatingPointError ends in a traceback
    ("cli.py", "except (NonConvergence, ValueError, ArithmeticError)",
     "except (NonConvergence, ValueError, FloatingPointError)",
     ["tests/test_cli.py::TestExitCodes::test_solver_error_exits_3"]),
    # dgeev's info never checked: a failed solve returns its values
    ("eigen.py",
     "        _check_dgeev(info)\n        values = wr",
     "        values = wr",
     ["tests/test_eigen.py::TestEigDense"
      "::test_info_raises_after_every_solve"]),
    # the extra block's thread never started
    ("eigen.py", "            worker.start()\n", "",
     ["tests/test_eigen.py::TestEigDense"
      "::test_blocks_together_equal_one_at_a_time"]),
    # a block that is not float64 reaches LAPACK as raw memory
    ("eigen.py",
     "        if a.dtype != np.float64:\n"
     "            raise TypeError(f\"eig_dense takes float64 blocks, got "
     "{a.dtype}\")\n",
     "",
     ["tests/test_eigen.py::TestEigDense"
      "::test_block_that_is_not_float64_is_rejected"]),
    # a sequential OpenBLAS build taken as safe for two concurrent solves
    ("eigen.py", "return query() != 0", "return True",
     ["tests/test_eigen.py::TestEigDense"
      "::test_only_a_threaded_openblas_takes_two_solves"]),
    # each chunk of shifts factored in a copy of the stacked buffer
    ("eigen.py", "ab = buffer[:, :m * n]",
     'ab = buffer[:, :m * n].copy(order="F")',
     ["tests/test_eigen.py::TestCountMissing"
      "::test_stacked_lu_factors_every_chunk_in_one_buffer",
      "tests/test_eigen.py::TestCountMissing::test_log_det_peak_memory"]),
    # the shifts subtracted from the first superdiagonal, not the diagonal
    ("eigen.py", "blocks[w] -= shifts", "blocks[w - 1] -= shifts",
     ["tests/test_eigen.py::TestCountMissing"
      "::test_log_det_matches_slogdet"]),
    # LAPACK's minimum workspace, 3 N, in place of dgeev_lwork's size
    ("eigen.py", "(n, lda, 1, int(work), 0)",
     "(n, lda, 1, max(1, 3 * n), 0)",
     ["tests/test_eigen.py::TestEigDense"
      "::test_values_are_eigvals_bit_for_bit"]),
    # concurrent solves left at the caller's OpenBLAS thread count
    ("eigen.py", "            _SET_THREADS(1)\n", "            pass\n",
     ["tests/test_eigen.py::TestEigDense"
      "::test_blocks_are_the_same_at_every_blas_thread_count",
      "tests/test_eigen.py::TestEigDense"
      "::test_blas_threads_are_restored_after_a_return_or_a_raise"]),
    # the caller's OpenBLAS thread count never restored
    ("eigen.py", "            _SET_THREADS(threads)\n", "            pass\n",
     ["tests/test_eigen.py::TestEigDense"
      "::test_blas_threads_are_restored_after_a_return_or_a_raise"]),
    # eig_dense calls from several threads no longer one at a time
    ("eigen.py", "_SOLVING = threading.Lock()",
     "_SOLVING = threading.Semaphore(8)",
     ["tests/test_eigen.py::TestEigDense"
      "::test_concurrent_calls_keep_the_callers_blas_threads"]),
    # gegenbauer returns the lam-derivative in place of the value
    ("specfun.py", "return _gegenbauer_pair(k, lam, x)[0]",
     "return _gegenbauer_pair(k, lam, x)[1]",
     ["tests/test_specfun.py::TestGegenbauer::test_degree_zero_is_one",
      "tests/test_specfun.py::TestGegenbauer::test_frozen_oracle_value"]),
    # gegenbauer_renormalized returns the value in place of the derivative
    ("specfun.py", "return _gegenbauer_pair(k, lam, x)[1]",
     "return _gegenbauer_pair(k, lam, x)[0]",
     ["tests/test_specfun.py::TestGegenbauer"
      "::test_renormalized_degree_zero_is_zero",
      "tests/test_specfun.py::TestGegenbauer"
      "::test_renormalized_limit_is_chebyshev_at_zero_weight"]),
    # the derivative's degree-1 seed dC_1/dlam = 2x taken as 2
    ("specfun.py", "2.0 * x) if k", "2.0) if k",
     ["tests/test_specfun.py::TestGegenbauer"
      "::test_renormalized_limit_is_chebyshev_at_zero_weight",
      "tests/test_specfun.py::TestGegenbauer"
      "::test_renormalized_matches_finite_difference"]),
]


def run_tests(path, old, new, tests):
    """pytest's exit code, or None past TIMEOUT_S, for the named tests on a
    copy of src/ with `old` replaced by `new` in src/ptspec/`path` (no
    replacement when path is None).  Output is shown unless a test fails,
    the expected outcome of a mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(ROOT / "src", src)
        if path is not None:
            target = Path(src, "ptspec", path)
            text = target.read_text()
            if text.count(old) != 1:
                raise SystemExit(f"{path}: the old string occurs "
                                 f"{text.count(old)} times: {old!r}")
            target.write_text(text.replace(old, new))
        try:
            proc = subprocess.run(
                [sys.executable, "-c", PROBE, os.path.join(src, "ptspec"),
                 "-q", "-x", "-p", "no:cacheprovider", *tests],
                cwd=ROOT, env=dict(os.environ, PYTHONPATH=src),
                capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None
    if proc.returncode != 1:
        print(proc.stdout + proc.stderr, end="")
    return proc.returncode


def main():
    named = sorted({test for *_, tests in MUTANTS for test in tests})
    code = run_tests(None, None, None, named)
    if code != 0:
        print(f"the named tests do not pass unmutated (exit {code})")
        return 2
    survived = errors = 0
    for path, old, new, tests in MUTANTS:
        start = time.perf_counter()
        code = run_tests(path, old, new, tests)
        outcome = {None: "caught (timeout)", 0: "SURVIVED",
                   1: "caught"}.get(code, f"ERROR (exit {code})")
        survived += code == 0
        errors += code not in (None, 0, 1)
        print(f"{outcome:18s} {time.perf_counter() - start:5.1f} s  {path}: "
              f"{old.strip().splitlines()[0]!r} -> "
              f"{(new.strip().splitlines() or [''])[0]!r}", flush=True)
    print(f"{len(MUTANTS) - survived - errors} of {len(MUTANTS)} mutants "
          f"caught, {survived} survived, {errors} runner errors")
    return 2 if errors else 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
