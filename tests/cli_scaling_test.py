#!/usr/bin/env python3
"""Command-line contract of `incast_sim`, one ctest case per CASES entry.

Usage: cli_scaling_test.py INCAST_SIM CHECK_TRACE CASE

  domains-rejected     `scaling --domains 4` names --domains as an unknown
                       flag and exits 2 (bad invocation) instead of
                       ignoring it.
  trace-runs           `scaling --degrees 64 --flow-trace --trace-out T.json`
                       exits 0 and T.json passes tools/check_trace.py.
  fleet-csv-unwritable `fleet --export-csv` into a missing directory exits 3
                       (file I/O), not 0.
  burst-metrics-unwritable
                       `burst --metrics-out` into a missing directory exits
                       3 (file I/O), not 1.
  fabric-defaults-run  bare `fabric` exits 0: the default --flows fits the
                       default fabric's cross-rack seats.
  fabric-overflow-exits-config
                       `fabric --flows 96` (24 seats) exits 2 (bad
                       configuration), not 5, naming both numbers.
  flight-dumps-unwritable
                       flight dumps into a missing directory exit 3 and the
                       summary line says none of them was written.
"""
from __future__ import annotations

import subprocess
import sys
import tempfile


def domains_rejected(incast_sim: str, _check_trace: str, workdir: str) -> str | None:
    run = subprocess.run([incast_sim, "scaling", "--domains", "4"], cwd=workdir,
                         capture_output=True, text=True, timeout=60)
    if run.returncode != 2:
        return f"expected exit 2, got {run.returncode}; stderr:\n{run.stderr}"
    if "--domains: unknown flag" not in run.stderr:
        return f"stderr does not name --domains as unknown:\n{run.stderr}"
    return None


def trace_runs(incast_sim: str, check_trace: str, workdir: str) -> str | None:
    run = subprocess.run([incast_sim, "scaling", "--degrees", "64", "--jobs", "1",
                          "--flow-trace", "--trace-out", "T.json"],
                         cwd=workdir, capture_output=True, text=True, timeout=300)
    if run.returncode != 0:
        return f"scaling exited {run.returncode}; stderr:\n{run.stderr}"
    check = subprocess.run([sys.executable, check_trace, "T.json"], cwd=workdir,
                           capture_output=True, text=True, timeout=120)
    if check.returncode != 0:
        return f"check_trace.py rejected T.json:\n{check.stdout}{check.stderr}"
    return None


def exits_io_error(incast_sim: str, workdir: str, args: list[str]) -> str | None:
    run = subprocess.run([incast_sim, *args], cwd=workdir, capture_output=True,
                         text=True, timeout=120)
    if run.returncode != 3:
        return f"expected exit 3, got {run.returncode}; stderr:\n{run.stderr}"
    if "cannot write missing/" not in run.stderr:
        return f"stderr does not name the unwritable path:\n{run.stderr}"
    return None


def fleet_csv_unwritable(incast_sim: str, _check_trace: str, workdir: str) -> str | None:
    return exits_io_error(incast_sim, workdir,
                          ["fleet", "--hosts", "1", "--snapshots", "1", "--trace", "20ms",
                           "--jobs", "1", "--export-csv", "missing/x.csv"])


def burst_metrics_unwritable(incast_sim: str, _check_trace: str,
                             workdir: str) -> str | None:
    return exits_io_error(incast_sim, workdir,
                          ["burst", "--flows", "8", "--bursts", "2", "--duration", "1ms",
                           "--metrics-out", "missing/m.json"])


def fabric_defaults_run(incast_sim: str, _check_trace: str, workdir: str) -> str | None:
    run = subprocess.run([incast_sim, "fabric"], cwd=workdir, capture_output=True,
                         text=True, timeout=240)
    if run.returncode != 0:
        return f"expected exit 0, got {run.returncode}; stderr:\n{run.stderr}"
    return None


def fabric_overflow_exits_config(incast_sim: str, _check_trace: str,
                                 workdir: str) -> str | None:
    run = subprocess.run([incast_sim, "fabric", "--flows", "96"], cwd=workdir,
                         capture_output=True, text=True, timeout=60)
    if run.returncode != 2:
        return f"expected exit 2, got {run.returncode}; stderr:\n{run.stderr}"
    if "error [config]" not in run.stderr or "24" not in run.stderr \
            or "96" not in run.stderr:
        return f"stderr does not name the 24 seats and 96 flows:\n{run.stderr}"
    return None


def flight_dumps_unwritable(incast_sim: str, _check_trace: str,
                            workdir: str) -> str | None:
    run = subprocess.run([incast_sim, "burst", "--flows", "100", "--bursts", "3",
                          "--queue", "20", "--flight-recorder", "rto-storm:1",
                          "--flight-recorder-out", "missing/f_"],
                         cwd=workdir, capture_output=True, text=True, timeout=120)
    if run.returncode != 3:
        return f"expected exit 3, got {run.returncode}; stderr:\n{run.stderr}"
    line = next((l for l in run.stdout.splitlines()
                 if l.startswith("flight recorder (rto-storm:1): ")), None)
    if line is None or not line.startswith("flight recorder (rto-storm:1): 0 of ") \
            or not line.endswith(" dump(s) written"):
        return f"summary line does not report 0 dumps written: {line!r}"
    return None


CASES = {
    "domains-rejected": domains_rejected,
    "trace-runs": trace_runs,
    "fleet-csv-unwritable": fleet_csv_unwritable,
    "burst-metrics-unwritable": burst_metrics_unwritable,
    "fabric-defaults-run": fabric_defaults_run,
    "fabric-overflow-exits-config": fabric_overflow_exits_config,
    "flight-dumps-unwritable": flight_dumps_unwritable,
}


def main() -> int:
    if len(sys.argv) != 4 or sys.argv[3] not in CASES:
        print(__doc__, file=sys.stderr)
        return 2
    incast_sim, check_trace, case = sys.argv[1:]
    with tempfile.TemporaryDirectory() as workdir:
        error = CASES[case](incast_sim, check_trace, workdir)
    if error is not None:
        print(f"FAIL {case}: {error}", file=sys.stderr)
        return 1
    print(f"ok {case}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
