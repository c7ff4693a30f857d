#!/usr/bin/env python3
"""Drives one full fault-injection sweep and collects failing fault points.

Two suites share this driver:

  crash  crash_injection_test under VMSV_CRASH_FULL=1: every storage
         operation index x every fault kind, seeded extra rounds until each
         scenario covers >= 200 points. Failing points print
             FAULT-POINT-FAILED scenario=... kind=... op=... seed=... :: ...
  vm     vm_fault_test under VMSV_VM_FAULT_FULL=1: every operation index of
         every targeted mapping-syscall class x every errno kind, with the
         scripted workload auto-scaled until each scenario covers >= 200
         points. Failing points print
             VM-FAULT-POINT-FAILED scenario=... target=... kind=... op=...
                 seed=... :: ...

The binary runs once per scenario (one gtest case each). Before any of
them runs, the scenario list here is compared with the cases the binary
lists (--gtest_list_tests), and any difference exits nonzero, so a case
added to the test file cannot silently drop out of the sweep. Failing
lines are collected into --failures-out (default crash_matrix_failures.txt
or vm_fault_matrix_failures.txt) so CI can attach the exact reproduction
seeds as an artifact. Any failing point — or a scenario that
dies outright (an abort IS a bug both matrices hunt) — makes the driver exit
nonzero.

Usage: fault_matrix.py {crash|vm} [--binary PATH] [--failures-out FILE]
                                  [--scenario N]
"""

import argparse
import os
import re
import subprocess
import sys
import time

# Per suite: the gtest binary and case prefix, the env var that selects the
# full sweep, the failure-line regex and its marker, the artifact name, and
# the scenarios (one gtest case each; checked against the binary's own list
# before a sweep).
SUITES = {
    "crash": {
        "binary": "build/crash_injection_test",
        "gtest_suite": "CrashMatrixTest",
        "env": "VMSV_CRASH_FULL",
        "failure_line": re.compile(r"FAULT-POINT-FAILED .*"),
        "marker": "FAULT-POINT-FAILED",
        "failures_out": "crash_matrix_failures.txt",
        "scenarios": [
            "KillNone",
            "KillAsync",
            "KillSync",
            "KillSyncGroupCommit",
            "PowerSyncEveryUpdate",
            "PowerSyncGroupCommit",
            "SpillKillSync",
            "SpillDiskFull",
            "SpillMediaError",
        ],
    },
    "vm": {
        "binary": "build/vm_fault_test",
        "gtest_suite": "VmFaultMatrixTest",
        "env": "VMSV_VM_FAULT_FULL",
        "failure_line": re.compile(r"VM-FAULT-POINT-FAILED .*"),
        "marker": "VM-FAULT-POINT-FAILED",
        "failures_out": "vm_fault_matrix_failures.txt",
        "scenarios": [
            "single_view",
            "multi_view_cost",
            "tight_budget",
            "tiering",
        ],
    },
}


def listed_scenarios(suite, binary):
    """The suite's gtest cases as `binary` lists them, or None on failure."""
    proc = subprocess.run(
        [binary, "--gtest_list_tests",
         f"--gtest_filter={suite['gtest_suite']}.*"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        return None
    # Case lines are indented under the "<suite>." line.
    return [line.split()[0] for line in proc.stdout.splitlines()
            if line.startswith("  ") and line.strip()]


def run_scenario(suite_name, suite, binary, name, env):
    cmd = [binary, f"--gtest_filter={suite['gtest_suite']}.{name}"]
    start = time.monotonic()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    elapsed = time.monotonic() - start
    failures = suite["failure_line"].findall(proc.stdout)
    if proc.returncode != 0 and not failures:
        # The binary died without reporting points (abort, missing test...):
        # surface its tail instead of silently passing.
        tail = "\n".join(proc.stdout.splitlines()[-15:])
        failures = [f"{suite['marker']} scenario={name} :: binary exited "
                    f"{proc.returncode} without a failure report\n{tail}"]
    status = "ok" if proc.returncode == 0 else "FAILED"
    print(f"fault_matrix {suite_name}: {name:24s} {status:6s} "
          f"({elapsed:5.1f}s, {len(failures)} failing points)")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("suite", choices=sorted(SUITES),
                        help="which fault matrix to sweep")
    parser.add_argument("--binary",
                        help="path to the suite's test binary (default: "
                             "build/crash_injection_test or "
                             "build/vm_fault_test)")
    parser.add_argument("--failures-out",
                        help="file collecting failing fault-point lines for "
                             "the CI artifact (default: "
                             "crash_matrix_failures.txt or "
                             "vm_fault_matrix_failures.txt)")
    parser.add_argument("--scenario", action="append",
                        help="run only this scenario (repeatable)")
    args = parser.parse_args()
    suite = SUITES[args.suite]
    binary = args.binary or suite["binary"]
    failures_out = args.failures_out or suite["failures_out"]
    for name in args.scenario or []:
        if name not in suite["scenarios"]:
            parser.error(f"unknown {args.suite} scenario {name!r} (choose "
                         f"from {', '.join(suite['scenarios'])})")

    if not os.path.exists(binary):
        print(f"fault_matrix {args.suite}: binary not found: {binary}",
              file=sys.stderr)
        return 2

    listed = listed_scenarios(suite, binary)
    if listed is None:
        print(f"fault_matrix {args.suite}: {binary} --gtest_list_tests failed",
              file=sys.stderr)
        return 2
    if sorted(listed) != sorted(suite["scenarios"]):
        unswept = sorted(set(listed) - set(suite["scenarios"]))
        unknown = sorted(set(suite["scenarios"]) - set(listed))
        print(f"fault_matrix {args.suite}: scenario list differs from the "
              f"{suite['gtest_suite']} cases in {binary}; in the binary "
              f"only: {unswept or 'none'}; in this script only: "
              f"{unknown or 'none'}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env[suite["env"]] = "1"

    all_failures = []
    for name in args.scenario or suite["scenarios"]:
        all_failures.extend(run_scenario(args.suite, suite, binary, name, env))

    if all_failures:
        with open(failures_out, "w") as f:
            f.write("\n".join(all_failures) + "\n")
        print(f"fault_matrix {args.suite}: {len(all_failures)} failing fault "
              f"points written to {failures_out}", file=sys.stderr)
        return 1
    print(f"fault_matrix {args.suite}: all scenarios passed over the full "
          f"fault surface")
    return 0


if __name__ == "__main__":
    sys.exit(main())
