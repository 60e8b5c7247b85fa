#!/usr/bin/env python3
"""Pins the ledger counts that are exact by construction.

Runs `ledger run --workload W --seed 1 --trace 1` for the four training
workloads and compares six counts of its contract line (the last line it
prints) with the values below. They follow from the job and the seed
alone, not from thread timing: the column presorted scans, the column and
subtree tasks and plans the master dispatches, the bytes the master sends
(steal acks left out) and the split-plane bytes. A change that moves one of
them changes what the cluster does, not how fast; if that is the point of
the change, re-pin the value in the same commit and say why.

Run from the repository root:

    python3 .github/ledger_counts.py

Building the ledger rewrites `ledger/Cargo.lock`; restore it after a local
run (`git checkout ledger/Cargo.lock`).
"""

import json
import subprocess
import sys

METRICS = [
    "splits.sorted_scans",
    "core.column_tasks",
    "core.subtree_tasks",
    "core.plans",
    "netsim.master_sent_bytes",
    "netsim.split_plane_bytes",
]

PINNED = {
    "coltask_exact": [4_048, 189, 38, 227, 81_104, 63_026],
    "coltask_hist": [1_056, 189, 40, 229, 87_760, 56_106],
    "subtree_forest": [90_656, 0, 40, 40, 4_960, 0],
    "boost_rounds": [11_148, 19, 6, 25, 14_645_160, 144_756],
}

LEDGER = [
    "cargo", "run", "--release", "--offline", "--quiet",
    "--manifest-path", "ledger/Cargo.toml", "--",
]


def counts(workload):
    """The six counts of one traced run, in `METRICS` order."""
    args = ["run", "--workload", workload, "--seed", "1", "--trace", "1"]
    out = subprocess.run(LEDGER + args, check=True, capture_output=True, text=True)
    contract = json.loads(out.stdout.strip().splitlines()[-1])
    if not contract["correct"] or contract["failed"] != 0:
        sys.exit(f"{workload}: the traced run is not correct: {contract}")
    return [contract["metrics"][name]["value"] for name in METRICS]


def main():
    wrong = []
    for workload, pinned in PINNED.items():
        got = counts(workload)
        for name, want, value in zip(METRICS, pinned, got):
            ok = value == want
            print(f"{workload:15} {name:26} {value:>14.0f} {'ok' if ok else f'!= {want}'}")
            if not ok:
                wrong.append(f"{workload} {name}: {value}, pinned {want}")
    if wrong:
        sys.exit("counts moved:\n  " + "\n  ".join(wrong))


if __name__ == "__main__":
    main()
