#!/usr/bin/env python3
"""Self-test of the benchmark itself, on tiny inputs.

Usage (from the repository root):

    python3 perfbench/selftest.py

Runs one sample of each workload on a tiny configuration (the five
simulation-free tables; grids of two copies per application) and checks
that every sample passes and every metric name is well formed. Then runs
the negative cases: a flipped table digest and a perturbed literal
reference must each fail their sample and make failed_frac non-zero.
Exits non-zero when any check fails.
"""

import json
import re
import struct
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
TINY_COPIES = 2


def tiny(name, exe, work, pinned=None):
    if name == "figures_smoke":
        return bench.Workload(name, exe, work, 1, ids=bench.PROBE_IDS, pinned=pinned or bench.PINS["probe_tables_sha256"])
    return bench.Workload(name, exe, work, 7, copies=TINY_COPIES)


class PerturbedReference(bench.Workload):
    """A grid whose literal reference is nudged after setup writes it."""

    def setup_once(self, index):
        wall = super().setup_once(index)
        lines = self.reference.read_text().splitlines()
        for i, line in enumerate(lines):
            cell, name, bits = line.split("\t") if not line.startswith("#") else ("", "", "")
            if name == "running_time_s":
                value = struct.unpack("<d", int(bits, 16).to_bytes(8, "little"))[0] * (1 + 1e-6)
                lines[i] = f"{cell}\t{name}\t{struct.unpack('<Q', struct.pack('<d', value))[0]:016x}"
                break
        self.reference.write_text("\n".join(lines) + "\n")
        return wall


def main():
    failures = []

    def expect(cond, msg):
        print(("ok    " if cond else "FAIL  ") + msg, flush=True)
        if not cond:
            failures.append(msg)

    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(declared_e2e == bench.END_TO_END, "BENCHMARK.json end_to_end matches run.py")
    expect(declared_layers == bench.PER_LAYER, "BENCHMARK.json per_layer matches run.py")
    expect([w["name"] for w in spec["workloads"]] == bench.WORKLOADS, "BENCHMARK.json workloads match run.py")
    for name in [*bench.END_TO_END, *bench.PER_LAYER]:
        expect(NAME.fullmatch(name) is not None, f"metric name {name!r} is well formed")

    exe = bench.build()
    work = bench.work_dir("selftest")
    try:
        for name in bench.WORKLOADS:
            result = bench.run(tiny(name, exe, work / name), 0)
            expect(result["correct"] and result["failed"] == 0, f"{name}: tiny sample passes its checks")
            for trace in (0, 1):
                line = json.loads(bench.result_line(result, trace))
                names = bench.PER_LAYER if trace else bench.END_TO_END
                expect(set(line["metrics"]) == set(names), f"{name}: --trace {trace} prints every declared metric")
            if name in bench.GRIDS:
                layers = result["layers"]
                expect(layers["batch.windows"] == layers["batch.stepped_windows"] + layers["batch.ff_windows"],
                       f"{name}: windows conserved")
                expect(layers["char.misses"] == 0, f"{name}: no level-1 misses against the setup store")

        flipped = bench.PINS["probe_tables_sha256"]
        flipped = ("1" if flipped[0] == "0" else "0") + flipped[1:]
        result = bench.run(tiny("figures_smoke", exe, work / "flipped", pinned=flipped), 0)
        expect(result["failed"] > 0 and result["info"]["failed_frac"] > 0 and not result["correct"],
               "flipped table digest fails the sample and raises failed_frac")

        perturbed = PerturbedReference("ff_grid", exe, work / "perturbed", 7, copies=TINY_COPIES)
        result = bench.run(perturbed, 0)
        expect(result["failed"] > 0 and result["info"]["failed_frac"] > 0 and not result["correct"],
               "perturbed literal reference fails the sample and raises failed_frac")
    finally:
        bench.remove_work(work)

    print(f"{len(failures)} self-test failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
