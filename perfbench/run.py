#!/usr/bin/env python3
"""Repository benchmark: end-to-end and per-layer timings of the reproduction.

Usage (from the repository root):

    python3 perfbench/run.py --workload <figures_smoke|ff_grid|literal_grid>
                             --seed <n> --seconds <s> --trace <0|1>

The script builds the `perfbench` program (perfbench/Cargo.toml, a package of
its own that depends on the repository's crates by path), sets the workload
up, then runs one fresh process per sample, one at a time, until `--seconds`
have passed, plus one traced sample. Every sample checks its own outputs.
The last line of stdout is one JSON object: with `--trace 0` it holds the
end-to-end metrics, with `--trace 1` the per-layer metrics.

Workloads:
  figures_smoke  all 27 experiments at smoke scale (`paper all smoke`); the
                 tables must match a pinned digest. The seed is ignored.
  ff_grid        16 threshold-policy cells at the 10 ms DTM cadence that the
                 fast-forward tiers carry; one default-options sweep per sample.
  literal_grid   12 stateful-policy cells at 10 ms that every window steps.
For the grids the seed and the sample index pick each sample's cell order;
results must not change.

See perfbench/README.md for the metric definitions.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
PINS = json.loads((BENCH_DIR / "pins.json").read_text())

GRIDS = {"ff_grid": "ff", "literal_grid": "literal"}
WORKLOADS = ["figures_smoke", *GRIDS]
# Copies per application in the grids: the batch size of the sweep bench's
# paper-cadence case.
GRID_COPIES = 24
# Setup repetitions per run; setup_s is their median.
SETUP_REPEATS = 5
# Host-speed normalization: every child times a fixed calibration kernel
# right before and right after its unit of work, or around each experiment
# of a figures sample (`calib_ns`, the pair's summed time). Timings are
# reported at the host speed where that pair takes REF_CALIB_NS:
# value x REF_CALIB_NS / calib_ns. On a VM whose speed swings by up to 2x
# within seconds, this removes most of the run-to-run drift.
REF_CALIB_NS = 20e6
# Hard cap on any one child process, seconds: a hung sample is killed and
# counted as failed instead of stalling the run.
CHILD_TIMEOUT_S = 120

EXPERIMENT_IDS = [
    "tab3_1", "tab3_2", "tab3_3", "tab4_3", "tab4_4", "fig4_2", "fig4_3", "fig4_4", "fig4_5_8",
    "fig4_9", "fig4_10", "fig4_11", "fig4_12", "fig4_13", "fig4_14", "fig5_4", "fig5_5", "fig5_6",
    "fig5_7", "fig5_8", "fig5_9", "fig5_10", "fig5_11", "fig5_12", "fig5_13", "fig5_14", "fig5_15",
]
# The simulation-free tables: the figures workload's setup probe.
PROBE_IDS = EXPERIMENT_IDS[:5]

END_TO_END = {
    "setup_s": "s",
    "wall_ms_p50": "ms",
    "wall_ms_tail": "ms",
    "cpu_ms_p50": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{f"figures.{i}_ms": "ms" for i in EXPERIMENT_IDS},
    "figures.ch4_ms": "ms",
    "figures.ch5_ms": "ms",
    "sweep.cells": "count",
    "sweep.cell_ms_p50": "ms",
    "sweep.cell_ms_max": "ms",
    "char.cold_points": "count",
    "char.cold_ms_per_point": "ms",
    "char.hits": "count",
    "char.misses": "count",
    "char.hit_ratio": "ratio",
    "batch.windows": "count",
    "batch.stepped_windows": "count",
    "batch.ff_windows": "count",
    "batch.ff_share": "ratio",
    "batch.literal_ns_per_window": "ns",
    "batch.ff_residual_ms": "ms",
    "batch.max_rel_err": "ratio",
    "trace.overhead_ms": "ms",
}


class SetupError(Exception):
    """The benchmark cannot run here: build or setup failed."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Builds the perfbench program; returns the path of its executable."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(BENCH_DIR / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise SetupError(f"build failed: {e}") from e
    if done.returncode != 0:
        raise SetupError(f"build failed with exit code {done.returncode}")
    return target / "release" / "perfbench"


class Child:
    """The outcome of one child process."""

    def __init__(self, status, wall_s, maxrss_kb, report, stdout_sha256):
        self.status = status
        self.wall_s = wall_s
        self.maxrss_kb = maxrss_kb
        self.report = report
        self.stdout_sha256 = stdout_sha256


def spawn(cmd, work):
    """Runs one child to completion, stdout to a file; returns a Child.

    The child's resource usage comes from wait4, so it covers that process
    alone. A child still running after CHILD_TIMEOUT_S is killed."""
    out_path, err_path, report_path = work / "stdout", work / "stderr", work / "report.json"
    for p in (out_path, report_path):
        if p.exists():
            p.unlink()
    cmd = [str(c) for c in cmd] + ["--report", str(report_path)]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.send_signal, (signal.SIGKILL,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall_s = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    report = None
    if proc.returncode == 0 and report_path.exists():
        try:
            report = json.loads(report_path.read_text())
        except ValueError:
            report = None
    if report is None:
        tail = err_path.read_text(errors="replace")[-2000:]
        log(f"child {' '.join(cmd[:2])} exited with {proc.returncode}: {tail}")
    sha = hashlib.sha256(out_path.read_bytes()).hexdigest()
    return Child(proc.returncode, wall_s, usage.ru_maxrss, report, sha)


def child_errors(child, expect_sha256=None):
    """Reasons a sample failed its checks (empty when it passed)."""
    if child.report is None:
        return [f"process exited with {child.status} or wrote no report"]
    errors = list(child.report.get("errors", []))
    if not child.report.get("ok", False) and not errors:
        errors.append("report not ok")
    if expect_sha256 is not None and child.stdout_sha256 != expect_sha256:
        errors.append(f"stdout digest {child.stdout_sha256} != pinned {expect_sha256}")
    return errors


class Workload:
    """Commands and checks of one workload, given a built program."""

    def __init__(self, name, exe, work, seed, copies=GRID_COPIES, ids=None, pinned=None):
        self.name = name
        self.exe = exe
        self.work = work
        self.seed = seed
        self.copies = copies
        self.ids = ids or EXPERIMENT_IDS
        self.pinned = pinned or PINS["figures_smoke_sha256"]
        self.store = work / "store"
        self.reference = work / "reference.tsv"
        work.mkdir(parents=True, exist_ok=True)

    @property
    def grid(self):
        return GRIDS.get(self.name)

    def setup_once(self, index):
        """One setup repetition; returns its wall seconds (process wall
        minus the child's calibration runs), raw and normalized."""
        if self.grid is None:
            child = spawn([self.exe, "figures", "--ids", ",".join(PROBE_IDS)], self.work)
            errors = child_errors(child, PINS["probe_tables_sha256"])
        else:
            store = self.work / f"store-{index}"
            child = spawn(
                [self.exe, "grid-setup", "--grid", self.grid, "--copies", self.copies, "--store", store,
                 "--reference", self.reference],
                self.work,
            )
            errors = child_errors(child)
            if self.store.exists():
                shutil.rmtree(self.store)
            store.rename(self.store)
        if errors:
            raise SetupError(f"{self.name} setup failed: {'; '.join(errors)}")
        raw = child.wall_s - child.report["calib_total_ns"] / 1e9
        return raw, raw * speed(child.report)

    def sample(self, index, traced=False):
        """One sample; returns (Child, errors)."""
        if self.grid is None:
            cmd = [self.exe, "figures", "--ids", ",".join(self.ids), "--sample", index]
            if traced:
                cmd.append("--trace")
            child = spawn(cmd, self.work)
            return child, child_errors(child, self.pinned)
        cmd = [self.exe, "grid-sample", "--grid", self.grid, "--copies", self.copies, "--seed", self.seed,
               "--store", self.store, "--reference", self.reference, "--sample", index]
        if traced:
            fill = self.work / "fill"
            if fill.exists():
                shutil.rmtree(fill)
            cmd += ["--trace", fill]
        child = spawn(cmd, self.work)
        return child, child_errors(child)


def speed(report):
    """Factor that rescales a child's timings to the reference host speed."""
    return REF_CALIB_NS / report["calib_ns"]


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def tail(xs):
    """The highest percentile with at least ten samples beyond it, but never
    below the 75th: with fewer than 40 samples that percentile lies at or
    below p75, and p75 (nearest rank) is reported. Returns (value,
    percentile)."""
    xs = sorted(xs)
    n = len(xs)
    i = max(n - 11, math.ceil(0.75 * n) - 1)
    return xs[i], 100.0 * (i + 1) / n


def run(workload, seconds):
    """Sets up, measures and traces one workload; returns the result dict."""
    setups = [workload.setup_once(i) for i in range(SETUP_REPEATS)]

    samples, failures = [], []
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        child, errors = workload.sample(len(samples))
        samples.append(child)
        if errors:
            failures.append(errors)
            log(f"sample {len(samples) - 1} failed: {'; '.join(errors)[:2000]}")

    traced, traced_errors = workload.sample(len(samples), traced=True)
    cross_errors = []
    good = [c.report for c in samples if c.report is not None]
    if traced_errors:
        cross_errors.append(f"traced sample failed: {'; '.join(traced_errors)[:2000]}")
    if workload.grid is not None:
        digests = {r["digest"] for r in good} | ({traced.report["digest"]} if traced.report else set())
        if len(digests) > 1:
            cross_errors.append(f"results differ across samples: digests {sorted(digests)}")
        counts = {(r["windows"], r["stepped_windows"], r["ff_windows"], r["char_misses"], r["cells"]) for r in good}
        if len(counts) > 1:
            cross_errors.append(f"counts differ across samples: {sorted(counts)}")
    for e in cross_errors:
        log(e)

    walls = [r["work_ns"] / 1e6 * speed(r) for r in good] or [0.0]
    wall_tail, tail_pct = tail(walls)
    e2e = {
        "setup_s": median([norm for _, norm in setups]),
        "wall_ms_p50": median(walls),
        "wall_ms_tail": wall_tail,
        "cpu_ms_p50": median([r["cpu_ns"] / 1e6 * speed(r) for r in good] or [0.0]),
        "peak_rss_mb": median([c.maxrss_kb for c in samples]) / 1024.0,
    }
    layers = per_layer(workload, traced.report or {}, median(walls))
    failed = len(failures)
    return {
        "correct": failed == 0 and not cross_errors,
        "attempted": len(samples),
        "failed": failed,
        "e2e": e2e,
        "layers": layers,
        "info": {
            "workload": workload.name,
            "seed": workload.seed,
            "samples": len(samples),
            "wall_ms_tail_percentile": tail_pct,
            "setup_runs": len(setups),
            "raw_setup_s": median([raw for raw, _ in setups]),
            "raw_wall_ms_p50": median([r["work_ns"] / 1e6 for r in good] or [0.0]),
            "raw_cpu_ms_p50": median([r["cpu_ns"] / 1e6 for r in good] or [0.0]),
            "calib_ms_p50": median([r["calib_ns"] / 2e6 for r in good] or [0.0]),
            "nproc": os.cpu_count(),
            "threads": (good[0]["threads"] if good else None),
            "commit": commit(),
            "failed_frac": failed / len(samples),
        },
    }


def per_layer(workload, traced, untraced_wall_ms):
    """Per-layer metrics from the traced sample, timings at the reference
    host speed; 0 for a layer the workload does not call."""
    m = {name: 0.0 for name in PER_LAYER}
    factor = speed(traced) if "calib_ns" in traced else 1.0
    span_ms = {s["name"]: (s["end_ns"] - s["start_ns"]) / 1e6 * factor for s in traced.get("spans", [])}
    if workload.grid is None:
        for i in EXPERIMENT_IDS:
            m[f"figures.{i}_ms"] = span_ms.get(f"figures/{i}", 0.0)
        m["figures.ch4_ms"] = sum(m[f"figures.{i}_ms"] for i in EXPERIMENT_IDS if i[3] == "4")
        m["figures.ch5_ms"] = sum(m[f"figures.{i}_ms"] for i in EXPERIMENT_IDS if i[3] == "5")
        traced_work_ms = sum(m[f"figures.{i}_ms"] for i in EXPERIMENT_IDS)
    else:
        run_ms = span_ms.get("sweep/run", 0.0)
        cells = [ms * factor for ms in traced.get("cell_ms", [])]
        m["sweep.cells"] = traced.get("cells", 0)
        m["sweep.cell_ms_p50"] = median(cells) if cells else 0.0
        m["sweep.cell_ms_max"] = max(cells, default=0.0)
        cold = traced.get("cold_points", 0)
        m["char.cold_points"] = cold
        if cold:
            m["char.cold_ms_per_point"] = (span_ms.get("char/fill", 0.0) - run_ms) / cold
        hits, misses = traced.get("char_hits", 0), traced.get("char_misses", 0)
        m["char.hits"], m["char.misses"] = hits, misses
        m["char.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        windows, stepped = traced.get("windows", 0), traced.get("stepped_windows", 0)
        m["batch.windows"], m["batch.stepped_windows"] = windows, stepped
        m["batch.ff_windows"] = traced.get("ff_windows", 0)
        m["batch.ff_share"] = m["batch.ff_windows"] / windows if windows else 0.0
        literal_windows = traced.get("literal_windows", 0)
        if literal_windows:
            ns_per_window = span_ms.get("sweep/literal_ref", 0.0) * 1e6 / literal_windows
            m["batch.literal_ns_per_window"] = ns_per_window
            m["batch.ff_residual_ms"] = run_ms - stepped * ns_per_window / 1e6
        m["batch.max_rel_err"] = traced.get("max_rel_err") or 0.0
        traced_work_ms = span_ms.get("char/open", 0.0) + run_ms
    m["trace.overhead_ms"] = traced_work_ms - untraced_wall_ms
    return m


def commit():
    """The commit under test, or a digest of the sources outside git."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "perfbench"):
        base = ROOT / top
        files = [base] if base.is_file() else sorted(base.rglob("*"))
        for p in files:
            if not p.is_file() or p.suffix not in (".rs", ".toml", ".lock", ".py", ".json"):
                continue
            if "target" in p.relative_to(ROOT).parts:
                continue
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "sources-sha256:" + h.hexdigest()


def result_line(result, trace):
    names = PER_LAYER if trace else END_TO_END
    values = result["layers"] if trace else result["e2e"]
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": values[k], "unit": names[k]} for k in names},
    })


def work_dir(name):
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    return work


def remove_work(work):
    shutil.rmtree(work, ignore_errors=True)
    try:
        work.parent.rmdir()
    except OSError:
        pass  # another run still uses it


def terminate(signum, _frame):
    """Turns SIGTERM into an exit that stops the running child first."""
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, terminate)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    work = work_dir(args.workload)
    try:
        exe = build()
        result = run(Workload(args.workload, exe, work, args.seed), args.seconds)
    except SetupError as e:
        log(str(e))
        return 1
    finally:
        remove_work(work)
    print(json.dumps(result["info"]))
    print(result_line(result, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
