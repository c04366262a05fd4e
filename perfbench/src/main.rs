//! One sample of the repository benchmark: a fresh process doing one unit
//! of user work through the public API, timed from the calling side.
//!
//! `perfbench/run.py` spawns this program once per sample, so no state
//! survives from one sample to the next. Subcommands:
//!
//! ```text
//! perfbench figures [--ids a,b,...] [--trace] [--sample <n>] --report <file>
//! perfbench grid-setup  --grid ff|literal --copies <n> --store <dir> --reference <file> --report <file>
//! perfbench grid-sample --grid ff|literal --copies <n> --seed <n> --store <dir> --reference <file>
//!                       [--trace <fill-dir>] [--sample <n>] --report <file>
//! ```
//!
//! `figures` prints the experiment tables to stdout exactly as
//! `paper all smoke` does; the caller checks them against a pinned digest.
//! `grid-setup` fills a disk-backed level-1 store and writes the literal
//! reference of a grid. `grid-sample` runs one default-options sweep of the
//! grid, in an order drawn from the seed and the sample index, against that
//! store and checks it against the reference. Every subcommand writes a
//! small JSON report with its timings, the host-speed calibration around
//! them, counts, check results and (when traced) the spans recorded around
//! each layer call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use experiments::ch4::{MatrixRun, PolicySpec};
use experiments::harness::Scale;
use experiments::sweep::{SweepOutcome, SweepRunner, SweepScenario};
use experiments::{all_experiment_ids, run_experiment};
use memtherm::prelude::*;

/// Relative agreement every reported scalar of a fast-forwarded cell must
/// keep with literal stepping: the analytic tiers' stated contract.
const REL_TOL: f64 = 1e-9;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        fail("usage: perfbench <figures|grid-setup|grid-sample> [options]");
    };
    let opts = Options::parse(&args[1..]);
    let report = match command.as_str() {
        "figures" => figures(&opts),
        "grid-setup" => grid_setup(&opts),
        "grid-sample" => grid_sample(&opts),
        other => fail(&format!("unknown subcommand {other}")),
    };
    let path = opts.path("--report");
    if let Err(e) = std::fs::write(&path, report.render()) {
        fail(&format!("cannot write report {}: {e}", path.display()));
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}

/// `--flag value` pairs plus bare `--flag` switches.
struct Options(BTreeMap<String, String>);

impl Options {
    fn parse(args: &[String]) -> Self {
        let mut map = BTreeMap::new();
        let mut i = 0;
        while i < args.len() {
            let key = &args[i];
            if !key.starts_with("--") {
                fail(&format!("unexpected argument {key}"));
            }
            match args.get(i + 1).filter(|v| !v.starts_with("--")) {
                Some(value) => {
                    map.insert(key.clone(), value.clone());
                    i += 2;
                }
                None => {
                    map.insert(key.clone(), String::new());
                    i += 1;
                }
            }
        }
        Options(map)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    fn required(&self, key: &str) -> &str {
        self.get(key).filter(|v| !v.is_empty()).unwrap_or_else(|| fail(&format!("missing {key} <value>")))
    }

    fn path(&self, key: &str) -> PathBuf {
        PathBuf::from(self.required(key))
    }

    fn number(&self, key: &str, default: u64) -> u64 {
        self.get(key).map_or(default, |v| v.parse().unwrap_or_else(|_| fail(&format!("{key} takes a number"))))
    }
}

// ---------------------------------------------------------------------------
// Timing and tracing
// ---------------------------------------------------------------------------

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: user plus system time of every thread
/// of this process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by this process so far, in nanoseconds.
fn process_cpu_ns() -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, exclusively borrowed `struct timespec` (two
    // 64-bit fields on the 64-bit Linux targets this benchmark runs on) and
    // the clock id is a constant the kernel defines for every process.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// A fixed amount of floating-point and cache-resident array work that does
/// not depend on the repository's code: an RC-style relaxation over two
/// 64 KiB arrays with a data-dependent branch.
fn calibration_kernel() -> f64 {
    const N: usize = 8192;
    const ROUNDS: usize = 400;
    let mut t: Vec<f64> = (0..N).map(|i| 40.0 + (i % 97) as f64 * 0.1).collect();
    let p: Vec<f64> = (0..N).map(|i| 1.0 + (i % 13) as f64 * 0.05).collect();
    let mut acc = 0.0;
    for r in 0..ROUNDS {
        let alpha = (-0.01 * (1.0 + (r % 7) as f64 * 0.1)).exp();
        for i in 0..N {
            t[i] = alpha * t[i] + (1.0 - alpha) * (45.0 + 10.0 * p[i]);
            if t[i] > 50.0 + (i % 5) as f64 {
                acc += t[i].sqrt();
            } else {
                acc -= 1e-3 * t[i];
            }
        }
    }
    acc
}

/// The host's current speed: wall nanoseconds of the calibration kernel on
/// the calling thread. (Helper threads would leave CPU time that the kernel
/// folds into the process total only after they are joined.)
fn calibrate_ns() -> u64 {
    let t0 = Instant::now();
    std::hint::black_box(calibration_kernel());
    t0.elapsed().as_nanos() as u64
}

/// Runs `work` between two host-speed calibrations and records its wall
/// time, its process CPU time and the calibrations' wall time (`calib_ns`,
/// the pair; `calib_total_ns`, all calibration runs of the process).
fn measured<R>(report: &mut Report, work: impl FnOnce() -> R) -> R {
    let before = calibrate_ns();
    let (cpu0, t0) = (process_cpu_ns(), Instant::now());
    let out = work();
    let (work_ns, cpu_ns) = (t0.elapsed().as_nanos() as u64, process_cpu_ns() - cpu0);
    let after = calibrate_ns();
    report.num("work_ns", work_ns);
    report.num("cpu_ns", cpu_ns);
    report.num("calib_ns", before + after);
    report.num("calib_total_ns", before + after);
    out
}

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Spans around each call the benchmark makes into a layer, kept in memory
/// and written with the report. A disabled tracer records nothing.
struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn enter(&mut self, name: &str) {
        if self.enabled {
            let start_ns = self.origin.elapsed().as_nanos() as u64;
            let parent = self.open.last().copied();
            self.spans.push(Span { name: name.to_string(), start_ns, end_ns: start_ns, parent });
            self.open.push(self.spans.len() - 1);
        }
    }

    fn exit(&mut self) {
        if self.enabled {
            let id = self.open.pop().expect("exit matches an enter");
            self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }
}

/// A flat JSON object built by hand (the workspace has no serde).
#[derive(Default)]
struct Report {
    fields: Vec<(String, String)>,
}

impl Report {
    fn num(&mut self, key: &str, value: impl std::fmt::Display) {
        self.fields.push((key.to_string(), value.to_string()));
    }

    fn float(&mut self, key: &str, value: f64) {
        let rendered = if value.is_finite() { format!("{value:?}") } else { "null".to_string() };
        self.fields.push((key.to_string(), rendered));
    }

    fn str(&mut self, key: &str, value: &str) {
        self.fields.push((key.to_string(), json_string(value)));
    }

    fn raw(&mut self, key: &str, json: String) {
        self.fields.push((key.to_string(), json));
    }

    fn checks(&mut self, errors: &[String]) {
        self.raw("ok", (errors.is_empty()).to_string());
        self.raw("errors", format!("[{}]", errors.iter().map(|e| json_string(e)).collect::<Vec<_>>().join(",")));
    }

    fn spans(&mut self, tracer: &Tracer, sample: u64) {
        let spans: Vec<String> = tracer
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"sample\":{sample}}}",
                    json_string(&s.name),
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string())
                )
            })
            .collect();
        self.raw("spans", format!("[{}]", spans.join(",")));
    }

    fn render(&self) -> String {
        let body: Vec<String> = self.fields.iter().map(|(k, v)| format!("{}:{v}", json_string(k))).collect();
        format!("{{{}}}\n", body.join(","))
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

// ---------------------------------------------------------------------------
// figures_smoke
// ---------------------------------------------------------------------------

/// `paper all smoke`: every experiment at smoke scale, in paper order, each
/// table printed to stdout as the `paper` binary prints it.
fn figures(opts: &Options) -> Report {
    let ids: Vec<String> = match opts.get("--ids") {
        Some(list) if !list.is_empty() => list.split(',').map(String::from).collect(),
        _ => all_experiment_ids().into_iter().map(String::from).collect(),
    };
    let mut tracer = Tracer::new(opts.get("--trace").is_some());
    let mut errors = Vec::new();
    // A sample takes seconds, over which the host's speed drifts, so every
    // experiment is timed between its own pair of calibrations. `calib_ns`
    // is the effective pair time: the one that rescales the summed work time
    // exactly as the per-experiment pairs rescale their experiments.
    let (mut work_ns, mut cpu_ns, mut work_per_calib) = (0u64, 0u64, 0.0f64);
    let mut before = calibrate_ns();
    let mut calib_total_ns = before;
    tracer.enter("sample/figures_smoke");
    for id in &ids {
        tracer.enter(&format!("figures/{id}"));
        let (cpu0, t0) = (process_cpu_ns(), Instant::now());
        match run_experiment(id, Scale::Smoke) {
            Ok(table) => println!("{table}"),
            Err(e) => errors.push(e),
        }
        let ns = t0.elapsed().as_nanos() as u64;
        cpu_ns += process_cpu_ns() - cpu0;
        tracer.exit();
        let after = calibrate_ns();
        calib_total_ns += after;
        work_ns += ns;
        work_per_calib += ns as f64 / (before + after) as f64;
        before = after;
    }
    tracer.exit();

    let mut report = Report::default();
    report.num("work_ns", work_ns);
    report.num("cpu_ns", cpu_ns);
    report.float("calib_ns", work_ns as f64 / work_per_calib);
    report.num("calib_total_ns", calib_total_ns);
    report.num("threads", threads());
    report.checks(&errors);
    report.spans(&tracer, opts.number("--sample", 0));
    report
}

// ---------------------------------------------------------------------------
// Grids
// ---------------------------------------------------------------------------

/// The grid cells, canonical order, one single-policy scenario per cell so
/// that any permutation of the list is a valid cell order.
fn grid_cells(grid: &str) -> Vec<SweepScenario> {
    use memtherm::prelude::mixes::{w2, w4, w5, w6, w7, w8};
    let (aohs, fdhs) = (CoolingConfig::aohs_1_5, CoolingConfig::fdhs_1_0);
    let nl = PolicySpec::NoLimit;
    let (bw, acg, cdvfs) =
        (PolicySpec::Bw { pid: false }, PolicySpec::Acg { pid: false }, PolicySpec::Cdvfs { pid: false });
    let scenarios: Vec<SweepScenario> = match grid {
        // The paper-cadence grid of `crates/bench/benches/sweep.rs`:
        // threshold policies the analytic tiers certify.
        "ff" => vec![
            SweepScenario::isolated(aohs(), w2(), vec![nl, acg, cdvfs]),
            SweepScenario::isolated(aohs(), w4(), vec![cdvfs]),
            SweepScenario::isolated(aohs(), w5(), vec![nl, acg]),
            SweepScenario::isolated(aohs(), w7(), vec![acg]),
            SweepScenario::isolated(fdhs(), w2(), vec![nl, acg, cdvfs]),
            SweepScenario::isolated(fdhs(), w5(), vec![acg, bw]),
            SweepScenario::isolated(fdhs(), w6(), vec![nl, acg]),
            SweepScenario::isolated(fdhs(), w7(), vec![acg]),
            SweepScenario::isolated(fdhs(), w8(), vec![bw]),
        ],
        // Stateful policies no tier can certify: every window is stepped.
        "literal" => [aohs(), fdhs()]
            .into_iter()
            .flat_map(|cooling| {
                [
                    SweepScenario::isolated(
                        cooling,
                        w2(),
                        vec![
                            PolicySpec::Ts,
                            PolicySpec::Bw { pid: true },
                            PolicySpec::Acg { pid: true },
                            PolicySpec::Cdvfs { pid: true },
                        ],
                    ),
                    SweepScenario::isolated(cooling, w5(), vec![PolicySpec::Cbw { pid: false }, PolicySpec::Mig]),
                ]
            })
            .collect(),
        other => fail(&format!("unknown grid {other} (expected ff or literal)")),
    };
    scenarios
        .into_iter()
        .flat_map(|s| s.specs.clone().into_iter().map(move |spec| SweepScenario { specs: vec![spec], ..s.clone() }))
        .map(|s| s.with_cadence(0.010))
        .collect()
}

/// A cell order: a Fisher–Yates shuffle driven by SplitMix64.
fn shuffled(mut cells: Vec<SweepScenario>, seed: u64) -> Vec<SweepScenario> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..cells.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        cells.swap(i, j);
    }
    cells
}

fn config_for(copies: u64) -> impl Fn(CoolingConfig) -> MemSpotConfig + Sync {
    move |cooling| MemSpotConfig {
        copies_per_app: copies as usize,
        instruction_scale: 1.0,
        characterization_budget: 15_000,
        ..MemSpotConfig::paper(cooling)
    }
}

fn cell_key(run: &MatrixRun) -> String {
    format!("{}/{}/{}", run.cooling, run.workload, run.policy)
}

/// Every scalar a cell reports, by name.
fn scalars(r: &MemSpotResult) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = vec![
        ("completed".into(), f64::from(u8::from(r.completed))),
        ("running_time_s".into(), r.running_time_s),
        ("total_instructions".into(), r.total_instructions),
        ("total_memory_bytes".into(), r.total_memory_bytes),
        ("total_l2_misses".into(), r.total_l2_misses),
        ("memory_energy_j".into(), r.memory_energy_j),
        ("cpu_energy_j".into(), r.cpu_energy_j),
        ("avg_memory_power_w".into(), r.avg_memory_power_w),
        ("avg_cpu_power_w".into(), r.avg_cpu_power_w),
        ("avg_ambient_c".into(), r.avg_ambient_c),
        ("max_amb_c".into(), r.max_amb_c),
        ("max_dram_c".into(), r.max_dram_c),
        ("migrated_traffic_bytes".into(), r.migrated_traffic_bytes),
    ];
    for p in &r.position_peaks {
        let at = format!("peak.{}.{}", p.channel, p.dimm);
        out.push((format!("{at}.amb_c"), p.max_amb_c));
        out.push((format!("{at}.dram_c"), p.max_dram_c));
        for (layer, t) in p.layers_c.iter().enumerate() {
            out.push((format!("{at}.layer{layer}_c"), *t));
        }
    }
    for (mode, share) in &r.mode_residency {
        out.push((format!("residency.{mode}"), *share));
    }
    for (channel, share) in r.channel_throttle_residency.iter().enumerate() {
        out.push((format!("channel_throttle.{channel}"), *share));
    }
    out
}

/// FNV-1a over the `Debug` rendering of every cell in canonical key order.
/// `Debug` prints `f64` in shortest round-trip form, so equal digests mean
/// bit-identical results.
fn digest(runs: &[MatrixRun]) -> u64 {
    let mut sorted: Vec<&MatrixRun> = runs.iter().collect();
    sorted.sort_by_key(|r| cell_key(r));
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for run in sorted {
        for byte in format!("{}\u{1f}{:?}\n", cell_key(run), run.result).bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn windows(outcome: &SweepOutcome) -> u64 {
    outcome.stepped_windows + outcome.fast_forwarded_windows
}

/// The literal reference of a grid, as written by `grid-setup`.
struct Reference {
    /// Simulated windows of the grid (all stepped under literal options).
    windows: u64,
    /// Digest of the default-options results (canonical order, one thread).
    digest: u64,
    /// Cell key → scalar name → literal value.
    cells: BTreeMap<String, BTreeMap<String, f64>>,
}

impl Reference {
    fn from_literal(literal: &SweepOutcome, digest: u64) -> Self {
        let cells =
            literal.runs.iter().map(|run| (cell_key(run), scalars(&run.result).into_iter().collect())).collect();
        Reference { windows: windows(literal), digest, cells }
    }

    /// Every scalar as exact bits, for bit-identity comparisons that also
    /// hold for `NaN`.
    fn bits(&self) -> Vec<(&str, &str, u64)> {
        let mut out = Vec::new();
        for (cell, values) in &self.cells {
            out.extend(values.iter().map(|(name, v)| (cell.as_str(), name.as_str(), v.to_bits())));
        }
        out
    }

    /// Text form: `#windows`, `#digest`, then one `cell<TAB>name<TAB>bits`
    /// line per scalar, with the value's exact `f64` bits in hex.
    fn write(&self, path: &Path) {
        let mut text = format!("#windows\t{}\n#digest\t{:016x}\n", self.windows, self.digest);
        for (cell, values) in &self.cells {
            for (name, value) in values {
                let _ = writeln!(text, "{cell}\t{name}\t{:016x}", value.to_bits());
            }
        }
        if let Err(e) = std::fs::write(path, text) {
            fail(&format!("cannot write reference {}: {e}", path.display()));
        }
    }

    fn read(path: &Path) -> Self {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read reference {}: {e}", path.display())));
        let mut reference = Reference { windows: 0, digest: 0, cells: BTreeMap::new() };
        for line in text.lines() {
            let fields: Vec<&str> = line.split('\t').collect();
            let hex =
                |s: &str| u64::from_str_radix(s, 16).unwrap_or_else(|_| fail(&format!("bad reference line {line}")));
            match fields.as_slice() {
                ["#windows", n] => reference.windows = n.parse().unwrap_or_else(|_| fail("bad #windows line")),
                ["#digest", d] => reference.digest = hex(d),
                [cell, name, bits] => {
                    reference
                        .cells
                        .entry(cell.to_string())
                        .or_default()
                        .insert(name.to_string(), f64::from_bits(hex(bits)));
                }
                _ => fail(&format!("bad reference line {line}")),
            }
        }
        reference
    }

    /// Checks a default-options outcome against the literal reference and
    /// returns the largest relative error seen. Every failed check is
    /// appended to `errors`.
    fn check(&self, outcome: &SweepOutcome, errors: &mut Vec<String>) -> f64 {
        let mut max_rel_err = 0.0f64;
        if windows(outcome) != self.windows {
            errors.push(format!(
                "windows not conserved: {} stepped + {} fast-forwarded != {} literal",
                outcome.stepped_windows, outcome.fast_forwarded_windows, self.windows
            ));
        }
        if outcome.runs.len() != self.cells.len() {
            errors.push(format!("{} cells, reference has {}", outcome.runs.len(), self.cells.len()));
        }
        for run in &outcome.runs {
            let key = cell_key(run);
            let Some(expected) = self.cells.get(&key) else {
                errors.push(format!("cell {key} is not in the reference"));
                continue;
            };
            let got: BTreeMap<String, f64> = scalars(&run.result).into_iter().collect();
            for name in expected.keys().chain(got.keys().filter(|k| !expected.contains_key(*k))) {
                let (Some(&a), Some(&b)) = (got.get(name), expected.get(name)) else {
                    errors.push(format!("{key}: scalar {name} reported on one side only"));
                    continue;
                };
                let err = rel_err(a, b);
                max_rel_err = max_rel_err.max(err);
                if err > REL_TOL {
                    errors.push(format!("{key}: {name} = {a:e}, literal {b:e} (relative error {err:e})"));
                }
            }
        }
        max_rel_err
    }
}

fn rel_err(a: f64, b: f64) -> f64 {
    if a == b || (a.is_nan() && b.is_nan()) {
        0.0
    } else {
        (a - b).abs() / b.abs().max(1e-12)
    }
}

fn open_store(dir: &Path) -> Arc<CharStore> {
    let store = CharStore::with_disk_cache(dir.join("level1.jsonl"))
        .unwrap_or_else(|e| fail(&format!("cannot open level-1 store in {}: {e}", dir.display())));
    Arc::new(store)
}

/// Fills a fresh disk-backed level-1 store with one cold default-options
/// sweep and writes the grid's literal reference.
fn grid_setup(opts: &Options) -> Report {
    let grid = opts.required("--grid");
    let make = config_for(opts.number("--copies", 24));
    let cells = grid_cells(grid);
    let store_dir = opts.path("--store");
    if let Err(e) = std::fs::create_dir_all(&store_dir) {
        fail(&format!("cannot create {}: {e}", store_dir.display()));
    }
    let mut report = Report::default();
    let (fill, literal) = measured(&mut report, || {
        let store = open_store(&store_dir);
        // One thread in canonical order: the sweeps of every sample (all
        // cores, shuffled order, warm store) must reproduce this outcome bit
        // for bit.
        let fill = SweepRunner::with_threads(1).with_char_store(Arc::clone(&store)).run(&cells, &make);
        let literal =
            SweepRunner::new().with_char_store(store).with_batch_options(BatchOptions::literal()).run(&cells, &make);
        (fill, literal)
    });
    let reference = Reference::from_literal(&literal, digest(&fill.runs));
    let mut errors = Vec::new();
    reference.check(&fill, &mut errors);
    reference.write(&opts.path("--reference"));

    report.checks(&errors);
    report
}

/// One default-options sweep of the grid, in the seed's cell order, against
/// the store `grid-setup` filled. Traced, the sample first repeats the
/// setup's layer calls (cold fill into `--trace <dir>`, literal reference)
/// so their costs are measured in the same process.
fn grid_sample(opts: &Options) -> Report {
    let grid = opts.required("--grid");
    let make = config_for(opts.number("--copies", 24));
    // Every sample of a run gets its own cell order, so a run's median
    // spans many orders instead of resting on one seed's load balance.
    let sample = opts.number("--sample", 0);
    let cells = shuffled(grid_cells(grid), opts.number("--seed", 0).wrapping_mul(1_000_003).wrapping_add(sample));
    let reference = Reference::read(&opts.path("--reference"));
    let fill_dir = opts.get("--trace").filter(|d| !d.is_empty()).map(PathBuf::from);
    let mut tracer = Tracer::new(fill_dir.is_some());
    let mut errors = Vec::new();
    let mut report = Report::default();

    tracer.enter(&format!("sample/{grid}_grid"));
    if let Some(dir) = &fill_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            fail(&format!("cannot create {}: {e}", dir.display()));
        }
        let fill_store = open_store(dir);
        tracer.enter("char/fill");
        let fill = SweepRunner::new().with_char_store(Arc::clone(&fill_store)).run(&cells, &make);
        tracer.exit();
        tracer.enter("sweep/literal_ref");
        let literal = SweepRunner::new()
            .with_char_store(fill_store)
            .with_batch_options(BatchOptions::literal())
            .run(&cells, &make);
        tracer.exit();
        if Reference::from_literal(&literal, reference.digest).bits() != reference.bits() {
            errors.push("traced literal pass differs from the setup's literal reference".to_string());
        }
        if digest(&fill.runs) != reference.digest {
            errors.push("traced cold-store sweep differs from the setup's sweep".to_string());
        }
        report.num("cold_points", fill.char_store_misses);
        report.num("literal_windows", windows(&literal));
    }

    let outcome = measured(&mut report, || {
        tracer.enter("char/open");
        let store = open_store(&opts.path("--store"));
        tracer.exit();
        tracer.enter("sweep/run");
        let outcome = SweepRunner::new().with_char_store(store).run(&cells, &make);
        tracer.exit();
        outcome
    });
    tracer.exit();

    let max_rel_err = reference.check(&outcome, &mut errors);
    let run_digest = digest(&outcome.runs);
    if run_digest != reference.digest {
        errors.push(format!(
            "results are not bit-identical to the setup's one-thread canonical-order sweep \
             (digest {run_digest:016x}, expected {:016x})",
            reference.digest
        ));
    }

    report.num("threads", outcome.threads);
    report.num("cells", outcome.runs.len());
    report.num("windows", windows(&outcome));
    report.num("stepped_windows", outcome.stepped_windows);
    report.num("ff_windows", outcome.fast_forwarded_windows);
    report.num("char_hits", outcome.char_store_hits);
    report.num("char_misses", outcome.char_store_misses);
    report.raw(
        "cell_ms",
        format!(
            "[{}]",
            outcome.cell_wall_clock_s.iter().map(|s| format!("{:?}", s * 1e3)).collect::<Vec<_>>().join(",")
        ),
    );
    report.float("max_rel_err", max_rel_err);
    report.str("digest", &format!("{run_digest:016x}"));
    report.checks(&errors);
    report.spans(&tracer, sample);
    report
}
