//! The Chapter 5 figure drivers run their level-2 runs as cells of one
//! batched sweep dispatch per figure. This suite pins that path to the
//! per-run `PlatformExperiment` driver, which steps each run on the per-cell
//! engine: every result must carry identical bits.
//!
//! One dispatch holds cells of both servers (so chunks mix hardware), the
//! no-limit baseline and all four software policies, a Figure 5.13
//! fixed-frequency variant, and a trace-recording homogeneous cell of
//! Figures 5.4/5.5 whose temperature trace is compared too. It runs on one
//! worker and on every available core.
//!
//! The runs take seconds in debug builds, so the suite is ignored there:
//!
//! ```text
//! cargo test --release --test ch5_dispatch
//! ```

use experiments::ch5::{dispatch, Ch5Policy, Ch5Run};
use experiments::harness::Scale;
use experiments::sweep::SweepRunner;
use memtherm::sim::memspot::{MemSpotResult, TempSample};
use platform_emu::{PlatformExperiment, PlatformPolicy, PolicyKind, Server};
use workloads::{mixes, spec2000};

const SCALE: Scale = Scale::Smoke;

/// What the per-run driver reports for one run: the full result, or only
/// the trace for a homogeneous curve.
#[derive(Debug, PartialEq)]
enum Reference {
    Result(Box<MemSpotResult>),
    Trace(Vec<TempSample>),
}

fn runs() -> Vec<Ch5Run> {
    let policies = [Ch5Policy::NoLimit].into_iter().chain(PolicyKind::ALL.map(Ch5Policy::platform));
    let mut runs: Vec<Ch5Run> = [Server::pe1950(), Server::sr1500al()]
        .iter()
        .flat_map(|server| policies.clone().map(move |policy| Ch5Run::new(SCALE, server, &mixes::w1(), policy)))
        .collect();
    let pinned = Ch5Policy::Platform { kind: PolicyKind::Acg, fixed_frequency_index: Some(3) };
    runs.push(Ch5Run::new(SCALE, &Server::sr1500al(), &mixes::w8(), pinned));
    runs.push(Ch5Run::homogeneous_curve(SCALE, &Server::sr1500al(), &spec2000::swim()));
    runs
}

fn reference(run: &Ch5Run) -> Reference {
    let mut exp = PlatformExperiment::with_scale(
        run.server.clone(),
        SCALE.platform_runs_per_app(),
        SCALE.platform_instruction_scale(),
    );
    if run.trace {
        return Reference::Trace(exp.homogeneous_temperature_curve(&spec2000::swim(), f64::INFINITY));
    }
    let result = match run.policy {
        Ch5Policy::NoLimit => exp.run_no_limit(&run.mix).result,
        Ch5Policy::Platform { kind, fixed_frequency_index: None } => exp.run_policy(&run.mix, kind).result,
        Ch5Policy::Platform { kind, fixed_frequency_index: Some(index) } => {
            let mut policy = PlatformPolicy::new(kind, run.server.clone()).with_fixed_frequency_index(index);
            exp.run_with(&run.mix, &mut policy).result
        }
    };
    Reference::Result(Box::new(result))
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs smoke-scale platform simulations; run with --release")]
fn batched_dispatch_reproduces_the_per_run_driver_bit_for_bit() {
    let runs = runs();
    let expected: Vec<Reference> = runs.iter().map(reference).collect();
    let Reference::Trace(curve) = expected.last().expect("a trace run") else { unreachable!() };
    assert!(curve.len() > 50, "the homogeneous run records a trace");

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for workers in [1, cores] {
        let results = dispatch(&SweepRunner::with_threads(workers), &runs);
        assert_eq!(results.len(), runs.len());
        for ((run, got), want) in runs.iter().zip(results).zip(&expected) {
            let label = format!("{} {} {:?} on {workers} workers", run.server.kind, run.mix.id, run.policy);
            let got = if run.trace {
                Reference::Trace(got.temp_trace)
            } else {
                assert!(got.temp_trace.is_empty(), "{label}: only curve runs record a trace");
                Reference::Result(Box::new(got))
            };
            assert!(got == *want, "{label} diverged from the per-run driver");
        }
    }
}
