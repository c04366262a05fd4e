//! Golden regression pins for [`MulticoreSim::run`].
//!
//! The exact measurements below (elapsed time, per-core statistics, traffic
//! window including the per-DIMM split, with floats pinned by bit pattern)
//! were captured from the pre-refactor closed loop. The flat-cache,
//! ring-queue, cached-min-schedule and warm-state-reuse rewrites of the
//! level-1 simulator must all be *behavior-preserving*: any drift in these
//! values is a correctness bug, not a tolerance issue.

use cpu_model::{CpuConfig, MulticoreSim, RunningMode};
use fbdimm_sim::FbdimmConfig;
use workloads::mixes;

struct Golden {
    label: &'static str,
    elapsed_ps: u64,
    /// (instructions, l2_accesses, l2_misses, mem_reads, spec_reads, mem_writes, stall_ps) per core.
    cores: [[u64; 7]; 4],
    /// (reads, writes, activations) of the traffic window.
    counts: [u64; 3],
    /// Bit patterns of (read_gbps, write_gbps, mean_read_latency_ns).
    rates_bits: [u64; 3],
    /// Bit patterns of (local_gbps, bypass_gbps, read_fraction) per DIMM
    /// position, in (channel-major, dimm) order.
    dimms_bits: [[u64; 3]; 8],
}

const GOLDENS: [Golden; 6] = [
    Golden {
        label: "W1/full",
        elapsed_ps: 99050534,
        cores: [
            [180504, 5456, 4804, 5502, 698, 0, 67501273],
            [235434, 5708, 4014, 4575, 561, 0, 60205883],
            [237728, 6266, 4011, 4608, 597, 0, 57563439],
            [417067, 7570, 2551, 2862, 311, 0, 39808287],
        ],
        counts: [17547, 0, 17547],
        rates_bits: [0x4026aceaaae4741f, 0x0, 0x405c25e420947164],
        dimms_bits: [
            [0x3fe6e0db06c9c1ae, 0x4000da9162e765a4, 0x3ff0000000000000],
            [0x3fe6c663cfcf3510, 0x3ff651f0dde730c0, 0x3ff0000000000000],
            [0x3fe68984d15bbe72, 0x3fe61a5cea72a30f, 0x3ff0000000000000],
            [0x3fe61a5cea72a30f, 0x0, 0x3ff0000000000000],
            [0x3fe7088dd941949c, 0x400104e9badead07, 0x3ff0000000000000],
            [0x3fe6ce54604d9274, 0x3ff6a2a9459690d5, 0x3ff0000000000000],
            [0x3fe6d8ea764b644c, 0x3fe66c6814e1bd5e, 0x3ff0000000000000],
            [0x3fe66c6814e1bd5e, 0x0, 0x3ff0000000000000],
        ],
    },
    Golden {
        label: "W1/gated2",
        elapsed_ps: 130235737,
        cores: [
            [428337, 12996, 8454, 9765, 1311, 0, 55872275],
            [494961, 12004, 6286, 7208, 922, 0, 48721682],
            [0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0],
        ],
        counts: [16973, 0, 16973],
        rates_bits: [0x4020ae7f1d1f8c5a, 0x0, 0x4054ef8879d1d2a4],
        dimms_bits: [
            [0x3fe0b74d7f443fd6, 0x3ff900d6a834797e, 0x3ff0000000000000],
            [0x3fe0bb5412883a1e, 0x3ff0a32c9ef05c70, 0x3ff0000000000000],
            [0x3fe0ab39c57850ff, 0x3fe09b1f786867e0, 0x3ff0000000000000],
            [0x3fe09b1f786867e0, 0x0, 0x3ff0000000000000],
            [0x3fe0bb5412883a1e, 0x3ff8ffd503637aec, 0x3ff0000000000000],
            [0x3fe0bb5412883a1e, 0x3ff0a22afa1f5ddd, 0x3ff0000000000000],
            [0x3fe0a9367bd653db, 0x3fe09b1f786867e0, 0x3ff0000000000000],
            [0x3fe09b1f786867e0, 0x0, 0x3ff0000000000000],
        ],
    },
    Golden {
        label: "W1/cap6.4",
        elapsed_ps: 172473062,
        cores: [
            [178822, 5406, 4758, 5450, 692, 0, 141427811],
            [232933, 5649, 3968, 4524, 556, 0, 134138717],
            [239203, 6307, 4031, 4642, 611, 0, 130900461],
            [420843, 7638, 2577, 2878, 301, 0, 112655019],
        ],
        counts: [17494, 0, 17494],
        rates_bits: [0x4019f75698437c45, 0x0, 0x406b2695dfaaffae],
        dimms_bits: [
            [0x3fda3af970c043d2, 0x3ff34bb76114cb54, 0x3ff0000000000000],
            [0x3fd9eefa8ec3e22c, 0x3fe99ff17ac7a592, 0x3ff0000000000000],
            [0x3fd9d39eccc52fa7, 0x3fd96c4428ca1b7d, 0x3ff0000000000000],
            [0x3fd96c4428ca1b7d, 0x0, 0x3ff0000000000000],
            [0x3fda65882cbe3d11, 0x3ff37ad568128cfe, 0x3ff0000000000000],
            [0x3fd9f81924c37302, 0x3fe9f99e3dc3607a, 0x3ff0000000000000],
            [0x3fda2ed0a8c0d809, 0x3fd9c46bd2c5e8ed, 0x3ff0000000000000],
            [0x3fd9c46bd2c5e8ed, 0x0, 0x3ff0000000000000],
        ],
    },
    Golden {
        label: "W6/full",
        elapsed_ps: 141873338,
        cores: [
            [351208, 8477, 7027, 7972, 945, 0, 84108926],
            [246307, 6746, 5333, 5954, 621, 0, 93725221],
            [78303, 3048, 1900, 1969, 69, 0, 114621830],
            [561244, 6729, 3223, 3653, 430, 0, 49482659],
        ],
        counts: [19548, 0, 19548],
        rates_bits: [0x4021a2ef4bda343e, 0x0, 0x40576e7b7e5752d1],
        dimms_bits: [
            [0x3fe1d20d4b8b3bdc, 0x3ffa67ee0ffa53e1, 0x3ff0000000000000],
            [0x3fe1e2ae789c89d7, 0x3ff17696d3ac0ef4, 0x3ff0000000000000],
            [0x3fe175aa512b18d8, 0x3fe17783562d0511, 0x3ff0000000000000],
            [0x3fe17783562d0511, 0x0, 0x3ff0000000000000],
            [0x3fe1d3e6508d2814, 0x3ffa50d551624b1f, 0x3ff0000000000000],
            [0x3fe1e4877d9e7610, 0x3ff15e9192931018, 0x3ff0000000000000],
            [0x3fe15bcc0b102dc3, 0x3fe161571a15f26c, 0x3ff0000000000000],
            [0x3fe161571a15f26c, 0x0, 0x3ff0000000000000],
        ],
    },
    Golden {
        label: "W6/gated2",
        elapsed_ps: 147667414,
        cores: [
            [570634, 13804, 7238, 8292, 1054, 0, 53813273],
            [409363, 11196, 5564, 6226, 662, 0, 67709888],
            [0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0],
        ],
        counts: [14518, 0, 14518],
        rates_bits: [0x40192b34dff84401, 0x0, 0x40543b694f441738],
        dimms_bits: [
            [0x3fd944f289c19252, 0x3ff2d9f83d87df6c, 0x3ff0000000000000],
            [0x3fd936bedca1f45a, 0x3fe918910cbec4ac, 0x3ff0000000000000],
            [0x3fd91de46daa9fe8, 0x3fd9133dabd2e96f, 0x3ff0000000000000],
            [0x3fd9133dabd2e96f, 0x0, 0x3ff0000000000000],
            [0x3fd94c0c6051614e, 0x3ff2d831c7e3ebad, 0x3ff0000000000000],
            [0x3fd93331f15a0cdc, 0x3fe916ca971ad0ed, 0x3ff0000000000000],
            [0x3fd91a578262b86b, 0x3fd9133dabd2e96f, 0x3ff0000000000000],
            [0x3fd9133dabd2e96f, 0x0, 0x3ff0000000000000],
        ],
    },
    Golden {
        label: "W6/cap6.4",
        elapsed_ps: 193260720,
        cores: [
            [347293, 8382, 6954, 7883, 929, 0, 136135687],
            [247692, 6781, 5359, 5990, 631, 0, 144883509],
            [77493, 3016, 1876, 1945, 69, 0, 166345927],
            [568679, 6821, 3251, 3679, 428, 0, 99726648],
        ],
        counts: [19497, 0, 19497],
        rates_bits: [0x4019d39015569a02, 0x0, 0x4060dbb15d30dd87],
        dimms_bits: [
            [0x3fda0ee80ff66ce2, 0x3ff35dbd54d7ac89, 0x3ff0000000000000],
            [0x3fda4a96da482b05, 0x3fe9962f3c8b438f, 0x3ff0000000000000],
            [0x3fd9aa87ea3e6749, 0x3fd981d68ed81fd5, 0x3ff0000000000000],
            [0x3fd981d68ed81fd5, 0x0, 0x3ff0000000000000],
            [0x3fda0ee80ff66ce2, 0x3ff341eecdda510a, 0x3ff0000000000000],
            [0x3fda4a96da482b05, 0x3fe95e922e908c91, 0x3ff0000000000000],
            [0x3fd95bdbb1013278, 0x3fd96148ac1fe6aa, 0x3ff0000000000000],
            [0x3fd96148ac1fe6aa, 0x0, 0x3ff0000000000000],
        ],
    },
];

const BUDGET: u64 = 25_000;

fn mode_for(label: &str, cpu: &CpuConfig) -> RunningMode {
    let full = RunningMode::full_speed(cpu);
    match label.split('/').nth(1).unwrap() {
        "full" => full,
        "gated2" => full.with_active_cores(2),
        "cap6.4" => full.with_bandwidth_cap_gbps(6.4),
        other => panic!("unknown mode label {other}"),
    }
}

#[test]
fn multicore_run_measurements_match_pre_refactor_goldens() {
    let cpu = CpuConfig::paper_quad_core();
    let mut sim = MulticoreSim::new(cpu.clone(), FbdimmConfig::ddr2_667_paper());
    for g in &GOLDENS {
        let mix = if g.label.starts_with("W1") { mixes::w1() } else { mixes::w6() };
        let m = sim.run(&mix.apps, &mode_for(g.label, &cpu), BUDGET);
        assert_eq!(m.elapsed_ps, g.elapsed_ps, "{}: elapsed_ps", g.label);
        assert_eq!(m.cores.len(), 4, "{}", g.label);
        for (i, (c, want)) in m.cores.iter().zip(g.cores.iter()).enumerate() {
            let got = [c.instructions, c.l2_accesses, c.l2_misses, c.mem_reads, c.spec_reads, c.mem_writes, c.stall_ps];
            assert_eq!(got, *want, "{}: core {i} stats", g.label);
        }
        let t = &m.traffic;
        assert_eq!([t.reads, t.writes, t.activations], g.counts, "{}: traffic counts", g.label);
        let rates = [t.read_gbps.to_bits(), t.write_gbps.to_bits(), t.mean_read_latency_ns.to_bits()];
        assert_eq!(rates, g.rates_bits, "{}: traffic rates", g.label);
        assert_eq!(t.dimms.len(), 8, "{}: dimm positions", g.label);
        for (d, want) in t.dimms.iter().zip(g.dimms_bits.iter()) {
            let got = [d.local_gbps.to_bits(), d.bypass_gbps.to_bits(), d.read_fraction.to_bits()];
            assert_eq!(got, *want, "{}: dimm ({}, {})", g.label, d.channel, d.dimm);
        }
    }
}

#[test]
fn repeated_runs_reuse_warm_state_without_drift() {
    // Back-to-back runs of the same (mix, mode) — the second run re-warms the
    // caches the first run left behind — must be bit-identical to the first.
    let cpu = CpuConfig::paper_quad_core();
    let mut sim = MulticoreSim::new(cpu.clone(), FbdimmConfig::ddr2_667_paper());
    let mode = RunningMode::full_speed(&cpu);
    let a = sim.run(&mixes::w1().apps, &mode, BUDGET);
    let b = sim.run(&mixes::w1().apps, &mode, BUDGET);
    assert_eq!(a, b);
}
