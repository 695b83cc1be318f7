//! The figures that must repeat bit-for-bit under one seed do, and move
//! under another.
//!
//! Each workload runs twice with one seed and once with another, at a
//! small scale. `sse_ratio`, `durability.write_amp` and the kernel work
//! counts are computed on quiesced states the seed fixes, so any drift
//! between the two same-seed runs means a figure depends on timing.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (a debug build is several times slower).

use perfbench::{run, Outcome, RunConfig, END_TO_END, PER_LAYER, WORKLOADS};

/// Figures that must repeat exactly under one seed.
const DETERMINISTIC: &[&str] = &[
    "sse_ratio",
    "durability.write_amp",
    "kernel.herror_evals_per_build",
    "kernel.binary_searches_per_build",
];

/// Figures that depend on the data, so another seed must move them.
/// (`durability.write_amp` counts bytes of fixed-width records and
/// frames, which the data does not change.)
const SEED_DEPENDENT: &[&str] = &[
    "sse_ratio",
    "kernel.herror_evals_per_build",
    "kernel.binary_searches_per_build",
];

fn small(workload: &str, seed: u64) -> Outcome {
    let cfg = RunConfig {
        seed,
        seconds: 0.5,
        trace: false,
        span_dir: None,
    };
    let out = run(workload, &cfg).expect("known workload");
    for g in &out.gates {
        assert!(
            g.ok,
            "{workload} seed {seed}: gate failed: {} ({})",
            g.name, g.detail
        );
    }
    assert_eq!(out.failed, 0, "{workload} seed {seed}: failed operations");
    out
}

#[test]
fn deterministic_figures_repeat_under_one_seed_and_move_under_another() {
    for &workload in WORKLOADS {
        let a = small(workload, 3);
        let b = small(workload, 3);
        let c = small(workload, 4);
        for &key in DETERMINISTIC {
            let Some(&va) = a.metrics.get(key) else {
                continue;
            };
            let vb = b.metrics[key];
            assert_eq!(
                va.to_bits(),
                vb.to_bits(),
                "{workload}: {key} drifted under one seed ({va} vs {vb})"
            );
        }
        for &key in SEED_DEPENDENT {
            let va = a.metrics[key];
            let vc = c.metrics[key];
            assert_ne!(
                va.to_bits(),
                vc.to_bits(),
                "{workload}: {key} did not move under another seed ({va})"
            );
        }
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    for &workload in WORKLOADS {
        let out = small(workload, 5);
        for (name, _) in END_TO_END {
            let v = out.metrics.get(name).copied();
            assert!(
                v.is_some_and(|v| v.is_finite() && v != 0.0),
                "{workload}: end-to-end metric {name} missing, zero or not finite: {v:?}"
            );
        }
    }
}

#[test]
fn benchmark_json_matches_the_declared_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    for &workload in WORKLOADS {
        assert!(
            text.contains(&format!("\"name\": \"{workload}\"")),
            "BENCHMARK.json lacks workload {workload}"
        );
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "BENCHMARK.json lacks metric {name} with unit {unit}"
        );
    }
}
