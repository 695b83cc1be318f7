//! Regenerates the golden-value tables used by
//! `crates/streamhist-stream/tests/golden_kernel.rs`.
//!
//! The golden tests pin the exact bucket boundaries, heights, and kernel
//! diagnostics produced on fixed-seed generator streams, so that refactors
//! of the streaming-DP kernel can prove they did not change any observable
//! output. This binary prints the table as Rust literals; paste its output
//! into the test when intentionally re-baselining (and say why in the
//! commit message).
//!
//! A second table pins fixed-window builds at the benchmark's shape
//! (window 512, `B = 8`, `ε = 0.1`, plus one `B = 16`, `ε = 0.05` case) on
//! streams three windows long, so every window has slid and the level
//! queues are long: the regime where the candidate scan and the
//! straddling-interval path do most of their work.
//!
//! Run: `cargo run --release -p streamhist-bench --bin golden_record`

#![allow(clippy::disallowed_macros)] // report binaries print by design
use streamhist_data::{collect, utilization_trace, Ar1, BurstyOnOff, LevelShift};
use streamhist_stream::{AgglomerativeHistogram, FixedWindowHistogram};

const STREAM_LEN: usize = 400;
const FW_CAPACITY: usize = 128;
const BENCH_WINDOW: usize = 512;
const BENCH_STREAM_LEN: usize = 3 * BENCH_WINDOW;

fn streams(len: usize) -> Vec<(&'static str, Vec<f64>)> {
    vec![
        ("utilization_trace_seed7", utilization_trace(len, 7)),
        ("ar1_seed42", collect(Ar1::new(42, 0.9, 100.0, 25.0), len)),
        (
            "bursty_seed9",
            collect(BurstyOnOff::new(9, 0.01, 0.08, 500.0, 1.4), len),
        ),
        (
            "level_shift_seed3",
            collect(LevelShift::new(3, 0.01, 200.0), len),
        ),
    ]
}

fn main() {
    println!("// Generated by `cargo run -p streamhist-bench --bin golden_record`.");
    println!("// Streams: len {STREAM_LEN}; fixed window capacity {FW_CAPACITY}.");
    println!("vec![");
    for (name, data) in streams(STREAM_LEN) {
        for &b in &[8usize, 50] {
            for &eps in &[0.1f64, 0.01] {
                let agg = AgglomerativeHistogram::from_slice(&data, b, eps);
                let ah = agg.histogram();
                let mut fw = FixedWindowHistogram::new(FW_CAPACITY, b, eps);
                for &v in &data {
                    fw.push(v);
                }
                let (fh, stats) = fw.histogram_with_stats();
                println!("    Golden {{");
                println!("        stream: {name:?},");
                println!("        b: {b},");
                println!("        eps: {eps:?},");
                println!("        agg_ends: vec!{:?},", ah.bucket_ends());
                println!(
                    "        agg_heights: vec!{:?},",
                    ah.buckets().iter().map(|bk| bk.height).collect::<Vec<_>>()
                );
                let agg_stats = agg.kernel_stats();
                println!("        agg_sse: {:?},", agg_stats.herror);
                println!("        agg_queue_sizes: vec!{:?},", agg_stats.queue_sizes);
                println!("        fw_ends: vec!{:?},", fh.bucket_ends());
                println!(
                    "        fw_heights: vec!{:?},",
                    fh.buckets().iter().map(|bk| bk.height).collect::<Vec<_>>()
                );
                println!("        fw_queue_sizes: vec!{:?},", stats.queue_sizes);
                println!("        fw_herror_evals: {},", stats.herror_evals);
                println!("        fw_binary_searches: {},", stats.binary_searches);
                println!("        fw_herror: {:?},", stats.herror);
                println!("    }},");
            }
        }
    }
    println!("]");
    println!();
    println!("// Benchmark shape: window {BENCH_WINDOW}; streams: len {BENCH_STREAM_LEN}.");
    println!("vec![");
    let streams = streams(BENCH_STREAM_LEN);
    let shapes = streams
        .iter()
        .map(|(name, data)| (*name, data, 8usize, 0.1f64))
        .chain(std::iter::once((streams[0].0, &streams[0].1, 16, 0.05)));
    for (name, data, b, eps) in shapes {
        let mut fw = FixedWindowHistogram::new(BENCH_WINDOW, b, eps);
        for &v in data {
            fw.push(v);
        }
        let (h, stats) = fw.histogram_with_stats();
        println!("    BenchShapeGolden {{");
        println!("        stream: {name:?},");
        println!("        b: {b},");
        println!("        eps: {eps:?},");
        println!("        ends: vec!{:?},", h.bucket_ends());
        println!(
            "        heights: vec!{:?},",
            h.buckets().iter().map(|bk| bk.height).collect::<Vec<_>>()
        );
        println!("        queue_sizes: vec!{:?},", stats.queue_sizes);
        println!("        herror_evals: {},", stats.herror_evals);
        println!("        binary_searches: {},", stats.binary_searches);
        println!("        herror: {:?},", stats.herror);
        println!("    }},");
    }
    println!("]");
}
