//! A small command-line monitor: reads newline-delimited numbers from
//! stdin (or generates a synthetic trace with `--demo N`), maintains a
//! fixed-window histogram, and periodically prints the synopsis — the
//! "online querying" deployment shape from the paper's introduction.
//!
//! Usage:
//!   cargo run --release --example stream_cli -- [--window N] [--buckets B]
//!       [--eps E] [--report-every K] [--demo N] [--checkpoint PATH]
//!       [--metrics-addr ADDR] [--serve ADDR] [--shards N]
//!   printf '1\n2\n3\n' | cargo run --release --example stream_cli -- --window 64
//!
//! Each report line shows the window mean, the histogram's bucket
//! boundaries and heights, and the synopsis wire size.
//!
//! With `--checkpoint PATH` the monitor is durable across runs: PATH is a
//! `DirStore` checkpoint-store directory. At startup the window is
//! restored from the newest CRC-checked frame in the store (the
//! configuration flags are then taken from the checkpoint, not the
//! command line); on exit the final state is saved back via temp-file +
//! rename, so a crash mid-save never leaves a torn checkpoint. A legacy
//! single-frame *file* at PATH (from an older version) is still restored
//! and is migrated to the store layout on the next save.
//!
//! With `--metrics-addr ADDR` (e.g. `127.0.0.1:9184`; port 0 picks an
//! ephemeral port) the monitor serves a Prometheus-style scrape endpoint
//! on a background thread: ingest counters, plus the kernel diagnostics
//! (queue sizes, HERROR evals, search probes, arena occupancy) published
//! as gauges at every report. The same endpoint serves the flight
//! recorder's event timeline on `/events` (`?after=N` pages by sequence)
//! and a supervisor-aware liveness probe on `/healthz` (200 only when
//! every shard is Live). The endpoint is the tracer's only reader, so
//! `--metrics-addr` also arms the kernel phase tracer, on this thread and
//! on the fleet's workers: push/build latency summaries, HERROR-eval and
//! search-probe counters, and the fleet's queue-wait, scatter and gather
//! spans. Without it nothing is traced:
//!
//!   cargo run --release --example stream_cli -- \
//!       --demo 100000 --metrics-addr 127.0.0.1:9184
//!   curl http://127.0.0.1:9184/metrics
//!
//! With `--serve ADDR` the monitor additionally ingests into a sharded
//! fleet (`--shards N`, default 2) and serves the framed binary query
//! protocol on ADDR — range/point queries from the fleet-global snapshot,
//! quantile/selectivity from serve-side GK/MRL sketches, plus admin
//! verbs. After the input is drained the process keeps serving until
//! killed. The reference client is the `query` subcommand:
//!
//!   cargo run --release --example stream_cli -- --demo 100000 \
//!       --serve 127.0.0.1:9185
//!   cargo run --release --example stream_cli -- query \
//!       --addr 127.0.0.1:9185 range-sum 0 63
//!   cargo run --release --example stream_cli -- query \
//!       --addr 127.0.0.1:9185 quantile gk 0.99
//!
//! The `trace` subcommand runs any query verb with a trace id carried in
//! the wire frames (the server echoes it on success and error replies
//! alike), and `events` drains the server's flight recorder — shard
//! deaths and restarts, checkpoint uploads, overload sheds, slow
//! queries — over the admin protocol:
//!
//!   cargo run --release --example stream_cli -- trace \
//!       --addr 127.0.0.1:9185 range-sum 0 63
//!   cargo run --release --example stream_cli -- events \
//!       --addr 127.0.0.1:9185 --from 0

#![allow(clippy::disallowed_macros)] // report binaries print by design
use std::io::BufRead;
use std::sync::{Arc, Mutex};
use streamhist::data::utilization_trace;
use streamhist::obs::{
    publish_kernel_stats, set_thread_kernel_tracer, Counter, ExpositionOptions, ExpositionServer,
    FlightRecorder, HealthStatus, KernelTracer, MetricsRegistry,
};
use streamhist::serve::{QuantileMethod, QueryServer, Request, ServeClient, ServeState};
use streamhist::{
    codec, Checkpoint, CheckpointStore, Coverage, DirStore, FixedWindowHistogram, FleetHandle,
    ObjectKind, ShardState, ShardedFixedWindow, SnapshotPolicy, Supervisor, SupervisorHandle,
    SupervisorOptions,
};

/// Shared slot the `/healthz` closure reads: the supervisor starts after
/// the metrics endpoint, so the handle arrives late.
type SupervisorSlot = Arc<Mutex<Option<SupervisorHandle>>>;

/// The scrape endpoint plus the handles the ingest loop ticks.
struct Telemetry {
    registry: Arc<MetricsRegistry>,
    server: ExpositionServer,
    records: Counter,
    skipped: Counter,
}

impl Telemetry {
    fn start(
        addr: &str,
        registry: Arc<MetricsRegistry>,
        recorder: Arc<FlightRecorder>,
        supervisor: SupervisorSlot,
    ) -> std::io::Result<Self> {
        let records = registry.counter(
            "streamhist_cli_records_total",
            "Finite records ingested into the window",
        );
        let skipped = registry.counter(
            "streamhist_cli_skipped_total",
            "Input lines skipped as non-numeric or non-finite",
        );
        // `/healthz`: 200 only when every supervised shard is Live. With
        // no supervisor attached there is nothing to contradict liveness —
        // the process answering is the health signal.
        let health = Arc::new(move || match supervisor.lock().unwrap().as_ref() {
            Some(handle) => {
                let shards = handle.health();
                HealthStatus {
                    healthy: shards.iter().all(|h| h.state == ShardState::Live),
                    summary: shards
                        .iter()
                        .map(|h| format!("shard{}={}", h.shard, h.state))
                        .collect::<Vec<_>>()
                        .join(" "),
                }
            }
            None => HealthStatus {
                healthy: true,
                summary: "unsupervised".to_owned(),
            },
        });
        let server = ExpositionServer::start_with(
            addr,
            Arc::clone(&registry),
            ExpositionOptions {
                recorder: Some(recorder),
                health: Some(health),
            },
        )?;
        Ok(Self {
            registry,
            server,
            records,
            skipped,
        })
    }
}

#[derive(Debug)]
struct Args {
    window: usize,
    buckets: usize,
    eps: f64,
    report_every: usize,
    demo: Option<usize>,
    checkpoint: Option<std::path::PathBuf>,
    metrics_addr: Option<String>,
    serve: Option<String>,
    shards: usize,
    supervise: bool,
    min_coverage: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        window: 1024,
        buckets: 12,
        eps: 0.1,
        report_every: 4096,
        demo: None,
        checkpoint: None,
        metrics_addr: None,
        serve: None,
        shards: 2,
        supervise: false,
        min_coverage: 0.5,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--window" => args.window = value("--window")?.parse().map_err(|e| format!("{e}"))?,
            "--buckets" => {
                args.buckets = value("--buckets")?.parse().map_err(|e| format!("{e}"))?
            }
            "--eps" => args.eps = value("--eps")?.parse().map_err(|e| format!("{e}"))?,
            "--report-every" => {
                args.report_every = value("--report-every")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--demo" => args.demo = Some(value("--demo")?.parse().map_err(|e| format!("{e}"))?),
            "--checkpoint" => args.checkpoint = Some(value("--checkpoint")?.into()),
            "--metrics-addr" => args.metrics_addr = Some(value("--metrics-addr")?),
            "--serve" => args.serve = Some(value("--serve")?),
            "--shards" => args.shards = value("--shards")?.parse().map_err(|e| format!("{e}"))?,
            "--supervise" => args.supervise = true,
            "--min-coverage" => {
                args.min_coverage = value("--min-coverage")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--help" | "-h" => {
                return Err("usage: stream_cli [--window N] [--buckets B] [--eps E] \
                            [--report-every K] [--demo N] [--checkpoint PATH] \
                            [--metrics-addr ADDR] [--serve ADDR] [--shards N] \
                            [--supervise] [--min-coverage F]\n\
                            \x20      stream_cli query --addr ADDR VERB ARGS..."
                    .into())
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.window == 0 || args.buckets == 0 || args.eps <= 0.0 || args.report_every == 0 {
        return Err("window, buckets, eps and report-every must be positive".into());
    }
    if args.shards == 0 {
        return Err("shards must be positive".into());
    }
    if !(0.0..=1.0).contains(&args.min_coverage) {
        return Err("min-coverage must be in [0, 1]".into());
    }
    Ok(args)
}

const QUERY_USAGE: &str = "usage: stream_cli query --addr HOST:PORT VERB [ARGS]\n\
    verbs:\n\
    \x20 range-sum START END     sum over the inclusive index range\n\
    \x20 range-avg START END     average over the inclusive index range\n\
    \x20 point IDX               value at one index\n\
    \x20 range-count START END   positions in the inclusive index range\n\
    \x20 quantile gk|mrl PHI     phi-quantile of the ingested values\n\
    \x20 selectivity LO HI       fraction of values v with LO < v <= HI\n\
    \x20 shard-stats SHARD       one shard's counters\n\
    \x20 respawn-shard SHARD     respawn one shard's worker\n\
    \x20 checkpoint-all          refresh every shard's recovery point\n\
    \x20 wal-status              the fleet's durability (WAL) status\n\
    \x20 health                  per-shard supervisor state\n\
    a degraded answer (some shards down, server in degraded mode) is\n\
    annotated with its coverage report\n\
    `stream_cli trace [--id N] --addr HOST:PORT VERB [ARGS]` runs the\n\
    same verbs with a trace id on the wire and prints the echoed id;\n\
    `stream_cli events --addr HOST:PORT [--from N]` dumps the server's\n\
    flight recorder (shard deaths, restarts, slow queries, ...)";

/// Renders a scalar answer, annotating it with the coverage report when
/// the server answered in degraded mode over a partial fleet.
fn scalar_line((value, coverage): (f64, Coverage)) -> String {
    if coverage.is_complete() {
        format!("{value}")
    } else {
        format!("{value}  [degraded: {coverage}]")
    }
}

/// The `query` subcommand: the wire protocol's reference client. With
/// `trace` set (the `trace` subcommand), the id rides the request frame
/// and the server's echo is printed after the answer.
fn run_query(argv: &[String], trace: Option<u64>) -> i32 {
    let mut addr = None;
    let mut rest = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => match it.next() {
                Some(v) => addr = Some(v.clone()),
                None => {
                    eprintln!("--addr needs a value");
                    return 2;
                }
            },
            "--help" | "-h" => {
                eprintln!("{QUERY_USAGE}");
                return 2;
            }
            _ => rest.push(a.clone()),
        }
    }
    let Some(addr) = addr else {
        eprintln!("{QUERY_USAGE}");
        return 2;
    };
    let parse_idx = |s: &String| s.parse::<usize>().map_err(|e| format!("{s:?}: {e}"));
    let parse_f64 = |s: &String| s.parse::<f64>().map_err(|e| format!("{s:?}: {e}"));
    let mut client = match ServeClient::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            return 1;
        }
    };
    client.set_trace(trace);
    let outcome: Result<Result<String, streamhist::serve::ClientError>, String> =
        match rest.iter().map(String::as_str).collect::<Vec<_>>()[..] {
            ["range-sum", _, _] => parse_idx(&rest[1]).and_then(|s| {
                parse_idx(&rest[2]).map(|e| {
                    client
                        .call_scalar(&Request::RangeSum { start: s, end: e })
                        .map(scalar_line)
                })
            }),
            ["range-avg", _, _] => parse_idx(&rest[1]).and_then(|s| {
                parse_idx(&rest[2]).map(|e| {
                    client
                        .call_scalar(&Request::RangeAvg { start: s, end: e })
                        .map(scalar_line)
                })
            }),
            ["point", _] => parse_idx(&rest[1])
                .map(|idx| client.call_scalar(&Request::Point { idx }).map(scalar_line)),
            ["range-count", _, _] => parse_idx(&rest[1]).and_then(|s| {
                parse_idx(&rest[2]).map(|e| {
                    client
                        .call_scalar(&Request::RangeCount { start: s, end: e })
                        .map(scalar_line)
                })
            }),
            ["quantile", method, _] => {
                let method = match method {
                    "gk" => Ok(QuantileMethod::Gk),
                    "mrl" => Ok(QuantileMethod::Mrl),
                    other => Err(format!("unknown quantile method {other:?} (gk or mrl)")),
                };
                method.and_then(|m| {
                    parse_f64(&rest[2]).map(|phi| {
                        client
                            .call_scalar(&Request::Quantile { method: m, phi })
                            .map(scalar_line)
                    })
                })
            }
            ["selectivity", _, _] => parse_f64(&rest[1]).and_then(|lo| {
                parse_f64(&rest[2]).map(|hi| {
                    client
                        .call_scalar(&Request::Selectivity { lo, hi })
                        .map(scalar_line)
                })
            }),
            ["shard-stats", _] => parse_idx(&rest[1]).map(|s| {
                client.shard_stats(s).map(|(shards, m)| {
                    format!(
                        "shard {s}/{shards}: pushes={} rejected={} dropped={} snapshots={} \
                         respawns={} checkpoints={} restores={} queue_depth={}",
                        m.pushes_accepted,
                        m.values_rejected,
                        m.records_dropped,
                        m.snapshots_served,
                        m.respawns,
                        m.checkpoints_taken,
                        m.restores,
                        m.queue_depth
                    )
                })
            }),
            ["respawn-shard", _] => parse_idx(&rest[1]).map(|s| {
                client.respawn_shard(s).map(|(restored, lost)| {
                    format!("respawned: restored_len={restored} lost_since_checkpoint={lost}")
                })
            }),
            ["checkpoint-all"] => Ok(client
                .checkpoint_all()
                .map(|bytes| format!("checkpointed every shard in place: {bytes}B of frames"))),
            ["wal-status"] => Ok(client.wal_status().map(|s| {
                if s.enabled {
                    format!(
                        "wal: sync={} interval={} segments={} ({}B) frames={} ({}B) \
                         ingested={}B written={}B amplification={:.3} retries={} \
                         failures={} dropped={} queue_depth={}",
                        s.wal_sync,
                        s.checkpoint_interval,
                        s.segments_written,
                        s.segment_bytes,
                        s.frames_written,
                        s.frame_bytes,
                        s.bytes_ingested,
                        s.bytes_written,
                        s.amplification,
                        s.retries,
                        s.failures,
                        s.segments_dropped,
                        s.queue_depth
                    )
                } else {
                    "wal: disabled (fleet built without durability)".to_owned()
                }
            })),
            ["health"] => Ok(client.health().map(|(supervised, shards)| {
                let mut line = format!(
                    "fleet health ({}):",
                    if supervised {
                        "supervised"
                    } else {
                        "synthesized from pings"
                    }
                );
                for h in shards {
                    line.push_str(&format!(
                        "\n  shard {}: {} failures={} restarts={}",
                        h.shard, h.state, h.consecutive_failures, h.restarts
                    ));
                }
                line
            })),
            _ => {
                eprintln!("{QUERY_USAGE}");
                return 2;
            }
        };
    let code = match outcome {
        Err(usage) => {
            eprintln!("{usage}");
            2
        }
        Ok(Err(e)) => {
            eprintln!("{e}");
            1
        }
        Ok(Ok(line)) => {
            println!("{line}");
            0
        }
    };
    if let Some(sent) = trace {
        // Error frames echo the trace too, so report it on any outcome
        // that reached the server.
        match client.last_trace() {
            Some(echoed) if echoed == sent => println!("trace: {sent:#x} (echoed)"),
            Some(echoed) => println!("trace: sent {sent:#x}, server echoed {echoed:#x}"),
            None => println!("trace: sent {sent:#x}, no echo (request never reached a reply)"),
        }
    }
    code
}

/// The `trace` subcommand: `query` with a trace id on the wire. Without
/// `--id N` a process-unique id is derived from the clock and PID.
fn run_trace(argv: &[String]) -> i32 {
    let mut id = None;
    let mut rest = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if a == "--id" {
            match it.next().map(|v| {
                let digits = v.strip_prefix("0x").unwrap_or(v);
                if v.starts_with("0x") {
                    u64::from_str_radix(digits, 16)
                } else {
                    digits.parse()
                }
            }) {
                Some(Ok(v)) => id = Some(v),
                Some(Err(e)) => {
                    eprintln!("--id: {e}");
                    return 2;
                }
                None => {
                    eprintln!("--id needs a value");
                    return 2;
                }
            }
        } else {
            rest.push(a.clone());
        }
    }
    let id = id.unwrap_or_else(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| {
                u64::try_from(d.as_nanos() & u128::from(u64::MAX)).unwrap_or(0)
            });
        nanos ^ (u64::from(std::process::id()) << 32)
    });
    run_query(&rest, Some(id))
}

/// The `events` subcommand: drain the server's flight recorder over the
/// `events` admin verb and print one line per retained event.
fn run_events(argv: &[String]) -> i32 {
    let mut addr = None;
    let mut from = 0u64;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => match it.next() {
                Some(v) => addr = Some(v.clone()),
                None => {
                    eprintln!("--addr needs a value");
                    return 2;
                }
            },
            "--from" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(v)) => from = v,
                Some(Err(e)) => {
                    eprintln!("--from: {e}");
                    return 2;
                }
                None => {
                    eprintln!("--from needs a value");
                    return 2;
                }
            },
            other => {
                eprintln!("events: unknown argument {other}\n{QUERY_USAGE}");
                return 2;
            }
        }
    }
    let Some(addr) = addr else {
        eprintln!("{QUERY_USAGE}");
        return 2;
    };
    let mut client = match ServeClient::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            return 1;
        }
    };
    match client.events_all(from) {
        Ok((recorded, events)) => {
            println!(
                "{recorded} events recorded, {} retained from #{from}",
                events.len()
            );
            for e in &events {
                println!("{e}");
            }
            0
        }
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

/// The CLI's single window lives in shard 0 of its checkpoint store:
/// restore the newest frame, or `None` for an empty store.
fn load_newest_frame(store: &DirStore) -> Result<Option<FixedWindowHistogram>, String> {
    let ids = store.list(0).map_err(|e| e.to_string())?;
    let Some(newest) = ids
        .iter()
        .filter(|id| id.kind == ObjectKind::Frame)
        .max_by_key(|id| id.seq)
    else {
        return Ok(None);
    };
    let frame = store.get(newest).map_err(|e| e.to_string())?;
    FixedWindowHistogram::restore(&frame)
        .map(Some)
        .map_err(|e| e.to_string())
}

/// Exit-time save: one frame into a [`DirStore`] at `path` (temp file +
/// rename, so a crash mid-save never leaves a torn checkpoint), then a
/// truncate so only the newest frame remains. A legacy single-frame file
/// at `path` is migrated: removed and replaced by the store directory.
fn save_checkpoint(path: &std::path::Path, fw: &FixedWindowHistogram) -> Result<u64, String> {
    if path.is_file() {
        std::fs::remove_file(path).map_err(|e| format!("removing legacy file: {e}"))?;
        eprintln!(
            "migrating legacy checkpoint file {} to a store directory",
            path.display()
        );
    }
    let store = DirStore::open(path).map_err(|e| e.to_string())?;
    let frame = fw.encode_checkpoint();
    let seq = fw.total_pushed();
    store.put_frame(0, seq, &frame).map_err(|e| e.to_string())?;
    store.truncate(0, seq).map_err(|e| e.to_string())?;
    Ok(frame.len() as u64)
}

fn report(t: usize, fw: &FixedWindowHistogram, telemetry: Option<&Telemetry>) {
    let (h, stats) = fw.histogram_with_stats();
    if let Some(tel) = telemetry {
        publish_kernel_stats(&tel.registry, &[("source", "stream_cli")], &stats);
    }
    if h.domain_len() == 0 {
        println!("t={t}: window empty");
        return;
    }
    let mean = h.range_sum(0, h.domain_len() - 1) / h.domain_len() as f64;
    let wire = codec::encode(&h).len();
    let buckets: Vec<String> = h
        .buckets()
        .iter()
        .map(|b| format!("[{}..{}]={:.1}", b.start, b.end, b.height))
        .collect();
    println!(
        "t={t} n={} mean={mean:.1} sse~{:.3e} wire={wire}B  {}",
        h.domain_len(),
        stats.herror,
        buckets.join(" ")
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("query") => std::process::exit(run_query(&argv[1..], None)),
        Some("trace") => std::process::exit(run_trace(&argv[1..])),
        Some("events") => std::process::exit(run_events(&argv[1..])),
        _ => {}
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    // One registry and one flight recorder for everything this process
    // runs — the CLI window, the fleet, the serve layer, the supervisor —
    // created before any of them so each can be handed the same handles.
    let registry = Arc::new(MetricsRegistry::new());
    let recorder = Arc::new(FlightRecorder::default());
    let sup_slot: SupervisorSlot = Arc::new(Mutex::new(None));
    // The scrape endpoint is the tracer's only reader: arm it exactly
    // when there is one. The CLI's own window pushes on this thread; give
    // its kernel hooks the tracer thread-locally (fleet workers get it
    // via the builder).
    let tracer = args
        .metrics_addr
        .as_ref()
        .map(|_| Arc::new(KernelTracer::new(&registry)));
    set_thread_kernel_tracer(tracer.clone());

    let telemetry = match &args.metrics_addr {
        Some(addr) => {
            match Telemetry::start(
                addr,
                Arc::clone(&registry),
                Arc::clone(&recorder),
                Arc::clone(&sup_slot),
            ) {
                Ok(tel) => {
                    eprintln!(
                        "serving metrics on http://{0}/metrics \
                         (events on /events, health on /healthz)",
                        tel.server.local_addr()
                    );
                    Some(tel)
                }
                Err(e) => {
                    eprintln!("cannot bind metrics endpoint {addr}: {e}");
                    std::process::exit(2);
                }
            }
        }
        None => None,
    };

    // With --serve, mirror every ingested value into a sharded fleet and
    // put the query surface on the wire.
    let serving = match &args.serve {
        Some(addr) => {
            let mut builder =
                ShardedFixedWindow::builder(args.shards, args.window, args.buckets, args.eps)
                    .fleet_label("cli")
                    .registry(Arc::clone(&registry))
                    .recorder(Arc::clone(&recorder));
            if let Some(tracer) = &tracer {
                builder = builder.kernel_tracer(Arc::clone(tracer));
            }
            let fleet = match builder.build() {
                Ok(sw) => FleetHandle::new(sw),
                Err(e) => {
                    eprintln!("cannot build fleet: {e}");
                    std::process::exit(2);
                }
            };
            let mut state = ServeState::new(fleet.clone(), Arc::clone(&registry));
            // --supervise: a background supervisor heals dead shards and
            // the serve policy degrades instead of failing, answering
            // from the live subset with an honest coverage report.
            let supervisor = if args.supervise {
                match Supervisor::start_with_metrics(
                    fleet,
                    SupervisorOptions::default(),
                    &registry,
                    "cli",
                ) {
                    Ok(sup) => {
                        state = state
                            .with_policy(SnapshotPolicy::Degraded {
                                min_coverage: args.min_coverage,
                            })
                            .with_supervisor(sup.handle());
                        *sup_slot.lock().unwrap() = Some(sup.handle());
                        eprintln!(
                            "supervisor running (degraded serving above {:.0}% coverage)",
                            args.min_coverage * 100.0
                        );
                        Some(sup)
                    }
                    Err(e) => {
                        eprintln!("cannot start supervisor: {e}");
                        std::process::exit(2);
                    }
                }
            } else {
                None
            };
            match QueryServer::start(addr.as_str(), state.clone(), 4) {
                Ok(server) => {
                    eprintln!("serving queries on {}", server.local_addr());
                    Some((server, state, supervisor))
                }
                Err(e) => {
                    eprintln!("cannot bind query endpoint {addr}: {e}");
                    std::process::exit(2);
                }
            }
        }
        None => None,
    };

    let mut fw = match &args.checkpoint {
        Some(path) if path.is_file() => {
            // Legacy layout: PATH is a bare single-frame file from an older
            // run. Restore it; the exit-time save migrates PATH to a
            // DirStore directory.
            let bytes = match std::fs::read(path) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("cannot read checkpoint {}: {e}", path.display());
                    std::process::exit(2);
                }
            };
            match FixedWindowHistogram::restore(&bytes) {
                Ok(fw) => {
                    eprintln!(
                        "restored {} records from legacy checkpoint file {}",
                        fw.total_pushed(),
                        path.display()
                    );
                    fw
                }
                Err(e) => {
                    eprintln!("corrupt checkpoint {}: {e}", path.display());
                    std::process::exit(2);
                }
            }
        }
        Some(path) if path.is_dir() => {
            // Store layout: PATH is a DirStore root; the window lives in
            // shard 0's newest frame.
            let store = match DirStore::open(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot open checkpoint store {}: {e}", path.display());
                    std::process::exit(2);
                }
            };
            match load_newest_frame(&store) {
                Ok(Some(fw)) => {
                    eprintln!(
                        "restored {} records from checkpoint store {}",
                        fw.total_pushed(),
                        path.display()
                    );
                    fw
                }
                Ok(None) => FixedWindowHistogram::new(args.window, args.buckets, args.eps),
                Err(e) => {
                    eprintln!("corrupt checkpoint store {}: {e}", path.display());
                    std::process::exit(2);
                }
            }
        }
        _ => FixedWindowHistogram::new(args.window, args.buckets, args.eps),
    };
    let mut t = 0usize;

    if let Some(n) = args.demo {
        for v in utilization_trace(n, 7) {
            fw.push(v);
            if let Some((_, state, _)) = &serving {
                if let Err(e) = state.ingest(t as u64, v) {
                    eprintln!("serve ingest error: {e}");
                }
            }
            if let Some(tel) = &telemetry {
                tel.records.inc();
            }
            t += 1;
            if t.is_multiple_of(args.report_every) {
                report(t, &fw, telemetry.as_ref());
            }
        }
    } else {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let line = match line {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("read error: {e}");
                    break;
                }
            };
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            match trimmed.parse::<f64>() {
                Ok(v) if v.is_finite() => {
                    fw.push(v);
                    if let Some((_, state, _)) = &serving {
                        if let Err(e) = state.ingest(t as u64, v) {
                            eprintln!("serve ingest error: {e}");
                        }
                    }
                    if let Some(tel) = &telemetry {
                        tel.records.inc();
                    }
                    t += 1;
                    if t.is_multiple_of(args.report_every) {
                        report(t, &fw, telemetry.as_ref());
                    }
                }
                _ => {
                    if let Some(tel) = &telemetry {
                        tel.skipped.inc();
                    }
                    eprintln!("skipping non-numeric line: {trimmed:?}");
                }
            }
        }
    }
    println!("--- final ---");
    report(t, &fw, telemetry.as_ref());
    if let Some(path) = &args.checkpoint {
        match save_checkpoint(path, &fw) {
            Ok(bytes) => eprintln!(
                "checkpointed {bytes}B to store {} (atomic rename)",
                path.display()
            ),
            Err(e) => {
                eprintln!("cannot write checkpoint {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    if let Some((server, _state, _supervisor)) = serving {
        // Input is drained, but the query surface stays up: this is the
        // "start a demo server, query it from another terminal" shape.
        eprintln!(
            "input drained; still serving queries on {} (Ctrl-C to exit)",
            server.local_addr()
        );
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
    if let Some(tel) = telemetry {
        tel.server.shutdown();
    }
}
