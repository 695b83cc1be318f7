//! End-to-end tests against a live [`QueryServer`]: correctness of every
//! verb over the wire, and the ISSUE's core robustness contract — any
//! byte sequence a client sends gets an error frame or a valid answer,
//! never a panic, never a hang, and (for well-framed garbage) never a
//! dropped connection.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use streamhist_obs::MetricsRegistry;
use streamhist_serve::{
    ClientError, ErrorCode, QuantileMethod, QueryServer, Request, RetryBudget, ServeClient,
    ServeState, ServerOptions,
};
use streamhist_stream::{
    FleetHandle, ShardState, ShardedFixedWindow, SnapshotPolicy, Supervisor, SupervisorOptions,
};

fn start_server(n: u64, workers: usize) -> (QueryServer, ServeState) {
    let fleet = FleetHandle::new(ShardedFixedWindow::new(2, 128, 8, 0.1));
    let state = ServeState::new(fleet, Arc::new(MetricsRegistry::new()));
    for i in 0..n {
        state.ingest(i, (i % 16) as f64).unwrap();
    }
    // Barrier so the snapshot below reflects everything ingested.
    state.fleet().snapshot_global().unwrap();
    let server = QueryServer::start("127.0.0.1:0", state.clone(), workers).unwrap();
    (server, state)
}

#[test]
fn wire_answers_are_bit_identical_to_in_process_answers() {
    let (server, state) = start_server(400, 2);
    let (hist, _) = state.fleet().snapshot_global().unwrap();
    let domain = hist.domain_len();
    assert!(domain > 0);
    let mut client = ServeClient::connect(server.local_addr()).unwrap();

    let cases = [
        streamhist_core::Query::RangeSum {
            start: 0,
            end: domain - 1,
        },
        streamhist_core::Query::RangeAvg {
            start: 1,
            end: domain / 2,
        },
        streamhist_core::Query::Point { idx: domain / 3 },
        streamhist_core::Query::RangeCount {
            start: 2,
            end: domain - 2,
        },
    ];
    for q in cases {
        let direct = q.try_estimate(&*hist).unwrap();
        let wire = match q {
            streamhist_core::Query::RangeSum { start, end } => client.range_sum(start, end),
            streamhist_core::Query::RangeAvg { start, end } => client.range_avg(start, end),
            streamhist_core::Query::Point { idx } => client.point(idx),
            streamhist_core::Query::RangeCount { start, end } => client.range_count(start, end),
        }
        .unwrap();
        assert_eq!(wire.to_bits(), direct.to_bits(), "{q:?}");
    }
    server.shutdown();
}

#[test]
fn value_domain_verbs_answer_over_the_wire() {
    let (server, _state) = start_server(1000, 2);
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    for method in [QuantileMethod::Gk, QuantileMethod::Mrl] {
        let q50 = client.quantile(method, 0.5).unwrap();
        assert!((0.0..=15.0).contains(&q50), "{method:?} median {q50}");
    }
    let sel = client.selectivity(-0.5, 7.0).unwrap();
    assert!((0.3..=0.7).contains(&sel), "selectivity {sel}");
    server.shutdown();
}

#[test]
fn admin_verbs_work_over_the_wire() {
    let (server, state) = start_server(200, 2);
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    let (shards, metrics) = client.shard_stats(0).unwrap();
    assert_eq!(shards, 2);
    assert!(metrics.pushes_accepted > 0);
    let before = state.fleet().metrics_all();
    let bytes = client.checkpoint_all().unwrap();
    assert!(bytes > 0);
    let after = state.fleet().metrics_all();
    for (b, a) in before.iter().zip(&after) {
        assert_eq!(a.checkpoints_taken, b.checkpoints_taken + 1);
    }
    let taken: u64 = before
        .iter()
        .zip(&after)
        .map(|(b, a)| a.checkpoint_bytes - b.checkpoint_bytes)
        .sum();
    assert_eq!(bytes, taken, "the reply is the frame bytes taken");
    let (restored, _lost) = client.respawn_shard(1).unwrap();
    // The fleet checkpoints periodically; the respawned shard restores
    // from whatever its latest checkpoint held (possibly nothing).
    let _ = restored;
    // The fleet still answers queries after the respawn.
    assert!(client.range_count(0, 10).is_ok());
    server.shutdown();
}

#[test]
fn invalid_queries_get_error_frames_and_the_connection_survives() {
    let (server, _state) = start_server(100, 2);
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    let bad = [
        (
            Request::RangeSum { start: 9, end: 3 },
            ErrorCode::InvalidQuery,
        ),
        (Request::Point { idx: usize::MAX }, ErrorCode::InvalidQuery),
        (
            Request::RangeAvg {
                start: 0,
                end: usize::MAX,
            },
            ErrorCode::InvalidQuery,
        ),
        (
            Request::Quantile {
                method: QuantileMethod::Gk,
                phi: 2.0,
            },
            ErrorCode::InvalidQuery,
        ),
        // A NaN argument is unrepresentable on the wire: the codec
        // refuses non-finite floats at decode time, so the server sees a
        // malformed frame, not an invalid query.
        (
            Request::Selectivity {
                lo: f64::NAN,
                hi: 1.0,
            },
            ErrorCode::MalformedFrame,
        ),
        (Request::ShardStats { shard: 1000 }, ErrorCode::InvalidQuery),
        (
            Request::RespawnShard { shard: 1000 },
            ErrorCode::InvalidQuery,
        ),
    ];
    for (req, expected) in bad {
        match client.call(&req) {
            Err(ClientError::Server(e)) => {
                assert_eq!(e.code, expected, "{req:?} -> {e}");
            }
            other => panic!("{req:?} should earn an error frame, got {other:?}"),
        }
        // The same connection still answers the next (valid) request.
        assert!(
            client.range_count(0, 5).is_ok(),
            "connection survived {req:?}"
        );
    }
    server.shutdown();
}

#[test]
fn fuzzed_frames_never_panic_or_hang_the_server() {
    let (server, _state) = start_server(64, 4);
    let addr = server.local_addr();
    let mut rng = StdRng::seed_from_u64(0x5EED_F8A3);

    // 1. Well-framed garbage: correct length prefix, corrupt contents.
    //    Contract: one error frame per frame, connection stays open.
    let mut client = ServeClient::connect(addr).unwrap();
    let template = Request::RangeSum { start: 1, end: 30 }.encode();
    for round in 0..200 {
        let mut frame = template.clone();
        let flips = rng.gen_range(1..4usize);
        for _ in 0..flips {
            let byte = rng.gen_range(0..frame.len());
            let bit = rng.gen_range(0..8u32);
            frame[byte] ^= 1u8 << bit;
        }
        match client.call_raw_frame(&frame) {
            Ok(_) | Err(ClientError::Server(_)) => {}
            other => panic!("round {round}: unexpected {other:?}"),
        }
    }
    // The connection survived 200 rounds of garbage.
    assert!(client.range_count(0, 5).is_ok());

    // 2. Truncated frames: the peer hangs up mid-frame. The server must
    //    neither panic nor leak the worker — a fresh connection works.
    for cut in [0usize, 1, 3, 4, 5, 9] {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut wire = Vec::new();
        let len = u32::try_from(template.len()).unwrap();
        wire.extend_from_slice(&len.to_le_bytes());
        wire.extend_from_slice(&template);
        raw.write_all(&wire[..cut.min(wire.len())]).unwrap();
        drop(raw);
    }

    // 3. Pure random bytes, including illegal length prefixes.
    for _ in 0..50 {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let n = rng.gen_range(1..64usize);
        let junk: Vec<u8> = (0..n).map(|_| rng.gen_range(0..=255u32) as u8).collect();
        let _ = raw.write_all(&junk);
        // Read whatever comes back (error frame or close); bounded by
        // the read timeout, so a hang fails the test.
        let mut sink = [0u8; 256];
        let _ = raw.read(&mut sink);
    }

    // After all of it the server still answers correctly.
    let mut client = ServeClient::connect(addr).unwrap();
    assert!(client.range_sum(0, 10).unwrap().is_finite());
    server.shutdown();
}

#[test]
fn stray_http_client_gets_a_readable_400() {
    let (server, _state) = start_server(10, 1);
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    raw.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut out = String::new();
    raw.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 400"), "{out}");
    assert!(out.contains("binary query port"), "{out}");
    server.shutdown();
}

#[test]
fn concurrent_clients_share_the_worker_pool() {
    let (server, _state) = start_server(500, 4);
    let addr = server.local_addr();
    let threads: Vec<_> = (0..8)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr).unwrap();
                for i in 0..50usize {
                    let hi = 1 + (i + t) % 40;
                    let v = client.range_sum(0, hi).unwrap();
                    assert!(v.is_finite());
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    server.shutdown();
}

#[test]
fn server_options_validate_the_io_deadline() {
    let fleet = FleetHandle::new(ShardedFixedWindow::new(1, 32, 4, 0.2));
    let state = ServeState::new(fleet, Arc::new(MetricsRegistry::new()));
    let err = QueryServer::start_with(
        "127.0.0.1:0",
        state.clone(),
        1,
        ServerOptions {
            io_timeout: Duration::from_micros(500),
            ..ServerOptions::default()
        },
    )
    .expect_err("sub-millisecond deadline must be rejected");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);

    // A custom (legal) deadline serves normally.
    let server = QueryServer::start_with(
        "127.0.0.1:0",
        state.clone(),
        1,
        ServerOptions {
            io_timeout: Duration::from_secs(2),
            ..ServerOptions::default()
        },
    )
    .unwrap();
    state.ingest(0, 1.0).unwrap();
    let _ = state.fleet().snapshot_global();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    assert!(client.range_count(0, 0).is_ok());
    server.shutdown();
}

#[test]
fn health_verb_reports_supervisor_state_end_to_end() {
    let fleet = FleetHandle::new(ShardedFixedWindow::new(2, 128, 8, 0.1));
    // Manual supervisor (no probe thread): the test drives probes so the
    // observed states are deterministic.
    let sup = Supervisor::attach(
        fleet.clone(),
        SupervisorOptions {
            restart_burst: 100,
            quarantine_after: 100,
            flap_window: Duration::ZERO,
            ..SupervisorOptions::default()
        },
    )
    .unwrap();
    let state = ServeState::new(fleet.clone(), Arc::new(MetricsRegistry::new()))
        .with_supervisor(sup.handle());
    for i in 0..100u64 {
        state.ingest(i, (i % 8) as f64).unwrap();
    }
    let server = QueryServer::start("127.0.0.1:0", state, 2).unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();

    sup.probe_once();
    let (supervised, shards) = client.health().unwrap();
    assert!(supervised);
    assert_eq!(shards.len(), 2);
    assert!(shards.iter().all(|h| h.state == ShardState::Live));

    // Kill a worker; the next probe detects and restarts it, and the
    // wire health report shows the restart.
    fleet.inject_worker_panic(1).unwrap().unwrap();
    assert!(!fleet.ping(1, Duration::from_secs(5)).unwrap());
    sup.probe_once();
    let (_, shards) = client.health().unwrap();
    assert_eq!(shards[1].restarts, 1, "{shards:?}");
    server.shutdown();
}

#[test]
fn unsupervised_health_is_synthesized_from_pings_over_the_wire() {
    let (server, _state) = start_server(50, 1);
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    let (supervised, shards) = client.health().unwrap();
    assert!(!supervised);
    assert_eq!(shards.len(), 2);
    assert!(shards.iter().all(|h| h.state == ShardState::Live));
    server.shutdown();
}

#[test]
fn degraded_server_keeps_answering_with_honest_coverage() {
    let fleet = FleetHandle::new(ShardedFixedWindow::new(2, 128, 8, 0.1));
    let state = ServeState::new(fleet.clone(), Arc::new(MetricsRegistry::new()))
        .with_policy(SnapshotPolicy::Degraded { min_coverage: 0.25 });
    for i in 0..200u64 {
        state.ingest(i, (i % 16) as f64).unwrap();
    }
    let _ = fleet.snapshot_global();
    let server = QueryServer::start("127.0.0.1:0", state, 2).unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();

    let (_, coverage) = client
        .call_scalar(&Request::RangeSum { start: 0, end: 5 })
        .unwrap();
    assert!(coverage.is_complete(), "healthy fleet: {coverage}");

    fleet.inject_worker_panic(0).unwrap().unwrap();
    assert!(!fleet.ping(0, Duration::from_secs(5)).unwrap());
    // Advance the live shard so the cached full snapshot goes stale.
    fleet.push(1, 3.0).unwrap();

    let (value, coverage) = client
        .call_scalar(&Request::RangeSum { start: 0, end: 5 })
        .unwrap();
    assert!(value.is_finite());
    assert_eq!(coverage.shards_included, 1);
    assert_eq!(coverage.shards_total, 2);
    assert!(!coverage.is_complete(), "{coverage}");
    assert!(coverage.fraction() < 1.0);
    server.shutdown();
}

#[test]
fn retry_budget_retries_transport_failures_until_the_deadline() {
    let (server, _state) = start_server(50, 2);
    let addr = server.local_addr();
    let mut client = ServeClient::connect(addr)
        .unwrap()
        .with_retry_budget(RetryBudget {
            deadline: Duration::from_millis(300),
            backoff_start: Duration::from_millis(5),
            seed: 7,
        });
    // Healthy server: no retries spent.
    assert!(client.range_count(0, 5).is_ok());
    assert_eq!(client.retries(), 0);

    server.shutdown();
    // Dead server: the budget retries (reconnects fail) and then gives
    // up with the transport error inside the deadline.
    let start = std::time::Instant::now();
    match client.call(&Request::RangeCount { start: 0, end: 5 }) {
        Err(ClientError::Io(_)) => {}
        other => panic!("dead server should surface Io, got {other:?}"),
    }
    assert!(client.retries() > 0, "budget must have retried");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "deadline must bound the call"
    );

    // Mutating admin verbs are never retried, budget or not.
    let before = client.retries();
    assert!(client.respawn_shard(0).is_err());
    assert_eq!(client.retries(), before, "respawn_shard must not retry");
}

#[test]
fn trace_ids_round_trip_byte_identically_on_every_verb() {
    let (server, _state) = start_server(200, 2);
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    // Every verb in the protocol, each sent with a distinct trace id from
    // across the u64 range (0 is a legal client-chosen id; only
    // *server-assigned* ids start at 1).
    let requests = [
        Request::RangeSum { start: 0, end: 9 },
        Request::RangeAvg { start: 0, end: 9 },
        Request::Point { idx: 3 },
        Request::RangeCount { start: 0, end: 9 },
        Request::Quantile {
            method: QuantileMethod::Gk,
            phi: 0.5,
        },
        Request::Quantile {
            method: QuantileMethod::Mrl,
            phi: 0.9,
        },
        Request::Selectivity { lo: 0.0, hi: 8.0 },
        Request::ShardStats { shard: 0 },
        Request::RespawnShard { shard: 1 },
        Request::CheckpointAll,
        Request::WalStatus,
        Request::Health,
        Request::Events { from: 0 },
    ];
    for (i, req) in requests.iter().enumerate() {
        let sent = match i % 4 {
            0 => 0u64,
            1 => u64::MAX,
            2 => 1 + (i as u64) * 0x0101_0101_0101_0101,
            _ => u64::MAX - i as u64,
        };
        client.set_trace(Some(sent));
        client.call(req).unwrap_or_else(|e| panic!("{req:?}: {e}"));
        assert_eq!(
            client.last_trace(),
            Some(sent),
            "{req:?} must echo its trace id byte-identically"
        );
    }
    server.shutdown();
}

#[test]
fn error_frames_echo_the_trace_id_too() {
    let (server, _state) = start_server(100, 2);
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    let bad = [
        Request::RangeSum { start: 9, end: 3 },
        Request::Point { idx: usize::MAX },
        Request::ShardStats { shard: 1000 },
        Request::Quantile {
            method: QuantileMethod::Gk,
            phi: 2.0,
        },
    ];
    for (i, req) in bad.iter().enumerate() {
        let sent = 0xBAD0 + i as u64;
        client.set_trace(Some(sent));
        match client.call(req) {
            Err(ClientError::Server(_)) => {}
            other => panic!("{req:?} should earn an error frame, got {other:?}"),
        }
        assert_eq!(
            client.last_trace(),
            Some(sent),
            "{req:?}: the error frame must carry the request's trace id"
        );
    }
    server.shutdown();
}

#[test]
fn untraced_requests_get_a_server_assigned_trace_echoed_back() {
    let (server, _state) = start_server(100, 2);
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    client.set_trace(None);
    assert_eq!(client.last_trace(), None, "no reply yet");
    client.range_sum(0, 5).unwrap();
    let first = client
        .last_trace()
        .expect("server must assign and echo a trace id");
    assert!(first >= 1, "server-assigned ids start at 1, got {first}");
    client.range_sum(0, 5).unwrap();
    let second = client.last_trace().expect("assigned on every reply");
    assert_ne!(first, second, "each untraced request gets a fresh id");
    // An error reply to an untraced request is assigned one as well.
    let _ = client.call(&Request::RangeSum { start: 7, end: 2 });
    let third = client.last_trace().expect("assigned on error replies too");
    assert!(!([first, second].contains(&third)));
    server.shutdown();
}

#[test]
fn slow_query_threshold_zero_logs_every_request_with_its_trace() {
    let fleet = FleetHandle::new(ShardedFixedWindow::new(2, 128, 8, 0.1));
    let state = ServeState::new(fleet, Arc::new(MetricsRegistry::new()));
    for i in 0..100u64 {
        state.ingest(i, (i % 16) as f64).unwrap();
    }
    state.fleet().snapshot_global().unwrap();
    // Threshold zero: every request is "slow", so the recorder captures a
    // full phase timeline per request — the short-traffic-capture mode.
    let server = QueryServer::start_with(
        "127.0.0.1:0",
        state.clone(),
        2,
        ServerOptions {
            slow_query: Duration::ZERO,
            ..ServerOptions::default()
        },
    )
    .unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    client.set_trace(Some(0xCAFE));
    client.range_sum(0, 9).unwrap();
    let (_, events) = client.events_all(0).unwrap();
    let slow: Vec<_> = events
        .iter()
        .filter_map(|e| match &e.kind {
            streamhist_obs::EventKind::SlowQuery {
                verb,
                trace,
                total_us,
                ..
            } => Some((verb.clone(), *trace, *total_us)),
            _ => None,
        })
        .collect();
    let range_sum = slow
        .iter()
        .find(|(verb, _, _)| verb == "range_sum")
        .expect("the traced range_sum must be in the slow-query log");
    assert_eq!(range_sum.1, Some(0xCAFE), "timeline carries the trace id");
    server.shutdown();
}

/// A thousand valid range-sums on one connection: every reply is an
/// answer, every round trip stays under 50 ms, and the server's
/// slow-query log, armed at the same 50 ms, stays empty. A loopback round
/// trip takes well under a millisecond even in a debug build, so the
/// ceiling catches only order-of-magnitude faults, such as a stall on the
/// answer path or a frame parse that grows with the connection's history.
#[test]
fn sustained_range_sums_answer_fast_with_no_error_frames() {
    const CEILING: Duration = Duration::from_millis(50);
    let fleet = FleetHandle::new(ShardedFixedWindow::new(2, 128, 8, 0.1));
    let state = ServeState::new(fleet, Arc::new(MetricsRegistry::new()));
    for i in 0..400u64 {
        state.ingest(i, (i % 16) as f64).unwrap();
    }
    let domain = state.fleet().snapshot_global().unwrap().0.domain_len();
    let options = ServerOptions {
        slow_query: CEILING,
        ..ServerOptions::default()
    };
    let server = QueryServer::start_with("127.0.0.1:0", state.clone(), 1, options).unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    let mut slowest = Duration::ZERO;
    for i in 0..1000usize {
        let end = 1 + (i * 7) % (domain - 1);
        let start = (i * 3) % end;
        let sent = Instant::now();
        let reply = client.range_sum(start, end);
        slowest = slowest.max(sent.elapsed());
        if let Err(e) = reply {
            panic!("range_sum({start}, {end}) #{i}: {e}");
        }
    }
    assert!(slowest < CEILING, "slowest round trip {slowest:?}");
    let (_, events) = client.events_all(0).unwrap();
    let slow = events
        .iter()
        .filter(|e| matches!(e.kind, streamhist_obs::EventKind::SlowQuery { .. }))
        .count();
    assert_eq!(slow, 0, "slow-query events at a {CEILING:?} threshold");
    server.shutdown();
}

#[test]
fn per_verb_metrics_are_recorded() {
    let (server, state) = start_server(100, 2);
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    for _ in 0..5 {
        client.range_sum(0, 9).unwrap();
    }
    let _ = client.call(&Request::RangeSum { start: 5, end: 1 });
    let expo = state.registry().text_exposition();
    assert!(
        expo.contains("streamhist_serve_requests_total{verb=\"range_sum\"} 6"),
        "{expo}"
    );
    assert!(
        expo.contains("streamhist_serve_errors_total{code=\"invalid_query\"} 1"),
        "{expo}"
    );
    assert!(state.verb_latency("range_sum").snapshot().count >= 6);
    server.shutdown();
}
