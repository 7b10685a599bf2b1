//! Benchmark: the closed-loop **socket load harness** against a live
//! `TemplarServer`, over each codec.  Concurrent TCP clients send mixed
//! translate/ingest/feedback traffic and record client-measured latency
//! percentiles (capacity phase); a fixed offered load against a tenant
//! quota of 1 records the shed rate (overload phase); and a single client
//! fetching wire-bound bodies (large `MetricsReport`s) isolates JSON-vs-
//! binary framing cost (codec phase).  Every line also reports wire bytes
//! per request.  `--test` runs the whole harness in smoke mode.

use datasets::Dataset;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;
use templar_api::{ApiError, TranslateRequest};
use templar_core::TemplarConfig;
use templar_server::{ClientError, ServerConfig, TcpClient, TemplarServer};
use templar_service::{ServiceConfig, TemplarService, TenantRegistry};

/// The Nlq of one dataset case as a wire request.
fn wire_request(dataset: &Dataset, case: usize) -> TranslateRequest {
    let nlq = &dataset.cases[case % dataset.cases.len()].nlq;
    TranslateRequest::new("mas", nlq.text.clone(), nlq.keywords.clone())
}

struct LoadOutcome {
    latencies_us: Vec<u64>,
    sheds: u64,
    requests: u64,
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[rank.min(sorted_us.len() - 1)]
}

fn print_outcome(id: &str, outcome: &LoadOutcome, bytes_per_request: u64) {
    let mut sorted = outcome.latencies_us.clone();
    sorted.sort_unstable();
    let shed_rate = if outcome.requests == 0 {
        0.0
    } else {
        outcome.sheds as f64 / outcome.requests as f64
    };
    println!(
        "{id:<50} p50 {} µs, p99 {} µs, shed rate {shed_rate:.3}, \
         {bytes_per_request} wire bytes/request",
        percentile(&sorted, 0.50),
        percentile(&sorted, 0.99),
    );
}

/// Closed-loop clients: each thread keeps exactly one request in flight,
/// so offered load is `threads` concurrent requests.
fn drive_closed_loop(
    addr: SocketAddr,
    dataset: &Arc<Dataset>,
    binary: bool,
    threads: usize,
    requests_per_thread: usize,
    translate_only: bool,
) -> LoadOutcome {
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let dataset = Arc::clone(dataset);
            std::thread::spawn(move || {
                let mut client = if binary {
                    TcpClient::connect_binary(addr).unwrap()
                } else {
                    TcpClient::connect_json(addr).unwrap()
                };
                let mut latencies = Vec::with_capacity(requests_per_thread);
                let mut sheds = 0u64;
                for i in 0..requests_per_thread {
                    let started = Instant::now();
                    // Mixed traffic: 70% translate, 20% ingest, 10% feedback.
                    let result = if translate_only || i % 10 < 7 {
                        client
                            .translate(wire_request(&dataset, t * 31 + i))
                            .map(|_| ())
                    } else if i % 10 < 9 {
                        let sql = dataset.cases[i % dataset.cases.len()].gold_sql.to_string();
                        client.submit_sql("mas", &sql)
                    } else {
                        let sql = dataset.cases[i % dataset.cases.len()].gold_sql.to_string();
                        client.feedback("mas", &sql)
                    };
                    match result {
                        Ok(()) => latencies.push(started.elapsed().as_micros() as u64),
                        Err(ClientError::Api(ApiError::Backpressure)) => sheds += 1,
                        Err(other) => panic!("load harness hit {other:?}"),
                    }
                }
                (latencies, sheds)
            })
        })
        .collect();
    let mut outcome = LoadOutcome {
        latencies_us: Vec::new(),
        sheds: 0,
        requests: (threads * requests_per_thread) as u64,
    };
    for handle in handles {
        let (latencies, sheds) = handle.join().unwrap();
        outcome.latencies_us.extend(latencies);
        outcome.sheds += sheds;
    }
    outcome
}

fn start_plane(dataset: &Dataset, tenant_quota: usize) -> (Arc<TenantRegistry>, TemplarServer) {
    let registry = Arc::new(TenantRegistry::new());
    let service = TemplarService::spawn(
        dataset.db.clone(),
        &dataset.full_log(),
        TemplarConfig::paper_defaults(),
        ServiceConfig::default()
            .with_queue_capacity(100_000)
            .with_max_inflight(tenant_quota),
    )
    .unwrap();
    registry.register("mas", service);
    let server = TemplarServer::start(
        Arc::clone(&registry),
        ServerConfig::default().with_workers(4),
    )
    .unwrap();
    (registry, server)
}

/// Run one phase on a plane of its own and print its line.  The reactor
/// counts a response's bytes only after its `write` returns, so a client
/// can hold its last answer before the counters include it; reading them
/// after `shutdown` has joined the reactor counts every byte.
fn run_phase(
    id: &str,
    dataset: &Dataset,
    tenant_quota: usize,
    drive: impl FnOnce(SocketAddr) -> LoadOutcome,
) -> (LoadOutcome, u64) {
    let (_registry, mut server) = start_plane(dataset, tenant_quota);
    let outcome = drive(server.local_addr());
    server.shutdown();
    let stats = server.stats();
    let per_request = (stats.bytes_read + stats.bytes_written) / outcome.requests.max(1);
    print_outcome(id, &outcome, per_request);
    (outcome, per_request)
}

const CODECS: [(&str, bool); 2] = [("json", false), ("binary", true)];

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let dataset = Arc::new(Dataset::mas());
    let threads = 4usize;
    let per_thread = if smoke { 4 } else { 128 };
    let codec_roundtrips = if smoke { 4 } else { 512 };

    println!("socket load harness (closed loop, {threads} clients):");

    // Capacity phase: quota far above offered load — zero sheds expected,
    // pure serving latency per codec.
    for (codec, binary) in CODECS {
        let (outcome, _) = run_phase(&format!("serving_load/{codec}"), &dataset, 256, |addr| {
            drive_closed_loop(addr, &dataset, binary, threads, per_thread, false)
        });
        assert_eq!(outcome.sheds, 0, "capacity phase must not shed");
    }

    // Overload phase: fixed offered load (4 concurrent translates) against
    // a tenant quota of 1 — the shed rate is the admission ladder working.
    for (codec, binary) in CODECS {
        let (outcome, _) = run_phase(&format!("serving_overload/{codec}"), &dataset, 1, |addr| {
            drive_closed_loop(addr, &dataset, binary, threads, per_thread, true)
        });
        if !smoke {
            assert!(outcome.sheds > 0, "offered load 4x a quota of 1 must shed");
        }
        assert!(
            outcome.latencies_us.len() as u64 + outcome.sheds == outcome.requests,
            "every request must be answered or typed-shed"
        );
    }

    // Codec phase: single client, wire-bound bodies (a full MetricsReport
    // with both latency histograms) — isolates framing cost, where the
    // binary codec's win must be measurable.
    let per_request: Vec<u64> = CODECS
        .iter()
        .map(|&(codec, binary)| {
            let (_, per_request) =
                run_phase(&format!("serving_codec/{codec}"), &dataset, 256, |addr| {
                    let mut client = if binary {
                        TcpClient::connect_binary(addr).unwrap()
                    } else {
                        TcpClient::connect_json(addr).unwrap()
                    };
                    let latencies_us = (0..codec_roundtrips)
                        .map(|_| {
                            let started = Instant::now();
                            client.metrics("mas").unwrap();
                            started.elapsed().as_micros() as u64
                        })
                        .collect();
                    LoadOutcome {
                        latencies_us,
                        sheds: 0,
                        requests: codec_roundtrips as u64,
                    }
                });
            per_request
        })
        .collect();
    assert!(
        per_request[1] < per_request[0],
        "binary framing must be denser than JSON ({} vs {} bytes/request)",
        per_request[1],
        per_request[0]
    );
}
