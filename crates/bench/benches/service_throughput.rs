//! Benchmark: the serving path, in-process and over real sockets.
//!
//! Part one keeps the historical in-process measurements: concurrent
//! translation throughput of `TemplarService` with and without ingestion
//! pressure (the `with_ingest` variant floods the queue while a worker
//! swaps snapshots, asserting reads were never blocked).
//!
//! Part two is the closed-loop **socket load harness** against a live
//! `TemplarServer`: mixed translate/ingest/feedback traffic from
//! concurrent TCP clients over each codec, client-measured latency
//! percentiles, a fixed-offered-load overload phase that records the shed
//! rate, and a wire-bound codec phase (large `MetricsReport` bodies) that
//! isolates JSON-vs-binary framing cost.  Results are printed and, with
//! `BENCH_JSON=1`, emitted as `BENCHJSON` lines for
//! `tools/bench_snapshot.sh` (`p50_us`/`p99_us`/`shed_rate`/bytes per
//! request).  `--test` runs the whole harness in smoke mode.

use criterion::{criterion_group, Criterion};
use datasets::Dataset;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use templar_api::{ApiError, TranslateRequest};
use templar_core::TemplarConfig;
use templar_server::{ClientError, ServerConfig, TcpClient, TemplarServer};
use templar_service::{ServiceConfig, TemplarService, TenantRegistry};

fn bench_service(c: &mut Criterion) {
    let dataset = Dataset::mas();
    let log = dataset.full_log();
    let nlq = dataset.cases[0].nlq.clone();
    // Recycled ingestion traffic: the benchmark's own gold SQL.
    let traffic: Vec<String> = dataset
        .cases
        .iter()
        .map(|case| case.gold_sql.to_string())
        .collect();

    let mut group = c.benchmark_group("service");
    group.sample_size(20);

    // Baseline: translations with a quiet ingestion queue.
    {
        let service = TemplarService::spawn(
            dataset.db.clone(),
            &log,
            TemplarConfig::paper_defaults(),
            ServiceConfig::default(),
        )
        .unwrap();
        group.bench_function("translate/quiet", |b| {
            b.iter(|| service.translate(&nlq).map(|r| r.len()).unwrap_or(0))
        });
    }

    // Under pressure: a producer floods the queue and the worker swaps a
    // fresh snapshot every 8 applied entries.
    {
        let service = Arc::new(
            TemplarService::spawn(
                dataset.db.clone(),
                &log,
                TemplarConfig::paper_defaults(),
                ServiceConfig::default()
                    .with_refresh_every(8)
                    .with_refresh_interval(Duration::from_millis(1))
                    .with_queue_capacity(4096),
            )
            .unwrap(),
        );
        let stop = Arc::new(AtomicBool::new(false));
        let submitted = Arc::new(AtomicU64::new(0));
        let producer = {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            let submitted = Arc::clone(&submitted);
            let traffic = traffic.clone();
            std::thread::spawn(move || {
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    if service.submit_sql(&traffic[i % traffic.len()]).is_ok() {
                        submitted.fetch_add(1, Ordering::Relaxed);
                    }
                    i += 1;
                    if i.is_multiple_of(64) {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
            })
        };

        group.bench_function("translate/with_ingest", |b| {
            b.iter(|| service.translate(&nlq).map(|r| r.len()).unwrap_or(0))
        });

        stop.store(true, Ordering::Relaxed);
        producer.join().unwrap();
        let metrics = service.metrics();
        assert!(
            metrics.snapshot_swaps >= 1,
            "ingestion must have published snapshots during the benchmark"
        );
        assert!(
            metrics.translations_served > 0,
            "translations must have proceeded during ingestion"
        );
        println!(
            "service/with_ingest: {} translations served concurrently with {} applied \
             ingests across {} snapshot swaps (p50 {} µs, p99 {} µs, ingest lag {})",
            metrics.translations_served,
            metrics.ingest_applied,
            metrics.snapshot_swaps,
            metrics.translate_p50_us,
            metrics.translate_p99_us,
            metrics.ingest_lag,
        );
    }

    // Raw ingestion throughput: how fast entries are accepted and absorbed.
    {
        let service = Arc::new(
            TemplarService::spawn(
                dataset.db.clone(),
                &log,
                TemplarConfig::paper_defaults(),
                ServiceConfig::default().with_queue_capacity(100_000),
            )
            .unwrap(),
        );
        let mut i = 0usize;
        group.bench_function("ingest/submit", |b| {
            b.iter(|| {
                let _ = service.submit_sql(&traffic[i % traffic.len()]);
                i += 1;
            })
        });
        service.flush();
    }

    group.finish();
}

// ---------------------------------------------------------------------------
// Socket load harness
// ---------------------------------------------------------------------------

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

fn emit_load_json(id: &str, outcome: &LoadOutcome, bytes_per_request: u64) {
    let mut sorted = outcome.latencies_us.clone();
    sorted.sort_unstable();
    let p50 = percentile(&sorted, 0.50);
    let p99 = percentile(&sorted, 0.99);
    let mean = if sorted.is_empty() {
        0
    } else {
        sorted.iter().sum::<u64>() / sorted.len() as u64
    };
    let shed_rate = if outcome.requests == 0 {
        0.0
    } else {
        outcome.sheds as f64 / outcome.requests as f64
    };
    println!(
        "{id:<50} p50 {p50} µs, p99 {p99} µs, shed rate {shed_rate:.3}, \
         {bytes_per_request} wire bytes/request"
    );
    if std::env::var_os("BENCH_JSON").is_some() {
        println!(
            "BENCHJSON {{\"id\":\"{id}\",\"requests\":{},\"p50_us\":{p50},\"p99_us\":{p99},\
             \"mean_us\":{mean},\"shed_rate\":{shed_rate:.4},\"bytes_per_request\":{bytes_per_request}}}",
            outcome.requests
        );
    }
}

/// Closed-loop clients: each thread keeps exactly one request in flight,
/// so offered load is `threads` concurrent requests.
fn drive_closed_loop(
    addr: std::net::SocketAddr,
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

fn socket_load_harness(smoke: bool) {
    let dataset = Arc::new(Dataset::mas());
    let threads = 4usize;
    let per_thread = if smoke { 4 } else { 128 };
    let codec_roundtrips = if smoke { 4 } else { 512 };

    println!("\nsocket load harness (closed loop, {threads} clients):");

    // Capacity phase: quota far above offered load — zero sheds expected,
    // pure serving latency per codec.
    {
        let (_registry, server) = start_plane(&dataset, 256);
        for (label, binary) in [("serving_load/json", false), ("serving_load/binary", true)] {
            let before = server.stats();
            let outcome = drive_closed_loop(
                server.local_addr(),
                &dataset,
                binary,
                threads,
                per_thread,
                false,
            );
            let after = server.stats();
            let wire_bytes = (after.bytes_read - before.bytes_read)
                + (after.bytes_written - before.bytes_written);
            emit_load_json(label, &outcome, wire_bytes / outcome.requests.max(1));
            assert_eq!(outcome.sheds, 0, "capacity phase must not shed");
        }
    }

    // Overload phase: fixed offered load (4 concurrent translates) against
    // a tenant quota of 1 — the shed rate is the admission ladder working.
    {
        let (_registry, server) = start_plane(&dataset, 1);
        for (label, binary) in [
            ("serving_overload/json", false),
            ("serving_overload/binary", true),
        ] {
            let before = server.stats();
            let outcome = drive_closed_loop(
                server.local_addr(),
                &dataset,
                binary,
                threads,
                per_thread,
                true,
            );
            let after = server.stats();
            let wire_bytes = (after.bytes_read - before.bytes_read)
                + (after.bytes_written - before.bytes_written);
            emit_load_json(label, &outcome, wire_bytes / outcome.requests.max(1));
            if !smoke {
                assert!(outcome.sheds > 0, "offered load 4x a quota of 1 must shed");
            }
            assert!(
                outcome.latencies_us.len() as u64 + outcome.sheds == outcome.requests,
                "every request must be answered or typed-shed"
            );
        }
    }

    // Codec phase: single client, wire-bound bodies (a full MetricsReport
    // with both latency histograms) — isolates framing cost, where the
    // binary codec's win must be measurable.
    {
        let (_registry, server) = start_plane(&dataset, 256);
        let addr = server.local_addr();
        let mut results = Vec::new();
        for (label, binary) in [
            ("serving_codec/json", false),
            ("serving_codec/binary", true),
        ] {
            let mut client = if binary {
                TcpClient::connect_binary(addr).unwrap()
            } else {
                TcpClient::connect_json(addr).unwrap()
            };
            let before = server.stats();
            let mut latencies = Vec::with_capacity(codec_roundtrips);
            for _ in 0..codec_roundtrips {
                let started = Instant::now();
                client.metrics("mas").unwrap();
                latencies.push(started.elapsed().as_micros() as u64);
            }
            let after = server.stats();
            let wire_bytes = (after.bytes_read - before.bytes_read)
                + (after.bytes_written - before.bytes_written);
            let outcome = LoadOutcome {
                latencies_us: latencies,
                sheds: 0,
                requests: codec_roundtrips as u64,
            };
            let per_request = wire_bytes / codec_roundtrips as u64;
            emit_load_json(label, &outcome, per_request);
            results.push(per_request);
        }
        assert!(
            results[1] < results[0],
            "binary framing must be denser than JSON ({} vs {} bytes/request)",
            results[1],
            results[0]
        );
    }
}

// ---------------------------------------------------------------------------
// Translation-cache phases (Zipfian repeat traffic)
// ---------------------------------------------------------------------------

/// Deterministic Zipf(s=1) sampler over `n` ranks, driven by a fixed-seed
/// xorshift64* — benchmark traffic must be reproducible across runs.
struct Zipf {
    cdf: Vec<f64>,
    state: u64,
}

impl Zipf {
    fn new(n: usize) -> Self {
        let weights: Vec<f64> = (1..=n).map(|rank| 1.0 / rank as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf {
            cdf,
            state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn next(&mut self) -> usize {
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        let bits = self.state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11;
        let u = bits as f64 / (1u64 << 53) as f64;
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

fn emit_cache_json(id: &str, latencies: &[u64], hit_rate: f64) {
    let mut sorted = latencies.to_vec();
    sorted.sort_unstable();
    let p50 = percentile(&sorted, 0.50);
    let p99 = percentile(&sorted, 0.99);
    let mean = sorted.iter().sum::<u64>() / sorted.len().max(1) as u64;
    println!("{id:<50} p50 {p50} µs, p99 {p99} µs, hit rate {hit_rate:.3}");
    if std::env::var_os("BENCH_JSON").is_some() {
        println!(
            "BENCHJSON {{\"id\":\"{id}\",\"draws\":{},\"p50_us\":{p50},\"p99_us\":{p99},\
             \"mean_us\":{mean},\"hit_rate\":{hit_rate:.4}}}",
            latencies.len()
        );
    }
}

/// Hot-repeat vs cold-miss serving under Zipfian question traffic.  The
/// cold phase forces a full computation per draw (`bypass_cache`); the hot
/// phase replays the same draw sequence through the snapshot's cache, so
/// the first touch of each distinct question misses and every repeat hits.
/// Every cached answer is asserted byte-identical to a forced recompute on
/// the same snapshot before the numbers are reported.
fn translation_cache_phase(smoke: bool) {
    let dataset = Dataset::mas();
    let service = TemplarService::spawn(
        dataset.db.clone(),
        &dataset.full_log(),
        TemplarConfig::paper_defaults(),
        ServiceConfig::default(),
    )
    .unwrap();

    let pool_size = if smoke { 4 } else { dataset.cases.len() };
    let pool: Vec<TranslateRequest> = (0..pool_size).map(|i| wire_request(&dataset, i)).collect();
    let draws = if smoke { 8 } else { 2048 };
    let mut zipf = Zipf::new(pool.len());
    let sequence: Vec<usize> = (0..draws).map(|_| zipf.next()).collect();

    println!(
        "\ntranslation cache (Zipfian over {} distinct questions, {draws} draws):",
        pool.len()
    );

    let mut cold = Vec::with_capacity(draws);
    for &i in &sequence {
        let request = pool[i].clone().with_bypass_cache();
        let started = Instant::now();
        service.translate_request(&request).unwrap();
        cold.push(started.elapsed().as_micros() as u64);
    }
    emit_cache_json("translation_cache/cold_miss", &cold, 0.0);

    let mut hot = Vec::with_capacity(draws);
    for &i in &sequence {
        let started = Instant::now();
        service.translate_request(&pool[i]).unwrap();
        hot.push(started.elapsed().as_micros() as u64);
    }
    let metrics = service.metrics();
    let looked_up = metrics.translation_cache_hits + metrics.translation_cache_misses;
    let hit_rate = metrics.translation_cache_hits as f64 / looked_up.max(1) as f64;
    for request in &pool {
        let cached = service.translate_request(request).unwrap();
        let forced = service
            .translate_request(&request.clone().with_bypass_cache())
            .unwrap();
        assert_eq!(
            serde_json::to_string(&cached).unwrap(),
            serde_json::to_string(&forced).unwrap(),
            "a cache hit must be byte-identical to a recompute on the same snapshot"
        );
    }
    emit_cache_json("translation_cache/hot_repeat", &hot, hit_rate);
    service.shutdown();
}

criterion_group!(benches, bench_service);

fn main() {
    criterion::configure_from_args();
    let smoke = std::env::args().any(|a| a == "--test");
    benches();
    socket_load_harness(smoke);
    translation_cache_phase(smoke);
}
