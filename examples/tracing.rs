//! End-to-end request tracing: per-stage spans, slow-query capture, and
//! Prometheus-style exposition.
//!
//! Every translation a `TemplarService` serves is traced: the pipeline's
//! stages — candidate pruning, configuration search, join inference, SQL
//! construction, ranking — report non-overlapping wall-clock spans, so a
//! latency regression in any one stage is attributable instead of vanishing
//! into a single end-to-end histogram.  This example walks the three
//! consumer surfaces that tracing feeds:
//!
//! 1. the opt-in `trace` flag on a `TranslateRequest`, returning the
//!    per-stage breakdown (and search counters) with the response,
//! 2. the slow-query ring: the top-N slowest translations with their full
//!    breakdowns, fetched over the wire,
//! 3. the Prometheus text exposition: counters, gauges, and real latency
//!    histograms (end-to-end and per-stage), single- or all-tenant.
//!
//! Run with: `cargo run --release --example tracing`

use datasets::Dataset;
use templar_api::TranslateRequest;
use templar_core::TemplarConfig;
use templar_service::{RegistryClient, ServiceConfig, TemplarService, TenantRegistry};

fn main() {
    let registry = TenantRegistry::new();
    let mas = Dataset::mas();
    let service = TemplarService::spawn(
        mas.db.clone(),
        &mas.full_log(),
        TemplarConfig::paper_defaults(),
        ServiceConfig::default().with_slow_query_capacity(8),
    )
    .expect("dataset and configuration share an obscurity level");
    registry.register("mas", service);
    let client = RegistryClient::new(&registry);

    // 1. Traced translation: the response carries the per-stage breakdown.
    let case = &mas.cases[0];
    println!("NLQ: {}", case.nlq.text);
    let response = client
        .translate(
            TranslateRequest::new("mas", case.nlq.text.clone(), case.nlq.keywords.clone())
                .with_trace(),
        )
        .expect("benchmark NLQs translate");
    println!("top SQL: {}", response.best().expect("candidates").sql);

    let report = response.trace.as_ref().expect("trace was requested");
    let breakdown = &report.breakdown;
    println!(
        "\nper-stage breakdown of {} µs (search: {} tuples scored, {} pruned):",
        breakdown.total_us(),
        report.search.tuples_scored,
        report.search.tuples_pruned,
    );
    for span in &breakdown.stages {
        println!(
            "  {:<18} {:>8.1} µs across {} call(s)",
            span.stage,
            span.nanos as f64 / 1_000.0,
            span.calls
        );
    }
    let attributed = breakdown.stage_sum_nanos();
    assert!(
        attributed <= breakdown.total_nanos,
        "spans are non-overlapping, so they sum to at most the total"
    );
    println!(
        "  {:<18} {:>8.1} µs (glue: snapshot load, scoring bookkeeping)",
        "unattributed",
        (breakdown.total_nanos - attributed) as f64 / 1_000.0
    );
    println!(
        "  {:<18} {:>8.1} µs (the best-first walk inside config_search)",
        "search walk",
        breakdown.search_worker_nanos as f64 / 1_000.0
    );

    // Warm the histograms and the slow-query ring with the whole benchmark.
    for case in &mas.cases {
        let _ = client.translate(TranslateRequest::new(
            "mas",
            case.nlq.text.clone(),
            case.nlq.keywords.clone(),
        ));
    }

    // 2. The slow-query ring: the slowest requests, with their breakdowns.
    let slow = client.slow_queries("mas").expect("tenant exists");
    println!(
        "\nslowest {} of {} translations:",
        slow.len(),
        1 + mas.cases.len()
    );
    for entry in slow.iter().take(3) {
        let dominant = entry
            .trace
            .stages
            .iter()
            .max_by_key(|s| s.nanos)
            .expect("five stages");
        println!(
            "  #{:<3} {:>6} µs  (dominant: {} at {:.1} µs)  {}",
            entry.seq,
            entry.total_us,
            dominant.stage,
            dominant.nanos as f64 / 1_000.0,
            entry.question,
        );
    }

    // 3. Prometheus text exposition, straight off the wire.
    let text = client.prometheus(Some("mas")).expect("tenant exists");
    println!("\nPrometheus exposition (histogram families):");
    for line in text
        .lines()
        .filter(|l| l.contains("templar_translate_latency_microseconds"))
        .take(12)
    {
        println!("  {line}");
    }
    let samples = text.lines().filter(|l| !l.starts_with('#')).count();
    println!("  … {samples} samples total");
}
