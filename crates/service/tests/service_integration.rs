//! Integration tests for the concurrent serving subsystem: live ingestion
//! sharpening translations, reads proceeding during ingestion, snapshot
//! persistence round-trips, and the host-system wire-through.

use nlidb::{NlidbSystem, Nlq, PipelineSystem};
use relational::{DataType, Database, Schema};
use sqlparse::{canon, parse_query, BinOp};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use templar_api::MetricsReport;
use templar_core::{Keyword, KeywordMetadata, Obscurity, QueryLog, TemplarConfig};
use templar_service::{ServiceConfig, ServiceError, TemplarService};

fn academic_db() -> Arc<Database> {
    let schema = Schema::builder("academic")
        .relation(
            "publication",
            &[
                ("pid", DataType::Integer),
                ("title", DataType::Text),
                ("year", DataType::Integer),
                ("jid", DataType::Integer),
            ],
            Some("pid"),
        )
        .relation(
            "journal",
            &[("jid", DataType::Integer), ("name", DataType::Text)],
            Some("jid"),
        )
        .foreign_key("publication", "jid", "journal", "jid")
        .build();
    let mut db = Database::new(schema);
    db.insert(
        "publication",
        vec![1.into(), "Query Processing".into(), 2003.into(), 1.into()],
    )
    .unwrap();
    db.insert(
        "publication",
        vec![2.into(), "Data Integration".into(), 1997.into(), 2.into()],
    )
    .unwrap();
    db.insert("journal", vec![1.into(), "TKDE".into()]).unwrap();
    db.insert("journal", vec![2.into(), "TMC".into()]).unwrap();
    Arc::new(db)
}

fn papers_after_2000() -> Nlq {
    Nlq::new(
        "Return the papers after 2000",
        vec![
            (Keyword::new("papers"), KeywordMetadata::select()),
            (
                Keyword::new("after 2000"),
                KeywordMetadata::filter_with_op(BinOp::Gt),
            ),
        ],
        vec![],
    )
}

fn fast_refresh() -> ServiceConfig {
    ServiceConfig::default()
        .with_refresh_every(4)
        .with_refresh_interval(Duration::from_millis(20))
}

#[test]
fn ingested_queries_become_visible_and_sharpen_translations() {
    let service = TemplarService::spawn(
        academic_db(),
        &QueryLog::new(),
        TemplarConfig::paper_defaults(),
        fast_refresh(),
    )
    .unwrap();
    assert_eq!(service.metrics().qfg_queries, 0);

    // Serve one translation against the empty-log snapshot.
    let before = service.translate(&papers_after_2000()).unwrap();

    // The service's own traffic gets logged back in.
    for sql in [
        "SELECT p.title FROM publication p WHERE p.year > 1995",
        "SELECT p.title FROM publication p WHERE p.year > 2010",
        "SELECT p.title FROM publication p, journal j WHERE j.name = 'TKDE' AND p.jid = j.jid",
    ] {
        service.submit_sql(sql).unwrap();
    }
    service.flush();

    let metrics = service.metrics();
    assert_eq!(metrics.ingest_applied, 3);
    assert_eq!(metrics.qfg_queries, 3, "snapshot must reflect the ingests");
    assert!(metrics.snapshot_swaps >= 1);
    assert!(metrics.qfg_fragments > 0);

    // With the log absorbed, the top translation is the paper's intended one.
    let after = service.translate(&papers_after_2000()).unwrap();
    assert!(!before.is_empty() && !after.is_empty());
    let gold = parse_query("SELECT p.title FROM publication p WHERE p.year > 2000").unwrap();
    assert!(
        canon::equivalent(&after[0].query, &gold),
        "top-1 after ingestion was: {}",
        after[0].query
    );

    let m = service.metrics();
    assert_eq!(m.translations_served, 2);
    assert!(m.translate_p50_us > 0);
    assert!(m.translate_p99_us >= m.translate_p50_us);
    // Both translations ran the best-first configuration search; the
    // academic requests fit comfortably inside the default budget, so the
    // rankings were provably exact.
    assert!(m.search_tuples_scored > 0);
    assert_eq!(m.search_budget_exhausted, 0);
    for candidate in &after {
        assert!(!candidate.explanation.search_budget_exhausted);
    }
}

#[test]
fn unparsable_ingests_are_counted_not_fatal() {
    let service = TemplarService::spawn(
        academic_db(),
        &QueryLog::new(),
        TemplarConfig::paper_defaults(),
        fast_refresh(),
    )
    .unwrap();
    service.submit_sql("THIS IS NOT SQL AT ALL").unwrap();
    service
        .submit_sql("SELECT p.title FROM publication p")
        .unwrap();
    service.flush();
    let m = service.metrics();
    assert_eq!(m.ingest_parse_errors, 1);
    assert_eq!(m.ingest_applied, 1);
    assert_eq!(m.qfg_queries, 1);
    assert_eq!(m.ingest_lag, 0);
}

#[test]
fn reads_proceed_while_ingestion_is_in_flight() {
    let service = Arc::new(
        TemplarService::spawn(
            academic_db(),
            &QueryLog::new(),
            TemplarConfig::paper_defaults(),
            // Swap on every applied entry to maximise rebuild pressure.
            ServiceConfig::default()
                .with_refresh_every(1)
                .with_refresh_interval(Duration::from_millis(1))
                .with_queue_capacity(10_000),
        )
        .unwrap(),
    );

    let stop = Arc::new(AtomicBool::new(false));
    let reads_done = Arc::new(AtomicU64::new(0));
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            let reads_done = Arc::clone(&reads_done);
            std::thread::spawn(move || {
                let nlq = papers_after_2000();
                while !stop.load(Ordering::Relaxed) {
                    let results = service.translate(&nlq);
                    assert!(results.is_ok(), "translation must not fail mid-ingest");
                    reads_done.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    // Hammer ingestion while the readers run.
    for i in 0..300 {
        let year = 1980 + (i % 40);
        let _ = service.submit_sql(&format!(
            "SELECT p.title FROM publication p WHERE p.year > {year}"
        ));
    }
    service.flush();
    let reads_during_ingest = reads_done.load(Ordering::Relaxed);
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }

    let m = service.metrics();
    assert!(
        reads_during_ingest > 0,
        "readers must make progress while snapshots are being rebuilt"
    );
    assert!(m.snapshot_swaps >= 1);
    assert_eq!(m.ingest_lag, 0);
    assert_eq!(m.qfg_queries, m.ingest_applied);
}

#[test]
fn snapshot_round_trip_restores_the_serving_state() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("templar-svc-snap-{}.snap", std::process::id()));

    let service = TemplarService::spawn(
        academic_db(),
        &QueryLog::new(),
        TemplarConfig::paper_defaults(),
        fast_refresh(),
    )
    .unwrap();
    for sql in [
        "SELECT p.title FROM publication p WHERE p.year > 1995",
        "SELECT j.name FROM journal j",
        "SELECT p.title FROM publication p, journal j WHERE j.name = 'TKDE' AND p.jid = j.jid",
    ] {
        service.submit_sql(sql).unwrap();
    }
    service.flush();
    service.save_snapshot(&path).unwrap();
    let saved_metrics = service.metrics();
    drop(service);

    let restored = TemplarService::spawn_from_snapshot(
        academic_db(),
        &path,
        TemplarConfig::paper_defaults(),
        fast_refresh(),
    )
    .unwrap();
    let m = restored.metrics();
    assert_eq!(m.qfg_queries, saved_metrics.qfg_queries);
    assert_eq!(m.qfg_fragments, saved_metrics.qfg_fragments);
    assert_eq!(m.qfg_edges, saved_metrics.qfg_edges);

    // The restored service serves the same translation.
    let results = restored.translate(&papers_after_2000()).unwrap();
    let gold = parse_query("SELECT p.title FROM publication p WHERE p.year > 2000").unwrap();
    assert!(canon::equivalent(&results[0].query, &gold));

    // And keeps ingesting from where it left off.
    restored
        .submit_sql("SELECT p.title FROM publication p WHERE p.year > 2015")
        .unwrap();
    restored.flush();
    assert_eq!(
        restored.metrics().qfg_queries,
        saved_metrics.qfg_queries + 1
    );

    std::fs::remove_file(&path).ok();
}

#[test]
fn spawn_from_sql_counts_skipped_statements() {
    let service = TemplarService::spawn_from_sql(
        academic_db(),
        [
            "SELECT p.title FROM publication p WHERE p.year > 1995",
            "% totally not SQL %",
            "SELECT j.name FROM journal j",
            "ALSO NOT SQL",
        ],
        TemplarConfig::paper_defaults(),
        fast_refresh(),
    )
    .unwrap();
    let m = service.metrics();
    assert_eq!(m.log_skipped_statements, 2);
    assert_eq!(m.qfg_queries, 2);
    // The live-path parse-error counter stays independent.
    assert_eq!(m.ingest_parse_errors, 0);
    // Columnar gauges are populated: a published snapshot is compacted.
    assert_eq!(m.qfg_pending_deltas, 0);
    assert_eq!(m.qfg_interned_fragments, m.qfg_fragments);
    assert_eq!(m.qfg_csr_edges, m.qfg_edges);
    assert!(m.qfg_compactions >= 1);
}

#[test]
fn snapshot_with_wrong_obscurity_is_refused() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("templar-svc-obsc-{}.snap", std::process::id()));

    let service = TemplarService::spawn(
        academic_db(),
        &QueryLog::new(),
        TemplarConfig::paper_defaults().with_obscurity(Obscurity::NoConst),
        fast_refresh(),
    )
    .unwrap();
    service
        .submit_sql("SELECT p.title FROM publication p")
        .unwrap();
    service.flush();
    service.save_snapshot(&path).unwrap();
    drop(service);

    let err = TemplarService::spawn_from_snapshot(
        academic_db(),
        &path,
        TemplarConfig::paper_defaults().with_obscurity(Obscurity::NoConstOp),
        fast_refresh(),
    )
    .err()
    .expect("obscurity mismatch must be rejected");
    assert!(matches!(err, ServiceError::Snapshot(_)), "got: {err}");

    std::fs::remove_file(&path).ok();
}

#[test]
fn host_systems_ride_the_live_handle() {
    let service = TemplarService::spawn(
        academic_db(),
        &QueryLog::new(),
        TemplarConfig::paper_defaults(),
        fast_refresh(),
    )
    .unwrap();
    let system = PipelineSystem::serving(service.handle());
    assert_eq!(system.name(), "Pipeline+live");

    let before_qfg = system.templar().qfg().query_count();
    assert_eq!(before_qfg, 0);

    for sql in [
        "SELECT p.title FROM publication p WHERE p.year > 1995",
        "SELECT p.title FROM publication p WHERE p.year > 2010",
    ] {
        service.submit_sql(sql).unwrap();
    }
    service.flush();

    // Without reconstruction, the same system object now sees the refreshed
    // snapshot and translates with log evidence.
    assert_eq!(system.templar().qfg().query_count(), 2);
    let results = system.translate(&papers_after_2000()).unwrap();
    let gold = parse_query("SELECT p.title FROM publication p WHERE p.year > 2000").unwrap();
    assert!(
        canon::equivalent(&results[0].query, &gold),
        "top-1 was: {}",
        results[0].query
    );
}

#[test]
fn shutdown_publishes_pending_ingests() {
    let service = TemplarService::spawn(
        academic_db(),
        &QueryLog::new(),
        TemplarConfig::paper_defaults(),
        // Refresh thresholds the test will NOT reach before shutdown.
        ServiceConfig::default()
            .with_refresh_every(1_000_000)
            .with_refresh_interval(Duration::from_secs(3600)),
    )
    .unwrap();
    let handle = service.handle();
    service
        .submit_sql("SELECT p.title FROM publication p")
        .unwrap();
    service.shutdown();
    assert_eq!(
        handle.load().qfg().query_count(),
        1,
        "shutdown must flush pending entries into a final snapshot"
    );
}

#[test]
fn translation_cache_hits_are_byte_identical_and_publish_invalidates() {
    use templar_api::TranslateRequest;

    // Only `flush` publishes, so every publish below is one the test made.
    let service = TemplarService::spawn(
        academic_db(),
        &QueryLog::new(),
        TemplarConfig::paper_defaults(),
        ServiceConfig::default()
            .with_refresh_every(1_000_000)
            .with_refresh_interval(Duration::from_secs(3600)),
    )
    .unwrap();
    let nlq = papers_after_2000();
    let request = TranslateRequest::new("academic", &nlq.text, nlq.keywords.clone());

    // First request computes and populates; the repeat is served cached.
    let computed = service.translate_request(&request).unwrap();
    let cached = service.translate_request(&request).unwrap();
    // Byte-identity: identical as structs AND as encoded wire bytes.
    assert_eq!(cached, computed);
    assert_eq!(
        serde_json::to_string(&cached).unwrap(),
        serde_json::to_string(&computed).unwrap()
    );
    // A forced recompute on the same snapshot proves the cached answer is
    // the same bytes the live snapshot would produce right now.
    let recomputed = service
        .translate_request(&request.clone().with_bypass_cache())
        .unwrap();
    assert_eq!(cached, recomputed);

    let m = service.metrics();
    assert_eq!(m.translation_cache_hits, 1);
    assert_eq!(m.translation_cache_misses, 1, "bypass must not count");
    assert_eq!(m.translation_cache_entries, 1);
    assert_eq!(m.translation_cache_invalidations, 0);
    assert_eq!(m.translations_served, 3, "hits still count as served");

    // The capture ring marks the cache-served request.
    let slow = service.slow_queries();
    assert!(slow.iter().any(|r| r.cache_hit));
    assert!(slow.iter().any(|r| !r.cache_hit));

    // A traced hit ships a trace marked cache_hit.
    let traced = service
        .translate_request(&request.clone().with_trace())
        .unwrap();
    assert!(traced.trace.expect("trace requested").cache_hit);

    // Hits are timed from the top of the request, so the key build and the
    // lookup are recorded instead of a phantom 0 µs.  A long question makes
    // the key build the bulk of each hit's cost.
    let long = TranslateRequest::new("academic", nlq.text.repeat(1024), nlq.keywords.clone());
    service.translate_request(&long).unwrap();
    const WARM_HITS: u64 = 20;
    let before = service.metrics();
    let wall = Instant::now();
    for _ in 0..WARM_HITS {
        service.translate_request(&long).unwrap();
    }
    let wall_us = wall.elapsed().as_micros() as u64;
    let after = service.metrics();
    assert_eq!(
        after.translation_cache_hits - before.translation_cache_hits,
        WARM_HITS
    );
    let zero_us = |m: &MetricsReport| {
        m.translate_buckets
            .iter()
            .find(|b| b.le_us == 0)
            .unwrap()
            .count
    };
    let zero_gained = zero_us(&after) - zero_us(&before);
    assert!(
        zero_gained < WARM_HITS / 2,
        "{zero_gained} of {WARM_HITS} cache hits recorded 0 µs"
    );
    let recorded_us = after.translate_sum_us - before.translate_sum_us;
    assert!(
        2 * recorded_us >= wall_us,
        "cache hits recorded {recorded_us} µs of {wall_us} µs spent serving them"
    );

    // Every publish installs a new snapshot with an empty cache: in each
    // round the same question is freshly computed against the new log
    // evidence, and the cached repeat equals a forced recompute.
    let mut latest = computed.clone();
    for year in [1995, 2010, 2005, 2001] {
        let sql = format!("SELECT p.title FROM publication p WHERE p.year > {year}");
        service.submit_sql(&sql).unwrap();
        service.flush();
        let m = service.metrics();
        assert_eq!(m.translation_cache_entries, 0, "year {year}: a new cache");
        assert_eq!(
            m.translation_cache_invalidations, m.snapshot_swaps,
            "year {year}: every publish replaces the cache"
        );
        let hits_before = m.translation_cache_hits;

        let fresh = service.translate_request(&request).unwrap();
        let cached = service.translate_request(&request).unwrap();
        let forced = service
            .translate_request(&request.clone().with_bypass_cache())
            .unwrap();
        assert_eq!(
            (&fresh, &cached),
            (&forced, &forced),
            "year {year}: computed and cached answers must match a forced recompute"
        );
        assert_eq!(service.metrics().translation_cache_hits, hits_before + 1);
        latest = fresh;
    }
    assert_ne!(
        latest.candidates[0].score, computed.candidates[0].score,
        "the new log evidence must actually reshape the ranking"
    );
    service.shutdown();
}

#[test]
fn cache_hits_match_misses_and_bypass_on_every_benchmark_case() {
    use datasets::Dataset;
    use templar_api::{binary::encode_response_frame, ResponseBody, TranslateRequest};

    for dataset in Dataset::all() {
        // Only `flush` publishes, so the one swap below is the test's.
        let service = TemplarService::spawn(
            Arc::clone(&dataset.db),
            &dataset.full_log(),
            TemplarConfig::paper_defaults(),
            ServiceConfig::default()
                .with_refresh_every(1_000_000)
                .with_refresh_interval(Duration::from_secs(3600)),
        )
        .unwrap();
        let requests: Vec<TranslateRequest> = dataset
            .cases
            .iter()
            .map(|case| {
                TranslateRequest::new(&dataset.name, &case.nlq.text, case.nlq.keywords.clone())
            })
            .collect();
        let frame = |request: &TranslateRequest| {
            let outcome = service
                .translate_request(request)
                .map(ResponseBody::Translated);
            encode_response_frame(0, &outcome)
        };
        // Every case answered three ways — a miss, a hit, a bypass — must
        // put the same bytes on the wire.
        let answer_all = || -> Vec<Vec<u8>> {
            requests
                .iter()
                .map(|request| {
                    let miss = frame(request);
                    let what = format!("{}: {:?}", dataset.name, request.nlq);
                    assert_eq!(frame(request), miss, "{what}: hit differs from miss");
                    let bypass = frame(&request.clone().with_bypass_cache());
                    assert_eq!(bypass, miss, "{what}: bypass differs from miss");
                    miss
                })
                .collect()
        };

        let before = answer_all();
        for case in dataset.cases.iter().step_by(8) {
            service.submit_sql(&case.gold_sql.to_string()).unwrap();
        }
        service.flush();
        let after = answer_all();

        let cases = dataset.cases.len() as u64;
        let m = service.metrics();
        assert_eq!(
            m.snapshot_swaps, 1,
            "{}: only the flush publishes",
            dataset.name
        );
        assert_eq!(
            (m.translation_cache_hits, m.translation_cache_misses),
            (2 * cases, 2 * cases),
            "{}: one miss and one hit per case and pass",
            dataset.name
        );
        assert!(
            before.iter().zip(&after).any(|(b, a)| b != a),
            "{}: the publish must change some answer",
            dataset.name
        );
        service.shutdown();
    }
}

#[test]
fn translation_cache_works_over_the_wire_with_bypass_flag() {
    use templar_api::TranslateRequest;
    use templar_service::{RegistryClient, TenantRegistry};

    let registry = TenantRegistry::new();
    registry.register(
        "academic",
        TemplarService::spawn(
            academic_db(),
            &QueryLog::new(),
            TemplarConfig::paper_defaults(),
            fast_refresh(),
        )
        .unwrap(),
    );
    let client = RegistryClient::new(&registry);
    let nlq = papers_after_2000();
    let request = TranslateRequest::new("academic", &nlq.text, nlq.keywords.clone());

    let computed = client.translate(request.clone()).unwrap();
    let cached = client.translate(request.clone()).unwrap();
    let bypassed = client
        .translate(request.clone().with_bypass_cache())
        .unwrap();
    assert_eq!(cached, computed);
    assert_eq!(cached, bypassed);

    // Cache and memo counters ride the wire projection.
    let report = client.metrics("academic").unwrap();
    assert_eq!(report.translation_cache_hits, 1);
    assert_eq!(report.translation_cache_misses, 1);
    assert_eq!(report.translation_cache_entries, 1);
    assert!(
        report.word_memo_hits + report.word_memo_misses > 0,
        "translations must touch the word-vector memo"
    );

    // …and the Prometheus exposition carries the new families.
    let text = client.prometheus(Some("academic")).unwrap();
    assert!(text.contains("templar_translation_cache_hits_total{tenant=\"academic\"} 1"));
    assert!(text.contains("templar_translation_cache_entries{tenant=\"academic\"} 1"));
    assert!(text.contains("templar_word_memo_hits{tenant=\"academic\"}"));
    assert!(text.contains("templar_phrase_memo_misses{tenant=\"academic\"}"));

    // Counters only grow: a publish replaces the snapshot and its caches,
    // but no family typed `counter` may go down across it (the
    // per-snapshot cache statistics are gauges for that reason).
    let before = counter_samples(&text);
    assert!(before.contains_key("templar_translations_total{tenant=\"academic\"}"));
    let service = registry.get("academic").unwrap();
    let swaps = service.metrics().snapshot_swaps;
    service.submit_sql("SELECT j.name FROM journal j").unwrap();
    service.flush();
    assert!(
        service.metrics().snapshot_swaps > swaps,
        "flush must publish"
    );
    let after = counter_samples(&client.prometheus(Some("academic")).unwrap());
    for (sample, value) in &before {
        let now = after.get(sample).copied().unwrap_or(0);
        assert!(
            now >= *value,
            "counter {sample} fell from {value} to {now} across a publish"
        );
    }
}

/// Every sample of every family typed `counter` in a Prometheus exposition,
/// keyed by metric name plus labels.
fn counter_samples(text: &str) -> std::collections::HashMap<String, u64> {
    let counters: std::collections::HashSet<&str> = text
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .filter_map(|rest| rest.strip_suffix(" counter"))
        .collect();
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| line.rsplit_once(' '))
        .filter(|(sample, _)| counters.contains(sample.split('{').next().unwrap_or(sample)))
        .map(|(sample, value)| (sample.to_string(), value.parse().unwrap()))
        .collect()
}

#[test]
fn concurrent_translations_match_solo_execution_byte_for_byte() {
    use templar_api::TranslateRequest;

    let service = Arc::new(
        TemplarService::spawn_from_sql(
            academic_db(),
            [
                "SELECT p.title FROM publication p WHERE p.year > 1995",
                "SELECT p.title FROM publication p WHERE p.year > 2010",
                "SELECT p.title FROM publication p, journal j WHERE j.name = 'TKDE' AND p.jid = j.jid",
            ],
            TemplarConfig::paper_defaults(),
            fast_refresh(),
        )
        .unwrap(),
    );

    let nlq = papers_after_2000();
    let cached: Vec<TranslateRequest> = vec![
        TranslateRequest::new("academic", &nlq.text, nlq.keywords.clone()),
        TranslateRequest::new("academic", &nlq.text, nlq.keywords.clone()).with_lambda(0.3),
        TranslateRequest::new("academic", &nlq.text, nlq.keywords.clone()).with_top_k(1),
    ];
    let bypassed: Vec<TranslateRequest> = cached
        .iter()
        .map(|r| r.clone().with_bypass_cache())
        .collect();

    // Solo baselines: sequential recomputes, one per override variant.
    let solo: Vec<_> = bypassed
        .iter()
        .map(|r| service.translate_request(r).unwrap())
        .collect();
    let solo_bytes: Vec<String> = solo
        .iter()
        .map(|r| serde_json::to_string(r).unwrap())
        .collect();

    // Concurrent burst of bypassed and cached copies of every variant:
    // each response must be the same bytes solo execution produced —
    // overrides included.
    let threads: Vec<_> = (0..12)
        .map(|i| {
            let service = Arc::clone(&service);
            let request = [&bypassed, &cached][i / 3 % 2][i % 3].clone();
            let expected = solo_bytes[i % 3].clone();
            std::thread::spawn(move || {
                for _ in 0..4 {
                    let got = service.translate_request(&request).unwrap();
                    assert_eq!(serde_json::to_string(&got).unwrap(), expected);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    // Publishes racing cached readers: a writer logs SQL that reshapes the
    // ranking and publishes while readers keep filling the cache, and waits
    // after each publish until every reader has translated twice on the new
    // snapshot.  Once it stops, no answer cached on an older snapshot may be
    // served.
    let stop = Arc::new(AtomicBool::new(false));
    let served: Arc<Vec<AtomicU64>> = Arc::new((0..4).map(|_| AtomicU64::new(0)).collect());
    let readers: Vec<_> = (0..4)
        .map(|i| {
            let (service, stop, served) = (service.clone(), stop.clone(), served.clone());
            let request = cached[i % cached.len()].clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    service.translate_request(&request).unwrap();
                    served[i].fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    for year in [2005, 2001, 2008, 2002, 2006, 2004] {
        let sql = format!("SELECT p.title FROM publication p WHERE p.year > {year}");
        service.submit_sql(&sql).unwrap();
        service.flush();
        let seen: Vec<u64> = served.iter().map(|n| n.load(Ordering::Relaxed)).collect();
        // A reader that panicked stops counting; its join below reports it.
        let lagging = |(n, &s): (&AtomicU64, &u64)| n.load(Ordering::Relaxed) < s + 2;
        while served.iter().zip(&seen).any(lagging) && !readers.iter().any(|r| r.is_finished()) {
            std::thread::yield_now();
        }
    }
    stop.store(true, Ordering::Relaxed);
    for reader in readers {
        reader.join().unwrap();
    }
    service.flush();
    for (request, solo) in cached.iter().zip(&solo) {
        let forced = service
            .translate_request(&request.clone().with_bypass_cache())
            .unwrap();
        for _ in 0..2 {
            assert_eq!(
                service.translate_request(request).unwrap(),
                forced,
                "a cached answer must equal a recompute on the final snapshot"
            );
        }
        assert_ne!(
            forced.candidates[0].score, solo.candidates[0].score,
            "the writer's log entries must actually reshape the ranking"
        );
    }
    service.shutdown();
}

#[test]
fn admission_quota_sheds_with_typed_backpressure_and_counters() {
    use templar_service::TenantRegistry;

    let registry = TenantRegistry::new();
    let service = registry.register(
        "academic",
        TemplarService::spawn(
            academic_db(),
            &QueryLog::new(),
            TemplarConfig::paper_defaults(),
            ServiceConfig::default().with_max_inflight(2),
        )
        .unwrap(),
    );

    // Two permits fit the quota; the third sheds and is counted.
    let first = service.try_admit().expect("first slot fits");
    let _second = service.try_admit().expect("second slot fits");
    assert_eq!(service.inflight(), 2);
    assert!(
        service.try_admit().is_none(),
        "quota of 2 must shed the 3rd"
    );
    assert!(matches!(
        registry.admit("academic"),
        Err(templar_api::ApiError::Backpressure)
    ));

    // While the quota is full, an admission-controlled line is shed typed…
    let line = r#"{"version": 5, "id": 5, "body": {"SubmitSql": {"tenant": "academic", "sql": "SELECT p.title FROM publication p"}}}"#;
    let response = registry.handle_line(line);
    assert!(
        response.contains("Backpressure"),
        "full quota must surface as Backpressure: {response}"
    );
    // …while observability reads stay exempt from admission control.
    let metrics_line = r#"{"version": 5, "id": 6, "body": {"Metrics": {"tenant": "academic"}}}"#;
    assert!(registry.handle_line(metrics_line).contains("\"ok\""));

    // Dropping a permit frees its slot.
    drop(first);
    assert_eq!(service.inflight(), 1);
    assert!(service.try_admit().is_some());

    // Global-cap sheds are attributed to the tenant alongside quota sheds.
    registry.record_global_shed("academic");
    let snap = service.metrics();
    assert_eq!(snap.admission_tenant_shed, 3); // try_admit + registry.admit + handle_line
    assert_eq!(snap.admission_global_shed, 1);

    // Both counters are visible in the Prometheus exposition.
    let text = registry.prometheus(Some("academic")).unwrap();
    assert!(text.contains("templar_admission_tenant_shed_total{tenant=\"academic\"} 3"));
    assert!(text.contains("templar_admission_global_shed_total{tenant=\"academic\"} 1"));

    service.shutdown();
}
