//! The traced run: the workload's generated inputs replayed through each
//! layer's public calls, timed by this benchmark's own code, plus a layer
//! budget that sets the per-layer medians against the in-process end-to-end
//! time.  No end-to-end metric comes from here.

use crate::common::{median, micros, seconds, Outcome, Rng};
use crate::memfs::MemStorage;
use crate::stack::{
    closed_loop, pairs, recover, request, start_stack, tenants, warm_up, write_log_snapshot,
    Durability, Op, Pair, Pristine, Stack, Tenant, WORKERS,
};
use crate::workloads::{slice, uniform_ops, zipf_ops, Plan, RestartInputs};
use nlidb::{construct_query, translate_with_config_stats};
use nlp::TextSimilarity;
use sqlparse::{canonicalize, parse_query};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use templar_api::binary::{
    decode_request_frame, decode_response_frame, encode_request_frame, encode_response_frame,
};
use templar_api::{RequestBody, ResponseBody, TranslateRequest};
use templar_core::{
    BagItem, Configuration, KeywordMapper, MappedElement, QueryFragmentGraph, Templar,
    TemplarConfig,
};
use templar_server::{ServerConfig, TcpClient, TemplarServer};
use templar_service::{
    snapshot, wal, MetricsSnapshot, ServiceConfig, Storage, TemplarService, TenantRegistry,
    WalConfig, SNAPSHOT_FILE, WAL_DIR,
};

/// Every per-layer metric, in report order, with its unit.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("host.spin_ms", "ms"),
    ("server.plane_us", "us"),
    ("api.codec_us", "us"),
    ("api.bytes_per_request", "B"),
    ("service.glue_us", "us"),
    ("service.hit_us", "us"),
    ("service.cache_hit_rate", "share"),
    ("service.publishes_per_1k_writes", "count"),
    ("service.publish_us", "us"),
    ("service.visible_ms", "ms"),
    ("core.keyword.prune_us", "us"),
    ("core.keyword.kept_share", "share"),
    ("core.keyword.search_us", "us"),
    ("core.keyword.tuples_scored", "count"),
    ("core.keyword.reuse_share", "share"),
    ("core.join.infer_us", "us"),
    ("core.join.cache_hit_rate", "share"),
    ("nlp.memo_hit_rate", "share"),
    ("nlidb.construct_us", "us"),
    ("nlidb.distinct_share", "share"),
    ("nlidb.rank_us", "us"),
    ("sqlparse.parse_us", "us"),
    ("core.qfg.ingest_us", "us"),
    ("core.qfg.compact_us", "us"),
    ("wal.append_us", "us"),
    ("wal.sync_us", "us"),
    ("wal.records_per_fsync", "count"),
    ("wal.replay_ms", "ms"),
    ("snapshot.read_ms", "ms"),
    ("snapshot.io_ms", "ms"),
    ("snapshot.decode_ms", "ms"),
    ("core.from_parts_ms", "ms"),
    ("snapshot.write_ms", "ms"),
    ("snapshot.body_bytes", "B"),
];

/// Samples per layer metric; each is reported as the median of its samples
/// (ratios are pushed once, already computed).  A layer the workload never
/// exercises reports 0 with no samples.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, Vec<f64>>);

impl Layers {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn ratio(&mut self, name: &'static str, part: f64, whole: f64) {
        if whole > 0.0 {
            self.push(name, part / whole);
        }
    }

    fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| median(v))
    }

    fn samples(&self, name: &str) -> usize {
        self.0.get(name).map_or(0, Vec::len)
    }
}

pub fn run(workload: &str, plan: &Plan, spin_ms: f64, out: &mut Outcome) {
    let mut layers = Layers::default();
    layers.push("host.spin_ms", spin_ms);
    match workload {
        "cold_translate" => trace_translate(false, plan, &mut layers, out),
        "zipf_logged" => trace_translate(true, plan, &mut layers, out),
        _ => trace_restart(plan, &mut layers, out),
    }
    for (name, unit) in PER_LAYER {
        out.metric(name, layers.median(name), unit, layers.samples(name));
    }
}

fn trace_translate(zipf: bool, plan: &Plan, layers: &mut Layers, out: &mut Outcome) {
    let tenants = tenants();
    let all = pairs(&tenants);
    let mut rng = Rng::new(plan.seed);
    let ops = if zipf {
        zipf_ops(&all, plan.zipf_translations(), &mut rng)
    } else {
        uniform_ops(&all, plan.cold_requests(), &mut rng)
    };
    let storage = MemStorage::new(if zipf {
        "zipf_logged"
    } else {
        "cold_translate"
    });
    layers.push("core.keyword.reuse_share", reuse_share(&tenants, &ops));

    let root = PathBuf::from("tenants");
    let durability = if zipf {
        Durability::Durable(&storage, &root)
    } else {
        Durability::Memory
    };
    let stack = start_stack(&tenants, &durability);
    warm_up(&stack, &tenants, &all, out);
    observed_loop(&stack, &tenants, &ops, !zipf, layers, out);
    let replay = plan
        .scaled(if zipf { 150 } else { 100 }, 60)
        .min(ops[0].len());
    decompose(&stack, &tenants, &ops[0][..replay], !zipf, layers, out);
    publish_cost(&stack.services, layers);

    let entries: Vec<(usize, String)> = ops
        .iter()
        .flatten()
        .filter_map(|op| match *op {
            Op::Write { pair, .. } => Some((pair.tenant, crate::stack::gold_sql(&tenants, pair))),
            Op::Translate(_) => None,
        })
        .collect();
    let qfgs = stack
        .services
        .iter()
        .map(|s| s.snapshot().qfg().clone())
        .collect();
    trace_entries(&storage, &entries, qfgs, Path::new("trace-wal"), layers);

    // The tenants' current state as pristine directories.
    for service in &stack.services {
        service.flush();
    }
    let pristine: Vec<Pristine> = tenants
        .iter()
        .zip(&stack.services)
        .map(|(t, service)| {
            let dir = Path::new("pristine").join(t.id);
            if zipf {
                let saved = service.save_snapshot(&dir.join(SNAPSHOT_FILE));
                out.check(saved.is_ok(), || format!("snapshot of {} failed", t.id));
            } else {
                write_log_snapshot(&storage, &dir, &t.data.full_log());
            }
            Pristine {
                db: Arc::clone(&t.data.db),
                dir,
            }
        })
        .collect();
    drop(stack);
    let reps = if plan.smoke { 1 } else { 5 };
    trace_snapshots(&storage, &pristine, reps, layers, out);
}

fn trace_restart(plan: &Plan, layers: &mut Layers, out: &mut Outcome) {
    let inputs = RestartInputs::generate(plan);
    let storage = MemStorage::new("restart_100x");
    let dir = PathBuf::from("pristine");
    inputs.write_pristine(&storage, &dir);

    let obscurity = TemplarConfig::paper_defaults().obscurity;
    let entries: Vec<(usize, String)> = inputs.tail.iter().map(|s| (0, s.clone())).collect();
    trace_entries(
        &storage,
        &entries,
        vec![QueryFragmentGraph::build(&inputs.snapshot_log, obscurity)],
        Path::new("trace-wal"),
        layers,
    );
    let pristine = [Pristine {
        db: Arc::clone(&inputs.mas.db),
        dir: dir.clone(),
    }];
    trace_snapshots(
        &storage,
        &pristine,
        if plan.smoke { 1 } else { 3 },
        layers,
        out,
    );

    // The translate layers on a recovered service, with the inputs of the
    // untraced run's cold translations.
    let live = PathBuf::from("live");
    storage.copy_dir(&dir, &live);
    let service = recover(&storage, Arc::clone(&inputs.mas.db), &live)
        .expect("recover the pristine directory");
    let registry = Arc::new(TenantRegistry::new());
    let service = registry.register("mas", service);
    let server = TemplarServer::start(
        Arc::clone(&registry),
        ServerConfig::default().with_workers(WORKERS),
    )
    .expect("start the server");
    let stack = Stack {
        server,
        services: vec![service],
    };
    drop(registry);
    let tenant = vec![Tenant {
        id: "mas",
        data: inputs.mas.clone(),
    }];
    let all = pairs(&tenant);
    let ops = uniform_ops(
        &all,
        plan.restart_translations(),
        &mut Rng::new(plan.seed ^ 0xC01D),
    );
    layers.push("core.keyword.reuse_share", reuse_share(&tenant, &ops));
    observed_loop(&stack, &tenant, &ops, true, layers, out);
    let replay = plan.scaled(50, 30).min(ops[0].len());
    decompose(&stack, &tenant, &ops[0][..replay], true, layers, out);
    publish_cost(&stack.services, layers);
}

/// Share of translations whose (tenant, keyword set) appeared earlier in
/// the run — the property a keyword-level cache would depend on.
fn reuse_share(tenants: &[Tenant], ops: &[Vec<Op>]) -> f64 {
    let mut seen = HashSet::new();
    let (mut total, mut reused) = (0usize, 0usize);
    let longest = ops.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for client in ops {
            if let Some(Op::Translate(pair)) = client.get(i) {
                let keywords = &tenants[pair.tenant].data.cases[pair.case].nlq.keywords;
                total += 1;
                if !seen.insert((pair.tenant, format!("{keywords:?}"))) {
                    reused += 1;
                }
            }
        }
    }
    reused as f64 / total.max(1) as f64
}

fn sum_metrics(services: &[Arc<TemplarService>]) -> Vec<MetricsSnapshot> {
    services.iter().map(|s| s.metrics()).collect()
}

/// A quarter of the workload's own closed loop.  Its first half runs as the
/// untraced workload does; its second half runs with a thread watching each
/// tenant's published query count, and gives the cache hit rate, publishes
/// per write, journal records per fsync and how long a write takes to
/// become visible.  The two halves' round trips give the tracing overhead.
fn observed_loop(
    stack: &Stack,
    tenants: &[Tenant],
    ops: &[Vec<Op>],
    unique: bool,
    layers: &mut Layers,
    out: &mut Outcome,
) {
    let quarter: Vec<Vec<Op>> = ops.iter().map(|c| c[..c.len() / 4].to_vec()).collect();
    let addr = stack.server.local_addr();
    let check = |_: Pair, r: &templar_api::TranslateResponse| !r.candidates.is_empty();
    let plain = closed_loop(addr, tenants, &slice(&quarter, 0, 2), unique, &check, out);

    let services = &stack.services;
    for service in services {
        service.flush();
    }
    let before = sum_metrics(services);
    let base: Vec<usize> = services
        .iter()
        .map(|s| s.snapshot().qfg().query_count())
        .collect();
    let stop = AtomicBool::new(false);
    let (result, seen) = std::thread::scope(|scope| {
        let watcher = scope.spawn(|| {
            let mut last = base.clone();
            let mut seen: Vec<(usize, Instant, usize)> = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                for (t, service) in services.iter().enumerate() {
                    let count = service.snapshot().qfg().query_count();
                    if count != last[t] {
                        last[t] = count;
                        seen.push((t, Instant::now(), count));
                    }
                }
                // Visibility takes about a hundred milliseconds (a publish
                // every 64 writes), so a 1 ms poll resolves it while keeping
                // the watcher's own load on the two cores small.
                std::thread::sleep(Duration::from_millis(1));
            }
            seen
        });
        let result = closed_loop(addr, tenants, &slice(&quarter, 1, 2), unique, &check, out);
        stop.store(true, Ordering::Relaxed);
        (result, watcher.join().expect("watcher thread"))
    });
    let after = sum_metrics(services);
    let p50 =
        |r: &crate::stack::LoopResult| median(&r.samples.iter().map(|s| s.1).collect::<Vec<_>>());
    let (untraced, traced) = (p50(&plain), p50(&result));
    out.note(format!(
        "tracing overhead: closed-loop round trip p50 {traced:.1} us with the watcher thread vs {untraced:.1} us without ({:+.1} us, {:+.1}%; the two halves of one quarter of the workload, untraced first)",
        traced - untraced,
        100.0 * (traced - untraced) / untraced.max(1e-9)
    ));
    let delta = |f: fn(&MetricsSnapshot) -> u64| -> f64 {
        after
            .iter()
            .zip(&before)
            .map(|(a, b)| f(a).saturating_sub(f(b)))
            .sum::<u64>() as f64
    };
    let hits = delta(|m| m.translation_cache_hits);
    let misses = delta(|m| m.translation_cache_misses);
    layers.push("service.cache_hit_rate", hits / (hits + misses).max(1.0));
    let writes = result.write_acks.len() as f64;
    if writes > 0.0 {
        layers.push(
            "service.publishes_per_1k_writes",
            delta(|m| m.snapshot_swaps) * 1000.0 / writes,
        );
        layers.ratio(
            "wal.records_per_fsync",
            delta(|m| m.wal_appended),
            delta(|m| m.wal_fsyncs),
        );
    }
    // The k-th acknowledged write to a tenant is visible once that tenant's
    // published snapshot holds base + k queries.
    let mut acks = result.write_acks;
    acks.sort_by_key(|&(_, at)| at);
    let mut per_tenant = vec![0usize; services.len()];
    for (tenant, acked) in acks {
        per_tenant[tenant] += 1;
        let target = base[tenant] + per_tenant[tenant];
        if let Some(&(_, at, _)) = seen.iter().find(|&&(t, _, c)| t == tenant && c >= target) {
            let ms = at.saturating_duration_since(acked).as_secs_f64() * 1e3;
            layers.push("service.visible_ms", ms);
        }
    }
}

/// The relation/attribute bag `nlidb` hands to `INFERJOINS` for one
/// configuration (mirrors the pipeline's private `bag_of`).
fn bag_of(config: &Configuration) -> Vec<BagItem> {
    config
        .mappings
        .iter()
        .map(|m| match &m.element {
            MappedElement::Relation(r) => BagItem::Relation(r.clone()),
            MappedElement::Attribute { attr, .. } | MappedElement::Predicate { attr, .. } => {
                BagItem::Attribute(attr.clone())
            }
        })
        .collect()
}

/// The pipeline expands this many top configurations, and two join paths
/// of each, into SQL candidates (as `nlidb::pipeline` does; `decompose`
/// fails a check if the SQL it builds with them drifts from nlidb's).
const CONFIGS_PER_QUERY: usize = 6;
const PATHS_PER_CONFIG: usize = 2;

/// Single-client replay of `ops`: each translation goes once through the
/// socket, then through `translate_request` (a miss and a hit), then through
/// `nlidb`, then through the core calls one by one, which must build the
/// same set of SQL `nlidb` returned.  Writes go through the socket as in the
/// workload.
fn decompose(
    stack: &Stack,
    tenants: &[Tenant],
    ops: &[Op],
    unique: bool,
    layers: &mut Layers,
    out: &mut Outcome,
) {
    let mut client = TcpClient::connect_binary(stack.server.local_addr()).expect("connect");
    let mut suffix = 1u64 << 50;
    let mut fresh = || {
        suffix += 1;
        suffix
    };

    let stats_before = stack.server.stats();
    let mut served = 0u64;
    let (mut kept, mut retrieved) = (0usize, 0usize);
    let (mut join_hits, mut join_lookups, mut memo_hits, mut memo_lookups) =
        (0u64, 0u64, 0u64, 0u64);
    let (mut constructed, mut distinct) = (0usize, 0usize);
    let mut sock = Vec::new();
    let mut in_process = Vec::new();
    let mut misses = Vec::new();
    let (mut counted_us, mut plain_us) = (Vec::new(), Vec::new());
    for (index, op) in ops.iter().enumerate() {
        let pair = match *op {
            Op::Write { pair, feedback } => {
                let tenant = tenants[pair.tenant].id;
                let sql = crate::stack::gold_sql(tenants, pair);
                let result = if feedback {
                    client.feedback(tenant, &sql)
                } else {
                    client.submit_sql(tenant, &sql)
                };
                out.check(result.is_ok(), || format!("write failed for {pair:?}"));
                served += 1;
                continue;
            }
            Op::Translate(pair) => pair,
        };
        let service = &stack.services[pair.tenant];
        let keywords = &tenants[pair.tenant].data.cases[pair.case].nlq.keywords;

        // In-process misses (fresh question text) before and after the
        // socket call.  The counters are read around one of the two,
        // alternating, so the cost of reading them shows as the counter
        // overhead with the order of the calls balanced out.
        let counted_first = index % 2 == 0;
        let before = timed_miss(
            service,
            &request(tenants, pair, Some(fresh())),
            counted_first,
        );
        out.check(before.ok, || {
            format!("in-process translate failed for {pair:?}")
        });

        // Socket round trip and the codec calls on this request's frames.
        let req = request(tenants, pair, unique.then(&mut fresh));
        let body = RequestBody::Translate(req.clone());
        let started = Instant::now();
        let frame = encode_request_frame(1, &body);
        let decoded = decode_request_frame(&frame[4..]);
        let mut codec = micros(started);
        out.check(decoded.is_ok(), || {
            "request frame did not decode".to_string()
        });
        let hits_before = service.metrics().translation_cache_hits;
        let started = Instant::now();
        let response = client.translate(req);
        let round_trip = micros(started);
        served += 1;
        let hit = service.metrics().translation_cache_hits > hits_before;
        let Ok(response) = response else {
            out.fail(format!("socket translate failed for {pair:?}"));
            continue;
        };
        out.attempted += 1;
        let outcome = Ok(ResponseBody::Translated(response));
        let started = Instant::now();
        let frame = encode_response_frame(1, &outcome);
        let decoded = decode_response_frame(&frame[4..]);
        codec += micros(started);
        out.check(
            matches!(decoded, Ok((1, Ok(ref body))) if Ok(body) == outcome.as_ref()),
            || "response frame did not round-trip".to_string(),
        );

        let miss_req = request(tenants, pair, Some(fresh()));
        let after = timed_miss(service, &miss_req, !counted_first);
        out.check(after.ok, || {
            format!("in-process translate failed for {pair:?}")
        });
        let (counted, plain) = if counted_first {
            (&before, &after)
        } else {
            (&after, &before)
        };
        counted_us.push(counted.us);
        plain_us.push(plain.us);
        if let Some((m0, m1)) = &counted.counters {
            if m0.snapshot_swaps == m1.snapshot_swaps {
                join_hits += m1.join_cache_hits - m0.join_cache_hits;
                join_lookups += (m1.join_cache_hits + m1.join_cache_misses)
                    - (m0.join_cache_hits + m0.join_cache_misses);
                memo_hits += (m1.word_memo_hits + m1.phrase_memo_hits)
                    - (m0.word_memo_hits + m0.phrase_memo_hits);
                memo_lookups += (m1.word_memo_hits
                    + m1.word_memo_misses
                    + m1.phrase_memo_hits
                    + m1.phrase_memo_misses)
                    - (m0.word_memo_hits
                        + m0.word_memo_misses
                        + m0.phrase_memo_hits
                        + m0.phrase_memo_misses);
            }
        }
        let miss = (before.us + after.us) / 2.0;
        let started = Instant::now();
        let again = service.translate_request(&miss_req);
        let hit_us = micros(started);
        out.check(again.is_ok(), || {
            format!("cached translate failed for {pair:?}")
        });

        // nlidb, then its parts one call at a time on the same snapshot.
        let templar = service.snapshot();
        let config = templar.config().clone();
        let started = Instant::now();
        let (translated, _) = translate_with_config_stats(&templar, keywords, &config);
        let nlidb_us = micros(started);
        out.check(translated.is_ok(), || {
            format!("nlidb translate failed for {pair:?}")
        });

        let mapper = KeywordMapper::new(
            templar.database(),
            templar.qfg(),
            templar.similarity(),
            &config,
        );
        let mut prune = 0.0;
        for (keyword, meta) in keywords {
            let started = Instant::now();
            let candidates = mapper.keyword_candidates(keyword, meta);
            retrieved += candidates.len();
            let pruned = mapper.score_and_prune(keyword, candidates);
            prune += micros(started);
            kept += pruned.len();
        }
        let started = Instant::now();
        let (configurations, search) = templar.map_keywords_with_stats(keywords, &config);
        let map = micros(started);
        layers.push("core.keyword.tuples_scored", search.tuples_scored as f64);
        let (mut infer, mut construct) = (0.0, 0.0);
        let mut canonical = BTreeSet::new();
        for configuration in configurations.iter().take(CONFIGS_PER_QUERY) {
            let bag = bag_of(configuration);
            if bag.is_empty() {
                continue;
            }
            let started = Instant::now();
            let inference = templar.infer_joins_with(&bag, &config);
            infer += micros(started);
            let Ok(inference) = inference else { continue };
            for scored in inference.paths.iter().take(PATHS_PER_CONFIG) {
                let started = Instant::now();
                let sql = construct_query(configuration, &inference, &scored.path)
                    .map(|q| canonicalize(&q).to_string());
                construct += micros(started);
                if let Some(sql) = sql {
                    constructed += 1;
                    distinct += usize::from(canonical.insert(sql));
                }
            }
        }
        // The calls above mirror the pipeline's own choices (configurations
        // expanded, paths per configuration, bags); if the pipeline changes
        // them, the timings no longer cover the same work and this fails.
        let returned: BTreeSet<String> = translated
            .as_ref()
            .map(|ranked| {
                ranked
                    .iter()
                    .map(|r| canonicalize(&r.query).to_string())
                    .collect()
            })
            .unwrap_or_default();
        out.check(canonical == returned, || {
            format!("the layer decomposition built other SQL than nlidb for {pair:?}")
        });

        layers.push(
            "server.plane_us",
            round_trip - if hit { hit_us } else { miss } - codec,
        );
        layers.push("api.codec_us", codec);
        layers.push("service.glue_us", miss - nlidb_us);
        layers.push("service.hit_us", hit_us);
        layers.push("core.keyword.prune_us", prune);
        layers.push("core.keyword.search_us", map - prune);
        layers.push("core.join.infer_us", infer);
        layers.push("nlidb.construct_us", construct);
        layers.push("nlidb.rank_us", nlidb_us - map - infer - construct);
        sock.push(round_trip);
        in_process.push(if hit { hit_us } else { miss });
        misses.push(miss);
    }
    let stats_after = stack.server.stats();
    let bytes = (stats_after.bytes_read + stats_after.bytes_written)
        - (stats_before.bytes_read + stats_before.bytes_written);
    layers.ratio("api.bytes_per_request", bytes as f64, served as f64);
    layers.ratio("core.keyword.kept_share", kept as f64, retrieved as f64);
    layers.ratio(
        "core.join.cache_hit_rate",
        join_hits as f64,
        join_lookups as f64,
    );
    layers.ratio("nlp.memo_hit_rate", memo_hits as f64, memo_lookups as f64);
    layers.ratio("nlidb.distinct_share", distinct as f64, constructed as f64);

    let m = |name: &str| layers.median(name);
    let miss = median(&misses);
    let parts = [
        "service.glue_us",
        "core.keyword.prune_us",
        "core.keyword.search_us",
        "core.join.infer_us",
        "nlidb.construct_us",
        "nlidb.rank_us",
    ];
    let attributed: f64 = parts.iter().map(|p| m(p)).sum();
    out.note(format!(
        "budget: in-process miss p50 {miss:.1} us = glue {:.1} + prune {:.1} + search {:.1} + joins {:.1} + construct {:.1} + rank {:.1} + unattributed {:.1}",
        m(parts[0]), m(parts[1]), m(parts[2]), m(parts[3]), m(parts[4]), m(parts[5]), miss - attributed
    ));
    let in_process = median(&in_process);
    let round_trip = median(&sock);
    out.note(format!(
        "budget: socket round trip p50 {round_trip:.1} us = in-process {in_process:.1} (hit p50 {:.1}) + codec {:.1} + plane {:.1} + unattributed {:.1}  [{} translations]",
        m("service.hit_us"), m("api.codec_us"), m("server.plane_us"),
        round_trip - in_process - m("api.codec_us") - m("server.plane_us"), misses.len()
    ));
    let (counted, plain) = (median(&counted_us), median(&plain_us));
    out.note(format!(
        "counter overhead: in-process miss p50 {counted:.1} us with the service counters read around it vs {plain:.1} us without ({:+.1} us, {:+.1}%)",
        counted - plain,
        100.0 * (counted - plain) / plain.max(1e-9)
    ));
}

/// One timed in-process miss; `counted` reads the service counters around
/// it.
struct Miss {
    us: f64,
    ok: bool,
    counters: Option<(MetricsSnapshot, MetricsSnapshot)>,
}

fn timed_miss(service: &TemplarService, req: &TranslateRequest, counted: bool) -> Miss {
    let m0 = counted.then(|| service.metrics());
    let started = Instant::now();
    let ok = service.translate_request(req).is_ok();
    let us = micros(started);
    let counters = m0.map(|m0| (m0, service.metrics()));
    Miss { us, ok, counters }
}

/// A publish: a QFG clone plus `Templar::from_parts`, on each tenant's
/// current snapshot.
fn publish_cost(services: &[Arc<TemplarService>], layers: &mut Layers) {
    for service in services {
        let templar = service.snapshot();
        for _ in 0..10 {
            let started = Instant::now();
            let qfg = templar.qfg().clone();
            let rebuilt = Templar::from_parts(
                templar.database_handle(),
                qfg,
                templar.similarity().clone(),
                templar.config().clone(),
            );
            layers.push("service.publish_us", micros(started));
            assert!(rebuilt.is_ok(), "a snapshot's own graph rebuilds");
        }
    }
}

/// The ingest path per entry: parse, QFG ingest (with a compaction every 64
/// entries of a tenant, as a publish does), journal append and the
/// default group-commit fsync every 16 records.
fn trace_entries(
    storage: &Arc<MemStorage>,
    entries: &[(usize, String)],
    mut qfgs: Vec<QueryFragmentGraph>,
    wal_dir: &Path,
    layers: &mut Layers,
) {
    if entries.is_empty() {
        return;
    }
    let mut since_publish = vec![0usize; qfgs.len()];
    for (tenant, sql) in entries {
        let started = Instant::now();
        let query = parse_query(sql);
        layers.push("sqlparse.parse_us", micros(started));
        let Ok(query) = query else { continue };
        let started = Instant::now();
        qfgs[*tenant].ingest(&query);
        layers.push("core.qfg.ingest_us", micros(started));
        since_publish[*tenant] += 1;
        if since_publish[*tenant] == 64 {
            since_publish[*tenant] = 0;
            let started = Instant::now();
            qfgs[*tenant].compact();
            layers.push("core.qfg.compact_us", micros(started));
        }
    }
    let config = WalConfig::default();
    let every = config.fsync_every;
    let mut journal =
        wal::WalWriter::create_with(Arc::clone(storage) as Arc<dyn Storage>, wal_dir, 1, config)
            .expect("create a journal");
    for (i, (_, sql)) in entries.iter().enumerate() {
        let started = Instant::now();
        journal.append(sql);
        layers.push("wal.append_us", micros(started));
        if (i + 1) % every == 0 {
            let started = Instant::now();
            journal.sync().expect("sync the journal");
            layers.push("wal.sync_us", micros(started));
        }
    }
    journal.sync().expect("sync the journal");
}

/// Recovery and checkpoint taken apart, `reps` times over the pristine
/// directories: raw read, snapshot read (decode = read − raw read), journal
/// replay with parse and ingest timed apart, `Templar::from_parts`, and the
/// snapshot write.  The same recovery and checkpoint, timed whole, give the
/// budget's end-to-end line.
fn trace_snapshots(
    storage: &Arc<MemStorage>,
    pristine: &[Pristine],
    reps: usize,
    layers: &mut Layers,
    out: &mut Outcome,
) {
    let scratch = Path::new("snapshots");
    let config = TemplarConfig::paper_defaults();
    let budget = ServiceConfig::default().recovery_batch_bytes;
    let ms = |since: Instant| seconds(since) * 1e3;
    let mut parse_ingest = Vec::new();
    let mut whole = (Vec::new(), Vec::new());
    for rep in 0..reps {
        let mut f = [0.0f64; 8];
        let mut body = 0u64;
        for (i, p) in pristine.iter().enumerate() {
            let path = p.dir.join(SNAPSHOT_FILE);
            let started = Instant::now();
            let raw = storage.read(&path).expect("read the snapshot file");
            f[0] += ms(started);
            drop(raw);
            let started = Instant::now();
            let read = snapshot::read_snapshot_from(storage.as_ref(), &path, config.obscurity);
            f[1] += ms(started);
            let Ok((snap, watermark)) = read else {
                out.fail(format!("snapshot read of {} failed", path.display()));
                continue;
            };
            let (mut log, mut qfg) = (snap.log, snap.qfg);
            let (mut parse_s, mut ingest_s, mut replayed) = (0.0, 0.0, 0u64);
            let started = Instant::now();
            let wal_dir = p.dir.join(WAL_DIR);
            let replay = wal::replay_batched_with(
                storage.as_ref(),
                &wal_dir,
                watermark,
                budget,
                &mut |batch| {
                    for (_, sql) in batch {
                        let t = Instant::now();
                        let query = parse_query(sql);
                        parse_s += seconds(t);
                        if let Ok(query) = query {
                            let t = Instant::now();
                            qfg.ingest(&query);
                            ingest_s += seconds(t);
                            log.push(query);
                        }
                        replayed += 1;
                    }
                },
            );
            f[2] += ms(started) - (parse_s + ingest_s) * 1e3;
            f[3] += (parse_s + ingest_s) * 1e3;
            out.check(replay.is_ok(), || {
                format!("journal replay of {} failed", p.dir.display())
            });
            let started = Instant::now();
            let templar = Templar::from_parts(
                Arc::clone(&p.db),
                qfg.clone(),
                TextSimilarity::new(),
                config.clone(),
            );
            f[4] += ms(started);
            out.check(templar.is_ok(), || "from_parts failed".to_string());
            drop(templar);
            qfg.compact();
            let started = Instant::now();
            let written = snapshot::write_snapshot_with(
                storage.as_ref(),
                &scratch.join(format!("write{i}.snapshot")),
                &log,
                &qfg,
                Some(watermark + replayed),
            );
            f[5] += ms(started);
            body += written.as_ref().map_or(0, |b| *b);
            out.check(written.is_ok(), || "snapshot write failed".to_string());
            drop((log, qfg));

            let copy = scratch.join(format!("whole{rep}-{i}"));
            storage.copy_dir(&p.dir, &copy);
            let started = Instant::now();
            let service = recover(storage, Arc::clone(&p.db), &copy);
            f[6] += ms(started);
            match service {
                Ok(ref service) => {
                    let started = Instant::now();
                    let ok = service.checkpoint().is_ok();
                    f[7] += ms(started);
                    out.check(ok, || "checkpoint failed".to_string());
                }
                Err(ref e) => out.fail(format!("recovery failed: {e}")),
            }
            drop(service);
            storage.remove_dir_all(&copy);
        }
        layers.push("snapshot.io_ms", f[0]);
        layers.push("snapshot.read_ms", f[1]);
        layers.push("snapshot.decode_ms", f[1] - f[0]);
        layers.push("wal.replay_ms", f[2]);
        parse_ingest.push(f[3]);
        layers.push("core.from_parts_ms", f[4]);
        layers.push("snapshot.write_ms", f[5]);
        layers.push("snapshot.body_bytes", body as f64);
        storage.remove_dir_all(scratch);
        whole.0.push(f[6]);
        whole.1.push(f[7]);
    }
    let m = |name: &str| layers.median(name);
    let recover = median(&whole.0);
    let (read, replay, parse, parts) = (
        m("snapshot.read_ms"),
        m("wal.replay_ms"),
        median(&parse_ingest),
        m("core.from_parts_ms"),
    );
    out.note(format!(
        "budget: recover {recover:.1} ms = snapshot read {read:.1} (io {:.1} + decode {:.1}) + journal replay {replay:.1} + parse/ingest {parse:.1} + from_parts {parts:.1} + unattributed {:.1}",
        m("snapshot.io_ms"), m("snapshot.decode_ms"), recover - read - replay - parse - parts
    ));
    let checkpoint = median(&whole.1);
    out.note(format!(
        "budget: checkpoint {checkpoint:.1} ms = snapshot write {:.1} + unattributed {:.1}",
        m("snapshot.write_ms"),
        checkpoint - m("snapshot.write_ms")
    ));
}
