//! The serving stack under test and the closed-loop clients that drive it:
//! `TcpClient` (binary codec) → `TemplarServer` → `TenantRegistry` →
//! `TemplarService` → `nlidb` → `templar_core`.

use crate::common::{percentile, seconds, Outcome};
use crate::memfs::MemStorage;
use datasets::Dataset;
use eval::fq_correct;
use nlidb::RankedSql;
use relational::Database;
use sqlparse::parse_query;
use std::borrow::Borrow;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use templar_api::{TranslateRequest, TranslateResponse};
use templar_core::{QueryFragmentGraph, TemplarConfig};
use templar_server::{ServerConfig, TcpClient, TemplarServer};
use templar_service::{
    snapshot, ServiceConfig, Storage, TemplarService, TenantRegistry, SNAPSHOT_FILE,
};

/// Closed-loop client threads and connections (the host has two cores).
pub const CLIENTS: usize = 2;
/// Serving-plane worker threads.
pub const WORKERS: usize = 2;

/// One tenant: a benchmark dataset served under a tenant id.
pub struct Tenant {
    pub id: &'static str,
    pub data: Dataset,
}

/// The three benchmark datasets as tenants (449 questions in all).
pub fn tenants() -> Vec<Tenant> {
    vec![
        Tenant {
            id: "mas",
            data: Dataset::mas(),
        },
        Tenant {
            id: "yelp",
            data: Dataset::yelp(),
        },
        Tenant {
            id: "imdb",
            data: Dataset::imdb(),
        },
    ]
}

/// A (tenant, question) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Pair {
    pub tenant: usize,
    pub case: usize,
}

pub fn pairs(tenants: &[Tenant]) -> Vec<Pair> {
    tenants
        .iter()
        .enumerate()
        .flat_map(|(tenant, t)| (0..t.data.cases.len()).map(move |case| Pair { tenant, case }))
        .collect()
}

/// The translate request for a pair.  A suffix makes the question text, and
/// so the translation-cache key, unique while the keywords stay the same.
pub fn request(tenants: &[Tenant], pair: Pair, suffix: Option<u64>) -> TranslateRequest {
    let tenant = &tenants[pair.tenant];
    let nlq = &tenant.data.cases[pair.case].nlq;
    let text = match suffix {
        Some(n) => format!("{} #{n}", nlq.text),
        None => nlq.text.clone(),
    };
    TranslateRequest::new(tenant.id, text, nlq.keywords.clone())
}

pub fn gold_sql(tenants: &[Tenant], pair: Pair) -> String {
    tenants[pair.tenant].data.cases[pair.case]
        .gold_sql
        .to_string()
}

/// Every tenant service is configured alike: default queue, caches and
/// journal policy, but snapshots are published by write count only (every
/// 64 writes), never by the refresh timer.
pub fn service_config() -> ServiceConfig {
    ServiceConfig::default().with_refresh_interval(Duration::from_secs(3600))
}

/// A running stack.  Fields drop in order: the server stops before the
/// services shut down.
pub struct Stack {
    pub server: TemplarServer,
    pub services: Vec<Arc<TemplarService>>,
}

/// Where the tenant services keep their state.
pub enum Durability<'a> {
    /// In memory, built from each dataset's full log.
    Memory,
    /// Durable under `root/<tenant>` of the memory storage: the full log is
    /// written as a v3 snapshot and the service is started by recovering
    /// that directory.
    Durable(&'a Arc<MemStorage>, &'a Path),
}

/// `TemplarService::recover` over the memory storage.
pub fn recover(
    storage: &Arc<MemStorage>,
    db: Arc<Database>,
    dir: &Path,
) -> Result<TemplarService, templar_service::ServiceError> {
    let storage: Arc<dyn Storage> = Arc::clone(storage) as Arc<dyn Storage>;
    TemplarService::recover_with_storage(
        db,
        dir,
        storage,
        nlp::TextSimilarity::new(),
        TemplarConfig::paper_defaults(),
        service_config(),
    )
}

/// Start the tenant services and the server.
pub fn start_stack(tenants: &[Tenant], durability: &Durability) -> Stack {
    let registry = Arc::new(TenantRegistry::new());
    let services = tenants
        .iter()
        .map(|t| {
            let log = t.data.full_log();
            let service = match durability {
                Durability::Memory => TemplarService::spawn(
                    Arc::clone(&t.data.db),
                    &log,
                    TemplarConfig::paper_defaults(),
                    service_config(),
                ),
                Durability::Durable(storage, root) => {
                    let dir = root.join(t.id);
                    write_log_snapshot(storage, &dir, &log);
                    recover(storage, Arc::clone(&t.data.db), &dir)
                }
            }
            .expect("start a tenant service");
            registry.register(t.id, service)
        })
        .collect();
    let server = TemplarServer::start(registry, ServerConfig::default().with_workers(WORKERS))
        .expect("start the server");
    Stack { server, services }
}

/// Write `log` as the v3 snapshot of the durable directory `dir`.
pub fn write_log_snapshot(storage: &MemStorage, dir: &Path, log: &templar_core::QueryLog) {
    let qfg = QueryFragmentGraph::build(log, TemplarConfig::paper_defaults().obscurity);
    storage
        .create_dir_all(dir)
        .expect("memory mkdir cannot fail");
    snapshot::write_snapshot_with(storage, &dir.join(SNAPSHOT_FILE), log, &qfg, Some(0))
        .expect("write a tenant snapshot");
}

/// One pass that sends every distinct question once through the socket.
pub fn warm_up(stack: &Stack, tenants: &[Tenant], all: &[Pair], out: &mut Outcome) {
    let mut client = TcpClient::connect_binary(stack.server.local_addr()).expect("connect");
    for &pair in all {
        let ok = client.translate(request(tenants, pair, None)).is_ok();
        out.check(ok, || format!("warm-up translate failed for {pair:?}"));
    }
}

/// Start the stack and warm it `setups` times, timing each; the last stack is
/// kept for the timed phase.  Returns the stack and the set-up times in
/// seconds.
pub fn timed_setups(
    tenants: &[Tenant],
    all: &[Pair],
    setups: usize,
    durable: Option<&Arc<MemStorage>>,
    out: &mut Outcome,
) -> (Stack, Vec<f64>) {
    let mut times = Vec::with_capacity(setups);
    let mut kept = None;
    for k in 0..setups {
        drop(kept.take());
        let root = PathBuf::from(format!("setup{k}"));
        let durability = match durable {
            Some(storage) => Durability::Durable(storage, &root),
            None => Durability::Memory,
        };
        let started = Instant::now();
        let stack = start_stack(tenants, &durability);
        warm_up(&stack, tenants, all, out);
        times.push(seconds(started));
        kept = Some(stack);
    }
    (kept.expect("at least one set-up"), times)
}

/// One operation of a closed-loop client.
#[derive(Clone, Copy)]
pub enum Op {
    Translate(Pair),
    /// Write the pair's gold SQL, as `SubmitSql` or as `Feedback`.
    Write {
        pair: Pair,
        feedback: bool,
    },
}

/// What one closed loop measured.
pub struct LoopResult {
    /// (completion time since the loop started in s, round trip in µs) per
    /// translation.
    pub samples: Vec<(f64, f64)>,
    /// (tenant, acknowledgement time) per write.
    pub write_acks: Vec<(usize, Instant)>,
}

/// Run `ops[c]` on client `c`, all clients in parallel, each keeping one
/// request in flight.  `unique` gives every translation its own question
/// suffix.  `check` judges each translation's response.
pub fn closed_loop(
    addr: std::net::SocketAddr,
    tenants: &[Tenant],
    ops: &[Vec<Op>],
    unique: bool,
    check: &(dyn Fn(Pair, &TranslateResponse) -> bool + Sync),
    out: &mut Outcome,
) -> LoopResult {
    let barrier = Barrier::new(ops.len() + 1);
    let mut start = Instant::now();
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = ops
            .iter()
            .enumerate()
            .map(|(c, client_ops)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = TcpClient::connect_binary(addr).expect("connect");
                    let mut samples = Vec::with_capacity(client_ops.len());
                    let mut failures: Vec<String> = Vec::new();
                    let mut acks = Vec::new();
                    barrier.wait();
                    for (i, op) in client_ops.iter().enumerate() {
                        match *op {
                            Op::Translate(pair) => {
                                let suffix = unique.then_some((c as u64) << 40 | i as u64);
                                let req = request(tenants, pair, suffix);
                                let sent = Instant::now();
                                let result = client.translate(req);
                                let done = Instant::now();
                                let rtt = done.duration_since(sent).as_secs_f64() * 1e6;
                                match result {
                                    Ok(resp) if check(pair, &resp) => samples.push((done, rtt)),
                                    Ok(_) => failures.push(format!("wrong answer for {pair:?}")),
                                    Err(e) => failures.push(format!("translate {pair:?}: {e:?}")),
                                }
                            }
                            Op::Write { pair, feedback } => {
                                let tenant = tenants[pair.tenant].id;
                                let sql = gold_sql(tenants, pair);
                                let result = if feedback {
                                    client.feedback(tenant, &sql)
                                } else {
                                    client.submit_sql(tenant, &sql)
                                };
                                match result {
                                    Ok(()) => acks.push((pair.tenant, Instant::now())),
                                    Err(e) => failures.push(format!("write {pair:?}: {e:?}")),
                                }
                            }
                        }
                    }
                    (samples, failures, acks)
                })
            })
            .collect();
        barrier.wait();
        start = Instant::now();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    let mut result = LoopResult {
        samples: Vec::new(),
        write_acks: Vec::new(),
    };
    for (samples, failures, acks) in results {
        result.samples.extend(
            samples
                .into_iter()
                .map(|(done, rtt)| (done.saturating_duration_since(start).as_secs_f64(), rtt)),
        );
        result.write_acks.extend(acks);
        for failure in failures {
            out.fail(failure);
        }
    }
    out.attempted += ops.iter().map(|o| o.len() as u64).sum::<u64>();
    result
}

/// Translations per closed-loop window, at least: each window's 99th
/// percentile has ten samples or more beyond it.
pub const WINDOW_TRANSLATIONS: usize = 1000;

/// The figures of one closed-loop round, per window.
#[derive(Default)]
pub struct Windows {
    /// Round-trip median and 99th percentile of each window, µs.
    pub p50: Vec<f64>,
    pub p99: Vec<f64>,
    /// Translations completed per second in each window.
    pub rps: Vec<f64>,
}

/// Cut a round, in order of completion, into as many windows of equal count
/// as leave each at least `WINDOW_TRANSLATIONS` translations (one window if
/// the round has fewer).  A window lasts from the previous window's last
/// completion, or the start of the round, to its own last completion.
pub fn windows(result: &LoopResult) -> Windows {
    let mut done = result.samples.clone();
    done.sort_by(|a, b| a.0.total_cmp(&b.0));
    let count = (done.len() / WINDOW_TRANSLATIONS).max(1);
    let mut figures = Windows::default();
    let mut from = 0.0;
    for k in 0..count {
        let window = &done[done.len() * k / count..done.len() * (k + 1) / count];
        let Some(&(until, _)) = window.last() else {
            continue;
        };
        let mut rtts: Vec<f64> = window.iter().map(|&(_, rtt)| rtt).collect();
        rtts.sort_by(f64::total_cmp);
        figures.p50.push(percentile(&rtts, 0.50));
        figures.p99.push(percentile(&rtts, 0.99));
        figures
            .rps
            .push(rtts.len() as f64 / (until - from).max(1e-9));
        from = until;
    }
    figures
}

/// The top-1 correctness rule of the paper (`eval::metrics::fq_correct`)
/// applied to a wire response.
fn top1_correct(response: &TranslateResponse, gold: &sqlparse::Query) -> Option<bool> {
    let mut ranked = Vec::with_capacity(response.candidates.len());
    for candidate in &response.candidates {
        ranked.push(RankedSql {
            query: parse_query(&candidate.sql).ok()?,
            score: candidate.score,
            configuration: None,
            explanation: candidate.explanation.clone(),
        });
    }
    Some(fq_correct(&ranked, gold))
}

/// Fetch every pair's answer through the socket.
pub fn fetch_answers(
    addr: std::net::SocketAddr,
    tenants: &[Tenant],
    all: &[Pair],
    out: &mut Outcome,
) -> Vec<Option<TranslateResponse>> {
    let mut client = TcpClient::connect_binary(addr).expect("connect");
    all.iter()
        .map(|&pair| {
            let answer = client.translate(request(tenants, pair, None)).ok();
            out.check(answer.is_some(), || format!("fetch failed for {pair:?}"));
            answer
        })
        .collect()
}

/// Share of pairs whose fetched top-1 SQL is correct.
pub fn accuracy(
    tenants: &[Tenant],
    all: &[Pair],
    answers: &[Option<TranslateResponse>],
    out: &mut Outcome,
) -> f64 {
    let mut correct = 0usize;
    for (&pair, answer) in all.iter().zip(answers) {
        let gold = &tenants[pair.tenant].data.cases[pair.case].gold_sql;
        let verdict = answer.as_ref().and_then(|a| top1_correct(a, gold));
        out.check(verdict.is_some(), || {
            format!("unparsable candidate SQL for {pair:?}")
        });
        correct += usize::from(verdict == Some(true));
    }
    correct as f64 / all.len().max(1) as f64
}

/// In-process recompute (`bypass_cache`) of each pair's answer.
pub fn recompute<S: Borrow<TemplarService>>(
    services: &[S],
    tenants: &[Tenant],
    pairs: &[Pair],
) -> Vec<Option<TranslateResponse>> {
    pairs
        .iter()
        .map(|&pair| {
            services[pair.tenant]
                .borrow()
                .translate_request(&request(tenants, pair, None).with_bypass_cache())
                .ok()
        })
        .collect()
}

/// One durable directory to restart from, with the database it serves.
pub struct Pristine {
    pub db: Arc<Database>,
    pub dir: PathBuf,
}

/// One restart of a set of pristine directories.
pub struct Restart {
    /// `TemplarService::recover`, summed over the directories, s.
    pub recover_s: f64,
    /// `checkpoint()` right after that recovery, summed, s.
    pub checkpoint_s: f64,
    /// Checkpointed snapshot bytes, summed.
    pub snapshot_bytes: u64,
    pub watermarks: Vec<u64>,
    /// The recovered services, still running.
    pub services: Vec<TemplarService>,
}

/// Copy every pristine directory under `scratch`, time its recovery, then
/// time a checkpoint right after it.  The directories are sealed afterwards,
/// so the services shut down without writing another snapshot.
pub fn restart(
    storage: &Arc<MemStorage>,
    pristine: &[Pristine],
    scratch: &Path,
    out: &mut Outcome,
) -> Restart {
    let mut restart = Restart {
        recover_s: 0.0,
        checkpoint_s: 0.0,
        snapshot_bytes: 0,
        watermarks: Vec::new(),
        services: Vec::new(),
    };
    for (i, p) in pristine.iter().enumerate() {
        let dir = scratch.join(i.to_string());
        storage.copy_dir(&p.dir, &dir);
        let started = Instant::now();
        let service = recover(storage, Arc::clone(&p.db), &dir);
        restart.recover_s += seconds(started);
        let Ok(service) = service else {
            out.fail(format!("recovery of {} failed", dir.display()));
            continue;
        };
        let started = Instant::now();
        let watermark = service.checkpoint();
        restart.checkpoint_s += seconds(started);
        out.check(watermark.is_ok(), || {
            format!("checkpoint of {} failed", dir.display())
        });
        restart.watermarks.push(watermark.unwrap_or(0));
        restart.snapshot_bytes += storage.file_len(&dir.join(SNAPSHOT_FILE)).unwrap_or(0);
        storage.seal(&dir);
        restart.services.push(service);
    }
    restart
}
