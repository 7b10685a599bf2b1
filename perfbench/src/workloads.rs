//! The three workloads, untraced: every end-to-end metric comes from here.
//!
//! * `cold_translate` — uniform draws over the 449 questions, each with a
//!   unique question suffix, so every request misses the translation cache
//!   while keyword sets recur.  Pruning and SQL construction dominate.
//! * `zipf_logged` — durable tenants; Zipf(1) draws over the 449
//!   (tenant, question) pairs and a gold-SQL write after every 8th answer.
//!   Cache hits set the median; misses after each publish set the tail.
//! * `restart_100x` — recovery of MAS from a 100x v3 snapshot plus an
//!   equally long journal tail, then a checkpoint.  The data plane
//!   dominates.
//!
//! Every workload reports every end-to-end metric, and every figure is
//! measured.  A run is a series of rounds; each round runs one slice of the
//! workload's closed-loop traffic and restarts (recovery, then a
//! checkpoint) the workload's own state.  The translate workloads restart
//! copies of their tenants' snapshots; `restart_100x` writes its pristine
//! directory anew in every round and serves its slice of cold translations
//! from the service it just recovered.  Translate figures are quartiles
//! over windows of the rounds and restart figures quartiles over the
//! restarts, so every figure samples the whole run; `setup_s` is the median
//! of the run's set-ups.

use crate::common::{median, peak_rss_mb, quantile, seconds, Outcome, Rng, Zipf};
use crate::memfs::MemStorage;
use crate::stack::{
    accuracy, closed_loop, fetch_answers, pairs, recompute, restart, tenants, timed_setups,
    windows, write_log_snapshot, LoopResult, Op, Pair, Pristine, Restart, Tenant, CLIENTS, WORKERS,
};
use datasets::{scale_log, Dataset};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use templar_api::TranslateResponse;
use templar_core::{QueryFragmentGraph, QueryLog, TemplarConfig};
use templar_server::{ServerConfig, TemplarServer};
use templar_service::{
    snapshot, wal, Storage, TemplarService, TenantRegistry, WalConfig, SNAPSHOT_FILE, WAL_DIR,
};

/// How much work one run does.  Runs are sized by operation count: the
/// counts scale with `--seconds` at the rates the reference host (2 vCPUs)
/// sustains, so the set of operations, and every exact figure, depends only
/// on the seed and the run length.
pub struct Plan {
    pub seed: u64,
    pub seconds: u64,
    pub smoke: bool,
}

impl Plan {
    /// Set-ups of a translate workload.
    pub fn setups(&self) -> usize {
        if self.smoke {
            1
        } else {
            5
        }
    }

    /// Rounds of a run: `full` at full size, two at smoke size.
    pub fn rounds(&self, full: usize) -> usize {
        if self.smoke {
            2
        } else {
            full
        }
    }

    pub fn scaled(&self, per_second: u64, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            (per_second * self.seconds) as usize
        }
    }

    pub fn cold_requests(&self) -> usize {
        self.scaled(1900, 200)
    }

    pub fn zipf_translations(&self) -> usize {
        self.scaled(5000, 400)
    }

    pub fn restart_factor(&self) -> usize {
        if self.smoke {
            2
        } else {
            100
        }
    }

    /// Rounds of a `restart_100x` run: one restart each.
    pub fn restart_rounds(&self) -> usize {
        self.rounds((self.seconds as usize * 2 / 5).max(3))
    }

    pub fn restart_translations(&self) -> usize {
        self.scaled(400, 60)
    }
}

/// Index of a pair in `pairs(tenants)`.
pub fn pair_index(tenants: &[Tenant], pair: Pair) -> usize {
    tenants[..pair.tenant]
        .iter()
        .map(|t| t.data.cases.len())
        .sum::<usize>()
        + pair.case
}

/// Uniform draws over `all`, split across the clients.
pub fn uniform_ops(all: &[Pair], total: usize, rng: &mut Rng) -> Vec<Vec<Op>> {
    (0..CLIENTS)
        .map(|_| {
            (0..total / CLIENTS)
                .map(|_| Op::Translate(all[rng.below(all.len())]))
                .collect()
        })
        .collect()
}

/// Restarts per round of a translate workload.  Their tenant logs are
/// small, so a few restarts per round cost little and give the recovery
/// figures more samples.
const TENANT_RESTARTS: usize = 3;

/// Rounds of a `zipf_logged` run.
const ZIPF_ROUNDS: usize = 8;

/// Zipf(1) draws over `all`, with the rank order shuffled by the seed;
/// after every 8th answer a client writes that pair's gold SQL, alternating
/// `SubmitSql` and `Feedback`.
pub fn zipf_ops(all: &[Pair], translations: usize, rng: &mut Rng) -> Vec<Vec<Op>> {
    let mut order: Vec<usize> = (0..all.len()).collect();
    rng.shuffle(&mut order);
    let zipf = Zipf::new(all.len());
    (0..CLIENTS)
        .map(|_| {
            let mut ops = Vec::new();
            let mut feedback = false;
            for i in 0..translations / CLIENTS {
                let pair = all[order[zipf.sample(rng)]];
                ops.push(Op::Translate(pair));
                if (i + 1) % 8 == 0 {
                    ops.push(Op::Write { pair, feedback });
                    feedback = !feedback;
                }
            }
            ops
        })
        .collect()
}

/// Round `k` of `rounds`: the matching slice of every client's operations.
pub fn slice(ops: &[Vec<Op>], k: usize, rounds: usize) -> Vec<Vec<Op>> {
    ops.iter()
        .map(|c| c[c.len() * k / rounds..c.len() * (k + 1) / rounds].to_vec())
        .collect()
}

/// SQL text bytes of a log.
fn log_bytes(log: &QueryLog) -> u64 {
    log.queries()
        .iter()
        .map(|q| q.to_string().len() as u64)
        .sum()
}

/// Figures gathered over a run's rounds.
#[derive(Default)]
struct Rounds {
    windows: crate::stack::Windows,
    translations: usize,
    recover: Vec<f64>,
    checkpoint: Vec<f64>,
    setup: Vec<f64>,
}

impl Rounds {
    fn translate(&mut self, result: &LoopResult) {
        let round = windows(result);
        self.windows.p50.extend(round.p50);
        self.windows.p99.extend(round.p99);
        self.windows.rps.extend(round.rps);
        self.translations += result.samples.len();
    }

    fn restart(&mut self, restart: &Restart) {
        self.recover.push(restart.recover_s);
        self.checkpoint.push(restart.checkpoint_s);
    }

    fn report(&self, out: &mut Outcome, bytes_per_log_byte: f64, accuracy: f64, questions: usize) {
        let n = self.translations;
        let quartiles = |v: &[f64], scale: f64| {
            let q = |p| quantile(v, p) * scale;
            format!("{:.1} / {:.1} / {:.1}", q(0.25), q(0.5), q(0.75))
        };
        let w = &self.windows;
        out.note(format!(
            "quartiles over {} windows: p50 us {}; p99 us {}; rps {}",
            w.rps.len(),
            quartiles(&w.p50, 1.0),
            quartiles(&w.p99, 1.0),
            quartiles(&w.rps, 1.0)
        ));
        out.note(format!(
            "quartiles over {} restarts: recover ms {}; checkpoint ms {}",
            self.recover.len(),
            quartiles(&self.recover, 1e3),
            quartiles(&self.checkpoint, 1e3)
        ));
        out.note(format!(
            "quartiles over {} set-ups: ms {}",
            self.setup.len(),
            quartiles(&self.setup, 1e3)
        ));
        out.metric("setup_s", median(&self.setup), "s", self.setup.len());
        out.metric("translate_p50_us", quantile(&w.p50, 0.25), "us", n);
        out.metric("translate_p99_us", quantile(&w.p99, 0.25), "us", n);
        out.metric("throughput_rps", quantile(&w.rps, 0.75), "1/s", n);
        let restarts = self.recover.len();
        out.metric("recover_s", quantile(&self.recover, 0.25), "s", restarts);
        out.metric(
            "checkpoint_s",
            quantile(&self.checkpoint, 0.25),
            "s",
            restarts,
        );
        out.metric("snapshot_bytes_per_log_byte", bytes_per_log_byte, "B/B", 1);
        out.metric("peak_rss_mb", peak_rss_mb(), "MiB", 1);
        out.metric("top1_accuracy", accuracy, "share", questions);
    }
}

/// Snapshot every live durable tenant into `<dir>/<tenant>` (untimed).
fn save_tenants(
    services: &[Arc<TemplarService>],
    tenants: &[Tenant],
    dir: &Path,
    out: &mut Outcome,
) -> Vec<Pristine> {
    tenants
        .iter()
        .zip(services)
        .map(|(t, service)| {
            let dir = dir.join(t.id);
            let saved = service.save_snapshot(&dir.join(SNAPSHOT_FILE));
            out.check(saved.is_ok(), || format!("snapshot of {} failed", t.id));
            Pristine {
                db: Arc::clone(&t.data.db),
                dir,
            }
        })
        .collect()
}

/// Checks that hold a run's restarts together.  The first restart must
/// answer every pair, and exactly as `live` when the live answers of the
/// same state are known; every later restart must answer every 12th pair
/// exactly as the first did.
fn check_restart(
    first: &mut Option<Vec<Option<TranslateResponse>>>,
    restarted: &[TemplarService],
    tenants: &[Tenant],
    all: &[Pair],
    live: Option<&[Option<TranslateResponse>]>,
    out: &mut Outcome,
) {
    match first {
        None => {
            let answers = recompute(restarted, tenants, all);
            for (i, pair) in all.iter().enumerate() {
                let ok = answers[i].is_some() && live.is_none_or(|live| live[i] == answers[i]);
                out.check(ok, || format!("answer after restart differs for {pair:?}"));
            }
            *first = Some(answers);
        }
        Some(first) => {
            for (i, &pair) in all.iter().enumerate().step_by(12) {
                let again = recompute(restarted, tenants, &[pair]);
                out.check(again[0].is_some() && again[0] == first[i], || {
                    format!("a restart answered {pair:?} differently")
                });
            }
        }
    }
}

pub fn cold_translate(plan: &Plan, out: &mut Outcome) {
    let tenants = tenants();
    let all = pairs(&tenants);
    let ops = uniform_ops(&all, plan.cold_requests(), &mut Rng::new(plan.seed));
    let rounds = plan.rounds(15);
    let storage = MemStorage::new("cold_translate");

    let (stack, setup) = timed_setups(&tenants, &all, plan.setups(), None, out);
    let mut figures = Rounds {
        setup,
        ..Rounds::default()
    };
    // The snapshot never changes in this workload: every response must be
    // the answer a forced recompute gave at set-up, and so must a restart
    // of it.
    let expected = recompute(&stack.services, &tenants, &all);
    for (pair, answer) in all.iter().zip(&expected) {
        out.check(answer.is_some(), || format!("no answer for {pair:?}"));
    }
    let pristine: Vec<Pristine> = tenants
        .iter()
        .map(|t| {
            let dir = Path::new("pristine").join(t.id);
            write_log_snapshot(&storage, &dir, &t.data.full_log());
            Pristine {
                db: Arc::clone(&t.data.db),
                dir,
            }
        })
        .collect();
    let log: u64 = tenants.iter().map(|t| log_bytes(&t.data.full_log())).sum();
    let check = |pair: Pair, response: &TranslateResponse| {
        expected[pair_index(&tenants, pair)].as_ref() == Some(response)
    };
    let addr = stack.server.local_addr();
    let mut first = None;
    let mut ratio = 0.0;
    for k in 0..rounds {
        let result = closed_loop(addr, &tenants, &slice(&ops, k, rounds), true, &check, out);
        figures.translate(&result);
        for r in 0..TENANT_RESTARTS {
            let scratch = PathBuf::from(format!("restart{k}-{r}"));
            let restarted = restart(&storage, &pristine, &scratch, out);
            figures.restart(&restarted);
            ratio = restarted.snapshot_bytes as f64 / log as f64;
            check_restart(
                &mut first,
                &restarted.services,
                &tenants,
                &all,
                Some(&expected),
                out,
            );
            drop(restarted);
            storage.remove_dir_all(&scratch);
        }
    }
    let answers = fetch_answers(addr, &tenants, &all, out);
    for ((pair, got), want) in all.iter().zip(&answers).zip(&expected) {
        out.check(got == want, || format!("final answer differs for {pair:?}"));
    }
    let top1 = accuracy(&tenants, &all, &answers, out);
    figures.report(out, ratio, top1, all.len());
}

pub fn zipf_logged(plan: &Plan, out: &mut Outcome) {
    let tenants = tenants();
    let all = pairs(&tenants);
    let ops = zipf_ops(&all, plan.zipf_translations(), &mut Rng::new(plan.seed));
    let rounds = plan.rounds(ZIPF_ROUNDS);
    let storage = MemStorage::new("zipf_logged");

    let (stack, setup) = timed_setups(&tenants, &all, plan.setups(), Some(&storage), out);
    let mut figures = Rounds {
        setup,
        ..Rounds::default()
    };
    let check = |_: Pair, response: &TranslateResponse| !response.candidates.is_empty();
    let addr = stack.server.local_addr();
    let mut first = None;
    let mut ratio = 0.0;
    let mut log = 0u64;
    let mut pristine = Vec::new();
    for k in 0..rounds {
        let round = slice(&ops, k, rounds);
        let result = closed_loop(addr, &tenants, &round, false, &check, out);
        figures.translate(&result);
        // Every round restarts the tenants as they stood after the first
        // one, so the restarts are alike and spread over the run.
        let mut live = None;
        if k == 0 {
            for service in &stack.services {
                service.flush();
            }
            live = Some(recompute(&stack.services, &tenants, &all));
            pristine = save_tenants(&stack.services, &tenants, Path::new("pristine"), out);
            let written: u64 = round
                .iter()
                .flatten()
                .map(|op| match *op {
                    Op::Write { pair, .. } => crate::stack::gold_sql(&tenants, pair).len() as u64,
                    Op::Translate(_) => 0,
                })
                .sum();
            log = written
                + tenants
                    .iter()
                    .map(|t| log_bytes(&t.data.full_log()))
                    .sum::<u64>();
        }
        for r in 0..TENANT_RESTARTS {
            let scratch = PathBuf::from(format!("restart{k}-{r}"));
            let restarted = restart(&storage, &pristine, &scratch, out);
            figures.restart(&restarted);
            ratio = restarted.snapshot_bytes as f64 / log as f64;
            check_restart(
                &mut first,
                &restarted.services,
                &tenants,
                &all,
                live.as_deref(),
                out,
            );
            drop(restarted);
            storage.remove_dir_all(&scratch);
        }
    }
    // After the final flush every answer through the socket must equal an
    // in-process recompute on the same snapshot.
    for service in &stack.services {
        service.flush();
    }
    let live = recompute(&stack.services, &tenants, &all);
    let answers = fetch_answers(addr, &tenants, &all, out);
    for ((pair, got), want) in all.iter().zip(&answers).zip(&live) {
        out.check(got.is_some() && got == want, || {
            format!("socket answer differs from a recompute for {pair:?}")
        });
    }
    let top1 = accuracy(&tenants, &all, &answers, out);
    figures.report(out, ratio, top1, all.len());
}

/// The inputs of `restart_100x`: a scaled MAS log for the snapshot and an
/// equally long journal tail.
pub struct RestartInputs {
    pub mas: Dataset,
    pub snapshot_log: QueryLog,
    pub tail: Vec<String>,
}

impl RestartInputs {
    pub fn generate(plan: &Plan) -> RestartInputs {
        let mas = Dataset::mas();
        let base = mas.full_log();
        let factor = plan.restart_factor();
        let snapshot_log = scale_log(&base, factor, plan.seed);
        let tail = scale_log(&base, factor, plan.seed ^ 0x7A11_5EED)
            .queries()
            .iter()
            .map(|q| q.to_string())
            .collect();
        RestartInputs {
            mas,
            snapshot_log,
            tail,
        }
    }

    pub fn entries(&self) -> u64 {
        (self.snapshot_log.len() + self.tail.len()) as u64
    }

    /// Write the pristine directory with the public snapshot and journal
    /// writers: the snapshot holds the scaled log at watermark N, the
    /// journal the tail as records N+1 ...
    pub fn write_pristine(&self, storage: &Arc<MemStorage>, dir: &Path) {
        storage
            .create_dir_all(dir)
            .expect("memory mkdir cannot fail");
        let obscurity = TemplarConfig::paper_defaults().obscurity;
        let qfg = QueryFragmentGraph::build(&self.snapshot_log, obscurity);
        let watermark = self.snapshot_log.len() as u64;
        snapshot::write_snapshot_with(
            storage.as_ref(),
            &dir.join(SNAPSHOT_FILE),
            &self.snapshot_log,
            &qfg,
            Some(watermark),
        )
        .expect("write the pristine snapshot");
        let mut journal = wal::WalWriter::create_with(
            Arc::clone(storage) as Arc<dyn Storage>,
            &dir.join(WAL_DIR),
            watermark + 1,
            WalConfig::default(),
        )
        .expect("create the journal");
        for sql in &self.tail {
            journal.append(sql);
        }
        journal.sync().expect("sync the journal");
    }
}

pub fn restart_100x(plan: &Plan, out: &mut Outcome) {
    let inputs = RestartInputs::generate(plan);
    let entries = inputs.entries();
    let tail_len = inputs.tail.len() as u64;
    let rounds = plan.restart_rounds();
    let storage = MemStorage::new("restart_100x");
    let log =
        log_bytes(&inputs.snapshot_log) + inputs.tail.iter().map(|s| s.len() as u64).sum::<u64>();

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
    let mut figures = Rounds::default();
    let mut first = None;
    for k in 0..rounds {
        // The set-up: the pristine directory, written anew every round.
        let dir = PathBuf::from(format!("pristine{k}"));
        let started = Instant::now();
        inputs.write_pristine(&storage, &dir);
        figures.setup.push(seconds(started));
        let pristine = [Pristine {
            db: Arc::clone(&inputs.mas.db),
            dir: dir.clone(),
        }];

        let scratch = PathBuf::from(format!("restart{k}"));
        let mut restarted = restart(&storage, &pristine, &scratch, out);
        figures.restart(&restarted);
        let ratio = restarted.snapshot_bytes as f64 / log as f64;
        check_restart(&mut first, &restarted.services, &tenant, &all, None, out);
        storage.remove_dir_all(&dir);
        let Some(service) = restarted.services.pop() else {
            continue;
        };
        let m = service.metrics();
        out.check(
            m.qfg_queries == entries
                && m.wal_applied_seq == entries
                && m.wal_replayed == tail_len
                && restarted.watermarks == [entries],
            || {
                format!(
                    "recovery holds {} entries at watermark {} (replayed {}), want {entries}",
                    m.qfg_queries, m.wal_applied_seq, m.wal_replayed
                )
            },
        );

        // Cold translations over the socket from the service just
        // recovered: what the first users after a restart see.
        let registry = Arc::new(TenantRegistry::new());
        let service = registry.register("mas", service);
        let server = TemplarServer::start(
            Arc::clone(&registry),
            ServerConfig::default().with_workers(WORKERS),
        )
        .expect("start the server");
        let expected = first.as_deref().unwrap_or_default();
        let check = |pair: Pair, response: &TranslateResponse| {
            expected[pair.case].as_ref() == Some(response)
        };
        let result = closed_loop(
            server.local_addr(),
            &tenant,
            &slice(&ops, k, rounds),
            true,
            &check,
            out,
        );
        figures.translate(&result);
        if k + 1 == rounds {
            let answers = fetch_answers(server.local_addr(), &tenant, &all, out);
            let top1 = accuracy(&tenant, &all, &answers, out);
            figures.report(out, ratio, top1, all.len());
        }
        drop(server);
        drop(service);
        drop(registry);
        storage.remove_dir_all(&scratch);
    }
}
