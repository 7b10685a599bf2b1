//! Deterministic synthetic log scaling for data-plane stress runs.
//!
//! The Table II benchmark logs top out at a few hundred queries — enough to
//! reproduce the paper's accuracy numbers, three orders of magnitude short
//! of exercising the serving data plane (delta compaction, sectioned
//! snapshots, bounded-memory recovery) at the scale those mechanisms exist
//! for.  [`scale_log`] turns a benchmark log into a million-entry workload
//! while preserving the properties that make the original representative:
//!
//! * **Deterministic**: the output is a pure function of `(base, factor,
//!   seed)` — benches, CI smoke runs and crash-recovery tests replay the
//!   exact same workload on every machine.
//! * **Zipfian-preserving**: synthetic entries draw their template from the
//!   base log under a Zipf-style weight (`1/(rank+1)` over base position),
//!   mirroring how production query logs repeat a head of hot templates with
//!   a long tail — the distribution the QFG's popularity statistics feed on.
//! * **Bounded fragment growth**: entries are grown by perturbing numeric
//!   literals of a sampled template, so the fragment space stays
//!   benchmark-shaped (at `NoConst*` obscurity levels perturbed constants
//!   collapse into the same fragment) while the log, WAL and snapshot bodies
//!   grow linearly with the factor.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use sqlparse::parse_query;
use templar_core::QueryLog;

/// Scale a base log to `factor` times its length, deterministically.
///
/// The base log is included verbatim as the prefix (a scaled log is a
/// superset of the workload it models); the remaining `(factor − 1) ×
/// base.len()` entries are Zipf-weighted template picks with perturbed
/// numeric literals.  `factor == 0` is treated as 1.
pub fn scale_log(base: &QueryLog, factor: usize, seed: u64) -> QueryLog {
    let factor = factor.max(1);
    let mut scaled = base.clone();
    if factor == 1 || base.is_empty() {
        return scaled;
    }
    let templates: Vec<String> = base.queries().iter().map(|q| q.to_string()).collect();
    // Cumulative Zipf-style weights over base position: weight(i) = 1/(i+1),
    // held as scaled integers so sampling stays float-free and portable.
    const WEIGHT_SCALE: u64 = 1_000_000;
    let mut cumulative: Vec<u64> = Vec::with_capacity(templates.len());
    let mut total = 0u64;
    for rank in 0..templates.len() {
        total += WEIGHT_SCALE / (rank as u64 + 1);
        cumulative.push(total);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let goal = base.len() * factor;
    while scaled.len() < goal {
        let ticket = rng.next_u64() % total;
        let pick = cumulative.partition_point(|&c| c <= ticket);
        let sql = perturb_numeric_literals(&templates[pick], &mut rng);
        // Perturbation only rewrites standalone digit runs, so the result
        // parses whenever the template did — which it must have, coming out
        // of a `QueryLog`.  Fall back to the unperturbed template rather
        // than silently shrinking the workload if it ever does not.
        let query = parse_query(&sql)
            .or_else(|_| parse_query(&templates[pick]))
            .expect("a logged query's own SQL text must re-parse");
        scaled.push(query);
    }
    scaled
}

/// Rewrite every standalone run of digits (a numeric literal, not digits
/// embedded in an identifier like `col2`) to a fresh small value drawn from
/// `rng`.  Templates without numeric literals come back unchanged.
fn perturb_numeric_literals(sql: &str, rng: &mut StdRng) -> String {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut out = String::with_capacity(sql.len());
    let mut prev: Option<char> = None;
    let mut chars = sql.chars().peekable();
    while let Some(c) = chars.next() {
        if c.is_ascii_digit() {
            let mut run = String::new();
            run.push(c);
            while let Some(&d) = chars.peek() {
                if d.is_ascii_digit() {
                    run.push(d);
                    chars.next();
                } else {
                    break;
                }
            }
            let standalone =
                !prev.is_some_and(is_ident) && !chars.peek().copied().is_some_and(is_ident);
            if standalone {
                out.push_str(&(rng.next_u64() % 10_000).to_string());
            } else {
                out.push_str(&run);
            }
            prev = run.chars().last();
        } else {
            out.push(c);
            prev = Some(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dataset;

    fn base() -> QueryLog {
        // A small slice of MAS keeps the tests fast while covering
        // templates with and without numeric literals.
        let mas = Dataset::mas();
        let mut log = QueryLog::new();
        for case in mas.cases.iter().take(12) {
            log.push(case.gold_sql.clone());
        }
        log
    }

    #[test]
    fn scaling_is_deterministic_and_exactly_sized() {
        let base = base();
        let a = scale_log(&base, 20, 9);
        let b = scale_log(&base, 20, 9);
        assert_eq!(a.len(), base.len() * 20);
        assert_eq!(a, b, "same (base, factor, seed) must replay identically");
        let c = scale_log(&base, 20, 10);
        assert_ne!(a, c, "a different seed must produce a different workload");
    }

    #[test]
    fn the_base_log_is_the_verbatim_prefix_and_factor_one_is_identity() {
        let base = base();
        let scaled = scale_log(&base, 5, 3);
        for (i, q) in base.queries().iter().enumerate() {
            assert_eq!(&scaled.queries()[i], q);
        }
        assert_eq!(scale_log(&base, 1, 3), base);
        assert_eq!(scale_log(&base, 0, 3), base, "factor 0 clamps to identity");
    }

    #[test]
    fn synthetic_entries_follow_a_head_heavy_template_distribution() {
        let base = base();
        let scaled = scale_log(&base, 200, 7);
        // Count synthetic picks by matching the FROM clause back to its
        // template (perturbation never touches identifiers).
        let from_of = |sql: &str| {
            let lower = sql.to_lowercase();
            let at = lower.find(" from ").expect("every query has FROM");
            lower[at..].to_string()
        };
        let heads: Vec<String> = base
            .queries()
            .iter()
            .map(|q| from_of(&q.to_string()))
            .collect();
        let mut counts = vec![0usize; heads.len()];
        for q in scaled.queries().iter().skip(base.len()) {
            let f = from_of(&q.to_string());
            if let Some(i) = heads.iter().position(|h| h == &f) {
                counts[i] += 1;
            }
        }
        let front: usize = counts.iter().take(3).sum();
        let back: usize = counts.iter().rev().take(3).sum();
        assert!(
            front > back,
            "Zipf weighting must favour early templates: head {front} vs tail {back}"
        );
    }

    #[test]
    fn perturbation_rewrites_literals_but_never_identifiers() {
        let mut rng = StdRng::seed_from_u64(1);
        let sql = "SELECT col2 FROM t1_x WHERE year > 2003 AND n = 17";
        let out = perturb_numeric_literals(sql, &mut rng);
        assert!(out.contains("col2"), "identifier digits survive: {out}");
        assert!(out.contains("t1_x"), "identifier digits survive: {out}");
        assert!(
            !out.contains("2003") || !out.contains("17"),
            "literals change: {out}"
        );
        assert!(parse_query(&out).is_ok(), "perturbed SQL re-parses: {out}");
    }
}
