//! Property-based tests for the Query Fragment Graph's mutation model
//! (following the pattern of `crates/nlp/tests/properties.rs`):
//!
//! * incremental `ingest` over a shuffled log ≡ batch `build`,
//! * `remove` is the exact inverse of `ingest`,
//! * the interned/columnar graph is observationally equivalent to the
//!   reference map-based model it replaced (same occurrence, co-occurrence
//!   and Dice values within 1e-12) under arbitrary ingest/remove/compact
//!   sequences,
//! * Dice-coefficient edge cases (self-co-occurrence, zero-count fragments).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::HashMap;
use templar_core::{fragments_of_query, Obscurity, QueryFragment, QueryFragmentGraph, QueryLog};

/// Tables and columns of the miniature academic schema used to generate
/// random-but-parsable SQL.
const TABLES: [(&str, &str, [&str; 2]); 3] = [
    ("publication", "p", ["title", "year"]),
    ("journal", "j", ["name", "jid"]),
    ("author", "a", ["name", "aid"]),
];

const OPS: [&str; 4] = [">", "<", "=", ">="];

/// One random single-table query: `SELECT t.c FROM t [WHERE t.c op n]`.
fn single_table_query() -> impl Strategy<Value = String> {
    (
        0usize..TABLES.len(),
        0usize..2,
        proptest::option::of((0usize..2, 0usize..OPS.len(), 0i64..40)),
    )
        .prop_map(|(t, c, pred)| {
            let (table, alias, cols) = TABLES[t];
            let mut sql = format!("SELECT {alias}.{} FROM {table} {alias}", cols[c]);
            if let Some((pc, op, v)) = pred {
                sql.push_str(&format!(" WHERE {alias}.{} {} {v}", cols[pc], OPS[op]));
            }
            sql
        })
}

/// One random join query over publication × journal.
fn join_query() -> impl Strategy<Value = String> {
    (0usize..2, proptest::option::of(0i64..40)).prop_map(|(c, year)| {
        let select = ["p.title", "j.name"][c];
        let mut sql = format!("SELECT {select} FROM publication p, journal j WHERE p.jid = j.jid");
        if let Some(y) = year {
            sql.push_str(&format!(" AND p.year > {y}"));
        }
        sql
    })
}

/// A random log of up to 24 queries.
fn log_strategy() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(prop_oneof![single_table_query(), join_query()], 1..24)
}

fn parse_log(sqls: &[String]) -> QueryLog {
    let (log, skipped) = QueryLog::from_sql(sqls.iter().map(String::as_str));
    assert_eq!(skipped, 0, "generated SQL must parse: {sqls:?}");
    log
}

// ---------------------------------------------------------------------------
// Reference model: the map-based QFG the columnar graph replaced
// ---------------------------------------------------------------------------

/// The old representation, verbatim in behaviour: owned fragments as map
/// keys, unordered pairs keyed with the lexicographically smaller fragment
/// first, zero counts pruned.  Kept as the executable specification the
/// interned/columnar production graph is checked against.
#[derive(Default)]
struct ModelQfg {
    occurrences: HashMap<QueryFragment, u64>,
    co_occurrences: HashMap<(QueryFragment, QueryFragment), u64>,
    query_count: usize,
}

impl ModelQfg {
    fn pair_key(a: &QueryFragment, b: &QueryFragment) -> (QueryFragment, QueryFragment) {
        if a <= b {
            (a.clone(), b.clone())
        } else {
            (b.clone(), a.clone())
        }
    }

    fn distinct_fragments(
        query: &sqlparse::Query,
        obscurity: Obscurity,
    ) -> std::collections::BTreeSet<QueryFragment> {
        fragments_of_query(query, obscurity).into_iter().collect()
    }

    fn ingest(&mut self, query: &sqlparse::Query, obscurity: Obscurity) {
        self.query_count += 1;
        let fragments = Self::distinct_fragments(query, obscurity);
        for f in &fragments {
            *self.occurrences.entry(f.clone()).or_insert(0) += 1;
        }
        let list: Vec<&QueryFragment> = fragments.iter().collect();
        for i in 0..list.len() {
            for j in (i + 1)..list.len() {
                let key = Self::pair_key(list[i], list[j]);
                *self.co_occurrences.entry(key).or_insert(0) += 1;
            }
        }
    }

    fn remove(&mut self, query: &sqlparse::Query, obscurity: Obscurity) -> bool {
        if self.query_count == 0 {
            return false;
        }
        let fragments = Self::distinct_fragments(query, obscurity);
        for f in &fragments {
            if self.occurrences.get(f).copied().unwrap_or(0) == 0 {
                return false;
            }
        }
        let list: Vec<&QueryFragment> = fragments.iter().collect();
        for i in 0..list.len() {
            for j in (i + 1)..list.len() {
                let key = Self::pair_key(list[i], list[j]);
                if self.co_occurrences.get(&key).copied().unwrap_or(0) == 0 {
                    return false;
                }
            }
        }
        self.query_count -= 1;
        let mut died: Vec<QueryFragment> = Vec::new();
        for f in &fragments {
            if let Some(count) = self.occurrences.get_mut(f) {
                *count -= 1;
                if *count == 0 {
                    self.occurrences.remove(f);
                    died.push(f.clone());
                }
            }
        }
        for i in 0..list.len() {
            for j in (i + 1)..list.len() {
                let key = Self::pair_key(list[i], list[j]);
                if let Some(count) = self.co_occurrences.get_mut(&key) {
                    *count -= 1;
                    if *count == 0 {
                        self.co_occurrences.remove(&key);
                    }
                }
            }
        }
        // A fragment with zero occurrences co-occurs with nothing:
        // `n_e(c, x) ≤ n_v(c)` is part of the spec, so pairs stranded by an
        // over-removal (the fragment died while a pair from some *other*
        // query still referenced it) are dropped with the fragment — exactly
        // what the production graph's pre-release purge does.
        if !died.is_empty() {
            self.co_occurrences
                .retain(|(a, b), _| !died.contains(a) && !died.contains(b));
        }
        true
    }

    fn occurrences(&self, fragment: &QueryFragment) -> u64 {
        self.occurrences.get(fragment).copied().unwrap_or(0)
    }

    fn co_occurrences(&self, a: &QueryFragment, b: &QueryFragment) -> u64 {
        if a == b {
            return self.occurrences(a);
        }
        self.co_occurrences
            .get(&Self::pair_key(a, b))
            .copied()
            .unwrap_or(0)
    }

    fn dice(&self, a: &QueryFragment, b: &QueryFragment) -> f64 {
        let na = self.occurrences(a);
        let nb = self.occurrences(b);
        if na + nb == 0 {
            return 0.0;
        }
        let ne = self.co_occurrences(a, b);
        (2.0 * ne as f64) / ((na + nb) as f64)
    }

    /// The reference for the columnar graph's `max_dice` column: the maximum
    /// Dice coefficient between `a` and every *other* live fragment.
    fn max_dice(&self, a: &QueryFragment) -> f64 {
        self.occurrences
            .keys()
            .filter(|b| *b != a)
            .map(|b| self.dice(a, b))
            .fold(0.0, f64::max)
    }
}

/// Assert the columnar graph's per-fragment `max_dice` column against the
/// model: the clamped bound the search consumes is always admissible, and
/// after a compaction the column is exact.  (Both sides can exceed 1.0 in
/// the degenerate phantom-removal states `remove` tolerates, which is why
/// admissibility is stated on the clamped value the search actually uses.)
fn assert_max_dice_consistent(model: &ModelQfg, graph: &QueryFragmentGraph) {
    let mut compacted = graph.clone();
    compacted.compact();
    for fragment in model.occurrences.keys() {
        let expected = model.max_dice(fragment);
        let id = graph
            .lookup(fragment)
            .expect("live model fragment must be interned");
        assert!(
            graph.max_dice_by_id(id).min(1.0) >= expected.min(1.0) - 1e-12,
            "max_dice must stay an admissible upper bound for {fragment}: \
             column {} < true max {expected}",
            graph.max_dice_by_id(id)
        );
        let exact = compacted.max_dice_by_id(id);
        assert!(
            (exact - expected).abs() < 1e-12,
            "compacted max_dice must be exact for {fragment}: column {exact} vs model {expected}"
        );
    }
}

proptest! {
    /// Ingesting every query of a log — in any order — into an empty graph
    /// yields exactly the graph a batch build produces, at every obscurity
    /// level.
    #[test]
    fn shuffled_ingest_equals_batch_build(sqls in log_strategy(), seed in any::<u64>()) {
        let log = parse_log(&sqls);
        for obscurity in Obscurity::ALL {
            let batch = QueryFragmentGraph::build(&log, obscurity);

            let mut shuffled: Vec<_> = log.queries().iter().cloned().collect();
            StdRng::seed_from_u64(seed).shuffle(&mut shuffled);

            let mut incremental = QueryFragmentGraph::empty(obscurity);
            for query in &shuffled {
                incremental.ingest(query);
            }
            prop_assert_eq!(
                &batch, &incremental,
                "ingest-from-empty must equal build at {:?}", obscurity
            );
        }
    }

    /// `remove` exactly inverts `ingest`: adding a batch of extra queries
    /// and removing them again restores the original graph, including the
    /// pruning of zero-count vertices and edges.
    #[test]
    fn remove_inverts_ingest(base in log_strategy(), extra in log_strategy()) {
        let base_log = parse_log(&base);
        let extra_log = parse_log(&extra);
        let original = QueryFragmentGraph::build(&base_log, Obscurity::NoConstOp);

        let mut graph = original.clone();
        for query in extra_log.queries() {
            graph.ingest(query);
        }
        for query in extra_log.queries() {
            prop_assert!(graph.remove(query), "removing an ingested query must succeed");
        }
        prop_assert_eq!(&graph, &original);
    }

    /// Removing every query leaves a completely empty graph — no stale
    /// zero-count entries keep memory alive.
    #[test]
    fn removing_all_queries_empties_the_graph(sqls in log_strategy()) {
        let log = parse_log(&sqls);
        let mut graph = QueryFragmentGraph::build(&log, Obscurity::NoConst);
        for query in log.queries() {
            prop_assert!(graph.remove(query));
        }
        prop_assert_eq!(graph.fragment_count(), 0);
        prop_assert_eq!(graph.edge_count(), 0);
        prop_assert_eq!(graph.query_count(), 0);
    }

    /// The interned/columnar graph is observationally equivalent to the
    /// reference map-based model under an arbitrary interleaving of ingests,
    /// removes and compactions: every occurrence count, co-occurrence count
    /// and Dice coefficient agrees (counts exactly, Dice within 1e-12) at
    /// every step, at every obscurity level.
    #[test]
    fn columnar_graph_is_observationally_equivalent_to_the_map_model(
        base in log_strategy(),
        extra in log_strategy(),
        op_seed in any::<u64>(),
    ) {
        for obscurity in Obscurity::ALL {
            let base_log = parse_log(&base);
            let extra_log = parse_log(&extra);
            let mut model = ModelQfg::default();
            let mut graph = QueryFragmentGraph::empty(obscurity);
            // Deterministic op schedule: ingest the base, then interleave
            // ingest/remove/compact decisions drawn from the seed.
            let mut rng = StdRng::seed_from_u64(op_seed);
            for query in base_log.queries() {
                model.ingest(query, obscurity);
                graph.ingest(query);
            }
            for query in extra_log.queries() {
                match rng.next_u64() % 4 {
                    // Removing a base query exercises id release/recycling;
                    // both sides must agree on whether the removal applies.
                    0 => {
                        let victims: Vec<_> = base_log.queries().iter().cloned().collect();
                        let victim = &victims[(rng.next_u64() as usize) % victims.len()];
                        let model_removed = model.remove(victim, obscurity);
                        let graph_removed = graph.remove(victim);
                        prop_assert_eq!(model_removed, graph_removed);
                    }
                    // Compaction must be observation-neutral.
                    1 => graph.compact(),
                    _ => {
                        model.ingest(query, obscurity);
                        graph.ingest(query);
                    }
                }
                prop_assert_eq!(model.query_count, graph.query_count());
                prop_assert_eq!(model.occurrences.len(), graph.fragment_count());
                prop_assert_eq!(model.co_occurrences.len(), graph.edge_count());
                // The max-Dice column must stay an admissible upper bound at
                // every intermediate state and become exact on compaction.
                assert_max_dice_consistent(&model, &graph);
            }
            // Full observational sweep over the union of live fragments plus
            // a fragment neither side has seen.
            let mut fragments: Vec<QueryFragment> =
                model.occurrences.keys().cloned().collect();
            fragments.push(QueryFragment {
                expr: "never.seen ?op ?val".to_string(),
                context: templar_core::QueryContext::Where,
            });
            for a in &fragments {
                prop_assert_eq!(model.occurrences(a), graph.occurrences(a));
                for b in &fragments {
                    prop_assert_eq!(
                        model.co_occurrences(a, b),
                        graph.co_occurrences(a, b),
                        "co-occurrence mismatch for {} / {}", a, b
                    );
                    let d_model = model.dice(a, b);
                    let d_graph = graph.dice(a, b);
                    prop_assert!(
                        (d_model - d_graph).abs() < 1e-12,
                        "dice mismatch for {} / {}: model {} vs columnar {}",
                        a, b, d_model, d_graph
                    );
                }
            }
        }
    }

    /// Id-recycling audit (remove → compact-interleaved → re-intern): after
    /// removing *every* base query — releasing every fragment slot, with
    /// compactions interleaved at seed-chosen points so the cancelled
    /// baselines are folded away at different stages — re-ingesting a fresh
    /// log must intern new fragments into the recycled slots without
    /// inheriting stale occurrence counts or pending delta-log entries
    /// addressed to the slots' previous tenants.  The recycled graph is
    /// checked observation-for-observation against the map-based reference
    /// model (which has no ids to recycle) and against a from-scratch build
    /// of the second log.
    #[test]
    fn recycled_ids_never_inherit_stale_state(
        base in log_strategy(),
        extra in log_strategy(),
        compact_seed in any::<u64>(),
    ) {
        for obscurity in Obscurity::ALL {
            let base_log = parse_log(&base);
            let extra_log = parse_log(&extra);
            let mut graph = QueryFragmentGraph::build(&base_log, obscurity);
            let slots_before = graph.interned_len();

            // Remove everything, compacting at seed-chosen interleavings so
            // the release → compact → re-intern orderings all get exercised
            // across cases (including "no compaction at all" and
            // "compaction between every removal").
            let mut rng = StdRng::seed_from_u64(compact_seed);
            for query in base_log.queries() {
                prop_assert!(graph.remove(query));
                if rng.next_u64() % 3 == 0 {
                    graph.compact();
                }
            }
            prop_assert_eq!(graph.fragment_count(), 0);
            prop_assert_eq!(graph.edge_count(), 0);

            // Re-ingest a different log into the recycled slots, against the
            // reference model built fresh (the model never recycles —
            // fragments are its keys — so any inherited state diverges).
            let mut model = ModelQfg::default();
            for query in extra_log.queries() {
                model.ingest(query, obscurity);
                graph.ingest(query);
                if rng.next_u64() % 3 == 0 {
                    graph.compact();
                }
            }
            prop_assert!(
                graph.interned_len() >= slots_before.min(graph.fragment_count()),
                "the id table never shrinks"
            );
            prop_assert_eq!(model.query_count, graph.query_count());
            prop_assert_eq!(model.occurrences.len(), graph.fragment_count());
            prop_assert_eq!(model.co_occurrences.len(), graph.edge_count());
            let fragments: Vec<QueryFragment> = model.occurrences.keys().cloned().collect();
            for a in &fragments {
                prop_assert_eq!(
                    model.occurrences(a), graph.occurrences(a),
                    "recycled slot inherited a stale occurrence for {}", a
                );
                for b in &fragments {
                    prop_assert_eq!(
                        model.co_occurrences(a, b), graph.co_occurrences(a, b),
                        "recycled slot inherited a stale pair count for {} / {}", a, b
                    );
                    let (dm, dg) = (model.dice(a, b), graph.dice(a, b));
                    prop_assert!(
                        (dm - dg).abs() < 1e-12,
                        "dice diverged on recycled ids for {} / {}: {} vs {}", a, b, dm, dg
                    );
                }
            }
            // Recycled slots must not inherit the previous tenant's
            // max-Dice either.
            assert_max_dice_consistent(&model, &graph);
            // And the recycled graph is observationally the graph a clean
            // build of the second log produces.
            let rebuilt = QueryFragmentGraph::build(&extra_log, obscurity);
            prop_assert_eq!(&graph, &rebuilt);
        }
    }

    /// Compaction is observation-neutral at *every* pending state: an
    /// arbitrary interleaving of ingests, removes and compactions stays
    /// observationally identical to the map-based model.
    #[test]
    fn compaction_interleavings_match_the_model_at_any_pending_state(
        base in log_strategy(),
        extra in log_strategy(),
        op_seed in any::<u64>(),
    ) {
        let obscurity = Obscurity::NoConstOp;
        let base_log = parse_log(&base);
        let extra_log = parse_log(&extra);
        let mut model = ModelQfg::default();
        let mut graph = QueryFragmentGraph::empty(obscurity);
        let mut rng = StdRng::seed_from_u64(op_seed);
        for query in base_log.queries() {
            model.ingest(query, obscurity);
            graph.ingest(query);
        }
        for query in extra_log.queries() {
            match rng.next_u64() % 5 {
                0 => {
                    let victims: Vec<_> = base_log.queries().iter().cloned().collect();
                    let victim = &victims[(rng.next_u64() as usize) % victims.len()];
                    prop_assert_eq!(model.remove(victim, obscurity), graph.remove(victim));
                }
                1 => graph.compact(),
                _ => {
                    model.ingest(query, obscurity);
                    graph.ingest(query);
                }
            }
            prop_assert_eq!(model.query_count, graph.query_count());
            prop_assert_eq!(model.occurrences.len(), graph.fragment_count());
            prop_assert_eq!(model.co_occurrences.len(), graph.edge_count());
        }
        // Observational sweep at the final (arbitrary) pending state.
        let fragments: Vec<QueryFragment> = model.occurrences.keys().cloned().collect();
        for a in &fragments {
            prop_assert_eq!(model.occurrences(a), graph.occurrences(a));
            for b in &fragments {
                prop_assert_eq!(model.co_occurrences(a, b), graph.co_occurrences(a, b));
                prop_assert!((model.dice(a, b) - graph.dice(a, b)).abs() < 1e-12);
            }
        }
        // Compaction from any pending state is observation-neutral and
        // leaves no pending work behind.
        let mut compacted = graph.clone();
        compacted.compact();
        prop_assert!(compacted.is_compacted());
        prop_assert_eq!(compacted.pending_delta_len(), 0);
        prop_assert_eq!(&compacted, &graph);
        prop_assert_eq!(model.query_count, compacted.query_count());
        prop_assert_eq!(model.co_occurrences.len(), compacted.edge_count());
    }

    /// A sectioned export of the graph — at an arbitrary uncompacted
    /// state — reconstructs the *identical* graph, section for section:
    /// same interner slots, same occurrence column, same CSR, same pending
    /// delta, without forcing a compaction on either side.
    #[test]
    fn sections_round_trip_any_pending_state_verbatim(
        base in log_strategy(),
        extra in log_strategy(),
        op_seed in any::<u64>(),
    ) {
        let obscurity = Obscurity::NoConstOp;
        let base_log = parse_log(&base);
        let extra_log = parse_log(&extra);
        let mut graph = QueryFragmentGraph::build(&base_log, obscurity);
        let mut rng = StdRng::seed_from_u64(op_seed);
        for query in extra_log.queries() {
            if rng.next_u64() % 4 == 0 {
                let victims: Vec<_> = base_log.queries().iter().cloned().collect();
                let victim = &victims[(rng.next_u64() as usize) % victims.len()];
                graph.remove(victim);
            } else {
                graph.ingest(query);
            }
        }
        let back = QueryFragmentGraph::from_sections(
            obscurity,
            graph.query_count() as u64,
            &graph.fragments_section(),
            &graph.occurrences_section(),
            &graph.adjacency_section(),
            &graph.runs_section(),
        ).expect("self-exported sections must reconstruct");
        prop_assert_eq!(&back, &graph, "sectioned round-trip must be verbatim");
        prop_assert_eq!(back.pending_delta_len(), graph.pending_delta_len());
        // Both sides compact to the same canonical graph.
        let (mut a, mut b) = (graph.clone(), back);
        a.compact();
        b.compact();
        prop_assert_eq!(&a, &b);
    }

    /// Dice stays within [0, 1] for arbitrary fragment pairs drawn from the
    /// graph, and is symmetric.
    #[test]
    fn dice_is_bounded_and_symmetric(sqls in log_strategy(), i in 0usize..64, j in 0usize..64) {
        let log = parse_log(&sqls);
        let graph = QueryFragmentGraph::build(&log, Obscurity::NoConstOp);
        let fragments: Vec<QueryFragment> =
            graph.fragments().map(|(f, _)| f.clone()).collect();
        prop_assert!(!fragments.is_empty(), "a non-empty log always yields fragments");
        let a = &fragments[i % fragments.len()];
        let b = &fragments[j % fragments.len()];
        let d = graph.dice(a, b);
        prop_assert!((0.0..=1.0).contains(&d));
        prop_assert_eq!(d, graph.dice(b, a));
    }
}

// ---------------------------------------------------------------------------
// Dice edge cases (deterministic)
// ---------------------------------------------------------------------------

fn sample_graph() -> QueryFragmentGraph {
    let (log, skipped) = QueryLog::from_sql([
        "SELECT p.title FROM publication p WHERE p.year > 2000",
        "SELECT p.title FROM publication p",
        "SELECT j.name FROM journal j",
    ]);
    assert_eq!(skipped, 0);
    QueryFragmentGraph::build(&log, Obscurity::NoConstOp)
}

#[test]
fn self_co_occurrence_equals_occurrence_count() {
    let graph = sample_graph();
    let title = QueryFragment {
        expr: "publication.title".to_string(),
        context: templar_core::QueryContext::Select,
    };
    assert_eq!(graph.occurrences(&title), 2);
    // n_e(c, c) is defined as n_v(c): a fragment always co-occurs with
    // itself, which is what makes Dice(c, c) = 1.
    assert_eq!(graph.co_occurrences(&title, &title), 2);
    assert!((graph.dice(&title, &title) - 1.0).abs() < 1e-12);
}

#[test]
fn zero_count_fragments_have_zero_dice_everywhere() {
    let graph = sample_graph();
    let unknown = QueryFragment {
        expr: "business.stars ?op ?val".to_string(),
        context: templar_core::QueryContext::Where,
    };
    let title = QueryFragment {
        expr: "publication.title".to_string(),
        context: templar_core::QueryContext::Select,
    };
    assert_eq!(graph.occurrences(&unknown), 0);
    assert_eq!(graph.co_occurrences(&unknown, &title), 0);
    assert_eq!(graph.dice(&unknown, &title), 0.0);
    // Dice of two unknown fragments must not divide by zero.
    assert_eq!(graph.dice(&unknown, &unknown), 0.0);
}

#[test]
fn removal_updates_dice_evidence() {
    let (log, _) = QueryLog::from_sql([
        "SELECT p.title FROM publication p WHERE p.year > 2000",
        "SELECT p.title FROM publication p WHERE p.year > 1995",
    ]);
    let mut graph = QueryFragmentGraph::build(&log, Obscurity::NoConstOp);
    let title = QueryFragment {
        expr: "publication.title".to_string(),
        context: templar_core::QueryContext::Select,
    };
    let pred = QueryFragment {
        expr: "publication.year ?op ?val".to_string(),
        context: templar_core::QueryContext::Where,
    };
    assert!((graph.dice(&title, &pred) - 1.0).abs() < 1e-12);
    assert!(graph.remove(&log.queries()[0]));
    // Still perfectly correlated, with halved counts.
    assert_eq!(graph.occurrences(&title), 1);
    assert!((graph.dice(&title, &pred) - 1.0).abs() < 1e-12);
    assert!(graph.remove(&log.queries()[1]));
    assert_eq!(graph.dice(&title, &pred), 0.0);
}

#[test]
fn remove_of_never_ingested_query_is_refused() {
    let mut graph = sample_graph();
    let stranger = sqlparse::parse_query("SELECT a.name FROM author a").unwrap();
    let before = graph.clone();
    assert!(!graph.remove(&stranger));
    assert_eq!(graph, before, "a refused remove must not corrupt counts");
}
