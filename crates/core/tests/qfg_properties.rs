//! Property-based tests for the Query Fragment Graph's mutation model
//! (following the pattern of `crates/nlp/tests/properties.rs`):
//!
//! * incremental `ingest` over a shuffled log ≡ batch `build`,
//! * the interned/columnar graph is observationally equivalent to the
//!   reference map-based model it replaced (same occurrence, co-occurrence
//!   and Dice values within 1e-12) under arbitrary ingest/compact
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
/// first.  Kept as the executable specification the interned/columnar
/// production graph is checked against.
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
    /// Dice coefficient between `a` and every *other* fragment.
    fn max_dice(&self, a: &QueryFragment) -> f64 {
        self.occurrences
            .keys()
            .filter(|b| *b != a)
            .map(|b| self.dice(a, b))
            .fold(0.0, f64::max)
    }
}

/// Assert the columnar graph's per-fragment `max_dice` column against the
/// model: the bound is always admissible, and after a compaction the column
/// is exact.
fn assert_max_dice_consistent(model: &ModelQfg, graph: &QueryFragmentGraph) {
    let mut compacted = graph.clone();
    compacted.compact();
    for fragment in model.occurrences.keys() {
        let expected = model.max_dice(fragment);
        let id = graph
            .lookup(fragment)
            .expect("model fragment must be interned");
        assert!(
            graph.max_dice_by_id(id) >= expected - 1e-12,
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

            let mut shuffled: Vec<_> = log.queries().to_vec();
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

    /// The interned/columnar graph is observationally equivalent to the
    /// reference map-based model under an arbitrary interleaving of ingests
    /// and compactions: every occurrence count, co-occurrence count and Dice
    /// coefficient agrees (counts exactly, Dice within 1e-12) at every step,
    /// at every obscurity level.
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
            // ingest/compact decisions drawn from the seed.
            let mut rng = StdRng::seed_from_u64(op_seed);
            for query in base_log.queries() {
                model.ingest(query, obscurity);
                graph.ingest(query);
            }
            for query in extra_log.queries() {
                // Compaction must be observation-neutral.
                if rng.next_u64() % 4 == 0 {
                    graph.compact();
                } else {
                    model.ingest(query, obscurity);
                    graph.ingest(query);
                }
                prop_assert_eq!(model.query_count, graph.query_count());
                prop_assert_eq!(model.occurrences.len(), graph.fragment_count());
                prop_assert_eq!(model.co_occurrences.len(), graph.edge_count());
                // The max-Dice column must stay an admissible upper bound at
                // every intermediate state and become exact on compaction.
                assert_max_dice_consistent(&model, &graph);
            }
            // Full observational sweep over every fragment plus one neither
            // side has seen.
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

    /// Compaction is observation-neutral at *every* pending state: an
    /// arbitrary interleaving of ingests and compactions stays
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
            if rng.next_u64() % 5 == 0 {
                graph.compact();
            } else {
                model.ingest(query, obscurity);
                graph.ingest(query);
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
    /// same interner table, same occurrence column, same CSR, same pending
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
                graph.compact();
            }
            graph.ingest(query);
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
