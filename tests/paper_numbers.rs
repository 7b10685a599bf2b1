//! Exact reproduction counts: Table III and the obscurity ablation under the
//! paper's 4-fold protocol and default parameters.
//!
//! `tests/crossval_shape.rs` checks who wins; these tests pin the numbers
//! themselves, so any change to scoring, join inference or the Query
//! Fragment Graph that moves a single benchmark case fails here.  The
//! figures are the ones `cargo run --release -p eval --bin table3` and
//! `--bin obscurity` print, as case counts rather than percentages.  The
//! Table III pass also checks every case's top-1 against
//! `tests/data/top1.tsv`; after an intended ranking change, regenerate it
//! with `cargo run --release -p eval --bin top1 > tests/data/top1.tsv` and
//! review the diff.

use datasets::Dataset;
use eval::crossval::{evaluate_system, SystemKind};
use eval::experiments::{top1, TOP1_HEADER};
use templar_core::{Obscurity, QueryFragmentGraph, TemplarConfig};

/// The checked-in top-1 fixture (see `cargo run -p eval --bin top1`).
const TOP1_FIXTURE: &str = include_str!("data/top1.tsv");

/// Column of the score in a fixture line; it is compared to 1e-9, every
/// other column exactly.
const SCORE_COLUMN: usize = 5;

/// MAS (194 cases), Yelp (127) and IMDB (128), in that order.
fn benchmarks() -> [(Dataset, usize); 3] {
    [
        (Dataset::mas(), 194),
        (Dataset::yelp(), 127),
        (Dataset::imdb(), 128),
    ]
}

/// Table III: `(KW correct, FQ correct)` per system, in
/// [`SystemKind::ALL`] order; the same pass checks every case's top-1 SQL,
/// score and KW/FQ flags against the fixture.
#[test]
fn table3_case_counts_are_pinned() {
    let rows = [
        [(94, 94), (147, 147), (119, 109), (172, 172)],
        [(80, 80), (80, 80), (80, 80), (95, 95)],
        [(62, 60), (84, 84), (68, 66), (112, 112)],
    ];
    let config = TemplarConfig::paper_defaults();
    let mut lines = vec![TOP1_HEADER.to_string()];
    for ((dataset, cases), systems) in benchmarks().iter().zip(rows) {
        for (system, (kw, fq)) in SystemKind::ALL.into_iter().zip(systems) {
            let (accuracy, top1_lines) = top1(dataset, system, &config);
            lines.extend(top1_lines);
            let label = format!("{} {}", dataset.name, system.name());
            assert_eq!(accuracy.kw.total, *cases, "{label}: KW cases");
            assert_eq!(accuracy.fq.total, *cases, "{label}: FQ cases");
            assert_eq!(accuracy.kw.correct, kw, "{label}: KW correct");
            assert_eq!(accuracy.fq.correct, fq, "{label}: FQ correct");
        }
    }
    let fixture: Vec<&str> = TOP1_FIXTURE.lines().collect();
    assert_eq!(lines.len(), fixture.len(), "top-1 fixture line count");
    for (number, (got, want)) in lines.iter().zip(fixture).enumerate() {
        let got_columns: Vec<&str> = got.split('\t').collect();
        let want_columns: Vec<&str> = want.split('\t').collect();
        let same =
            got_columns.len() == want_columns.len()
                && got_columns.iter().zip(&want_columns).enumerate().all(
                    |(column, (g, w))| match (column, g.parse::<f64>(), w.parse::<f64>()) {
                        (SCORE_COLUMN, Ok(g), Ok(w)) => (g - w).abs() <= 1e-9,
                        _ => g == w,
                    },
                );
        assert!(
            same,
            "tests/data/top1.tsv line {}:\n  fixture: {want}\n  now:     {got}",
            number + 1
        );
    }
}

/// The obscurity ablation: Pipeline+ FQ correct at each level in
/// [`Obscurity::ALL`] order, then the fragments and edges of the QFG built
/// from the dataset's full log at that level.  `Full` builds the largest
/// graphs of any experiment; `NoConstOp` is Table III's Pipeline+ row.
#[test]
fn obscurity_ablation_counts_are_pinned() {
    let rows = [
        [(121, 137, 596), (164, 26, 92), (172, 25, 90)],
        [(80, 96, 292), (95, 18, 40), (95, 18, 40)],
        [(72, 133, 452), (112, 26, 70), (112, 26, 70)],
    ];
    for ((dataset, _), levels) in benchmarks().iter().zip(rows) {
        for (level, (fq, fragments, edges)) in Obscurity::ALL.into_iter().zip(levels) {
            let label = format!("{} {}", dataset.name, level.name());
            let config = TemplarConfig::paper_defaults().with_obscurity(level);
            let accuracy = evaluate_system(dataset, SystemKind::PipelinePlus, &config);
            assert_eq!(accuracy.fq.correct, fq, "{label}: Pipeline+ FQ correct");
            let qfg = QueryFragmentGraph::build(&dataset.full_log(), level);
            assert_eq!(qfg.fragment_count(), fragments, "{label}: QFG fragments");
            assert_eq!(qfg.edge_count(), edges, "{label}: QFG edges");
        }
    }
}
