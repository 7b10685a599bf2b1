//! Exact reproduction counts: Table III and the obscurity ablation under the
//! paper's 4-fold protocol and default parameters.
//!
//! `tests/crossval_shape.rs` checks who wins; these tests pin the numbers
//! themselves, so any change to scoring, join inference or the Query
//! Fragment Graph that moves a single benchmark case fails here.  The
//! figures are the ones `cargo run --release -p eval --bin table3` and
//! `--bin obscurity` print, as case counts rather than percentages.

use datasets::Dataset;
use eval::crossval::{evaluate_system, SystemKind};
use templar_core::{Obscurity, QueryFragmentGraph, TemplarConfig};

/// MAS (194 cases), Yelp (127) and IMDB (128), in that order.
fn benchmarks() -> [(Dataset, usize); 3] {
    [
        (Dataset::mas(), 194),
        (Dataset::yelp(), 127),
        (Dataset::imdb(), 128),
    ]
}

/// Table III: `(KW correct, FQ correct)` per system, in
/// [`SystemKind::ALL`] order.
#[test]
fn table3_case_counts_are_pinned() {
    let rows = [
        [(94, 94), (147, 147), (119, 109), (172, 172)],
        [(80, 80), (80, 80), (80, 80), (95, 95)],
        [(62, 60), (84, 84), (68, 66), (112, 112)],
    ];
    let config = TemplarConfig::paper_defaults();
    for ((dataset, cases), systems) in benchmarks().iter().zip(rows) {
        for (system, (kw, fq)) in SystemKind::ALL.into_iter().zip(systems) {
            let accuracy = evaluate_system(dataset, system, &config);
            let label = format!("{} {}", dataset.name, system.name());
            assert_eq!(accuracy.kw.total, *cases, "{label}: KW cases");
            assert_eq!(accuracy.fq.total, *cases, "{label}: FQ cases");
            assert_eq!(accuracy.kw.correct, kw, "{label}: KW correct");
            assert_eq!(accuracy.fq.correct, fq, "{label}: FQ correct");
        }
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
