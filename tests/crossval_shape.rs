//! Integration tests asserting the *shape* of the paper's headline results
//! (who wins, not absolute numbers) on a reduced 2-fold protocol so the test
//! suite stays fast.
//!
//! The full 4-fold reproduction of every table and figure is run by
//! `cargo run --release -p eval --bin all_experiments` (see README
//! §Quickstart).

use datasets::Dataset;
use eval::crossval::{evaluate_system_with_folds, SystemKind};
use templar_core::TemplarConfig;

/// Templar augmentation must improve Pipeline's full-query accuracy on the
/// Yelp benchmark (Table III shape).
#[test]
fn pipeline_plus_beats_pipeline_on_yelp() {
    let dataset = Dataset::yelp();
    let config = TemplarConfig::paper_defaults();
    let baseline = evaluate_system_with_folds(&dataset, SystemKind::Pipeline, &config, 2);
    let augmented = evaluate_system_with_folds(&dataset, SystemKind::PipelinePlus, &config, 2);
    assert!(
        augmented.fq_percent() > baseline.fq_percent(),
        "Pipeline+ ({:.1}%) should beat Pipeline ({:.1}%)",
        augmented.fq_percent(),
        baseline.fq_percent()
    );
    assert!(
        augmented.kw_percent() >= baseline.kw_percent(),
        "Pipeline+ KW ({:.1}%) should be at least Pipeline KW ({:.1}%)",
        augmented.kw_percent(),
        baseline.kw_percent()
    );
}

/// Log-driven join inference (Table IV) must not hurt, and should help, on
/// the MAS benchmark where the gold join paths are longer than the shortest.
#[test]
fn log_joins_help_on_mas() {
    let dataset = Dataset::mas();
    let with = TemplarConfig::paper_defaults().with_log_joins(true);
    let without = TemplarConfig::paper_defaults().with_log_joins(false);
    let acc_with = evaluate_system_with_folds(&dataset, SystemKind::PipelinePlus, &with, 2);
    let acc_without = evaluate_system_with_folds(&dataset, SystemKind::PipelinePlus, &without, 2);
    assert!(
        acc_with.fq_percent() > acc_without.fq_percent(),
        "LogJoin=Y ({:.1}%) should beat LogJoin=N ({:.1}%)",
        acc_with.fq_percent(),
        acc_without.fq_percent()
    );
}

/// λ → 1 disables the log evidence and accuracy must drop sharply
/// (Figure 6 shape).
#[test]
fn lambda_one_hurts_accuracy_on_imdb() {
    let dataset = Dataset::imdb();
    let tuned = TemplarConfig::paper_defaults().with_lambda(0.8);
    let similarity_only = TemplarConfig::paper_defaults().with_lambda(1.0);
    let acc_tuned = evaluate_system_with_folds(&dataset, SystemKind::PipelinePlus, &tuned, 2);
    let acc_sim =
        evaluate_system_with_folds(&dataset, SystemKind::PipelinePlus, &similarity_only, 2);
    assert!(
        acc_tuned.fq_percent() > acc_sim.fq_percent(),
        "lambda=0.8 ({:.1}%) should beat lambda=1.0 ({:.1}%)",
        acc_tuned.fq_percent(),
        acc_sim.fq_percent()
    );
}

/// κ = 5 (the paper's choice) must be at least as good as κ = 1
/// (Figure 5 shape: accuracy rises then plateaus).
#[test]
fn kappa_five_beats_kappa_one_on_yelp() {
    let dataset = Dataset::yelp();
    let k5 = TemplarConfig::paper_defaults().with_kappa(5);
    let k1 = TemplarConfig::paper_defaults().with_kappa(1);
    let acc5 = evaluate_system_with_folds(&dataset, SystemKind::PipelinePlus, &k5, 2);
    let acc1 = evaluate_system_with_folds(&dataset, SystemKind::PipelinePlus, &k1, 2);
    assert!(
        acc5.fq_percent() >= acc1.fq_percent(),
        "kappa=5 ({:.1}%) should be at least kappa=1 ({:.1}%)",
        acc5.fq_percent(),
        acc1.fq_percent()
    );
}
