//! Evaluation harness: accuracy metrics, cross-validation and the
//! experiment drivers regenerating every table and figure of the paper.
//!
//! * [`metrics`] — the KW (keyword mapping) and FQ (full query) top-1
//!   accuracy metrics of Section VII-A.5, including the rule that a tie for
//!   first place counts as incorrect.
//! * [`crossval`] — the 4-fold cross-validation protocol of Section VII-A.4
//!   and the construction of each evaluated system (NaLIR, NaLIR+, Pipeline,
//!   Pipeline+).
//! * [`experiments`] — one driver per table / figure: Table II (dataset
//!   statistics), Table III (KW/FQ accuracy of all systems), Table IV
//!   (log-driven join inference ablation), Figure 5 (κ sweep), Figure 6
//!   (λ sweep) and the obscurity-level ablation discussed in Section VII-B.
//!
//! Each driver returns a serde-serializable result and renders an aligned
//! text table, so the binaries in `src/bin/` can print both.  The `top1`
//! binary prints the per-case fixture `tests/data/top1.tsv`.

pub mod crossval;
pub mod experiments;
pub mod metrics;

pub use crossval::{evaluate_system, DatasetAccuracy, SystemKind};
pub use metrics::{fq_correct, kw_correct, Accuracy};
