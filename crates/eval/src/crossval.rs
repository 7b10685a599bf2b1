//! Cross-validation driver and system construction.

use crate::metrics::{fq_correct, kw_correct, Accuracy};
use datasets::{BenchmarkCase, Dataset};
use nlidb::{NaLirSystem, NlidbSystem, PipelineSystem, RankedSql};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use templar_core::{Keyword, QueryLog, TemplarConfig, TemplarError};

/// The four systems evaluated in Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SystemKind {
    /// NaLIR baseline.
    NaLir,
    /// NaLIR augmented with Templar.
    NaLirPlus,
    /// Pipeline baseline (SQLizer-style, no repair rules).
    Pipeline,
    /// Pipeline augmented with Templar.
    PipelinePlus,
}

impl SystemKind {
    /// All systems in the row order of Table III.
    pub const ALL: [SystemKind; 4] = [
        SystemKind::NaLir,
        SystemKind::NaLirPlus,
        SystemKind::Pipeline,
        SystemKind::PipelinePlus,
    ];

    /// The display name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            SystemKind::NaLir => "NaLIR",
            SystemKind::NaLirPlus => "NaLIR+",
            SystemKind::Pipeline => "Pipeline",
            SystemKind::PipelinePlus => "Pipeline+",
        }
    }

    /// True for the Templar-augmented systems.
    pub fn is_augmented(self) -> bool {
        matches!(self, SystemKind::NaLirPlus | SystemKind::PipelinePlus)
    }

    /// Instantiate the system for one cross-validation fold.  Baselines never
    /// see the query log; augmented systems receive the training folds' log.
    /// Construction is fallible since `Templar::new` validates its inputs;
    /// with a benchmark dataset's self-consistent configuration it always
    /// succeeds.
    pub fn build(
        self,
        db: Arc<relational::Database>,
        log: &QueryLog,
        config: &TemplarConfig,
    ) -> Result<Box<dyn NlidbSystem>, TemplarError> {
        Ok(match self {
            SystemKind::NaLir => Box::new(NaLirSystem::baseline(db)?),
            SystemKind::NaLirPlus => Box::new(NaLirSystem::augmented(db, log, config.clone())?),
            SystemKind::Pipeline => Box::new(PipelineSystem::baseline(db)?),
            SystemKind::PipelinePlus => {
                Box::new(PipelineSystem::augmented(db, log, config.clone())?)
            }
        })
    }
}

/// Aggregated accuracy of one system on one dataset.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DatasetAccuracy {
    /// Keyword-mapping accuracy.
    pub kw: Accuracy,
    /// Full-query accuracy.
    pub fq: Accuracy,
}

impl DatasetAccuracy {
    /// KW accuracy in percent.
    pub fn kw_percent(&self) -> f64 {
        self.kw.percent()
    }

    /// FQ accuracy in percent.
    pub fn fq_percent(&self) -> f64 {
        self.fq.percent()
    }
}

/// Number of cross-validation folds used throughout the evaluation
/// (Section VII-A.4).
pub const FOLDS: usize = 4;

/// Evaluate one system on one dataset with 4-fold cross-validation, returning
/// the aggregated KW and FQ accuracies.
pub fn evaluate_system(
    dataset: &Dataset,
    system: SystemKind,
    config: &TemplarConfig,
) -> DatasetAccuracy {
    evaluate_system_with_folds(dataset, system, config, FOLDS)
}

/// [`evaluate_system`] with an explicit fold count (smaller counts are used
/// by smoke tests and benches).
pub fn evaluate_system_with_folds(
    dataset: &Dataset,
    system: SystemKind,
    config: &TemplarConfig,
    folds: usize,
) -> DatasetAccuracy {
    evaluate_cases(dataset, system, config, folds, |_| {})
}

/// One evaluated benchmark case, as the fold loop hands it to its caller.
pub struct CaseOutcome<'a> {
    /// The benchmark case.
    pub case: &'a BenchmarkCase,
    /// The system's ranked translations, best first (empty when it
    /// produced none).
    pub results: &'a [RankedSql],
    /// Keyword-mapping correctness of the top result ([`kw_correct`]).
    pub kw: bool,
    /// Full-query correctness of the top result ([`fq_correct`]).
    pub fq: bool,
}

/// The fold loop behind [`evaluate_system`]: builds the system once per
/// fold, translates every held-out case and hands each case's outcome to
/// `visit` before adding it to the aggregated accuracy it returns.
pub fn evaluate_cases(
    dataset: &Dataset,
    system: SystemKind,
    config: &TemplarConfig,
    folds: usize,
    mut visit: impl FnMut(CaseOutcome<'_>),
) -> DatasetAccuracy {
    let mut kw = Accuracy::default();
    let mut fq = Accuracy::default();
    for fold in dataset.folds(folds) {
        let instance = system
            .build(Arc::clone(&dataset.db), &fold.log, config)
            .expect("benchmark datasets build at a consistent obscurity");
        for case_id in &fold.test_case_ids {
            let case = dataset
                .case(*case_id)
                .expect("fold references a known case");
            // A typed translation failure counts as zero candidates for the
            // accuracy metrics, exactly as the paper scores a miss.
            let results = instance.translate(&case.nlq).unwrap_or_default();
            let keywords: Vec<Keyword> = case.nlq.keywords.iter().map(|(k, _)| k.clone()).collect();
            let outcome = CaseOutcome {
                case,
                results: &results,
                kw: kw_correct(&results, &keywords, &case.nlq.gold_mappings),
                fq: fq_correct(&results, &case.gold_sql),
            };
            kw.record(outcome.kw);
            fq.record(outcome.fq);
            visit(outcome);
        }
    }
    DatasetAccuracy { kw, fq }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_kinds_have_names_and_augmentation_flags() {
        assert_eq!(SystemKind::Pipeline.name(), "Pipeline");
        assert_eq!(SystemKind::PipelinePlus.name(), "Pipeline+");
        assert!(SystemKind::PipelinePlus.is_augmented());
        assert!(!SystemKind::NaLir.is_augmented());
        assert_eq!(SystemKind::ALL.len(), 4);
    }

    #[test]
    fn evaluation_counts_every_test_case_once() {
        // 2 folds over Yelp keeps this test fast while exercising the full
        // pipeline end to end.
        let dataset = Dataset::yelp();
        let config = TemplarConfig::default();
        let acc = evaluate_system_with_folds(&dataset, SystemKind::PipelinePlus, &config, 2);
        assert_eq!(acc.fq.total, dataset.cases.len());
        assert_eq!(acc.kw.total, dataset.cases.len());
        assert!(
            acc.fq.correct > 0,
            "Pipeline+ should answer some Yelp queries"
        );
        assert!(acc.kw.correct >= acc.fq.correct);
    }
}
