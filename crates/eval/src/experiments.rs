//! Experiment drivers: one per table / figure of the paper's evaluation.

use crate::crossval::{evaluate_cases, evaluate_system, DatasetAccuracy, SystemKind, FOLDS};
use datasets::Dataset;
use relational::DatasetStats;
use serde::{Deserialize, Serialize};
use sqlparse::canonicalize;
use templar_core::{Obscurity, QueryFragmentGraph, TemplarConfig};

/// Table II — dataset statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2 {
    /// One row per dataset.
    pub rows: Vec<DatasetStats>,
}

/// Run the Table II experiment.
pub fn table2(datasets: &[Dataset]) -> Table2 {
    Table2 {
        rows: datasets.iter().map(Dataset::stats).collect(),
    }
}

impl Table2 {
    /// Render the table as aligned text.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Table II: statistics of each benchmark dataset\n\
             Dataset    Size(MB)   Rels  Attrs  FK-PK  Queries   Rows\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<10} {:>8.1} {:>6} {:>6} {:>6} {:>8} {:>6}\n",
                r.name, r.size_mb, r.relations, r.attributes, r.fk_pk, r.queries, r.rows
            ));
        }
        out
    }
}

/// One row of Table III.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3Row {
    /// Dataset name.
    pub dataset: String,
    /// System name.
    pub system: String,
    /// Keyword-mapping accuracy in percent.
    pub kw_percent: f64,
    /// Full-query accuracy in percent.
    pub fq_percent: f64,
}

/// Table III — KW and FQ accuracy of every system on every dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3 {
    /// Configuration used for the augmented systems.
    pub config: TemplarConfig,
    /// One row per (dataset, system).
    pub rows: Vec<Table3Row>,
}

/// Run the Table III experiment (NoConstOp, κ = 5, λ = 0.8 by default).
pub fn table3(datasets: &[Dataset], config: &TemplarConfig) -> Table3 {
    let mut rows = Vec::new();
    for dataset in datasets {
        for system in SystemKind::ALL {
            let acc = evaluate_system(dataset, system, config);
            rows.push(Table3Row {
                dataset: dataset.name.clone(),
                system: system.name().to_string(),
                kw_percent: acc.kw_percent(),
                fq_percent: acc.fq_percent(),
            });
        }
    }
    Table3 {
        config: config.clone(),
        rows,
    }
}

impl Table3 {
    /// Render the table as aligned text.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Table III: keyword mapping (KW) and full query (FQ) top-1 accuracy\n\
             Dataset    System       KW (%)   FQ (%)\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<10} {:<12} {:>6.1} {:>8.1}\n",
                r.dataset, r.system, r.kw_percent, r.fq_percent
            ));
        }
        out
    }

    /// The FQ accuracy of a specific (dataset, system) cell.
    pub fn fq(&self, dataset: &str, system: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.dataset == dataset && r.system == system)
            .map(|r| r.fq_percent)
    }

    /// The KW accuracy of a specific (dataset, system) cell.
    pub fn kw(&self, dataset: &str, system: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.dataset == dataset && r.system == system)
            .map(|r| r.kw_percent)
    }
}

/// One row of Table IV.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table4Row {
    /// Dataset name.
    pub dataset: String,
    /// Whether log-driven join inference was active.
    pub log_join: bool,
    /// Full-query accuracy in percent.
    pub fq_percent: f64,
}

/// Table IV — effect of log-driven join inference on Pipeline+.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table4 {
    /// One row per (dataset, LogJoin setting).
    pub rows: Vec<Table4Row>,
}

/// Run the Table IV experiment.
pub fn table4(datasets: &[Dataset], config: &TemplarConfig) -> Table4 {
    let mut rows = Vec::new();
    for dataset in datasets {
        for log_join in [false, true] {
            let cfg = config.clone().with_log_joins(log_join);
            let acc = evaluate_system(dataset, SystemKind::PipelinePlus, &cfg);
            rows.push(Table4Row {
                dataset: dataset.name.clone(),
                log_join,
                fq_percent: acc.fq_percent(),
            });
        }
    }
    Table4 { rows }
}

impl Table4 {
    /// Render the table as aligned text.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Table IV: improvement from activating log-based joins in Pipeline+\n\
             Dataset    LogJoin   FQ (%)\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<10} {:<8} {:>7.1}\n",
                r.dataset,
                if r.log_join { "Y" } else { "N" },
                r.fq_percent
            ));
        }
        out
    }

    /// FQ accuracy for a dataset at a given LogJoin setting.
    pub fn fq(&self, dataset: &str, log_join: bool) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.dataset == dataset && r.log_join == log_join)
            .map(|r| r.fq_percent)
    }
}

/// One point of a parameter-sweep figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Dataset name.
    pub dataset: String,
    /// The swept parameter value (κ for Figure 5, λ for Figure 6).
    pub value: f64,
    /// Full-query accuracy in percent.
    pub fq_percent: f64,
}

/// A parameter-sweep figure (Figures 5 and 6).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sweep {
    /// The swept parameter name.
    pub parameter: String,
    /// The measured series.
    pub points: Vec<SweepPoint>,
}

/// Figure 5 — Pipeline+ accuracy as a function of κ (λ fixed at 0.8).
pub fn fig5(datasets: &[Dataset], kappas: &[usize]) -> Sweep {
    let mut points = Vec::new();
    for dataset in datasets {
        for &kappa in kappas {
            let config = TemplarConfig::default().with_kappa(kappa).with_lambda(0.8);
            let acc = evaluate_system(dataset, SystemKind::PipelinePlus, &config);
            points.push(SweepPoint {
                dataset: dataset.name.clone(),
                value: kappa as f64,
                fq_percent: acc.fq_percent(),
            });
        }
    }
    Sweep {
        parameter: "kappa".to_string(),
        points,
    }
}

/// Figure 6 — Pipeline+ accuracy as a function of λ (κ fixed at 5).
pub fn fig6(datasets: &[Dataset], lambdas: &[f64]) -> Sweep {
    let mut points = Vec::new();
    for dataset in datasets {
        for &lambda in lambdas {
            let config = TemplarConfig::default().with_kappa(5).with_lambda(lambda);
            let acc = evaluate_system(dataset, SystemKind::PipelinePlus, &config);
            points.push(SweepPoint {
                dataset: dataset.name.clone(),
                value: lambda,
                fq_percent: acc.fq_percent(),
            });
        }
    }
    Sweep {
        parameter: "lambda".to_string(),
        points,
    }
}

impl Sweep {
    /// Render the sweep as aligned text (one series block per dataset).
    pub fn render(&self) -> String {
        let mut out = format!(
            "Accuracy of Pipeline+ as a function of {} (correct queries, %)\n",
            self.parameter
        );
        let mut datasets: Vec<String> = self.points.iter().map(|p| p.dataset.clone()).collect();
        datasets.dedup();
        for dataset in datasets {
            out.push_str(&format!("{dataset}\n  {:<8} FQ (%)\n", self.parameter));
            for p in self.points.iter().filter(|p| p.dataset == dataset) {
                out.push_str(&format!("  {:<8} {:>6.1}\n", p.value, p.fq_percent));
            }
        }
        out
    }

    /// The series for one dataset as (value, accuracy) pairs.
    pub fn series(&self, dataset: &str) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .filter(|p| p.dataset == dataset)
            .map(|p| (p.value, p.fq_percent))
            .collect()
    }
}

/// One row of the obscurity-level ablation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObscurityRow {
    /// Dataset name.
    pub dataset: String,
    /// The obscurity level.
    pub obscurity: String,
    /// Full-query accuracy in percent.
    pub fq_percent: f64,
    /// Distinct fragments in the QFG of the dataset's full log at this
    /// obscurity level — the interner-table footprint the columnar data
    /// plane carries.  Higher obscurity collapses predicate variants, so
    /// this shrinks as the level increases.
    pub qfg_fragments: usize,
    /// Distinct co-occurring fragment pairs (CSR edges) at this level.
    pub qfg_edges: usize,
}

/// The obscurity ablation (Section VII-B: "all obscurity levels ...
/// consistently improved on the baseline systems").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObscurityAblation {
    /// Baseline (Pipeline) FQ accuracy per dataset, for reference.
    pub baselines: Vec<(String, f64)>,
    /// One row per (dataset, obscurity level).
    pub rows: Vec<ObscurityRow>,
}

/// Run the obscurity ablation: Pipeline+ at each obscurity level.
pub fn obscurity(datasets: &[Dataset]) -> ObscurityAblation {
    let mut rows = Vec::new();
    let mut baselines = Vec::new();
    for dataset in datasets {
        let base = evaluate_system(dataset, SystemKind::Pipeline, &TemplarConfig::default());
        baselines.push((dataset.name.clone(), base.fq_percent()));
        for level in Obscurity::ALL {
            let config = TemplarConfig::default().with_obscurity(level);
            let acc = evaluate_system(dataset, SystemKind::PipelinePlus, &config);
            let qfg = QueryFragmentGraph::build(&dataset.full_log(), level);
            rows.push(ObscurityRow {
                dataset: dataset.name.clone(),
                obscurity: level.name().to_string(),
                fq_percent: acc.fq_percent(),
                qfg_fragments: qfg.fragment_count(),
                qfg_edges: qfg.edge_count(),
            });
        }
    }
    ObscurityAblation { baselines, rows }
}

impl ObscurityAblation {
    /// Render as aligned text.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Obscurity ablation: Pipeline+ FQ accuracy per fragment obscurity level\n\
             Dataset    Obscurity    FQ (%)   (Pipeline baseline)   QFG frags  edges\n",
        );
        for r in &self.rows {
            let base = self
                .baselines
                .iter()
                .find(|(d, _)| d == &r.dataset)
                .map(|(_, v)| *v)
                .unwrap_or(0.0);
            out.push_str(&format!(
                "{:<10} {:<12} {:>6.1}   ({:.1})              {:>9}  {:>5}\n",
                r.dataset, r.obscurity, r.fq_percent, base, r.qfg_fragments, r.qfg_edges
            ));
        }
        out
    }
}

/// The header line of the top-1 fixture `tests/data/top1.tsv`.
pub const TOP1_HEADER: &str = "dataset\tsystem\tcase\tkw\tfq\tscore\tsql";

/// The top-1 fixture rows of one system on one dataset under the 4-fold
/// protocol, one per case in case-id order, plus the accuracy of the same
/// pass.  Each row holds the columns of [`TOP1_HEADER`], tab-separated: the
/// KW and FQ flags as `0`/`1`, the top result's score to 12 decimals and its
/// canonical SQL (`-` for both when the system produced no translation).
/// `tests/paper_numbers.rs` checks the rows against `tests/data/top1.tsv`;
/// the `top1` binary regenerates that file.
pub fn top1(
    dataset: &Dataset,
    system: SystemKind,
    config: &TemplarConfig,
) -> (DatasetAccuracy, Vec<String>) {
    let mut rows = Vec::new();
    let accuracy = evaluate_cases(dataset, system, config, FOLDS, |outcome| {
        let (score, sql) = match outcome.results.first() {
            Some(top) => (
                format!("{:.12}", top.score),
                canonicalize(&top.query).to_string(),
            ),
            None => ("-".to_string(), "-".to_string()),
        };
        let id = outcome.case.id;
        let row = format!(
            "{}\t{}\t{id}\t{}\t{}\t{score}\t{sql}",
            dataset.name,
            system.name(),
            u8::from(outcome.kw),
            u8::from(outcome.fq)
        );
        rows.push((id, row));
    });
    rows.sort_by_key(|(id, _)| *id);
    (accuracy, rows.into_iter().map(|(_, row)| row).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_reports_all_datasets() {
        let datasets = [Dataset::yelp()];
        let t = table2(&datasets);
        assert_eq!(t.rows.len(), 1);
        assert_eq!(t.rows[0].relations, 7);
        assert!(t.render().contains("Yelp"));
    }

    #[test]
    fn sweep_series_are_extractable() {
        let sweep = Sweep {
            parameter: "kappa".into(),
            points: vec![
                SweepPoint {
                    dataset: "MAS".into(),
                    value: 1.0,
                    fq_percent: 40.0,
                },
                SweepPoint {
                    dataset: "MAS".into(),
                    value: 5.0,
                    fq_percent: 70.0,
                },
            ],
        };
        assert_eq!(sweep.series("MAS"), vec![(1.0, 40.0), (5.0, 70.0)]);
        assert!(sweep.render().contains("kappa"));
    }

    #[test]
    fn table3_lookup_helpers_work() {
        let t = Table3 {
            config: TemplarConfig::default(),
            rows: vec![Table3Row {
                dataset: "MAS".into(),
                system: "Pipeline+".into(),
                kw_percent: 70.0,
                fq_percent: 65.0,
            }],
        };
        assert_eq!(t.fq("MAS", "Pipeline+"), Some(65.0));
        assert_eq!(t.kw("MAS", "Pipeline+"), Some(70.0));
        assert_eq!(t.fq("MAS", "NaLIR"), None);
        assert!(t.render().contains("Pipeline+"));
    }

    #[test]
    fn table4_lookup_helpers_work() {
        let t = Table4 {
            rows: vec![
                Table4Row {
                    dataset: "Yelp".into(),
                    log_join: false,
                    fq_percent: 60.0,
                },
                Table4Row {
                    dataset: "Yelp".into(),
                    log_join: true,
                    fq_percent: 80.0,
                },
            ],
        };
        assert_eq!(t.fq("Yelp", true), Some(80.0));
        assert_eq!(t.fq("Yelp", false), Some(60.0));
        assert!(t.render().contains("LogJoin"));
    }
}
