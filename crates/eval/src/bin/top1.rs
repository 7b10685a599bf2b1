//! Print the top-1 fixture: for every MAS/Yelp/IMDB case under NaLIR,
//! NaLIR+, Pipeline and Pipeline+ (4 folds, paper defaults), the KW and FQ
//! flags, the top-1 score and its canonical SQL.  `tests/paper_numbers.rs`
//! checks `tests/data/top1.tsv` against the same rows; after an intended
//! ranking change, regenerate it with
//! `cargo run --release -p eval --bin top1 > tests/data/top1.tsv`.

use datasets::Dataset;
use eval::crossval::SystemKind;
use eval::experiments::{top1, TOP1_HEADER};
use templar_core::TemplarConfig;

fn main() {
    let config = TemplarConfig::paper_defaults();
    println!("{TOP1_HEADER}");
    for dataset in Dataset::all() {
        for system in SystemKind::ALL {
            for line in top1(&dataset, system, &config).1 {
                println!("{line}");
            }
        }
    }
}
