//! Run every experiment (Tables II-IV, Figures 5-6, obscurity ablation) and
//! print the results in the order they appear in the paper.  CI diffs this
//! output against `tests/data/all_experiments.txt`; after an intended change,
//! regenerate it with
//! `cargo run --release -p eval --bin all_experiments > tests/data/all_experiments.txt`.

use datasets::Dataset;
use eval::experiments::{fig5, fig6, obscurity, table2, table3, table4};
use templar_core::TemplarConfig;

fn main() {
    let datasets = Dataset::all();
    let config = TemplarConfig::paper_defaults();

    println!("=== Table II ===");
    println!("{}", table2(&datasets).render());

    println!("=== Table III ===");
    println!("{}", table3(&datasets, &config).render());

    println!("=== Table IV ===");
    println!("{}", table4(&datasets, &config).render());

    println!("=== Figure 5 (kappa sweep) ===");
    let kappas: Vec<usize> = (1..=10).collect();
    println!("{}", fig5(&datasets, &kappas).render());

    println!("=== Figure 6 (lambda sweep) ===");
    let lambdas: Vec<f64> = (0..=10).map(|i| i as f64 / 10.0).collect();
    println!("{}", fig6(&datasets, &lambdas).render());

    println!("=== Obscurity ablation ===");
    println!("{}", obscurity(&datasets).render());
}
