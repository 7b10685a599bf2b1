//! Benchmark: the best-first configuration search under stress — long
//! multi-keyword questions whose cartesian products (10⁶ to 3·10¹⁰ tuples)
//! the pre-search enumerator either could not finish or silently truncated.
//!
//! `search_stress/exact_1m` runs the provably exact search over a > 10⁶
//! tuple product; `search_stress/deep_15kw` searches a 5¹⁵-tuple space
//! (exactly, in practice — see the exactness tests); and
//! `search_stress/exhaustive_1m` is the enumerate-everything reference on
//! the same million-tuple scenario, so its line against `exact_1m` gives
//! the search's pruning ratio.
//!
//! Each call gets one warm-up, then [`SAMPLES`] timed calls; the line shows
//! their median and range, plus the tuples the call scored.  `--test` runs
//! each call once, untimed.

use bench::stress;
use std::hint::black_box;
use std::time::{Duration, Instant};
use templar_core::{SearchStats, Templar};

/// Timed calls per scenario after the warm-up.
const SAMPLES: usize = 11;

/// Run `call` once to warm up, then `SAMPLES` times, and print the median.
fn time_call(id: &str, smoke: bool, mut call: impl FnMut() -> SearchStats) {
    let stats = call();
    if smoke {
        println!("{id:<32} ran once, {} tuples scored", stats.tuples_scored);
        return;
    }
    let mut samples: Vec<Duration> = (0..SAMPLES)
        .map(|_| {
            let started = Instant::now();
            black_box(call());
            started.elapsed()
        })
        .collect();
    samples.sort_unstable();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    println!(
        "{id:<32} median {:>9.3} ms over {SAMPLES} calls (min {:.3}, max {:.3}), \
         {} tuples scored",
        ms(samples[SAMPLES / 2]),
        ms(samples[0]),
        ms(samples[SAMPLES - 1]),
        stats.tuples_scored,
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let exact = stress::exact_scenario();
    let exact_templar = Templar::new(exact.db.clone(), &exact.log, exact.config.clone()).unwrap();
    let deep = stress::deep_scenario();
    let deep_templar = Templar::new(deep.db.clone(), &deep.log, deep.config.clone()).unwrap();

    time_call("search_stress/exact_1m", smoke, || {
        exact_templar
            .map_keywords_with_stats(&exact.keywords, &exact.config)
            .1
    });
    time_call("search_stress/deep_15kw", smoke, || {
        deep_templar
            .map_keywords_with_stats(&deep.keywords, &deep.config)
            .1
    });
    time_call("search_stress/exhaustive_1m", smoke, || {
        exact_templar
            .map_keywords_exhaustive(&exact.keywords, &exact.config)
            .1
    });
}
