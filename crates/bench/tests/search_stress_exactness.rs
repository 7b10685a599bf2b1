//! Acceptance: on a stress scenario whose cartesian product exceeds 10⁶
//! configurations, the best-first search returns the provably exact top-k
//! — byte-identical to the exhaustive reference — while scoring at least
//! 5× fewer tuples, and a product no enumerator could touch degrades into
//! an explicit budget-exhausted best-effort instead of silent truncation.

use bench::stress;
use templar_core::Templar;

#[test]
fn best_first_matches_exhaustive_on_a_million_tuple_product() {
    let scenario = stress::exact_scenario();
    let templar =
        Templar::new(scenario.db.clone(), &scenario.log, scenario.config.clone()).unwrap();
    let (fast, fast_stats) = templar.map_keywords_with_stats(&scenario.keywords, &scenario.config);
    let (exact, exact_stats) =
        templar.map_keywords_exhaustive(&scenario.keywords, &scenario.config);

    // The scenario is as advertised: a > 10⁶ tuple product (and bounded —
    // tie retention did not silently inflate the pruned lists).
    assert!(
        exact_stats.tuples_scored > 1_000_000,
        "product too small: {}",
        exact_stats.tuples_scored
    );
    assert!(
        exact_stats.tuples_scored < 4_000_000,
        "pruned candidate lists unexpectedly deep: {}",
        exact_stats.tuples_scored
    );

    // Exactness: the search completed inside its budget, so its ranking is
    // byte-identical to scoring all million-plus configurations.
    assert!(!fast_stats.budget_exhausted);
    assert_eq!(fast, exact);
    assert!(!fast.is_empty());
    for (a, b) in fast.iter().zip(&exact) {
        assert_eq!(a.score.to_bits(), b.score.to_bits());
        assert_eq!(a.sigma_score.to_bits(), b.sigma_score.to_bits());
        assert_eq!(a.qfg_score.to_bits(), b.qfg_score.to_bits());
    }

    // Efficiency: ≥ 5× fewer tuples scored than enumeration, and the
    // search accounted for every tuple it did not score.
    assert!(
        fast_stats.tuples_scored.saturating_mul(5) <= exact_stats.tuples_scored,
        "search scored {} of {} tuples — less than a 5x win",
        fast_stats.tuples_scored,
        exact_stats.tuples_scored
    );
    assert_eq!(
        fast_stats.tuples_scored + fast_stats.tuples_pruned,
        exact_stats.tuples_scored,
        "scored + pruned must cover the whole product"
    );
    assert!(fast_stats.bound_cutoffs > 0);
}

#[test]
fn deep_scenario_is_searched_exactly_within_the_default_budget() {
    let scenario = stress::deep_scenario();
    let templar =
        Templar::new(scenario.db.clone(), &scenario.log, scenario.config.clone()).unwrap();
    let (ranked, stats) = templar.map_keywords_with_stats(&scenario.keywords, &scenario.config);
    // 5¹⁵ ≈ 3·10¹⁰ tuples — beyond any enumerator — yet the bound cuts the
    // space down to a few hundred scored tuples, well inside the default
    // budget, so the ranking is still provably exact.
    assert!(!stats.budget_exhausted);
    assert!(
        stats.tuples_scored + stats.tuples_pruned > 10_000_000_000,
        "search must account for the full 5^15-scale product: scored {} pruned {}",
        stats.tuples_scored,
        stats.tuples_pruned
    );
    assert!(stats.tuples_scored < scenario.config.search_budget as u64);
    assert_eq!(ranked.len(), scenario.config.max_configurations);
    for pair in ranked.windows(2) {
        assert!(pair[0].score >= pair[1].score);
    }
}

#[test]
fn starved_budget_is_flagged_not_silently_truncated() {
    let scenario = stress::deep_scenario();
    let templar =
        Templar::new(scenario.db.clone(), &scenario.log, scenario.config.clone()).unwrap();
    for budget in [50, 500] {
        let starved = scenario.config.clone().with_search_budget(budget);
        let (ranked, stats) = templar.map_keywords_with_stats(&scenario.keywords, &starved);
        assert!(
            stats.budget_exhausted,
            "a {budget}-evaluation budget must run out"
        );
        assert!(stats.tuples_scored <= budget as u64);
        // Still a usable, sorted best-effort ranking — and the exhaustion is
        // explicit, unlike the old silent 5000-tuple insertion-order cut.
        assert!(!ranked.is_empty());
        for pair in ranked.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
        // A budget-cut ranking depends on the request alone: every repeat
        // explores the same prefixes and reports the same statistics.
        for call in 1..=20 {
            let (again, again_stats) =
                templar.map_keywords_with_stats(&scenario.keywords, &starved);
            assert_eq!(again_stats, stats, "budget {budget}, repeat {call}");
            assert_eq!(again, ranked, "budget {budget}, repeat {call}");
        }
    }
}
