//! Shared benchmark scenarios.
//!
//! The self-timed benches live in `benches/`; this library holds scenario
//! builders that both those benches and the acceptance tests need — most
//! importantly the configuration-search stress scenario, whose cartesian
//! product is large enough (> 10⁶ configurations) that the best-first
//! search's pruning is measurable *and* still small enough that the
//! exhaustive reference can validate exactness in a test.

pub mod stress;
