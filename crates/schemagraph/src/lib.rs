//! The join graph and join-path inference substrate.
//!
//! This crate implements the graph machinery behind Section VI of the paper:
//!
//! * the **join graph**: the FK-PK graph of Definition 1 at the level of
//!   relation instances, one node per relation and one edge per foreign
//!   key, with unit weights until a caller re-weights it (Templar's
//!   log-driven `w_L = 1 − Dice`),
//! * the **Kou–Markowsky–Berman Steiner tree approximation** \[21\] used to
//!   find minimum-weight join paths spanning a set of terminal relations,
//! * **forking** for self-joins (Algorithm 4 / Figure 4), and
//! * **join path scoring** ([`join_path_score`]: the paper's
//!   `Score_j = Σ w / |E_j|²`, turned larger-is-better).

pub mod joingraph;
pub mod joinpath;
pub mod steiner;

pub use joingraph::{JoinEdge, JoinGraph, NodeId};
pub use joinpath::{join_path_score, JoinCondition, JoinPath};
pub use steiner::steiner_tree;
