//! Baseline NLIDB systems and their Templar-augmented variants.
//!
//! The paper evaluates Templar by plugging it into two host systems
//! (Section VII-A.2):
//!
//! * **Pipeline** — an implementation of the keyword mapping and join path
//!   inference steps of SQLizer \[41\] without the hand-written repair rules:
//!   keyword mappings are ranked purely by (normalised) word-embedding
//!   similarity and join paths are always the minimum-length paths.
//!   **Pipeline+** defers both steps to Templar.
//! * **NaLIR** — a parse-tree-based NLIDB whose keyword mapping uses a
//!   WordNet-style lexicon and whose join paths use preset edge weights.  Its
//!   accuracy in the paper is limited primarily by its parser
//!   (Section VII-C); we reproduce that with an explicit, deterministic
//!   parser-noise model instead of re-implementing the Stanford parser (see
//!   DESIGN.md).  **NaLIR+** keeps the same noisy parser but defers keyword
//!   mapping and join inference to Templar.
//!
//! Both hosts share the same SQL construction code ([`construct`]), which
//! assembles the final query from a keyword-mapping configuration and an
//! inferred join path — the responsibility the paper assigns to the NLIDB
//! rather than to Templar.

pub mod construct;
pub mod explain;
pub mod nalir;
pub mod pipeline;
pub mod system;

pub use construct::construct_query;
pub use explain::{Explanation, JoinExplanation, JOIN_BLEND_BASE, JOIN_BLEND_WEIGHT};
pub use nalir::NaLirSystem;
pub use pipeline::{
    translate_traced, translate_with, translate_with_config, translate_with_config_stats,
    PipelineSystem,
};
pub use system::{NlidbSystem, Nlq, RankedSql, TemplarSource, TranslateError};
