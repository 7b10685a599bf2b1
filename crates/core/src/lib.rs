//! **Templar**: augmenting NLIDBs with SQL query-log information.
//!
//! This crate is the reproduction of the paper's primary contribution
//! (Sections III–VI):
//!
//! * [`fragment`] — the *query fragment* abstraction (Definition 3) and its
//!   three obscurity levels (`Full`, `NoConst`, `NoConstOp`), plus fragment
//!   extraction from parsed SQL,
//! * [`qfg`] — the *Query Fragment Graph* (Definition 6): occurrence and
//!   co-occurrence counts over a SQL query log, scored with the Dice
//!   coefficient,
//! * [`keyword`] — the keyword mapping procedure (`MAPKEYWORDS`,
//!   Algorithms 1–3) producing ranked *configurations* (Definition 5),
//! * [`join`] — join path inference (`INFERJOINS`, Section VI) with
//!   default or log-driven edge weights and self-join forking,
//! * [`templar`] — the [`Templar`] facade exposing exactly
//!   the two interface calls of Figure 2, which the `nlidb` crate's systems
//!   consume,
//! * [`trace`] — zero-dependency per-request tracing: thread-aware stage
//!   timers with a disabled-by-default fast path, used by the serving layer
//!   to attribute latency to pipeline stages.
//!
//! The crate deliberately has no knowledge of any specific NLIDB: it consumes
//! keywords + metadata and emits configurations and join paths, exactly as
//! described in Section III-E.

pub mod config;
pub mod error;
pub mod fragment;
pub mod join;
pub mod keyword;
pub mod qfg;
pub mod shared;
pub mod templar;
pub mod trace;

pub use config::{Obscurity, TemplarConfig};
pub use error::{JoinInferenceError, TemplarError};
pub use fragment::{fragments_of_query, QueryContext, QueryFragment};
pub use join::{apply_log_weights, infer_joins, BagItem, JoinInference, ScoredJoinPath};
pub use keyword::{
    Configuration, Keyword, KeywordMapper, KeywordMetadata, MappedElement, MappingCandidate,
    SearchStats,
};
pub use qfg::{FragmentId, FragmentInterner, QueryFragmentGraph, QueryLog};
pub use shared::SharedTemplar;
pub use templar::{JoinCacheStats, Templar};
pub use trace::{RequestTrace, SpanGuard, Stage, StageSpan, TraceCtx, TraceSpans, STAGE_COUNT};
