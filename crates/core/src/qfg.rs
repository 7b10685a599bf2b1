//! The Query Fragment Graph (Definition 6), on an interned, columnar
//! data plane.
//!
//! The QFG stores, for a SQL query log `L`:
//!
//! * `n_v(c)` — how many logged queries contain fragment `c`, and
//! * `n_e(c1, c2)` — how many logged queries contain both `c1` and `c2`.
//!
//! Both counts are computed at a fixed [`Obscurity`] level.  The
//! co-occurrence strength of two fragments is measured with the Dice
//! coefficient
//! `Dice(c1, c2) = 2·n_e(c1, c2) / (n_v(c1) + n_v(c2))`,
//! which drives both the configuration score (Section V-C.2) and the
//! log-driven join edge weights (Section VI-A.2).
//!
//! # Representation
//!
//! Earlier revisions kept owned [`QueryFragment`] structs as map keys, so
//! every candidate scored during `MAPKEYWORDS` / `INFERJOINS` hashed (and
//! for pair lookups, cloned) whole fragments.  The graph now interns every
//! fragment to a dense [`FragmentId`] and stores the counts columnar:
//!
//! ```text
//! FragmentInterner   fragment ⇄ FragmentId(u32), assigned densely in
//!                    first-seen order and never remapped
//! occurrences        Vec<u64> indexed by FragmentId          (n_v)
//! CSR adjacency      offsets / neighbors / counts, one row per fragment,
//!                    each unordered pair stored once under its smaller id,
//!                    with precomputed Dice denominators n_v(a) + n_v(b)
//! delta log          BTreeMap<(id, id), u64> of co-occurrences not yet
//!                    folded into the CSR
//! ```
//!
//! Reads are always exact: `n_e` is the CSR count plus the pending delta.
//! [`QueryFragmentGraph::ingest`] only touches the columnar occurrence
//! vector and the delta log.  [`QueryFragmentGraph::compact`] folds the
//! delta into a fresh CSR; the serving layer calls it when a snapshot is
//! published, so the scoring hot path always runs on the compacted arrays.
//! The delta holds one entry per distinct pair touched since the last
//! compaction, so its size is bounded by the pairs the log can form, not by
//! how many queries arrive between publishes.
//!
//! The graph only grows, like the log of Definition 6: every count only
//! rises, and every interned fragment stays live.  It is built either
//!
//! * in one batch — [`QueryFragmentGraph::build`] over a whole [`QueryLog`], or
//! * incrementally — [`QueryFragmentGraph::ingest`] one query at a time, in
//!   `O(fragments²·log)` per query, which lets a long-running service absorb
//!   newly-logged queries without rebuilding the whole graph.  Ingesting
//!   every query of a log into an empty graph is equivalent to a batch
//!   build, and the columnar graph is observationally equivalent to the
//!   reference map-based model (both proved by property tests in
//!   `tests/qfg_properties.rs`).

use crate::config::Obscurity;
use crate::fragment::{fragments_of_query, QueryFragment};
use serde::{Deserialize, Serialize};
use sqlparse::{parse_query, Query};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A SQL query log: the raw material of the QFG.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct QueryLog {
    queries: Vec<Query>,
}

impl QueryLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a log from already-parsed queries.
    pub fn from_queries(queries: Vec<Query>) -> Self {
        QueryLog { queries }
    }

    /// Build a log from SQL strings, skipping (and reporting) unparsable
    /// entries.  Real query logs contain noise; Templar only ever uses what
    /// it can parse.  The skipped count should be surfaced (the serving
    /// layer exports it as the `log_skipped_statements` metric) rather than
    /// dropped.
    pub fn from_sql<'a>(statements: impl IntoIterator<Item = &'a str>) -> (Self, usize) {
        let mut queries = Vec::new();
        let mut skipped = 0;
        for sql in statements {
            match parse_query(sql) {
                Ok(q) => queries.push(q),
                Err(_) => skipped += 1,
            }
        }
        (QueryLog { queries }, skipped)
    }

    /// Append a query to the log.
    pub fn push(&mut self, query: Query) {
        self.queries.push(query);
    }

    /// The logged queries, oldest first.
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// Number of logged queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True when the log is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }
}

/// A dense identifier for an interned [`QueryFragment`].
///
/// Ids are assigned in first-seen order and never change: the graph only
/// grows, so an interned fragment keeps its id for the graph's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FragmentId(u32);

impl FragmentId {
    /// The raw index into the graph's columnar arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Sentinel slot value for the gather kernels
/// ([`QueryFragmentGraph::gather_dice`] /
/// [`QueryFragmentGraph::gather_popularity`]): a fragment the log has never
/// seen (`n_v = 0`), which co-occurs with nothing and reads 0.0 everywhere.
pub const ABSENT_FRAGMENT: u32 = u32::MAX;

/// Reusable scratch buffer for [`QueryFragmentGraph::gather_dice`], so the
/// per-extension gather on the configuration-search hot path stays
/// allocation-free.
#[derive(Debug, Default)]
pub struct DiceGatherScratch {
    denominators: Vec<f64>,
}

/// The fragment ⇄ id table: `intern` assigns the next dense id, `get`
/// resolves a fragment the log has seen.
#[derive(Debug, Clone, Default)]
pub struct FragmentInterner {
    ids: HashMap<QueryFragment, FragmentId>,
    fragments: Vec<QueryFragment>,
}

impl FragmentInterner {
    /// The id of an interned fragment.
    pub fn get(&self, fragment: &QueryFragment) -> Option<FragmentId> {
        self.ids.get(fragment).copied()
    }

    /// The fragment behind an id.
    pub fn resolve(&self, id: FragmentId) -> &QueryFragment {
        &self.fragments[id.index()]
    }

    /// Intern a fragment, returning its id (existing or newly assigned).
    fn intern(&mut self, fragment: &QueryFragment) -> FragmentId {
        if let Some(id) = self.ids.get(fragment) {
            return *id;
        }
        let id = FragmentId(self.fragments.len() as u32);
        self.fragments.push(fragment.clone());
        self.ids.insert(fragment.clone(), id);
        id
    }

    /// Number of interned fragments — the length of the columnar arrays.
    fn len(&self) -> usize {
        self.fragments.len()
    }
}

/// Compressed-sparse-row co-occurrence adjacency.  Each unordered pair
/// `(a, b)` with `a < b` is stored once in row `a`; rows are sorted by
/// neighbor id so a pair lookup is one binary search.  `denominators[e]`
/// caches `n_v(a) + n_v(b)` as of the last compaction, so a Dice lookup on a
/// compacted graph needs no occurrence loads.
#[derive(Debug, Clone, Default)]
struct CsrAdjacency {
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
    counts: Vec<u64>,
    denominators: Vec<u64>,
}

impl CsrAdjacency {
    fn empty() -> Self {
        CsrAdjacency {
            offsets: vec![0],
            neighbors: Vec::new(),
            counts: Vec::new(),
            denominators: Vec::new(),
        }
    }

    /// A CSR over well-formed columns, with its Dice denominators derived
    /// from `occurrences`, plus the per-fragment max-Dice column.  Every
    /// pair is visited once, and its Dice value is computed with the same
    /// expression the compacted fast path of
    /// [`QueryFragmentGraph::dice_by_id`] uses, so the column is exact
    /// (bit-for-bit) for every pair lookup that follows.
    fn with_max_dice(
        offsets: Vec<u32>,
        neighbors: Vec<u32>,
        counts: Vec<u64>,
        occurrences: &[u64],
    ) -> (Self, Vec<f64>) {
        let mut denominators = Vec::with_capacity(counts.len());
        let mut max_dice = vec![0.0f64; occurrences.len()];
        for lo in 0..offsets.len().saturating_sub(1) {
            for e in offsets[lo] as usize..offsets[lo + 1] as usize {
                let hi = neighbors[e] as usize;
                let denominator = occurrences[lo] + occurrences[hi];
                denominators.push(denominator);
                let dice = (2.0 * counts[e] as f64) / (denominator as f64);
                if dice > max_dice[lo] {
                    max_dice[lo] = dice;
                }
                if dice > max_dice[hi] {
                    max_dice[hi] = dice;
                }
            }
        }
        let csr = CsrAdjacency {
            offsets,
            neighbors,
            counts,
            denominators,
        };
        (csr, max_dice)
    }

    /// The flat index of edge `(lo, hi)` (`lo < hi`), if present.
    fn edge_index(&self, lo: u32, hi: u32) -> Option<usize> {
        let row = lo as usize;
        if row + 1 >= self.offsets.len() {
            return None;
        }
        let (start, end) = (self.offsets[row] as usize, self.offsets[row + 1] as usize);
        self.neighbors[start..end]
            .binary_search(&hi)
            .ok()
            .map(|i| start + i)
    }

    fn count(&self, lo: u32, hi: u32) -> u64 {
        self.edge_index(lo, hi).map(|e| self.counts[e]).unwrap_or(0)
    }
}

/// The Query Fragment Graph over interned fragment ids.
#[derive(Debug, Clone)]
pub struct QueryFragmentGraph {
    obscurity: Obscurity,
    interner: FragmentInterner,
    /// `n_v`, indexed by [`FragmentId`]; positive for every interned
    /// fragment.
    occurrences: Vec<u64>,
    /// Compacted `n_e` baseline.
    csr: CsrAdjacency,
    /// Co-occurrences counted since the last compaction, keyed `(lo, hi)`;
    /// every entry is positive.
    delta: BTreeMap<(u32, u32), u64>,
    /// Per-fragment maximum Dice coefficient over all *other* fragments,
    /// recomputed by [`QueryFragmentGraph::compact`] (exact on a compacted
    /// graph, unused otherwise — see [`QueryFragmentGraph::max_dice_by_id`]).
    /// Drives the admissible co-occurrence upper bound of the best-first
    /// configuration search.
    max_dice: Vec<f64>,
    /// True when any occurrence count changed since the last compaction
    /// (the CSR's precomputed denominators are then stale).
    occurrences_dirty: bool,
    /// Number of distinct pairs with a positive count.
    live_edges: usize,
    /// Number of queries the graph was built from.
    query_count: usize,
    /// Number of compactions performed over this graph's lifetime
    /// (monotonic; cloned along with the graph, exported by metrics).
    compactions: u64,
}

impl QueryFragmentGraph {
    /// An empty graph at an obscurity level (the starting point for purely
    /// incremental construction).
    pub fn empty(obscurity: Obscurity) -> Self {
        QueryFragmentGraph {
            obscurity,
            interner: FragmentInterner::default(),
            occurrences: Vec::new(),
            csr: CsrAdjacency::empty(),
            delta: BTreeMap::new(),
            max_dice: Vec::new(),
            occurrences_dirty: false,
            live_edges: 0,
            query_count: 0,
            compactions: 0,
        }
    }

    /// Build the QFG of a query log at an obscurity level.  The result is
    /// compacted, so lookups run on the CSR fast path immediately.
    pub fn build(log: &QueryLog, obscurity: Obscurity) -> Self {
        let mut graph = Self::empty(obscurity);
        for query in log.queries() {
            graph.ingest(query);
        }
        graph.compact();
        graph
    }

    /// Incrementally ingest one query into the graph, updating `n_v` / `n_e`
    /// in `O(fragments²·log)` — no rebuild.
    pub fn ingest(&mut self, query: &Query) {
        self.query_count += 1;
        // A query contributes at most 1 to n_v / n_e per fragment (pair),
        // matching "the number of occurrences in L of the query fragment":
        // occurrences are counted per logged query.
        let fragments = Self::distinct_fragments(query, self.obscurity);
        let mut ids: Vec<u32> = Vec::with_capacity(fragments.len());
        for f in &fragments {
            let id = self.interner.intern(f);
            if id.index() >= self.occurrences.len() {
                self.occurrences.resize(id.index() + 1, 0);
            }
            self.occurrences[id.index()] += 1;
            ids.push(id.0);
        }
        self.occurrences_dirty = true;
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                self.bump_pair(ids[i], ids[j]);
            }
        }
    }

    /// Current count of an unordered id pair.
    fn pair_count(&self, a: u32, b: u32) -> u64 {
        if a == b {
            return self.occurrences[a as usize];
        }
        let key = if a < b { (a, b) } else { (b, a) };
        self.csr.count(key.0, key.1) + self.delta.get(&key).copied().unwrap_or(0)
    }

    /// Count one more co-occurrence of a pair, maintaining the live edge
    /// counter.
    fn bump_pair(&mut self, a: u32, b: u32) {
        let key = if a < b { (a, b) } else { (b, a) };
        let pending = self.delta.entry(key).or_insert(0);
        if *pending == 0 && self.csr.count(key.0, key.1) == 0 {
            self.live_edges += 1;
        }
        *pending += 1;
    }

    /// Fold the delta log into a fresh CSR and recompute the precomputed
    /// Dice denominators.  Idempotent; ids are never remapped.  The serving
    /// layer calls this on every snapshot publish (`Templar::from_parts`
    /// compacts the graph it receives), so the translation hot path always
    /// reads compacted arrays.
    pub fn compact(&mut self) {
        if self.is_compacted() {
            return;
        }
        let merged = self.net_edges();
        let mut offsets = vec![0u32; self.interner.len() + 1];
        for &(lo, _, _) in &merged {
            offsets[lo as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let (neighbors, counts) = merged.iter().map(|&(_, hi, count)| (hi, count)).unzip();
        let (csr, max_dice) =
            CsrAdjacency::with_max_dice(offsets, neighbors, counts, &self.occurrences);
        self.csr = csr;
        self.max_dice = max_dice;
        self.live_edges = merged.len();
        self.delta.clear();
        self.occurrences_dirty = false;
        self.compactions += 1;
    }

    /// True when no pending delta exists and the CSR (including its
    /// precomputed denominators) reflects the current counts.
    pub fn is_compacted(&self) -> bool {
        self.fast_path() && self.csr.offsets.len() == self.interner.len() + 1
    }

    /// True when reads may take the precomputed CSR fast paths: no pending
    /// change and fresh denominators.
    fn fast_path(&self) -> bool {
        self.delta.is_empty() && !self.occurrences_dirty
    }

    /// All pairs with a positive count, sorted by `(lo, hi)`: the CSR
    /// baseline merged with the pending delta (a `BTreeMap`, so its
    /// iteration is already key-sorted).
    fn net_edges(&self) -> Vec<(u32, u32, u64)> {
        let mut merged = Vec::with_capacity(self.csr.counts.len() + self.delta.len());
        let mut pending = self.delta.iter().peekable();
        let rows = self.csr.offsets.len().saturating_sub(1);
        for lo in 0..rows as u32 {
            let (start, end) = (
                self.csr.offsets[lo as usize] as usize,
                self.csr.offsets[lo as usize + 1] as usize,
            );
            for e in start..end {
                let hi = self.csr.neighbors[e];
                // Pending-only pairs that sort before this CSR edge are new.
                while let Some((&key, &count)) = pending.next_if(|(&key, _)| key < (lo, hi)) {
                    merged.push((key.0, key.1, count));
                }
                let extra = pending
                    .next_if(|(&key, _)| key == (lo, hi))
                    .map_or(0, |(_, &count)| count);
                merged.push((lo, hi, self.csr.counts[e] + extra));
            }
        }
        merged.extend(pending.map(|(&(lo, hi), &count)| (lo, hi, count)));
        merged
    }

    /// The distinct fragments of one query at an obscurity level, ordered.
    fn distinct_fragments(query: &Query, obscurity: Obscurity) -> BTreeSet<QueryFragment> {
        fragments_of_query(query, obscurity).into_iter().collect()
    }

    /// The obscurity level the graph was built at.
    pub fn obscurity(&self) -> Obscurity {
        self.obscurity
    }

    /// Number of distinct fragments (vertices).
    pub fn fragment_count(&self) -> usize {
        self.interner.len()
    }

    /// Number of distinct co-occurring pairs with a positive count (edges).
    pub fn edge_count(&self) -> usize {
        self.live_edges
    }

    /// Number of queries the graph was built from.
    pub fn query_count(&self) -> usize {
        self.query_count
    }

    /// The interner (for callers that resolve fragments to ids once and
    /// score over ids afterwards).
    pub fn interner(&self) -> &FragmentInterner {
        &self.interner
    }

    /// The id of a fragment the log has seen, for id-based scoring.
    pub fn lookup(&self, fragment: &QueryFragment) -> Option<FragmentId> {
        self.interner.get(fragment)
    }

    /// The id of a relation's `FROM` fragment.
    pub fn lookup_relation(&self, relation: &str) -> Option<FragmentId> {
        self.lookup(&QueryFragment::relation(relation))
    }

    /// Number of edges resident in the compacted CSR baseline.
    pub fn csr_edge_len(&self) -> usize {
        self.csr.counts.len()
    }

    /// Number of pending pairs in the delta log (everything a compaction
    /// would fold into the CSR).
    pub fn pending_delta_len(&self) -> usize {
        self.delta.len()
    }

    /// Number of compactions performed over this graph's lifetime.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// `n_v(c)`: occurrence count of a fragment.
    pub fn occurrences(&self, fragment: &QueryFragment) -> u64 {
        self.interner
            .get(fragment)
            .map(|id| self.occurrences[id.index()])
            .unwrap_or(0)
    }

    /// `n_v` by id — one array load.
    pub fn occurrences_by_id(&self, id: FragmentId) -> u64 {
        self.occurrences[id.index()]
    }

    /// `n_e(c1, c2)`: co-occurrence count of a fragment pair.
    pub fn co_occurrences(&self, a: &QueryFragment, b: &QueryFragment) -> u64 {
        if a == b {
            return self.occurrences(a);
        }
        match (self.interner.get(a), self.interner.get(b)) {
            (Some(x), Some(y)) => self.co_occurrences_by_id(x, y),
            _ => 0,
        }
    }

    /// `n_e` by id pair.
    pub fn co_occurrences_by_id(&self, a: FragmentId, b: FragmentId) -> u64 {
        self.pair_count(a.0, b.0)
    }

    /// The Dice coefficient of two fragments, in `[0, 1]`.
    pub fn dice(&self, a: &QueryFragment, b: &QueryFragment) -> f64 {
        match (self.interner.get(a), self.interner.get(b)) {
            (Some(x), Some(y)) => self.dice_by_id(x, y),
            // A fragment the log never saw has n_v = 0 and co-occurs with
            // nothing, so every Dice involving it is 0.
            _ => 0.0,
        }
    }

    /// The Dice coefficient by id pair.  On a compacted graph this is one
    /// binary search plus one division against the precomputed denominator;
    /// occurrence counts are not touched at all.
    pub fn dice_by_id(&self, a: FragmentId, b: FragmentId) -> f64 {
        if a == b {
            // Dice(c, c) = 2·n_v / (n_v + n_v) = 1, since every interned
            // fragment has n_v > 0.
            return 1.0;
        }
        let (lo, hi) = if a.0 < b.0 { (a.0, b.0) } else { (b.0, a.0) };
        if self.fast_path() {
            return match self.csr.edge_index(lo, hi) {
                Some(e) => (2.0 * self.csr.counts[e] as f64) / (self.csr.denominators[e] as f64),
                None => 0.0,
            };
        }
        let denominator = self.occurrences[lo as usize] + self.occurrences[hi as usize];
        (2.0 * self.pair_count(lo, hi) as f64) / (denominator as f64)
    }

    /// An upper bound on `max over all other fragments x of Dice(id, x)`.
    ///
    /// On a compacted graph this is **exact**: the column is rebuilt by
    /// [`QueryFragmentGraph::compact`] from the same arithmetic the pair
    /// lookup uses, so for every partner `x ≠ id`,
    /// `dice_by_id(id, x) ≤ max_dice_by_id(id)` holds bit-for-bit.  On a
    /// graph with pending deltas the column may be stale in either
    /// direction, so the trivially admissible bound `1.0` is returned
    /// instead — callers on the scoring hot path always see a compacted
    /// graph (`Templar::from_parts` compacts on snapshot construction).
    ///
    /// A fragment with no co-occurring partner has `max_dice = 0.0` (Dice
    /// with every other fragment is 0).
    pub fn max_dice_by_id(&self, id: FragmentId) -> f64 {
        if self.fast_path() && id.index() < self.max_dice.len() {
            self.max_dice[id.index()]
        } else {
            1.0
        }
    }

    /// Gather `Dice(candidate, priors[i])` into `out[i]` for a batch of
    /// prior fragment slots — the columnar counterpart of calling
    /// [`QueryFragmentGraph::dice_by_id`] once per pair.
    ///
    /// On a compacted graph the gather phase resolves every pair to an
    /// integer `(numerator, denominator)` — one CSR binary search each —
    /// and the arithmetic then runs as one flat multiply/divide sweep over
    /// contiguous slices that LLVM can autovectorize.  Each lane evaluates
    /// the same expression the scalar lookup does (`2·n_e / (n_v(a) +
    /// n_v(b))`; missing pairs read `(0, 1)`, self-pairs `(1, 2)`), so
    /// every gathered value is bit-for-bit the `dice_by_id` result.  With
    /// pending deltas the per-pair slow path is used instead — same values,
    /// no sweep.
    ///
    /// `priors` entries equal to [`ABSENT_FRAGMENT`] denote fragments the
    /// log has never seen; they read 0.0.
    pub fn gather_dice(
        &self,
        candidate: FragmentId,
        priors: &[u32],
        scratch: &mut DiceGatherScratch,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        if priors.is_empty() {
            return;
        }
        if !self.fast_path() {
            out.extend(priors.iter().map(|&p| {
                if p == ABSENT_FRAGMENT {
                    0.0
                } else {
                    self.dice_by_id(candidate, FragmentId(p))
                }
            }));
            return;
        }
        let c = candidate.0;
        let den = &mut scratch.denominators;
        den.clear();
        den.reserve(priors.len());
        out.reserve(priors.len());
        for &p in priors {
            let (numerator, denominator) = if p == ABSENT_FRAGMENT {
                (0.0, 1.0)
            } else if p == c {
                (1.0, 2.0)
            } else {
                let (lo, hi) = if c < p { (c, p) } else { (p, c) };
                match self.csr.edge_index(lo, hi) {
                    Some(e) => (self.csr.counts[e] as f64, self.csr.denominators[e] as f64),
                    None => (0.0, 1.0),
                }
            };
            out.push(numerator);
            den.push(denominator);
        }
        for (value, &denominator) in out.iter_mut().zip(den.iter()) {
            *value = (2.0 * *value) / denominator;
        }
    }

    /// Gather `n_v(ids[i]) / |L|` into `out[i]` — the normalised
    /// log-popularity of a batch of fragment slots, as one contiguous
    /// occurrence gather followed by one divide sweep.  [`ABSENT_FRAGMENT`]
    /// entries read 0.0; each lane matches the scalar
    /// `occurrences_by_id(id) as f64 / query_count().max(1) as f64`
    /// bit-for-bit.
    pub fn gather_popularity(&self, ids: &[u32], out: &mut Vec<f64>) {
        let total = self.query_count.max(1) as f64;
        out.clear();
        out.extend(ids.iter().map(|&id| {
            if id == ABSENT_FRAGMENT {
                0.0
            } else {
                self.occurrences[id as usize] as f64
            }
        }));
        for value in out.iter_mut() {
            *value /= total;
        }
    }

    /// The Dice coefficient between two relations' `FROM` fragments, used by
    /// the log-driven join edge weight `w_L = 1 − Dice`.
    pub fn relation_dice(&self, a: &str, b: &str) -> f64 {
        self.dice(&QueryFragment::relation(a), &QueryFragment::relation(b))
    }

    /// The most frequent fragments (for inspection and examples).
    pub fn top_fragments(&self, n: usize) -> Vec<(QueryFragment, u64)> {
        let mut all: Vec<(QueryFragment, u64)> =
            self.fragments().map(|(f, c)| (f.clone(), c)).collect();
        all.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(n);
        all
    }

    /// Iterate over all fragments and their occurrence counts, in id order.
    pub fn fragments(&self) -> impl Iterator<Item = (&QueryFragment, u64)> {
        self.interner
            .fragments
            .iter()
            .zip(self.occurrences.iter().copied())
    }

    /// Iterate over all co-occurring fragment pairs and their counts
    /// (canonical id order; used by observational equality, snapshot
    /// tooling and inspection).
    pub fn co_occurrence_entries(&self) -> Vec<(&QueryFragment, &QueryFragment, u64)> {
        self.net_edges()
            .into_iter()
            .map(|(lo, hi, count)| {
                (
                    self.interner.resolve(FragmentId(lo)),
                    self.interner.resolve(FragmentId(hi)),
                    count,
                )
            })
            .collect()
    }
}

/// Equality is *observational*: two graphs are equal when they were built at
/// the same obscurity from the same number of queries and agree on every
/// occurrence and co-occurrence count — regardless of id assignment order or
/// compaction progress.  (A shuffled incremental build interns fragments in
/// a different order than a batch build; both must compare equal.)
impl PartialEq for QueryFragmentGraph {
    fn eq(&self, other: &Self) -> bool {
        self.obscurity == other.obscurity
            && self.query_count == other.query_count
            && self.fragment_count() == other.fragment_count()
            && self.edge_count() == other.edge_count()
            && self.fragments().all(|(f, c)| other.occurrences(f) == c)
            && self
                .co_occurrence_entries()
                .iter()
                .all(|(a, b, c)| other.co_occurrences(a, b) == *c)
    }
}

// ---------------------------------------------------------------------------
// Sectioned serialization (snapshot sections)
// ---------------------------------------------------------------------------
//
// A snapshot serializes the graph **as-is**, one independent section at a
// time (interner table, occurrence column, CSR adjacency, pending delta),
// so a streaming writer holds at most one section and no clone, and
// pending work survives a snapshot without a forced compaction.  Raw ids
// in the CSR and the delta index the interner table verbatim.

/// One run of the `qfg/runs` section: `[lo, hi, count]` per entry, in the
/// order given, with each count a binary `I64` as snapshot v4 lays it out.
fn run_value(entries: impl IntoIterator<Item = ((u32, u32), i64)>) -> serde::Value {
    serde::Value::Seq(
        entries
            .into_iter()
            .map(|((lo, hi), count)| {
                serde::Value::Seq(vec![
                    serde::Value::U64(lo as u64),
                    serde::Value::U64(hi as u64),
                    serde::Value::I64(count),
                ])
            })
            .collect(),
    )
}

impl QueryFragmentGraph {
    /// Section `qfg/fragments`: the interner table in id order.
    pub fn fragments_section(&self) -> serde::Value {
        serde::Value::Seq(
            self.interner
                .fragments
                .iter()
                .map(Serialize::to_value)
                .collect(),
        )
    }

    /// Section `qfg/occurrences`: the `n_v` column in id order.
    pub fn occurrences_section(&self) -> serde::Value {
        serde::Value::Seq(
            self.occurrences
                .iter()
                .map(|&count| serde::Value::U64(count))
                .collect(),
        )
    }

    /// Section `qfg/adjacency`: the compacted CSR baseline over raw ids.
    /// Denominators and the max-Dice column are derived at load time.
    pub fn adjacency_section(&self) -> serde::Value {
        let seq_u32 = |xs: &[u32]| {
            serde::Value::Seq(xs.iter().map(|&x| serde::Value::U64(x as u64)).collect())
        };
        let seq_u64 =
            |xs: &[u64]| serde::Value::Seq(xs.iter().map(|&x| serde::Value::U64(x)).collect());
        serde::Value::Map(vec![
            ("offsets".to_string(), seq_u32(&self.csr.offsets)),
            ("neighbors".to_string(), seq_u32(&self.csr.neighbors)),
            ("counts".to_string(), seq_u64(&self.csr.counts)),
        ])
    }

    /// Section `qfg/runs`: a sequence of sorted runs of pending counts,
    /// each entry `[lo, hi, count]`.  The writer emits the delta log as one
    /// run, or no run when it is empty, so a snapshot needs no compaction
    /// before it is written; [`QueryFragmentGraph::from_sections`] accepts
    /// any number of runs.
    pub fn runs_section(&self) -> serde::Value {
        serde::Value::Seq(if self.delta.is_empty() {
            Vec::new()
        } else {
            vec![run_value(
                self.delta.iter().map(|(&key, &count)| (key, count as i64)),
            )]
        })
    }

    /// Rebuild a graph from its snapshot sections, validating every structural
    /// invariant so a corrupted section surfaces as a typed error.  The
    /// result is observationally identical to the graph that was written:
    /// raw ids and the pending delta are restored verbatim (the runs of
    /// `qfg/runs` are summed into one delta).
    pub fn from_sections(
        obscurity: Obscurity,
        query_count: u64,
        fragments: &serde::Value,
        occurrences: &serde::Value,
        adjacency: &serde::Value,
        runs: &serde::Value,
    ) -> Result<Self, String> {
        let fragment_slots = fragments
            .as_seq()
            .ok_or("fragments section is not a sequence")?;
        let n = fragment_slots.len();
        let mut table: Vec<QueryFragment> = Vec::with_capacity(n);
        let mut ids: HashMap<QueryFragment, FragmentId> = HashMap::with_capacity(n);
        for (slot, value) in fragment_slots.iter().enumerate() {
            let fragment = QueryFragment::from_value(value)
                .map_err(|e| format!("fragment slot {slot}: {e}"))?;
            if ids
                .insert(fragment.clone(), FragmentId(slot as u32))
                .is_some()
            {
                return Err(format!("duplicate interned fragment {fragment}"));
            }
            table.push(fragment);
        }
        let occurrence_values = occurrences
            .as_seq()
            .ok_or("occurrences section is not a sequence")?;
        if occurrence_values.len() != n {
            return Err(format!(
                "occurrence column length {} does not match {} fragment slots",
                occurrence_values.len(),
                n
            ));
        }
        let mut occ: Vec<u64> = Vec::with_capacity(n);
        for (slot, value) in occurrence_values.iter().enumerate() {
            let count = value
                .as_u64()
                .ok_or_else(|| format!("occurrence {slot} is not an unsigned integer"))?;
            if count == 0 {
                return Err(format!("fragment slot {slot} has zero occurrences"));
            }
            occ.push(count);
        }
        let adjacency_fields = adjacency.as_map().ok_or("adjacency section is not a map")?;
        let u32_column = |name: &str| -> Result<Vec<u32>, String> {
            let column = adjacency_fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("adjacency section is missing `{name}`"))?
                .as_seq()
                .ok_or_else(|| format!("adjacency `{name}` is not a sequence"))?;
            column
                .iter()
                .map(|v| {
                    v.as_u64()
                        .and_then(|x| u32::try_from(x).ok())
                        .ok_or_else(|| format!("adjacency `{name}` holds a non-u32 entry"))
                })
                .collect()
        };
        let offsets = u32_column("offsets")?;
        let neighbors = u32_column("neighbors")?;
        let counts: Vec<u64> = {
            let column = adjacency_fields
                .iter()
                .find(|(k, _)| k == "counts")
                .map(|(_, v)| v)
                .ok_or("adjacency section is missing `counts`")?
                .as_seq()
                .ok_or("adjacency `counts` is not a sequence")?;
            column
                .iter()
                .map(|v| v.as_u64().ok_or("adjacency `counts` holds a non-u64 entry"))
                .collect::<Result<_, _>>()?
        };
        // Fragments interned since the last compact have no CSR row yet, so
        // the offsets column may cover fewer rows than the table has slots —
        // never more.
        if offsets.len() > n + 1 || offsets.first() != Some(&0) {
            return Err(format!(
                "CSR offsets length {} does not match {} fragment slots",
                offsets.len(),
                n
            ));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("CSR offsets are not monotone".to_string());
        }
        let edges = *offsets.last().unwrap() as usize;
        if neighbors.len() != edges || counts.len() != edges {
            return Err(format!(
                "truncated CSR: offsets expect {} edges, found {} neighbors / {} counts",
                edges,
                neighbors.len(),
                counts.len()
            ));
        }
        for lo in 0..offsets.len().saturating_sub(1) {
            let (start, end) = (offsets[lo] as usize, offsets[lo + 1] as usize);
            let mut prev: Option<u32> = None;
            for e in start..end {
                let hi = neighbors[e];
                if (hi as usize) >= n || hi <= lo as u32 {
                    return Err(format!("CSR neighbor {hi} out of range for row {lo}"));
                }
                if prev.is_some_and(|p| p >= hi) {
                    return Err(format!("CSR row {lo} neighbors are not strictly sorted"));
                }
                prev = Some(hi);
                if counts[e] == 0 {
                    return Err(format!("CSR pair ({lo}, {hi}) has a zero baseline count"));
                }
            }
        }
        let (csr, max_dice) = CsrAdjacency::with_max_dice(offsets, neighbors, counts, &occ);
        let run_values = runs.as_seq().ok_or("runs section is not a sequence")?;
        let mut delta: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        for (r, run) in run_values.iter().enumerate() {
            let entries = run
                .as_seq()
                .ok_or_else(|| format!("delta run {r} is not a sequence"))?;
            let id = |value: &serde::Value| {
                value
                    .as_u64()
                    .and_then(|x| u32::try_from(x).ok())
                    .ok_or_else(|| format!("delta run {r} holds a non-u32 id"))
            };
            let mut prev: Option<(u32, u32)> = None;
            for entry in entries {
                let triple = entry
                    .as_seq()
                    .filter(|t| t.len() == 3)
                    .ok_or_else(|| format!("delta run {r} holds a malformed entry"))?;
                let (lo, hi) = (id(&triple[0])?, id(&triple[1])?);
                let count = triple[2]
                    .as_i64()
                    .ok_or_else(|| format!("delta run {r} holds a non-integer count"))?;
                if (hi as usize) >= n || hi <= lo {
                    return Err(format!("delta run {r} pair ({lo}, {hi}) is out of range"));
                }
                if count <= 0 {
                    return Err(format!("delta run {r} holds a non-positive count"));
                }
                if prev.is_some_and(|p| p >= (lo, hi)) {
                    return Err(format!("delta run {r} keys are not strictly sorted"));
                }
                prev = Some((lo, hi));
                // The sum stays writable as one signed run entry.
                let pending = delta.entry((lo, hi)).or_insert(0);
                *pending = pending
                    .checked_add(count as u64)
                    .filter(|&sum| sum <= i64::MAX as u64)
                    .ok_or_else(|| format!("delta run {r} overflows pair ({lo}, {hi})"))?;
            }
        }
        let live_edges = edges
            + delta
                .keys()
                .filter(|&&(lo, hi)| csr.count(lo, hi) == 0)
                .count();
        Ok(QueryFragmentGraph {
            obscurity,
            interner: FragmentInterner {
                ids,
                fragments: table,
            },
            occurrences: occ,
            csr,
            delta,
            max_dice,
            occurrences_dirty: false,
            live_edges,
            query_count: query_count as usize,
            compactions: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::QueryContext;

    /// The query log of Figure 3a.
    fn figure3_log() -> QueryLog {
        let mut sql = Vec::new();
        for _ in 0..25 {
            sql.push("SELECT j.name FROM journal j".to_string());
        }
        for _ in 0..5 {
            sql.push("SELECT p.title FROM publication p WHERE p.year > 2003".to_string());
        }
        for _ in 0..3 {
            sql.push(
                "SELECT p.title FROM journal j, publication p \
                 WHERE j.name = 'TMC' AND p.pid = j.pid"
                    .to_string(),
            );
        }
        let (log, skipped) = QueryLog::from_sql(sql.iter().map(String::as_str));
        assert_eq!(skipped, 0);
        log
    }

    fn frag(expr: &str, context: QueryContext) -> QueryFragment {
        QueryFragment {
            expr: expr.to_string(),
            context,
        }
    }

    #[test]
    fn occurrence_counts_match_figure_3b() {
        let qfg = QueryFragmentGraph::build(&figure3_log(), Obscurity::NoConstOp);
        assert_eq!(
            qfg.occurrences(&frag("journal.name", QueryContext::Select)),
            25
        );
        assert_eq!(
            qfg.occurrences(&frag("publication.title", QueryContext::Select)),
            8
        );
        assert_eq!(qfg.occurrences(&QueryFragment::relation("journal")), 28);
        assert_eq!(qfg.occurrences(&QueryFragment::relation("publication")), 8);
        assert_eq!(
            qfg.occurrences(&frag("publication.year ?op ?val", QueryContext::Where)),
            5
        );
        assert_eq!(
            qfg.occurrences(&frag("journal.name ?op ?val", QueryContext::Where)),
            3
        );
        assert_eq!(qfg.query_count(), 33);
    }

    #[test]
    fn co_occurrence_counts_match_figure_3c() {
        let qfg = QueryFragmentGraph::build(&figure3_log(), Obscurity::NoConstOp);
        let title = frag("publication.title", QueryContext::Select);
        let year_pred = frag("publication.year ?op ?val", QueryContext::Where);
        let jname_pred = frag("journal.name ?op ?val", QueryContext::Where);
        let jname_sel = frag("journal.name", QueryContext::Select);
        assert_eq!(qfg.co_occurrences(&title, &year_pred), 5);
        assert_eq!(qfg.co_occurrences(&title, &jname_pred), 3);
        assert_eq!(qfg.co_occurrences(&jname_sel, &jname_pred), 0);
        assert_eq!(qfg.co_occurrences(&jname_sel, &title), 0);
    }

    #[test]
    fn dice_reflects_the_log_evidence() {
        let qfg = QueryFragmentGraph::build(&figure3_log(), Obscurity::NoConstOp);
        let title = frag("publication.title", QueryContext::Select);
        let jname_sel = frag("journal.name", QueryContext::Select);
        let jname_pred = frag("journal.name ?op ?val", QueryContext::Where);
        // The log says: when a journal-name predicate appears, the query
        // selects publication.title, never journal.name.  This is the
        // evidence that resolves Example 5's "papers" ambiguity.
        assert!(qfg.dice(&title, &jname_pred) > qfg.dice(&jname_sel, &jname_pred));
        // Dice is symmetric and bounded.
        assert_eq!(qfg.dice(&title, &jname_pred), qfg.dice(&jname_pred, &title));
        assert!(qfg.dice(&title, &jname_pred) <= 1.0);
    }

    #[test]
    fn dice_of_unknown_fragments_is_zero() {
        let qfg = QueryFragmentGraph::build(&figure3_log(), Obscurity::NoConstOp);
        let unknown = frag("business.stars ?op ?val", QueryContext::Where);
        let title = frag("publication.title", QueryContext::Select);
        assert_eq!(qfg.dice(&unknown, &title), 0.0);
        assert_eq!(qfg.occurrences(&unknown), 0);
    }

    #[test]
    fn dice_with_itself_is_one() {
        let qfg = QueryFragmentGraph::build(&figure3_log(), Obscurity::NoConstOp);
        let title = frag("publication.title", QueryContext::Select);
        assert!((qfg.dice(&title, &title) - 1.0).abs() < 1e-12);
        let id = qfg.lookup(&title).unwrap();
        assert!((qfg.dice_by_id(id, id) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn relation_dice_supports_join_weighting() {
        let qfg = QueryFragmentGraph::build(&figure3_log(), Obscurity::NoConstOp);
        // journal and publication co-occur in 3 of the queries.
        let d = qfg.relation_dice("journal", "publication");
        assert!((d - 2.0 * 3.0 / (28.0 + 8.0)).abs() < 1e-12);
    }

    #[test]
    fn unparsable_log_entries_are_skipped() {
        let (log, skipped) =
            QueryLog::from_sql(["SELECT x FROM t", "THIS IS NOT SQL", "SELECT y FROM u"]);
        assert_eq!(log.len(), 2);
        assert_eq!(skipped, 1);
    }

    #[test]
    fn incremental_and_batch_construction_agree() {
        let log = figure3_log();
        let batch = QueryFragmentGraph::build(&log, Obscurity::NoConst);
        let mut incremental = QueryFragmentGraph::build(&QueryLog::new(), Obscurity::NoConst);
        for q in log.queries() {
            incremental.ingest(q);
        }
        assert_eq!(batch.fragment_count(), incremental.fragment_count());
        assert_eq!(batch.edge_count(), incremental.edge_count());
        for (f, c) in batch.fragments() {
            assert_eq!(incremental.occurrences(f), c);
        }
        assert_eq!(batch, incremental);
    }

    #[test]
    fn top_fragments_are_sorted_by_frequency() {
        let qfg = QueryFragmentGraph::build(&figure3_log(), Obscurity::NoConstOp);
        let top = qfg.top_fragments(3);
        assert_eq!(top[0].0, QueryFragment::relation("journal"));
        assert!(top[0].1 >= top[1].1 && top[1].1 >= top[2].1);
    }

    #[test]
    fn ids_are_stable_and_lookups_match_fragment_keyed_reads() {
        let qfg = QueryFragmentGraph::build(&figure3_log(), Obscurity::NoConstOp);
        let title = frag("publication.title", QueryContext::Select);
        let year_pred = frag("publication.year ?op ?val", QueryContext::Where);
        let a = qfg.lookup(&title).unwrap();
        let b = qfg.lookup(&year_pred).unwrap();
        assert_eq!(qfg.occurrences_by_id(a), qfg.occurrences(&title));
        assert_eq!(
            qfg.co_occurrences_by_id(a, b),
            qfg.co_occurrences(&title, &year_pred)
        );
        assert_eq!(qfg.dice_by_id(a, b), qfg.dice(&title, &year_pred));
        assert_eq!(qfg.interner().resolve(a), &title);
    }

    #[test]
    fn compaction_preserves_counts() {
        let log = figure3_log();
        let mut incremental = QueryFragmentGraph::empty(Obscurity::NoConstOp);
        for q in log.queries() {
            incremental.ingest(q);
        }
        assert!(!incremental.is_compacted());
        let before_fragments: Vec<(QueryFragment, u64)> = incremental
            .fragments()
            .map(|(f, c)| (f.clone(), c))
            .collect();
        let uncompacted = incremental.clone();
        incremental.compact();
        assert!(incremental.is_compacted());
        assert_eq!(incremental.compactions(), 1);
        assert_eq!(incremental.csr_edge_len(), incremental.edge_count());
        assert_eq!(incremental.pending_delta_len(), 0);
        for (f, c) in &before_fragments {
            assert_eq!(incremental.occurrences(f), *c);
        }
        assert_eq!(incremental, uncompacted);
    }

    #[test]
    fn max_dice_column_is_exact_on_a_compacted_graph() {
        let qfg = QueryFragmentGraph::build(&figure3_log(), Obscurity::NoConstOp);
        let live: Vec<QueryFragment> = qfg.fragments().map(|(f, _)| f.clone()).collect();
        for a in &live {
            let id = qfg.lookup(a).unwrap();
            let expected = live
                .iter()
                .filter(|b| *b != a)
                .map(|b| qfg.dice(a, b))
                .fold(0.0, f64::max);
            assert_eq!(
                qfg.max_dice_by_id(id),
                expected,
                "max_dice must equal the true per-fragment maximum for {a}"
            );
            // Admissibility bit-for-bit: no pair lookup may exceed it.
            for b in &live {
                if b != a {
                    assert!(qfg.dice(a, b) <= qfg.max_dice_by_id(id));
                }
            }
        }
    }

    #[test]
    fn max_dice_falls_back_to_admissible_one_while_uncompacted() {
        let mut qfg = QueryFragmentGraph::build(&figure3_log(), Obscurity::NoConstOp);
        // journal.name co-occurs most strongly with the journal relation
        // (25 of 28 journal queries), so its true maximum is 50/53 < 1.
        let jname = frag("journal.name", QueryContext::Select);
        let id = qfg.lookup(&jname).unwrap();
        assert!((qfg.max_dice_by_id(id) - 50.0 / 53.0).abs() < 1e-12);
        let (extra, _) = QueryLog::from_sql(["SELECT p.year FROM publication p"]);
        qfg.ingest(&extra.queries()[0]);
        // Pending deltas: the column may be stale, so the trivial bound wins.
        assert_eq!(qfg.max_dice_by_id(id), 1.0);
        qfg.compact();
        assert!(qfg.max_dice_by_id(id) < 1.0);
        // A section round-trip (snapshot load) restores the exact column.
        let back = QueryFragmentGraph::from_sections(
            qfg.obscurity(),
            qfg.query_count() as u64,
            &qfg.fragments_section(),
            &qfg.occurrences_section(),
            &qfg.adjacency_section(),
            &qfg.runs_section(),
        )
        .unwrap();
        assert_eq!(back.max_dice_by_id(id), qfg.max_dice_by_id(id));
    }

    #[test]
    fn gather_kernels_match_scalar_lookups_bit_for_bit() {
        let mut qfg = QueryFragmentGraph::build(&figure3_log(), Obscurity::NoConstOp);
        // Exercise both the compacted sweep and the pending-delta fallback.
        for compacted in [true, false] {
            if !compacted {
                let (extra, _) = QueryLog::from_sql(["SELECT p.year FROM publication p"]);
                qfg.ingest(&extra.queries()[0]);
                assert!(!qfg.is_compacted());
            }
            let live: Vec<FragmentId> = qfg
                .fragments()
                .map(|(f, _)| qfg.lookup(f).unwrap())
                .collect();
            let mut ids: Vec<u32> = live.iter().map(|id| id.index() as u32).collect();
            ids.push(ABSENT_FRAGMENT);
            let mut scratch = DiceGatherScratch::default();
            let mut out = Vec::new();
            for &c in &live {
                qfg.gather_dice(c, &ids, &mut scratch, &mut out);
                assert_eq!(out.len(), ids.len());
                for (i, &id) in ids.iter().enumerate() {
                    let expected = if id == ABSENT_FRAGMENT {
                        0.0
                    } else {
                        qfg.dice_by_id(c, FragmentId(id))
                    };
                    assert_eq!(
                        out[i].to_bits(),
                        expected.to_bits(),
                        "gathered Dice must be bit-identical to the scalar lookup \
                         (compacted: {compacted})"
                    );
                }
            }
            let mut pop = Vec::new();
            qfg.gather_popularity(&ids, &mut pop);
            for (i, &id) in ids.iter().enumerate() {
                let expected = if id == ABSENT_FRAGMENT {
                    0.0
                } else {
                    qfg.occurrences_by_id(FragmentId(id)) as f64 / qfg.query_count().max(1) as f64
                };
                assert_eq!(pop[i].to_bits(), expected.to_bits());
            }
        }
    }

    // -- sectioned serialization ---------------------------------------

    /// A varied pool of parsable queries.
    fn churn_queries(n: usize) -> Vec<Query> {
        let tables = ["publication", "journal", "author", "conference"];
        let mut sql = Vec::new();
        for i in 0..n {
            let t = tables[i % tables.len()];
            let u = tables[(i / tables.len() + 1) % tables.len()];
            sql.push(match i % 3 {
                0 => format!("SELECT {t}.c{} FROM {t} WHERE {t}.y{} > {i}", i % 7, i % 5),
                1 => format!("SELECT {t}.c{} FROM {t}", i % 7),
                _ => format!(
                    "SELECT {t}.c{} FROM {t}, {u} WHERE {t}.k = {u}.k AND {u}.z{} = {i}",
                    i % 7,
                    i % 5
                ),
            });
        }
        let (log, skipped) = QueryLog::from_sql(sql.iter().map(String::as_str));
        assert_eq!(skipped, 0);
        log.queries().to_vec()
    }

    /// A graph with a compacted baseline *and* a pending delta — the
    /// richest sectioned shape.
    fn pending_delta_fixture() -> QueryFragmentGraph {
        let queries = churn_queries(60);
        let mut qfg = QueryFragmentGraph::empty(Obscurity::NoConstOp);
        for query in &queries[..40] {
            qfg.ingest(query);
        }
        qfg.compact();
        for query in &queries[40..] {
            qfg.ingest(query);
        }
        assert!(!qfg.is_compacted());
        qfg
    }

    #[test]
    fn sections_round_trip_uncompacted_graphs_verbatim() {
        let qfg = pending_delta_fixture();
        let back = QueryFragmentGraph::from_sections(
            qfg.obscurity(),
            qfg.query_count() as u64,
            &qfg.fragments_section(),
            &qfg.occurrences_section(),
            &qfg.adjacency_section(),
            &qfg.runs_section(),
        )
        .unwrap();
        assert_eq!(back, qfg);
        assert_eq!(back.query_count(), qfg.query_count());
        assert_eq!(back.pending_delta_len(), qfg.pending_delta_len());
        // Raw ids line up verbatim.
        for (fragment, count) in qfg.fragments() {
            let a = qfg.lookup(fragment).unwrap();
            let b = back.lookup(fragment).unwrap();
            assert_eq!(a.index(), b.index());
            assert_eq!(back.occurrences_by_id(b), count);
        }
        // And both sides compact to identical exact state.
        let mut a = qfg.clone();
        let mut b = back.clone();
        a.compact();
        b.compact();
        assert_eq!(a, b);
    }

    #[test]
    fn runs_splitting_a_pending_delta_load_into_an_equal_graph() {
        // The writer emits at most one run, but `qfg/runs` is a sequence:
        // a section that splits the pending delta across two runs — some
        // pairs' counts divided between them — must load into the same
        // graph.
        let qfg = pending_delta_fixture();
        let (mut older, mut newer) = (Vec::new(), Vec::new());
        for (i, (&key, &count)) in qfg.delta.iter().enumerate() {
            let count = count as i64;
            if count > 1 {
                older.push((key, count / 2));
                newer.push((key, count - count / 2));
            } else if i % 2 == 0 {
                older.push((key, count));
            } else {
                newer.push((key, count));
            }
        }
        assert!(
            older
                .iter()
                .any(|(key, _)| newer.iter().any(|(k, _)| k == key)),
            "the fixture has a pending count to split"
        );
        let runs = [older, newer].map(run_value);
        let back = QueryFragmentGraph::from_sections(
            qfg.obscurity(),
            qfg.query_count() as u64,
            &qfg.fragments_section(),
            &qfg.occurrences_section(),
            &qfg.adjacency_section(),
            &serde::Value::Seq(runs.to_vec()),
        )
        .unwrap();
        assert_eq!(back, qfg);
        assert_eq!(back.delta, qfg.delta, "the runs sum to the written delta");
    }

    #[test]
    fn sections_reject_structural_corruption() {
        let qfg = pending_delta_fixture();
        let fragments = qfg.fragments_section();
        let occurrences = qfg.occurrences_section();
        let adjacency = qfg.adjacency_section();
        let runs = qfg.runs_section();
        let rebuild = |f: &serde::Value, o: &serde::Value, a: &serde::Value, r: &serde::Value| {
            QueryFragmentGraph::from_sections(Obscurity::NoConstOp, 60, f, o, a, r)
        };
        // Occurrence column shorter than the fragment table.
        let serde::Value::Seq(mut occ) = occurrences.clone() else {
            panic!()
        };
        occ.pop();
        let err = rebuild(&fragments, &serde::Value::Seq(occ), &adjacency, &runs).unwrap_err();
        assert!(err.contains("occurrence column length"), "{err}");
        // A slot with zero occurrences.
        let serde::Value::Seq(mut occ) = occurrences.clone() else {
            panic!()
        };
        occ[0] = serde::Value::U64(0);
        let err = rebuild(&fragments, &serde::Value::Seq(occ), &adjacency, &runs).unwrap_err();
        assert!(err.contains("zero occurrences"), "{err}");
        // A `null` fragment slot.
        let serde::Value::Seq(mut table) = fragments.clone() else {
            panic!()
        };
        table[0] = serde::Value::Null;
        let err = rebuild(&serde::Value::Seq(table), &occurrences, &adjacency, &runs).unwrap_err();
        assert!(err.contains("fragment slot 0"), "{err}");
        // Truncated CSR neighbor column.
        let serde::Value::Map(mut adj) = adjacency.clone() else {
            panic!()
        };
        for (key, field) in &mut adj {
            if key == "neighbors" {
                let serde::Value::Seq(items) = field else {
                    panic!()
                };
                items.pop();
            }
        }
        let err = rebuild(&fragments, &occurrences, &serde::Value::Map(adj), &runs).unwrap_err();
        assert!(err.contains("truncated CSR"), "{err}");
        // A negative run entry.
        let serde::Value::Seq(mut run_list) = runs.clone() else {
            panic!()
        };
        run_list.push(run_value([((0, 1), -1_000_000)]));
        let err = rebuild(
            &fragments,
            &occurrences,
            &adjacency,
            &serde::Value::Seq(run_list),
        )
        .unwrap_err();
        assert!(err.contains("non-positive"), "{err}");
        // Unsorted run keys.
        let bad_run = serde::Value::Seq(vec![run_value([((1, 2), 1), ((0, 2), 1)])]);
        let err = rebuild(&fragments, &occurrences, &adjacency, &bad_run).unwrap_err();
        assert!(err.contains("not strictly sorted"), "{err}");
        // Two runs whose counts of one pair overflow when summed.
        let overflowing = serde::Value::Seq(
            [i64::MAX, 1]
                .map(|count| run_value([((0, 1), count)]))
                .to_vec(),
        );
        let err = rebuild(&fragments, &occurrences, &adjacency, &overflowing).unwrap_err();
        assert!(err.contains("overflows"), "{err}");
        // The pristine sections still load.
        rebuild(&fragments, &occurrences, &adjacency, &runs).unwrap();
    }
}
