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
//! FragmentInterner   fragment ⇄ FragmentId(u32), ids stable across
//!                    ingest/remove (freed ids are recycled, never remapped)
//! occurrences        Vec<u64> indexed by FragmentId          (n_v)
//! CSR adjacency      offsets / neighbors / counts, one row per fragment,
//!                    each unordered pair stored once under its smaller id,
//!                    with precomputed Dice denominators n_v(a) + n_v(b)
//! delta log          BTreeMap<(id, id), i64> of co-occurrence changes not
//!                    yet folded into a run or the CSR
//! tiered runs        Vec<DeltaRun>: sorted immutable columns the delta map
//!                    folds into when it fills, merged geometrically
//! ```
//!
//! Reads are always exact: `n_e` is the CSR count plus the pending runs
//! plus the mutable delta.  Mutations (`ingest` / `remove`) only touch the
//! columnar occurrence vector and the delta log.  When the delta map fills
//! (`run_fold_threshold` pairs) it is folded into a sorted immutable
//! `DeltaRun` in O(churn) — **not** into the CSR — and runs merge
//! geometrically, so the cost of absorbing pending work during heavy ingest
//! is O(recent churn · log pending), independent of the total CSR size.
//! [`QueryFragmentGraph::compact`] performs the full fold (runs + delta →
//! fresh CSR); the serving layer calls it only when a snapshot is
//! published, so the scoring hot path always runs on the compacted arrays.
//!
//! The graph supports two mutation models:
//!
//! * **batch** — [`QueryFragmentGraph::build`] over a whole [`QueryLog`], and
//! * **incremental** — [`QueryFragmentGraph::ingest`] /
//!   [`QueryFragmentGraph::remove`] for one query at a time, in
//!   `O(fragments²·log)` per query, which lets a long-running service absorb
//!   newly-logged queries (and evict old ones) without rebuilding the whole
//!   graph.  Ingesting every query of a log into an empty graph is
//!   equivalent to a batch build, and the columnar graph is observationally
//!   equivalent to the reference map-based model (both proved by property
//!   tests in `tests/qfg_properties.rs`).

use crate::config::Obscurity;
use crate::fragment::{fragments_of_query, QueryFragment};
use serde::{Deserialize, Serialize};
use sqlparse::{parse_query, Query};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// A SQL query log: the raw material of the QFG.
///
/// Stored as a ring buffer so a serving deployment with a bounded log can
/// evict the oldest entry ([`QueryLog::pop_oldest`]) in O(1).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct QueryLog {
    queries: VecDeque<Query>,
}

impl QueryLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a log from already-parsed queries.
    pub fn from_queries(queries: Vec<Query>) -> Self {
        QueryLog {
            queries: queries.into(),
        }
    }

    /// Build a log from SQL strings, skipping (and reporting) unparsable
    /// entries.  Real query logs contain noise; Templar only ever uses what
    /// it can parse.  The skipped count should be surfaced (the serving
    /// layer exports it as the `log_skipped_statements` metric) rather than
    /// dropped.
    pub fn from_sql<'a>(statements: impl IntoIterator<Item = &'a str>) -> (Self, usize) {
        let mut queries = VecDeque::new();
        let mut skipped = 0;
        for sql in statements {
            match parse_query(sql) {
                Ok(q) => queries.push_back(q),
                Err(_) => skipped += 1,
            }
        }
        (QueryLog { queries }, skipped)
    }

    /// Append a query to the log.
    pub fn push(&mut self, query: Query) {
        self.queries.push_back(query);
    }

    /// Remove and return the oldest logged query (O(1); used for log
    /// eviction when a long-running service bounds its log size).
    pub fn pop_oldest(&mut self) -> Option<Query> {
        self.queries.pop_front()
    }

    /// The logged queries, oldest first.
    pub fn queries(&self) -> &VecDeque<Query> {
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
/// Ids are stable for as long as the fragment is live (its occurrence count
/// is positive): `ingest` / `remove` never remap a live id.  Ids of
/// fragments whose count drops to zero are recycled for fragments interned
/// later.
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

/// The fragment ⇄ id table.
///
/// `intern` assigns the next free id (recycling released slots);
/// `get` resolves only *live* fragments — a fragment whose occurrence count
/// dropped to zero is released and no longer resolvable, exactly like the
/// old map-based graph pruned zero-count keys.
#[derive(Debug, Clone, Default)]
pub struct FragmentInterner {
    ids: HashMap<QueryFragment, FragmentId>,
    fragments: Vec<QueryFragment>,
    free: Vec<u32>,
}

impl FragmentInterner {
    /// The id of a live fragment.
    pub fn get(&self, fragment: &QueryFragment) -> Option<FragmentId> {
        self.ids.get(fragment).copied()
    }

    /// The fragment behind an id.  Meaningful only for live ids.
    pub fn resolve(&self, id: FragmentId) -> &QueryFragment {
        &self.fragments[id.index()]
    }

    /// Intern a fragment, returning its id (existing or newly assigned).
    fn intern(&mut self, fragment: &QueryFragment) -> FragmentId {
        if let Some(id) = self.ids.get(fragment) {
            return *id;
        }
        let id = match self.free.pop() {
            Some(slot) => {
                self.fragments[slot as usize] = fragment.clone();
                FragmentId(slot)
            }
            None => {
                self.fragments.push(fragment.clone());
                FragmentId((self.fragments.len() - 1) as u32)
            }
        };
        self.ids.insert(fragment.clone(), id);
        id
    }

    /// Release a dead fragment's id back to the free list.
    ///
    /// # Why recycling cannot leak stale state (audit)
    ///
    /// A slot is only released when its occurrence count reaches 0, and
    /// `n_e(c, x) ≤ n_v(c)` holds for every pair (maintained by `ingest` /
    /// `remove`), so at release time every pair touching the slot has **net
    /// count 0**.  That net 0 may be represented as "no entry anywhere" *or*
    /// as a positive CSR baseline exactly cancelled by pending negative
    /// deltas — both read as 0 and both compact to the edge's removal.  A
    /// fragment later interned into the recycled slot therefore starts from
    /// occurrence 0 (`remove` zeroed the column) and net-0 pairs, no matter
    /// how many compactions happen between the release and the re-intern;
    /// its first co-occurrence bump lands *on top of* any leftover
    /// cancelled baseline and nets to exactly 1.  The
    /// `recycled_ids_never_inherit_stale_state` property test in
    /// `tests/qfg_properties.rs` pins this under arbitrary
    /// remove → compact-interleaved → re-intern schedules.
    fn release(&mut self, id: FragmentId) {
        let removed = self.ids.remove(&self.fragments[id.index()]);
        debug_assert_eq!(
            removed,
            Some(id),
            "released a slot whose fragment was not live under that id"
        );
        debug_assert!(
            !self.free.contains(&id.0),
            "double-release of fragment id {}",
            id.0
        );
        self.free.push(id.0);
    }

    /// Size of the id space (live + recyclable slots) — the length of the
    /// columnar arrays.
    pub fn table_len(&self) -> usize {
        self.fragments.len()
    }

    /// Number of live fragments.
    pub fn live_len(&self) -> usize {
        self.ids.len()
    }

    /// Iterate over the live fragments and their ids.
    pub fn live(&self) -> impl Iterator<Item = (&QueryFragment, FragmentId)> {
        self.ids.iter().map(|(f, id)| (f, *id))
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

/// One sorted, immutable run of pending co-occurrence changes: the mutable
/// delta map folded into a flat `(lo, hi) → net change` column.  Runs are
/// stacked newest-last and merge geometrically (a run absorbs its newer
/// neighbour whenever it is less than twice its size), so at most
/// O(log(pending / fold threshold)) runs exist at any time and every
/// pending change is re-merged O(log) times before a full compaction folds
/// everything into the CSR.
#[derive(Debug, Clone, Default)]
struct DeltaRun {
    edges: Vec<((u32, u32), i64)>,
}

impl DeltaRun {
    /// The run's net change for a pair, 0 when absent (one binary search).
    fn net(&self, key: (u32, u32)) -> i64 {
        self.edges
            .binary_search_by_key(&key, |&(k, _)| k)
            .map(|i| self.edges[i].1)
            .unwrap_or(0)
    }
}

/// Merge two sorted pending-change columns, summing same-key changes and
/// dropping entries whose net cancels to zero.
fn merge_sorted(a: &[((u32, u32), i64)], b: &[((u32, u32), i64)]) -> Vec<((u32, u32), i64)> {
    let mut merged = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                merged.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                merged.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                let net = a[i].1 + b[j].1;
                if net != 0 {
                    merged.push((a[i].0, net));
                }
                i += 1;
                j += 1;
            }
        }
    }
    merged.extend_from_slice(&a[i..]);
    merged.extend_from_slice(&b[j..]);
    merged
}

/// Once the delta map holds this many pending pairs, `ingest` folds it into
/// a sorted run (O(churn), *not* a full CSR rebuild) so the mutable map
/// stays cache-friendly and bounded while runs absorb the history.
const DELTA_RUN_FOLD: usize = 65_536;

/// The Query Fragment Graph over interned fragment ids.
#[derive(Debug, Clone)]
pub struct QueryFragmentGraph {
    obscurity: Obscurity,
    interner: FragmentInterner,
    /// `n_v`, indexed by [`FragmentId`]; 0 for released slots.
    occurrences: Vec<u64>,
    /// Number of distinct pairs with a positive net count incident to each
    /// slot, maintained by [`QueryFragmentGraph::bump_pair`].  Guards slot
    /// release: a slot whose occurrence count reaches zero while pairs still
    /// reference it (possible only through over-removal, which `remove`
    /// tolerates) has those pairs purged before the slot is recycled, so
    /// `n_e(c, x) ≤ n_v(c)` holds unconditionally and a recycled slot can
    /// never alias another fragment's leftover counts.
    pair_degree: Vec<u32>,
    /// Compacted `n_e` baseline.
    csr: CsrAdjacency,
    /// Pending `n_e` changes since the last run fold, keyed `(lo, hi)`.
    delta: BTreeMap<(u32, u32), i64>,
    /// Tiered sorted runs of pending changes not yet folded into the CSR,
    /// oldest (largest) first.
    runs: Vec<DeltaRun>,
    /// How many pending pairs the delta map may hold before it is folded
    /// into a run (tunable for tests and benchmarks; never serialized).
    run_fold_threshold: usize,
    /// Per-fragment maximum Dice coefficient over all *other* fragments,
    /// recomputed by [`QueryFragmentGraph::compact`] (exact on a compacted
    /// graph, unused otherwise — see [`QueryFragmentGraph::max_dice_by_id`]).
    /// Drives the admissible co-occurrence upper bound of the best-first
    /// configuration search.
    max_dice: Vec<f64>,
    /// True when any occurrence count changed since the last compaction
    /// (the CSR's precomputed denominators are then stale).
    occurrences_dirty: bool,
    /// Number of distinct pairs with a positive net count.
    live_edges: usize,
    /// Number of queries the graph was built from.
    query_count: usize,
    /// Number of compactions performed over this graph's lifetime
    /// (monotonic; cloned along with the graph, exported by metrics).
    compactions: u64,
    /// Number of delta-map → run folds over this graph's lifetime.
    run_folds: u64,
    /// Number of geometric run merges over this graph's lifetime.
    run_merges: u64,
}

impl QueryFragmentGraph {
    /// An empty graph at an obscurity level (the starting point for purely
    /// incremental construction).
    pub fn empty(obscurity: Obscurity) -> Self {
        QueryFragmentGraph {
            obscurity,
            interner: FragmentInterner::default(),
            occurrences: Vec::new(),
            pair_degree: Vec::new(),
            csr: CsrAdjacency::empty(),
            delta: BTreeMap::new(),
            runs: Vec::new(),
            run_fold_threshold: DELTA_RUN_FOLD,
            max_dice: Vec::new(),
            occurrences_dirty: false,
            live_edges: 0,
            query_count: 0,
            compactions: 0,
            run_folds: 0,
            run_merges: 0,
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
            #[cfg(debug_assertions)]
            let was_live = self.interner.get(f).is_some();
            let id = self.interner.intern(f);
            if id.index() >= self.occurrences.len() {
                self.occurrences.resize(id.index() + 1, 0);
            }
            if id.index() >= self.pair_degree.len() {
                self.pair_degree.resize(id.index() + 1, 0);
            }
            // A freshly interned fragment — whether its slot is brand new or
            // recycled — must start from a zeroed occurrence column; a
            // recycled slot inheriting the old tenant's count would inflate
            // n_v (and every Dice denominator) silently.
            #[cfg(debug_assertions)]
            if !was_live {
                debug_assert_eq!(
                    self.occurrences[id.index()],
                    0,
                    "recycled slot {} inherited a stale occurrence count",
                    id.index()
                );
            }
            self.occurrences[id.index()] += 1;
            ids.push(id.0);
        }
        self.occurrences_dirty = true;
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                self.bump_pair(ids[i], ids[j], 1);
            }
        }
        if self.delta.len() >= self.run_fold_threshold {
            self.fold_delta_into_run();
        }
    }

    /// Incrementally add one query to the graph.  Alias of
    /// [`QueryFragmentGraph::ingest`], kept for the batch-construction
    /// vocabulary used by earlier callers.
    pub fn add_query(&mut self, query: &Query) {
        self.ingest(query);
    }

    /// Remove one previously-ingested query from the graph (log eviction),
    /// decrementing `n_v` / `n_e` and releasing ids whose counts reach zero
    /// so the graph's live footprint tracks the live log.
    ///
    /// Returns `false` (leaving the graph untouched) if the query's
    /// fragments are not fully present — i.e. it was never ingested at this
    /// obscurity level.
    pub fn remove(&mut self, query: &Query) -> bool {
        if self.query_count == 0 {
            return false;
        }
        let fragments = Self::distinct_fragments(query, self.obscurity);
        // Validate first so a bad call cannot corrupt the counts.
        let mut ids: Vec<u32> = Vec::with_capacity(fragments.len());
        for f in &fragments {
            match self.interner.get(f) {
                Some(id) if self.occurrences[id.index()] > 0 => ids.push(id.0),
                _ => return false,
            }
        }
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                if self.pair_count(ids[i], ids[j]) == 0 {
                    return false;
                }
            }
        }
        self.query_count -= 1;
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                self.bump_pair(ids[i], ids[j], -1);
            }
        }
        for &id in &ids {
            let slot = id as usize;
            self.occurrences[slot] -= 1;
            if self.occurrences[slot] == 0 {
                if self.pair_degree[slot] > 0 {
                    // Over-removal left pairs pointing at a dying fragment;
                    // zero them so the released slot carries no state.
                    self.purge_incident_pairs(id);
                }
                self.interner.release(FragmentId(id));
            }
        }
        self.occurrences_dirty = true;
        true
    }

    /// The pending runs' total net change for a pair (one binary search per
    /// run; at most O(log pending) runs exist).
    fn runs_net(&self, key: (u32, u32)) -> i64 {
        self.runs.iter().map(|run| run.net(key)).sum()
    }

    /// Current net count of an unordered id pair.
    fn pair_count(&self, a: u32, b: u32) -> u64 {
        if a == b {
            return self.occurrences[a as usize];
        }
        let key = if a < b { (a, b) } else { (b, a) };
        let base = self.csr.count(key.0, key.1) as i64 + self.runs_net(key);
        let net = base + self.delta.get(&key).copied().unwrap_or(0);
        debug_assert!(net >= 0, "pair count must never go negative");
        net.max(0) as u64
    }

    /// Apply a +1/−1 co-occurrence change to a pair, maintaining the live
    /// edge counter.
    fn bump_pair(&mut self, a: u32, b: u32, change: i64) {
        let key = if a < b { (a, b) } else { (b, a) };
        let base = self.csr.count(key.0, key.1) as i64 + self.runs_net(key);
        let entry = self.delta.entry(key).or_insert(0);
        let before = base + *entry;
        *entry += change;
        let after = before + change;
        if *entry == 0 {
            // The delta cancelled out; drop the entry so compaction and the
            // auto-compact threshold only see real pending work.
            self.delta.remove(&key);
        }
        if before == 0 && after > 0 {
            self.live_edges += 1;
            self.pair_degree[key.0 as usize] += 1;
            self.pair_degree[key.1 as usize] += 1;
        } else if before > 0 && after == 0 {
            self.live_edges -= 1;
            self.pair_degree[key.0 as usize] -= 1;
            self.pair_degree[key.1 as usize] -= 1;
        }
    }

    /// Drive every pair incident to a slot down to net zero.
    ///
    /// Called only when a slot's occurrence count reaches zero while its
    /// pair degree is still positive — a state reachable exclusively through
    /// over-removal (removing a query more times than it was ingested, which
    /// `remove` tolerates because it validates fragment presence, not
    /// multiset membership).  A legal removal always arrives here with
    /// degree 0: `n_v(c) = 1` means exactly one live query contains `c`, so
    /// that query's own pair decrements zeroed every incident pair already.
    /// Purging before release keeps the recycling audit honest — a released
    /// slot leaves no positive pair behind, so a later tenant of the slot
    /// (or the same fragment re-interned elsewhere) can never split or
    /// inherit counts.  The scan is O(edges) but sits on this abuse-only
    /// path, never on legal eviction.
    fn purge_incident_pairs(&mut self, slot: u32) {
        let stale: Vec<(u32, u32, u64)> = self
            .net_edges()
            .into_iter()
            .filter(|&(lo, hi, _)| lo == slot || hi == slot)
            .collect();
        for (lo, hi, count) in stale {
            self.bump_pair(lo, hi, -(count as i64));
        }
        debug_assert_eq!(
            self.pair_degree[slot as usize], 0,
            "slot {slot} still entangled after an incident-pair purge"
        );
    }

    /// Fold the mutable delta map into a new immutable sorted run, then
    /// merge runs geometrically so the stack stays O(log pending) deep.
    ///
    /// This is the cheap tier of compaction: O(|delta|) to drain the map
    /// (already key-sorted) plus the amortized-O(log) geometric merges —
    /// no CSR rebuild, no occurrence scan.  `ingest` calls it automatically
    /// when the delta map reaches the fold threshold, so absorbing a burst
    /// of pending work costs O(recent churn), not O(total pending) and not
    /// O(CSR).  The full fold into the CSR is deferred to
    /// [`QueryFragmentGraph::compact`].
    pub fn fold_delta_into_run(&mut self) {
        if self.delta.is_empty() {
            return;
        }
        let edges: Vec<((u32, u32), i64)> = std::mem::take(&mut self.delta).into_iter().collect();
        self.runs.push(DeltaRun { edges });
        self.run_folds += 1;
        // Geometric invariant: every run is at least twice the size of the
        // run stacked on top of it.  Restoring it after a push merges the
        // newest runs pairwise, so a pending pair is re-copied only
        // O(log(pending / threshold)) times across its lifetime.
        while self.runs.len() >= 2 {
            let n = self.runs.len();
            if self.runs[n - 2].edges.len() >= 2 * self.runs[n - 1].edges.len() {
                break;
            }
            let newer = self.runs.pop().expect("len checked");
            let older = self.runs.pop().expect("len checked");
            self.runs.push(DeltaRun {
                edges: merge_sorted(&older.edges, &newer.edges),
            });
            self.run_merges += 1;
        }
    }

    /// All pending changes — every tiered run plus the mutable delta map —
    /// merged into one sorted `(key, net change)` column, zero nets dropped.
    fn pending_net(&self) -> Vec<((u32, u32), i64)> {
        let mut merged: Vec<((u32, u32), i64)> = Vec::new();
        for run in &self.runs {
            merged = if merged.is_empty() {
                run.edges.clone()
            } else {
                merge_sorted(&merged, &run.edges)
            };
        }
        if !self.delta.is_empty() {
            let delta: Vec<((u32, u32), i64)> = self.delta.iter().map(|(&k, &v)| (k, v)).collect();
            merged = if merged.is_empty() {
                delta
            } else {
                merge_sorted(&merged, &delta)
            };
        }
        merged
    }

    /// Fold the tiered runs and the delta log into a fresh CSR and
    /// recompute the precomputed Dice denominators.  Idempotent; ids are
    /// never remapped.  The serving layer calls this on every snapshot
    /// publish (`Templar::from_parts` compacts the graph it receives), so
    /// the translation hot path always reads compacted arrays.
    pub fn compact(&mut self) {
        if self.is_compacted() {
            return;
        }
        let n = self.interner.table_len();
        let merged = self.net_edges();
        let mut offsets = vec![0u32; n + 1];
        for &(lo, _, _) in &merged {
            offsets[lo as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut neighbors = Vec::with_capacity(merged.len());
        let mut counts = Vec::with_capacity(merged.len());
        let mut denominators = Vec::with_capacity(merged.len());
        // Rebuild the per-fragment max-Dice column in the same pass: every
        // positive pair is visited exactly once, and the Dice value is
        // computed with the same expression the compacted fast path of
        // [`QueryFragmentGraph::dice_by_id`] uses, so the column is exact
        // (bit-for-bit) for every pair lookup that follows.
        let mut max_dice = vec![0.0f64; n];
        let mut pair_degree = vec![0u32; n];
        for &(lo, hi, count) in &merged {
            neighbors.push(hi);
            counts.push(count);
            pair_degree[lo as usize] += 1;
            pair_degree[hi as usize] += 1;
            let denominator = self.occurrences[lo as usize] + self.occurrences[hi as usize];
            denominators.push(denominator);
            // Only pairs of *live* fragments enter the column: removing a
            // query more times than it was ingested (tolerated — `remove`
            // validates fragment presence, not multiset membership) can
            // leave a positive pair count on a released slot, and such a
            // pair is unreachable through any live-id lookup.
            if self.occurrences[lo as usize] > 0 && self.occurrences[hi as usize] > 0 {
                let dice = (2.0 * count as f64) / (denominator as f64);
                if dice > max_dice[lo as usize] {
                    max_dice[lo as usize] = dice;
                }
                if dice > max_dice[hi as usize] {
                    max_dice[hi as usize] = dice;
                }
            }
        }
        self.max_dice = max_dice;
        self.pair_degree = pair_degree;
        self.live_edges = merged.len();
        self.csr = CsrAdjacency {
            offsets,
            neighbors,
            counts,
            denominators,
        };
        self.delta.clear();
        self.runs.clear();
        self.occurrences_dirty = false;
        self.compactions += 1;
    }

    /// True when no pending work exists anywhere — delta map or tiered runs
    /// — and the CSR (including its precomputed denominators) reflects the
    /// current counts.
    pub fn is_compacted(&self) -> bool {
        self.delta.is_empty()
            && self.runs.is_empty()
            && !self.occurrences_dirty
            && self.csr.offsets.len() == self.interner.table_len() + 1
    }

    /// True when reads may take the precomputed CSR fast paths: no pending
    /// change anywhere (map or runs) and fresh denominators.
    fn fast_path(&self) -> bool {
        self.delta.is_empty() && self.runs.is_empty() && !self.occurrences_dirty
    }

    /// All pairs with a positive net count, sorted by `(lo, hi)`:
    /// the CSR baseline merged with all pending changes (runs + delta).
    fn net_edges(&self) -> Vec<(u32, u32, u64)> {
        let pending_entries = self.pending_net();
        let mut merged = Vec::with_capacity(self.csr.counts.len() + pending_entries.len());
        let mut pending = pending_entries.iter().peekable();
        let rows = self.csr.offsets.len().saturating_sub(1);
        for lo in 0..rows as u32 {
            let (start, end) = (
                self.csr.offsets[lo as usize] as usize,
                self.csr.offsets[lo as usize + 1] as usize,
            );
            for e in start..end {
                let hi = self.csr.neighbors[e];
                // Pending-only pairs that sort before this CSR edge are new.
                while let Some(&&(key, change)) = pending.peek() {
                    if key < (lo, hi) {
                        if change > 0 {
                            merged.push((key.0, key.1, change as u64));
                        }
                        pending.next();
                    } else {
                        break;
                    }
                }
                let mut net = self.csr.counts[e] as i64;
                if let Some(&&(key, change)) = pending.peek() {
                    if key == (lo, hi) {
                        net += change;
                        pending.next();
                    }
                }
                if net > 0 {
                    merged.push((lo, hi, net as u64));
                }
            }
        }
        for &(key, change) in pending {
            if change > 0 {
                merged.push((key.0, key.1, change as u64));
            }
        }
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

    /// Number of distinct live fragments (vertices).
    pub fn fragment_count(&self) -> usize {
        self.interner.live_len()
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

    /// The id of a live fragment, for id-based scoring.
    pub fn lookup(&self, fragment: &QueryFragment) -> Option<FragmentId> {
        self.interner.get(fragment)
    }

    /// The id of a relation's `FROM` fragment.
    pub fn lookup_relation(&self, relation: &str) -> Option<FragmentId> {
        self.lookup(&QueryFragment::relation(relation))
    }

    /// Size of the interner table (live + recyclable slots) — the length of
    /// the columnar arrays, exported by serving metrics.
    pub fn interned_len(&self) -> usize {
        self.interner.table_len()
    }

    /// Number of edges resident in the compacted CSR baseline.
    pub fn csr_edge_len(&self) -> usize {
        self.csr.counts.len()
    }

    /// Number of pending pairs across the mutable delta map and every
    /// tiered run (everything a full compaction would fold into the CSR).
    pub fn pending_delta_len(&self) -> usize {
        self.delta.len() + self.runs.iter().map(|r| r.edges.len()).sum::<usize>()
    }

    /// Number of tiered delta runs currently stacked (O(log pending) by the
    /// geometric merge invariant); exported by serving metrics.
    pub fn delta_run_len(&self) -> usize {
        self.runs.len()
    }

    /// Number of delta-map → run folds over this graph's lifetime.
    pub fn run_folds(&self) -> u64 {
        self.run_folds
    }

    /// Number of geometric run merges over this graph's lifetime.
    pub fn run_merges(&self) -> u64 {
        self.run_merges
    }

    /// Override the delta-map fold threshold (clamped to at least 1).  The
    /// default suits serving; tests and benchmarks lower it to exercise the
    /// tiered machinery without multi-million-pair logs.
    pub fn set_run_fold_threshold(&mut self, pairs: usize) {
        self.run_fold_threshold = pairs.max(1);
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
            // Dice(c, c) = 2·n_v / (n_v + n_v) = 1 for any live fragment.
            return if self.occurrences[a.index()] > 0 {
                1.0
            } else {
                0.0
            };
        }
        let (lo, hi) = if a.0 < b.0 { (a.0, b.0) } else { (b.0, a.0) };
        if self.fast_path() {
            return match self.csr.edge_index(lo, hi) {
                Some(e) => (2.0 * self.csr.counts[e] as f64) / (self.csr.denominators[e] as f64),
                None => 0.0,
            };
        }
        let na = self.occurrences[lo as usize];
        let nb = self.occurrences[hi as usize];
        if na + nb == 0 {
            return 0.0;
        }
        let ne = self.pair_count(lo, hi);
        (2.0 * ne as f64) / ((na + nb) as f64)
    }

    /// An upper bound on `max over all other fragments x of Dice(id, x)`.
    ///
    /// On a compacted graph this is **exact**: the column is rebuilt by
    /// [`QueryFragmentGraph::compact`] from the same arithmetic the pair
    /// lookup uses, so for every live partner `x ≠ id`,
    /// `dice_by_id(id, x) ≤ max_dice_by_id(id)` holds bit-for-bit.  On a
    /// graph with pending deltas the column may be stale in either
    /// direction, so the trivially admissible bound `1.0` is returned
    /// instead — callers on the scoring hot path always see a compacted
    /// graph (`Templar::from_parts` compacts on snapshot construction).
    ///
    /// A fragment with no co-occurring partner has `max_dice = 0.0` (Dice
    /// with every other fragment is 0), and a released slot reads `0.0`
    /// until it is re-interned and recompacted.
    ///
    /// Like [`QueryFragmentGraph::dice_by_id`], the value can exceed `1.0`
    /// in the degenerate states produced by removing a query more times
    /// than it was ingested; consumers that need a probability-like bound
    /// should clamp (the configuration search's smoothed pair factor caps
    /// at 1, so both the exact column and the fallback stay admissible).
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
    /// n_v(b))`; missing pairs read `(0, 1)`, live self-pairs `(1, 2)`), so
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
                if self.occurrences[c as usize] > 0 {
                    (1.0, 2.0)
                } else {
                    (0.0, 1.0)
                }
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

    /// Iterate over all live fragments and their occurrence counts.
    pub fn fragments(&self) -> impl Iterator<Item = (&QueryFragment, u64)> {
        self.interner
            .live()
            .map(|(f, id)| (f, self.occurrences[id.index()]))
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
/// occurrence and co-occurrence count — regardless of id assignment order,
/// free-list state or compaction progress.  (A shuffled incremental build
/// interns fragments in a different order than a batch build; both must
/// compare equal.)
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
// time (interner table, occurrence column, CSR adjacency, pending delta
// runs), so a streaming writer holds at most one section and no clone, and
// pending work survives a snapshot without a forced full compaction.  Dead
// (recyclable) interner slots are written as `null` so raw slot ids in the
// CSR and the runs stay valid verbatim.

impl QueryFragmentGraph {
    fn slot_live(&self, slot: usize) -> bool {
        self.occurrences.get(slot).copied().unwrap_or(0) > 0
    }

    /// Section `qfg/fragments`: the full interner table in slot order, dead
    /// slots as `null`.
    pub fn fragments_section(&self) -> serde::Value {
        serde::Value::Seq(
            (0..self.interner.table_len())
                .map(|slot| {
                    if self.slot_live(slot) {
                        self.interner.fragments[slot].to_value()
                    } else {
                        serde::Value::Null
                    }
                })
                .collect(),
        )
    }

    /// Section `qfg/occurrences`: the raw `n_v` column in slot order
    /// (0 for dead slots).
    pub fn occurrences_section(&self) -> serde::Value {
        serde::Value::Seq(
            (0..self.interner.table_len())
                .map(|slot| serde::Value::U64(self.occurrences.get(slot).copied().unwrap_or(0)))
                .collect(),
        )
    }

    /// Section `qfg/adjacency`: the compacted CSR baseline over raw slot
    /// ids.  Denominators and the max-Dice column are derived at load time.
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

    /// Section `qfg/runs`: every pending tiered run, oldest first, with the
    /// mutable delta map appended as one final run — so a snapshot needs no
    /// full compaction before it is written.  Each entry is
    /// `[lo, hi, net change]`.
    pub fn runs_section(&self) -> serde::Value {
        let run_value = |edges: &mut dyn Iterator<Item = ((u32, u32), i64)>| {
            serde::Value::Seq(
                edges
                    .map(|((lo, hi), change)| {
                        serde::Value::Seq(vec![
                            serde::Value::U64(lo as u64),
                            serde::Value::U64(hi as u64),
                            serde::Value::I64(change),
                        ])
                    })
                    .collect(),
            )
        };
        let mut runs: Vec<serde::Value> = self
            .runs
            .iter()
            .map(|run| run_value(&mut run.edges.iter().copied()))
            .collect();
        if !self.delta.is_empty() {
            runs.push(run_value(&mut self.delta.iter().map(|(&k, &v)| (k, v))));
        }
        serde::Value::Seq(runs)
    }

    /// Rebuild a graph from its snapshot sections, validating every structural
    /// invariant so a corrupted section surfaces as a typed error.  The
    /// result is observationally identical to the graph that was written:
    /// raw slot ids, dead slots and pending runs are restored verbatim.
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
        let mut ids: HashMap<QueryFragment, FragmentId> = HashMap::new();
        let mut free: Vec<u32> = Vec::new();
        for (slot, value) in fragment_slots.iter().enumerate() {
            if matches!(value, serde::Value::Null) {
                // Dead slot: keep a placeholder fragment that can never be
                // interned (contexts are never empty-expr), mirroring the
                // in-memory state where a released slot's fragment is
                // unreachable through the id map.
                table.push(QueryFragment {
                    expr: String::new(),
                    context: crate::fragment::QueryContext::Select,
                });
                free.push(slot as u32);
            } else {
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
            let live = !matches!(fragment_slots[slot], serde::Value::Null);
            if live && count == 0 {
                return Err(format!("live fragment slot {slot} has zero occurrences"));
            }
            if !live && count != 0 {
                return Err(format!("dead fragment slot {slot} has nonzero occurrences"));
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
        let mut denominators = Vec::with_capacity(edges);
        let mut max_dice = vec![0.0f64; n];
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
                let denominator = occ[lo] + occ[hi as usize];
                denominators.push(denominator);
                if occ[lo] > 0 && occ[hi as usize] > 0 {
                    let dice = (2.0 * counts[e] as f64) / (denominator as f64);
                    if dice > max_dice[lo] {
                        max_dice[lo] = dice;
                    }
                    if dice > max_dice[hi as usize] {
                        max_dice[hi as usize] = dice;
                    }
                }
            }
        }
        let run_values = runs.as_seq().ok_or("runs section is not a sequence")?;
        let mut parsed_runs: Vec<DeltaRun> = Vec::with_capacity(run_values.len());
        for (r, run_value) in run_values.iter().enumerate() {
            let entries = run_value
                .as_seq()
                .ok_or_else(|| format!("delta run {r} is not a sequence"))?;
            let mut run_edges: Vec<((u32, u32), i64)> = Vec::with_capacity(entries.len());
            let mut prev: Option<(u32, u32)> = None;
            for entry in entries {
                let triple = entry
                    .as_seq()
                    .filter(|t| t.len() == 3)
                    .ok_or_else(|| format!("delta run {r} holds a malformed entry"))?;
                let lo = triple[0]
                    .as_u64()
                    .and_then(|x| u32::try_from(x).ok())
                    .ok_or_else(|| format!("delta run {r} holds a non-u32 id"))?;
                let hi = triple[1]
                    .as_u64()
                    .and_then(|x| u32::try_from(x).ok())
                    .ok_or_else(|| format!("delta run {r} holds a non-u32 id"))?;
                let change = triple[2]
                    .as_i64()
                    .ok_or_else(|| format!("delta run {r} holds a non-integer change"))?;
                if (hi as usize) >= n || hi <= lo {
                    return Err(format!("delta run {r} pair ({lo}, {hi}) is out of range"));
                }
                if change == 0 {
                    return Err(format!("delta run {r} holds a zero-net entry"));
                }
                if prev.is_some_and(|p| p >= (lo, hi)) {
                    return Err(format!("delta run {r} keys are not strictly sorted"));
                }
                prev = Some((lo, hi));
                run_edges.push(((lo, hi), change));
            }
            parsed_runs.push(DeltaRun { edges: run_edges });
        }
        // Negative-net audit + live-edge count: merge all pending runs and
        // check every touched pair against its CSR baseline.
        let csr = CsrAdjacency {
            offsets,
            neighbors,
            counts,
            denominators,
        };
        let mut live_edges = edges;
        let mut pair_degree = vec![0u32; n];
        for lo in 0..csr.offsets.len().saturating_sub(1) {
            let (start, end) = (csr.offsets[lo] as usize, csr.offsets[lo + 1] as usize);
            for e in start..end {
                pair_degree[lo] += 1;
                pair_degree[csr.neighbors[e] as usize] += 1;
            }
        }
        let mut pending: Vec<((u32, u32), i64)> = Vec::new();
        for run in &parsed_runs {
            pending = if pending.is_empty() {
                run.edges.clone()
            } else {
                merge_sorted(&pending, &run.edges)
            };
        }
        for &((lo, hi), change) in &pending {
            let base = csr.count(lo, hi) as i64;
            let net = base + change;
            if net < 0 {
                return Err(format!(
                    "pending delta drives pair ({lo}, {hi}) negative ({base} {change:+})"
                ));
            }
            if base == 0 && net > 0 {
                live_edges += 1;
                pair_degree[lo as usize] += 1;
                pair_degree[hi as usize] += 1;
            } else if base > 0 && net == 0 {
                live_edges -= 1;
                pair_degree[lo as usize] -= 1;
                pair_degree[hi as usize] -= 1;
            }
        }
        let graph = QueryFragmentGraph {
            obscurity,
            interner: FragmentInterner {
                ids,
                fragments: table,
                free,
            },
            occurrences: occ,
            pair_degree,
            csr,
            delta: BTreeMap::new(),
            runs: parsed_runs,
            run_fold_threshold: DELTA_RUN_FOLD,
            max_dice,
            occurrences_dirty: false,
            live_edges,
            query_count: query_count as usize,
            compactions: 0,
            run_folds: 0,
            run_merges: 0,
        };
        Ok(graph)
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
            incremental.add_query(q);
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
    fn released_ids_are_recycled_for_new_fragments() {
        let (log, _) = QueryLog::from_sql(["SELECT p.title FROM publication p"]);
        let mut qfg = QueryFragmentGraph::build(&log, Obscurity::NoConstOp);
        let table_before = qfg.interned_len();
        assert!(qfg.remove(&log.queries()[0]));
        assert_eq!(qfg.fragment_count(), 0);
        // Re-ingesting reuses the freed slots instead of growing the table.
        let (log2, _) = QueryLog::from_sql(["SELECT j.name FROM journal j"]);
        qfg.ingest(&log2.queries()[0]);
        assert_eq!(qfg.interned_len(), table_before);
        assert_eq!(
            qfg.occurrences(&frag("journal.name", QueryContext::Select)),
            1
        );
        // The dead publication fragments are gone.
        assert_eq!(
            qfg.occurrences(&frag("publication.title", QueryContext::Select)),
            0
        );
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

    // -- tiered delta-log compaction ------------------------------------

    /// A varied pool of parsable queries for churn tests.
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
        log.queries().iter().cloned().collect()
    }

    #[test]
    fn run_folding_bounds_the_mutable_delta_and_merges_geometrically() {
        let mut qfg = QueryFragmentGraph::empty(Obscurity::NoConstOp);
        qfg.set_run_fold_threshold(16);
        let mut reference = QueryFragmentGraph::empty(Obscurity::NoConstOp);
        for query in churn_queries(200) {
            qfg.ingest(&query);
            reference.ingest(&query);
            // One query contributes at most a handful of pairs, so the
            // mutable delta can only overshoot the threshold by that much
            // before the post-ingest fold claws it back.
            assert!(
                qfg.delta.len() < 16 + 64,
                "mutable delta must stay bounded by the fold threshold: {}",
                qfg.delta.len()
            );
        }
        assert!(qfg.run_folds() > 0, "threshold crossings must fold runs");
        assert!(qfg.delta_run_len() > 0);
        // Geometric invariant: each run is at least twice the size of the
        // newer run above it, so the tier count is logarithmic.
        for pair in qfg.runs.windows(2) {
            assert!(
                pair[0].edges.len() >= 2 * pair[1].edges.len(),
                "runs must keep the geometric size invariant: {} vs {}",
                pair[0].edges.len(),
                pair[1].edges.len()
            );
        }
        // Counts and Dice are exact while pending work sits in runs.
        reference.compact();
        assert_eq!(qfg, reference);
        assert_eq!(qfg.compactions(), 0, "folding runs is not a full compact");
        qfg.compact();
        assert_eq!(qfg, reference);
        assert!(qfg.is_compacted());
        assert_eq!(qfg.pending_delta_len(), 0);
        assert_eq!(qfg.delta_run_len(), 0);
    }

    #[test]
    fn removals_and_recycled_ids_survive_run_folds() {
        let queries = churn_queries(120);
        let mut qfg = QueryFragmentGraph::empty(Obscurity::NoConstOp);
        qfg.set_run_fold_threshold(8);
        let mut reference = QueryFragmentGraph::empty(Obscurity::NoConstOp);
        for (i, query) in queries.iter().enumerate() {
            qfg.ingest(query);
            reference.ingest(query);
            if i % 5 == 4 {
                assert!(qfg.remove(&queries[i - 2]));
                assert!(reference.remove(&queries[i - 2]));
            }
            if i % 37 == 36 {
                reference.compact();
            }
        }
        assert_eq!(qfg, reference);
        qfg.compact();
        reference.compact();
        assert_eq!(qfg, reference);
    }

    #[test]
    fn publish_compaction_cost_tracks_recent_churn_not_total_pending() {
        // With tiering, the mutable delta that `compact()` folds directly
        // is bounded by the threshold no matter how much total churn is
        // pending — the rest already sits in sorted runs.
        let mut qfg = QueryFragmentGraph::empty(Obscurity::NoConstOp);
        qfg.set_run_fold_threshold(32);
        for query in churn_queries(400) {
            qfg.ingest(&query);
        }
        assert!(qfg.pending_delta_len() > 200, "churn must accumulate");
        assert!(
            qfg.delta.len() <= 32 + 64,
            "mutable delta stays O(threshold): {}",
            qfg.delta.len()
        );
        assert!(
            qfg.runs.len() <= 12,
            "geometric merging keeps the tier count logarithmic: {}",
            qfg.runs.len()
        );
    }

    // -- sectioned serialization ---------------------------------------

    /// A graph with dead interner slots, a compacted baseline, *and*
    /// pending runs + mutable delta — the richest sectioned shape.
    fn sectioned_fixture() -> QueryFragmentGraph {
        let queries = churn_queries(60);
        let mut qfg = QueryFragmentGraph::empty(Obscurity::NoConstOp);
        qfg.set_run_fold_threshold(8);
        for query in &queries[..40] {
            qfg.ingest(query);
        }
        qfg.compact();
        // Kill some fragments entirely to create dead slots.
        for query in &queries[..6] {
            let mut seen = 0;
            while qfg.remove(query) {
                seen += 1;
                assert!(seen < 100);
            }
        }
        // Leave fresh churn pending across runs and the mutable delta.
        for query in &queries[40..] {
            qfg.ingest(query);
        }
        assert!(!qfg.is_compacted());
        qfg
    }

    #[test]
    fn sections_round_trip_uncompacted_graphs_verbatim() {
        let qfg = sectioned_fixture();
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
        // Raw slot ids line up verbatim, so recycled-slot bookkeeping
        // survives: interning a new fragment reuses the same free slots.
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
    fn sections_reject_structural_corruption() {
        let qfg = sectioned_fixture();
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
        // A live slot with zero occurrences.
        let serde::Value::Seq(mut occ) = occurrences.clone() else {
            panic!()
        };
        let live = occ
            .iter()
            .position(|v| v.as_u64().unwrap() > 0)
            .expect("fixture has live slots");
        occ[live] = serde::Value::U64(0);
        let err = rebuild(&fragments, &serde::Value::Seq(occ), &adjacency, &runs).unwrap_err();
        assert!(err.contains("zero occurrences"), "{err}");
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
        // A run entry that drives a pair negative.
        let serde::Value::Seq(mut run_list) = runs.clone() else {
            panic!()
        };
        run_list.push(serde::Value::Seq(vec![serde::Value::Seq(vec![
            serde::Value::U64(0),
            serde::Value::U64(1),
            serde::Value::I64(-1_000_000),
        ])]));
        let err = rebuild(
            &fragments,
            &occurrences,
            &adjacency,
            &serde::Value::Seq(run_list),
        )
        .unwrap_err();
        assert!(err.contains("negative"), "{err}");
        // Unsorted run keys.
        let bad_run = serde::Value::Seq(vec![serde::Value::Seq(vec![
            serde::Value::Seq(vec![
                serde::Value::U64(1),
                serde::Value::U64(2),
                serde::Value::I64(1),
            ]),
            serde::Value::Seq(vec![
                serde::Value::U64(0),
                serde::Value::U64(2),
                serde::Value::I64(1),
            ]),
        ])]);
        let err = rebuild(&fragments, &occurrences, &adjacency, &bad_run).unwrap_err();
        assert!(err.contains("not strictly sorted"), "{err}");
        // The pristine sections still load.
        rebuild(&fragments, &occurrences, &adjacency, &runs).unwrap();
    }
}
