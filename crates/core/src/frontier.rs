//! The incremental candidate frontier.
//!
//! Hierarchy regeneration (paper §3.7) re-runs Algorithm 2's best-first
//! walk after every YES answer, and the walk's cost is dominated by one
//! thing: computing `overlap = |C_r ∩ P|` with a posting scan for every
//! rule it visits. Between two consecutive regenerations almost nothing
//! about those numbers changes — the index is immutable, so `count = |C_r|`
//! never moves, and `P` only *grows*, by exactly the ids the YES answer
//! added — yet the from-scratch walk pays the full scan bill again.
//!
//! [`FrontierPool`] keeps the expansion state alive across YES answers:
//!
//! * a memo of `(overlap, count)` for every rule any walk has ever visited
//!   (the union of all emitted candidates, open heap entries and
//!   zero-overlap pruned children — the "frontier" in the wide sense),
//!   stored as a flat table over [`darwin_index::IndexSet::dense_id`] so a
//!   probe is an array load, not a hash;
//! * a **dirty-id journal**: [`FrontierPool::note_positives`] records the
//!   newly-labeled sentence ids lazily, and the next regeneration re-scores
//!   exactly the frontier entries whose postings intersect them — via each
//!   id's recomputed covering rules
//!   ([`darwin_index::IndexSet::covering_rules`]) when the batch is small,
//!   or one sorted posting intersection per entry
//!   ([`darwin_index::intersect_count`]) when it is large;
//! * an **epoch stamp** (the pool's view of `|P|`): regeneration checks it
//!   against the live positive set and, on any mismatch, rejects the cached
//!   state and falls back to a full from-scratch walk — stale reuse can
//!   slow a regeneration down, never corrupt one.
//!
//! Each regeneration then *replays* the best-first expansion over the
//! memoized statistics (`candidates::best_first_walk`, the same
//! control flow the full walk runs), resuming from the surviving pool
//! instead of re-deriving it: heap pushes read the memo, and only rules the
//! frontier reaches for the first time pay a posting scan. Replay rather
//! than heap surgery is what makes equivalence unconditional — overlaps
//! only ever grow, so a previously-emitted candidate can be overtaken, a
//! pruned subtree can revive, and the surviving heap's *order* is generally
//! stale; re-running the (cheap, scan-free) selection over exact statistics
//! reproduces the from-scratch pop sequence bit for bit instead of
//! approximating it.
//!
//! Scores never enter this module: Algorithm 2 ranks by overlap with `P`
//! alone, so the classifier's re-score journal is irrelevant to frontier
//! invalidation — the epoch stamp tracks `|P|` only. (The benefit
//! aggregates, which *do* depend on scores, live in [`crate::engine`] and
//! consume the `ScoreCache` journal separately.)

use crate::candidates::{best_first_walk, Candidate, WalkSource};
use crate::engine::rows_pay;
use darwin_index::{intersect_count, AppendDelta, IdSet, IndexSet, RuleRef};
use darwin_text::Corpus;

/// Memoized best-first statistics for one visited rule. `count` is
/// immutable (the index never changes within a run); `overlap` is patched
/// by dirty-id deltas as `P` grows. `seen_gen` doubles as the replay
/// walk's seen-set: stamping it with the walk's generation costs no extra
/// memory traffic, because the slot is already in cache for the statistics
/// read — one random access per visited child instead of two. `kids` is
/// the rule's offset into the adjacency arena once it has been expanded
/// (0 = not yet): derivation edges are as immutable as `count`, and
/// re-walking the trie's child maps every replay is measurable.
#[derive(Clone, Copy, Debug)]
struct NodeStat {
    overlap: u32,
    count: u32,
    seen_gen: u32,
    kids: u32,
}

/// Table sentinel: "this rule was never visited". No real rule has this
/// count — coverage is bounded by the (u32-id) corpus size.
const ABSENT: u32 = u32::MAX;

impl NodeStat {
    #[inline]
    fn absent(&self) -> bool {
        self.count == ABSENT
    }
}

/// Counters exposed for tests, benches and diagnostics — how much work the
/// incremental path actually did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrontierStats {
    /// Regenerations served (full or incremental).
    pub generations: u64,
    /// Times the cached state was rejected (epoch-stale) and dropped.
    pub full_rebuilds: u64,
    /// Dirty-id batches applied by delta.
    pub delta_batches: u64,
    /// Total overlap increments applied by delta batches —
    /// `Σ |C_r ∩ dirty|` over memoized rules, identical whichever delta
    /// route a batch takes.
    pub rules_rescored: u64,
    /// Delta batches routed through each dirty id's recomputed covering
    /// rules ([`IndexSet::covering_rules`]; small batches). The name is
    /// kept because benchmark reports read it.
    pub deltas_by_postings: u64,
    /// Delta batches routed through per-entry posting intersection (large
    /// batches).
    pub deltas_by_intersection: u64,
    /// Rules that paid a posting scan because the frontier reached them for
    /// the first time (every other visit was a memo hit).
    pub fresh_nodes: u64,
}

/// Persistent best-first expansion state for hierarchy regeneration — see
/// the [module docs](self) for the design and the equivalence argument.
///
/// # Contract
///
/// A pool serves one index and one monotonically-growing positive set:
/// every id added to `P` must be reported exactly once via
/// [`FrontierPool::note_positives`] before the next
/// [`FrontierPool::generate_scored`] call. The pool cross-checks this two
/// ways — the epoch stamp (`|P|` as it believes it to be) catches
/// omissions, and the reflected-id set catches duplicate or
/// already-positive reports, including compensating combinations — and
/// falls back to a full rebuild on any mismatch, so a violated contract
/// costs speed, not correctness.
#[derive(Clone, Debug, Default)]
pub struct FrontierPool {
    /// Memo over the dense rule numbering; sized on first use.
    nodes: Vec<NodeStat>,
    /// Adjacency arena: `[len, child, child, ...]` runs of dense child
    /// ids, one run per expanded rule ([`NodeStat::kids`] points at the
    /// run; slot 0 is a dummy so offset 0 can mean "unexpanded"). Survives
    /// overlap invalidation — edges don't depend on `P`.
    kids: Vec<u32>,
    /// Number of non-[`ABSENT`] entries.
    memoized: usize,
    /// Newly-positive ids reported since the last regeneration, applied
    /// lazily (a YES may be recorded long before the hierarchy is needed —
    /// the parallel loop records a whole round first).
    pending: Vec<u32>,
    /// Epoch stamp: the `|P|` the memoized overlaps reflect.
    synced_p: usize,
    /// The exact positive ids the memoized overlaps reflect (baselined to
    /// `P` at every rebuild, advanced as the journal drains). The `|P|`
    /// stamp alone would accept *compensating* contract violations — a
    /// double-reported id masking a missed one — so the delta path also
    /// requires every journaled id to be positive now and not reflected
    /// yet.
    reflected: IdSet,
    /// Current walk generation (the replay's seen-set stamp).
    walk_gen: u32,
    /// `Σ count` over memoized rules — an upper bound on what one
    /// posting-intersection pass over the memo costs, used to route dirty
    /// batches (see [`FrontierPool::apply_dirty`]).
    total_cov: u64,
    stats: FrontierStats,
}

impl FrontierPool {
    /// An empty pool; tables are sized lazily on first use.
    pub fn new() -> FrontierPool {
        FrontierPool::default()
    }

    /// Number of rules with memoized statistics.
    pub fn len(&self) -> usize {
        self.memoized
    }

    /// Whether nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.memoized == 0
    }

    /// The pool's epoch stamp: how many positive ids it has been told
    /// about. Regeneration rejects the cached state unless this equals the
    /// live `|P|`.
    pub fn epoch(&self) -> usize {
        self.synced_p + self.pending.len()
    }

    /// Work counters (see [`FrontierStats`]).
    pub fn stats(&self) -> FrontierStats {
        self.stats
    }

    /// Report ids newly added to `P` (each exactly once, never ids already
    /// positive). Cheap — the ids are journaled and applied lazily at the
    /// next [`FrontierPool::generate_scored`].
    pub fn note_positives(&mut self, new_ids: &[u32]) {
        self.pending.extend_from_slice(new_ids);
    }

    /// Drop all cached state; the next regeneration walks from scratch.
    pub fn invalidate(&mut self) {
        self.nodes.clear();
        self.kids.clear();
        self.memoized = 0;
        self.pending.clear();
        self.synced_p = 0;
        self.reflected = IdSet::default();
        self.total_cov = 0;
    }

    /// Incremental [`crate::candidates::generate_scored`]: byte-for-byte
    /// the same output, with posting scans only for first-visited rules
    /// (plus the dirty-delta application below).
    pub fn generate_scored(
        &mut self,
        corpus: &Corpus,
        index: &IndexSet,
        p: &IdSet,
        k: usize,
        max_count: usize,
    ) -> Vec<Candidate> {
        self.sync(corpus, index, p);
        self.stats.generations += 1;
        self.walk_gen += 1;
        let mut src = PoolSource {
            index,
            p,
            gen: self.walk_gen,
            nodes: &mut self.nodes,
            kids: &mut self.kids,
            memoized: &mut self.memoized,
            total_cov: &mut self.total_cov,
            fresh: &mut self.stats.fresh_nodes,
        };
        best_first_walk(k, max_count, &mut src)
    }

    /// Bring the memoized overlaps up to date with `p`: size the table,
    /// drain the pending dirty ids, verify the epoch stamp, and either
    /// patch by delta or (on a stale stamp) drop everything.
    ///
    /// [`FrontierPool::generate_scored`] calls this implicitly; it is
    /// public so callers can flush the journal eagerly (e.g. off the
    /// selection path, or to observe the delta cost in isolation — the
    /// benches do).
    pub fn sync(&mut self, corpus: &Corpus, index: &IndexSet, p: &IdSet) {
        if self.nodes.len() != index.dense_rules() {
            // First use (or a different index — a broken contract we treat
            // as plain invalidation): size the memo table.
            self.invalidate();
            self.nodes = vec![
                NodeStat {
                    overlap: 0,
                    count: ABSENT,
                    seen_gen: 0,
                    kids: 0,
                };
                index.dense_rules()
            ];
            self.kids = vec![0]; // slot 0 is the "unexpanded" sentinel
            self.walk_gen = 0;
        }
        let pending = std::mem::take(&mut self.pending);
        if self.memoized == 0 {
            // Nothing memoized — the walk below computes every statistic
            // fresh against the live `p`, so any journal is moot. Baseline
            // the reflected set to what that walk will see.
            self.synced_p = p.len();
            self.reflected = p.clone();
            return;
        }
        // Journal validation: a legitimate report contains only ids that
        // are positive now and not yet reflected in the memo (P is
        // monotone, so every id is reported exactly once). Checked
        // alongside the |P| stamp — the stamp catches omissions, the
        // reflected set catches duplicates and already-positive reports,
        // including compensating combinations the stamp alone would pass.
        let mut journal_ok = true;
        for &id in &pending {
            let positive_now = p.contains(id);
            let newly_reflected = self.reflected.insert(id);
            journal_ok &= positive_now && newly_reflected;
        }
        if !journal_ok || self.synced_p + pending.len() != p.len() {
            // Epoch-stale: `P` moved in a way note_positives never
            // reported, or the journal claimed ids that were not new. The
            // cached overlaps cannot be trusted; reject them and let the
            // walk rebuild from scratch.
            for slot in &mut self.nodes {
                slot.count = ABSENT;
            }
            self.memoized = 0;
            self.total_cov = 0;
            self.stats.full_rebuilds += 1;
            self.synced_p = p.len();
            self.reflected = p.clone();
            return;
        }
        if !pending.is_empty() {
            self.apply_dirty(&pending, corpus, index, None);
            self.stats.delta_batches += 1;
            self.synced_p = p.len();
        }
    }

    /// Fold corpus-appended sentence ids into the memoized statistics.
    ///
    /// Called at an append barrier, after the index has grown over
    /// `new_ids` (which are **not** in `P` — appended sentences enter
    /// unlabeled, so overlaps are untouched; contrast
    /// [`FrontierPool::note_positives`], the journal for ids *joining*
    /// `P`). Three things change under the memo's feet:
    ///
    /// * the dense numbering is *remapped*, not just grown: `RuleRef`s
    ///   are append-stable, but dense ids lay phrases out before trees,
    ///   so the [`AppendDelta::tree_shift`] new phrase nodes push every
    ///   tree rule's slot up — the memo's tree block moves with them, and
    ///   appended rules start `ABSENT` like any never-visited rule;
    /// * every memoized `count = |C_r|` grows by the rule's appended
    ///   coverage: the tail of its sorted posting list at or past the old
    ///   corpus end, one binary search per memoized rule (appended ids
    ///   are a suffix of the id space, so no covering-rules row is
    ///   recomputed);
    /// * derivation edges are no longer immutable: an existing node can
    ///   gain children materialized by the new sentences (and the root
    ///   gains new tree roots), so the adjacency cache — whose runs also
    ///   store now-stale dense child ids — is dropped and re-fills on
    ///   demand; edge recomputation is cheap and involves no posting
    ///   scans.
    ///
    /// After the fold, a pooled regeneration is byte-identical to a
    /// scratch walk over the grown index and unchanged `P` — the memo
    /// holds exactly the `(overlap, count)` a fresh visit would compute.
    pub fn append_ids(&mut self, index: &IndexSet, delta: &AppendDelta) {
        if self.nodes.is_empty() {
            return; // never used: sized lazily against the grown index
        }
        debug_assert_eq!(self.nodes.len(), delta.dense_before, "stale delta");
        let old_n = (index.sentences() - delta.sentences) as u32;
        let absent = NodeStat {
            overlap: 0,
            count: ABSENT,
            seen_gen: 0,
            kids: 0,
        };
        let mut nodes = vec![absent; delta.dense_after];
        nodes[..delta.phrase_before].copy_from_slice(&self.nodes[..delta.phrase_before]);
        for (i, slot) in self.nodes[delta.phrase_before..].iter().enumerate() {
            nodes[delta.phrase_after + i] = *slot;
        }
        self.nodes = nodes;
        self.kids.clear();
        self.kids.push(0); // slot 0 stays the "unexpanded" sentinel
        for (dense, slot) in self.nodes.iter_mut().enumerate() {
            slot.kids = 0;
            // Slot 0 is the root, which the walk never memoizes.
            if dense == 0 || slot.absent() {
                continue;
            }
            let cov = index.coverage(index.rule_of_dense(dense as u32));
            let tail = (cov.len() - cov.partition_point(|&s| s < old_n)) as u32;
            slot.count += tail;
            self.total_cov += tail as u64;
        }
    }

    /// Re-score exactly the frontier entries whose postings intersect the
    /// dirty ids. Two exact routes, chosen by the benefit folds' size rule
    /// ([`rows_pay`]): recomputing each dirty id's covering rules, one memo
    /// probe per rule, suits the typical YES, whose handful of new ids
    /// touch a tiny slice of the memo; one sorted intersection per memoized
    /// entry costs at most `Σ min(|C_r|, |dirty|)` (`total_cov` bounds it)
    /// and takes over when a YES floods in ids. `by_rows` overrides the
    /// rule.
    fn apply_dirty(
        &mut self,
        dirty: &[u32],
        corpus: &Corpus,
        index: &IndexSet,
        by_rows: Option<bool>,
    ) {
        if !by_rows.unwrap_or_else(|| rows_pay(dirty.len(), self.total_cov)) {
            return self.apply_by_intersection(dirty, index);
        }
        self.stats.deltas_by_postings += 1;
        let mut row = Vec::new();
        for &d in dirty {
            index.covering_rules(corpus.sentence(d), &mut row);
            for &r in &row {
                let slot = &mut self.nodes[index.dense_id(r) as usize];
                if !slot.absent() {
                    slot.overlap += 1;
                    debug_assert!(slot.overlap <= slot.count, "{r:?} overlap beyond coverage");
                    self.stats.rules_rescored += 1;
                }
            }
        }
    }

    /// The large-batch delta path: one [`intersect_count`] against the
    /// sorted dirty ids per memoized entry.
    #[cold]
    fn apply_by_intersection(&mut self, dirty: &[u32], index: &IndexSet) {
        self.stats.deltas_by_intersection += 1;
        let mut sorted: Vec<u32> = dirty.to_vec();
        sorted.sort_unstable();
        for (dense, slot) in self.nodes.iter_mut().enumerate() {
            if slot.absent() {
                continue;
            }
            let r = index.rule_of_dense(dense as u32);
            let moved = intersect_count(index.coverage(r), &sorted);
            if moved > 0 {
                slot.overlap += moved as u32;
                debug_assert!(slot.overlap <= slot.count, "{r:?} overlap beyond coverage");
                self.stats.rules_rescored += moved as u64;
            }
        }
    }
}

/// A plain-data image of a [`FrontierPool`]'s persistent state, produced
/// by [`FrontierPool::export`] and consumed by [`FrontierPool::import`].
/// Session snapshots serialize this through the wire codec.
///
/// The image is *canonical*: walk-local bookkeeping (`seen_gen`,
/// `walk_gen`) is normalized away — it only disambiguates visits within
/// one regeneration and resets naturally on import — and derived totals
/// (`memoized`, `total_cov`) are recomputed rather than stored, so two
/// pools with the same memo always export byte-identical images.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FrontierImage {
    /// `(overlap, count, kids)` per dense rule id; `count == u32::MAX`
    /// marks a never-visited slot.
    pub nodes: Vec<(u32, u32, u32)>,
    /// Adjacency arena: `[len, child...]` runs of dense child ids (slot 0
    /// is the "unexpanded" dummy). Empty only when the pool was never
    /// used.
    pub kids: Vec<u32>,
    /// Journaled dirty ids not yet applied to the memo.
    pub pending: Vec<u32>,
    /// Epoch stamp: the `|P|` the memoized overlaps reflect.
    pub synced_p: u64,
    /// The reflected positive ids, in increasing order.
    pub reflected: Vec<u32>,
    /// Universe (corpus size) the reflected set is sized for.
    pub universe: u32,
    /// Work counters, carried across the suspend so diagnostics stay
    /// continuous.
    pub stats: FrontierStats,
}

impl FrontierPool {
    /// Capture the pool's persistent state as a [`FrontierImage`].
    /// `universe` is the corpus size (sizes the reflected-id set on
    /// import).
    pub fn export(&self, universe: usize) -> FrontierImage {
        FrontierImage {
            nodes: self
                .nodes
                .iter()
                .map(|n| (n.overlap, n.count, n.kids))
                .collect(),
            kids: self.kids.clone(),
            pending: self.pending.clone(),
            synced_p: self.synced_p as u64,
            reflected: self.reflected.iter().collect(),
            universe: universe as u32,
            stats: self.stats,
        }
    }

    /// Rebuild a pool from an exported image, validating internal
    /// consistency (arena offsets in bounds, overlaps within coverage) so
    /// a corrupt image is refused instead of panicking later. Statistics
    /// the image does not carry (`memoized`, `total_cov`) are recomputed;
    /// the walk generation restarts at zero, which is invisible to
    /// regeneration output.
    pub fn import(img: &FrontierImage) -> Result<FrontierPool, String> {
        if img.nodes.is_empty() && img.kids.len() > 1 {
            return Err("frontier image has an arena but no memo table".into());
        }
        let mut memoized = 0usize;
        let mut total_cov = 0u64;
        for (i, &(overlap, count, kids)) in img.nodes.iter().enumerate() {
            if count != ABSENT {
                if overlap > count {
                    return Err(format!(
                        "frontier slot {i}: overlap {overlap} > count {count}"
                    ));
                }
                memoized += 1;
                total_cov += count as u64;
            }
            if kids != 0 {
                let off = kids as usize;
                let len =
                    *img.kids.get(off).ok_or_else(|| {
                        format!("frontier slot {i}: arena offset {off} out of bounds")
                    })? as usize;
                let run = img
                    .kids
                    .get(off + 1..off + 1 + len)
                    .ok_or_else(|| format!("frontier slot {i}: arena run escapes the arena"))?;
                if run.iter().any(|&d| d as usize >= img.nodes.len()) {
                    return Err(format!("frontier slot {i}: child beyond the memo table"));
                }
            }
        }
        Ok(FrontierPool {
            nodes: img
                .nodes
                .iter()
                .map(|&(overlap, count, kids)| NodeStat {
                    overlap,
                    count,
                    seen_gen: 0,
                    kids,
                })
                .collect(),
            kids: img.kids.clone(),
            memoized,
            pending: img.pending.clone(),
            synced_p: img.synced_p as usize,
            reflected: IdSet::from_ids(&img.reflected, img.universe as usize),
            walk_gen: 0,
            total_cov,
            stats: img.stats,
        })
    }
}

/// The pool-backed [`WalkSource`]: visits are one probe of the memo slot
/// (seen-set stamp + statistics in a single cache line), expansions read
/// the adjacency arena, and only first-ever visits touch the index's
/// postings.
struct PoolSource<'a> {
    index: &'a IndexSet,
    p: &'a IdSet,
    gen: u32,
    nodes: &'a mut Vec<NodeStat>,
    kids: &'a mut Vec<u32>,
    memoized: &'a mut usize,
    total_cov: &'a mut u64,
    fresh: &'a mut u64,
}

impl WalkSource for PoolSource<'_> {
    fn visit(&mut self, r: RuleRef) -> Option<(usize, usize, u32)> {
        let dense = self.index.dense_id(r);
        let slot = &mut self.nodes[dense as usize];
        if slot.seen_gen == self.gen {
            return None; // already reached in this walk
        }
        slot.seen_gen = self.gen;
        if !slot.absent() {
            Some((slot.overlap as usize, slot.count as usize, dense))
        } else {
            let postings = self.index.coverage(r);
            let (overlap, count) = (self.p.count_in(postings), postings.len());
            slot.overlap = overlap as u32;
            slot.count = count as u32;
            *self.memoized += 1;
            *self.total_cov += count as u64;
            *self.fresh += 1;
            Some((overlap, count, dense))
        }
    }

    fn expand(&mut self, rule: RuleRef, buf: &mut Vec<RuleRef>) {
        let dense = self.index.dense_id(rule) as usize;
        let off = self.nodes[dense].kids as usize;
        if off != 0 {
            let len = self.kids[off] as usize;
            for &d in &self.kids[off + 1..off + 1 + len] {
                buf.push(self.index.rule_of_dense(d));
            }
        } else {
            let start = self.kids.len();
            self.kids.push(0);
            let (index, kids) = (self.index, &mut *self.kids);
            index.for_each_child(rule, |c| {
                kids.push(index.dense_id(c));
                buf.push(c);
            });
            self.kids[start] = (self.kids.len() - start - 1) as u32;
            self.nodes[dense].kids = start as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::generate_scored;
    use darwin_index::IndexConfig;
    use darwin_text::Corpus;

    fn setup() -> (Corpus, IndexSet) {
        let c = Corpus::from_texts([
            "the shuttle to the airport leaves hourly",
            "is there a shuttle to the airport tonight",
            "a bus to the airport runs daily",
            "order pizza to the room please",
            "the pool opens at nine daily",
            "is there a bus downtown tonight",
            "the shuttle downtown is free",
            "the airport lounge opens at nine",
        ]);
        let idx = IndexSet::build(&c, &IndexConfig::small());
        (c, idx)
    }

    /// Drive a pool and a from-scratch reference through the same growth
    /// sequence; every regeneration must match byte for byte.
    #[test]
    fn pooled_walk_replays_scratch_walk_through_growth() {
        let (c, idx) = setup();
        let n = c.len();
        for k in [3usize, 10, 10_000] {
            let mut pool = FrontierPool::new();
            let mut p = IdSet::from_ids(&[0], n);
            let growth: [&[u32]; 3] = [&[1], &[2, 5], &[6, 7]];
            let first = pool.generate_scored(&c, &idx, &p, k, usize::MAX);
            assert_eq!(
                as_tuples(&first),
                as_tuples(&generate_scored(&idx, &p, k, usize::MAX))
            );
            for batch in growth {
                pool.note_positives(batch);
                p.extend_from_slice(batch);
                let pooled = pool.generate_scored(&c, &idx, &p, k, usize::MAX);
                let scratch = generate_scored(&idx, &p, k, usize::MAX);
                assert_eq!(
                    as_tuples(&pooled),
                    as_tuples(&scratch),
                    "k={k} after {batch:?}"
                );
            }
            assert_eq!(pool.stats().full_rebuilds, 0, "no rebuild was warranted");
            assert!(pool.stats().delta_batches >= 3);
        }
    }

    /// `max_count` filtering happens at pop time, so it must behave
    /// identically over memoized statistics.
    #[test]
    fn max_count_filter_matches_scratch() {
        let (c, idx) = setup();
        let mut pool = FrontierPool::new();
        let mut p = IdSet::from_ids(&[0, 1], c.len());
        for max_count in [2usize, 4] {
            let a = pool.generate_scored(&c, &idx, &p, 100, max_count);
            let b = generate_scored(&idx, &p, 100, max_count);
            assert_eq!(as_tuples(&a), as_tuples(&b), "max_count={max_count}");
        }
        pool.note_positives(&[3]);
        p.insert(3);
        let a = pool.generate_scored(&c, &idx, &p, 100, 3);
        let b = generate_scored(&idx, &p, 100, 3);
        assert_eq!(as_tuples(&a), as_tuples(&b));
    }

    /// A subtree pruned at overlap 0 must revive when a dirty id lands in
    /// its postings — fresh walks would push it, so the replay must too.
    #[test]
    fn pruned_subtrees_revive_on_dirty_overlap() {
        let (c, idx) = setup();
        let mut pool = FrontierPool::new();
        // Only the pizza sentence: the airport/shuttle subtrees prune.
        let mut p = IdSet::from_ids(&[3], c.len());
        let before = pool.generate_scored(&c, &idx, &p, 10_000, usize::MAX);
        // A shuttle sentence turns positive: its whole rule family revives.
        pool.note_positives(&[0]);
        p.insert(0);
        let after = pool.generate_scored(&c, &idx, &p, 10_000, usize::MAX);
        assert!(after.len() > before.len(), "revived rules must appear");
        assert_eq!(
            as_tuples(&after),
            as_tuples(&generate_scored(&idx, &p, 10_000, usize::MAX))
        );
        assert_eq!(pool.stats().full_rebuilds, 0);
    }

    /// The large-batch intersection path computes the same deltas as the
    /// recomputed-rows path.
    #[test]
    fn intersection_delta_path_is_exact() {
        let (c, idx) = setup();
        let n = c.len();
        let mut by_postings = FrontierPool::new();
        let mut by_intersection = FrontierPool::new();
        let p0 = IdSet::from_ids(&[0], n);
        by_postings.generate_scored(&c, &idx, &p0, 10_000, usize::MAX);
        by_intersection.generate_scored(&c, &idx, &p0, 10_000, usize::MAX);

        let dirty = [5u32, 1, 7]; // deliberately unsorted
        let mut p = p0.clone();
        p.extend_from_slice(&dirty);
        by_postings.apply_dirty(&dirty, &c, &idx, Some(true)); // forced
        by_postings.synced_p = p.len();
        assert_eq!(by_postings.stats().deltas_by_postings, 1);
        by_intersection.apply_by_intersection(&dirty, &idx); // forced
        by_intersection.synced_p = p.len();
        assert_eq!(by_intersection.stats().deltas_by_intersection, 1);

        for (dense, slot) in by_postings.nodes.iter().enumerate() {
            let other = by_intersection.nodes[dense];
            assert_eq!(
                (slot.overlap, slot.count),
                (other.overlap, other.count),
                "{:?} diverged between delta paths",
                idx.rule_of_dense(dense as u32)
            );
        }
        let a = by_postings.generate_scored(&c, &idx, &p, 10_000, usize::MAX);
        let b = by_intersection.generate_scored(&c, &idx, &p, 10_000, usize::MAX);
        assert_eq!(as_tuples(&a), as_tuples(&b));
    }

    /// An exported-then-imported pool must regenerate exactly what the
    /// original would have, including across further growth, and its
    /// re-export must be byte-identical (canonical image).
    #[test]
    fn export_import_roundtrip_preserves_regeneration() {
        let (c, idx) = setup();
        let n = c.len();
        let mut pool = FrontierPool::new();
        let mut p = IdSet::from_ids(&[0, 1], n);
        pool.generate_scored(&c, &idx, &p, 10_000, usize::MAX);
        pool.note_positives(&[2]);
        p.insert(2);

        let img = pool.export(n);
        let mut copy = FrontierPool::import(&img).expect("valid image");
        assert_eq!(copy.export(n), img, "re-export must be canonical");

        for batch in [&[5u32][..], &[6, 7][..]] {
            pool.note_positives(batch);
            copy.note_positives(batch);
            p.extend_from_slice(batch);
            let a = pool.generate_scored(&c, &idx, &p, 10_000, usize::MAX);
            let b = copy.generate_scored(&c, &idx, &p, 10_000, usize::MAX);
            assert_eq!(as_tuples(&a), as_tuples(&b));
        }
        assert_eq!(copy.stats().full_rebuilds, 0, "import must not rebuild");
    }

    /// The frontier leg of append equivalence: fold appended ids into a
    /// warm pool, and every later regeneration must match a scratch walk
    /// on the grown index — including after further positive growth.
    #[test]
    fn append_fold_matches_scratch_walk_on_grown_index() {
        let first: Vec<String> = (0..10)
            .map(|i| format!("sentence {i} takes the shuttle to the airport"))
            .collect();
        let extra = [
            "a new arrival orders pizza with extra cheese".to_string(),
            "the shuttle to the airport waits for the arrival".to_string(),
        ];
        let mut c = Corpus::from_texts(first.iter());
        let mut idx = IndexSet::build(&c, &IndexConfig::small());
        let mut pool = FrontierPool::new();
        let mut p = IdSet::from_ids(&[0, 3], c.len());
        pool.generate_scored(&c, &idx, &p, 10_000, usize::MAX);

        let old_n = c.len();
        c.append_texts(extra.iter(), 1);
        let delta = idx.append(&c).unwrap();
        pool.append_ids(&idx, &delta);
        // Every memoized count is the grown coverage size.
        let mut memoized = 0;
        for (dense, slot) in pool.nodes.iter().enumerate() {
            if !slot.absent() {
                let r = idx.rule_of_dense(dense as u32);
                assert_eq!(slot.count as usize, idx.count(r), "{r:?} count");
                memoized += 1;
            }
        }
        assert!(memoized > 0 && memoized == pool.len());

        let pooled = pool.generate_scored(&c, &idx, &p, 10_000, usize::MAX);
        let scratch = generate_scored(&idx, &p, 10_000, usize::MAX);
        assert_eq!(as_tuples(&pooled), as_tuples(&scratch), "post-append walk");
        assert_eq!(pool.stats().full_rebuilds, 0, "fold must avoid a rebuild");

        // Growth continues across the barrier: a newly appended sentence
        // turns positive and flows through the ordinary dirty journal.
        let appended_id = old_n as u32 + 1;
        pool.note_positives(&[appended_id]);
        p.insert(appended_id);
        let pooled = pool.generate_scored(&c, &idx, &p, 10_000, usize::MAX);
        let scratch = generate_scored(&idx, &p, 10_000, usize::MAX);
        assert_eq!(as_tuples(&pooled), as_tuples(&scratch), "post-YES walk");
        assert_eq!(pool.stats().full_rebuilds, 0);
    }

    /// Corrupt images are refused, never imported.
    #[test]
    fn corrupt_images_are_refused() {
        let (c, idx) = setup();
        let mut pool = FrontierPool::new();
        let p = IdSet::from_ids(&[0], c.len());
        pool.generate_scored(&c, &idx, &p, 10_000, usize::MAX);
        let img = pool.export(c.len());

        let mut bad = img.clone();
        if let Some(slot) = bad.nodes.iter_mut().find(|s| s.1 != ABSENT) {
            slot.0 = slot.1 + 1; // overlap beyond coverage
        }
        assert!(FrontierPool::import(&bad).is_err());

        let mut bad = img.clone();
        for slot in &mut bad.nodes {
            if slot.2 != 0 {
                slot.2 = bad.kids.len() as u32 + 40; // arena offset out of bounds
                break;
            }
        }
        assert!(FrontierPool::import(&bad).is_err());

        let mut bad = img;
        bad.kids.truncate(bad.kids.len().saturating_sub(1));
        assert!(FrontierPool::import(&bad).is_err());
    }

    fn as_tuples(cands: &[Candidate]) -> Vec<(RuleRef, usize, usize)> {
        cands.iter().map(|c| (c.rule, c.overlap, c.count)).collect()
    }
}
