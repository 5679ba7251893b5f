//! Contiguous sentence-id sharding (the span layout of a remote shard
//! deployment).
//!
//! A [`ShardMap`] splits the id space `0..n` into `S` contiguous,
//! near-equal ranges. Contiguity is the property everything downstream
//! leans on:
//!
//! * a shard's slice of any **sorted** posting list is itself contiguous,
//!   so shard-sliced coverage is two binary searches ([`shard_slice`]), not
//!   a filter;
//! * per-shard outputs concatenated in shard order reproduce the id-order
//!   output of an unsharded pass bit for bit;
//! * an id-sorted delta splits into per-shard runs with two binary
//!   searches per shard, the same way postings do.
//!
//! The map is pure bookkeeping — it holds no postings.

use std::ops::Range;

/// Slice of a **sorted** posting list restricted to ids in `[lo, hi)`.
/// Two binary searches; the result borrows from `postings`.
pub fn shard_slice(postings: &[u32], lo: u32, hi: u32) -> &[u32] {
    let a = postings.partition_point(|&s| s < lo);
    let b = postings.partition_point(|&s| s < hi);
    &postings[a..b]
}

/// Number of ids two **sorted, duplicate-free** lists share (posting lists
/// and dirty-id batches are both strictly increasing; with duplicates the
/// result would depend on which internal branch runs, so they are ruled
/// out by contract and `debug_assert`ed).
///
/// This is the dirty-id filtering primitive of incremental maintenance:
/// given a rule's posting list and a sorted batch of newly-labeled sentence
/// ids, the intersection size is exactly how much the rule's
/// positive-overlap statistic moved. Adaptive: when one list is much
/// shorter the longer one is binary-searched (and narrowed after each
/// probe), otherwise a linear merge runs — both O(min + log) / O(a + b)
/// with no allocation.
pub fn intersect_count(a: &[u32], b: &[u32]) -> usize {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]), "a not sorted-unique");
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]), "b not sorted-unique");
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return 0;
    }
    let mut hits = 0;
    if long.len() / short.len() >= 16 {
        let mut rest = long;
        for &x in short {
            let i = rest.partition_point(|&y| y < x);
            if rest.get(i) == Some(&x) {
                hits += 1;
                rest = &rest[i + 1..];
            } else {
                rest = &rest[i..];
            }
        }
    } else {
        let (mut i, mut j) = (0, 0);
        while i < short.len() && j < long.len() {
            match short[i].cmp(&long[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    hits += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
    }
    hits
}

/// A partition of sentence ids `0..n` into `S` contiguous shards.
///
/// Shard `s` owns `[s·c, min((s+1)·c, n))` with `c = ⌈n / S⌉`; when
/// `S > n` the trailing shards are empty (harmless — they own nothing and
/// contribute zero to every merge). After [`ShardMap::grow`], `n` in that
/// formula stays the universe the map was cut for, and the last shard
/// extends to the grown universe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMap {
    n: u32,
    /// The universe the split was cut for: every shard but the last keeps
    /// its range within it when [`ShardMap::grow`] extends `n`.
    base: u32,
    shards: usize,
    chunk: u32,
}

impl ShardMap {
    /// Partition `n_sentences` ids into `shards` contiguous ranges
    /// (`shards` is clamped to at least 1).
    pub fn new(n_sentences: usize, shards: usize) -> ShardMap {
        let shards = shards.max(1);
        let n = u32::try_from(n_sentences).expect("corpus exceeds u32 id space");
        ShardMap {
            n,
            base: n,
            shards,
            chunk: n.div_ceil(shards as u32).max(1),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of sentence ids partitioned.
    pub fn sentences(&self) -> usize {
        self.n as usize
    }

    /// The id range shard `s` owns (empty for trailing shards of an
    /// over-partitioned corpus). The last shard always extends to `n`, so
    /// ranges keep tiling the universe after [`grow`](ShardMap::grow).
    pub fn range(&self, s: usize) -> Range<u32> {
        debug_assert!(s < self.shards);
        let lo = (s as u32).saturating_mul(self.chunk).min(self.base);
        let hi = if s + 1 == self.shards {
            self.n
        } else {
            lo.saturating_add(self.chunk).min(self.base)
        };
        lo..hi
    }

    /// Extend the universe to `new_n` ids **without** moving the chunk
    /// split: ids `n..new_n` all join the last shard. This is the
    /// epoch-stamped growth rule for appended corpora — within an epoch
    /// the partition of pre-existing ids is immutable (so confirmed
    /// remote fragment state stays valid), and only a fresh
    /// [`ShardMap::new`] at a retrain barrier re-balances.
    pub fn grow(&mut self, new_n: usize) {
        let new_n = u32::try_from(new_n).expect("corpus exceeds u32 id space");
        assert!(new_n >= self.n, "ShardMap::grow cannot shrink the universe");
        self.n = new_n;
    }

    /// All shard ranges, in shard order.
    pub fn ranges(&self) -> impl Iterator<Item = Range<u32>> + '_ {
        (0..self.shards).map(|s| self.range(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_partition_the_universe() {
        for n in [0usize, 1, 5, 7, 100, 101] {
            for s in [1usize, 2, 3, 4, 7, 16] {
                let m = ShardMap::new(n, s);
                assert_eq!(m.shards(), s);
                let mut cursor = 0u32;
                for r in m.ranges() {
                    assert_eq!(r.start, cursor, "n={n} s={s}: gap or overlap");
                    cursor = r.end;
                }
                assert_eq!(cursor, n as u32, "n={n} s={s}: universe not covered");
            }
        }
    }

    #[test]
    fn every_id_lies_in_exactly_one_range() {
        let m = ShardMap::new(103, 7);
        for id in 0..103u32 {
            let holders: Vec<usize> = (0..m.shards())
                .filter(|&s| m.range(s).contains(&id))
                .collect();
            assert_eq!(holders.len(), 1, "id {id} held by {holders:?}");
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let m = ShardMap::new(10, 0);
        assert_eq!(m.shards(), 1);
        assert_eq!(m.range(0), 0..10);
    }

    #[test]
    fn shard_slices_tile_the_postings() {
        let postings: Vec<u32> = vec![0, 3, 4, 9, 17, 40, 41, 99];
        let m = ShardMap::new(100, 4);
        let mut rebuilt = Vec::new();
        for r in m.ranges() {
            let slice = shard_slice(&postings, r.start, r.end);
            assert!(slice.iter().all(|id| r.contains(id)), "{r:?}");
            rebuilt.extend_from_slice(slice);
        }
        assert_eq!(rebuilt, postings, "shard slices must tile the postings");
    }

    #[test]
    fn shard_slice_bounds() {
        let postings = [2u32, 5, 5, 8, 11];
        assert_eq!(shard_slice(&postings, 0, 12), &postings[..]);
        assert_eq!(shard_slice(&postings, 5, 9), &[5, 5, 8][..]);
        assert_eq!(shard_slice(&postings, 12, 20), &[] as &[u32]);
    }

    #[test]
    fn intersect_count_agrees_with_naive() {
        let naive = |a: &[u32], b: &[u32]| a.iter().filter(|x| b.contains(x)).count();
        let cases: [(&[u32], &[u32]); 6] = [
            (&[], &[1, 2, 3]),
            (&[2], &[1, 2, 3]),
            (&[1, 4, 9], &[2, 4, 6, 8, 9]),
            (&[0, 1, 2, 3], &[0, 1, 2, 3]),
            (&[5, 7], &(0..200).collect::<Vec<u32>>()),
            (&[199, 201], &(0..200).collect::<Vec<u32>>()),
        ];
        for (a, b) in cases {
            assert_eq!(intersect_count(a, b), naive(a, b), "a={a:?}");
            assert_eq!(intersect_count(b, a), naive(a, b), "swapped a={a:?}");
        }
        // Both branches: a long sparse probe list vs. a similar-length merge.
        let long: Vec<u32> = (0..1000).step_by(3).collect();
        let short: Vec<u32> = (0..1000).step_by(51).collect();
        assert_eq!(intersect_count(&short, &long), naive(&short, &long));
        let similar: Vec<u32> = (0..1000).step_by(4).collect();
        assert_eq!(intersect_count(&similar, &long), naive(&similar, &long));
    }

    #[test]
    fn grow_keeps_chunk_and_routes_new_ids_to_last_shard() {
        // 100 ids in 4 shards (chunk 25), and 5 ids in 4 shards (chunk 2),
        // where the third shard is clipped by the universe edge and the
        // last one starts out empty.
        for (n, s, grown) in [(100usize, 4usize, 140usize), (5, 4, 9)] {
            let mut m = ShardMap::new(n, s);
            let before: Vec<_> = m.ranges().collect();
            m.grow(grown);
            assert_eq!(m.sentences(), grown);
            // Every shard but the last keeps its range — the epoch
            // invariant — and the last one absorbs the appended ids.
            let after: Vec<_> = m.ranges().collect();
            assert_eq!(after[..s - 1], before[..s - 1], "n={n} s={s}");
            assert_eq!(after[s - 1], before[s - 1].start..grown as u32);
            let mut cursor = 0u32;
            for r in &after {
                assert_eq!(r.start, cursor, "n={n} s={s}: gap or overlap");
                cursor = r.end;
            }
            assert_eq!(cursor, grown as u32);
            let postings: Vec<u32> = (0..grown as u32).collect();
            assert_eq!(
                shard_slice(&postings, after[s - 1].start, after[s - 1].end),
                &postings[before[s - 1].start as usize..],
                "n={n} s={s}: the last shard's slice holds every appended id"
            );
        }
        assert_eq!(ShardMap::new(100, 4).range(3), 75..100);
    }

    #[test]
    fn more_shards_than_ids_leaves_trailing_empties() {
        let m = ShardMap::new(3, 7);
        let non_empty: usize = m.ranges().filter(|r| !r.is_empty()).count();
        assert_eq!(non_empty, 3);
        assert_eq!(m.range(6), 3..3);
    }
}
