//! The workspace's one ordered, scoped fan-out, and the one ordered-growth
//! driver built on it.

/// Map `items` chunk-wise over `threads` scoped workers (one contiguous
/// chunk each) and join the per-chunk outputs in input order. With
/// `threads <= 1`, or fewer than `min_len` items — too few to amortize the
/// spawns — `per_chunk` runs once over the whole slice on the caller's
/// thread.
///
/// `per_chunk` must map each item independently of its neighbours (it
/// takes a chunk, not an item, only so a worker can reuse scratch across
/// its items); the output is then identical for every thread count.
pub fn map_chunks<T, R, F>(items: &[T], threads: usize, min_len: usize, per_chunk: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> Vec<R> + Sync,
{
    if threads <= 1 || items.len() < min_len.max(1) {
        return per_chunk(items);
    }
    let chunk = items.len().div_ceil(threads);
    let per_chunk = &per_chunk;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| scope.spawn(move || per_chunk(c)))
            .collect();
        let mut out = Vec::with_capacity(items.len());
        for h in handles {
            out.extend(h.join().expect("map_chunks worker panicked"));
        }
        out
    })
}

/// Row-word flag of [`grow_ordered`]'s resolve half: `MISS | i` names the
/// chunk's `i`-th miss — something the state lacked when the block
/// started, which only the serial fold may create. A word without the
/// flag is an id that already existed, so ids stay below `MISS`.
pub const MISS: u32 = 1 << 31;

/// The row word naming a chunk's miss `i`.
///
/// # Panics
///
/// If `i` reaches [`MISS`]: the index would run into the flag.
#[inline]
pub fn miss(i: usize) -> u32 {
    assert!(i < MISS as usize, "miss index overflows its row word");
    MISS | i as u32
}

/// The miss index a row word names, or `None` for an id that existed.
#[inline]
pub fn miss_index(word: u32) -> Option<usize> {
    (word & MISS != 0).then_some((word & !MISS) as usize)
}

/// Grow `state` over `items`, in order: the workspace's one ordered-growth
/// protocol, behind corpus analysis and both index passes.
///
/// `items` is cut into blocks of `block` items. One [`map_chunks`] pass
/// (on the caller's thread below `min_len` items) resolves each block on
/// `threads` workers against `state` as it stood when the block started —
/// read only, naming what it lacks with [`miss`] words. Then `fold` takes the block's chunks serially, in input order,
/// each with the items it resolved: the one loop that writes `state`, so
/// what it numbers comes out in first-occurrence order at every thread
/// count and block size. A miss that an earlier chunk or block has since
/// created is the fold's to find, not to renumber.
///
/// A block's resolved chunks wait for its fold, so `block` trades
/// spawn/join barriers against buffered output. `fold` borrows each
/// chunk's output, and the block's outputs are freed together after its
/// last chunk is folded; a fold that wants its chunk's output freed
/// sooner, or kept, takes it out.
pub fn grow_ordered<T, S, R>(
    state: &mut S,
    items: &[T],
    block: usize,
    threads: usize,
    min_len: usize,
    resolve: impl Fn(&S, &[T]) -> R + Sync,
    mut fold: impl FnMut(&mut S, &[T], &mut R),
) where
    T: Sync,
    S: Sync,
    R: Send,
{
    for block in items.chunks(block.max(1)) {
        let shared = &*state;
        let mut chunks = map_chunks(block, threads, min_len, |chunk| {
            vec![(chunk.len(), resolve(shared, chunk))]
        });
        let mut rest = block;
        for (n, resolved) in &mut chunks {
            let (chunk, tail) = rest.split_at(*n);
            fold(state, chunk, resolved);
            rest = tail;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn output_is_in_input_order_for_every_thread_count() {
        let items: Vec<u32> = (0..1000).collect();
        let double = |c: &[u32]| c.iter().map(|x| x * 2).collect::<Vec<_>>();
        let serial = map_chunks(&items, 1, 0, double);
        let calls = AtomicUsize::new(0);
        let counted = |c: &[u32]| {
            calls.fetch_add(1, Ordering::Relaxed);
            double(c)
        };
        for threads in [2, 3, 7, 1000, 5000] {
            calls.store(0, Ordering::Relaxed);
            assert_eq!(map_chunks(&items, threads, 0, counted), serial);
            // `threads` bounds the workers: `per_chunk` runs at most that
            // many times (and never on an empty chunk).
            let ran = calls.load(Ordering::Relaxed);
            assert!(
                ran <= threads.min(items.len()),
                "{ran} calls at T={threads}"
            );
        }
        // Below the threshold the closure sees the whole slice once.
        calls.store(0, Ordering::Relaxed);
        map_chunks(&items, 4, 1001, counted);
        assert_eq!(calls.into_inner(), 1);
        assert!(map_chunks(&[] as &[u32], 4, 0, double).is_empty());
    }

    /// A toy word interner: each word's id is its first-occurrence rank.
    #[derive(Default)]
    struct Interner {
        ids: std::collections::HashMap<&'static str, u32>,
        out: Vec<u32>,
    }

    impl Interner {
        fn intern(&mut self, w: &'static str) -> u32 {
            let next = self.ids.len() as u32;
            *self.ids.entry(w).or_insert(next)
        }
    }

    /// The worker half: a hit to its id, a miss to a [`miss`] word naming
    /// the chunk's first listing of it.
    fn resolve(state: &Interner, words: &[&'static str]) -> (Vec<u32>, Vec<&'static str>) {
        let (mut row, mut misses) = (Vec::new(), Vec::<&'static str>::new());
        for w in words {
            row.push(match state.ids.get(w) {
                Some(&id) => id,
                None => match misses.iter().position(|m| m == w) {
                    Some(i) => miss(i),
                    None => {
                        misses.push(w);
                        miss(misses.len() - 1)
                    }
                },
            });
        }
        (row, misses)
    }

    #[test]
    fn grow_ordered_equals_the_serial_intern_loop() {
        // `d` is new in the first chunk and again, resolved against the
        // same block start, in a later one; `g` is first seen in a later
        // chunk; `a` and `b` repeat across blocks.
        let words = [
            "a", "b", "a", "c", "d", "b", "e", "d", "g", "a", "f", "g", "h", "b", "a", "i", "c",
            "j", "d", "a",
        ];
        let mut serial = Interner::default();
        for w in words {
            let id = serial.intern(w);
            serial.out.push(id);
        }
        for threads in [1, 2, 3, 7] {
            for block in [1, 5, words.len()] {
                let mut grown = Interner::default();
                grow_ordered(
                    &mut grown,
                    &words,
                    block,
                    threads,
                    0,
                    resolve,
                    |s, chunk, r| {
                        let (row, misses) = r;
                        assert_eq!(row.len(), chunk.len(), "fold sees its chunk's items");
                        for (w, &word) in chunk.iter().zip(&*row) {
                            let id = match miss_index(word) {
                                Some(i) => s.intern(misses[i]),
                                None => word,
                            };
                            assert_eq!(s.intern(w), id, "{w}");
                            s.out.push(id);
                        }
                    },
                );
                assert_eq!(grown.out, serial.out, "threads={threads} block={block}");
                assert_eq!(grown.ids, serial.ids, "threads={threads} block={block}");
            }
        }
    }

    #[test]
    fn miss_words_round_trip() {
        for i in [0, 1, 12345, MISS as usize - 1] {
            assert_eq!(miss_index(miss(i)), Some(i));
        }
        assert_eq!(miss_index(0), None);
        assert_eq!(miss_index(MISS - 1), None);
    }

    #[test]
    #[should_panic(expected = "miss index overflows its row word")]
    fn miss_index_at_the_flag_panics() {
        miss(MISS as usize);
    }
}
