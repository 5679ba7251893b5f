//! The workspace's one ordered, scoped fan-out.

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
}
