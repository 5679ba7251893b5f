//! The analysed corpus holds a fixed number of allocations per column,
//! not a few per sentence.
//!
//! A counting global allocator tracks live blocks process-wide, so this
//! binary holds a single test: a second one running beside it would move
//! the count.

mod fixture;

use darwin_text::{Corpus, Sentence};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering::SeqCst};

/// [`System`], counting the blocks it has handed out and not taken back.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every method forwards to `System` with the caller's pointer and
// layout unchanged, so `System`'s guarantees carry over; the counter is
// only read, never used to compute an address.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(1, SeqCst);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(1, SeqCst);
        }
        p
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        System.realloc(p, layout, new_size)
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(1, SeqCst);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live() -> isize {
    LIVE.load(SeqCst)
}

/// After the 3 000-text fixture (past the fan-out threshold) is appended
/// at one and at two threads, the corpus retains its columns, its base-tag
/// table and its vocabulary — two strings per word — and nothing per
/// sentence. Reading a sentence allocates nothing: `Sentence` is a `Copy`
/// view that owns no memory.
#[test]
fn corpus_retains_allocations_per_column_not_per_sentence() {
    fn is_copy<T: Copy>() {}
    is_copy::<Sentence<'static>>();
    assert!(!std::mem::needs_drop::<Sentence<'static>>());

    let texts = fixture::fixture();
    for threads in [1, 2] {
        let before = live();
        let mut corpus = Corpus::new();
        corpus.append_texts(&texts, threads);
        let retained = live() - before;
        let words = corpus.vocab().len() as isize;
        assert_eq!(corpus.len(), texts.len());
        assert!(
            retained <= 2 * words + 16,
            "threads={threads}: {retained} live allocations for {} sentences \
             and {words} words",
            corpus.len()
        );

        let before = live();
        let mut seen = 0;
        for s in corpus.sentences() {
            seen += s.tokens().len() + s.tags().len() + s.heads().len();
            seen += (0..s.len())
                .map(|i| s.children_slice(i).len())
                .sum::<usize>();
        }
        assert_eq!(live(), before, "reading sentences allocates");
        assert!(seen > 3 * texts.len());
    }
}
