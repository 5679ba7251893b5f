//! Open-addressing intern table for packed sketch keys.
//!
//! Tree ingest probes the pattern intern map once per enumerated key —
//! millions of probes per batch, read-only on the growth workers and
//! interning on the serial apply. A general `HashMap` pays two chained
//! lines per probe (control bytes, then the slot); this table packs the
//! whole slot into one `u128` word — a [`crate::sketch::SketchKey::pack`]
//! value occupies 101 bits, leaving 27 for the pattern id — so a probe
//! touches exactly one cache line.
//!
//! Linear probing, power-of-two capacity, load factor ≤ 1/2, no deletes
//! (patterns are never removed from a [`crate::TreeIndex`]).

/// Slot value marking an empty bucket. Never collides with a live slot:
/// a valid packed key has its POS-discriminant payload bits zero, so the
/// all-ones word is not `encode(id, key)` for any valid `(id, key)`.
const EMPTY: u128 = u128::MAX;

/// Bits of a slot occupied by the packed key.
const KEY_BITS: u32 = 101;
/// Mask selecting the packed-key bits of a slot.
const KEY_MASK: u128 = (1 << KEY_BITS) - 1;

/// Multiplicative hash of a packed key (the FxHash word mix over both
/// halves). Bucket selection uses the *high* bits of the product, where
/// a multiplicative hash concentrates its entropy.
#[inline]
fn hash(k: u128) -> u64 {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let h = (0u64.rotate_left(5) ^ (k as u64)).wrapping_mul(SEED);
    (h.rotate_left(5) ^ ((k >> 64) as u64)).wrapping_mul(SEED)
}

/// Packed-key → pattern-id intern table. See the module docs.
pub(crate) struct InternTable {
    /// `id << KEY_BITS | key`, or [`EMPTY`].
    slots: Vec<u128>,
    /// `64 - log2(slots.len())`: shifts the hash down to a bucket index.
    shift: u32,
    len: usize,
}

impl Default for InternTable {
    fn default() -> Self {
        const CAP: usize = 1024;
        InternTable {
            slots: vec![EMPTY; CAP],
            shift: 64 - CAP.trailing_zeros(),
            len: 0,
        }
    }
}

impl InternTable {
    #[inline]
    fn bucket(&self, k: u128) -> usize {
        (hash(k) >> self.shift) as usize
    }

    /// The id interned for `k`, if any.
    #[inline]
    pub(crate) fn get(&self, k: u128) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let mut b = self.bucket(k);
        loop {
            let slot = self.slots[b];
            if slot == EMPTY {
                return None;
            }
            if (slot ^ k) & KEY_MASK == 0 {
                return Some((slot >> KEY_BITS) as u32);
            }
            b = (b + 1) & mask;
        }
    }

    /// The id interned for `k`, interning `next_id()` first if absent.
    /// Returns `(id, freshly_inserted)`.
    #[inline]
    pub(crate) fn get_or_insert_with(
        &mut self,
        k: u128,
        next_id: impl FnOnce() -> u32,
    ) -> (u32, bool) {
        // Grow *before* probing so the claimed bucket stays valid.
        if self.len * 2 >= self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut b = self.bucket(k);
        loop {
            let slot = self.slots[b];
            if slot == EMPTY {
                let id = next_id();
                assert!(id < (1 << (128 - KEY_BITS)), "pattern id overflows slot");
                self.slots[b] = (id as u128) << KEY_BITS | k;
                self.len += 1;
                return (id, true);
            }
            if (slot ^ k) & KEY_MASK == 0 {
                return ((slot >> KEY_BITS) as u32, false);
            }
            b = (b + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; 0]);
        let cap = old.len() * 2;
        self.slots = vec![EMPTY; cap];
        self.shift = 64 - cap.trailing_zeros();
        let mask = cap - 1;
        for slot in old {
            if slot == EMPTY {
                continue;
            }
            let mut b = (hash(slot & KEY_MASK) >> self.shift) as usize;
            while self.slots[b] != EMPTY {
                b = (b + 1) & mask;
            }
            self.slots[b] = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_on_empty_is_none() {
        let t = InternTable::default();
        assert_eq!(t.get(0), None);
        assert_eq!(t.get(12345), None);
    }

    #[test]
    fn zero_is_a_valid_key() {
        // SketchKey::Term(Tok(Sym(0))) packs to 0 — the table must not
        // confuse it with an empty slot.
        let mut t = InternTable::default();
        let (id, fresh) = t.get_or_insert_with(0, || 7);
        assert_eq!((id, fresh), (7, true));
        assert_eq!(t.get(0), Some(7));
        let (id, fresh) = t.get_or_insert_with(0, || 99);
        assert_eq!((id, fresh), (7, false));
    }

    #[test]
    fn survives_growth() {
        let mut t = InternTable::default();
        // Insert far past the initial capacity, with adversarially
        // clustered keys (sequential packs are the common case).
        let n = 10_000u32;
        for i in 0..n {
            let (id, fresh) = t.get_or_insert_with((i as u128) << 2, || i);
            assert_eq!((id, fresh), (i, true));
        }
        for i in 0..n {
            assert_eq!(t.get((i as u128) << 2), Some(i), "key {i} after growth");
            let (id, fresh) = t.get_or_insert_with((i as u128) << 2, || u32::MAX);
            assert_eq!((id, fresh), (i, false));
        }
        assert_eq!(t.get((n as u128) << 2), None);
    }

    #[test]
    fn distinguishes_high_bit_keys() {
        let mut t = InternTable::default();
        let a = 1u128 << 100;
        let b = 1u128 << 99;
        t.get_or_insert_with(a, || 1);
        t.get_or_insert_with(b, || 2);
        assert_eq!(t.get(a), Some(1));
        assert_eq!(t.get(b), Some(2));
    }
}
