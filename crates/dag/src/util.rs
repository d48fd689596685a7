//! Small utilities shared by the graph algorithms: a flat bitset over
//! dense node indices.

/// A fixed-capacity bitset over `usize` words.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates a bitset able to hold `len` bits, all clear.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Sets bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Tests bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Clears all bits.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_basics() {
        let mut b = BitSet::new(130);
        assert!((0..130).all(|i| !b.get(i)));
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1));
        b.clear(64);
        assert!(!b.get(64) && b.get(0) && b.get(129));
        b.clear_all();
        assert!((0..130).all(|i| !b.get(i)));
    }
}
