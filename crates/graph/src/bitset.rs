//! A compact fixed-size bit set.
//!
//! Site/link up-down state is consulted on every BFS step of component
//! recomputation — the hottest loop in the simulator — so it lives in a
//! dense `u64`-word bit set rather than a `Vec<bool>` or hash set.

/// Fixed-capacity bit set backed by `u64` words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates a set of `len` bits, all clear.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates a set of `len` bits, all set.
    pub fn all_set(len: usize) -> Self {
        let mut s = Self::new(len);
        for i in 0..len {
            s.set(i, true);
        }
        s
    }

    /// Capacity in bits.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range 0..{}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit {i} out of range 0..{}", self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Number of set bits.
    pub(crate) fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Sets every bit.
    pub fn fill(&mut self, value: bool) {
        let w = if value { u64::MAX } else { 0 };
        for word in &mut self.words {
            *word = w;
        }
        if value {
            // Clear the unused tail bits so count_ones stays correct.
            let tail = self.len % 64;
            if tail != 0 {
                if let Some(last) = self.words.last_mut() {
                    *last &= (1u64 << tail) - 1;
                }
            }
        }
    }

    /// Index of the lowest set bit, if any.
    pub(crate) fn first_one(&self) -> Option<usize> {
        self.words.iter().enumerate().find_map(|(wi, &w)| {
            if w == 0 {
                None
            } else {
                Some(wi * 64 + w.trailing_zeros() as usize)
            }
        })
    }

    /// `self |= other` (word-parallel union).
    ///
    /// # Panics
    /// Panics if the capacities differ.
    pub fn or_assign(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bit set capacities must match");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `self &= other` (word-parallel intersection).
    ///
    /// # Panics
    /// Panics if the capacities differ.
    pub(crate) fn and_assign(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bit set capacities must match");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// `self &= !other` (word-parallel difference).
    ///
    /// # Panics
    /// Panics if the capacities differ.
    pub(crate) fn and_not_assign(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bit set capacities must match");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// True if no bit is set.
    pub(crate) fn is_all_clear(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// True if `self` and `other` share at least one set bit.
    ///
    /// # Panics
    /// Panics if the capacities differ.
    pub fn intersects(&self, other: &BitSet) -> bool {
        assert_eq!(self.len, other.len, "bit set capacities must match");
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Copies `other` into `self` without reallocating.
    ///
    /// # Panics
    /// Panics if the capacities differ.
    pub fn copy_from(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bit set capacities must match");
        self.words.copy_from_slice(&other.words);
    }

    /// Iterates over indices of set bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + tz)
                }
            })
        })
    }
}

impl Default for BitSet {
    /// An empty zero-capacity set (placeholder for `mem::take`).
    fn default() -> Self {
        Self::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_all_clear() {
        let s = BitSet::new(130);
        assert_eq!(s.len(), 130);
        assert_eq!(s.count_ones(), 0);
        assert!(!s.get(0));
        assert!(!s.get(129));
    }

    #[test]
    fn set_and_get_roundtrip() {
        let mut s = BitSet::new(100);
        s.set(0, true);
        s.set(63, true);
        s.set(64, true);
        s.set(99, true);
        assert!(s.get(0) && s.get(63) && s.get(64) && s.get(99));
        assert!(!s.get(1) && !s.get(65));
        assert_eq!(s.count_ones(), 4);
        s.set(63, false);
        assert!(!s.get(63));
        assert_eq!(s.count_ones(), 3);
    }

    #[test]
    fn all_set_and_fill() {
        let s = BitSet::all_set(70);
        assert_eq!(s.count_ones(), 70);
        let mut t = BitSet::new(70);
        t.fill(true);
        assert_eq!(t, s);
        t.fill(false);
        assert_eq!(t.count_ones(), 0);
    }

    #[test]
    fn fill_true_does_not_overcount_tail() {
        let mut s = BitSet::new(65);
        s.fill(true);
        assert_eq!(s.count_ones(), 65);
    }

    #[test]
    fn iter_ones_yields_sorted_indices() {
        let mut s = BitSet::new(200);
        for i in [3, 64, 65, 128, 199] {
            s.set(i, true);
        }
        let got: Vec<usize> = s.iter_ones().collect();
        assert_eq!(got, vec![3, 64, 65, 128, 199]);
    }

    #[test]
    fn iter_ones_empty() {
        let s = BitSet::new(10);
        assert_eq!(s.iter_ones().count(), 0);
    }

    #[test]
    fn word_ops_match_bitwise_semantics() {
        let mut a = BitSet::new(130);
        let mut b = BitSet::new(130);
        for i in [0, 5, 63, 64, 100, 129] {
            a.set(i, true);
        }
        for i in [5, 64, 99, 129] {
            b.set(i, true);
        }
        let mut or = a.clone();
        or.or_assign(&b);
        let want: Vec<usize> = vec![0, 5, 63, 64, 99, 100, 129];
        assert_eq!(or.iter_ones().collect::<Vec<_>>(), want);
        let mut and = a.clone();
        and.and_assign(&b);
        assert_eq!(and.iter_ones().collect::<Vec<_>>(), vec![5, 64, 129]);
        let mut diff = a.clone();
        diff.and_not_assign(&b);
        assert_eq!(diff.iter_ones().collect::<Vec<_>>(), vec![0, 63, 100]);
        assert!(a.intersects(&b));
        assert!(!and.is_all_clear());
        assert!(BitSet::new(130).is_all_clear());
    }

    #[test]
    fn first_one_finds_lowest() {
        let mut s = BitSet::new(200);
        assert_eq!(s.first_one(), None);
        s.set(150, true);
        assert_eq!(s.first_one(), Some(150));
        s.set(64, true);
        assert_eq!(s.first_one(), Some(64));
        s.set(3, true);
        assert_eq!(s.first_one(), Some(3));
    }

    #[test]
    fn copy_from_reuses_allocation() {
        let mut a = BitSet::new(80);
        let mut b = BitSet::new(80);
        b.set(7, true);
        b.set(77, true);
        a.copy_from(&b);
        assert_eq!(a, b);
        b.set(7, false);
        assert!(a.get(7), "copy is independent");
    }

    #[test]
    #[should_panic(expected = "capacities must match")]
    fn mismatched_or_panics() {
        let mut a = BitSet::new(10);
        a.or_assign(&BitSet::new(11));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitSet::new(8).get(8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        BitSet::new(8).set(8, true);
    }
}
