//! Enumeration of set partitions by restricted-growth strings.
//!
//! A restricted-growth string (RGS) of length `n` is an array
//! `a[0..n]` with `a[0] = 0` and `a[i] ≤ max(a[0..i]) + 1`; RGSs are in
//! bijection with the set partitions of `{0, …, n-1}`, with block numbers
//! densely assigned in order of first appearance. Capping every entry at
//! `kmax - 1` restricts the enumeration to partitions with at most `kmax`
//! blocks, so the number of strings visited is
//! `Σ_{k'=1}^{kmax} S(n, k')` (Stirling numbers of the second kind).

/// Iterator over all set partitions of `n` elements into at most `kmax`
/// blocks, emitted as restricted-growth strings.
///
/// The iterator yields a fresh `Vec<u32>` per partition (callers keep the
/// strings, e.g. to rebuild the optimum); enumeration order is
/// lexicographic.
#[derive(Clone, Debug)]
pub struct RestrictedGrowth {
    /// Current string, or `None` once exhausted.
    current: Option<Vec<u32>>,
    /// `prefix_max[i] = max(current[0..=i])`.
    prefix_max: Vec<u32>,
    /// Maximum number of blocks.
    kmax: u32,
}

impl RestrictedGrowth {
    /// Enumerates the partitions of `n ≥ 1` elements into `1..=kmax`
    /// blocks. `kmax` is clamped to `n`; `kmax = 0` yields nothing.
    pub fn new(n: usize, kmax: usize) -> Self {
        let kmax = kmax.min(n) as u32;
        let current = (n > 0 && kmax > 0).then(|| vec![0u32; n]);
        Self {
            current,
            prefix_max: vec![0; n],
            kmax,
        }
    }
}

impl Iterator for RestrictedGrowth {
    type Item = Vec<u32>;

    fn next(&mut self) -> Option<Vec<u32>> {
        let cur = self.current.as_mut()?;
        let out = cur.clone();
        // Advance to the successor: find the rightmost position that can
        // be incremented (strictly below both prefix_max + 1 and kmax-1),
        // increment it, zero the suffix.
        let n = cur.len();
        let mut i = n;
        loop {
            if i <= 1 {
                // a[0] is pinned to 0: exhausted.
                self.current = None;
                return Some(out);
            }
            i -= 1;
            let cap = (self.prefix_max[i - 1] + 1).min(self.kmax - 1);
            if cur[i] < cap {
                cur[i] += 1;
                self.prefix_max[i] = self.prefix_max[i - 1].max(cur[i]);
                for c in &mut cur[i + 1..n] {
                    *c = 0;
                }
                for j in i + 1..n {
                    self.prefix_max[j] = self.prefix_max[j - 1];
                }
                return Some(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Bell numbers B(1..=7).
    const BELL: [usize; 7] = [1, 2, 5, 15, 52, 203, 877];

    #[test]
    fn counts_match_bell_numbers() {
        for (i, &b) in BELL.iter().enumerate() {
            let n = i + 1;
            assert_eq!(RestrictedGrowth::new(n, n).count(), b, "B({n})");
        }
    }

    #[test]
    fn counts_match_stirling_sums() {
        // Σ_{k'≤2} S(4, k') = 1 + 7 = 8 ; Σ_{k'≤3} S(5,k') = 1+15+25 = 41
        assert_eq!(RestrictedGrowth::new(4, 2).count(), 8);
        assert_eq!(RestrictedGrowth::new(5, 3).count(), 41);
    }

    #[test]
    fn strings_are_valid_and_unique() {
        let mut seen = HashSet::new();
        for rgs in RestrictedGrowth::new(6, 4) {
            assert_eq!(rgs[0], 0);
            let mut max = 0;
            for &a in &rgs {
                assert!(a <= max + 1, "growth violated in {rgs:?}");
                assert!(a < 4, "kmax violated in {rgs:?}");
                max = max.max(a);
            }
            assert!(seen.insert(rgs));
        }
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(RestrictedGrowth::new(0, 3).count(), 0);
        assert_eq!(RestrictedGrowth::new(3, 0).count(), 0);
        assert_eq!(RestrictedGrowth::new(1, 5).count(), 1);
        // kmax = 1: only the single-block partition.
        assert_eq!(RestrictedGrowth::new(6, 1).count(), 1);
    }

    #[test]
    fn first_and_last() {
        let all: Vec<_> = RestrictedGrowth::new(4, 4).collect();
        assert_eq!(all.first().unwrap(), &vec![0, 0, 0, 0]);
        assert_eq!(all.last().unwrap(), &vec![0, 1, 2, 3]);
    }
}
