//! Direct-mapped data cache with per-word versions and fill timestamps.

/// A direct-mapped cache over the shared word address space.
///
/// Every line records, besides tag and data, (a) the memory **version** of
/// each word at fill time — consumed by the coherence oracle — and (b) the
/// **phase** (barrier interval) and **ready cycle** of the fill — consumed
/// by the `Fresh` read handling and the prefetch timing model.
pub struct Cache {
    n_lines: usize,
    line_words: usize,
    tags: Vec<u64>,
    valid: Vec<bool>,
    filled_phase: Vec<u32>,
    ready_at: Vec<u64>,
    values: Vec<f64>,
    versions: Vec<u32>,
    /// Line was installed by a prefetch (line or vector), not a demand fill
    /// — consumed by the prefetch accuracy/timeliness metrics.
    prefetched: Vec<bool>,
    /// Word has been read since its line was installed.
    used: Vec<bool>,
}

/// Result of a lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hit {
    pub line: usize,
    pub filled_phase: u32,
    pub ready_at: u64,
}

impl Cache {
    pub fn new(n_lines: usize, line_words: usize) -> Cache {
        assert!(n_lines.is_power_of_two(), "direct-mapped index needs pow2");
        Cache {
            n_lines,
            line_words,
            tags: vec![0; n_lines],
            valid: vec![false; n_lines],
            filled_phase: vec![0; n_lines],
            ready_at: vec![0; n_lines],
            values: vec![0.0; n_lines * line_words],
            versions: vec![0; n_lines * line_words],
            prefetched: vec![false; n_lines],
            used: vec![false; n_lines * line_words],
        }
    }

    #[inline]
    pub fn line_words(&self) -> usize {
        self.line_words
    }

    /// Line base address of a word address.
    #[inline]
    pub fn line_addr(&self, addr: usize) -> u64 {
        (addr / self.line_words) as u64
    }

    #[inline]
    fn index_of(&self, line_addr: u64) -> usize {
        (line_addr as usize) & (self.n_lines - 1)
    }

    /// Probe for the line containing `addr`.
    #[inline]
    pub fn lookup(&self, addr: usize) -> Option<Hit> {
        let la = self.line_addr(addr);
        let idx = self.index_of(la);
        (self.valid[idx] && self.tags[idx] == la).then(|| Hit {
            line: idx,
            filled_phase: self.filled_phase[idx],
            ready_at: self.ready_at[idx],
        })
    }

    /// Read a word from a hit line: (value, version-at-fill).
    #[inline]
    pub fn read(&self, line: usize, addr: usize) -> (f64, u32) {
        let w = line * self.line_words + addr % self.line_words;
        (self.values[w], self.versions[w])
    }

    /// Install (or refresh) the line containing `addr` via a *demand* fill,
    /// with data and versions snapshotted from memory at *arrival* (the
    /// caller reads memory at the time the data semantically arrives).
    /// Returns the line.
    #[inline]
    pub fn install(
        &mut self,
        addr: usize,
        phase: u32,
        ready_at: u64,
        words: impl Iterator<Item = (f64, u32)>,
    ) -> usize {
        self.install_with(addr, phase, ready_at, false, words)
    }

    /// Install the line containing `addr` via a *prefetch* (line or vector);
    /// the line is tracked for the accuracy/timeliness metrics.
    #[inline]
    pub fn install_prefetch(
        &mut self,
        addr: usize,
        phase: u32,
        ready_at: u64,
        words: impl Iterator<Item = (f64, u32)>,
    ) -> usize {
        self.install_with(addr, phase, ready_at, true, words)
    }

    fn install_with(
        &mut self,
        addr: usize,
        phase: u32,
        ready_at: u64,
        prefetched: bool,
        words: impl Iterator<Item = (f64, u32)>,
    ) -> usize {
        let la = self.line_addr(addr);
        let idx = self.index_of(la);
        self.tags[idx] = la;
        self.valid[idx] = true;
        self.filled_phase[idx] = phase;
        self.ready_at[idx] = ready_at;
        self.prefetched[idx] = prefetched;
        let base = idx * self.line_words;
        let mut n = 0;
        for (k, (v, ver)) in words.enumerate() {
            self.values[base + k] = v;
            self.versions[base + k] = ver;
            self.used[base + k] = false;
            n += 1;
        }
        debug_assert_eq!(n, self.line_words);
        idx
    }

    /// Was this (present) line installed by a prefetch?
    #[inline]
    pub fn is_prefetched(&self, line: usize) -> bool {
        self.prefetched[line]
    }

    /// Record that `addr` in `line` was consumed; true on the first read of
    /// that word since the line's install (drives the accuracy metric).
    #[inline]
    pub fn mark_used(&mut self, line: usize, addr: usize) -> bool {
        let w = line * self.line_words + addr % self.line_words;
        !std::mem::replace(&mut self.used[w], true)
    }

    /// Update one word in place after the owning PE writes it
    /// (write-through with local update). No-op if the line isn't present.
    #[inline]
    pub fn update_word(&mut self, addr: usize, value: f64, version: u32) {
        if let Some(h) = self.lookup(addr) {
            let w = h.line * self.line_words + addr % self.line_words;
            self.values[w] = value;
            self.versions[w] = version;
        }
    }

    /// Invalidate the line containing `addr` (failure-injection tests).
    pub fn invalidate(&mut self, addr: usize) {
        let la = self.line_addr(addr);
        let idx = self.index_of(la);
        if self.valid[idx] && self.tags[idx] == la {
            self.valid[idx] = false;
        }
    }

    /// Drop everything.
    pub fn invalidate_all(&mut self) {
        self.valid.iter_mut().for_each(|v| *v = false);
    }

    /// First word address of the line containing `addr`.
    #[inline]
    pub fn line_base(&self, addr: usize) -> usize {
        addr / self.line_words * self.line_words
    }
}

#[cfg(test)]
mod tests;

#[cfg(test)]
mod unit {
    use super::*;

    fn fill_words(base_val: f64, n: usize) -> impl Iterator<Item = (f64, u32)> {
        (0..n).map(move |k| (base_val + k as f64, 1))
    }

    #[test]
    fn install_then_hit() {
        let mut c = Cache::new(8, 4);
        assert!(c.lookup(13).is_none());
        let line = c.install(13, 3, 100, fill_words(10.0, 4));
        let h = c.lookup(13).unwrap();
        assert_eq!(h.line, line);
        assert_eq!(h.filled_phase, 3);
        assert_eq!(h.ready_at, 100);
        // word 13 is offset 1 within line 3 (addresses 12..16)
        assert_eq!(c.read(line, 13), (11.0, 1));
        assert_eq!(c.read(line, 12), (10.0, 1));
        // Neighbouring line misses.
        assert!(c.lookup(16).is_none());
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut c = Cache::new(8, 4); // 8 lines: line addr mod 8
        c.install(0, 0, 0, fill_words(0.0, 4));
        assert!(c.lookup(0).is_some());
        // address 8*4 = 32 maps to the same index (line addr 8 ≡ 0 mod 8)
        c.install(32, 0, 0, fill_words(1.0, 4));
        assert!(c.lookup(0).is_none(), "conflicting fill must evict");
        assert!(c.lookup(32).is_some());
    }

    #[test]
    fn update_word_changes_value_and_version() {
        let mut c = Cache::new(8, 4);
        let line = c.install(4, 0, 0, fill_words(0.0, 4));
        c.update_word(5, 99.0, 7);
        assert_eq!(c.read(line, 5), (99.0, 7));
        // Updating an absent address is a no-op.
        c.update_word(100, 1.0, 1);
        assert!(c.lookup(100).is_none());
    }

    #[test]
    fn prefetch_and_used_tracking() {
        let mut c = Cache::new(8, 4);
        let line = c.install_prefetch(4, 0, 50, fill_words(0.0, 4));
        assert!(c.is_prefetched(line));
        assert!(c.mark_used(line, 5), "first read of word 5");
        assert!(!c.mark_used(line, 5), "second read of same word");
        assert!(c.mark_used(line, 4), "other word still fresh");
        // A demand refresh of the same line resets both flags.
        let line2 = c.install(4, 1, 60, fill_words(1.0, 4));
        assert_eq!(line, line2);
        assert!(!c.is_prefetched(line2));
        assert!(c.mark_used(line2, 5), "used bits cleared by reinstall");
    }

    #[test]
    fn invalidate_selectively() {
        let mut c = Cache::new(8, 4);
        c.install(0, 0, 0, fill_words(0.0, 4));
        c.install(4, 0, 0, fill_words(0.0, 4));
        c.invalidate(1);
        assert!(c.lookup(0).is_none());
        assert!(c.lookup(4).is_some());
        c.invalidate_all();
        assert!(c.lookup(4).is_none());
    }
}
