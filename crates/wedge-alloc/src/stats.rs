//! Allocation statistics used by benches, tests and the Figure 8 harness.

/// Counters describing allocator and tag-cache activity.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct AllocStats {
    /// Number of `tag_new`-style acquisitions satisfied from the reuse cache.
    pub tag_reuse_hits: u64,
    /// Number of acquisitions that had to create a fresh segment.
    pub tag_reuse_misses: u64,
    /// Number of simulated `mmap` calls (fresh segment creations).
    pub mmap_calls: u64,
    /// Number of simulated `munmap` calls (segments actually dropped).
    pub munmap_calls: u64,
    /// Number of tags deleted (released to the cache or dropped).
    pub tags_deleted: u64,
}

impl AllocStats {
    /// Merge another set of counters into this one.
    pub fn merge(&mut self, other: &AllocStats) {
        self.tag_reuse_hits += other.tag_reuse_hits;
        self.tag_reuse_misses += other.tag_reuse_misses;
        self.mmap_calls += other.mmap_calls;
        self.munmap_calls += other.munmap_calls;
        self.tags_deleted += other.tags_deleted;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_counters() {
        let mut a = AllocStats {
            tag_reuse_hits: 1,
            tag_reuse_misses: 2,
            mmap_calls: 3,
            munmap_calls: 4,
            tags_deleted: 5,
        };
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.tag_reuse_hits, 2);
        assert_eq!(a.tags_deleted, 10);
    }
}
