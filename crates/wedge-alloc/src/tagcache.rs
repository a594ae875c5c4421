//! Userland cache of deleted tag segments.
//!
//! §4.1 of the paper: "We mitigate system call overhead by caching a
//! free-list of previously deleted tags (i.e., memory regions) in userland,
//! and reusing them if possible, hence avoiding the system call. To provide
//! secrecy, we scrub a tag's memory contents upon tag reuse. Rather than
//! scrubbing with (say) zeros, we copy cached, pre-initialized smalloc
//! bookkeeping structures into it."
//!
//! [`TagCache`] reproduces exactly that: deleted segments are parked on a
//! per-capacity free list, and `acquire` prefers recycling one of them,
//! scrubbing it by copying a cached pristine [`Arena::template`]. The
//! fresh-allocation path models the `mmap` + bookkeeping-initialisation cost
//! the cache is designed to avoid; the Figure 8 benchmark measures both
//! paths.

use std::collections::HashMap;

use crate::arena::{AllocError, Arena};
use crate::segment::{Segment, SegmentId};
use crate::stats::AllocStats;

/// Configuration for the tag cache.
#[derive(Debug, Clone)]
pub struct TagCacheConfig {
    /// Default segment capacity used when a caller does not request a
    /// specific size (the paper uses one fixed tag segment size).
    pub default_segment_size: usize,
    /// Maximum number of parked segments per capacity class. Beyond this,
    /// released segments are dropped (the simulated `munmap`).
    pub max_cached_per_size: usize,
    /// Whether reuse is enabled at all. Disabling it forces every acquire
    /// down the fresh-"mmap" path — the Figure 8 worst case and the
    /// tag-reuse ablation.
    pub reuse_enabled: bool,
    /// Whether to scrub by template copy (`true`, the paper's optimisation)
    /// or by zeroing (`false`).
    pub scrub_with_template: bool,
}

impl Default for TagCacheConfig {
    fn default() -> Self {
        TagCacheConfig {
            default_segment_size: 64 * 1024,
            max_cached_per_size: 64,
            reuse_enabled: true,
            scrub_with_template: true,
        }
    }
}

/// Free-list cache of deleted tag segments with scrub-on-reuse.
#[derive(Debug)]
pub struct TagCache {
    config: TagCacheConfig,
    /// Parked (deleted) segments keyed by capacity.
    free: HashMap<usize, Vec<Segment>>,
    /// Pristine bookkeeping templates keyed by capacity.
    templates: HashMap<usize, Vec<u8>>,
    next_segment_id: u64,
    stats: AllocStats,
}

impl Default for TagCache {
    fn default() -> Self {
        TagCache::new(TagCacheConfig::default())
    }
}

impl TagCache {
    /// Create a cache with the given configuration.
    pub fn new(config: TagCacheConfig) -> Self {
        TagCache {
            config,
            free: HashMap::new(),
            templates: HashMap::new(),
            next_segment_id: 1,
            stats: AllocStats::default(),
        }
    }

    /// Cache configuration.
    pub fn config(&self) -> &TagCacheConfig {
        &self.config
    }

    /// Allocation statistics accumulated so far.
    pub fn stats(&self) -> &AllocStats {
        &self.stats
    }

    /// Number of segments currently parked in the cache.
    pub(crate) fn cached_segments(&self) -> usize {
        self.free.values().map(Vec::len).sum()
    }

    fn next_id(&mut self) -> SegmentId {
        let id = SegmentId(self.next_segment_id);
        self.next_segment_id += 1;
        id
    }

    fn template_for(&mut self, capacity: usize) -> Result<&[u8], AllocError> {
        if let std::collections::hash_map::Entry::Vacant(slot) = self.templates.entry(capacity) {
            slot.insert(Arena::template(capacity)?);
        }
        Ok(self.templates.get(&capacity).expect("just inserted"))
    }

    /// Acquire a segment of the default size (the `tag_new()` fast path).
    pub fn acquire_default(&mut self) -> Result<Segment, AllocError> {
        self.acquire(self.config.default_segment_size)
    }

    /// Acquire a segment of `capacity` bytes, recycling a parked one if
    /// possible (scrubbed first), otherwise performing the simulated `mmap`.
    pub fn acquire(&mut self, capacity: usize) -> Result<Segment, AllocError> {
        if self.config.reuse_enabled {
            if let Some(list) = self.free.get_mut(&capacity) {
                if let Some(mut seg) = list.pop() {
                    let new_id = self.next_id();
                    if self.config.scrub_with_template {
                        let template = {
                            // Ensure the template exists, then copy-free borrow.
                            self.template_for(seg.capacity())?.to_vec()
                        };
                        seg.recycle_from_template(new_id, &template)?;
                    } else {
                        seg.recycle_zeroed(new_id);
                    }
                    self.stats.tag_reuse_hits += 1;
                    return Ok(seg);
                }
            }
        }
        self.stats.tag_reuse_misses += 1;
        self.stats.mmap_calls += 1;
        let id = self.next_id();
        Segment::new(id, capacity)
    }

    /// Pre-populate the free list with `count` default-size segments (paying
    /// the simulated `mmap` up front), so a burst of `acquire_default`
    /// callers — e.g. a pooled-worker pre-warm in the sharded kernel — hits
    /// the recycle path instead of faulting in fresh segments one by one.
    /// Returns how many segments were actually parked (bounded by
    /// `max_cached_per_size`; zero when reuse is disabled).
    pub fn prewarm(&mut self, count: usize) -> Result<usize, AllocError> {
        if !self.config.reuse_enabled {
            return Ok(0);
        }
        let capacity = self.config.default_segment_size;
        let parked = self.free.get(&capacity).map(Vec::len).unwrap_or(0);
        let room = self
            .config
            .max_cached_per_size
            .saturating_sub(parked)
            .min(count);
        for _ in 0..room {
            self.stats.mmap_calls += 1;
            let id = self.next_id();
            let segment = Segment::new(id, capacity)?;
            self.free.entry(capacity).or_default().push(segment);
        }
        Ok(room)
    }

    /// Release (delete) a tag's segment back to the cache. If the per-size
    /// cache is full the segment is dropped, which models `munmap`.
    pub fn release(&mut self, segment: Segment) {
        self.stats.tags_deleted += 1;
        if !self.config.reuse_enabled {
            self.stats.munmap_calls += 1;
            return;
        }
        let entry = self.free.entry(segment.capacity()).or_default();
        if entry.len() < self.config.max_cached_per_size {
            entry.push(segment);
        } else {
            self.stats.munmap_calls += 1;
        }
    }

    /// Drop all parked segments and cached templates.
    pub fn clear(&mut self) {
        let parked = self.cached_segments();
        self.stats.munmap_calls += parked as u64;
        self.free.clear();
        self.templates.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_without_history_is_a_miss() {
        let mut cache = TagCache::default();
        let seg = cache.acquire(4096).unwrap();
        assert_eq!(seg.generation(), 1);
        assert_eq!(cache.stats().tag_reuse_misses, 1);
        assert_eq!(cache.stats().tag_reuse_hits, 0);
        assert_eq!(cache.stats().mmap_calls, 1);
    }

    #[test]
    fn release_then_acquire_reuses_and_scrubs() {
        let mut cache = TagCache::default();
        let mut seg = cache.acquire(4096).unwrap();
        let p = seg.arena_mut().alloc(64).unwrap();
        seg.arena_mut().data_mut()[p..p + 7].copy_from_slice(b"privkey");
        let old_id = seg.id();
        cache.release(seg);

        let seg2 = cache.acquire(4096).unwrap();
        assert_ne!(
            seg2.id(),
            old_id,
            "recycled segment must get a fresh identity"
        );
        assert_eq!(seg2.generation(), 2);
        assert!(
            !seg2.arena().data().windows(7).any(|w| w == b"privkey"),
            "recycled segment must be scrubbed"
        );
        assert_eq!(cache.stats().tag_reuse_hits, 1);
    }

    #[test]
    fn different_capacities_do_not_share_free_lists() {
        let mut cache = TagCache::default();
        let seg = cache.acquire(4096).unwrap();
        cache.release(seg);
        let seg2 = cache.acquire(8192).unwrap();
        assert_eq!(seg2.generation(), 1, "different capacity must not reuse");
        assert_eq!(cache.cached_segments(), 1);
    }

    #[test]
    fn reuse_disabled_always_takes_mmap_path() {
        let mut cache = TagCache::new(TagCacheConfig {
            reuse_enabled: false,
            ..TagCacheConfig::default()
        });
        let seg = cache.acquire(4096).unwrap();
        cache.release(seg);
        let seg2 = cache.acquire(4096).unwrap();
        assert_eq!(seg2.generation(), 1);
        assert_eq!(cache.stats().tag_reuse_hits, 0);
        assert_eq!(cache.stats().mmap_calls, 2);
        assert_eq!(cache.stats().munmap_calls, 1);
    }

    #[test]
    fn zero_scrub_mode_also_scrubs() {
        let mut cache = TagCache::new(TagCacheConfig {
            scrub_with_template: false,
            ..TagCacheConfig::default()
        });
        let mut seg = cache.acquire(2048).unwrap();
        let p = seg.arena_mut().alloc(16).unwrap();
        seg.arena_mut().data_mut()[p..p + 6].copy_from_slice(b"secret");
        cache.release(seg);
        let seg2 = cache.acquire(2048).unwrap();
        assert!(!seg2.arena().data().windows(6).any(|w| w == b"secret"));
    }

    #[test]
    fn cache_overflow_drops_segments() {
        let mut cache = TagCache::new(TagCacheConfig {
            max_cached_per_size: 2,
            ..TagCacheConfig::default()
        });
        for _ in 0..4 {
            let seg = cache.acquire(1024).unwrap();
            cache.release(seg);
            // Immediately re-acquire so the free list refills each round.
        }
        // Park more than the limit.
        let segs: Vec<_> = (0..4).map(|_| cache.acquire(1024).unwrap()).collect();
        for s in segs {
            cache.release(s);
        }
        assert!(cache.cached_segments() <= 2);
        assert!(cache.stats().munmap_calls >= 2);
    }

    #[test]
    fn prewarm_fills_the_free_list_and_acquires_recycle() {
        let mut cache = TagCache::default();
        assert_eq!(cache.prewarm(3).unwrap(), 3);
        assert_eq!(cache.cached_segments(), 3);
        let seg = cache.acquire_default().unwrap();
        assert_eq!(seg.generation(), 2, "prewarmed segment is recycled");
        assert_eq!(cache.stats().tag_reuse_hits, 1);

        // Prewarm respects the per-size cap and the reuse switch.
        let mut capped = TagCache::new(TagCacheConfig {
            max_cached_per_size: 2,
            ..TagCacheConfig::default()
        });
        assert_eq!(capped.prewarm(10).unwrap(), 2);
        let mut disabled = TagCache::new(TagCacheConfig {
            reuse_enabled: false,
            ..TagCacheConfig::default()
        });
        assert_eq!(disabled.prewarm(5).unwrap(), 0);
    }

    #[test]
    fn clear_empties_the_cache() {
        let mut cache = TagCache::default();
        let seg = cache.acquire(1024).unwrap();
        cache.release(seg);
        assert_eq!(cache.cached_segments(), 1);
        cache.clear();
        assert_eq!(cache.cached_segments(), 0);
    }

    #[test]
    fn acquire_default_uses_configured_size() {
        let mut cache = TagCache::new(TagCacheConfig {
            default_segment_size: 8192,
            ..TagCacheConfig::default()
        });
        let seg = cache.acquire_default().unwrap();
        assert!(seg.capacity() >= 8192);
    }
}
