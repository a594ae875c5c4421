//! Boundary-tag, first-fit allocator managing the payload space of a single
//! tagged segment.
//!
//! The layout mirrors a classic `dlmalloc`-style design: every chunk is
//! preceded by a fixed-size header holding the chunk size, the size of the
//! previous chunk (so freed chunks can coalesce backwards), an in-use flag
//! and a magic word used to detect corruption and double frees. All
//! bookkeeping lives inside the segment's byte buffer so that a freshly
//! initialised segment can be captured as a *template* and later copied over
//! a reused segment (the paper's scrub-on-reuse optimisation).

use std::fmt;

/// Size in bytes of the per-chunk header.
pub const HEADER_SIZE: usize = 16;

/// Smallest segment a caller may create. Anything smaller cannot hold a
/// header plus a minimal payload.
pub const MIN_SEGMENT_SIZE: usize = 64;

/// Payloads are rounded up to this alignment, like `malloc`'s 16-byte
/// guarantee on 64-bit platforms.
const ALIGN: usize = 16;

/// Magic value stored in every chunk header.
const MAGIC: u32 = 0x57ED_6E01;

const FLAG_IN_USE: u32 = 1;

/// Errors returned by [`Arena`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// The segment has no free chunk large enough for the request.
    OutOfMemory {
        /// Bytes requested by the caller.
        requested: usize,
        /// Largest contiguous free payload currently available.
        largest_free: usize,
    },
    /// The requested size was zero.
    ZeroSize,
    /// The segment capacity passed to [`Arena::new`] was too small.
    SegmentTooSmall(usize),
    /// An offset passed to `free`/`usable_size` does not denote a live
    /// allocation (wrong offset, already freed, or corrupted header).
    InvalidPointer(usize),
    /// Header corruption was detected while walking the chunk list.
    Corrupted {
        /// Offset of the corrupt header.
        offset: usize,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OutOfMemory {
                requested,
                largest_free,
            } => write!(
                f,
                "out of memory: requested {requested} bytes, largest free block {largest_free}"
            ),
            AllocError::ZeroSize => write!(f, "zero-sized allocation"),
            AllocError::SegmentTooSmall(sz) => {
                write!(
                    f,
                    "segment of {sz} bytes is smaller than the {MIN_SEGMENT_SIZE}-byte minimum"
                )
            }
            AllocError::InvalidPointer(off) => write!(f, "invalid pointer at offset {off}"),
            AllocError::Corrupted { offset } => {
                write!(f, "corrupted chunk header at offset {offset}")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// A chunk header decoded from the segment bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Header {
    /// Total chunk size including the header, in bytes.
    size: u32,
    /// Total size of the physically preceding chunk (0 for the first chunk).
    prev_size: u32,
    flags: u32,
    magic: u32,
}

impl Header {
    fn in_use(&self) -> bool {
        self.flags & FLAG_IN_USE != 0
    }
}

/// Boundary-tag first-fit allocator over a byte buffer.
///
/// Offsets handed out by [`Arena::alloc`] are *payload* offsets into the
/// buffer returned by [`Arena::data`] / [`Arena::data_mut`].
#[derive(Clone)]
pub struct Arena {
    data: Vec<u8>,
    /// Number of live (in-use) allocations.
    live: usize,
    /// Sum of payload bytes currently allocated.
    allocated_bytes: usize,
}

impl fmt::Debug for Arena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Arena")
            .field("capacity", &self.data.len())
            .field("live", &self.live)
            .field("allocated_bytes", &self.allocated_bytes)
            .finish()
    }
}

fn round_up(n: usize, to: usize) -> usize {
    n.div_ceil(to) * to
}

impl Arena {
    /// Create an arena managing `capacity` bytes. The whole payload space
    /// starts as a single free chunk.
    pub fn new(capacity: usize) -> Result<Self, AllocError> {
        if capacity < MIN_SEGMENT_SIZE {
            return Err(AllocError::SegmentTooSmall(capacity));
        }
        let capacity = round_up(capacity, ALIGN);
        let mut arena = Arena {
            data: vec![0u8; capacity],
            live: 0,
            allocated_bytes: 0,
        };
        arena.write_header(
            0,
            Header {
                size: capacity as u32,
                prev_size: 0,
                flags: 0,
                magic: MAGIC,
            },
        );
        Ok(arena)
    }

    /// Produce the pristine bookkeeping image for a segment of `capacity`
    /// bytes: the bytes a fresh arena holds before any allocation. Copying
    /// this image over a reused segment both scrubs the previous tenant's
    /// data and re-initialises the allocator state (the paper's
    /// reuse-with-template optimisation).
    pub fn template(capacity: usize) -> Result<Vec<u8>, AllocError> {
        Ok(Arena::new(capacity)?.data)
    }

    /// Reset this arena from a pristine template previously produced by
    /// [`Arena::template`] for the same capacity.
    pub(crate) fn reset_from_template(&mut self, template: &[u8]) -> Result<(), AllocError> {
        if template.len() != self.data.len() {
            return Err(AllocError::SegmentTooSmall(template.len()));
        }
        self.data.copy_from_slice(template);
        self.live = 0;
        self.allocated_bytes = 0;
        Ok(())
    }

    /// Scrub the segment by zeroing payload space and rebuilding the initial
    /// free chunk. Slower than [`Arena::reset_from_template`]; used when no
    /// template is available.
    pub(crate) fn reset_zeroed(&mut self) {
        let capacity = self.data.len();
        self.data.fill(0);
        self.live = 0;
        self.allocated_bytes = 0;
        self.write_header(
            0,
            Header {
                size: capacity as u32,
                prev_size: 0,
                flags: 0,
                magic: MAGIC,
            },
        );
    }

    /// Total capacity of the managed segment in bytes (headers included).
    pub fn capacity(&self) -> usize {
        self.data.len()
    }

    /// Number of live allocations.
    pub fn live_allocations(&self) -> usize {
        self.live
    }

    /// Raw view of the segment bytes.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Mutable raw view of the segment bytes.
    ///
    /// Callers (the simulated kernel) must confine writes to payload ranges
    /// they obtained from [`Arena::alloc`]; the arena's headers are part of
    /// this buffer.
    pub fn data_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    fn read_header(&self, offset: usize) -> Result<Header, AllocError> {
        if offset + HEADER_SIZE > self.data.len() {
            return Err(AllocError::Corrupted { offset });
        }
        let b = &self.data[offset..offset + HEADER_SIZE];
        let header = Header {
            size: u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
            prev_size: u32::from_le_bytes([b[4], b[5], b[6], b[7]]),
            flags: u32::from_le_bytes([b[8], b[9], b[10], b[11]]),
            magic: u32::from_le_bytes([b[12], b[13], b[14], b[15]]),
        };
        if header.magic != MAGIC
            || (header.size as usize) > self.data.len()
            || (header.size as usize) < HEADER_SIZE
            || offset + header.size as usize > self.data.len()
        {
            return Err(AllocError::Corrupted { offset });
        }
        Ok(header)
    }

    fn write_header(&mut self, offset: usize, header: Header) {
        let b = &mut self.data[offset..offset + HEADER_SIZE];
        b[0..4].copy_from_slice(&header.size.to_le_bytes());
        b[4..8].copy_from_slice(&header.prev_size.to_le_bytes());
        b[8..12].copy_from_slice(&header.flags.to_le_bytes());
        b[12..16].copy_from_slice(&header.magic.to_le_bytes());
    }

    /// Allocate `size` payload bytes. Returns the payload offset.
    pub fn alloc(&mut self, size: usize) -> Result<usize, AllocError> {
        if size == 0 {
            return Err(AllocError::ZeroSize);
        }
        let need = round_up(size, ALIGN) + HEADER_SIZE;
        let mut offset = 0usize;
        let mut largest_free = 0usize;
        while offset < self.data.len() {
            let header = self.read_header(offset)?;
            let chunk_size = header.size as usize;
            if !header.in_use() {
                if chunk_size >= need {
                    return self.place(offset, header, need, size);
                }
                largest_free = largest_free.max(chunk_size.saturating_sub(HEADER_SIZE));
            }
            offset += chunk_size;
        }
        Err(AllocError::OutOfMemory {
            requested: size,
            largest_free,
        })
    }

    /// Split (if profitable) and mark the chunk at `offset` as in use.
    fn place(
        &mut self,
        offset: usize,
        header: Header,
        need: usize,
        payload_size: usize,
    ) -> Result<usize, AllocError> {
        let chunk_size = header.size as usize;
        let remainder = chunk_size - need;
        let used_size = if remainder >= HEADER_SIZE + ALIGN {
            // Split: the tail becomes a new free chunk.
            let tail_offset = offset + need;
            self.write_header(
                tail_offset,
                Header {
                    size: remainder as u32,
                    prev_size: need as u32,
                    flags: 0,
                    magic: MAGIC,
                },
            );
            // Fix the prev_size of the chunk after the tail, if any.
            let after = tail_offset + remainder;
            if after < self.data.len() {
                let mut next = self.read_header(after)?;
                next.prev_size = remainder as u32;
                self.write_header(after, next);
            }
            need
        } else {
            chunk_size
        };
        self.write_header(
            offset,
            Header {
                size: used_size as u32,
                prev_size: header.prev_size,
                flags: FLAG_IN_USE,
                magic: MAGIC,
            },
        );
        self.live += 1;
        self.allocated_bytes += payload_size;
        Ok(offset + HEADER_SIZE)
    }

    /// Free the allocation whose payload starts at `payload_offset`,
    /// coalescing with free neighbours.
    pub fn free(&mut self, payload_offset: usize) -> Result<(), AllocError> {
        if payload_offset < HEADER_SIZE || payload_offset > self.data.len() {
            return Err(AllocError::InvalidPointer(payload_offset));
        }
        let offset = payload_offset - HEADER_SIZE;
        let header = self
            .read_header(offset)
            .map_err(|_| AllocError::InvalidPointer(payload_offset))?;
        if !header.in_use() {
            return Err(AllocError::InvalidPointer(payload_offset));
        }

        let mut start = offset;
        let mut total = header.size as usize;
        let mut prev_size = header.prev_size;

        // Coalesce backwards.
        if header.prev_size != 0 {
            let prev_offset = offset - header.prev_size as usize;
            let prev = self.read_header(prev_offset)?;
            if !prev.in_use() {
                start = prev_offset;
                total += prev.size as usize;
                prev_size = prev.prev_size;
            }
        }

        // Coalesce forwards.
        let next_offset = offset + header.size as usize;
        if next_offset < self.data.len() {
            let next = self.read_header(next_offset)?;
            if !next.in_use() {
                total += next.size as usize;
            }
        }

        self.write_header(
            start,
            Header {
                size: total as u32,
                prev_size,
                flags: 0,
                magic: MAGIC,
            },
        );
        // Fix the prev_size of the chunk following the coalesced block.
        let after = start + total;
        if after < self.data.len() {
            let mut next = self.read_header(after)?;
            next.prev_size = total as u32;
            self.write_header(after, next);
        }

        self.live -= 1;
        self.allocated_bytes = self
            .allocated_bytes
            .saturating_sub((header.size as usize).saturating_sub(HEADER_SIZE));
        Ok(())
    }

    /// Usable payload size of a live allocation.
    pub fn usable_size(&self, payload_offset: usize) -> Result<usize, AllocError> {
        if payload_offset < HEADER_SIZE || payload_offset > self.data.len() {
            return Err(AllocError::InvalidPointer(payload_offset));
        }
        let header = self
            .read_header(payload_offset - HEADER_SIZE)
            .map_err(|_| AllocError::InvalidPointer(payload_offset))?;
        if !header.in_use() {
            return Err(AllocError::InvalidPointer(payload_offset));
        }
        Ok(header.size as usize - HEADER_SIZE)
    }

    /// Whether `payload_offset..payload_offset+len` lies entirely inside one
    /// live allocation. Used by the simulated kernel to catch out-of-bounds
    /// accesses within a tagged segment.
    pub fn contains_live_range(&self, payload_offset: usize, len: usize) -> bool {
        match self.usable_size(payload_offset) {
            Ok(usable) => len <= usable,
            Err(_) => false,
        }
    }

    /// Validate that `payload_offset..payload_offset+len` is one live
    /// allocation and return its bytes — the single-pass form of
    /// [`Arena::contains_live_range`] + [`Arena::data`] the kernel's read
    /// fast path uses (one header parse, one bounds check, no re-slicing).
    pub fn live_slice(&self, payload_offset: usize, len: usize) -> Option<&[u8]> {
        let usable = self.usable_size(payload_offset).ok()?;
        if len > usable {
            return None;
        }
        Some(&self.data[payload_offset..payload_offset + len])
    }

    /// Iterate over `(payload_offset, payload_size)` pairs of live
    /// allocations, in address order.
    pub fn live_ranges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut offset = 0usize;
        while offset < self.data.len() {
            let Ok(header) = self.read_header(offset) else {
                break;
            };
            if header.in_use() {
                out.push((offset + HEADER_SIZE, header.size as usize - HEADER_SIZE));
            }
            offset += header.size as usize;
        }
        out
    }

    /// Largest free payload currently available (after coalescing).
    pub fn largest_free(&self) -> usize {
        let mut largest = 0usize;
        let mut offset = 0usize;
        while offset < self.data.len() {
            let Ok(header) = self.read_header(offset) else {
                break;
            };
            if !header.in_use() {
                largest = largest.max(header.size as usize - HEADER_SIZE);
            }
            offset += header.size as usize;
        }
        largest
    }

    /// Validate the whole chunk list: headers parse, sizes tile the segment
    /// exactly, and `prev_size` links are consistent. Returns the number of
    /// chunks on success.
    pub fn check_consistency(&self) -> Result<usize, AllocError> {
        let mut offset = 0usize;
        let mut prev_size = 0usize;
        let mut chunks = 0usize;
        while offset < self.data.len() {
            let header = self.read_header(offset)?;
            if header.prev_size as usize != prev_size {
                return Err(AllocError::Corrupted { offset });
            }
            prev_size = header.size as usize;
            offset += header.size as usize;
            chunks += 1;
        }
        if offset != self.data.len() {
            return Err(AllocError::Corrupted { offset });
        }
        Ok(chunks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_tiny_segments() {
        assert!(matches!(Arena::new(8), Err(AllocError::SegmentTooSmall(8))));
        assert!(Arena::new(MIN_SEGMENT_SIZE).is_ok());
    }

    #[test]
    fn alloc_and_free_roundtrip() {
        let mut a = Arena::new(4096).unwrap();
        let p = a.alloc(100).unwrap();
        assert!(p >= HEADER_SIZE);
        assert_eq!(a.live_allocations(), 1);
        assert!(a.usable_size(p).unwrap() >= 100);
        a.free(p).unwrap();
        assert_eq!(a.live_allocations(), 0);
        assert_eq!(a.check_consistency().unwrap(), 1);
    }

    #[test]
    fn zero_size_rejected() {
        let mut a = Arena::new(4096).unwrap();
        assert_eq!(a.alloc(0), Err(AllocError::ZeroSize));
    }

    #[test]
    fn out_of_memory_reports_largest_free() {
        let mut a = Arena::new(256).unwrap();
        let err = a.alloc(10_000).unwrap_err();
        match err {
            AllocError::OutOfMemory {
                requested,
                largest_free,
            } => {
                assert_eq!(requested, 10_000);
                assert!(largest_free > 0);
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn double_free_detected() {
        let mut a = Arena::new(1024).unwrap();
        let p = a.alloc(32).unwrap();
        a.free(p).unwrap();
        assert_eq!(a.free(p), Err(AllocError::InvalidPointer(p)));
    }

    #[test]
    fn free_of_bogus_offset_detected() {
        let mut a = Arena::new(1024).unwrap();
        let _p = a.alloc(32).unwrap();
        assert!(a.free(5).is_err());
        assert!(a.free(999_999).is_err());
    }

    #[test]
    fn allocations_do_not_overlap() {
        let mut a = Arena::new(8192).unwrap();
        let mut ptrs = Vec::new();
        for i in 1..20 {
            ptrs.push((a.alloc(i * 7).unwrap(), i * 7));
        }
        let ranges = a.live_ranges();
        assert_eq!(ranges.len(), ptrs.len());
        for w in ranges.windows(2) {
            let (off_a, len_a) = w[0];
            let (off_b, _) = w[1];
            assert!(off_a + len_a <= off_b, "allocations overlap");
        }
        for (p, len) in &ptrs {
            assert!(a.contains_live_range(*p, *len));
        }
    }

    #[test]
    fn coalescing_restores_full_capacity() {
        let mut a = Arena::new(2048).unwrap();
        let initial_largest = a.largest_free();
        let p1 = a.alloc(100).unwrap();
        let p2 = a.alloc(200).unwrap();
        let p3 = a.alloc(300).unwrap();
        // Free out of order to exercise both directions of coalescing.
        a.free(p2).unwrap();
        a.free(p1).unwrap();
        a.free(p3).unwrap();
        assert_eq!(a.live_allocations(), 0);
        assert_eq!(a.largest_free(), initial_largest);
        assert_eq!(a.check_consistency().unwrap(), 1);
    }

    #[test]
    fn template_reset_scrubs_previous_contents() {
        let template = Arena::template(1024).unwrap();
        let mut a = Arena::new(1024).unwrap();
        let p = a.alloc(64).unwrap();
        a.data_mut()[p..p + 8].copy_from_slice(b"SECRET!!");
        a.reset_from_template(&template).unwrap();
        assert_eq!(a.live_allocations(), 0);
        assert!(!a.data().windows(8).any(|w| w == b"SECRET!!"));
        // The arena is usable again after reset.
        let p2 = a.alloc(64).unwrap();
        assert!(a.usable_size(p2).unwrap() >= 64);
    }

    #[test]
    fn reset_zeroed_scrubs_previous_contents() {
        let mut a = Arena::new(1024).unwrap();
        let p = a.alloc(64).unwrap();
        a.data_mut()[p..p + 6].copy_from_slice(b"secret");
        a.reset_zeroed();
        assert!(!a.data().windows(6).any(|w| w == b"secret"));
        assert!(a.alloc(64).is_ok());
    }

    #[test]
    fn reset_from_wrong_sized_template_fails() {
        let template = Arena::template(1024).unwrap();
        let mut a = Arena::new(2048).unwrap();
        assert!(a.reset_from_template(&template).is_err());
    }

    #[test]
    fn contains_live_range_respects_bounds() {
        let mut a = Arena::new(1024).unwrap();
        let p = a.alloc(100).unwrap();
        let usable = a.usable_size(p).unwrap();
        assert!(a.contains_live_range(p, usable));
        assert!(!a.contains_live_range(p, usable + 1));
        assert!(!a.contains_live_range(p + 1, usable));
    }

    #[test]
    fn many_alloc_free_cycles_stay_consistent() {
        let mut a = Arena::new(16 * 1024).unwrap();
        let mut live = Vec::new();
        for round in 0..50 {
            for i in 0..10 {
                if let Ok(p) = a.alloc(16 + (round * 13 + i * 7) % 200) {
                    live.push(p);
                }
            }
            // Free every other allocation.
            let mut idx = 0;
            live.retain(|p| {
                idx += 1;
                if idx % 2 == 0 {
                    a.free(*p).unwrap();
                    false
                } else {
                    true
                }
            });
            a.check_consistency().unwrap();
        }
        for p in live {
            a.free(p).unwrap();
        }
        assert_eq!(a.live_allocations(), 0);
        a.check_consistency().unwrap();
    }
}
