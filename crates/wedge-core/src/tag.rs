//! Core identifier and permission types: memory tags, compartment ids and
//! memory protection modes — plus the cheap integer hasher the kernel's
//! hot-path tables are keyed with.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A multiplicative (Fibonacci) hasher for the kernel's dense integer keys
/// — tags, compartment ids, descriptor ids and tuples of them. These ids
/// are small sequential counters, so SipHash's DoS resistance buys nothing
/// here while costing a large share of each permission-cache and
/// segment-shard lookup on the tagged-memory fast path.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher {
    state: u64,
}

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        // The multiply concentrates entropy in the high bits; fold them
        // down for the table's bucket-index (low-bit) use.
        self.state ^ (self.state >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = (self.state ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u64(&mut self, value: u64) {
        self.state = (self.state ^ value).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_u32(&mut self, value: u32) {
        self.write_u64(u64::from(value));
    }

    fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }
}

/// `BuildHasher` for [`IdHasher`].
pub type IdHashBuilder = BuildHasherDefault<IdHasher>;

/// A `HashMap` keyed with [`IdHasher`] — the kernel's hot-path table type.
pub type IdHashMap<K, V> = HashMap<K, V, IdHashBuilder>;

/// A memory tag: the name under which privileges for a tagged segment are
//  granted. The tag namespace is flat — privileges for one tag never imply
/// privileges for another (§3.2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tag(pub u64);

impl std::fmt::Display for Tag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tag{}", self.0)
    }
}

/// Identifier of a compartment (an sthread or a callgate activation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CompartmentId(pub u64);

impl std::fmt::Display for CompartmentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Memory protection modes grantable for a tag.
///
/// The paper grants read, read-write, or copy-on-write; write-only is
/// deliberately not offered because commodity MMUs cannot express it
/// (§3.1), and we keep that restriction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemProt {
    /// The compartment may read memory with this tag.
    Read,
    /// The compartment may read and write memory with this tag.
    ReadWrite,
    /// The compartment sees the tag's contents but its writes go to a
    /// private copy, invisible to other compartments.
    CopyOnWrite,
}

impl MemProt {
    /// May a holder of `self` perform `mode` on the *shared* contents?
    /// Copy-on-write holders may read and (privately) write.
    pub(crate) fn permits(self, mode: AccessMode) -> bool {
        match (self, mode) {
            (_, AccessMode::Read) => true,
            (MemProt::ReadWrite, AccessMode::Write) => true,
            (MemProt::CopyOnWrite, AccessMode::Write) => true,
            (MemProt::Read, AccessMode::Write) => false,
        }
    }

    /// Does a write under this protection modify the shared segment (true)
    /// or a private overlay (false)?
    pub(crate) fn writes_shared(self) -> bool {
        matches!(self, MemProt::ReadWrite)
    }

    /// May a parent holding `self` grant `child` to a new sthread?
    ///
    /// Read-write dominates everything; read and copy-on-write can only
    /// delegate non-shared-writable views.
    pub fn allows_delegation_of(self, child: MemProt) -> bool {
        match self {
            MemProt::ReadWrite => true,
            MemProt::Read | MemProt::CopyOnWrite => {
                matches!(child, MemProt::Read | MemProt::CopyOnWrite)
            }
        }
    }
}

/// The two access modes checked at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessMode {
    /// A read access.
    Read,
    /// A write access.
    Write,
}

impl std::fmt::Display for AccessMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccessMode::Read => write!(f, "read"),
            AccessMode::Write => write!(f, "write"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_protection_blocks_writes() {
        assert!(MemProt::Read.permits(AccessMode::Read));
        assert!(!MemProt::Read.permits(AccessMode::Write));
    }

    #[test]
    fn read_write_permits_everything_shared() {
        assert!(MemProt::ReadWrite.permits(AccessMode::Read));
        assert!(MemProt::ReadWrite.permits(AccessMode::Write));
        assert!(MemProt::ReadWrite.writes_shared());
    }

    #[test]
    fn cow_permits_private_writes_only() {
        assert!(MemProt::CopyOnWrite.permits(AccessMode::Write));
        assert!(!MemProt::CopyOnWrite.writes_shared());
    }

    #[test]
    fn delegation_lattice() {
        // RW can delegate anything.
        for child in [MemProt::Read, MemProt::ReadWrite, MemProt::CopyOnWrite] {
            assert!(MemProt::ReadWrite.allows_delegation_of(child));
        }
        // Read and COW can never delegate shared-writable access.
        assert!(!MemProt::Read.allows_delegation_of(MemProt::ReadWrite));
        assert!(!MemProt::CopyOnWrite.allows_delegation_of(MemProt::ReadWrite));
        assert!(MemProt::Read.allows_delegation_of(MemProt::Read));
        assert!(MemProt::Read.allows_delegation_of(MemProt::CopyOnWrite));
        assert!(MemProt::CopyOnWrite.allows_delegation_of(MemProt::Read));
    }

    #[test]
    fn id_hash_map_distinguishes_keys() {
        let mut map: IdHashMap<Tag, u32> = IdHashMap::default();
        for i in 0..1000 {
            map.insert(Tag(i), i as u32);
        }
        for i in 0..1000 {
            assert_eq!(map.get(&Tag(i)), Some(&(i as u32)));
        }
        assert_eq!(map.get(&Tag(1000)), None);

        let mut tuples: IdHashMap<(CompartmentId, Tag), u8> = IdHashMap::default();
        tuples.insert((CompartmentId(1), Tag(2)), 1);
        tuples.insert((CompartmentId(2), Tag(1)), 2);
        assert_eq!(tuples.get(&(CompartmentId(1), Tag(2))), Some(&1));
        assert_eq!(tuples.get(&(CompartmentId(2), Tag(1))), Some(&2));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Tag(3).to_string(), "tag3");
        assert_eq!(CompartmentId(5).to_string(), "c5");
        assert_eq!(AccessMode::Read.to_string(), "read");
        assert_eq!(AccessMode::Write.to_string(), "write");
    }
}
