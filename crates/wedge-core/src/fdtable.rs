//! The simulated kernel's file-descriptor table.
//!
//! Sthread policies list "the file descriptors the sthread may access, and
//! the permissions for each (read, write, read-write)" (§3.1). The
//! reproduction keeps descriptors in the kernel; each descriptor is backed
//! by an in-memory object (a file image or a byte stream), and every
//! `fd_read` / `fd_write` through a [`crate::SthreadCtx`] is checked against
//! the caller's policy.

use std::sync::Arc;

use parking_lot::Mutex;

/// A file-descriptor identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FdId(pub u64);

impl std::fmt::Display for FdId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fd{}", self.0)
    }
}

/// Permissions grantable on a file descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FdProt {
    /// May read only.
    Read,
    /// May write only.
    Write,
    /// May read and write.
    ReadWrite,
}

impl FdProt {
    /// Does this grant allow reading?
    pub(crate) fn can_read(self) -> bool {
        matches!(self, FdProt::Read | FdProt::ReadWrite)
    }

    /// Does this grant allow writing?
    pub(crate) fn can_write(self) -> bool {
        matches!(self, FdProt::Write | FdProt::ReadWrite)
    }

    /// May a holder of `self` delegate `child` to a new sthread?
    pub fn allows_delegation_of(self, child: FdProt) -> bool {
        match self {
            FdProt::ReadWrite => true,
            FdProt::Read => matches!(child, FdProt::Read),
            FdProt::Write => matches!(child, FdProt::Write),
        }
    }
}

/// The object a descriptor refers to.
#[derive(Debug)]
pub enum FdBacking {
    /// An in-memory file image with a read cursor. Writes append.
    File {
        /// File name (for diagnostics and Crowbar traces).
        name: String,
        /// Current contents.
        data: Vec<u8>,
        /// Read cursor.
        pos: usize,
    },
    /// A unidirectional byte stream (pipe-like): writes push to the buffer,
    /// reads drain from the front.
    Stream {
        /// Stream name.
        name: String,
        /// Buffered, not-yet-read bytes.
        buffer: Vec<u8>,
    },
}

impl FdBacking {
    /// Human-readable name of the backing object.
    pub fn name(&self) -> &str {
        match self {
            FdBacking::File { name, .. } | FdBacking::Stream { name, .. } => name,
        }
    }
}

/// A descriptor table entry (shared so that duplicated descriptors alias).
#[derive(Debug, Clone)]
pub struct FdEntry {
    backing: Arc<Mutex<FdBacking>>,
}

impl FdEntry {
    /// Create a file-backed descriptor with initial contents.
    pub fn file(name: &str, data: Vec<u8>) -> Self {
        FdEntry {
            backing: Arc::new(Mutex::new(FdBacking::File {
                name: name.to_string(),
                data,
                pos: 0,
            })),
        }
    }

    /// Create a stream-backed descriptor.
    pub fn stream(name: &str) -> Self {
        FdEntry {
            backing: Arc::new(Mutex::new(FdBacking::Stream {
                name: name.to_string(),
                buffer: Vec::new(),
            })),
        }
    }

    /// Name of the backing object.
    pub fn name(&self) -> String {
        self.backing.lock().name().to_string()
    }

    /// Read up to `len` bytes.
    pub fn read(&self, len: usize) -> Vec<u8> {
        let mut backing = self.backing.lock();
        match &mut *backing {
            FdBacking::File { data, pos, .. } => {
                let end = (*pos + len).min(data.len());
                let out = data[*pos..end].to_vec();
                *pos = end;
                out
            }
            FdBacking::Stream { buffer, .. } => {
                let take = len.min(buffer.len());
                buffer.drain(..take).collect()
            }
        }
    }

    /// Read everything remaining.
    pub fn read_all(&self) -> Vec<u8> {
        self.read(usize::MAX / 2)
    }

    /// Write (append) bytes; returns the number written.
    pub fn write(&self, bytes: &[u8]) -> usize {
        let mut backing = self.backing.lock();
        match &mut *backing {
            FdBacking::File { data, .. } => {
                data.extend_from_slice(bytes);
                bytes.len()
            }
            FdBacking::Stream { buffer, .. } => {
                buffer.extend_from_slice(bytes);
                bytes.len()
            }
        }
    }

    /// Current size of the backing contents (file length or buffered bytes).
    pub fn len(&self) -> usize {
        let backing = self.backing.lock();
        match &*backing {
            FdBacking::File { data, .. } => data.len(),
            FdBacking::Stream { buffer, .. } => buffer.len(),
        }
    }

    /// Is the backing object empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fdprot_capabilities() {
        assert!(FdProt::Read.can_read() && !FdProt::Read.can_write());
        assert!(!FdProt::Write.can_read() && FdProt::Write.can_write());
        assert!(FdProt::ReadWrite.can_read() && FdProt::ReadWrite.can_write());
    }

    #[test]
    fn fdprot_delegation() {
        assert!(FdProt::ReadWrite.allows_delegation_of(FdProt::Read));
        assert!(FdProt::ReadWrite.allows_delegation_of(FdProt::Write));
        assert!(!FdProt::Read.allows_delegation_of(FdProt::Write));
        assert!(!FdProt::Write.allows_delegation_of(FdProt::ReadWrite));
        assert!(FdProt::Read.allows_delegation_of(FdProt::Read));
    }

    #[test]
    fn file_reads_advance_cursor_and_writes_append() {
        let fd = FdEntry::file("/etc/shadow", b"root:hash".to_vec());
        assert_eq!(fd.read(4), b"root");
        assert_eq!(fd.read(100), b":hash");
        assert_eq!(fd.read(10), b"");
        fd.write(b"\nuser:x");
        assert_eq!(fd.len(), b"root:hash\nuser:x".len());
        assert_eq!(fd.read(100), b"\nuser:x");
    }

    #[test]
    fn stream_is_fifo_and_draining() {
        let fd = FdEntry::stream("conn");
        fd.write(b"abc");
        fd.write(b"def");
        assert_eq!(fd.read(4), b"abcd");
        assert_eq!(fd.read_all(), b"ef");
        assert!(fd.is_empty());
    }

    #[test]
    fn cloned_entries_alias_the_same_backing() {
        let fd = FdEntry::stream("pipe");
        let dup = fd.clone();
        fd.write(b"xyz");
        assert_eq!(dup.read_all(), b"xyz");
    }
}
