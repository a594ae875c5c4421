//! `cb-analyze`: query a captured trace for the information a programmer
//! needs when carving an application into least-privilege compartments.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use wedge_core::{AccessMode, MemProt, MemRegion, SecurityPolicy, Tag, ViolationRecord};

use crate::log::{AllocationSite, TraceRecord};

/// A memory item as the programmer thinks of it: a heap allocation
/// (identified by tag + allocation offset), a global variable, or a file
/// descriptor's backing object.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ItemKey {
    /// A tagged (or private) heap allocation.
    Alloc {
        /// The tag of the segment.
        tag: Tag,
        /// The allocation's payload offset within the segment.
        alloc_offset: usize,
    },
    /// A snapshot global variable.
    Global(String),
    /// A file-descriptor backing object, by name.
    Fd(String),
}

impl ItemKey {
    fn from_region(region: &MemRegion) -> ItemKey {
        match region {
            MemRegion::Tagged { tag, alloc_offset } => ItemKey::Alloc {
                tag: *tag,
                alloc_offset: *alloc_offset,
            },
            MemRegion::Global { name } => ItemKey::Global(name.clone()),
            MemRegion::Fd { name, .. } => ItemKey::Fd(name.clone()),
        }
    }
}

impl std::fmt::Display for ItemKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ItemKey::Alloc { tag, alloc_offset } => write!(f, "heap {tag}+{alloc_offset}"),
            ItemKey::Global(name) => write!(f, "global {name}"),
            ItemKey::Fd(name) => write!(f, "fd {name}"),
        }
    }
}

/// One row of a Query-1 result: a memory item, how it was accessed, and
/// where it was allocated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FootprintEntry {
    /// The memory item.
    pub item: ItemKey,
    /// Was it read?
    pub read: bool,
    /// Was it written?
    pub written: bool,
    /// Number of accesses observed.
    pub access_count: usize,
    /// Allocation-site backtrace, when the item is a heap allocation cb-log
    /// saw being allocated.
    pub allocation_site: Option<String>,
}

impl FootprintEntry {
    /// The minimal memory protection that would satisfy the observed
    /// accesses.
    pub(crate) fn required_prot(&self) -> MemProt {
        if self.written {
            MemProt::ReadWrite
        } else {
            MemProt::Read
        }
    }
}

/// A policy suggestion derived from a footprint (Query 1) — the set of
/// grants an sthread running the queried procedure would need.
#[derive(Debug, Clone, Default)]
pub struct SuggestedPolicy {
    /// Required tag grants.
    pub tags: BTreeMap<Tag, MemProt>,
    /// Globals the code touches (candidates for `BOUNDARY_VAR` tagging).
    pub globals: BTreeSet<String>,
    /// Descriptor-backed objects the code touches, by name.
    pub fds: BTreeSet<String>,
}

impl SuggestedPolicy {
    /// Convert the tag grants into a [`SecurityPolicy`] skeleton (globals
    /// and descriptors still need programmer decisions, exactly as the
    /// paper's workflow leaves them to the programmer).
    pub fn to_security_policy(&self) -> SecurityPolicy {
        let mut policy = SecurityPolicy::deny_all();
        for (tag, prot) in &self.tags {
            policy.sc_mem_add(*tag, *prot);
        }
        policy
    }
}

/// An immutable, queryable snapshot of a cb-log run (or of several merged
/// runs).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    records: Vec<TraceRecord>,
    allocations: HashMap<(Tag, usize), AllocationSite>,
    violations: Vec<ViolationRecord>,
}

impl Trace {
    /// Build a trace from raw cb-log state (used by [`crate::CbLog::snapshot`]).
    pub fn from_parts(
        records: Vec<TraceRecord>,
        allocations: HashMap<(Tag, usize), AllocationSite>,
        violations: Vec<ViolationRecord>,
    ) -> Trace {
        Trace {
            records,
            allocations,
            violations,
        }
    }

    /// All raw records.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// All observed violations.
    pub fn violations(&self) -> &[ViolationRecord] {
        &self.violations
    }

    /// Number of records in the trace.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Is the trace empty?
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Merge another trace into this one ("running the application on
    /// diverse innocuous workloads ... and running cb-analyze on the
    /// aggregation of these traces", §3.4).
    pub fn merge(&mut self, other: &Trace) {
        self.records.extend(other.records.iter().cloned());
        for (k, v) in &other.allocations {
            self.allocations.entry(*k).or_insert_with(|| v.clone());
        }
        self.violations.extend(other.violations.iter().cloned());
    }

    fn record_is_under(record: &TraceRecord, procedure: &str) -> bool {
        record.backtrace.iter().any(|f| f == procedure)
    }

    /// **Query 1**: given a procedure, what memory items do it *and all its
    /// descendants in the execution call graph* access, and with what modes?
    pub fn footprint_of(&self, procedure: &str) -> Vec<FootprintEntry> {
        let mut agg: BTreeMap<ItemKey, (bool, bool, usize)> = BTreeMap::new();
        for record in &self.records {
            if !Self::record_is_under(record, procedure) {
                continue;
            }
            let key = ItemKey::from_region(&record.region);
            let entry = agg.entry(key).or_insert((false, false, 0));
            match record.mode {
                AccessMode::Read => entry.0 = true,
                AccessMode::Write => entry.1 = true,
            }
            entry.2 += 1;
        }
        agg.into_iter()
            .map(|(item, (read, written, access_count))| {
                let allocation_site = match &item {
                    ItemKey::Alloc { tag, alloc_offset } => self
                        .allocations
                        .get(&(*tag, *alloc_offset))
                        .map(|s| s.site_label()),
                    _ => None,
                };
                FootprintEntry {
                    item,
                    read,
                    written,
                    access_count,
                    allocation_site,
                }
            })
            .collect()
    }

    /// **Query 2**: given a list of data items, which procedures use any of
    /// them? Returns the set of function names appearing in the backtraces
    /// of accesses to those items.
    pub fn users_of(&self, items: &[ItemKey]) -> BTreeSet<String> {
        let wanted: BTreeSet<&ItemKey> = items.iter().collect();
        let mut users = BTreeSet::new();
        for record in &self.records {
            let key = ItemKey::from_region(&record.region);
            if wanted.contains(&key) {
                for frame in &record.backtrace {
                    users.insert(frame.clone());
                }
                if record.backtrace.is_empty() {
                    users.insert(format!("<{}>", record.compartment_name));
                }
            }
        }
        users
    }

    /// **Query 3**: given a procedure known to generate sensitive data,
    /// where do it and its descendants *write*? The result feeds Query 2
    /// ("which procedures use these items?") when deciding what belongs
    /// inside a callgate.
    pub fn written_by(&self, procedure: &str) -> Vec<ItemKey> {
        let mut out = BTreeSet::new();
        for record in &self.records {
            if record.mode == AccessMode::Write && Self::record_is_under(record, procedure) {
                out.insert(ItemKey::from_region(&record.region));
            }
        }
        out.into_iter().collect()
    }

    /// Derive a grant suggestion for an sthread that will run `procedure`:
    /// the tags (with minimal protections), globals and descriptors its
    /// observed execution needed.
    pub fn suggest_policy(&self, procedure: &str) -> SuggestedPolicy {
        let mut suggestion = SuggestedPolicy::default();
        for entry in self.footprint_of(procedure) {
            match &entry.item {
                ItemKey::Alloc { tag, .. } => {
                    let prot = entry.required_prot();
                    suggestion
                        .tags
                        .entry(*tag)
                        .and_modify(|existing| {
                            if matches!(prot, MemProt::ReadWrite) {
                                *existing = MemProt::ReadWrite;
                            }
                        })
                        .or_insert(prot);
                }
                ItemKey::Global(name) => {
                    suggestion.globals.insert(name.clone());
                }
                ItemKey::Fd(name) => {
                    suggestion.fds.insert(name.clone());
                }
            }
        }
        suggestion
    }

    /// Grant suggestion for everything a *compartment* (by name) touched —
    /// used with the emulation library to learn "all protection violations
    /// that occur during a complete program execution".
    pub fn suggest_policy_for_compartment(&self, compartment_name: &str) -> SuggestedPolicy {
        let mut suggestion = SuggestedPolicy::default();
        for record in &self.records {
            if record.compartment_name != compartment_name {
                continue;
            }
            match ItemKey::from_region(&record.region) {
                ItemKey::Alloc { tag, .. } => {
                    let prot = if record.mode == AccessMode::Write {
                        MemProt::ReadWrite
                    } else {
                        MemProt::Read
                    };
                    suggestion
                        .tags
                        .entry(tag)
                        .and_modify(|existing| {
                            if matches!(prot, MemProt::ReadWrite) {
                                *existing = MemProt::ReadWrite;
                            }
                        })
                        .or_insert(prot);
                }
                ItemKey::Global(name) => {
                    suggestion.globals.insert(name);
                }
                ItemKey::Fd(name) => {
                    suggestion.fds.insert(name);
                }
            }
        }
        suggestion
    }

    /// Items whose accesses were denied (or would have been, in emulation
    /// mode) — the "what does this sthread still need?" report used after
    /// refactoring (§3.4).
    pub fn violation_items(&self, compartment_name: &str) -> Vec<ItemKey> {
        let mut out = BTreeSet::new();
        for v in &self.violations {
            if v.compartment_name == compartment_name {
                out.insert(ItemKey::from_region(&v.region));
            }
        }
        out.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CbLog;
    use wedge_core::{SecurityPolicy, Wedge};

    /// Build a small trace: `login` reads the password DB and writes the
    /// session state; `serve_page` reads the session state only.
    fn sample_trace() -> (Trace, wedge_core::SBuf, wedge_core::SBuf) {
        let wedge = Wedge::init();
        let log = CbLog::new();
        log.install(wedge.kernel());
        let root = wedge.root();
        let db_tag = root.tag_new().unwrap();
        let sess_tag = root.tag_new().unwrap();
        let passwords = root.smalloc_init(db_tag, b"alice:pw").unwrap();
        let session = root.smalloc(16, sess_tag).unwrap();
        {
            let _f = root.trace_fn("login");
            let _inner = root.trace_fn("check_password");
            root.read_all(&passwords).unwrap();
            root.write(&session, 0, b"uid=7").unwrap();
        }
        {
            let _f = root.trace_fn("serve_page");
            root.read(&session, 0, 5).unwrap();
        }
        (log.snapshot(), passwords, session)
    }

    #[test]
    fn query1_footprint_includes_descendants() {
        let (trace, passwords, session) = sample_trace();
        let fp = trace.footprint_of("login");
        let items: Vec<&ItemKey> = fp.iter().map(|e| &e.item).collect();
        assert!(items.contains(&&ItemKey::Alloc {
            tag: passwords.tag,
            alloc_offset: passwords.offset
        }));
        assert!(items.contains(&&ItemKey::Alloc {
            tag: session.tag,
            alloc_offset: session.offset
        }));
        // The password DB is only read; the session state is written.
        let pw_entry = fp
            .iter()
            .find(|e| matches!(&e.item, ItemKey::Alloc { tag, .. } if *tag == passwords.tag))
            .unwrap();
        assert!(pw_entry.read && !pw_entry.written);
        assert_eq!(pw_entry.required_prot(), MemProt::Read);
        let sess_entry = fp
            .iter()
            .find(|e| matches!(&e.item, ItemKey::Alloc { tag, .. } if *tag == session.tag))
            .unwrap();
        assert!(sess_entry.written);
        assert_eq!(sess_entry.required_prot(), MemProt::ReadWrite);

        // Querying the *descendant* directly also works.
        let fp_inner = trace.footprint_of("check_password");
        assert_eq!(fp_inner.len(), 2);
    }

    #[test]
    fn query2_users_of_finds_both_procedures() {
        let (trace, _passwords, session) = sample_trace();
        let users = trace.users_of(&[ItemKey::Alloc {
            tag: session.tag,
            alloc_offset: session.offset,
        }]);
        assert!(users.contains("login"));
        assert!(users.contains("check_password"));
        assert!(users.contains("serve_page"));
        assert!(!users.contains("unrelated"));
    }

    #[test]
    fn query3_written_by_reports_only_writes() {
        let (trace, passwords, session) = sample_trace();
        let written = trace.written_by("login");
        assert!(written.contains(&ItemKey::Alloc {
            tag: session.tag,
            alloc_offset: session.offset
        }));
        assert!(!written.contains(&ItemKey::Alloc {
            tag: passwords.tag,
            alloc_offset: passwords.offset
        }));
        assert!(trace.written_by("serve_page").is_empty());
    }

    #[test]
    fn suggest_policy_reflects_minimal_protections() {
        let (trace, passwords, session) = sample_trace();
        let suggestion = trace.suggest_policy("login");
        assert_eq!(suggestion.tags.get(&passwords.tag), Some(&MemProt::Read));
        assert_eq!(suggestion.tags.get(&session.tag), Some(&MemProt::ReadWrite));
        let policy = suggestion.to_security_policy();
        assert_eq!(policy.mem_grant(passwords.tag), Some(MemProt::Read));
        assert_eq!(policy.mem_grant(session.tag), Some(MemProt::ReadWrite));
    }

    #[test]
    fn merged_traces_cover_both_runs() {
        let (trace1, _, session) = sample_trace();
        let (trace2, passwords2, _) = sample_trace();
        let mut merged = trace1.clone();
        merged.merge(&trace2);
        assert_eq!(merged.len(), trace1.len() + trace2.len());
        // Items from both runs are visible.
        assert!(!merged
            .users_of(&[ItemKey::Alloc {
                tag: session.tag,
                alloc_offset: session.offset
            }])
            .is_empty());
        assert!(!merged
            .users_of(&[ItemKey::Alloc {
                tag: passwords2.tag,
                alloc_offset: passwords2.offset
            }])
            .is_empty());
    }

    #[test]
    fn violation_items_enumerate_missing_grants() {
        let wedge = Wedge::init();
        let log = CbLog::new();
        log.install(wedge.kernel());
        let root = wedge.root();
        let tag = root.tag_new().unwrap();
        let buf = root.smalloc_init(tag, b"needed-data").unwrap();
        wedge.kernel().set_emulation(true);
        let handle = root
            .sthread_create("worker", &SecurityPolicy::deny_all(), move |ctx| {
                // Emulation mode lets this succeed while logging a violation.
                ctx.read_all(&buf).unwrap();
            })
            .unwrap();
        handle.join().unwrap();
        let trace = log.snapshot();
        let items = trace.violation_items("worker");
        assert_eq!(items.len(), 1);
        assert!(matches!(items[0], ItemKey::Alloc { .. }));
        // The compartment-level suggestion includes the tag it needed.
        let suggestion = trace.suggest_policy_for_compartment("worker");
        assert!(suggestion.tags.contains_key(&tag));
    }

    #[test]
    fn empty_trace_answers_queries_gracefully() {
        let trace = Trace::default();
        assert!(trace.is_empty());
        assert!(trace.footprint_of("anything").is_empty());
        assert!(trace.users_of(&[ItemKey::Global("g".into())]).is_empty());
        assert!(trace.written_by("anything").is_empty());
    }

    #[test]
    fn itemkey_display_is_readable() {
        assert_eq!(
            ItemKey::Alloc {
                tag: Tag(3),
                alloc_offset: 16
            }
            .to_string(),
            "heap tag3+16"
        );
        assert_eq!(ItemKey::Global("cfg".into()).to_string(), "global cfg");
        assert_eq!(
            ItemKey::Fd("/etc/shadow".into()).to_string(),
            "fd /etc/shadow"
        );
    }
}
