//! `cb-log`: record every memory access with its backtrace and allocation
//! site.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread::ThreadId;

use parking_lot::Mutex;

use wedge_core::{
    AccessMode, AccessSink, AllocEvent, CallEvent, CompartmentId, Kernel, MemAccessEvent,
    MemRegion, Tag, ViolationRecord,
};

/// Where a heap item was first allocated: the paper's cb-log stores "a full
/// backtrace for the original malloc where the accessed memory was first
/// allocated".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocationSite {
    /// The compartment that allocated.
    pub compartment: CompartmentId,
    /// The tag allocated from.
    pub tag: Tag,
    /// Payload offset within the tag's segment.
    pub alloc_offset: usize,
    /// Requested size.
    pub size: usize,
    /// Shadow backtrace at allocation time (innermost last).
    pub backtrace: Vec<String>,
    /// Whether the allocation went to the compartment's private segment
    /// (i.e. an untagged legacy `malloc`).
    pub private: bool,
}

impl AllocationSite {
    /// A human-readable allocation-site label, e.g.
    /// `"handle_request > parse_headers"`.
    pub(crate) fn site_label(&self) -> String {
        if self.backtrace.is_empty() {
            "<no backtrace>".to_string()
        } else {
            self.backtrace.join(" > ")
        }
    }
}

/// One recorded memory/global/descriptor access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// The accessing compartment.
    pub compartment: CompartmentId,
    /// Its human-readable name.
    pub compartment_name: String,
    /// Where the access landed.
    pub region: MemRegion,
    /// Offset within the item.
    pub offset: usize,
    /// Access length in bytes.
    pub len: usize,
    /// Read or write.
    pub mode: AccessMode,
    /// Whether the kernel allowed it.
    pub allowed: bool,
    /// Shadow backtrace at access time (outermost first).
    pub backtrace: Vec<String>,
}

#[derive(Default)]
struct CbLogState {
    records: Vec<TraceRecord>,
    allocations: HashMap<(Tag, usize), AllocationSite>,
    frees: Vec<(CompartmentId, Tag, usize)>,
    violations: Vec<ViolationRecord>,
    call_stacks: HashMap<ThreadId, Vec<String>>,
}

/// The cb-log tracer. Install it on a kernel with [`CbLog::install`]; every
/// access made while it is installed is recorded.
#[derive(Default)]
pub struct CbLog {
    state: Mutex<CbLogState>,
}

impl CbLog {
    /// Create an empty log.
    pub fn new() -> Arc<CbLog> {
        Arc::new(CbLog::default())
    }

    /// Install this log as the kernel's tracer.
    pub fn install(self: &Arc<Self>, kernel: &Kernel) {
        kernel.set_tracer(Some(self.clone() as Arc<dyn AccessSink>));
    }

    /// Remove any tracer from the kernel.
    pub fn uninstall(kernel: &Kernel) {
        kernel.set_tracer(None);
    }

    fn current_backtrace(state: &CbLogState) -> Vec<String> {
        state
            .call_stacks
            .get(&std::thread::current().id())
            .cloned()
            .unwrap_or_default()
    }

    /// All access records captured so far.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.state.lock().records.clone()
    }

    /// All violations observed (both denied and emulation-permitted).
    pub fn violations(&self) -> Vec<ViolationRecord> {
        self.state.lock().violations.clone()
    }

    /// Number of access records.
    pub fn record_count(&self) -> usize {
        self.state.lock().records.len()
    }

    /// Forget everything recorded so far (e.g. between workloads).
    pub fn clear(&self) {
        let mut st = self.state.lock();
        st.records.clear();
        st.allocations.clear();
        st.frees.clear();
        st.violations.clear();
        // Keep live call stacks: threads may still be inside functions.
    }

    /// Snapshot the log into an immutable, queryable [`crate::Trace`].
    pub fn snapshot(&self) -> crate::analyze::Trace {
        let st = self.state.lock();
        crate::analyze::Trace::from_parts(
            st.records.clone(),
            st.allocations.clone(),
            st.violations.clone(),
        )
    }
}

impl AccessSink for CbLog {
    fn on_access(&self, event: &MemAccessEvent) {
        let mut st = self.state.lock();
        let backtrace = Self::current_backtrace(&st);
        st.records.push(TraceRecord {
            compartment: event.compartment,
            compartment_name: event.compartment_name.clone(),
            region: event.region.clone(),
            offset: event.offset,
            len: event.len,
            mode: event.mode,
            allowed: event.allowed,
            backtrace,
        });
    }

    fn on_alloc(&self, event: &AllocEvent) {
        let mut st = self.state.lock();
        let backtrace = Self::current_backtrace(&st);
        st.allocations.insert(
            (event.tag, event.alloc_offset),
            AllocationSite {
                compartment: event.compartment,
                tag: event.tag,
                alloc_offset: event.alloc_offset,
                size: event.size,
                backtrace,
                private: event.private,
            },
        );
    }

    fn on_free(&self, compartment: CompartmentId, tag: Tag, alloc_offset: usize) {
        let mut st = self.state.lock();
        st.frees.push((compartment, tag, alloc_offset));
    }

    fn on_call(&self, event: &CallEvent) {
        let mut st = self.state.lock();
        let stack = st
            .call_stacks
            .entry(std::thread::current().id())
            .or_default();
        if event.entering {
            stack.push(event.function.clone());
        } else {
            // Pop the innermost matching frame; tolerate unbalanced exits.
            if let Some(pos) = stack.iter().rposition(|f| f == &event.function) {
                stack.remove(pos);
            }
        }
    }

    fn on_violation(&self, record: &ViolationRecord) {
        self.state.lock().violations.push(record.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wedge_core::{MemProt, SecurityPolicy, Wedge};

    #[test]
    fn records_accesses_with_backtraces() {
        let wedge = Wedge::init();
        let log = CbLog::new();
        log.install(wedge.kernel());
        let root = wedge.root();
        let tag = root.tag_new().unwrap();
        let buf = {
            let _f = root.trace_fn("setup_session");
            let _g = root.trace_fn("alloc_state");
            root.smalloc_init(tag, b"state").unwrap()
        };
        {
            let _f = root.trace_fn("handle_request");
            root.read_all(&buf).unwrap();
        }

        let records = log.records();
        // smalloc_init performs one write, handle_request one read.
        let read = records
            .iter()
            .find(|r| r.mode == AccessMode::Read)
            .expect("read record");
        assert_eq!(read.backtrace, vec!["handle_request".to_string()]);
        let write = records
            .iter()
            .find(|r| r.mode == AccessMode::Write)
            .expect("write record");
        assert_eq!(
            write.backtrace,
            vec!["setup_session".to_string(), "alloc_state".to_string()]
        );

        let site = log.state.lock().allocations[&(buf.tag, buf.offset)].clone();
        assert_eq!(site.size, 5);
        assert_eq!(site.site_label(), "setup_session > alloc_state");
    }

    #[test]
    fn violations_are_captured() {
        let wedge = Wedge::init();
        let log = CbLog::new();
        log.install(wedge.kernel());
        let root = wedge.root();
        let tag = root.tag_new().unwrap();
        let secret = root.smalloc_init(tag, b"secret").unwrap();
        let handle = root
            .sthread_create("worker", &SecurityPolicy::deny_all(), move |ctx| {
                let _ = ctx.read_all(&secret);
            })
            .unwrap();
        handle.join().unwrap();
        let violations = log.violations();
        assert_eq!(violations.len(), 1);
        assert!(!violations[0].emulated);
        assert_eq!(violations[0].compartment_name, "worker");
    }

    #[test]
    fn clear_resets_counts() {
        let wedge = Wedge::init();
        let log = CbLog::new();
        log.install(wedge.kernel());
        let root = wedge.root();
        let tag = root.tag_new().unwrap();
        root.smalloc_init(tag, b"x").unwrap();
        assert!(log.record_count() > 0);
        log.clear();
        assert_eq!(log.record_count(), 0);
        assert!(log.state.lock().allocations.is_empty());
    }

    #[test]
    fn distinguishes_granted_read_only_access() {
        let wedge = Wedge::init();
        let log = CbLog::new();
        log.install(wedge.kernel());
        let root = wedge.root();
        let tag = root.tag_new().unwrap();
        let buf = root.smalloc_init(tag, b"shared").unwrap();
        let mut policy = SecurityPolicy::deny_all();
        policy.sc_mem_add(tag, MemProt::Read);
        let handle = root
            .sthread_create("reader", &policy, move |ctx| {
                let _f = ctx.trace_fn("reader_main");
                ctx.read_all(&buf).unwrap();
            })
            .unwrap();
        handle.join().unwrap();
        let reader_records: Vec<_> = log
            .records()
            .into_iter()
            .filter(|r| r.compartment_name == "reader")
            .collect();
        assert_eq!(reader_records.len(), 1);
        assert!(reader_records[0].allowed);
        assert_eq!(reader_records[0].backtrace, vec!["reader_main".to_string()]);
    }
}
