//! Static analysis as an alternative to run-time analysis (paper §7).
//!
//! The paper's discussion section sketches the trade-off precisely: *"Static
//! analysis will yield a superset of the required permissions for an sthread,
//! as some code paths may never execute in practice. Static analysis would
//! report the exhaustive set of permissions for an sthread not to encounter a
//! protection violation. Yet these permissions could well include privileges
//! for sensitive data that could allow an exploit to leak that data."*
//!
//! This module makes that trade-off measurable. A [`ProgramModel`] is a small
//! whole-program summary — procedures, their call edges, and the memory items
//! each procedure may touch on *some* path (conditional accesses are modelled
//! explicitly). From it the analyser computes, by call-graph reachability, the
//! conservative footprint of a root procedure ([`ProgramModel::static_footprint`]),
//! turns it into a ready-to-apply [`SuggestedPolicy`]
//! ([`ProgramModel::suggest_policy`]), and — most importantly — compares that
//! against a dynamic [`Trace`] captured by cb-log on an innocuous workload
//! ([`ProgramModel::compare_with_trace`]), quantifying how many extra grants
//! static analysis would hand out and which of those cover data the
//! programmer has marked sensitive ([`StaticDynamicComparison::excess_sensitive`]).
//!
//! A model can also be *inferred* from a dynamic trace
//! ([`ProgramModel::from_trace`]): call edges come from adjacent shadow-stack
//! frames and accesses are attributed to the innermost frame. Merging models
//! inferred from several workloads and then analysing statically gives the
//! "exhaustive" view of §7 without hand-writing the model.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use wedge_core::AccessMode;

use crate::analyze::{FootprintEntry, ItemKey, SuggestedPolicy, Trace};

/// A single static access site: the item, the access mode, and whether the
/// access is on a conditional path (i.e. may not execute at run time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticAccess {
    /// The memory item accessed.
    pub item: ItemKey,
    /// Read or write.
    pub mode: AccessMode,
    /// `true` when the access only happens on some executions (a branch, an
    /// error path, a rarely-taken feature). Conditional accesses are exactly
    /// what makes static analysis a superset of any single dynamic run.
    pub conditional: bool,
}

/// The static summary of one procedure: its direct callees and the accesses
/// syntactically present in its body.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcedureModel {
    /// The procedure name (matching the names passed to
    /// `SthreadCtx::trace_fn` so models and traces can be compared).
    pub name: String,
    calls: BTreeSet<String>,
    accesses: Vec<StaticAccess>,
}

impl ProcedureModel {
    /// Direct callees of this procedure.
    pub fn calls(&self) -> &BTreeSet<String> {
        &self.calls
    }

    /// Access sites in this procedure's body.
    pub fn accesses(&self) -> &[StaticAccess] {
        &self.accesses
    }
}

/// Builder handle returned by [`ProgramModel::procedure`].
pub struct ProcedureBuilder<'a> {
    model: &'a mut ProgramModel,
    name: String,
}

impl ProcedureBuilder<'_> {
    fn entry(&mut self) -> &mut ProcedureModel {
        self.model
            .procedures
            .entry(self.name.clone())
            .or_insert_with(|| ProcedureModel {
                name: self.name.clone(),
                ..ProcedureModel::default()
            })
    }

    /// Declare a direct call edge to `callee`.
    pub fn calls(mut self, callee: &str) -> Self {
        let callee = callee.to_string();
        self.entry().calls.insert(callee);
        self
    }

    /// Declare an unconditional read of `item`.
    pub fn reads(self, item: ItemKey) -> Self {
        self.access(item, AccessMode::Read, false)
    }

    /// Declare an unconditional write of `item`.
    pub fn writes(self, item: ItemKey) -> Self {
        self.access(item, AccessMode::Write, false)
    }

    /// Declare a read of `item` that only happens on some paths.
    pub fn reads_if(self, item: ItemKey) -> Self {
        self.access(item, AccessMode::Read, true)
    }

    /// Declare a write of `item` that only happens on some paths.
    pub fn writes_if(self, item: ItemKey) -> Self {
        self.access(item, AccessMode::Write, true)
    }

    fn access(mut self, item: ItemKey, mode: AccessMode, conditional: bool) -> Self {
        self.entry().accesses.push(StaticAccess {
            item,
            mode,
            conditional,
        });
        self
    }
}

/// A whole-program model: the input to the static analyser.
#[derive(Debug, Clone, Default)]
pub struct ProgramModel {
    procedures: BTreeMap<String, ProcedureModel>,
}

impl ProgramModel {
    /// An empty model.
    pub fn new() -> ProgramModel {
        ProgramModel::default()
    }

    /// Add (or extend) the model of procedure `name`.
    pub fn procedure(&mut self, name: &str) -> ProcedureBuilder<'_> {
        // Ensure the procedure exists even if the builder is dropped
        // without declaring anything.
        self.procedures
            .entry(name.to_string())
            .or_insert_with(|| ProcedureModel {
                name: name.to_string(),
                ..ProcedureModel::default()
            });
        ProcedureBuilder {
            model: self,
            name: name.to_string(),
        }
    }

    /// Infer a program model from a dynamic trace: call edges are taken
    /// from adjacent shadow-stack frames, and each access is attributed to
    /// the innermost frame of its backtrace. Accesses observed dynamically
    /// are by definition unconditional in the inferred model.
    pub fn from_trace(trace: &Trace) -> ProgramModel {
        let mut model = ProgramModel::new();
        for record in trace.records() {
            // Call edges between adjacent frames.
            for pair in record.backtrace.windows(2) {
                model.procedure(&pair[0]);
                model.procedure(&pair[1]);
                model
                    .procedures
                    .get_mut(&pair[0])
                    .expect("caller just inserted")
                    .calls
                    .insert(pair[1].clone());
            }
            let Some(innermost) = record.backtrace.last() else {
                continue;
            };
            let item = ItemKey::from_record(record);
            model.procedure(innermost);
            let entry = model
                .procedures
                .get_mut(innermost)
                .expect("procedure just inserted");
            let already = entry
                .accesses
                .iter()
                .any(|a| a.item == item && a.mode == record.mode);
            if !already {
                entry.accesses.push(StaticAccess {
                    item,
                    mode: record.mode,
                    conditional: false,
                });
            }
        }
        model
    }

    /// Merge another model into this one (union of call edges and access
    /// sites) — the static analogue of [`Trace::merge`].
    pub fn merge(&mut self, other: &ProgramModel) {
        for (name, proc_model) in &other.procedures {
            let entry = self
                .procedures
                .entry(name.clone())
                .or_insert_with(|| ProcedureModel {
                    name: name.clone(),
                    ..ProcedureModel::default()
                });
            entry.calls.extend(proc_model.calls.iter().cloned());
            for access in &proc_model.accesses {
                if !entry.accesses.contains(access) {
                    entry.accesses.push(access.clone());
                }
            }
        }
    }

    /// Is `name` modelled?
    pub fn contains(&self, name: &str) -> bool {
        self.procedures.contains_key(name)
    }

    /// The model of one procedure, if present.
    pub fn get(&self, name: &str) -> Option<&ProcedureModel> {
        self.procedures.get(name)
    }

    /// All procedures reachable from `root` through the call graph
    /// (including `root` itself). Handles recursion and diamonds; callees
    /// with no model are ignored here (see [`ProgramModel::unresolved_calls`]).
    pub fn reachable_from(&self, root: &str) -> BTreeSet<String> {
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::new();
        if self.procedures.contains_key(root) {
            seen.insert(root.to_string());
            queue.push_back(root.to_string());
        }
        while let Some(current) = queue.pop_front() {
            if let Some(proc_model) = self.procedures.get(&current) {
                for callee in &proc_model.calls {
                    if self.procedures.contains_key(callee) && seen.insert(callee.clone()) {
                        queue.push_back(callee.clone());
                    }
                }
            }
        }
        seen
    }

    /// Call targets reachable from `root` for which no model exists — the
    /// analogue of calls into binary-only libraries, where the paper notes
    /// tagging "may not even be possible". The analyser cannot bound what
    /// these touch, so the programmer must treat their presence as a
    /// warning that the static footprint may be *incomplete*.
    pub fn unresolved_calls(&self, root: &str) -> BTreeSet<String> {
        let mut unresolved = BTreeSet::new();
        for name in self.reachable_from(root) {
            if let Some(proc_model) = self.procedures.get(&name) {
                for callee in &proc_model.calls {
                    if !self.procedures.contains_key(callee) {
                        unresolved.insert(callee.clone());
                    }
                }
            }
        }
        unresolved
    }

    /// The conservative (exhaustive) footprint of `root` and everything it
    /// can reach: every item any reachable procedure may touch on any path,
    /// with the union of access modes. `access_count` counts static access
    /// *sites*, not dynamic events, and `allocation_site` is always `None`
    /// (static analysis has no run-time allocation backtraces — one of the
    /// things cb-log adds).
    pub fn static_footprint(&self, root: &str) -> Vec<FootprintEntry> {
        let mut agg: BTreeMap<ItemKey, (bool, bool, usize)> = BTreeMap::new();
        for name in self.reachable_from(root) {
            let Some(proc_model) = self.procedures.get(&name) else {
                continue;
            };
            for access in &proc_model.accesses {
                let entry = agg.entry(access.item.clone()).or_insert((false, false, 0));
                match access.mode {
                    AccessMode::Read => entry.0 = true,
                    AccessMode::Write => entry.1 = true,
                }
                entry.2 += 1;
            }
        }
        agg.into_iter()
            .map(|(item, (read, written, access_count))| FootprintEntry {
                item,
                read,
                written,
                access_count,
                allocation_site: None,
            })
            .collect()
    }

    /// The static policy suggestion for a compartment rooted at `root`: the
    /// exhaustive set of grants under which no reachable code path can hit a
    /// protection violation (§7).
    pub fn suggest_policy(&self, root: &str) -> SuggestedPolicy {
        let mut suggestion = SuggestedPolicy::default();
        for entry in self.static_footprint(root) {
            match &entry.item {
                ItemKey::Alloc { tag, .. } => {
                    let prot = entry.required_prot();
                    suggestion
                        .tags
                        .entry(*tag)
                        .and_modify(|existing| {
                            if !existing.allows_delegation_of(prot) {
                                *existing = prot;
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

    /// Compare the static footprint of `root` against the dynamic footprint
    /// cb-analyze derives from `trace` for the same procedure.
    pub fn compare_with_trace(&self, root: &str, trace: &Trace) -> StaticDynamicComparison {
        let static_items: BTreeSet<ItemKey> = self
            .static_footprint(root)
            .into_iter()
            .map(|e| e.item)
            .collect();
        let dynamic_items: BTreeSet<ItemKey> = trace
            .footprint_of(root)
            .into_iter()
            .map(|e| e.item)
            .collect();
        let static_only = static_items
            .difference(&dynamic_items)
            .cloned()
            .collect::<BTreeSet<_>>();
        let dynamic_only = dynamic_items
            .difference(&static_items)
            .cloned()
            .collect::<BTreeSet<_>>();
        StaticDynamicComparison {
            root: root.to_string(),
            static_items,
            dynamic_items,
            static_only,
            dynamic_only,
        }
    }
}

/// The result of [`ProgramModel::compare_with_trace`]: how the exhaustive
/// static grant set relates to the grants one innocuous dynamic run needed.
#[derive(Debug, Clone)]
pub struct StaticDynamicComparison {
    /// The compared root procedure.
    pub root: String,
    /// Items the static analysis would grant.
    pub static_items: BTreeSet<ItemKey>,
    /// Items the dynamic run actually touched (under `root`).
    pub dynamic_items: BTreeSet<ItemKey>,
    /// Items only static analysis grants — the over-approximation the paper
    /// warns about.
    pub static_only: BTreeSet<ItemKey>,
    /// Items the dynamic run touched that the model misses — non-empty only
    /// when the model is unsound for this workload (e.g. hand-written and
    /// incomplete).
    pub dynamic_only: BTreeSet<ItemKey>,
}

impl StaticDynamicComparison {
    /// Does the static grant set cover everything the dynamic run needed?
    /// (The §7 claim: static analysis yields a superset.)
    pub fn is_superset(&self) -> bool {
        self.dynamic_only.is_empty()
    }

    /// How many extra items static analysis grants, as a fraction of the
    /// dynamically required set (0.0 = identical; 1.0 = twice as many).
    pub fn excess_ratio(&self) -> f64 {
        if self.dynamic_items.is_empty() {
            if self.static_only.is_empty() {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.static_only.len() as f64 / self.dynamic_items.len() as f64
        }
    }

    /// The subset of `sensitive` items that static analysis would grant but
    /// the innocuous dynamic run never touched — precisely the privileges
    /// "for sensitive data that could allow an exploit to leak that data"
    /// (§7), and the reason the paper prefers run-time analysis.
    pub fn excess_sensitive(&self, sensitive: &[ItemKey]) -> Vec<ItemKey> {
        sensitive
            .iter()
            .filter(|item| self.static_only.contains(*item))
            .cloned()
            .collect()
    }

    /// Render the comparison as a short report for the programmer.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "static vs. dynamic footprint for `{}`\n",
            self.root
        ));
        out.push_str(&format!(
            "  static grants:  {:>4} items\n  dynamic needs:  {:>4} items\n",
            self.static_items.len(),
            self.dynamic_items.len()
        ));
        out.push_str(&format!(
            "  over-approximation: {} extra item(s) ({:.0}% excess)\n",
            self.static_only.len(),
            self.excess_ratio() * 100.0
        ));
        for item in &self.static_only {
            out.push_str(&format!("    + {item} (never touched dynamically)\n"));
        }
        if !self.dynamic_only.is_empty() {
            out.push_str("  WARNING: the model misses dynamically observed items:\n");
            for item in &self.dynamic_only {
                out.push_str(&format!("    - {item}\n"));
            }
        }
        out
    }
}

impl ItemKey {
    /// Map a cb-log record onto the item key the analyser uses. Mirrors the
    /// private conversion in [`crate::analyze`] but is exposed here so the
    /// static analyser (and external callers building models) can align
    /// items with dynamic traces.
    pub(crate) fn from_record(record: &crate::log::TraceRecord) -> ItemKey {
        use wedge_core::MemRegion;
        match &record.region {
            MemRegion::Tagged { tag, alloc_offset } => ItemKey::Alloc {
                tag: *tag,
                alloc_offset: *alloc_offset,
            },
            MemRegion::Global { name } => ItemKey::Global(name.clone()),
            MemRegion::Fd { name, .. } => ItemKey::Fd(name.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::TraceRecord;
    use std::collections::HashMap;
    use wedge_core::{CompartmentId, MemRegion, Tag};

    fn heap(tag: u64, off: usize) -> ItemKey {
        ItemKey::Alloc {
            tag: Tag(tag),
            alloc_offset: off,
        }
    }

    fn global(name: &str) -> ItemKey {
        ItemKey::Global(name.to_string())
    }

    /// A model shaped like the paper's POP3 example: a client handler that
    /// parses commands and calls into login / retrieval helpers, with the
    /// password database only touched on the authentication path.
    fn pop3_model() -> ProgramModel {
        let mut model = ProgramModel::new();
        model
            .procedure("client_handler")
            .calls("parse_command")
            .calls("do_login")
            .calls("do_retr")
            .reads(heap(1, 0)) // network buffer
            .writes(heap(1, 0));
        model.procedure("parse_command").reads(heap(1, 0));
        model
            .procedure("do_login")
            .reads_if(global("passwd_db"))
            .writes(global("uid"));
        model
            .procedure("do_retr")
            .reads(global("uid"))
            .reads_if(heap(2, 0)); // mailbox
        model
    }

    #[test]
    fn reachability_includes_transitive_callees() {
        let model = pop3_model();
        let reach = model.reachable_from("client_handler");
        assert!(reach.contains("client_handler"));
        assert!(reach.contains("parse_command"));
        assert!(reach.contains("do_login"));
        assert!(reach.contains("do_retr"));
        assert_eq!(model.reachable_from("parse_command").len(), 1);
        assert!(model.reachable_from("unknown").is_empty());
    }

    #[test]
    fn recursion_and_diamonds_terminate() {
        let mut model = ProgramModel::new();
        model.procedure("a").calls("b").calls("c");
        model.procedure("b").calls("d");
        model.procedure("c").calls("d");
        model.procedure("d").calls("a").reads(global("g"));
        let reach = model.reachable_from("a");
        assert_eq!(reach.len(), 4);
        let fp = model.static_footprint("a");
        assert_eq!(fp.len(), 1);
        assert_eq!(fp[0].item, global("g"));
    }

    #[test]
    fn unresolved_callees_are_reported() {
        let mut model = ProgramModel::new();
        model
            .procedure("main")
            .calls("helper")
            .calls("libssl_internal");
        model.procedure("helper").calls("libz_inflate");
        let unresolved = model.unresolved_calls("main");
        assert!(unresolved.contains("libssl_internal"));
        assert!(unresolved.contains("libz_inflate"));
        assert_eq!(unresolved.len(), 2);
    }

    #[test]
    fn footprint_unions_modes_and_counts_sites() {
        let model = pop3_model();
        let fp = model.static_footprint("client_handler");
        let net = fp.iter().find(|e| e.item == heap(1, 0)).unwrap();
        assert!(net.read && net.written);
        assert_eq!(net.access_count, 3); // read+write in handler, read in parser
        let uid = fp.iter().find(|e| e.item == global("uid")).unwrap();
        assert!(uid.read && uid.written);
        // Conditional accesses are still included: that is what makes the
        // static result exhaustive.
        assert!(fp.iter().any(|e| e.item == global("passwd_db")));
        assert!(fp.iter().any(|e| e.item == heap(2, 0)));
    }

    #[test]
    fn suggest_policy_covers_tags_globals_and_escalates_prot() {
        let model = pop3_model();
        let suggestion = model.suggest_policy("client_handler");
        assert_eq!(
            suggestion.tags.get(&Tag(1)).copied(),
            Some(wedge_core::MemProt::ReadWrite)
        );
        assert_eq!(
            suggestion.tags.get(&Tag(2)).copied(),
            Some(wedge_core::MemProt::Read)
        );
        assert!(suggestion.globals.contains("passwd_db"));
        assert!(suggestion.globals.contains("uid"));
    }

    fn record(backtrace: &[&str], item: &ItemKey, mode: AccessMode) -> TraceRecord {
        let region = match item {
            ItemKey::Alloc { tag, alloc_offset } => MemRegion::Tagged {
                tag: *tag,
                alloc_offset: *alloc_offset,
            },
            ItemKey::Global(name) => MemRegion::Global { name: name.clone() },
            ItemKey::Fd(name) => MemRegion::Fd {
                fd: wedge_core::FdId(1),
                name: name.clone(),
            },
        };
        TraceRecord {
            compartment: CompartmentId(7),
            compartment_name: "worker".to_string(),
            region,
            offset: 0,
            len: 4,
            mode,
            allowed: true,
            backtrace: backtrace.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// A dynamic run of the POP3 model in which the user never logs in, so
    /// the password database and mailbox are never touched.
    fn innocuous_trace() -> Trace {
        let records = vec![
            record(&["client_handler"], &heap(1, 0), AccessMode::Write),
            record(
                &["client_handler", "parse_command"],
                &heap(1, 0),
                AccessMode::Read,
            ),
            record(
                &["client_handler", "do_retr"],
                &global("uid"),
                AccessMode::Read,
            ),
        ];
        Trace::from_parts(records, HashMap::new(), Vec::new())
    }

    #[test]
    fn static_is_superset_of_dynamic_and_flags_sensitive_excess() {
        let model = pop3_model();
        let trace = innocuous_trace();
        let cmp = model.compare_with_trace("client_handler", &trace);
        assert!(cmp.is_superset());
        assert!(cmp.static_only.contains(&global("passwd_db")));
        assert!(cmp.static_only.contains(&heap(2, 0)));
        assert!(cmp.excess_ratio() > 0.0);

        let sensitive = [global("passwd_db")];
        let excess = cmp.excess_sensitive(&sensitive);
        assert_eq!(excess, vec![global("passwd_db")]);

        let report = cmp.render();
        assert!(report.contains("passwd_db"));
        assert!(report.contains("over-approximation"));
    }

    #[test]
    fn incomplete_handwritten_model_is_detected() {
        // A model that forgot parse_command's read of the network buffer
        // entirely, and the dynamic run touches a global it never mentions.
        let mut model = ProgramModel::new();
        model.procedure("client_handler").calls("parse_command");
        let trace = innocuous_trace();
        let cmp = model.compare_with_trace("client_handler", &trace);
        assert!(!cmp.is_superset());
        assert!(cmp.dynamic_only.contains(&global("uid")));
        assert!(cmp.render().contains("WARNING"));
    }

    #[test]
    fn from_trace_reconstructs_call_edges_and_accesses() {
        let trace = innocuous_trace();
        let model = ProgramModel::from_trace(&trace);
        assert!(model.contains("client_handler"));
        assert!(model.contains("parse_command"));
        assert!(model.contains("do_retr"));
        assert!(model
            .get("client_handler")
            .unwrap()
            .calls()
            .contains("parse_command"));
        // The inferred model's static footprint covers the dynamic run.
        let cmp = model.compare_with_trace("client_handler", &trace);
        assert!(cmp.is_superset());
        assert_eq!(cmp.excess_ratio(), 0.0);
    }

    #[test]
    fn merge_unions_models() {
        let mut login_run = ProgramModel::new();
        login_run
            .procedure("client_handler")
            .calls("do_login")
            .reads(heap(1, 0));
        login_run.procedure("do_login").reads(global("passwd_db"));

        let mut retr_run = ProgramModel::new();
        retr_run
            .procedure("client_handler")
            .calls("do_retr")
            .reads(heap(1, 0));
        retr_run.procedure("do_retr").reads(heap(2, 0));

        let mut merged = login_run.clone();
        merged.merge(&retr_run);
        let fp = merged.static_footprint("client_handler");
        assert!(fp.iter().any(|e| e.item == global("passwd_db")));
        assert!(fp.iter().any(|e| e.item == heap(2, 0)));
        // Merging is idempotent for duplicate access sites.
        let before = merged.static_footprint("client_handler");
        merged.merge(&retr_run);
        assert_eq!(merged.static_footprint("client_handler"), before);
    }

    #[test]
    fn excess_ratio_edge_cases() {
        let model = ProgramModel::new();
        let empty = Trace::from_parts(Vec::new(), HashMap::new(), Vec::new());
        let cmp = model.compare_with_trace("nothing", &empty);
        assert_eq!(cmp.excess_ratio(), 0.0);

        let mut model2 = ProgramModel::new();
        model2.procedure("f").reads(global("g"));
        let cmp2 = model2.compare_with_trace("f", &empty);
        assert!(cmp2.excess_ratio().is_infinite());
    }
}
