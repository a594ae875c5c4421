//! The Crowbar partitioning workflow end to end (§3.4): run the legacy code
//! under cb-log (with the sthread emulation library), derive the grants a
//! compartment needs with cb-analyze, apply them, and verify the partitioned
//! code runs without protection violations while everything not in the
//! derived policy stays denied.

use wedge::core::{SecurityPolicy, Wedge, WedgeError};
use wedge::crowbar::{CbLog, ItemKey};

#[test]
fn trace_derive_apply_roundtrip() {
    let wedge = Wedge::init();
    let log = CbLog::new();
    log.install(wedge.kernel());
    let root = wedge.root();

    // The "legacy application": a session handler that touches three memory
    // regions, one of which (the key) it should never have needed.
    let config_tag = root.tag_new().unwrap();
    let session_tag = root.tag_new().unwrap();
    let key_tag = root.tag_new().unwrap();
    let config = root.smalloc_init(config_tag, b"timeout=30").unwrap();
    let session = root.smalloc(32, session_tag).unwrap();
    let key = root.smalloc_init(key_tag, b"PRIVATE").unwrap();

    {
        let _f = root.trace_fn("handle_session");
        root.read_all(&config).unwrap();
        root.write(&session, 0, b"state").unwrap();
    }

    // Query 1 drives the grant decision for the handle_session sthread.
    let trace = log.snapshot();
    let suggestion = trace.suggest_policy("handle_session");
    assert!(suggestion.tags.contains_key(&config_tag));
    assert!(suggestion.tags.contains_key(&session_tag));
    assert!(
        !suggestion.tags.contains_key(&key_tag),
        "the key was never needed"
    );

    // Apply the derived policy: the partitioned sthread works, and the key
    // stays out of reach.
    let policy = suggestion.to_security_policy();
    let result = root
        .sthread_create("handle-session-sthread", &policy, move |ctx| {
            let _f = ctx.trace_fn("handle_session");
            let config = ctx.read_all(&config)?;
            ctx.write(&session, 0, b"fresh")?;
            let key_denied = ctx.read_all(&key).is_err();
            Ok::<_, WedgeError>((config.len(), key_denied))
        })
        .unwrap()
        .join()
        .unwrap()
        .unwrap();
    assert_eq!(result.0, b"timeout=30".len());
    assert!(result.1);

    // No (non-emulated) violations were recorded for the provisioned sthread
    // other than the deliberate key probe.
    let violations = wedge.kernel().violations();
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].compartment_name, "handle-session-sthread");
}

#[test]
fn emulation_mode_enumerates_missing_grants_after_refactoring() {
    let wedge = Wedge::init();
    let log = CbLog::new();
    log.install(wedge.kernel());
    let root = wedge.root();

    let old_tag = root.tag_new().unwrap();
    let new_tag = root.tag_new().unwrap();
    let old_buf = root.smalloc_init(old_tag, b"old state").unwrap();
    let new_buf = root
        .smalloc_init(new_tag, b"state added by refactoring")
        .unwrap();

    // The sthread's policy was written before the refactoring and only
    // grants the old region. Under emulation the run completes anyway and
    // every missing grant is recorded.
    wedge.kernel().set_emulation(true);
    let mut stale_policy = SecurityPolicy::deny_all();
    stale_policy.sc_mem_add(old_tag, wedge::core::MemProt::Read);
    let handle = root
        .sthread_create("refactored-worker", &stale_policy, move |ctx| {
            let _f = ctx.trace_fn("refactored_code_path");
            let a = ctx.read_all(&old_buf).unwrap();
            let b = ctx.read_all(&new_buf).unwrap();
            a.len() + b.len()
        })
        .unwrap();
    assert_eq!(handle.join().unwrap(), 9 + 26);

    // The tracer is handed the very record the kernel logs: cb-log's view of
    // the run and the kernel's violation log are the same list.
    let logged = wedge.kernel().violations();
    assert_eq!(logged.len(), 1);
    assert!(logged[0].emulated);
    assert_eq!(log.violations(), logged);

    let trace = log.snapshot();
    let missing = trace.violation_items("refactored-worker");
    assert_eq!(missing.len(), 1);
    assert!(matches!(missing[0], ItemKey::Alloc { tag, .. } if tag == new_tag));

    // The compartment-level suggestion includes both the old and the newly
    // required grants, ready to paste into the policy.
    let suggestion = trace.suggest_policy_for_compartment("refactored-worker");
    assert!(suggestion.tags.contains_key(&old_tag));
    assert!(suggestion.tags.contains_key(&new_tag));
}

#[test]
fn traces_from_multiple_workloads_aggregate() {
    let wedge = Wedge::init();
    let log = CbLog::new();
    log.install(wedge.kernel());
    let root = wedge.root();
    let tag_a = root.tag_new().unwrap();
    let tag_b = root.tag_new().unwrap();
    let buf_a = root.smalloc_init(tag_a, b"workload A data").unwrap();
    let buf_b = root.smalloc_init(tag_b, b"workload B data").unwrap();

    // Workload 1 exercises only region A.
    {
        let _f = root.trace_fn("request_path");
        root.read_all(&buf_a).unwrap();
    }
    let trace_a = log.snapshot();
    log.clear();
    // Workload 2 exercises only region B.
    {
        let _f = root.trace_fn("request_path");
        root.read_all(&buf_b).unwrap();
    }
    let trace_b = log.snapshot();

    // Each individual trace misses one grant; the aggregation has both
    // (the paper's "diverse innocuous workloads" guidance).
    assert_eq!(trace_a.suggest_policy("request_path").tags.len(), 1);
    assert_eq!(trace_b.suggest_policy("request_path").tags.len(), 1);
    let mut merged = trace_a.clone();
    merged.merge(&trace_b);
    let combined = merged.suggest_policy("request_path");
    assert!(combined.tags.contains_key(&tag_a));
    assert!(combined.tags.contains_key(&tag_b));
}
