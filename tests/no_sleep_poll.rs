//! ROADMAP's "one event-driven serve path" gate, as a test: the serving
//! crates' library code neither sleeps nor polls on a fixed interval.
//!
//! Every `crates/{wedge-sched,wedge-net,wedge-cachenet}/src/*.rs` is cut at
//! its `#[cfg(test)]` module and stripped of comments; what is left must
//! contain
//!
//! * no `sleep(` at all, and
//! * no `accept_batch`, `wait_for` or `recv_timeout` call that passes a
//!   `Duration::from_*(..)` literal from inside a loop — a wait that wakes
//!   on a timer to look again is a poll, whatever it is called. Waits
//!   bounded by a caller's deadline (`wait_for(&mut guard, left)`) pass.
//!
//! One call is allowed by name: see [`ALLOWED`].

use std::path::Path;

const CRATES: [&str; 3] = ["wedge-sched", "wedge-net", "wedge-cachenet"];
const TIMED_WAITS: [&str; 3] = ["accept_batch", "wait_for", "recv_timeout"];

/// `(file, function)` pairs allowed one fixed-interval wait in a loop.
///
/// `serve_listener_with`'s flush waits for hand-backs that are guaranteed
/// to arrive (every un-reclaimed watch has fired); its `recv_timeout(1 s)`
/// only bounds a reactor bug, and ends the loop instead of re-arming.
const ALLOWED: [(&str, &str); 1] = [("wedge-sched/src/front.rs", "serve_listener_with")];

/// One fixed-interval timed wait found inside a loop.
#[derive(Debug, PartialEq)]
struct TimedWait {
    function: String,
    line: usize,
    call: String,
}

/// The library part of a source file: everything before its unit-test
/// module, with `//` comments blanked (line numbers keep).
fn library_code(source: &str) -> String {
    let cut = source.find("#[cfg(test)]").unwrap_or(source.len());
    source[..cut]
        .lines()
        .map(|line| line.split("//").next().unwrap_or(""))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The text between the `(` at `open` and its matching `)`.
fn call_arguments(code: &str, open: usize) -> &str {
    let mut depth = 0usize;
    for (offset, byte) in code.bytes().enumerate().skip(open) {
        match byte {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return &code[open + 1..offset];
                }
            }
            _ => {}
        }
    }
    &code[open + 1..]
}

/// Every [`TIMED_WAITS`] call in `code` that passes a `Duration::from_*`
/// literal while some enclosing block is a `loop` / `while` / `for` body.
fn timed_waits_in_loops(code: &str) -> Vec<TimedWait> {
    /// One open `{`: is it a loop body, and which `fn` body (if any).
    struct Block {
        is_loop: bool,
        function: Option<String>,
    }
    let bytes = code.as_bytes();
    let mut found = Vec::new();
    let mut blocks: Vec<Block> = Vec::new();
    let mut parens = 0usize;
    // A loop keyword seen, at this paren depth, whose body has not opened.
    let mut pending_loop: Option<usize> = None;
    let mut pending_fn: Option<String> = None;
    let mut in_impl_header = false;
    let mut expect_fn_name = false;
    let mut at = 0usize;
    while at < bytes.len() {
        let byte = bytes[at];
        if byte.is_ascii_alphabetic() || byte == b'_' {
            let start = at;
            while at < bytes.len() && (bytes[at].is_ascii_alphanumeric() || bytes[at] == b'_') {
                at += 1;
            }
            let word = &code[start..at];
            if std::mem::take(&mut expect_fn_name) {
                pending_fn = Some(word.to_string());
                continue;
            }
            match word {
                "fn" => expect_fn_name = true,
                "impl" => in_impl_header = true,
                "loop" | "while" => pending_loop = Some(parens),
                "for" if !in_impl_header => pending_loop = Some(parens),
                _ if TIMED_WAITS.contains(&word) && bytes.get(at) == Some(&b'(') => {
                    let arguments = call_arguments(code, at);
                    if arguments.contains("Duration::from_") && blocks.iter().any(|b| b.is_loop) {
                        found.push(TimedWait {
                            function: blocks
                                .iter()
                                .rev()
                                .find_map(|block| block.function.clone())
                                .unwrap_or_default(),
                            line: code[..start].matches('\n').count() + 1,
                            call: format!("{word}({arguments})"),
                        });
                    }
                }
                _ => {}
            }
            continue;
        }
        // `fn(..)` is a type, not a definition.
        expect_fn_name &= byte.is_ascii_whitespace();
        match byte {
            b'(' => parens += 1,
            b')' => parens = parens.saturating_sub(1),
            b';' => pending_fn = None,
            b'{' => {
                in_impl_header = false;
                // A brace deeper in parens than the keyword is a closure
                // or a struct pattern inside the loop's condition.
                let is_loop = pending_loop == Some(parens);
                if is_loop {
                    pending_loop = None;
                }
                blocks.push(Block {
                    is_loop,
                    function: pending_fn.take(),
                });
            }
            b'}' => {
                blocks.pop();
            }
            _ => {}
        }
        at += 1;
    }
    found
}

#[test]
fn the_detector_sees_a_poll_and_only_a_poll() {
    let code = library_code(
        "impl<S> Drop for Front<S> {
            fn worker(&self) {
                // thread::sleep( in a comment is not a sleep
                guard.wait_for(&mut g, Duration::from_millis(20));
                while self.items.iter().any(|a| matches!(a, Slot::Parked { .. })) {
                    signal.wait_for(&mut queue, Duration::from_millis(20));
                    signal.wait_for(&mut queue, deadline - now);
                }
            }
        }
        #[cfg(test)]
        mod tests { fn t() { loop { rx.recv_timeout(Duration::from_secs(1)); } } }",
    );
    assert!(!code.contains("sleep("));
    assert_eq!(
        timed_waits_in_loops(&code),
        [TimedWait {
            function: "worker".into(),
            line: 6,
            call: "wait_for(&mut queue, Duration::from_millis(20))".into(),
        }]
    );
}

#[test]
fn serving_crates_neither_sleep_nor_poll() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut violations = Vec::new();
    let mut allowed_seen = Vec::new();
    let mut files = 0;
    for krate in CRATES {
        let dir = root.join(krate).join("src");
        let mut paths: Vec<_> = std::fs::read_dir(&dir)
            .unwrap_or_else(|err| panic!("{}: {err}", dir.display()))
            .map(|entry| entry.expect("directory entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
            .collect();
        paths.sort();
        for path in paths {
            files += 1;
            let name = format!(
                "{krate}/src/{}",
                path.file_name().expect("file name").to_string_lossy()
            );
            let code = library_code(&std::fs::read_to_string(&path).expect("readable source"));
            for (index, line) in code.lines().enumerate() {
                if line.contains("sleep(") {
                    violations.push(format!("{name}:{}: {}", index + 1, line.trim()));
                }
            }
            for wait in timed_waits_in_loops(&code) {
                if ALLOWED.contains(&(name.as_str(), wait.function.as_str())) {
                    allowed_seen.push((name.clone(), wait.function));
                } else {
                    violations.push(format!(
                        "{name}:{}: fn {}: {} in a loop",
                        wait.line, wait.function, wait.call
                    ));
                }
            }
        }
    }
    assert!(
        files >= 15,
        "only {files} source files found under {root:?}"
    );
    assert!(
        violations.is_empty(),
        "sleep-polls in non-test serving code:\n{}",
        violations.join("\n")
    );
    // An allow-list entry nothing uses is a stale licence to poll.
    for (file, function) in ALLOWED {
        let uses = allowed_seen
            .iter()
            .filter(|(f, func)| f == file && func == function)
            .count();
        assert_eq!(uses, 1, "{file} fn {function}: allow-listed waits");
    }
}
