//! Pass B: concurrency-discipline rules (L7 `lock_discipline`, L8
//! `atomic_ordering`) over a lightweight block/scope tracker.
//!
//! These run only on designated concurrency modules (see
//! [`crate::walk`]): the cache behind the planned concurrent why-not
//! server, its sync shim, and the modules that own raw atomics. The
//! deadlock shape a serving layer would hit first — re-entering the
//! cache lock, or calling back into the engine while a guard is live —
//! is exactly what L7 pins down; L8 pins every atomic access to the
//! ordering documented for that site (DESIGN.md §4 carries the policy
//! table in prose).
//!
//! The scope tracker is deliberately simple: brace depth plus a stack
//! of live lock guards. A guard becomes live at a call to one of the
//! acquisition methods (`read`, `write`, `read_state`, `write_state`)
//! and dies at the end of its binding's scope, at `drop(binding)`, or —
//! for un-bound temporaries — at the end of the statement. The rules
//! only ever *under*-approximate Rust's real scoping (e.g. guards
//! returned out of a helper keep the helper's scope), which is the
//! right failure mode for a lint.

use crate::lexer::{Tok, Token};
use crate::rules::{Finding, Rule};

/// Methods that acquire the cache lock (std `RwLock` plus the cache's
/// poison-recovering helpers and the `dt-sched` instrumented shim).
const ACQUIRE: [&str; 4] = ["read", "write", "read_state", "write_state"];

/// Engine/cache entry points that must never run under a live guard:
/// every question and building-block lookup takes the state lock when
/// the cache is on, so a call here
/// while holding a guard is the lock-inversion/deadlock shape the
/// serving layer would hit. Deliberately restricted to unambiguous
/// names — generic container methods (`insert`, `get`, …) are exactly
/// what a fill *should* do under the guard.
const ENGINE_CALLS: [&str; 21] = [
    "answer",
    "explain",
    "explain_batch",
    "mwp",
    "mqp",
    "mwq",
    "mwq_full",
    "mwq_batch",
    "reverse_skyline",
    "safe_region_for",
    "approx_safe_region_for",
    "approx_safe_region_lazy",
    "lazy_dsl_sample",
    "invalidate",
    "invalidate_surgical",
    "dsl",
    "anti_ddr",
    "dsl_sample",
    "lambda",
    "sr_approx",
    "mwq_answer",
];

/// Chained calls that still yield the guard (poison recovery).
const GUARD_CHAIN: [&str; 3] = ["unwrap_or_else", "unwrap", "expect"];

/// Given `open` at a `(`, returns the index one past its matching `)`.
fn matching_paren_end(eff: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < eff.len() {
        match eff[j].tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    eff.len()
}

/// One live lock guard.
struct Guard {
    /// The binding name (`None` for a statement temporary).
    name: Option<String>,
    /// Brace depth the binding lives at.
    depth: usize,
    /// Whether the guard is scoped to its statement only.
    statement_temp: bool,
}

/// L7 — `lock_discipline`: no nested acquisition, no engine call while
/// a guard is live.
pub(crate) fn check_lock_discipline(file: &str, eff: &[Token], findings: &mut Vec<Finding>) {
    let mut depth = 0usize;
    let mut stmt_start = 0usize;
    let mut live: Vec<Guard> = Vec::new();
    for (i, t) in eff.iter().enumerate() {
        match &t.tok {
            Tok::Punct('{') => {
                depth += 1;
                stmt_start = i + 1;
            }
            Tok::Punct('}') => {
                depth = depth.saturating_sub(1);
                live.retain(|g| g.depth <= depth);
                stmt_start = i + 1;
            }
            Tok::Punct(';') => {
                live.retain(|g| !g.statement_temp);
                stmt_start = i + 1;
            }
            Tok::Ident(name) => {
                let prev = i.checked_sub(1).and_then(|j| eff.get(j)).map(|t| &t.tok);
                let next = eff.get(i + 1).map(|t| &t.tok);
                let called = matches!(next, Some(Tok::Punct('(')));
                if !called {
                    continue;
                }
                let is_method = matches!(prev, Some(Tok::Punct('.')));
                // `drop(name)` releases the named guard early.
                if name == "drop" && !is_method {
                    if let Some(Tok::Ident(arg)) = eff.get(i + 2).map(|t| &t.tok) {
                        live.retain(|g| g.name.as_deref() != Some(arg.as_str()));
                    }
                    continue;
                }
                // Lock acquisitions are nullary (`.read()`, `.write()`);
                // requiring the empty argument list keeps builder methods
                // that share the name (`OpenOptions::read(true)`) out.
                let nullary = matches!(eff.get(i + 2).map(|t| &t.tok), Some(Tok::Punct(')')));
                if is_method && nullary && ACQUIRE.contains(&name.as_str()) {
                    if let Some(holder) = live.last() {
                        findings.push(Finding {
                            rule: Rule::LockDiscipline,
                            file: file.to_string(),
                            line: t.line,
                            message: format!(
                                "`.{name}()` acquires the cache lock while {} is still live; \
                                 release the first guard before re-acquiring",
                                describe(holder)
                            ),
                        });
                        continue;
                    }
                    // The guard is scope-bound only when the acquisition
                    // (possibly chained through poison recovery) is the
                    // whole initializer of a `let`; anything else —
                    // `….read().len()` — is a statement temporary.
                    let mut end = matching_paren_end(eff, i + 1);
                    while matches!(eff.get(end).map(|t| &t.tok), Some(Tok::Punct('.')))
                        && matches!(
                            eff.get(end + 1).map(|t| &t.tok),
                            Some(Tok::Ident(m)) if GUARD_CHAIN.contains(&m.as_str())
                        )
                        && matches!(eff.get(end + 2).map(|t| &t.tok), Some(Tok::Punct('(')))
                    {
                        end = matching_paren_end(eff, end + 2);
                    }
                    let terminated = eff.get(end).is_none()
                        || matches!(eff.get(end).map(|t| &t.tok), Some(Tok::Punct(';')));
                    let bound = if terminated {
                        let_binding_name(eff, stmt_start, i)
                    } else {
                        None
                    };
                    live.push(Guard {
                        statement_temp: bound.is_none(),
                        name: bound,
                        depth,
                    });
                    continue;
                }
                if (is_method || !is_keyword_like(name)) && ENGINE_CALLS.contains(&name.as_str()) {
                    if let Some(holder) = live.last() {
                        findings.push(Finding {
                            rule: Rule::LockDiscipline,
                            file: file.to_string(),
                            line: t.line,
                            message: format!(
                                "engine call `{name}(…)` while {} is still live; compute \
                                 outside the guard, then fill",
                                describe(holder)
                            ),
                        });
                    }
                }
            }
            _ => {}
        }
    }
}

fn describe(g: &Guard) -> String {
    match &g.name {
        Some(n) => format!("guard `{n}`"),
        None => "an unnamed guard temporary".to_string(),
    }
}

/// If the statement beginning at `stmt_start` is `let [mut] NAME … =`
/// and the acquisition at `acq` belongs to it, returns the binding
/// name.
fn let_binding_name(eff: &[Token], stmt_start: usize, acq: usize) -> Option<String> {
    let mut j = stmt_start;
    // Skip leading attributes on the statement.
    while crate::rules::is_outer_attr_start(eff, j) {
        j = crate::rules::attr_group_end(eff, j + 1);
    }
    if !matches!(eff.get(j).map(|t| &t.tok), Some(Tok::Ident(s)) if s == "let") {
        return None;
    }
    let mut k = j + 1;
    if matches!(eff.get(k).map(|t| &t.tok), Some(Tok::Ident(s)) if s == "mut") {
        k += 1;
    }
    let name = match eff.get(k).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => s.clone(),
        _ => return None,
    };
    if k >= acq {
        return None;
    }
    Some(name)
}

fn is_keyword_like(name: &str) -> bool {
    matches!(name, "if" | "match" | "while" | "for" | "return")
}

// ---------------------------------------------------------------------
// L8 — atomic_ordering
// ---------------------------------------------------------------------

/// One allowed (receiver, method) → orderings entry. `None` matches
/// anything, so a file's last entry acts as its default policy.
struct PolicySite {
    receiver: Option<&'static str>,
    method: Option<&'static str>,
    allowed: &'static [&'static str],
}

/// The per-site atomic-ordering policy, mirrored in DESIGN.md §4.
///
/// * `cache.rs` — the `generation` counter publishes invalidations:
///   writers bump with `AcqRel`, readers observe with `Acquire`; the
///   hit/miss statistics are plain `Relaxed` counters.
/// * `sync.rs` — the shim forwards caller-chosen orderings and never
///   hard-codes one; its own bookkeeping is `Relaxed`.
/// * the `wnrs-server` trio (`host.rs`, `queue.rs`, `server.rs`) —
///   flags and occupancy counters whose cross-thread ordering comes
///   from the queue mutex and socket syscalls, so `Relaxed` only.
/// * everything else in the table — pure statistics counters, always
///   `Relaxed`. `SeqCst` is never in any allowlist: a site that truly
///   needs it must carry a `lint:allow(atomic_ordering)` with the
///   proof obligation in its reason.
fn policy_for(file: &str) -> Option<&'static [PolicySite]> {
    const CACHE: [PolicySite; 3] = [
        PolicySite {
            receiver: Some("generation"),
            method: Some("fetch_add"),
            allowed: &["AcqRel"],
        },
        PolicySite {
            receiver: Some("generation"),
            method: Some("load"),
            allowed: &["Acquire"],
        },
        PolicySite {
            receiver: None,
            method: None,
            allowed: &["Relaxed"],
        },
    ];
    const RELAXED_ONLY: [PolicySite; 1] = [PolicySite {
        receiver: None,
        method: None,
        allowed: &["Relaxed"],
    }];
    match file {
        f if f.ends_with("crates/core/src/cache.rs") => Some(&CACHE),
        f if f.ends_with("crates/core/src/sync.rs")
            || f.ends_with("crates/obs/src/imp.rs")
            || f.ends_with("crates/rtree/src/tree.rs")
            || f.ends_with("crates/storage/src/stats.rs")
            || f.ends_with("crates/storage/src/file.rs")
            || f.ends_with("crates/server/src/host.rs")
            || f.ends_with("crates/server/src/queue.rs")
            || f.ends_with("crates/server/src/server.rs") =>
        {
            Some(&RELAXED_ONLY)
        }
        _ => None,
    }
}

/// The atomic methods whose calls carry an `Ordering` argument.
const ATOMIC_METHODS: [&str; 11] = [
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_min",
    "fetch_max",
    "compare_exchange",
    "compare_exchange_weak",
];

/// L8 — `atomic_ordering`: every `Ordering::X` argument must match the
/// file's policy table. Files outside the policy table are exempt
/// (they should not be classed `concurrency` in the first place).
pub(crate) fn check_atomic_ordering(file: &str, eff: &[Token], findings: &mut Vec<Finding>) {
    let Some(policy) = policy_for(file) else {
        return;
    };
    for (i, t) in eff.iter().enumerate() {
        let Tok::Ident(method) = &t.tok else { continue };
        if !ATOMIC_METHODS.contains(&method.as_str()) {
            continue;
        }
        let prev = i.checked_sub(1).and_then(|j| eff.get(j)).map(|t| &t.tok);
        if !matches!(prev, Some(Tok::Punct('.')))
            || !matches!(eff.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('(')))
        {
            continue;
        }
        let receiver = i
            .checked_sub(2)
            .and_then(|j| eff.get(j))
            .and_then(|t| match &t.tok {
                Tok::Ident(s) => Some(s.clone()),
                _ => None,
            })
            .unwrap_or_default();
        // Scan the argument list for `Ordering :: X` mentions.
        let mut depth = 0i32;
        let mut j = i + 1;
        while j < eff.len() {
            match &eff[j].tok {
                Tok::Punct('(') => depth += 1,
                Tok::Punct(')') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                Tok::Ident(s) if s == "Ordering" => {
                    if let (Some(Tok::Punct(':')), Some(Tok::Punct(':')), Some(Tok::Ident(ord))) = (
                        eff.get(j + 1).map(|t| &t.tok),
                        eff.get(j + 2).map(|t| &t.tok),
                        eff.get(j + 3).map(|t| &t.tok),
                    ) {
                        check_site(file, policy, &receiver, method, ord, eff[j].line, findings);
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
}

fn check_site(
    file: &str,
    policy: &[PolicySite],
    receiver: &str,
    method: &str,
    ord: &str,
    line: u32,
    findings: &mut Vec<Finding>,
) {
    let site = policy
        .iter()
        .find(|p| p.receiver.is_none_or(|r| r == receiver) && p.method.is_none_or(|m| m == method));
    let allowed: &[&str] = site.map_or(&[], |s| s.allowed);
    if !allowed.contains(&ord) {
        findings.push(Finding {
            rule: Rule::AtomicOrdering,
            file: file.to_string(),
            line,
            message: format!(
                "`{receiver}.{method}(Ordering::{ord})` violates the documented policy \
                 (allowed here: {}); see DESIGN.md §4",
                if allowed.is_empty() {
                    "nothing — site not in the policy table".to_string()
                } else {
                    allowed.join("/")
                }
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::{lint_source, FileClass};

    fn scope_lint(file: &str, src: &str) -> Vec<Finding> {
        let class = FileClass {
            concurrency: true,
            ..FileClass::default()
        };
        lint_source(file, src, class)
            .0
            .into_iter()
            .filter(|f| f.rule == Rule::LockDiscipline || f.rule == Rule::AtomicOrdering)
            .collect()
    }

    #[test]
    fn nested_acquisition_is_flagged() {
        let src = "fn f(c: &C) {\n    let g = c.state.read();\n    let h = c.state.write();\n}\n";
        let f = scope_lint("t.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::LockDiscipline);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn sequential_guards_in_sibling_scopes_are_fine() {
        let src = "fn f(c: &C) {\n    { let g = c.state.read(); use_it(&g); }\n    \
                   { let h = c.state.write(); use_it(&h); }\n}\n";
        assert!(scope_lint("t.rs", src).is_empty());
    }

    #[test]
    fn drop_releases_the_guard() {
        let src = "fn f(c: &C) {\n    let g = c.state.read();\n    drop(g);\n    \
                   let h = c.state.write();\n}\n";
        assert!(scope_lint("t.rs", src).is_empty());
    }

    #[test]
    fn engine_call_under_guard_is_flagged() {
        let src = "fn f(c: &C, e: &E) {\n    let g = c.state.write();\n    e.explain(1, 2);\n}\n";
        let f = scope_lint("t.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("engine call"));
    }

    #[test]
    fn statement_temporary_dies_at_semicolon() {
        let src =
            "fn f(c: &C, e: &E) {\n    let n = c.state.read().len();\n    e.explain(1, 2);\n}\n";
        assert!(scope_lint("t.rs", src).is_empty(), "temporary released");
    }

    #[test]
    fn atomic_policy_default_relaxed() {
        let src = "fn f(s: &S) {\n    s.visits.fetch_add(1, Ordering::SeqCst);\n    \
                   s.visits.load(Ordering::Relaxed);\n}\n";
        let f = scope_lint("crates/rtree/src/tree.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::AtomicOrdering);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn cache_generation_policy() {
        let ok = "fn f(c: &C) {\n    c.generation.fetch_add(1, Ordering::AcqRel);\n    \
                  c.generation.load(Ordering::Acquire);\n    c.hits.fetch_add(1, Ordering::Relaxed);\n}\n";
        assert!(scope_lint("crates/core/src/cache.rs", ok).is_empty());
        let bad = "fn f(c: &C) {\n    c.generation.fetch_add(1, Ordering::Relaxed);\n}\n";
        let f = scope_lint("crates/core/src/cache.rs", bad);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("AcqRel"));
    }

    #[test]
    fn allow_hatch_works_for_scope_rules() {
        let src =
            "fn f(s: &S) {\n    // lint:allow(atomic_ordering) reason=proof in DESIGN.md\n    \
                   s.visits.fetch_add(1, Ordering::SeqCst);\n}\n";
        let class = FileClass {
            concurrency: true,
            ..FileClass::default()
        };
        let (f, a) = lint_source("crates/rtree/src/tree.rs", src, class);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(c: &C) {\n        let g = c.state.read();\n        let h = c.state.write();\n    }\n}\n";
        assert!(scope_lint("t.rs", src).is_empty());
    }

    #[test]
    fn builder_methods_named_read_write_are_not_acquisitions() {
        let src = "fn f(p: &Path) {\n    let f = OpenOptions::new().read(true).write(true).open(p);\n    \
                   let g = f.lock();\n}\n";
        assert!(scope_lint("t.rs", src).is_empty());
    }

    #[test]
    fn lexer_smoke() {
        // The scope tracker sees the same effective stream the other
        // rules do (strings/comments never surface).
        let src = "fn f() { let s = \"state.read()\"; }\n";
        assert!(lex(src).tokens.iter().all(|t| t.line == 1));
        assert!(scope_lint("t.rs", src).is_empty());
    }
}
