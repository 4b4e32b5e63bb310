//! Pass A: workspace-model rules (W1 `feature_cascade`, W2 `dep_graph`,
//! W3 `cfg_consistency`) over the parsed manifest graph.
//!
//! The cascade features this workspace threads crate-by-crate — `obs`
//! and `invariant-checks` — only work when every crate that
//! declares one forwards it to **every** direct dependency that also
//! declares it: a single missing `"dep/feature"` entry silently turns
//! the feature off for a whole subtree, which is invisible until
//! someone reads the numbers. W1 proves the cascade gap-free
//! mechanically. W2 pins the dependency-graph shape the build relies
//! on (acyclic normal deps, a dependency-free `wnrs-obs` leaf, vendor
//! stubs reached only through `[workspace.dependencies]` path entries).
//! W3 enforces the ZST no-op-twin pattern for feature-gated public
//! API, so downstream code compiles identically with and without a
//! feature.
//!
//! The escape hatch mirrors the source-level one: in a manifest,
//! `# lint:allow(<rule>) reason=…` on the finding's line or the line
//! above; in sources, the usual `// lint:allow`.

use crate::lexer::Comment;
use crate::model::{GatedItem, ItemKind, WorkspaceModel};
use crate::rules::{apply_workspace_allows, AllowRecord, Finding, Rule};
use std::collections::BTreeMap;

/// The features that must cascade leaf-ward along dependency edges.
pub const CASCADE_FEATURES: [&str; 2] = ["obs", "invariant-checks"];

/// In `wnrs-obs` the `obs` cascade terminates as the `enabled`
/// feature, so forwarding to it is spelled `wnrs-obs/enabled`.
const OBS_CRATE: &str = "wnrs-obs";
const OBS_LEAF_FEATURE: &str = "enabled";

/// Runs W1–W3 over the model and applies manifest/source allow
/// directives; returns surviving findings plus used allows.
#[must_use]
pub fn check(model: &WorkspaceModel) -> (Vec<Finding>, Vec<AllowRecord>) {
    let mut findings = Vec::new();
    check_feature_cascade(model, &mut findings);
    check_dep_graph(model, &mut findings);
    check_cfg_consistency(model, &mut findings);

    // Collect allow-bearing comments per file: manifest comments plus
    // the allow directives harvested from sources.
    let mut comments: BTreeMap<String, Vec<Comment>> = BTreeMap::new();
    comments.insert(model.root.rel.clone(), model.root.comments.clone());
    for c in &model.crates {
        comments.insert(c.manifest.rel.clone(), c.manifest.comments.clone());
        for (file, list) in &c.src_allow_comments {
            comments
                .entry(file.clone())
                .or_default()
                .extend(list.iter().cloned());
        }
    }

    // Apply allows file by file over the union of files with findings
    // and files with directives (the latter so unused directives are
    // flagged).
    let mut by_file: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    for f in findings {
        by_file.entry(f.file.clone()).or_default().push(f);
    }
    for file in comments.keys() {
        by_file.entry(file.clone()).or_default();
    }
    let mut out_findings = Vec::new();
    let mut out_allows = Vec::new();
    for (file, file_findings) in by_file {
        let empty = Vec::new();
        let file_comments = comments.get(&file).unwrap_or(&empty);
        let report_malformed = file.ends_with(".toml");
        let (fs, als) =
            apply_workspace_allows(&file, file_comments, file_findings, report_malformed);
        out_findings.extend(fs);
        out_allows.extend(als);
    }
    (out_findings, out_allows)
}

// ---------------------------------------------------------------------
// W1 — feature_cascade
// ---------------------------------------------------------------------

fn check_feature_cascade(model: &WorkspaceModel, findings: &mut Vec<Finding>) {
    for c in model.crates.iter().filter(|c| !c.is_vendor) {
        for feature in CASCADE_FEATURES {
            let Some(decl) = c.manifest.feature(feature) else {
                continue;
            };
            // Every direct normal dependency that declares the cascade
            // feature must receive a forward.
            let mut required: Vec<String> = Vec::new();
            for dep in &c.manifest.deps {
                let Some(dep_crate) = model.by_name(&dep.name) else {
                    continue;
                };
                if dep.name == OBS_CRATE && feature == "obs" {
                    required.push(format!("{OBS_CRATE}/{OBS_LEAF_FEATURE}"));
                } else if dep_crate.manifest.declares_feature(feature) {
                    required.push(format!("{}/{feature}", dep.name));
                }
            }
            for req in &required {
                if !decl.entries.iter().any(|e| e == req) {
                    findings.push(Finding {
                        rule: Rule::FeatureCascade,
                        file: c.manifest.rel.clone(),
                        line: decl.line,
                        message: format!(
                            "cascade feature `{feature}` of `{}` does not forward to its \
                             dependency (missing `\"{req}\"`): the cascade has a gap",
                            c.manifest.name
                        ),
                    });
                }
            }
            // Dead plumbing: declared, forwards nowhere, gates nothing.
            let gates_locally = c.cfg_uses.iter().any(|u| u.feature == feature);
            if decl.entries.is_empty() && required.is_empty() && !gates_locally {
                findings.push(Finding {
                    rule: Rule::FeatureCascade,
                    file: c.manifest.rel.clone(),
                    line: decl.line,
                    message: format!(
                        "cascade feature `{feature}` of `{}` forwards to no dependency and \
                         gates no code: dead plumbing, delete it",
                        c.manifest.name
                    ),
                });
            }
        }
        // A cfg(feature = "x") on a feature the crate never declares can
        // never be enabled for this crate: the gate is dead (or the
        // declaration was lost in a refactor).
        for u in &c.cfg_uses {
            if !c.manifest.declares_feature(&u.feature) {
                findings.push(Finding {
                    rule: Rule::FeatureCascade,
                    file: u.file.clone(),
                    line: u.line,
                    message: format!(
                        "`cfg(feature = \"{}\")` but `{}` declares no such feature; the gate \
                         can never be enabled",
                        u.feature, c.manifest.name
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// W2 — dep_graph
// ---------------------------------------------------------------------

fn check_dep_graph(model: &WorkspaceModel, findings: &mut Vec<Finding>) {
    // No cycles among normal deps (dev-deps may legitimately cycle).
    if let Some(cycle) = model.find_normal_dep_cycle() {
        let file = model
            .by_name(cycle.first().map(String::as_str).unwrap_or_default())
            .map(|c| c.manifest.rel.clone())
            .unwrap_or_else(|| "Cargo.toml".to_string());
        findings.push(Finding {
            rule: Rule::DepGraph,
            file,
            line: 1,
            message: format!("normal-dependency cycle: {}", cycle.join(" -> ")),
        });
    }
    // Pinned leaf invariant: the observability crate depends on nothing
    // (every crate instruments through it, so any dep would be a cycle
    // risk and a compile-time tax on the whole workspace).
    if let Some(obs) = model.by_name(OBS_CRATE) {
        if let Some(dep) = obs.manifest.deps.first() {
            findings.push(Finding {
                rule: Rule::DepGraph,
                file: obs.manifest.rel.clone(),
                line: dep.line,
                message: format!(
                    "`{OBS_CRATE}` must stay dependency-free but depends on `{}`",
                    dep.name
                ),
            });
        }
    }
    // Vendor stubs: reachable only via `workspace = true` deps that
    // resolve to a `vendor/` path in [workspace.dependencies], and the
    // stubs themselves must not depend on anything (least of all
    // first-party crates).
    let vendor_names: Vec<&str> = model
        .crates
        .iter()
        .filter(|c| c.is_vendor)
        .map(|c| c.manifest.name.as_str())
        .collect();
    for c in model.crates.iter().filter(|c| !c.is_vendor) {
        for dep in c.manifest.deps.iter().chain(c.manifest.dev_deps.iter()) {
            if vendor_names.contains(&dep.name.as_str()) && !dep.workspace {
                findings.push(Finding {
                    rule: Rule::DepGraph,
                    file: c.manifest.rel.clone(),
                    line: dep.line,
                    message: format!(
                        "vendored stub `{}` must be taken via `workspace = true` so every \
                         crate resolves the same offline stand-in",
                        dep.name
                    ),
                });
            }
        }
    }
    for dep in &model.root.workspace_deps {
        if vendor_names.contains(&dep.name.as_str())
            && !dep
                .path
                .as_deref()
                .unwrap_or_default()
                .starts_with("vendor/")
        {
            findings.push(Finding {
                rule: Rule::DepGraph,
                file: model.root.rel.clone(),
                line: dep.line,
                message: format!(
                    "[workspace.dependencies] entry `{}` must point into `vendor/` (offline \
                     build: no registry access)",
                    dep.name
                ),
            });
        }
    }
    for c in model.crates.iter().filter(|c| c.is_vendor) {
        if let Some(dep) = c.manifest.deps.first().or(c.manifest.dev_deps.first()) {
            findings.push(Finding {
                rule: Rule::DepGraph,
                file: c.manifest.rel.clone(),
                line: dep.line,
                message: format!(
                    "vendored stub `{}` must stay dependency-free but depends on `{}`",
                    c.manifest.name, dep.name
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// W3 — cfg_consistency
// ---------------------------------------------------------------------

fn check_cfg_consistency(model: &WorkspaceModel, findings: &mut Vec<Finding>) {
    for c in model.crates.iter().filter(|c| !c.is_vendor) {
        // Group gated pub items by (file, feature, name).
        let mut groups: BTreeMap<(String, String, String), Vec<&GatedItem>> = BTreeMap::new();
        for item in &c.gated_items {
            groups
                .entry((item.file.clone(), item.feature.clone(), item.name.clone()))
                .or_default()
                .push(item);
        }
        for ((_, feature, name), items) in groups {
            let enabled: Vec<&&GatedItem> = items.iter().filter(|i| i.enabled_branch).collect();
            let disabled: Vec<&&GatedItem> = items.iter().filter(|i| !i.enabled_branch).collect();
            if disabled.is_empty() {
                for item in &enabled {
                    findings.push(Finding {
                        rule: Rule::CfgConsistency,
                        file: item.file.clone(),
                        line: item.line,
                        message: format!(
                            "pub item `{name}` gated on feature `{feature}` has no \
                             `#[cfg(not(feature = \"{feature}\"))]` twin; add the no-op twin \
                             (ZST pattern) so the API is feature-invariant"
                        ),
                    });
                }
                continue;
            }
            if enabled.is_empty() {
                for item in &disabled {
                    findings.push(Finding {
                        rule: Rule::CfgConsistency,
                        file: item.file.clone(),
                        line: item.line,
                        message: format!(
                            "pub item `{name}` exists only under \
                             `#[cfg(not(feature = \"{feature}\"))]`; the enabled branch lacks \
                             its counterpart"
                        ),
                    });
                }
                continue;
            }
            // Both branches exist; fn twins must agree on signature.
            for e in &enabled {
                if e.kind != ItemKind::Fn {
                    continue;
                }
                let matched = disabled
                    .iter()
                    .any(|d| d.kind != ItemKind::Fn || d.signature == e.signature);
                if !matched {
                    findings.push(Finding {
                        rule: Rule::CfgConsistency,
                        file: e.file.clone(),
                        line: e.line,
                        message: format!(
                            "twin signatures of `fn {name}` (feature `{feature}`) disagree \
                             between the enabled and disabled branches"
                        ),
                    });
                }
            }
        }
    }
}
