//! A minimal TOML-subset reader for this workspace's `Cargo.toml`
//! files.
//!
//! The build container is offline, so there is no `toml` crate to lean
//! on; instead this module hand-parses exactly the manifest shapes the
//! workspace uses — `[package]`, `[dependencies]` (plain versions,
//! `key.workspace = true`, inline `{ workspace = true }` /
//! `{ path = "…" }` tables and `[dependencies.name]` subsections),
//! `[dev-dependencies]`, `[features]` (including multi-line arrays),
//! `[workspace]` members and `[workspace.dependencies]`. Anything it
//! does not recognise is skipped, never an error: the workspace pass
//! can only *under*-report on manifest shapes it does not model, and
//! `cargo` itself rejects genuinely malformed manifests.
//!
//! `#`-comments are collected with their line numbers so the workspace
//! rules can honour `# lint:allow(<rule>) reason=…` escape hatches in
//! manifests, mirroring the `// lint:allow` hatch in source files.

use crate::lexer::Comment;

/// One dependency declaration from a `[dependencies]`-style table.
#[derive(Debug, Clone, Default)]
pub struct Dep {
    /// The dependency's crate name as written (the table key).
    pub name: String,
    /// 1-based manifest line of the declaration.
    pub line: u32,
    /// Whether the dep inherits from `[workspace.dependencies]`
    /// (`name.workspace = true` or `{ workspace = true }`).
    pub workspace: bool,
    /// The `path = "…"` value, if any.
    pub path: Option<String>,
    /// The version requirement, for `name = "1.0"`-style deps.
    pub version: Option<String>,
}

/// One `[features]` entry: `name = ["dep/feat", "other-feature"]`.
#[derive(Debug, Clone)]
pub struct FeatureDecl {
    /// The feature name.
    pub name: String,
    /// 1-based manifest line of the declaration.
    pub line: u32,
    /// The forward list, verbatim (`"wnrs-obs/enabled"`, `"dep:x"`, …).
    pub entries: Vec<String>,
}

/// The parsed subset of one `Cargo.toml`.
#[derive(Debug, Clone, Default)]
pub struct Manifest {
    /// `[package] name`, or empty for a virtual manifest.
    pub name: String,
    /// Workspace-relative path of the manifest (slash separators).
    pub rel: String,
    /// `[dependencies]`.
    pub deps: Vec<Dep>,
    /// `[dev-dependencies]`.
    pub dev_deps: Vec<Dep>,
    /// `[features]`.
    pub features: Vec<FeatureDecl>,
    /// `[workspace] members` globs (root manifest only).
    pub members: Vec<String>,
    /// `[workspace.dependencies]` (root manifest only).
    pub workspace_deps: Vec<Dep>,
    /// Every `#` comment, for `lint:allow` directive parsing.
    pub comments: Vec<Comment>,
}

impl Manifest {
    /// Looks up a declared feature by name.
    #[must_use]
    pub fn feature(&self, name: &str) -> Option<&FeatureDecl> {
        self.features.iter().find(|f| f.name == name)
    }

    /// Whether the manifest declares `name` as a feature.
    #[must_use]
    pub fn declares_feature(&self, name: &str) -> bool {
        self.feature(name).is_some()
    }
}

/// Parses the supported subset out of `text`; `rel` is recorded for
/// report attribution.
#[must_use]
pub fn parse_manifest(rel: &str, text: &str) -> Manifest {
    let mut m = Manifest {
        rel: rel.to_string(),
        ..Manifest::default()
    };
    let mut section: Vec<String> = Vec::new();
    let mut lines = text.lines().enumerate().peekable();
    while let Some((idx, raw)) = lines.next() {
        let line_no = (idx + 1) as u32;
        let (code, comment) = split_comment(raw);
        if let Some(c) = comment {
            m.comments.push(Comment {
                text: c,
                line: line_no,
            });
        }
        let code = code.trim();
        if code.is_empty() {
            continue;
        }
        if let Some(header) = code.strip_prefix('[') {
            let header = header.trim_start_matches('[');
            if let Some(end) = header.find(']') {
                section = header[..end]
                    .split('.')
                    .map(|s| s.trim().to_string())
                    .collect();
            }
            continue;
        }
        let Some(eq) = code.find('=') else { continue };
        let key = code[..eq].trim().to_string();
        let mut value = code[eq + 1..].trim().to_string();
        // Multi-line array: keep consuming until the closing `]`.
        if value.starts_with('[') && !array_closed(&value) {
            for (idx2, raw2) in lines.by_ref() {
                let (code2, comment2) = split_comment(raw2);
                if let Some(c) = comment2 {
                    m.comments.push(Comment {
                        text: c,
                        line: (idx2 + 1) as u32,
                    });
                }
                value.push(' ');
                value.push_str(code2.trim());
                if array_closed(&value) {
                    break;
                }
            }
        }
        apply_entry(&mut m, &section, &key, &value, line_no);
    }
    m
}

/// Routes one `key = value` line into the manifest model.
fn apply_entry(m: &mut Manifest, section: &[String], key: &str, value: &str, line: u32) {
    let sec: Vec<&str> = section.iter().map(String::as_str).collect();
    match sec.as_slice() {
        ["package"] if key == "name" => m.name = unquote(value).unwrap_or_default(),
        ["workspace"] if key == "members" => m.members = parse_string_array(value),
        ["workspace", "dependencies"] => apply_dep_entry(&mut m.workspace_deps, key, value, line),
        ["workspace", "dependencies", name] => {
            apply_dep_subkey(&mut m.workspace_deps, name, key, value, line);
        }
        ["dependencies"] => apply_dep_entry(&mut m.deps, key, value, line),
        ["dependencies", name] => apply_dep_subkey(&mut m.deps, name, key, value, line),
        ["dev-dependencies"] => apply_dep_entry(&mut m.dev_deps, key, value, line),
        ["dev-dependencies", name] => apply_dep_subkey(&mut m.dev_deps, name, key, value, line),
        ["features"] => m.features.push(FeatureDecl {
            name: key.to_string(),
            line,
            entries: parse_string_array(value),
        }),
        _ => {}
    }
}

/// Handles a direct `[dependencies]` line: `name = "1"`,
/// `name = { … }` or the dotted form `name.workspace = true`.
fn apply_dep_entry(deps: &mut Vec<Dep>, key: &str, value: &str, line: u32) {
    if let Some((name, sub)) = key.split_once('.') {
        apply_dep_subkey(deps, name, sub, value, line);
        return;
    }
    let mut dep = Dep {
        name: key.to_string(),
        line,
        ..Dep::default()
    };
    if let Some(v) = unquote(value) {
        dep.version = Some(v);
    } else if value.starts_with('{') {
        for (k, v) in parse_inline_table(value) {
            set_dep_field(&mut dep, &k, &v);
        }
    }
    deps.push(dep);
}

/// Handles `name.<field> = value` (dotted keys or `[dependencies.name]`
/// subsections), creating the dep on first sight.
fn apply_dep_subkey(deps: &mut Vec<Dep>, name: &str, field: &str, value: &str, line: u32) {
    if !deps.iter().any(|d| d.name == name) {
        deps.push(Dep {
            name: name.to_string(),
            line,
            ..Dep::default()
        });
    }
    if let Some(dep) = deps.iter_mut().find(|d| d.name == name) {
        set_dep_field(dep, field, value);
    }
}

fn set_dep_field(dep: &mut Dep, field: &str, value: &str) {
    match field {
        "workspace" => dep.workspace = value.trim() == "true",
        "path" => dep.path = unquote(value),
        "version" => dep.version = unquote(value),
        _ => {}
    }
}

/// Splits a manifest line into code and an optional `#` comment,
/// respecting `#` inside quoted strings.
fn split_comment(raw: &str) -> (&str, Option<String>) {
    let mut in_string = false;
    for (i, c) in raw.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return (&raw[..i], Some(raw[i..].to_string())),
            _ => {}
        }
    }
    (raw, None)
}

/// Whether a (possibly joined) array value has its closing `]`.
fn array_closed(value: &str) -> bool {
    let mut in_string = false;
    let mut depth = 0i32;
    for c in value.chars() {
        match c {
            '"' => in_string = !in_string,
            '[' if !in_string => depth += 1,
            ']' if !in_string => depth -= 1,
            _ => {}
        }
    }
    depth <= 0
}

/// Extracts the quoted strings out of `["a", "b"]`.
fn parse_string_array(value: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_string = false;
    let mut cur = String::new();
    for c in value.chars() {
        match c {
            '"' => {
                if in_string {
                    out.push(std::mem::take(&mut cur));
                }
                in_string = !in_string;
            }
            _ if in_string => cur.push(c),
            _ => {}
        }
    }
    out
}

/// Parses `{ k = v, k2 = v2 }` into key/value pairs (values verbatim,
/// quoted or not).
fn parse_inline_table(value: &str) -> Vec<(String, String)> {
    let inner = value
        .trim()
        .trim_start_matches('{')
        .trim_end_matches('}')
        .trim();
    let mut out = Vec::new();
    let mut in_string = false;
    let mut part = String::new();
    let mut parts = Vec::new();
    for c in inner.chars() {
        match c {
            '"' => {
                in_string = !in_string;
                part.push(c);
            }
            ',' if !in_string => parts.push(std::mem::take(&mut part)),
            _ => part.push(c),
        }
    }
    if !part.trim().is_empty() {
        parts.push(part);
    }
    for p in parts {
        if let Some((k, v)) = p.split_once('=') {
            out.push((k.trim().to_string(), v.trim().to_string()));
        }
    }
    out
}

/// Strips surrounding double quotes; `None` when `value` is not a plain
/// quoted string.
fn unquote(value: &str) -> Option<String> {
    let v = value.trim();
    let inner = v.strip_prefix('"')?.strip_suffix('"')?;
    Some(inner.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_package_and_plain_deps() {
        let m = parse_manifest(
            "crates/x/Cargo.toml",
            "[package]\nname = \"wnrs-x\"\n\n[dependencies]\nrand = \"0.8\"\nwnrs-geometry.workspace = true\n",
        );
        assert_eq!(m.name, "wnrs-x");
        assert_eq!(m.deps.len(), 2);
        assert_eq!(m.deps[0].version.as_deref(), Some("0.8"));
        assert!(m.deps[1].workspace);
        assert_eq!(m.deps[1].line, 6);
    }

    #[test]
    fn parses_inline_tables_and_subsections() {
        let m = parse_manifest(
            "Cargo.toml",
            "[dependencies]\na = { workspace = true }\nb = { path = \"vendor/b\", version = \"1\" }\n[dependencies.c]\npath = \"crates/c\"\n",
        );
        assert!(m.deps[0].workspace);
        assert_eq!(m.deps[1].path.as_deref(), Some("vendor/b"));
        assert_eq!(m.deps[1].version.as_deref(), Some("1"));
        assert_eq!(m.deps[2].name, "c");
        assert_eq!(m.deps[2].path.as_deref(), Some("crates/c"));
    }

    #[test]
    fn parses_multiline_feature_arrays_and_members() {
        let src = "[workspace]\nmembers = [\"crates/*\", \"vendor/*\"]\n\n[features]\nobs = [\n    \"wnrs-obs/enabled\", # comment\n    \"wnrs-core/obs\",\n]\nempty = []\n";
        let m = parse_manifest("Cargo.toml", src);
        assert_eq!(m.members, vec!["crates/*", "vendor/*"]);
        let obs = m.feature("obs").expect("obs feature");
        assert_eq!(obs.entries, vec!["wnrs-obs/enabled", "wnrs-core/obs"]);
        assert_eq!(obs.line, 5);
        assert!(m.feature("empty").expect("empty").entries.is_empty());
        assert!(m.declares_feature("obs"));
        assert!(!m.declares_feature("invariant-checks"));
    }

    #[test]
    fn collects_comments_with_lines() {
        let m = parse_manifest(
            "Cargo.toml",
            "# top\n[features]\n# lint:allow(feature_cascade) reason=demo\nobs = []\n",
        );
        assert_eq!(m.comments.len(), 2);
        assert_eq!(m.comments[1].line, 3);
        assert!(m.comments[1].text.contains("lint:allow"));
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let m = parse_manifest("Cargo.toml", "[package]\nname = \"a#b\"\n");
        assert_eq!(m.name, "a#b");
        assert!(m.comments.is_empty());
    }

    #[test]
    fn workspace_dependencies_table() {
        let m = parse_manifest(
            "Cargo.toml",
            "[workspace.dependencies]\nwnrs-obs = { path = \"crates/obs\" }\nrand = { path = \"vendor/rand\" }\n",
        );
        assert_eq!(m.workspace_deps.len(), 2);
        assert_eq!(m.workspace_deps[1].path.as_deref(), Some("vendor/rand"));
    }
}
