//! Code size and public surface of every workspace crate, in `SIZE.json`
//! at the repository root, so a diff shows what a change added.
//!
//! ```sh
//! cargo run --release -p darwin-bench --bin size             # rewrite SIZE.json
//! cargo run --release -p darwin-bench --bin size -- --check  # exit 1 if SIZE.json is stale
//! ```
//!
//! One row per package: the root package and each `members` entry of the
//! root `Cargo.toml`, in that order. Its `.rs` files are those under
//! `src/` and `tests/` (any `target/` directory skipped), and a row holds:
//!
//! * `lines`: lines of each `src/` file up to its first `#[cfg(test)]`
//!   line (the whole file if it has none);
//! * `test_lines`: the rest of the `src/` files, and every `tests/` line;
//! * `panic_sites`: matches of `unwrap\(\)|expect\(|assert!\(|unreachable!|panic!`
//!   in the `src/` files, test modules included;
//! * `exports`: the names `src/lib.rs` exports at its top level — each
//!   `pub mod` and the last segment (or alias) of each `pub use` item —
//!   sorted.
//!
//! The file records; `--check` fails only when it does not match the tree,
//! never on a size.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The literal alternatives of the panic-site pattern.
const PANIC_SITES: [&str; 5] = ["unwrap()", "expect(", "assert!(", "unreachable!", "panic!"];

struct Row {
    name: String,
    path: String,
    lines: usize,
    test_lines: usize,
    panic_sites: usize,
    exports: Vec<String>,
}

/// Every `.rs` file under `dir`, sorted, `target/` directories skipped.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.map(|e| e.expect("readable entry").path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n != "target") {
                rust_files(&p, out);
            }
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The top-level names a `lib.rs` exports.
fn exports(lib: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut lines = lib.lines();
    while let Some(line) = lines.next() {
        if let Some(rest) = line.strip_prefix("pub mod ") {
            let name = rest.split([';', ' ', '{']).next().unwrap_or_default();
            names.push(name.to_string());
        } else if let Some(rest) = line.strip_prefix("pub use ") {
            let mut item = rest.to_string();
            while !item.contains(';') {
                let Some(next) = lines.next() else { break };
                item.push_str(next);
            }
            let item = item.split(';').next().unwrap_or_default();
            for part in item.split([',', '{', '}']) {
                let part = part.trim();
                let name = match part.split_once(" as ") {
                    Some((_, alias)) => alias.trim(),
                    None => part.rsplit("::").next().unwrap_or_default(),
                };
                if !name.is_empty() && name != "self" {
                    names.push(name.to_string());
                }
            }
        }
    }
    names.sort();
    names
}

fn measure(root: &Path, member: &str) -> Row {
    let dir = root.join(member);
    let manifest = read(&dir.join("Cargo.toml"));
    let name = manifest
        .lines()
        .find_map(|l| l.trim().strip_prefix("name = "))
        .map(|n| n.trim_matches('"').to_string())
        .unwrap_or_else(|| panic!("{member}: no package name"));
    let mut row = Row {
        name,
        path: member.to_string(),
        lines: 0,
        test_lines: 0,
        panic_sites: 0,
        exports: exports(&fs::read_to_string(dir.join("src/lib.rs")).unwrap_or_default()),
    };
    let (mut src, mut tests) = (Vec::new(), Vec::new());
    rust_files(&dir.join("src"), &mut src);
    rust_files(&dir.join("tests"), &mut tests);
    for file in &src {
        let text = read(file);
        let total = text.lines().count();
        let prod = (text.lines())
            .position(|l| l.trim() == "#[cfg(test)]")
            .unwrap_or(total);
        row.lines += prod;
        row.test_lines += total - prod;
        row.panic_sites += PANIC_SITES
            .iter()
            .map(|p| text.matches(p).count())
            .sum::<usize>();
    }
    row.test_lines += tests.iter().map(|f| read(f).lines().count()).sum::<usize>();
    row
}

/// The root package, then the `members` of the root manifest.
fn members(root: &Path) -> Vec<String> {
    let manifest = read(&root.join("Cargo.toml"));
    let list = manifest
        .split_once("members = [")
        .and_then(|(_, rest)| rest.split_once(']'))
        .expect("a [workspace] members list")
        .0;
    let listed = list.split(',').map(|m| m.trim().trim_matches('"'));
    std::iter::once(".")
        .chain(listed.filter(|m| !m.is_empty()))
        .map(String::from)
        .collect()
}

fn render(rows: &[Row]) -> String {
    let mut out = String::from("{\n  \"crates\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let exports: Vec<String> = r.exports.iter().map(|e| format!("\"{e}\"")).collect();
        out += &format!(
            "    {{\"crate\": \"{}\", \"path\": \"{}\", \"lines\": {}, \"test_lines\": {}, \"panic_sites\": {}, \"exports\": [{}]}}{}\n",
            r.name,
            r.path,
            r.lines,
            r.test_lines,
            r.panic_sites,
            exports.join(", "),
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    let sum = |f: fn(&Row) -> usize| rows.iter().map(f).sum::<usize>();
    out += &format!(
        "  ],\n  \"total\": {{\"lines\": {}, \"test_lines\": {}, \"panic_sites\": {}, \"exports\": {}}}\n}}\n",
        sum(|r| r.lines),
        sum(|r| r.test_lines),
        sum(|r| r.panic_sites),
        sum(|r| r.exports.len()),
    );
    out
}

fn main() -> ExitCode {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let rows: Vec<Row> = members(&root).iter().map(|m| measure(&root, m)).collect();
    let json = render(&rows);
    let file = root.join("SIZE.json");
    if std::env::args().any(|a| a == "--check") {
        if fs::read_to_string(&file).ok().as_deref() == Some(json.as_str()) {
            return ExitCode::SUCCESS;
        }
        eprintln!("SIZE.json does not match the tree: run `cargo run -p darwin-bench --bin size`");
        return ExitCode::FAILURE;
    }
    fs::write(&file, json).expect("SIZE.json written");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exports_reads_mods_uses_groups_and_aliases() {
        let lib = "//! doc\npub mod a;\nmod hidden;\npub mod prelude {\n    pub use x::Inner;\n}\n\
                   pub use b::{C, D};\npub use e::{\n    F,\n    g::H,\n};\npub use i as j;\npub(crate) use k::L;\n";
        assert_eq!(exports(lib), ["C", "D", "F", "H", "a", "j", "prelude"]);
    }
}
