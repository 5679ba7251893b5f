//! ASCII tables and CSV emission.

use crate::curves::Curve;
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// A simple left-aligned ASCII table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, header: &[&str]) -> Table {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Render with column alignment.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "== {} ==", self.title);
        }
        let line = |cells: &[String], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:<w$}  ", c, w = widths[i]);
            }
            out.pop();
            out.pop();
            out.push('\n');
        };
        line(&self.header, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }

    /// Write as CSV next to the other experiment outputs.
    pub fn to_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut f = fs::File::create(path)?;
        writeln!(f, "{}", self.header.join(","))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(","))?;
        }
        Ok(())
    }
}

/// Render a nanosecond duration with a human-scale unit (`"741 ns"`,
/// `"12.3 µs"`, `"3.83 s"`), three significant digits — what the bench
/// drivers print wall-clock comparisons with.
pub fn fmt_ns(ns: u128) -> String {
    const UNITS: [(u128, &str); 3] = [(1_000_000_000, "s"), (1_000_000, "ms"), (1_000, "µs")];
    for (scale, unit) in UNITS {
        let v = ns as f64 / scale as f64;
        // Pick the unit the *rounded* value fits in: 999_950 ns rounds to
        // 1.00 ms, not "1000 µs" — never four digits.
        if v >= 0.9995 {
            return if v >= 99.95 {
                format!("{v:.0} {unit}")
            } else if v >= 9.995 {
                format!("{v:.1} {unit}")
            } else {
                format!("{v:.2} {unit}")
            };
        }
    }
    format!("{ns} ns")
}

/// Canonical output path for an experiment artifact:
/// `target/experiments/<name>.csv` relative to the workspace root (or the
/// current directory when run elsewhere).
pub fn csv_path(name: &str) -> PathBuf {
    let base = std::env::var_os("DARWIN_EXPERIMENT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/experiments"));
    base.join(format!("{name}.csv"))
}

/// Write a set of curves as long-format CSV (`label,x,y`).
pub fn write_csv(name: &str, curves: &[Curve]) -> std::io::Result<PathBuf> {
    let path = csv_path(name);
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut f = fs::File::create(&path)?;
    writeln!(f, "label,x,y")?;
    for c in curves {
        for (&x, &y) in c.xs.iter().zip(&c.ys) {
            writeln!(f, "{},{},{}", c.label, x, y)?;
        }
    }
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["alpha".into(), "1".into()]);
        t.row(&["b".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("alpha  1"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only one".into()]);
    }

    #[test]
    fn fmt_ns_picks_human_units() {
        assert_eq!(fmt_ns(741), "741 ns");
        assert_eq!(fmt_ns(12_300), "12.3 µs");
        assert_eq!(fmt_ns(5_250_000), "5.25 ms");
        assert_eq!(fmt_ns(879_184_991), "879 ms");
        assert_eq!(fmt_ns(3_830_000_000), "3.83 s");
        // Unit boundaries round *up* a unit, never to four digits.
        assert_eq!(fmt_ns(999_950), "1.00 ms");
        assert_eq!(fmt_ns(999_950_000), "1.00 s");
        assert_eq!(fmt_ns(99_960), "100 µs");
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("darwin_eval_test");
        let _ = fs::remove_dir_all(&dir);
        std::env::set_var("DARWIN_EXPERIMENT_DIR", &dir);
        let mut c = Curve::new("line");
        c.push(1, 0.5);
        c.push(2, 0.75);
        let path = write_csv("unit_test_curve", &[c]).unwrap();
        let content = fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("label,x,y"));
        assert!(content.contains("line,2,0.75"));
        std::env::remove_var("DARWIN_EXPERIMENT_DIR");
    }

    #[test]
    fn table_csv() {
        let dir = std::env::temp_dir().join("darwin_eval_test_tbl");
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        let p = dir.join("t.csv");
        t.to_csv(&p).unwrap();
        assert_eq!(fs::read_to_string(&p).unwrap(), "a,b\n1,2\n");
    }
}
