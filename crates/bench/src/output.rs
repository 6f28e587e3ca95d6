//! Tabular output shared by all figure harnesses: aligned text tables for
//! the terminal plus JSON dumps under `results/` for plotting.

use std::fmt::Write as _;
use std::path::PathBuf;

/// A simple column-aligned table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row arity");
        self.rows.push(cells);
    }

    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                let pad = widths[i] - c.len();
                let _ = write!(out, "{}{}", c, " ".repeat(pad));
                if i + 1 < ncols {
                    let _ = write!(out, "  ");
                }
            }
            let _ = writeln!(out);
        };
        fmt_row(&self.headers, &widths, &mut out);
        let _ = writeln!(out, "{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }
}

/// One regenerated figure/table.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// e.g. "fig6".
    pub id: String,
    pub title: String,
    /// Free-form notes (paper-reported values, calibration remarks).
    pub notes: Vec<String>,
    pub tables: Vec<(String, Table)>,
}

impl FigureResult {
    pub fn new(id: &str, title: &str) -> Self {
        Self { id: id.into(), title: title.into(), notes: Vec::new(), tables: Vec::new() }
    }

    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    pub fn table(&mut self, caption: &str, t: Table) {
        self.tables.push((caption.into(), t));
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {}: {} ==", self.id, self.title);
        for n in &self.notes {
            let _ = writeln!(out, "   {n}");
        }
        for (cap, t) in &self.tables {
            let _ = writeln!(out, "\n-- {cap} --");
            let _ = write!(out, "{}", t.render());
        }
        out
    }

    /// Persist as JSON under `results/<id>.json` (best-effort).
    pub fn save_json(&self) -> Option<PathBuf> {
        let dir = PathBuf::from("results");
        std::fs::create_dir_all(&dir).ok()?;
        let path = dir.join(format!("{}.json", self.id));
        std::fs::write(&path, self.to_json()).ok()?;
        Some(path)
    }

    /// JSON encoding.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = write!(out, "  \"id\": {},\n  \"title\": {},\n", json_str(&self.id), json_str(&self.title));
        let _ = writeln!(
            out,
            "  \"notes\": [{}],",
            self.notes.iter().map(|n| json_str(n)).collect::<Vec<_>>().join(", ")
        );
        out.push_str("  \"tables\": [");
        for (i, (caption, t)) in self.tables.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"caption\": {}, \"headers\": [{}], \"rows\": [",
                json_str(caption),
                t.headers.iter().map(|h| json_str(h)).collect::<Vec<_>>().join(", ")
            );
            for (j, row) in t.rows.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "\n      [{}]",
                    row.iter().map(|c| json_str(c)).collect::<Vec<_>>().join(", ")
                );
            }
            out.push_str("\n    ]}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Print, save, and return.
    pub fn emit(self) -> Self {
        println!("{}", self.render());
        if let Some(p) = self.save_json() {
            println!("   [saved {}]", p.display());
        }
        self
    }
}

/// Minimal JSON string escaping for table cells and captions.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Sweep size selector: `Full` reproduces the paper's ranges; `Quick` is a
/// reduced version for tests and Criterion benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Quick,
}

impl Scale {
    pub fn from_env() -> Self {
        match std::env::var("STEPSTONE_SCALE").as_deref() {
            Ok("quick") => Scale::Quick,
            _ => Scale::Full,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["a", "long-header"]);
        t.row(vec!["1", "2"]);
        t.row(vec!["333", "4"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a    "));
        assert!(lines[2].starts_with("1    "));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn figure_renders_notes_and_tables() {
        let mut f = FigureResult::new("figX", "test");
        f.note("calibration note");
        let mut t = Table::new(vec!["col"]);
        t.row(vec!["val"]);
        f.table("caption", t);
        let s = f.render();
        assert!(s.contains("figX"));
        assert!(s.contains("calibration note"));
        assert!(s.contains("caption"));
        assert!(s.contains("val"));
    }
}
