//! Tabular output shared by all figure harnesses: aligned text tables for
//! the terminal plus JSON dumps under `results/` for plotting, and the
//! [`Json`] value that every JSON file here is built as and read back as.

use std::fmt::{self, Write as _};
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
        let strs = |v: &[String]| Json::arr(v.iter().map(|s| Json::from(s.as_str())));
        let tables = self.tables.iter().map(|(caption, t)| {
            Json::obj([
                ("caption", caption.as_str().into()),
                ("headers", strs(&t.headers)),
                ("rows", Json::arr(t.rows.iter().map(|row| strs(row)))),
            ])
        });
        let doc = Json::obj([
            ("id", self.id.as_str().into()),
            ("title", self.title.as_str().into()),
            ("notes", strs(&self.notes)),
            ("tables", Json::arr(tables)),
        ]);
        format!("{doc}\n")
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

/// A JSON value. Numbers keep the text they were printed with (or parsed
/// from), so a file read back prints with its own precision; objects keep
/// their key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A number's literal text.
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// Nesting deeper than this is refused by [`Json::parse`] instead of
/// recursing without bound on hostile input.
const MAX_DEPTH: usize = 128;

impl Json {
    /// An object with `fields` in this order.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Self {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    pub fn arr(items: impl IntoIterator<Item = Json>) -> Self {
        Json::Arr(items.into_iter().collect())
    }

    /// `x` printed with `places` decimals; `null` when `x` is not finite,
    /// which JSON cannot spell.
    pub fn fixed(x: f64, places: usize) -> Self {
        if x.is_finite() {
            Json::Num(format!("{x:.places$}"))
        } else {
            Json::Null
        }
    }

    /// The field `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value of a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// Parse one JSON document; malformed or truncated text is an `Err`
    /// naming the byte offset.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { s: text.as_bytes(), i: 0 };
        let v = p.value(0)?;
        p.ws();
        if p.i < p.s.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }

    /// Print at `indent`: a container of scalars on one line, any other
    /// container one item per line.
    fn write(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let (open, close, items): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return f.write_str("null"),
            Json::Bool(b) => return write!(f, "{b}"),
            Json::Num(s) => return f.write_str(s),
            Json::Str(s) => return f.write_str(&json_str(s)),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(fields) => {
                ('{', '}', fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect())
            }
        };
        let flat = items.iter().all(|(_, v)| !matches!(v, Json::Arr(_) | Json::Obj(_)));
        write!(f, "{open}")?;
        for (i, (key, v)) in items.iter().enumerate() {
            if flat {
                f.write_str(if i == 0 { "" } else { ", " })?;
            } else {
                write!(f, "{}\n{:w$}", if i == 0 { "" } else { "," }, "", w = indent + 2)?;
            }
            if let Some(k) = key {
                write!(f, "{}: ", json_str(k))?;
            }
            v.write(f, indent + 2)?;
        }
        if !flat {
            write!(f, "\n{:indent$}", "")?;
        }
        write!(f, "{close}")
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

macro_rules! json_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(x: $t) -> Self {
                Json::Num(x.to_string())
            }
        }
    )*};
}
json_from_int!(u64, u128, usize);

/// Recursive-descent reader behind [`Json::parse`].
struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.i)
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.i += 1;
        }
    }

    /// Skip whitespace, then consume `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        self.ws();
        let hit = self.peek() == Some(b);
        self.i += hit as usize;
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.ws();
        match self.peek() {
            None => Err(self.err("unexpected end")),
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                if !self.eat(b'}') {
                    loop {
                        self.ws();
                        let key = self.string()?;
                        if !self.eat(b':') {
                            return Err(self.err("expected ':'"));
                        }
                        fields.push((key, self.value(depth + 1)?));
                        if self.eat(b'}') {
                            break;
                        }
                        if !self.eat(b',') {
                            return Err(self.err("expected ',' or '}'"));
                        }
                    }
                }
                Ok(Json::Obj(fields))
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                if !self.eat(b']') {
                    loop {
                        items.push(self.value(depth + 1)?);
                        if self.eat(b']') {
                            break;
                        }
                        if !self.eat(b',') {
                            return Err(self.err("expected ',' or ']'"));
                        }
                    }
                }
                Ok(Json::Arr(items))
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(b'n') => self.word("null", Json::Null),
            Some(_) => self.number(),
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Result<Json, String> {
        if !self.s[self.i..].starts_with(w.as_bytes()) {
            return Err(self.err("unexpected character"));
        }
        self.i += w.len();
        Ok(v)
    }

    /// Consume a run of ASCII digits; false if there was none.
    fn digits(&mut self) -> bool {
        let start = self.i;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        self.i > start
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        self.i += (self.peek() == Some(b'-')) as usize;
        let int = self.i;
        if !self.digits() || (self.s[int] == b'0' && self.i - int > 1) {
            return Err(self.err("malformed number"));
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            if !self.digits() {
                return Err(self.err("malformed number"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            self.i += matches!(self.peek(), Some(b'+' | b'-')) as usize;
            if !self.digits() {
                return Err(self.err("malformed number"));
            }
        }
        // Only ASCII bytes were consumed.
        Ok(Json::Num(String::from_utf8_lossy(&self.s[start..self.i]).into_owned()))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self.s.get(self.i..self.i + 4).ok_or_else(|| self.err("unexpected end"))?;
        let code = std::str::from_utf8(digits)
            .ok()
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.i += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected a string"));
        }
        self.i += 1;
        let mut out = String::new();
        loop {
            let start = self.i;
            while self.peek().is_some_and(|c| c != b'"' && c != b'\\' && c >= 0x20) {
                self.i += 1;
            }
            // The run stops at an ASCII byte, so it ends on a char boundary.
            out.push_str(&String::from_utf8_lossy(&self.s[start..self.i]));
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated string"))?;
                    self.i += 1;
                    out.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let mut code = self.hex4()?;
                            let high = (0xD800..0xDC00).contains(&code);
                            if high && self.s[self.i..].starts_with(b"\\u") {
                                self.i += 2;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("bad surrogate pair"));
                                }
                                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            }
                            char::from_u32(code).ok_or_else(|| self.err("bad \\u escape"))?
                        }
                        _ => return Err(self.err("bad escape")),
                    });
                }
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }
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
