//! [`Report`]: what one experiment run leaves behind, and its two
//! renderings (there is no serde in the workspace).

use std::mem;

/// How a column reads its value off a row of type `T`.
enum Fmt<T> {
    Int(fn(&T) -> u64),
    Fixed(usize, fn(&T) -> f64),
    Text(fn(&T) -> &str),
    Flag(fn(&T) -> bool),
    Hex(fn(&T) -> u64),
}

/// One column over rows of type `T`: JSON key, text header, format.
pub struct Col<T>(&'static str, &'static str, Fmt<T>);

impl<T> Col<T> {
    /// An integer.
    pub const fn int(key: &'static str, head: &'static str, get: fn(&T) -> u64) -> Self {
        Col(key, head, Fmt::Int(get))
    }

    /// A number with `places` decimals.
    pub const fn fixed(
        key: &'static str,
        head: &'static str,
        places: usize,
        get: fn(&T) -> f64,
    ) -> Self {
        Col(key, head, Fmt::Fixed(places, get))
    }

    /// A label: a JSON string (the harness's labels need no escaping).
    pub const fn text(key: &'static str, head: &'static str, get: fn(&T) -> &str) -> Self {
        Col(key, head, Fmt::Text(get))
    }

    /// `true` or `false`.
    pub const fn flag(key: &'static str, head: &'static str, get: fn(&T) -> bool) -> Self {
        Col(key, head, Fmt::Flag(get))
    }

    /// A 64-bit digest, `0x` and sixteen hex digits: a JSON string.
    pub const fn hex(key: &'static str, head: &'static str, get: fn(&T) -> u64) -> Self {
        Col(key, head, Fmt::Hex(get))
    }

    fn cell(&self, row: &T) -> String {
        match self.2 {
            Fmt::Int(get) => get(row).to_string(),
            Fmt::Fixed(places, get) => format!("{:.places$}", get(row)),
            Fmt::Text(get) => get(row).to_string(),
            Fmt::Flag(get) => get(row).to_string(),
            Fmt::Hex(get) => format!("{:#018x}", get(row)),
        }
    }
}

/// A table as rendered: per column its key, its header and whether its
/// values are strings (quoted in JSON, left-aligned in text); then the rows.
struct Table {
    cols: Vec<(&'static str, &'static str, bool)>,
    rows: Vec<Vec<String>>,
}

impl Table {
    fn new<T>(cols: &[Col<T>]) -> Table {
        let label = |c: &Col<T>| matches!(c.2, Fmt::Text(_) | Fmt::Hex(_));
        let cols = cols.iter().map(|c| (c.0, c.1, label(c))).collect();
        Table {
            cols,
            rows: Vec::new(),
        }
    }

    /// Row `r` as `(key, JSON value)` pairs.
    fn fields(&self, r: usize) -> Vec<(&str, String)> {
        let pair = |(&(key, _, label), v): (_, &String)| {
            (key, if label { format!("\"{v}\"") } else { v.clone() })
        };
        self.cols.iter().zip(&self.rows[r]).map(pair).collect()
    }

    fn render_text(&self, out: &mut String) {
        // (column, width) of each column the text shows.
        let shown: Vec<(usize, usize)> = (self.cols.iter().enumerate())
            .filter(|(_, col)| !col.1.is_empty())
            .map(|(c, col)| {
                let widths = self.rows.iter().map(|row| row[c].chars().count());
                (c, widths.fold(col.1.chars().count(), usize::max))
            })
            .collect();
        let line = |out: &mut String, cell: &dyn Fn(usize) -> String| {
            let cells: Vec<String> = (shown.iter())
                .map(|&(c, w)| {
                    let (cell, label) = (cell(c), self.cols[c].2);
                    if label {
                        format!("{cell:<w$}")
                    } else {
                        format!("{cell:>w$}")
                    }
                })
                .collect();
            *out += cells.join(" | ").trim_end();
            out.push('\n');
        };
        line(out, &|c| self.cols[c].1.to_string());
        let rule: Vec<String> = shown.iter().map(|&(_, w)| "-".repeat(w)).collect();
        *out += &(rule.join("-+-") + "\n");
        for row in &self.rows {
            line(out, &|c| row[c].clone());
        }
        out.push('\n');
    }
}

/// What a report holds, in the order the experiment added it.
enum Entry {
    Note(String),
    /// A table, `"key": [ … ]` in the JSON document; text only when the
    /// key is empty.
    Table(&'static str, Table),
    /// A one-row table whose fields the JSON document holds directly.
    Record(Table),
    /// `"key": {`: what follows, up to the matching `Close`, is nested.
    Open(&'static str),
    Close,
}

/// A table [`Report::table`] opened, for [`Report::row`] to fill.
pub struct Rows<'c, T> {
    entry: usize,
    cols: &'c [Col<T>],
}

/// One experiment run's notes and tables, in the order the experiment
/// added them, rendered as the text `xp` prints (and `xp report` writes to
/// `results/<name>.txt`) and as the `results/BENCH_*.json` document.
///
/// A table's columns are declared once, as [`Col`]s: a JSON key, a text
/// header and a format. The text renderer prints a table as `a | b` columns
/// under a `--+--` rule and over a blank line, labels left-aligned and
/// numbers right-aligned; an empty header keeps a column out of the text.
/// The JSON renderer lays the document out one entry per line and an array
/// one row per line, so a diff of two runs names the rows that moved. A key
/// `a.b` puts its field in a nested object `a`, written on one line when it
/// holds only values and one member per line when it holds another object.
/// Notes are text only, printed verbatim: the lines no table reproduces,
/// such as the Gantt charts and the hand-aligned tables the checked-in
/// `results/*.txt` pin.
#[derive(Default)]
pub struct Report {
    /// File stem under `results/` (`BENCH_kernel`, …) of the JSON document;
    /// `None` for a text-only experiment.
    pub bench: Option<&'static str>,
    entries: Vec<Entry>,
}

impl Report {
    /// Text printed verbatim, newlines included.
    pub fn note(&mut self, text: impl AsRef<str>) {
        match self.entries.last_mut() {
            Some(Entry::Note(note)) => note.push_str(text.as_ref()),
            _ => self.entries.push(Entry::Note(text.as_ref().to_owned())),
        }
    }

    /// Opens a table, `"key": [ … ]` in the JSON document (text only when
    /// `key` is empty). Its rows come one [`row`](Self::row) at a time, so a
    /// run that fails halfway still prints the rows before the failure.
    pub fn table<'c, T>(&mut self, key: &'static str, cols: &'c [Col<T>]) -> Rows<'c, T> {
        self.entries.push(Entry::Table(key, Table::new(cols)));
        let entry = self.entries.len() - 1;
        Rows { entry, cols }
    }

    /// Appends `row` to a table this report opened.
    pub fn row<T>(&mut self, rows: &Rows<T>, row: &T) {
        if let Entry::Table(_, table) = &mut self.entries[rows.entry] {
            table
                .rows
                .push(rows.cols.iter().map(|c| c.cell(row)).collect());
        }
    }

    /// A one-row table whose fields the JSON document holds directly.
    pub fn record<T>(&mut self, cols: &[Col<T>], row: &T) {
        let mut table = Table::new(cols);
        table.rows.push(cols.iter().map(|c| c.cell(row)).collect());
        self.entries.push(Entry::Record(table));
    }

    /// Puts what `fill` adds to the JSON document under `"key": { … }`.
    pub fn nested(&mut self, key: &'static str, fill: impl FnOnce(&mut Report)) {
        self.entries.push(Entry::Open(key));
        fill(self);
        self.entries.push(Entry::Close);
    }

    /// The text rendering.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for entry in &self.entries {
            match entry {
                Entry::Note(note) => out += note,
                Entry::Table(_, table) | Entry::Record(table) => table.render_text(&mut out),
                Entry::Open(_) | Entry::Close => {}
            }
        }
        out
    }

    /// The JSON rendering of a run of `experiment`, `--smoke` or not,
    /// newline-terminated.
    pub fn json(&self, experiment: &str, smoke: bool) -> String {
        let mut members = vec![
            format!("\"experiment\": \"{experiment}\""),
            format!("\"smoke\": {smoke}"),
        ];
        members.extend(members_of(&mut self.entries.iter(), 2));
        block(&members, 0) + "\n"
    }
}

/// The members `entries` add, up to an unmatched `Close`, to an object
/// whose members are indented by `pad`.
fn members_of<'a>(entries: &mut impl Iterator<Item = &'a Entry>, pad: usize) -> Vec<String> {
    let mut members = Vec::new();
    while let Some(entry) = entries.next() {
        match entry {
            Entry::Note(_) | Entry::Table("", _) => {}
            Entry::Record(table) => members.extend(fields(&table.fields(0), pad, true)),
            Entry::Table(key, table) => {
                let row_pad = " ".repeat(pad + 2);
                let rows: Vec<String> = (0..table.rows.len())
                    .map(|r| {
                        fields(&table.fields(r), pad + 3, true).join(&format!(",\n{row_pad} "))
                    })
                    .map(|row| format!("{row_pad}{{{row}}}"))
                    .collect();
                let close = " ".repeat(pad);
                members.push(format!("\"{key}\": [\n{}\n{close}]", rows.join(",\n")));
            }
            Entry::Open(key) => {
                let inner = members_of(entries, pad + 2);
                members.push(format!("\"{key}\": {}", block(&inner, pad)));
            }
            Entry::Close => break,
        }
    }
    members
}

/// `{`, each member on its own line indented by `pad + 2`, and `}`
/// indented by `pad`.
fn block(members: &[String], pad: usize) -> String {
    let inner: Vec<String> = members.iter().map(|m| " ".repeat(pad + 2) + m).collect();
    format!("{{\n{}\n{}}}", inner.join(",\n"), " ".repeat(pad))
}

/// The `"key": value` members of one object, `a.b` keys gathered into a
/// nested object `a` (laid out as [`Report`] says, from `pad`). With
/// `share`, consecutive values share a line.
fn fields(pairs: &[(&str, String)], pad: usize, share: bool) -> Vec<String> {
    let mut members = Vec::new();
    let mut line: Vec<String> = Vec::new();
    let mut rest = pairs;
    while let Some(((key, value), tail)) = rest.split_first() {
        let Some((group, _)) = key.split_once('.') else {
            line.push(format!("\"{key}\": {value}"));
            if !share {
                members.append(&mut line);
            }
            rest = tail;
            continue;
        };
        if !line.is_empty() {
            members.push(mem::take(&mut line).join(", "));
        }
        let inner: Vec<(&str, String)> = (rest.iter())
            .map_while(|(k, v)| Some((k.strip_prefix(group)?.strip_prefix('.')?, v.clone())))
            .collect();
        rest = &rest[inner.len()..];
        members.push(if inner.iter().any(|(k, _)| k.contains('.')) {
            format!(
                "\"{group}\": {}",
                block(&fields(&inner, pad + 2, false), pad)
            )
        } else {
            format!("\"{group}\": {{{}}}", fields(&inner, pad, true).concat())
        });
    }
    if !line.is_empty() {
        members.push(line.join(", "));
    }
    members
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_one_entry_per_line_with_nested_blocks() {
        let mut r = Report::default();
        r.record(
            &[Col::int("a", "a", |_| 1), Col::fixed("b", "b", 2, |_| 0.5)],
            &(),
        );
        let label = [Col::text("k", "k", |_| "v")];
        let rows = r.table("rows", &label);
        r.row(&rows, &());
        // Notes and a table without a key are text only.
        r.note("text only\n");
        let text_only = r.table("", &label);
        r.row(&text_only, &());
        r.nested("inner", |r| r.record(&[Col::int("n", "n", |_| 1)], &()));
        let deep = [
            Col::int("a", "a", |_| 1),
            Col::flag("g.b", "b", |_| true),
            Col::int("h.c", "c", |_| 3),
            Col::hex("h.i.d", "d", |_| 4),
        ];
        let rows = r.table("deep", &deep);
        r.row(&rows, &());
        assert_eq!(
            r.json("xp_x", true),
            "{\n  \"experiment\": \"xp_x\",\n  \"smoke\": true,\n  \"a\": 1, \"b\": 0.50,\n  \
             \"rows\": [\n    {\"k\": \"v\"}\n  ],\n  \"inner\": {\n    \"n\": 1\n  },\n  \
             \"deep\": [\n    {\"a\": 1,\n     \"g\": {\"b\": true},\n     \"h\": {\n       \
             \"c\": 3,\n       \"i\": {\"d\": \"0x0000000000000004\"}\n     }}\n  ]\n}\n"
        );
    }

    #[test]
    fn text_tables_align_labels_left_and_numbers_right() {
        let cols: [Col<(&str, u64, f64)>; 4] = [
            Col::text("name", "point", |p| p.0),
            Col::int("n", "count", |p| p.1),
            Col::fixed("x", "x", 2, |p| p.2),
            Col::fixed("x_precise", "", 6, |p| p.2),
        ];
        let mut r = Report::default();
        r.note("# heading\n");
        let rows = r.table("points", &cols);
        r.row(&rows, &("a", 12345, 1.0));
        r.row(&rows, &("longer", 7, 0.125));
        r.note("(note)\n");
        let table = "point  | count |    x\n-------+-------+-----\na      | 12345 | 1.00\n\
                     longer |     7 | 0.12\n\n";
        assert_eq!(r.text(), format!("# heading\n{table}(note)\n"));
    }
}
