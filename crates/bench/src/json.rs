//! The one writer of the `results/BENCH_*.json` documents (there is no
//! serde in the workspace). A document is an object laid out one entry per
//! line whose arrays hold one row per line, so a diff of two runs names the
//! rows that moved; a value is written as it `Display`s, so a field fixes
//! its decimals with [`fixed`] and quotes its text with [`quoted`].

use std::fmt::Display;

/// One `"key": value` field.
pub(crate) type Field<'a> = (&'a str, &'a dyn Display);

/// A `results/BENCH_<x>.json` document under construction.
pub struct JsonDoc {
    /// File stem under `results/` (`BENCH_kernel`, …); `xp` appends `.json`.
    pub file: &'static str,
    depth: usize,
    entries: Vec<String>,
}

impl JsonDoc {
    /// A document opening with its `experiment` name and `smoke` flag.
    pub(crate) fn new(file: &'static str, experiment: &str, smoke: bool) -> JsonDoc {
        let mut doc = JsonDoc {
            file,
            depth: 1,
            entries: Vec::new(),
        };
        doc.line(&[("experiment", &quoted(experiment))]);
        doc.line(&[("smoke", &smoke)]);
        doc
    }

    fn pad(&self) -> String {
        "  ".repeat(self.depth)
    }

    /// One line of `"key": value` fields.
    pub(crate) fn line(&mut self, fields: &[Field]) {
        self.entries.push(self.pad() + &pairs(fields));
    }

    /// `"key": [ … ]` with one row (usually a one-line object) per line.
    pub(crate) fn rows(&mut self, key: &str, rows: impl IntoIterator<Item = String>) {
        let pad = self.pad();
        let rows: Vec<String> = rows.into_iter().map(|r| format!("{pad}  {r}")).collect();
        self.entries
            .push(format!("{pad}\"{key}\": [\n{}\n{pad}]", rows.join(",\n")));
    }

    /// `"key": { … }` laid out like the document itself, filled by `fill`.
    pub(crate) fn nested(&mut self, key: &str, fill: impl FnOnce(&mut JsonDoc)) {
        let mut inner = JsonDoc {
            file: self.file,
            depth: self.depth + 1,
            entries: Vec::new(),
        };
        fill(&mut inner);
        self.entries
            .push(format!("{}\"{key}\": {}", self.pad(), inner.body()));
    }

    fn body(&self) -> String {
        let close = "  ".repeat(self.depth - 1);
        format!("{{\n{}\n{close}}}", self.entries.join(",\n"))
    }

    /// The finished document, newline-terminated.
    pub fn render(&self) -> String {
        self.body() + "\n"
    }
}

/// `"k": v, "k": v` — the inside of a one-line object.
pub(crate) fn pairs(fields: &[Field]) -> String {
    let fields: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    fields.join(", ")
}

/// `{"k": v, …}` on one line.
pub(crate) fn obj(fields: &[Field]) -> String {
    format!("{{{}}}", pairs(fields))
}

/// A JSON string (the harness's labels need no escaping).
pub(crate) fn quoted(s: &str) -> String {
    format!("\"{s}\"")
}

/// A number with `places` decimals.
pub(crate) fn fixed(x: f64, places: usize) -> String {
    format!("{x:.places$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_one_entry_per_line_with_nested_blocks() {
        let mut doc = JsonDoc::new("BENCH_x", "xp_x", true);
        doc.line(&[("a", &1), ("b", &fixed(0.5, 2))]);
        doc.rows("rows", [obj(&[("k", &quoted("v"))]), obj(&[])]);
        doc.nested("inner", |d| d.rows("r", ["1".to_string()]));
        assert_eq!(
            doc.render(),
            "{\n  \"experiment\": \"xp_x\",\n  \"smoke\": true,\n  \"a\": 1, \"b\": 0.50,\n  \
             \"rows\": [\n    {\"k\": \"v\"},\n    {}\n  ],\n  \
             \"inner\": {\n    \"r\": [\n      1\n    ]\n  }\n}\n"
        );
    }
}
