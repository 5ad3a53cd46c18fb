//! Support for the `repro` binary: the writer behind every committed
//! `BENCH_*.json` file and the tolerance gate every gated study applies.
//!
//! The writer keeps the files' existing layout byte for byte: a two-space
//! indented object whose arrays hold one single-line object per row.
//! Every number is rendered by its caller with an explicit precision, so
//! reformatting a field is a visible change at the call site.

#![warn(missing_docs)]

use std::fmt::Display;

/// One JSON value, already rendered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Json(String);

impl Json {
    /// `v` with `digits` decimals, as `{:.N}` writes it.
    pub fn fixed(v: f64, digits: usize) -> Self {
        Json(format!("{v:.digits$}"))
    }

    /// `v` in scientific notation with `digits` decimals, as `{:.Ne}`
    /// writes it.
    pub fn sci(v: f64, digits: usize) -> Self {
        Json(format!("{v:.digits$e}"))
    }

    /// `v` as `{}` writes it: integers, and floats in their shortest
    /// round-trip form.
    pub fn plain(v: impl Display) -> Self {
        Json(v.to_string())
    }

    /// A quoted string, with `"` and `\` escaped.
    pub fn str(s: &str) -> Self {
        Json(format!(
            "\"{}\"",
            s.replace('\\', "\\\\").replace('"', "\\\"")
        ))
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::plain(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::plain(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::plain(v)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::str(s)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or_else(|| Json("null".to_string()), Into::into)
    }
}

/// One array element: its `(key, value)` pairs in output order.
pub type Row = Vec<(&'static str, Json)>;

enum Entry {
    Value(Json),
    Rows(Vec<Row>),
}

/// A `BENCH_*.json` document: a schema tag, an experiment name, then
/// scalar fields and row arrays in the order they are added.
pub struct Bench {
    entries: Vec<(&'static str, Entry)>,
}

impl Bench {
    /// A document tagged with `schema` describing `experiment`.
    pub fn new(schema: &str, experiment: &str) -> Self {
        Bench {
            entries: vec![
                ("schema", Entry::Value(Json::str(schema))),
                ("experiment", Entry::Value(Json::str(experiment))),
            ],
        }
    }

    /// Append a scalar field.
    pub fn field(mut self, key: &'static str, value: impl Into<Json>) -> Self {
        self.entries.push((key, Entry::Value(value.into())));
        self
    }

    /// Append an array of rows.
    pub fn rows(mut self, key: &'static str, rows: Vec<Row>) -> Self {
        self.entries.push((key, Entry::Rows(rows)));
        self
    }

    /// The document's text, ending in a newline.
    pub fn render(&self) -> String {
        let pair = |k: &str, v: &str| format!("\"{k}\": {v}");
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(key, entry)| match entry {
                Entry::Value(v) => format!("  {}", pair(key, &v.0)),
                Entry::Rows(rows) => {
                    let lines: Vec<String> = rows
                        .iter()
                        .map(|row| {
                            let fields: Vec<String> =
                                row.iter().map(|(k, v)| pair(k, &v.0)).collect();
                            format!("    {{{}}}", fields.join(", "))
                        })
                        .collect();
                    format!("  \"{key}\": [\n{}\n  ]", lines.join(",\n"))
                }
            })
            .collect();
        format!("{{\n{}\n}}\n", body.join(",\n"))
    }

    /// Write the document to `file` at the workspace root and say so on
    /// stdout.
    ///
    /// # Panics
    /// Panics if the file cannot be written.
    pub fn write(&self, file: &str) {
        let out = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&out, self.render()).unwrap_or_else(|e| panic!("write {file}: {e}"));
        println!("wrote {out}");
    }
}

/// A value checked against a reference within a relative tolerance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gate {
    /// The value under test (a model prediction, or the measured latency
    /// of a pick).
    pub got: f64,
    /// What it is checked against (a measurement, or the measured best).
    pub reference: f64,
    /// The allowed `|rel|`.
    pub tol: f64,
    /// `(got − reference) / reference`.
    pub rel: f64,
    /// `|rel| <= tol`.
    pub pass: bool,
}

impl Gate {
    /// Check `got` against `reference` within the relative tolerance `tol`.
    pub fn check(got: f64, reference: f64, tol: f64) -> Self {
        let rel = (got - reference) / reference;
        Gate {
            got,
            reference,
            tol,
            rel,
            pass: rel.abs() <= tol,
        }
    }

    /// The table's pass column: `yes` or `NO`.
    pub fn verdict(&self) -> &'static str {
        if self.pass {
            "yes"
        } else {
            "NO"
        }
    }

    /// For a failed check, the line naming it (`label` says which cell and
    /// what `got` and `reference` are); `None` when it passed.
    pub fn fail_line(&self, study: &str, label: &str) -> Option<String> {
        (!self.pass).then(|| {
            format!(
                "{study}: FAIL {label}: {:.3} us against {:.3} us \
                 (relative error {:+.3e} exceeds ±{})",
                self.got, self.reference, self.rel, self.tol
            )
        })
    }

    /// [`Gate::check`], printing the FAIL line to stderr when it fails.
    pub fn report(study: &str, label: &str, got: f64, reference: f64, tol: f64) -> Self {
        let g = Gate::check(got, reference, tol);
        if let Some(line) = g.fail_line(study, label) {
            eprintln!("{line}");
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_values_keep_their_precision() {
        assert_eq!(Json::fixed(201.98249, 3).0, "201.982");
        assert_eq!(Json::fixed(0.0, 3).0, "0.000");
        assert_eq!(Json::fixed(-0.03456, 4).0, "-0.0346");
        assert_eq!(Json::sci(9.77e-16, 3).0, "9.770e-16");
        assert_eq!(Json::sci(0.0, 3).0, "0.000e0");
        assert_eq!(Json::plain(0.1).0, "0.1");
        assert_eq!(Json::plain(0.25).0, "0.25");
        assert_eq!(Json::plain(2.0f64).0, "2");
        assert_eq!(Json::plain(1e-6).0, "0.000001");
        assert_eq!(Json::from(4096usize).0, "4096");
        assert_eq!(Json::from(7u64).0, "7");
        assert_eq!(Json::from(true).0, "true");
        assert_eq!(Json::from(false).0, "false");
        assert_eq!(Json::from(None::<u64>).0, "null");
        assert_eq!(Json::from(Some(16384u64)).0, "16384");
    }

    #[test]
    fn json_strings_are_quoted_and_escaped() {
        assert_eq!(Json::from("LANai 4.3").0, "\"LANai 4.3\"");
        assert_eq!(Json::str("a\"b\\c").0, "\"a\\\"b\\\\c\"");
        assert_eq!(Json::str("").0, "\"\"");
    }

    #[test]
    fn bench_renders_fields_and_rows_in_insertion_order() {
        let doc = Bench::new("gmsim-test/v1", "layout")
            .field("smoke", true)
            .field("tolerance", Json::plain(0.25))
            .rows(
                "points",
                vec![
                    vec![("nodes", 8usize.into()), ("mean_us", Json::fixed(1.5, 3))],
                    vec![("nodes", 16usize.into()), ("mean_us", Json::fixed(2.0, 3))],
                ],
            )
            .rows("crossover", vec![vec![("bytes", None::<u64>.into())]]);
        assert_eq!(
            doc.render(),
            "{\n  \"schema\": \"gmsim-test/v1\",\n  \"experiment\": \"layout\",\n  \
             \"smoke\": true,\n  \"tolerance\": 0.25,\n  \"points\": [\n    \
             {\"nodes\": 8, \"mean_us\": 1.500},\n    {\"nodes\": 16, \"mean_us\": 2.000}\n  \
             ],\n  \"crossover\": [\n    {\"bytes\": null}\n  ]\n}\n"
        );
    }

    #[test]
    fn bench_key_order_is_the_callers_order() {
        let row = |a: u64, b: u64| vec![("z", a.into()), ("a", b.into())];
        let doc = Bench::new("s", "e")
            .rows("r", vec![row(1, 2)])
            .field("m", 3u64);
        let text = doc.render();
        assert!(text.contains("{\"z\": 1, \"a\": 2}"));
        assert!(text.find("\"r\"").unwrap() < text.find("\"m\"").unwrap());
        assert!(text.ends_with("  \"m\": 3\n}\n"));
    }

    #[test]
    fn gate_passes_at_exactly_the_tolerance() {
        // 1.25 and 0.75 are exact binary fractions, so rel is exactly ±0.25.
        let up = Gate::check(1.25, 1.0, 0.25);
        assert_eq!(up.rel, 0.25);
        assert!(up.pass);
        let down = Gate::check(0.75, 1.0, 0.25);
        assert_eq!(down.rel, -0.25);
        assert!(down.pass);
        assert_eq!(up.verdict(), "yes");
        assert_eq!(up.fail_line("scale", "cell"), None);
    }

    #[test]
    fn gate_fails_just_past_the_tolerance() {
        let over = Gate::check(f64::from_bits(1.25f64.to_bits() + 1), 1.0, 0.25);
        assert!(!over.pass);
        assert_eq!(over.verdict(), "NO");
        let under = Gate::check(f64::from_bits(0.75f64.to_bits() - 1), 1.0, 0.25);
        assert!(!under.pass);
        let line = Gate::check(2.0, 1.0, 0.5)
            .fail_line("fabric", "clos/adaptive/nic-pe model vs measured")
            .expect("a failed gate names itself");
        assert_eq!(
            line,
            "fabric: FAIL clos/adaptive/nic-pe model vs measured: 2.000 us against \
             1.000 us (relative error +1.000e0 exceeds ±0.5)"
        );
    }
}
