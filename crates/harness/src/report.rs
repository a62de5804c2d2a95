//! Result tables and their CSV / Markdown / JSON renderings.

use crate::stats::Summary;
use std::fmt::Write as _;
use std::path::Path;

/// A result table: one row per key, one column of summaries per series.
///
/// The key is an x value (`Table<f64>`, e.g. the alive fraction of a
/// figure, with one series per group) or a row label (`Table<String>`,
/// e.g. the algorithms of the Sec. VI-E comparison tables). The two
/// render alike except for the key cell and its JSON field name.
#[derive(Debug, Clone)]
pub struct Table<K> {
    /// Table title (used as the heading and the output file stem).
    pub title: String,
    /// Label of the key column.
    pub key_label: String,
    /// Labels of the value columns.
    pub columns: Vec<String>,
    /// Rows in insertion order (ascending x for an f64 key).
    pub rows: Vec<Row<K>>,
}

/// One row of a [`Table`].
#[derive(Debug, Clone)]
pub struct Row<K> {
    /// The x value or row label.
    pub key: K,
    /// One summary per column.
    pub values: Vec<Summary>,
}

/// The key trait is public inside a private module rather than private
/// itself: `Table`'s public methods may then name it as a bound (a
/// private trait trips `private_bounds`), yet nothing outside this file
/// can name or implement it.
mod key {
    /// How a key renders in each output format.
    pub trait Key {
        /// JSON field names of the key column's label and of a row's key.
        const JSON_FIELDS: (&'static str, &'static str);
        fn csv_cell(&self) -> String;
        fn markdown_cell(&self) -> String;
        fn json_value(&self) -> String;
    }
}
use key::Key;

impl Key for f64 {
    const JSON_FIELDS: (&'static str, &'static str) = ("x_label", "x");
    fn csv_cell(&self) -> String {
        format!("{self}")
    }
    fn markdown_cell(&self) -> String {
        fmt_num(*self)
    }
    fn json_value(&self) -> String {
        json_num(*self)
    }
}

impl Key for String {
    const JSON_FIELDS: (&'static str, &'static str) = ("key_label", "key");
    fn csv_cell(&self) -> String {
        csv_escape(self)
    }
    fn markdown_cell(&self) -> String {
        self.clone()
    }
    fn json_value(&self) -> String {
        json_string(self)
    }
}

impl<K: Key> Table<K> {
    /// Creates an empty table.
    #[must_use]
    pub fn new(
        title: impl Into<String>,
        key_label: impl Into<String>,
        columns: Vec<String>,
    ) -> Self {
        Table {
            title: title.into(),
            key_label: key_label.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics when `values` has a different length than `columns` — a
    /// programming error in the experiment.
    pub fn push_row(&mut self, key: impl Into<K>, values: Vec<Summary>) {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row width must match the column count"
        );
        self.rows.push(Row {
            key: key.into(),
            values,
        });
    }

    /// Renders the table as CSV with `mean` and `std` columns per series.
    fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}", csv_escape(&self.key_label));
        for c in &self.columns {
            let _ = write!(out, ",{}_mean,{}_std", csv_escape(c), csv_escape(c));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.key.csv_cell());
            for v in &row.values {
                let _ = write!(out, ",{},{}", fmt_num(v.mean), fmt_num(v.std_dev));
            }
            out.push('\n');
        }
        out
    }

    /// Renders the table as GitHub-flavoured Markdown (mean ± std).
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {}\n", self.title);
        let _ = write!(out, "| {} |", self.key_label);
        for c in &self.columns {
            let _ = write!(out, " {c} |");
        }
        out.push('\n');
        let _ = write!(out, "|---|");
        for _ in &self.columns {
            let _ = write!(out, "---|");
        }
        out.push('\n');
        for row in &self.rows {
            let _ = write!(out, "| {} |", row.key.markdown_cell());
            for v in &row.values {
                if v.std_dev > 0.0 {
                    let _ = write!(out, " {} ± {} |", fmt_num(v.mean), fmt_num(v.std_dev));
                } else {
                    let _ = write!(out, " {} |", fmt_num(v.mean));
                }
            }
            out.push('\n');
        }
        out
    }

    /// Renders the table as a single JSON object — the machine-readable
    /// form CI artifacts consume (`live_vs_sim --json`). Schema:
    /// `{"title", "x_label", "columns", "rows": [{"x", "values": [summary…]}]}`
    /// for an f64 key, with `"key_label"` and a string `"key"` for a
    /// string key.
    #[must_use]
    pub fn to_json(&self) -> String {
        let (label_field, key_field) = K::JSON_FIELDS;
        let rows = self.rows.iter().map(|row| {
            let values = join(row.values.iter().map(summary_json));
            let key = row.key.json_value();
            format!("{{\"{key_field}\":{key},\"values\":[{values}]}}")
        });
        format!(
            "{{\"title\":{},\"{label_field}\":{},\"columns\":[{}],\"rows\":[{}]}}",
            json_string(&self.title),
            json_string(&self.key_label),
            join(self.columns.iter().map(|c| json_string(c))),
            join(rows)
        )
    }

    /// Writes `<stem>.csv` and `<stem>.md` under `dir`, creating the
    /// directory if needed. The stem is the lowercased title with
    /// non-alphanumerics collapsed to `_`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let stem = file_stem_of(&self.title);
        std::fs::write(dir.join(format!("{stem}.csv")), self.to_csv())?;
        std::fs::write(dir.join(format!("{stem}.md")), self.to_markdown())?;
        Ok(())
    }
}

/// JSON string literal with the escapes the table fields can contain.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The items, comma-separated.
fn join(items: impl Iterator<Item = String>) -> String {
    items.collect::<Vec<_>>().join(",")
}

/// Finite floats print naturally; non-finite values (never produced by
/// the experiments, but `f64` admits them) degrade to `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn summary_json(v: &Summary) -> String {
    format!(
        "{{\"count\":{},\"mean\":{},\"std_dev\":{},\"min\":{},\"max\":{}}}",
        v.count,
        json_num(v.mean),
        json_num(v.std_dev),
        json_num(v.min),
        json_num(v.max)
    )
}

/// Lowercased title with non-alphanumerics collapsed to `_`.
fn file_stem_of(title: &str) -> String {
    let mut stem = String::with_capacity(title.len());
    let mut last_underscore = true;
    for ch in title.chars() {
        if ch.is_ascii_alphanumeric() {
            stem.push(ch.to_ascii_lowercase());
            last_underscore = false;
        } else if !last_underscore {
            stem.push('_');
            last_underscore = true;
        }
    }
    stem.trim_end_matches('_').to_owned()
}

/// Compact numeric formatting: integers verbatim, otherwise 4 significant
/// decimals.
fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

fn csv_escape(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> Table<f64> {
        let mut t = Table::new(
            "Fig 8: events per group",
            "alive_fraction",
            vec!["T2".into(), "T1".into()],
        );
        t.push_row(0.5, vec![Summary::of(&[10.0, 12.0]), Summary::exact(3.0)]);
        t.push_row(1.0, vec![Summary::exact(20.0), Summary::exact(5.0)]);
        t
    }

    #[test]
    fn csv_shape() {
        let csv = sample_table().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "alive_fraction,T2_mean,T2_std,T1_mean,T1_std");
        assert!(lines[1].starts_with("0.5,11,"));
        assert!(lines[2].starts_with("1,20,0,5,0"));
    }

    #[test]
    fn markdown_contains_all_cells() {
        let md = sample_table().to_markdown();
        assert!(md.contains("### Fig 8"));
        assert!(md.contains("| alive_fraction | T2 | T1 |"));
        assert!(md.contains("± "), "std dev shown when non-zero");
        assert!(md.contains("| 1 | 20 | 5 |"));
    }

    #[test]
    fn file_stem_sanitised() {
        assert_eq!(
            file_stem_of(&sample_table().title),
            "fig_8_events_per_group"
        );
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::<f64>::new("t", "x", vec!["a".into()]);
        t.push_row(0.0, vec![]);
    }

    #[test]
    fn write_creates_files() {
        let dir = std::env::temp_dir().join("da_harness_report_test");
        let _ = std::fs::remove_dir_all(&dir);
        sample_table().write_to(&dir).unwrap();
        assert!(dir.join("fig_8_events_per_group.csv").exists());
        assert!(dir.join("fig_8_events_per_group.md").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::<f64>::new("t", "x,with comma", vec!["a\"b".into()]);
        t.push_row(1.0, vec![Summary::exact(1.0)]);
        let csv = t.to_csv();
        assert!(csv.starts_with("\"x,with comma\",\"a\"\"b\"_mean"));
    }

    #[test]
    fn keyed_table_renders() {
        let mut t = Table::<String>::new(
            "Message complexity",
            "algorithm",
            vec!["measured".into(), "analytic".into()],
        );
        t.push_row(
            "daMulticast",
            vec![Summary::exact(100.0), Summary::exact(110.0)],
        );
        t.push_row(
            "broadcast",
            vec![Summary::of(&[200.0, 220.0]), Summary::exact(215.0)],
        );
        let md = t.to_markdown();
        assert!(md.contains("| daMulticast | 100 | 110 |"));
        assert!(md.contains("± "));
        let csv = t.to_csv();
        assert!(csv.starts_with("algorithm,measured_mean,measured_std"));
        assert!(csv.contains("daMulticast,100,0,110,0"));
    }

    #[test]
    fn series_json_is_well_formed() {
        let json = sample_table().to_json();
        assert!(json.starts_with("{\"title\":\"Fig 8: events per group\""));
        assert!(json.contains("\"x_label\":\"alive_fraction\""));
        assert!(json.contains("\"columns\":[\"T2\",\"T1\"]"));
        assert!(json.contains("{\"x\":0.5,\"values\":[{\"count\":2,\"mean\":11,"));
        assert!(json.ends_with("]}"));
        assert_eq!(json.matches("{\"x\":").count(), 2, "one object per row");
    }

    #[test]
    fn keyed_json_escapes_strings() {
        let mut t = Table::<String>::new("a \"quoted\"\ntitle", "k", vec!["v".into()]);
        t.push_row("row\\one", vec![Summary::exact(1.5)]);
        let json = t.to_json();
        assert!(json.contains("\"title\":\"a \\\"quoted\\\"\\ntitle\""));
        assert!(json.contains("{\"key\":\"row\\\\one\",\"values\":[{\"count\":1,\"mean\":1.5,"));
    }

    #[test]
    fn series_renderings_are_pinned() {
        let mut t = Table::<f64>::new("Pinned series", "x", vec!["up".into(), "down".into()]);
        t.push_row(0.25, vec![Summary::of(&[1.0, 3.0]), Summary::exact(0.0)]);
        t.push_row(
            1.0,
            vec![Summary::exact(2.5), Summary::exact(f64::INFINITY)],
        );
        assert_eq!(
            t.to_csv(),
            "x,up_mean,up_std,down_mean,down_std\n\
             0.25,2,1.4142,0,0\n\
             1,2.5000,0,inf,0\n"
        );
        assert_eq!(
            t.to_markdown(),
            "### Pinned series\n\n\
             | x | up | down |\n\
             |---|---|---|\n\
             | 0.2500 | 2 ± 1.4142 | 0 |\n\
             | 1 | 2.5000 | inf |\n"
        );
        assert_eq!(
            t.to_json(),
            r#"{"title":"Pinned series","x_label":"x","columns":["up","down"],"rows":[{"x":0.25,"values":[{"count":2,"mean":2,"std_dev":1.4142135623730951,"min":1,"max":3},{"count":1,"mean":0,"std_dev":0,"min":0,"max":0}]},{"x":1,"values":[{"count":1,"mean":2.5,"std_dev":0,"min":2.5,"max":2.5},{"count":1,"mean":null,"std_dev":0,"min":null,"max":null}]}]}"#
        );
    }

    #[test]
    fn keyed_renderings_are_pinned() {
        let mut t = Table::<String>::new(
            "Pinned keyed",
            "algorithm",
            vec!["measured".into(), "analytic".into()],
        );
        t.push_row("plain", vec![Summary::of(&[1.0, 3.0]), Summary::exact(0.0)]);
        t.push_row(
            "a,\"b\"",
            vec![Summary::exact(f64::NAN), Summary::exact(0.5)],
        );
        assert_eq!(
            t.to_csv(),
            "algorithm,measured_mean,measured_std,analytic_mean,analytic_std\n\
             plain,2,1.4142,0,0\n\
             \"a,\"\"b\"\"\",NaN,0,0.5000,0\n"
        );
        assert_eq!(
            t.to_markdown(),
            "### Pinned keyed\n\n\
             | algorithm | measured | analytic |\n\
             |---|---|---|\n\
             | plain | 2 ± 1.4142 | 0 |\n\
             | a,\"b\" | NaN | 0.5000 |\n"
        );
        assert_eq!(
            t.to_json(),
            r#"{"title":"Pinned keyed","key_label":"algorithm","columns":["measured","analytic"],"rows":[{"key":"plain","values":[{"count":2,"mean":2,"std_dev":1.4142135623730951,"min":1,"max":3},{"count":1,"mean":0,"std_dev":0,"min":0,"max":0}]},{"key":"a,\"b\"","values":[{"count":1,"mean":null,"std_dev":0,"min":null,"max":null},{"count":1,"mean":0.5,"std_dev":0,"min":0.5,"max":0.5}]}]}"#
        );
    }

    #[test]
    fn json_numbers_degrade_nonfinite_to_null() {
        assert_eq!(json_num(2.25), "2.25");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(f64::INFINITY), "null");
    }

    #[test]
    fn keyed_table_writes_files() {
        let dir = std::env::temp_dir().join("da_harness_keyed_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut t = Table::<String>::new("Tiny Keyed", "k", vec!["v".into()]);
        t.push_row("row", vec![Summary::exact(1.0)]);
        t.write_to(&dir).unwrap();
        assert!(dir.join("tiny_keyed.csv").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
