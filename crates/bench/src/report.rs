//! Plain-text report building: fixed-width tables and sparklines for the
//! experiment harness output.

use std::fmt::Write as _;

/// A fixed-width text table accumulated row by row.
///
/// # Example
///
/// ```
/// use hammer_bench::report::Table;
///
/// let mut t = Table::new(&["n", "pst"]);
/// t.row(&["8", "0.41"]);
/// let s = t.to_string();
/// assert!(s.contains("pst"));
/// assert!(s.contains("0.41"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    #[must_use]
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: &[&str]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row has {} cells, table has {} columns",
            cells.len(),
            self.headers.len()
        );
        self.rows
            .push(cells.iter().map(ToString::to_string).collect());
        self
    }

    /// Appends a row of already-owned cells.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row_owned(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "cell count mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no data rows have been added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut line = String::new();
        for (i, h) in self.headers.iter().enumerate() {
            let _ = write!(line, "{:<width$}", h, width = widths[i] + 2);
        }
        writeln!(f, "{}", line.trim_end())?;
        writeln!(
            f,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1))
        )?;
        for row in &self.rows {
            let mut line = String::new();
            for (i, cell) in row.iter().enumerate() {
                let _ = write!(line, "{:<width$}", cell, width = widths[i] + 2);
            }
            writeln!(f, "{}", line.trim_end())?;
        }
        Ok(())
    }
}

/// Formats a float with `digits` decimal places.
#[must_use]
pub fn fnum(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// A Unicode sparkline of a non-negative series — compact histograms for
/// the text reports.
///
/// # Example
///
/// ```
/// use hammer_bench::report::sparkline;
///
/// let s = sparkline(&[0.0, 0.5, 1.0]);
/// assert_eq!(s.chars().count(), 3);
/// ```
#[must_use]
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if values.is_empty() || max <= 0.0 {
        return "▁".repeat(values.len());
    }
    values
        .iter()
        .map(|&v| {
            let idx = ((v / max) * 7.0).round().clamp(0.0, 7.0) as usize;
            BARS[idx]
        })
        .collect()
}

/// An ASCII horizontal bar scaled to `width` characters at `value/max`.
#[must_use]
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 || value <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round() as usize;
    "#".repeat(n.min(width))
}

/// A report section: a titled block with the paper's expectation quoted,
/// used by every experiment.
#[must_use]
pub fn section(id: &str, title: &str, paper_expectation: &str) -> String {
    format!("\n=== {id}: {title} ===\npaper: {paper_expectation}\n")
}

/// One value of a bench [`Artifact`], carrying the precision it prints
/// with so the JSON file and the terminal table show the same text.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// JSON `null`: a cell that was not measured.
    Null,
    /// A boolean.
    Bool(bool),
    /// A non-negative integer.
    Int(u128),
    /// A float printed with this many decimal places.
    Fixed(f64, usize),
    /// A float in scientific notation with this many mantissa decimals.
    Sci(f64, usize),
    /// A string (no quotes or backslashes).
    Str(&'static str),
}

impl Cell {
    /// [`Cell::Fixed`] when measured, [`Cell::Null`] otherwise.
    #[must_use]
    pub fn opt(value: Option<f64>, digits: usize) -> Self {
        value.map_or(Self::Null, |v| Self::Fixed(v, digits))
    }

    /// The numeric value of an `Int`, `Fixed` or `Sci` cell.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Self::Int(v) => Some(v as f64),
            Self::Fixed(v, _) | Self::Sci(v, _) => Some(v),
            Self::Null | Self::Bool(_) | Self::Str(_) => None,
        }
    }
}

impl std::fmt::Display for Cell {
    /// The unquoted text of the cell: a JSON literal for everything but
    /// strings.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Self::Null => f.write_str("null"),
            Self::Bool(b) => write!(f, "{b}"),
            Self::Int(v) => write!(f, "{v}"),
            Self::Fixed(v, digits) => write!(f, "{v:.digits$}"),
            Self::Sci(v, digits) => write!(f, "{v:.digits$e}"),
            Self::Str(s) => f.write_str(s),
        }
    }
}

impl From<bool> for Cell {
    fn from(b: bool) -> Self {
        Self::Bool(b)
    }
}

impl From<u64> for Cell {
    fn from(v: u64) -> Self {
        Self::Int(v.into())
    }
}

impl From<usize> for Cell {
    fn from(v: usize) -> Self {
        Self::Int(v as u128)
    }
}

impl From<&'static str> for Cell {
    fn from(s: &'static str) -> Self {
        Self::Str(s)
    }
}

/// The cells of one artifact row, keyed in output order.
pub type Row = Vec<(&'static str, Cell)>;

/// A `BENCH_*.json` artifact: a name, a description, top-level fields
/// and rows of measured cells. [`to_json`](Self::to_json) and
/// [`render`](Self::render) print the same cells under the same keys.
#[derive(Debug, Clone)]
pub struct Artifact {
    name: &'static str,
    description: String,
    fields: Row,
    rows: Vec<Row>,
}

impl Artifact {
    /// Starts an artifact with no fields and no rows.
    #[must_use]
    pub fn new(name: &'static str, description: impl Into<String>) -> Self {
        Self {
            name,
            description: description.into(),
            fields: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// The artifact name, e.g. `BENCH_kernel`.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Appends a top-level field.
    pub fn field(&mut self, key: &'static str, value: impl Into<Cell>) -> &mut Self {
        self.fields.push((key, value.into()));
        self
    }

    /// Appends a row, marks it `"measured": true` (no cell of an
    /// artifact is extrapolated) and echoes it to stderr as progress.
    ///
    /// # Panics
    ///
    /// Panics if the row's keys differ from the first row's.
    pub fn row(&mut self, mut cells: Row) -> &mut Self {
        cells.push(("measured", Cell::Bool(true)));
        if let Some(first) = self.rows.first() {
            assert!(
                first
                    .iter()
                    .map(|(k, _)| k)
                    .eq(cells.iter().map(|(k, _)| k)),
                "every row of {} must carry the same keys",
                self.name
            );
        }
        let echo: Vec<String> = cells.iter().map(|(k, v)| format!("{k}={v}")).collect();
        eprintln!("[{}] {}", self.name, echo.join(" "));
        self.rows.push(cells);
        self
    }

    /// Number of rows so far.
    #[must_use]
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// The cell under `key` in row `row`.
    #[must_use]
    pub fn cell(&self, row: usize, key: &str) -> Option<&Cell> {
        self.rows
            .get(row)?
            .iter()
            .find_map(|(k, v)| (*k == key).then_some(v))
    }

    /// Serializes the artifact (hand-rolled: the workspace has no
    /// serde), one row per line.
    #[must_use]
    pub fn to_json(&self) -> String {
        fn json_pair((key, value): &(&str, Cell)) -> String {
            match value {
                Cell::Str(s) => format!("\"{key}\": \"{s}\""),
                _ => format!("\"{key}\": {value}"),
            }
        }
        let mut out = format!(
            "{{\n  \"artifact\": \"{}\",\n  \"description\": \"{}\",\n",
            self.name, self.description
        );
        for field in &self.fields {
            let _ = writeln!(out, "  {},", json_pair(field));
        }
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let cells: Vec<String> = row.iter().map(json_pair).collect();
                format!("    {{{}}}", cells.join(", "))
            })
            .collect();
        let _ = write!(out, "  \"rows\": [\n{}\n  ]\n}}\n", rows.join(",\n"));
        out
    }

    /// A terminal summary: the name and top-level fields, then the rows
    /// as a [`Table`] whose headers are the row keys.
    #[must_use]
    pub fn render(&self) -> String {
        let fields: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        let mut out = format!("\n=== {} ({}) ===\n", self.name, fields.join(", "));
        if let Some(first) = self.rows.first() {
            let headers: Vec<&str> = first.iter().map(|(k, _)| *k).collect();
            let mut table = Table::new(&headers);
            for row in &self.rows {
                table.row_owned(row.iter().map(|(_, v)| v.to_string()).collect());
            }
            let _ = write!(out, "{table}");
        }
        out
    }
}

/// Asserts that an emitted artifact has the checked-in file's schema:
/// the same top-level key set, and the same first-row keys in the same
/// order. Scans `"key":` tokens in the layout [`Artifact::to_json`]
/// writes (two-space top-level lines, one row per line). Called by the
/// emitters' tests, in this crate and in `tests/`.
///
/// # Panics
///
/// Panics when the schemas differ or the checked-in file has no rows.
pub fn assert_same_schema(emitted: &str, checked_in: &str) {
    fn keys(line: &str) -> Vec<&str> {
        let parts: Vec<&str> = line.split('"').collect();
        (1..parts.len())
            .step_by(2)
            .filter(|&i| parts.get(i + 1).is_some_and(|next| next.starts_with(':')))
            .map(|i| parts[i])
            .collect()
    }
    fn schema(json: &str) -> (std::collections::BTreeSet<&str>, Vec<&str>) {
        let top = json
            .lines()
            .filter(|l| l.starts_with("  \""))
            .flat_map(|l| keys(l).into_iter().take(1))
            .collect();
        let first_row = json
            .lines()
            .find(|l| l.starts_with("    {"))
            .map(keys)
            .unwrap_or_default();
        (top, first_row)
    }
    let (emitted, checked_in) = (schema(emitted), schema(checked_in));
    assert_eq!(emitted.0, checked_in.0, "top-level keys");
    assert_eq!(emitted.1, checked_in.1, "first-row keys");
    assert!(!checked_in.1.is_empty(), "the checked-in file has rows");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a", "1"]).row(&["longer-name", "2.5"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a"));
        assert!(lines[3].starts_with("longer-name"));
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn row_width_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one"]);
    }

    #[test]
    fn sparkline_peaks() {
        let s = sparkline(&[0.0, 1.0, 0.5]);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars[1], '█');
        assert!(chars[0] < chars[1]);
    }

    #[test]
    fn bar_scales() {
        assert_eq!(bar(1.0, 1.0, 10), "##########");
        assert_eq!(bar(0.5, 1.0, 10), "#####");
        assert_eq!(bar(0.0, 1.0, 10), "");
    }

    #[test]
    fn fnum_formats() {
        assert_eq!(fnum(1.23456, 2), "1.23");
        assert_eq!(fnum(-0.5, 3), "-0.500");
    }

    #[test]
    fn section_contains_id_and_expectation() {
        let s = section("fig8b", "BV improvement", "gmean PST 1.38x");
        assert!(s.contains("fig8b"));
        assert!(s.contains("1.38x"));
    }
}
