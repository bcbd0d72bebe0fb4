//! Minimal text-table reporter used by the experiments binary, plus
//! the [`Report`] collector that exports every table as machine-readable JSON.

use tlt_obs::json::JsonValue;

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (cells are already formatted strings).
    pub fn add_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table as aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i >= widths.len() {
                    widths.push(cell.len());
                } else {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n=== {} ===\n", self.title));
        let format_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    format!(
                        "{:width$}",
                        c,
                        width = widths.get(i).copied().unwrap_or(c.len())
                    )
                })
                .collect::<Vec<_>>()
                .join(" | ")
        };
        out.push_str(&format_row(&self.header));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 3 * widths.len().saturating_sub(1)),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&format_row(row));
            out.push('\n');
        }
        out
    }

    /// Renders and prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Exports the table as JSON: `{title, header, rows}` with cells typed as
    /// numbers when they parse as one.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("title", JsonValue::string(&self.title)),
            (
                "header",
                JsonValue::Array(self.header.iter().map(JsonValue::string).collect()),
            ),
            (
                "rows",
                JsonValue::Array(
                    self.rows
                        .iter()
                        .map(|row| {
                            JsonValue::Array(row.iter().map(|c| JsonValue::cell(c)).collect())
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Collects every table an experiments run produces: prints each one as it
/// arrives and can export the whole run as a JSON document afterwards.
#[derive(Debug, Clone, Default)]
pub struct Report {
    tables: Vec<Table>,
}

impl Report {
    /// Creates an empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Prints the table and records it for JSON export.
    pub fn add(&mut self, table: Table) {
        table.print();
        self.tables.push(table);
    }

    /// Number of recorded tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Exports the run as `{"tables": [...]}`.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![(
            "tables",
            JsonValue::Array(self.tables.iter().map(Table::to_json).collect()),
        )])
    }

    /// Writes the JSON document to `path` (with a trailing newline).
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, format!("{}\n", self.to_json()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_exports_typed_json() {
        let mut t = Table::new("T", &["name", "value"]);
        t.add_row(vec!["alpha".into(), "1.5".into()]);
        t.add_row(vec!["beta".into(), "2.00x".into()]);
        let json = t.to_json().to_string();
        assert_eq!(
            json,
            "{\"title\":\"T\",\"header\":[\"name\",\"value\"],\
             \"rows\":[[\"alpha\",1.5],[\"beta\",\"2.00x\"]]}"
        );
    }

    #[test]
    fn report_collects_tables_and_exports() {
        let mut report = Report::new();
        let mut t = Table::new("only", &["a"]);
        t.add_row(vec!["7".into()]);
        report.add(t);
        assert_eq!(report.num_tables(), 1);
        let json = report.to_json().to_string();
        assert!(json.starts_with("{\"tables\":["));
        assert!(json.contains("\"only\""));
    }

    #[test]
    fn table_renders_all_rows_and_headers() {
        let mut t = Table::new("Demo", &["a", "long header", "c"]);
        t.add_row(vec!["1".into(), "2".into(), "3".into()]);
        t.add_row(vec!["x".into(), "y".into(), "zzzz".into()]);
        let rendered = t.render();
        assert!(rendered.contains("Demo"));
        assert!(rendered.contains("long header"));
        assert!(rendered.contains("zzzz"));
        assert_eq!(t.num_rows(), 2);
    }
}
