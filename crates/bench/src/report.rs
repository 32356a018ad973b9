//! Experiment reports: structured results rendered as markdown.

/// A markdown-renderable table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Table caption.
    pub caption: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with headers.
    pub fn new(caption: &str, headers: &[&str]) -> Self {
        Self {
            caption: caption.to_owned(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
    }

    /// Renders as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        if !self.caption.is_empty() {
            out.push_str(&format!("**{}**\n\n", self.caption));
        }
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.headers.len())));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

/// The result of one experiment run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Experiment id, e.g. `fig12_e2e`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// Which paper artifact this reproduces.
    pub paper_ref: String,
    /// Free-form finding lines ("paper: X, measured: Y").
    pub findings: Vec<String>,
    /// Structured tables.
    pub tables: Vec<Table>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(id: &str, title: &str, paper_ref: &str) -> Self {
        Self {
            id: id.to_owned(),
            title: title.to_owned(),
            paper_ref: paper_ref.to_owned(),
            ..Self::default()
        }
    }

    /// Adds a finding line.
    pub fn finding(&mut self, line: impl Into<String>) {
        self.findings.push(line.into());
    }

    /// Adds a table.
    pub fn table(&mut self, table: Table) {
        self.tables.push(table);
    }

    /// Renders the full report as markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!(
            "## {} — {}\n\n*Reproduces {}.*\n\n",
            self.id, self.title, self.paper_ref
        );
        for f in &self.findings {
            out.push_str(&format!("- {f}\n"));
        }
        if !self.findings.is_empty() {
            out.push('\n');
        }
        for t in &self.tables {
            out.push_str(&t.to_markdown());
            out.push('\n');
        }
        out
    }
}

/// Formats a float with 3 significant decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// A `shape check:` finding read off a table: the paper's claim, in how
/// many of the `total` cells it holds, and the cells where it fails.
pub fn shape_check(claim: &str, total: usize, fails: &[String]) -> String {
    let listed = if fails.is_empty() {
        "none".to_string()
    } else {
        fails.join(", ")
    };
    let holds = total - fails.len();
    format!("shape check (paper: {claim}): holds in {holds} of {total}; fails in: {listed}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new("cap", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("**cap**"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
        assert!(md.contains("|---|---|"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn report_renders_findings_and_tables() {
        let mut r = Report::new("fig00", "Demo", "Fig. 0");
        r.finding("paper: 2x, measured: 1.9x");
        let mut t = Table::new("t", &["x"]);
        t.row(vec!["v".into()]);
        r.table(t);
        let md = r.to_markdown();
        assert!(md.contains("## fig00 — Demo"));
        assert!(md.contains("*Reproduces Fig. 0.*"));
        assert!(md.contains("- paper: 2x, measured: 1.9x"));
        assert!(md.contains("| x |"));
    }

    #[test]
    fn formatters() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(pct(0.5), "50.0%");
    }
}
