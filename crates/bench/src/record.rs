//! Paper-vs-measured record tables.
//!
//! Every experiment produces rows of the form *(quantity, paper value,
//! measured value, verdict)*; this module renders them as aligned text (for
//! the terminal), as markdown (for EXPERIMENTS.md) and as JSON (for
//! `experiments --json`).

use bitlevel_json::Json;

/// One paper-vs-measured comparison row.
#[derive(Debug, Clone)]
pub struct Record {
    /// What is being compared (e.g. "cycles, u=3 p=3").
    pub quantity: String,
    /// The paper's value/claim, rendered.
    pub paper: String,
    /// Our measured value, rendered.
    pub measured: String,
    /// Whether the measurement confirms the claim.
    pub ok: bool,
}

impl Record {
    /// A row comparing two displayable values for equality.
    pub fn eq<A: std::fmt::Display, B: std::fmt::Display + PartialEq<A>>(
        quantity: &str,
        paper: A,
        measured: B,
    ) -> Self {
        let ok = measured == paper;
        Record {
            quantity: quantity.to_string(),
            paper: paper.to_string(),
            measured: measured.to_string(),
            ok,
        }
    }

    /// A row recording a boolean check.
    pub fn check(quantity: &str, claim: &str, ok: bool) -> Self {
        Record {
            quantity: quantity.to_string(),
            paper: claim.to_string(),
            measured: if ok {
                "confirmed".into()
            } else {
                "REFUTED".into()
            },
            ok,
        }
    }

    /// A row with free-form measured text judged by `ok`.
    pub fn info(quantity: &str, paper: &str, measured: String, ok: bool) -> Self {
        Record {
            quantity: quantity.to_string(),
            paper: paper.to_string(),
            measured,
            ok,
        }
    }
}

/// A titled collection of records.
#[derive(Debug, Clone)]
pub struct RecordTable {
    /// Experiment id and title, e.g. "E6: Fig. 4 architecture".
    pub title: String,
    /// The rows.
    pub rows: Vec<Record>,
}

impl RecordTable {
    /// Creates an empty table.
    pub fn new(title: &str) -> Self {
        RecordTable {
            title: title.to_string(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push(&mut self, r: Record) {
        self.rows.push(r);
    }

    /// True iff every row confirms.
    pub fn all_ok(&self) -> bool {
        self.rows.iter().all(|r| r.ok)
    }

    /// Aligned plain-text rendering.
    pub fn render_text(&self) -> String {
        let mut w = [8usize, 5, 8, 2];
        for r in &self.rows {
            w[0] = w[0].max(r.quantity.len());
            w[1] = w[1].max(r.paper.len());
            w[2] = w[2].max(r.measured.len());
        }
        let mut out = format!("=== {} ===\n", self.title);
        out.push_str(&format!(
            "{:<q$}  {:<p$}  {:<m$}  ok\n",
            "quantity",
            "paper",
            "measured",
            q = w[0],
            p = w[1],
            m = w[2]
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<q$}  {:<p$}  {:<m$}  {}\n",
                r.quantity,
                r.paper,
                r.measured,
                if r.ok { "yes" } else { "NO" },
                q = w[0],
                p = w[1],
                m = w[2]
            ));
        }
        out
    }

    /// Markdown rendering for EXPERIMENTS.md.
    pub fn render_markdown(&self) -> String {
        let mut out = format!("### {}\n\n", self.title);
        out.push_str("| quantity | paper | measured | ok |\n|---|---|---|---|\n");
        for r in &self.rows {
            let cell = |s: &str| s.trim_end().replace('|', "\\|").replace('\n', "<br>");
            out.push_str(&format!(
                "| {} | {} | {} | {} |\n",
                cell(&r.quantity),
                cell(&r.paper),
                cell(&r.measured),
                if r.ok { "yes" } else { "**NO**" }
            ));
        }
        out
    }

    /// Compact single-line JSON rendering: `{"title":…,"rows":[…]}` with
    /// each row keyed `quantity`, `paper`, `measured`, `ok`.
    pub fn to_json(&self) -> String {
        let rows = self.rows.iter().map(|r| {
            Json::obj(vec![
                ("quantity", Json::str(r.quantity.as_str())),
                ("paper", Json::str(r.paper.as_str())),
                ("measured", Json::str(r.measured.as_str())),
                ("ok", Json::from(r.ok)),
            ])
        });
        Json::obj(vec![
            ("title", Json::str(self.title.as_str())),
            ("rows", Json::Arr(rows.collect())),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_row_judges_equality() {
        assert!(Record::eq("cycles", 13, 13).ok);
        assert!(!Record::eq("cycles", 13, 14).ok);
    }

    #[test]
    fn table_rendering() {
        let mut t = RecordTable::new("E0: smoke");
        t.push(Record::eq("cycles", 13, 13));
        t.push(Record::check("shape", "bit-level wins", true));
        assert!(t.all_ok());
        let text = t.render_text();
        assert!(text.contains("E0: smoke"));
        assert!(text.contains("yes"));
        let md = t.render_markdown();
        assert!(md.contains("| cycles | 13 | 13 | yes |"), "{md}");
        let line = t.to_json();
        assert!(!line.contains('\n'), "{line}");
        let json = Json::parse(&line).expect("valid JSON");
        assert_eq!(json.get("title").and_then(Json::as_str), Some("E0: smoke"));
        let rows = json.get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("measured").and_then(Json::as_str), Some("13"));
        assert_eq!(rows[1].get("ok").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn failed_rows_are_loud() {
        let mut t = RecordTable::new("E0");
        t.push(Record::eq("x", 1, 2));
        assert!(!t.all_ok());
        assert!(t.render_text().contains("NO"));
        assert!(t.render_markdown().contains("**NO**"));
    }
}
