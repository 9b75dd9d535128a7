//! Uniform reporting: every experiment prints `paper=X measured=Y` rows so
//! EXPERIMENTS.md can be regenerated mechanically, plus optional JSON.

use serde::Serialize;
use serde_json::json;

/// A report being accumulated by an experiment binary.
#[derive(Debug, Default)]
pub struct Report {
    /// Experiment identifier (e.g. `"table1"`).
    pub id: String,
    /// Title line.
    pub title: String,
    rows: Vec<serde_json::Value>,
    notes: Vec<String>,
}

impl Report {
    /// Start a report.
    pub fn new(id: &str, title: &str) -> Self {
        Report {
            id: id.to_string(),
            title: title.to_string(),
            ..Default::default()
        }
    }

    /// Add a paper-vs-measured comparison row.
    pub fn row(&mut self, metric: &str, paper: impl Serialize, measured: impl Serialize) {
        self.rows.push(json!({
            "metric": metric,
            "paper": paper,
            "measured": measured,
        }));
    }

    /// Add a measured-only row (no paper-reported counterpart).
    pub fn info(&mut self, metric: &str, measured: impl Serialize) {
        self.rows.push(json!({
            "metric": metric,
            "measured": measured,
        }));
    }

    /// Add a free-form note (assumptions, scale caveats).
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Attach a raw data series (CDF points, histogram) for JSON output;
    /// also printed compactly in text mode.
    pub fn series(&mut self, name: &str, data: impl Serialize) {
        self.rows.push(json!({
            "metric": name,
            "series": serde_json::to_value(data).expect("serializable series"),
        }));
    }

    /// Render to stdout in the requested format. Output errors (e.g. a
    /// closed pipe when the reader uses `head`) are ignored, not panics.
    pub fn print(&self, as_json: bool) {
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        let _ = self.write_to(&mut out, as_json);
    }

    /// Render to any writer.
    pub fn write_to(&self, out: &mut impl std::io::Write, as_json: bool) -> std::io::Result<()> {
        if as_json {
            let doc = json!({
                "experiment": self.id,
                "title": self.title,
                "rows": self.rows,
                "notes": self.notes,
            });
            return writeln!(
                out,
                "{}",
                serde_json::to_string_pretty(&doc).expect("valid JSON")
            );
        }
        writeln!(out, "== {} — {} ==", self.id, self.title)?;
        for row in &self.rows {
            let metric = row["metric"].as_str().unwrap_or("?");
            if let Some(series) = row.get("series") {
                writeln!(out, "  {metric}:")?;
                print_series(out, series)?;
            } else if let Some(paper) = row.get("paper") {
                writeln!(
                    out,
                    "  {metric}: paper={} measured={}",
                    compact(paper),
                    compact(&row["measured"])
                )?;
            } else {
                writeln!(out, "  {metric}: measured={}", compact(&row["measured"]))?;
            }
        }
        for n in &self.notes {
            writeln!(out, "  note: {n}")?;
        }
        Ok(())
    }
}

fn compact(v: &serde_json::Value) -> String {
    match v {
        serde_json::Value::Number(n) => {
            if let Some(f) = n.as_f64() {
                if f.fract() == 0.0 && f.abs() < 1e15 {
                    format!("{}", f as i64)
                } else {
                    format!("{f:.4}")
                }
            } else {
                n.to_string()
            }
        }
        serde_json::Value::String(s) => s.clone(),
        other => other.to_string(),
    }
}

fn print_series(out: &mut impl std::io::Write, v: &serde_json::Value) -> std::io::Result<()> {
    match v {
        serde_json::Value::Array(items) => {
            for item in items {
                writeln!(
                    out,
                    "    {}",
                    serde_json::to_string(item).unwrap_or_default()
                )?;
            }
        }
        other => writeln!(out, "    {other}")?,
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_accumulate() {
        let mut r = Report::new("t", "title");
        r.row("x", 1, 2);
        r.info("y", "z");
        r.note("a note");
        r.series("s", vec![(1, 2), (3, 4)]);
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.notes.len(), 1);
        // Must not panic in either mode.
        r.print(false);
        r.print(true);
    }

    #[test]
    fn compact_formats() {
        assert_eq!(compact(&json!(3)), "3");
        assert_eq!(compact(&json!(0.5)), "0.5000");
        assert_eq!(compact(&json!("s")), "s");
    }
}
