//! The one-line JSON result a run prints last, and reading it back in
//! the parent of `--all` / `--repeat`.

#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in the order of the contract's tables.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// The line itself. Values print with every digit they have.
    pub fn to_line(&self) -> String {
        let fields: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            fields.join(", ")
        )
    }

    /// Reads back a line written by [`RunResult::to_line`] (not JSON in
    /// general).
    pub fn from_line(line: &str) -> Option<RunResult> {
        let after = |s: &'_ str, key: &str| -> Option<usize> { s.find(key).map(|i| i + key.len()) };
        let number_at = |s: &str| -> String {
            s.chars()
                .take_while(|c| !matches!(c, ',' | '}' | ' '))
                .collect()
        };
        let head = &line[..line.find("\"metrics\"")?];
        let correct = number_at(&head[after(head, "\"correct\": ")?..])
            .parse()
            .ok()?;
        let attempted = number_at(&head[after(head, "\"attempted\": ")?..])
            .parse()
            .ok()?;
        let failed = number_at(&head[after(head, "\"failed\": ")?..])
            .parse()
            .ok()?;
        let mut metrics = Vec::new();
        let mut rest = &line[after(line, "\"metrics\": {")?..];
        while let Some(open) = rest.find("\": {\"value\": ") {
            let name = rest[..open].rsplit('"').next()?.to_string();
            rest = &rest[open + "\": {\"value\": ".len()..];
            let value = number_at(rest).parse().ok()?;
            rest = &rest[after(rest, "\"unit\": \"")?..];
            let unit = rest[..rest.find('"')?].to_string();
            metrics.push((name, value, unit));
        }
        Some(RunResult {
            correct,
            attempted,
            failed,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_result_line_reads_back_as_written() {
        let r = RunResult {
            correct: true,
            attempted: 901_234,
            failed: 0,
            metrics: vec![
                ("placements_per_s".into(), 75_123.456_789_012, "1/s".into()),
                ("schedulers.cache_hit_share".into(), 0.98, "share".into()),
                ("setup_s".into(), 1.0e-3, "s".into()),
            ],
        };
        let line = r.to_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 901234, \"failed\": 0, \"metrics\": {\"placements_per_s\": {\"value\": 75123.456789012, \"unit\": \"1/s\"}"));
        assert_eq!(RunResult::from_line(&line), Some(r));
        assert_eq!(RunResult::from_line("window 1: 5 requests"), None);
    }
}
