//! The result a run prints: one `metric` line per value for people, then
//! the driver's JSON object as the last line of standard output.

/// `(name, value, unit)` in emission order.
pub type Metrics = Vec<(String, f64, String)>;

#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl RunResult {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// The driver's line. Values print with Rust's shortest round-trip
    /// formatting: every digit measured, nothing rounded away.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Parse a line written by [`RunResult::to_json`] (our own format
    /// only: no escapes, one nesting level under `metrics`).
    pub fn from_json(line: &str) -> Option<RunResult> {
        let scalar = |key: &str| -> Option<&str> {
            let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
            let rest = &line[at..];
            Some(&rest[..rest.find([',', '}'])?])
        };
        let body = &line[line.find("\"metrics\": {")? + 12..];
        let mut metrics = Metrics::new();
        let mut rest = body;
        while let Some(start) = rest.find('"') {
            let after = &rest[start + 1..];
            let name = &after[..after.find('"')?];
            let entry = &after[..after.find('}')?];
            let value = entry[entry.find("\"value\": ")? + 9..].split(',').next()?;
            let unit = entry[entry.find("\"unit\": \"")? + 9..].split('"').next()?;
            metrics.push((
                name.to_string(),
                value.trim().parse().ok()?,
                unit.to_string(),
            ));
            rest = &after[after.find('}')? + 1..];
        }
        Some(RunResult {
            correct: scalar("correct")? == "true",
            attempted: scalar("attempted")?.parse().ok()?,
            failed: scalar("failed")?.parse().ok()?,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let r = RunResult {
            correct: true,
            attempted: 1234,
            failed: 0,
            metrics: vec![
                ("cycle_ms_quiet".into(), 53.20417, "ms".into()),
                ("updates_per_s".into(), 1.0e6 / 3.0, "events/s".into()),
                ("core.space_units".into(), 0.0, "count".into()),
            ],
        };
        let line = r.to_json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1234, \"failed\": 0, "));
        assert_eq!(RunResult::from_json(&line), Some(r));
        assert_eq!(RunResult::from_json("not a result"), None);
    }
}
