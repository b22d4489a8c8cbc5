//! The bench gate's absolute bounds: one table, evaluated by
//! `repro bench-gate` after the CI bench stages wrote their JSON.
//!
//! The latency gate ([`crate::experiments::pipeline::compare`]) is
//! relative to a committed baseline. The rows here are absolute: each
//! names a JSON report, a top-level numeric field in it, whether the
//! field is floored or ceilinged, the default bound, and the environment
//! variable that overrides the bound. A report that is absent is skipped
//! (its bench stage did not run); a report without the field fails.

use kishu_testkit::json::Json;

/// Which side of the bound passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// The value must be at least the bound.
    Floor,
    /// The value must be at most the bound.
    Ceiling,
}

/// One gated field.
#[derive(Debug, Clone, Copy)]
pub struct GateRow {
    /// What the field measures, for messages.
    pub what: &'static str,
    /// Report path, relative to the repository root.
    pub file: &'static str,
    /// Top-level numeric field of the report.
    pub field: &'static str,
    /// Floor or ceiling.
    pub bound: Bound,
    /// The bound when `env` is unset.
    pub default: f64,
    /// Environment variable overriding the bound.
    pub env: &'static str,
    /// Unit suffix for messages (`"x"` for ratios).
    pub unit: &'static str,
}

/// Every absolute bound the gate enforces.
pub const GATES: &[GateRow] = &[
    // Chunking is a representation property, not a latency: the v2-vs-v1
    // physical-bytes reduction on the mutate-slightly workload.
    GateRow {
        what: "storage engine v2 physical reduction",
        file: "target/CHUNKS.json",
        field: "reduction",
        bound: Bound::Floor,
        default: 2.0,
        env: "KISHU_CHUNKS_MIN_REDUCTION",
        unit: "x",
    },
    // The VM losing its lead over the tree-walker is a regression even if
    // both engines got faster.
    GateRow {
        what: "bytecode-VM speedup over the tree-walker",
        file: "target/INTERP.json",
        field: "speedup",
        bound: Bound::Floor,
        default: 2.0,
        env: "KISHU_INTERP_MIN_SPEEDUP",
        unit: "x",
    },
    // The modified-in index degenerating to an ancestor scan.
    GateRow {
        what: "history-index speedup over the ancestor scan",
        file: "target/QUERIES.json",
        field: "speedup",
        bound: Bound::Floor,
        default: 1.5,
        env: "KISHU_QUERIES_MIN_SPEEDUP",
        unit: "x",
    },
    // The always-on recorder's overhead; it may be slightly negative
    // (noise), and only exceeding the ceiling fails.
    GateRow {
        what: "flight-recorder overhead",
        file: "target/OBS.json",
        field: "overhead",
        bound: Bound::Ceiling,
        default: 0.05,
        env: "KISHU_OBS_MAX_OVERHEAD",
        unit: "",
    },
];

impl GateRow {
    /// The bound in force: `override_value` when given, else the default.
    pub fn limit(&self, override_value: Option<&str>) -> Result<f64, String> {
        match override_value {
            None => Ok(self.default),
            Some(v) => v
                .trim()
                .parse()
                .map_err(|_| format!("{}={v:?} is not a number", self.env)),
        }
    }

    /// Check the row against a parsed report. `Ok` and `Err` both carry
    /// the line to print.
    pub fn check(&self, report: &Json, limit: f64) -> Result<String, String> {
        let Some(value) = report.get(self.field).and_then(Json::as_f64) else {
            return Err(format!(
                "{} present but has no \"{}\" field",
                self.file, self.field
            ));
        };
        let (u, what) = (self.unit, self.what);
        let (name, ok) = match self.bound {
            Bound::Floor => ("floor", value >= limit),
            Bound::Ceiling => ("ceiling", value <= limit),
        };
        if ok {
            Ok(format!("{what} {value}{u} ({name} {limit}{u}) OK"))
        } else {
            let side = if self.bound == Bound::Floor {
                "below"
            } else {
                "above"
            };
            Err(format!(
                "{what} {value}{u} is {side} the {limit}{u} {name} (see {}; {} overrides)",
                self.file, self.env
            ))
        }
    }

    /// Evaluate the row on the report's text (`None` = file absent: the
    /// row is skipped) and the override's value.
    pub fn evaluate(
        &self,
        text: Option<&str>,
        override_value: Option<&str>,
    ) -> Option<Result<String, String>> {
        let text = text?;
        Some(self.limit(override_value).and_then(|limit| {
            let report = Json::parse(text).map_err(|e| format!("{}: {e}", self.file))?;
            self.check(&report, limit)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(field: &str) -> &'static GateRow {
        GATES.iter().find(|r| r.field == field).expect("row")
    }

    fn report(field: &str, value: f64) -> Json {
        Json::obj(vec![
            ("schema", Json::Str("t".into())),
            (field, Json::Float(value)),
        ])
    }

    #[test]
    fn floor_row_passes_fails_and_requires_its_field() {
        let r = row("reduction");
        assert_eq!(r.bound, Bound::Floor);
        assert!(r.check(&report("reduction", 2.5), 2.0).is_ok());
        assert!(
            r.check(&report("reduction", 2.0), 2.0).is_ok(),
            "the bound itself passes"
        );
        let err = r
            .check(&report("reduction", 1.9), 2.0)
            .expect_err("below the floor");
        assert!(
            err.contains("below") && err.contains("KISHU_CHUNKS_MIN_REDUCTION"),
            "{err}"
        );
        let err = r
            .check(&report("dedup_ratio", 9.0), 2.0)
            .expect_err("no field");
        assert!(err.contains("no \"reduction\" field"), "{err}");
    }

    #[test]
    fn ceiling_row_passes_fails_and_requires_its_field() {
        let r = row("overhead");
        assert_eq!(r.bound, Bound::Ceiling);
        assert!(r.check(&report("overhead", 0.01), 0.05).is_ok());
        assert!(
            r.check(&report("overhead", -0.02), 0.05).is_ok(),
            "negative noise passes"
        );
        let err = r
            .check(&report("overhead", 0.08), 0.05)
            .expect_err("above the ceiling");
        assert!(
            err.contains("above") && err.contains("KISHU_OBS_MAX_OVERHEAD"),
            "{err}"
        );
        assert!(r.check(&report("speedup", 0.0), 0.05).is_err(), "no field");
    }

    #[test]
    fn absent_reports_skip_and_overrides_replace_the_default() {
        let r = row("overhead");
        assert!(r.evaluate(None, None).is_none(), "absent file is skipped");
        let text = report("overhead", 0.08).dump();
        assert!(r.evaluate(Some(&text), None).expect("evaluated").is_err());
        assert!(r
            .evaluate(Some(&text), Some("0.10"))
            .expect("evaluated")
            .is_ok());
        assert!(r
            .evaluate(Some(&text), Some("lots"))
            .expect("evaluated")
            .is_err());
        assert!(r
            .evaluate(Some("{not json"), None)
            .expect("evaluated")
            .is_err());
    }

    #[test]
    fn table_keeps_the_bounds_and_overrides() {
        let got: Vec<_> = GATES
            .iter()
            .map(|r| (r.file, r.field, r.default, r.env))
            .collect();
        assert_eq!(
            got,
            [
                (
                    "target/CHUNKS.json",
                    "reduction",
                    2.0,
                    "KISHU_CHUNKS_MIN_REDUCTION"
                ),
                (
                    "target/INTERP.json",
                    "speedup",
                    2.0,
                    "KISHU_INTERP_MIN_SPEEDUP"
                ),
                (
                    "target/QUERIES.json",
                    "speedup",
                    1.5,
                    "KISHU_QUERIES_MIN_SPEEDUP"
                ),
                (
                    "target/OBS.json",
                    "overhead",
                    0.05,
                    "KISHU_OBS_MAX_OVERHEAD"
                ),
            ]
        );
    }
}
