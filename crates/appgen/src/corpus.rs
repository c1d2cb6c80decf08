//! Corpus scenarios: shrunk divergent apps serialized as self-contained
//! text files, replayed by CI on every PR.
//!
//! A scenario records the spec plus what the farm concluded about it:
//!
//! * `status open` — a divergence the repo has not fixed yet. Replay
//!   asserts the divergence *still reproduces* with the recorded oracle
//!   (if it no longer does, the bug was fixed — flip the file to
//!   `fixed`).
//! * `status fixed` — a formerly divergent app (or a mutation-self-check
//!   find). Replay asserts every oracle now passes, pinning the fix
//!   forever.

use std::fmt::Write as _;
use std::path::Path;

use crate::oracle::check_spec;
use crate::spec::AppSpec;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Open,
    Fixed,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// File stem (diagnostics only).
    pub name: String,
    /// Oracle id the divergence fired on when it was found (`D1`..`D6`,
    /// `D8`, `BUILD`).
    pub oracle: String,
    pub status: Status,
    /// Free-text tracking note: where it came from, what was wrong.
    pub note: String,
    pub spec: AppSpec,
}

impl Scenario {
    pub fn to_text(&self) -> String {
        let mut out = String::from("# dfdbg-fuzz corpus scenario v1\n");
        let _ = writeln!(out, "oracle {}", self.oracle);
        let _ = writeln!(
            out,
            "status {}",
            match self.status {
                Status::Open => "open",
                Status::Fixed => "fixed",
            }
        );
        let _ = writeln!(out, "note {}", self.note);
        out.push_str(&self.spec.to_text());
        out
    }

    pub fn from_text(name: &str, text: &str) -> Result<Scenario, String> {
        let mut oracle = None;
        let mut status = None;
        let mut note = String::new();
        let mut spec_lines = Vec::new();
        let mut in_spec = false;
        for line in text.lines() {
            let line = line.trim_end();
            if in_spec {
                spec_lines.push(line);
                continue;
            }
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            if line == "spec v1" {
                in_spec = true;
                spec_lines.push(line);
            } else if let Some(v) = line.strip_prefix("oracle ") {
                oracle = Some(v.to_string());
            } else if let Some(v) = line.strip_prefix("status ") {
                status = Some(match v {
                    "open" => Status::Open,
                    "fixed" => Status::Fixed,
                    other => return Err(format!("{name}: unknown status `{other}`")),
                });
            } else if let Some(v) = line.strip_prefix("note ") {
                note = v.to_string();
            } else {
                return Err(format!("{name}: unexpected line `{line}`"));
            }
        }
        Ok(Scenario {
            name: name.to_string(),
            oracle: oracle.ok_or_else(|| format!("{name}: missing oracle"))?,
            status: status.ok_or_else(|| format!("{name}: missing status"))?,
            note,
            spec: AppSpec::from_text(&spec_lines.join("\n")).map_err(|e| format!("{name}: {e}"))?,
        })
    }

    /// Replay the scenario against the current tree. `Ok` = the corpus
    /// entry still says something true.
    pub fn replay(&self) -> Result<(), String> {
        match (self.status, check_spec(&self.spec)) {
            (Status::Fixed, Ok(_)) => Ok(()),
            (Status::Fixed, Err(d)) => Err(format!(
                "{}: regressed — fixed scenario diverges again on {}: {}",
                self.name, d.oracle, d.detail
            )),
            (Status::Open, Err(d)) if d.oracle == self.oracle => Ok(()),
            (Status::Open, Err(d)) => Err(format!(
                "{}: open scenario now diverges on {} (was {}): {}",
                self.name, d.oracle, self.oracle, d.detail
            )),
            (Status::Open, Ok(_)) => Err(format!(
                "{}: open scenario no longer diverges — flip it to `status fixed`",
                self.name
            )),
        }
    }
}

/// Load every `*.txt` scenario in `dir`, sorted by file name.
pub fn load_dir(dir: &Path) -> Result<Vec<Scenario>, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .collect();
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("scenario")
            .to_string();
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        out.push(Scenario::from_text(&name, &text)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_text_round_trips() {
        let s = Scenario {
            name: "t".into(),
            oracle: "D1".into(),
            status: Status::Fixed,
            note: "from the unit test".into(),
            spec: crate::generate(3),
        };
        let back = Scenario::from_text("t", &s.to_text()).unwrap();
        assert_eq!(s, back);
    }
}
