//! Artifact writing: text + JSON per job, plus the run manifest.

use crate::executor::RunReport;
use std::fs;
use std::io;
use std::path::Path;

/// Writes every successful unit's `*.txt` and `*.json` plus
/// `manifest.json` into `dir` (created if needed). Returns the number of
/// artifact pairs written.
pub fn write_run(dir: &Path, report: &RunReport) -> io::Result<usize> {
    fs::create_dir_all(dir)?;
    let mut written = 0;
    for r in &report.results {
        if let Some(out) = &r.output {
            let stem = r.artifact_stem();
            fs::write(dir.join(format!("{stem}.txt")), &out.text)?;
            fs::write(dir.join(format!("{stem}.json")), &out.json)?;
            if let Some(t) = &r.trace {
                fs::write(dir.join(format!("{stem}.trace.bin")), &t.bin)?;
                fs::write(dir.join(format!("{stem}.trace.json")), &t.sidecar)?;
                // Span self-profile is advisory (wall-clock) and not
                // fingerprinted; the `trace chrome` subcommand reads it.
                if let Some(snap) = &r.metrics {
                    fs::write(dir.join(format!("{stem}.trace.spans.json")), snap.to_json())?;
                }
            }
            written += 1;
        }
    }
    fs::write(dir.join("manifest.json"), report.manifest.to_json())?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{FnJob, JobOutput};
    use crate::registry::Registry;
    use crate::RunConfig;

    #[test]
    fn writes_artifacts_and_manifest() {
        let mut reg = Registry::new();
        reg.register(FnJob::new("art", "test", |_| {
            Ok(JobOutput::new("text\n".into(), "{\"v\":3}".into()))
        }));
        let report = crate::run(&reg, &RunConfig::new(1), &mut |_| {});
        let dir = std::env::temp_dir().join(format!("fiveg-artifacts-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let n = write_run(&dir, &report).unwrap();
        assert_eq!(n, 1);
        assert_eq!(fs::read_to_string(dir.join("art.txt")).unwrap(), "text\n");
        assert_eq!(
            fs::read_to_string(dir.join("art.json")).unwrap(),
            "{\"v\":3}"
        );
        assert!(dir.join("manifest.json").exists());
        let g = crate::write_golden(&dir.join("golden"), &report).unwrap();
        assert_eq!(g, 1);
        assert!(dir.join("golden/art.json").exists());
        assert!(!dir.join("golden/art.txt").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
