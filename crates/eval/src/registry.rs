//! Persistent run registry (DESIGN.md §11): an append-only on-disk archive of
//! evaluation runs.
//!
//! Layout under the registry root:
//!
//! ```text
//! <root>/
//!   index.tsv            # one line per archived run, append-only
//!   <run-id>/
//!     manifest.json      # who/what/when: config fingerprint, seed, profile, …
//!     report.json        # reportio-encoded EvalReport (schema v2)
//! ```
//!
//! Run ids are deterministic: an FNV-1a-64 hash of the manifest's *identity*
//! fields (system, split, scale, seed, profile, config fingerprint, schema
//! version) — deliberately excluding `jobs` and `git_rev`, so the same logical
//! configuration always maps to the same id regardless of worker count or
//! checkout. Re-recording an identical run is a no-op; re-recording a run id
//! with *different* content is an error (the archive is append-only).

use crate::harness::EvalReport;
use crate::reportio;
use obs::json::{self, quote};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Everything that identifies and describes one archived run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunManifest {
    /// The evaluated system's display name.
    pub system: String,
    /// Split the run evaluated.
    pub split: String,
    /// Experiment scale ("tiny" / "medium" / "full").
    pub scale: String,
    /// Master seed.
    pub seed: u64,
    /// Worker threads used (informational; never part of the run id).
    pub jobs: usize,
    /// LLM profile name ("ChatGPT" / "GPT4").
    pub profile: String,
    /// Fingerprint of the full pipeline configuration (hex).
    pub config_fingerprint: String,
    /// Git revision of the producing checkout, or "unknown".
    pub git_rev: String,
    /// Report schema version the archive was written with.
    pub schema_version: u64,
    /// Examples evaluated.
    pub examples: usize,
}

impl RunManifest {
    /// The deterministic run id for this manifest: `run-` + 16 hex digits of
    /// FNV-1a-64 over the identity fields (excludes `jobs` and `git_rev`).
    pub fn run_id(&self) -> String {
        let mut h = Fnv64::new();
        for part in [
            self.system.as_str(),
            self.split.as_str(),
            self.scale.as_str(),
            self.profile.as_str(),
            self.config_fingerprint.as_str(),
        ] {
            h.update(part.as_bytes());
            h.update(&[0xff]); // field separator
        }
        h.update(&self.seed.to_le_bytes());
        h.update(&self.schema_version.to_le_bytes());
        format!("run-{:016x}", h.finish())
    }

    /// Serialize to JSON through [`obs::json`], like every report artifact.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push('{');
        let _ = write!(out, "\"run_id\":{},", quote(&self.run_id()));
        let _ = write!(out, "\"system\":{},", quote(&self.system));
        let _ = write!(out, "\"split\":{},", quote(&self.split));
        let _ = write!(out, "\"scale\":{},", quote(&self.scale));
        let _ = write!(out, "\"seed\":{},", self.seed);
        let _ = write!(out, "\"jobs\":{},", self.jobs);
        let _ = write!(out, "\"profile\":{},", quote(&self.profile));
        let _ = write!(out, "\"config_fingerprint\":{},", quote(&self.config_fingerprint));
        let _ = write!(out, "\"git_rev\":{},", quote(&self.git_rev));
        let _ = write!(out, "\"schema_version\":{},", self.schema_version);
        let _ = write!(out, "\"examples\":{}", self.examples);
        out.push('}');
        out
    }

    /// Parse a manifest written by [`RunManifest::to_json`]. The stored
    /// `run_id` is checked against the recomputed one so a hand-edited archive
    /// fails loudly.
    pub fn from_json(text: &str) -> Result<RunManifest, String> {
        let value = json::parse(text)?;
        let obj = value.as_object("manifest")?;
        let mut m = RunManifest {
            system: String::new(),
            split: String::new(),
            scale: String::new(),
            seed: 0,
            jobs: 0,
            profile: String::new(),
            config_fingerprint: String::new(),
            git_rev: String::new(),
            schema_version: 1,
            examples: 0,
        };
        let mut stored_id = None;
        let mut seen: Vec<String> = Vec::new();
        for (key, val) in obj {
            seen.push(key.clone());
            match key.as_str() {
                "run_id" => stored_id = Some(val.as_string(key)?),
                "system" => m.system = val.as_string(key)?,
                "split" => m.split = val.as_string(key)?,
                "scale" => m.scale = val.as_string(key)?,
                "seed" => m.seed = val.as_num(key)?,
                "jobs" => m.jobs = val.as_num(key)?,
                "profile" => m.profile = val.as_string(key)?,
                "config_fingerprint" => m.config_fingerprint = val.as_string(key)?,
                "git_rev" => m.git_rev = val.as_string(key)?,
                "schema_version" => m.schema_version = val.as_num(key)?,
                "examples" => m.examples = val.as_num(key)?,
                other => return Err(format!("unknown manifest field `{other}`")),
            }
        }
        // `run_id` and every identity field must be present: a manifest
        // missing `run_id` would silently skip the tamper check below, and a
        // missing identity field would hash into a default instead of failing.
        for required in [
            "run_id",
            "system",
            "split",
            "scale",
            "seed",
            "profile",
            "config_fingerprint",
            "schema_version",
        ] {
            if !seen.iter().any(|k| k == required) {
                return Err(format!("manifest is missing required field `{required}`"));
            }
        }
        let id = stored_id.expect("run_id presence checked above");
        if id != m.run_id() {
            return Err(format!(
                "manifest run_id `{id}` does not match its contents (expected `{}`)",
                m.run_id()
            ));
        }
        Ok(m)
    }
}

/// FNV-1a 64-bit, the same family the engine uses for database fingerprints.
struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Self {
        Fnv64(0xcbf29ce484222325)
    }
    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Fingerprint arbitrary configuration text (e.g. a `Debug` rendering of
/// `PurpleConfig`) into 16 hex digits.
pub fn fingerprint(text: &str) -> String {
    let mut h = Fnv64::new();
    h.update(text.as_bytes());
    format!("{:016x}", h.finish())
}

/// Best-effort git revision of a checkout: resolves `.git/HEAD` (following one
/// level of `ref:` indirection) without invoking git. `None` when the
/// directory is not a git checkout.
pub fn git_rev(repo_root: &Path) -> Option<String> {
    let head = fs::read_to_string(repo_root.join(".git/HEAD")).ok()?;
    let head = head.trim();
    if let Some(r) = head.strip_prefix("ref: ") {
        let direct = fs::read_to_string(repo_root.join(r)).ok();
        if let Some(rev) = direct {
            return Some(rev.trim().to_string());
        }
        // Packed refs fallback: exact ref-name match only, skipping comment
        // (`#`) and peeled-tag (`^`) lines — a suffix match could hand back
        // the revision of a different ref whose name merely ends with ours.
        let packed = fs::read_to_string(repo_root.join(".git/packed-refs")).ok()?;
        for line in packed.lines() {
            if line.starts_with('#') || line.starts_with('^') {
                continue;
            }
            let mut parts = line.split_whitespace();
            if let (Some(rev), Some(name)) = (parts.next(), parts.next()) {
                if name == r {
                    return Some(rev.to_string());
                }
            }
        }
        return None;
    }
    Some(head.to_string())
}

/// An on-disk, append-only archive of evaluation runs.
#[derive(Debug, Clone)]
pub struct RunRegistry {
    root: PathBuf,
}

impl RunRegistry {
    /// Open (creating if needed) a registry rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<RunRegistry, String> {
        let root = root.into();
        fs::create_dir_all(&root)
            .map_err(|e| format!("cannot create registry at {}: {e}", root.display()))?;
        Ok(RunRegistry { root })
    }

    /// The registry root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn index_path(&self) -> PathBuf {
        self.root.join("index.tsv")
    }

    fn run_dir(&self, run_id: &str) -> PathBuf {
        self.root.join(run_id)
    }

    /// Archive one run. Returns its deterministic run id.
    ///
    /// Re-recording a run whose report is byte-identical is a no-op — the
    /// first-written manifest stands, so informational fields the run id
    /// deliberately ignores (`jobs`, `git_rev`) keep the values of the run
    /// that archived first. A run id whose stored report differs from the new
    /// one is an error — the archive never silently rewrites history.
    pub fn record(&self, manifest: &RunManifest, report: &EvalReport) -> Result<String, String> {
        let run_id = manifest.run_id();
        let dir = self.run_dir(&run_id);
        let manifest_json = manifest.to_json();
        let report_json = reportio::report_to_json(report);
        // `create_dir` (not `create_dir_all`) is the atomicity point: of two
        // concurrent writers racing on the same run id, exactly one creates
        // the directory and owns the manifest/report/index writes; the other
        // lands in the already-exists branch below.
        match fs::create_dir(&dir) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                let old_manifest = fs::read_to_string(dir.join("manifest.json")).map_err(|e| {
                    format!("run {run_id} exists but its manifest is unreadable: {e}")
                })?;
                let old = RunManifest::from_json(&old_manifest)
                    .map_err(|e| format!("run {run_id} exists but its manifest is invalid: {e}"))?;
                let old_report = fs::read_to_string(dir.join("report.json")).map_err(|e| {
                    format!("run {run_id} exists but its report is unreadable: {e}")
                })?;
                if old.run_id() == run_id && old_report == report_json {
                    // Idempotent re-archive. A crash between the run-directory
                    // write and the index append leaves the run unreachable
                    // (resolve/load/list consult only the index), so heal the
                    // missing line here instead of silently succeeding.
                    if !self.run_ids()?.iter().any(|id| id == &run_id) {
                        self.append_index(&old)?;
                    }
                    return Ok(run_id);
                }
                return Err(format!(
                    "run {run_id} is already archived with different content; \
                     the registry is append-only (did the toolchain or data generator change?)"
                ));
            }
            Err(e) => return Err(format!("cannot create {}: {e}", dir.display())),
        }
        fs::write(dir.join("manifest.json"), &manifest_json)
            .map_err(|e| format!("cannot write manifest for {run_id}: {e}"))?;
        fs::write(dir.join("report.json"), &report_json)
            .map_err(|e| format!("cannot write report for {run_id}: {e}"))?;
        // Append to the index last, so a crash mid-record never leaves an
        // index entry pointing at a half-written run.
        self.append_index(manifest)?;
        Ok(run_id)
    }

    fn append_index(&self, manifest: &RunManifest) -> Result<(), String> {
        let line = format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            manifest.run_id(),
            tsv(&manifest.system),
            tsv(&manifest.split),
            tsv(&manifest.scale),
            manifest.seed,
            tsv(&manifest.profile),
            manifest.config_fingerprint
        );
        let mut index = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.index_path())
            .map_err(|e| format!("cannot open index: {e}"))?;
        use std::io::Write as _;
        index.write_all(line.as_bytes()).map_err(|e| format!("cannot append to index: {e}"))
    }

    /// Load an archived run. `run_id` may be a full id, a unique `run-` prefix,
    /// or the literal `latest` (most recently appended index entry).
    pub fn load(&self, run_id: &str) -> Result<(RunManifest, EvalReport), String> {
        let run_id = self.resolve(run_id)?;
        let dir = self.run_dir(&run_id);
        let manifest_text = fs::read_to_string(dir.join("manifest.json"))
            .map_err(|e| format!("run {run_id}: cannot read manifest: {e}"))?;
        let manifest = RunManifest::from_json(&manifest_text)
            .map_err(|e| format!("run {run_id}: bad manifest: {e}"))?;
        let report_text = fs::read_to_string(dir.join("report.json"))
            .map_err(|e| format!("run {run_id}: cannot read report: {e}"))?;
        let report = reportio::report_from_json(&report_text)
            .map_err(|e| format!("run {run_id}: bad report: {e}"))?;
        Ok((manifest, report))
    }

    /// Resolve a user-supplied run reference to a concrete run id.
    pub fn resolve(&self, reference: &str) -> Result<String, String> {
        let ids = self.run_ids()?;
        if reference == "latest" {
            return ids
                .last()
                .cloned()
                .ok_or_else(|| format!("registry {} is empty", self.root.display()));
        }
        if ids.iter().any(|id| id == reference) {
            return Ok(reference.to_string());
        }
        let matches: Vec<&String> = ids.iter().filter(|id| id.starts_with(reference)).collect();
        match matches.len() {
            1 => Ok(matches[0].clone()),
            0 => Err(format!(
                "no archived run `{reference}` in {} (known: {})",
                self.root.display(),
                if ids.is_empty() { "none".to_string() } else { ids.join(", ") }
            )),
            _ => Err(format!("run reference `{reference}` is ambiguous: {matches:?}")),
        }
    }

    /// All archived run ids, in index (archival) order.
    pub fn run_ids(&self) -> Result<Vec<String>, String> {
        let text = match fs::read_to_string(self.index_path()) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(format!("cannot read index: {e}")),
        };
        let mut ids: Vec<String> = Vec::new();
        for id in text.lines().filter_map(|l| l.split('\t').next()) {
            if !id.is_empty() && !ids.iter().any(|seen| seen == id) {
                ids.push(id.to_string());
            }
        }
        Ok(ids)
    }

    /// Load every archived manifest, in index order.
    pub fn list(&self) -> Result<Vec<RunManifest>, String> {
        self.run_ids()?.iter().map(|id| self.load(id).map(|(m, _)| m)).collect()
    }
}

/// Flatten TSV-hostile characters out of an index field.
fn tsv(s: &str) -> String {
    s.replace(['\t', '\n', '\r'], " ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Bucket, ExampleOutcome};
    use obs::StageMetrics;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("purple-registry-{tag}-{}-{n}", std::process::id()))
    }

    fn manifest() -> RunManifest {
        RunManifest {
            system: "PURPLE (ChatGPT)".into(),
            split: "dev".into(),
            scale: "tiny".into(),
            seed: 42,
            jobs: 4,
            profile: "ChatGPT".into(),
            config_fingerprint: fingerprint("cfg-debug-text"),
            git_rev: "deadbeef".into(),
            schema_version: reportio::REPORT_SCHEMA_VERSION,
            examples: 2,
        }
    }

    fn report() -> EvalReport {
        EvalReport {
            system: "PURPLE (ChatGPT)".into(),
            split: "dev".into(),
            overall: Bucket { n: 2, em: 1, ex: 2, ts: 0 },
            by_hardness: [Bucket::default(); 4],
            avg_prompt_tokens: 10.0,
            avg_output_tokens: 1.0,
            has_ts: false,
            metrics: StageMetrics::default(),
            attribution: None,
            examples: vec![
                ExampleOutcome { em: true, ex: true, ts: false, hardness: 0 },
                ExampleOutcome { em: false, ex: true, ts: false, hardness: 2 },
            ],
        }
    }

    #[test]
    fn run_id_is_deterministic_and_ignores_jobs_and_git_rev() {
        let m = manifest();
        let mut m2 = m.clone();
        m2.jobs = 1;
        m2.git_rev = "unknown".into();
        assert_eq!(m.run_id(), m2.run_id());
        let mut m3 = m.clone();
        m3.seed = 43;
        assert_ne!(m.run_id(), m3.run_id());
        let mut m4 = m.clone();
        m4.profile = "GPT4".into();
        assert_ne!(m.run_id(), m4.run_id());
        assert!(m.run_id().starts_with("run-"));
        assert_eq!(m.run_id().len(), 4 + 16);
    }

    #[test]
    fn manifest_json_round_trips_and_checks_id() {
        let m = manifest();
        let json = m.to_json();
        let back = RunManifest::from_json(&json).unwrap();
        assert_eq!(m, back);
        // Tampering with an identity field invalidates the stored run_id.
        let tampered = json.replace("\"seed\":42", "\"seed\":41");
        assert!(RunManifest::from_json(&tampered).unwrap_err().contains("does not match"));
    }

    #[test]
    fn record_load_list_and_idempotency() {
        let dir = scratch_dir("record");
        let reg = RunRegistry::open(&dir).unwrap();
        let (m, r) = (manifest(), report());
        let id = reg.record(&m, &r).unwrap();
        // Idempotent re-record, no duplicate index line.
        assert_eq!(reg.record(&m, &r).unwrap(), id);
        assert_eq!(reg.run_ids().unwrap(), vec![id.clone()]);
        // Same id, different content → append-only violation.
        let mut r2 = r.clone();
        r2.overall.ex = 1;
        assert!(reg.record(&m, &r2).unwrap_err().contains("append-only"));
        // Load round-trips, via full id, prefix, and `latest`.
        let (lm, lr) = reg.load(&id).unwrap();
        assert_eq!((lm.clone(), lr.clone()), (m.clone(), r.clone()));
        assert_eq!(reg.load(&id[..8]).unwrap().0, m);
        assert_eq!(reg.load("latest").unwrap().0, m);
        assert_eq!(reg.list().unwrap().len(), 1);
        // Unknown id errors descriptively.
        assert!(reg.load("run-ffffffffffffffff").unwrap_err().contains("no archived run"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn future_schema_archives_are_rejected_on_load() {
        let dir = scratch_dir("future");
        let reg = RunRegistry::open(&dir).unwrap();
        let (m, r) = (manifest(), report());
        let id = reg.record(&m, &r).unwrap();
        // Simulate an archive written by a future binary.
        let report_path = dir.join(&id).join("report.json");
        let text = fs::read_to_string(&report_path).unwrap();
        fs::write(&report_path, text.replace("\"schema_version\":2", "\"schema_version\":99"))
            .unwrap();
        let err = reg.load(&id).unwrap_err();
        assert!(err.contains("unsupported report schema_version 99"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn record_heals_index_line_lost_to_a_crash() {
        let dir = scratch_dir("heal");
        let reg = RunRegistry::open(&dir).unwrap();
        let (m, r) = (manifest(), report());
        let id = reg.record(&m, &r).unwrap();
        // Simulate a crash between the run-directory write and the index
        // append: the run directory exists but the index never saw it.
        fs::write(dir.join("index.tsv"), "").unwrap();
        assert!(reg.resolve(&id).is_err());
        // Re-recording the identical run must repair the index, not just
        // take the idempotent early return.
        assert_eq!(reg.record(&m, &r).unwrap(), id);
        assert_eq!(reg.run_ids().unwrap(), vec![id.clone()]);
        assert_eq!(reg.load("latest").unwrap().0, m);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_missing_required_fields_is_rejected() {
        let m = manifest();
        let json = m.to_json();
        // Without run_id the tamper check would be skipped entirely.
        let no_id = json.replace(&format!("\"run_id\":\"{}\",", m.run_id()), "");
        let err = RunManifest::from_json(&no_id).unwrap_err();
        assert!(err.contains("missing required field `run_id`"), "{err}");
        // A missing identity field must not silently default.
        let no_seed = json.replace("\"seed\":42,", "");
        let err = RunManifest::from_json(&no_seed).unwrap_err();
        assert!(err.contains("missing required field `seed`"), "{err}");
    }

    #[test]
    fn git_rev_packed_refs_requires_exact_ref_match() {
        let dir = scratch_dir("gitrev");
        fs::create_dir_all(dir.join(".git")).unwrap();
        fs::write(dir.join(".git/HEAD"), "ref: refs/heads/main\n").unwrap();
        // A branch whose name merely *ends* with the HEAD ref path comes
        // first, plus comment and peeled-tag lines; only the exact ref may
        // win.
        fs::write(
            dir.join(".git/packed-refs"),
            "# pack-refs with: peeled fully-peeled sorted\n\
             1111111111111111111111111111111111111111 refs/heads/wip/refs/heads/main\n\
             ^2222222222222222222222222222222222222222\n\
             3333333333333333333333333333333333333333 refs/heads/main\n",
        )
        .unwrap();
        assert_eq!(git_rev(&dir).as_deref(), Some("3333333333333333333333333333333333333333"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_registry_latest_errors() {
        let dir = scratch_dir("empty");
        let reg = RunRegistry::open(&dir).unwrap();
        assert!(reg.resolve("latest").unwrap_err().contains("empty"));
        fs::remove_dir_all(&dir).ok();
    }
}
