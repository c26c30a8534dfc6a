//! Crash-safe durable artifacts: atomic writes, content manifests,
//! and torn-file quarantine.
//!
//! Every artifact the pipeline emits (datasets, CSV tables, chunk
//! files, reports) can be interrupted mid-write by a crash, a kill, or
//! a full disk. A truncated JSON file is worse than a missing one:
//! downstream tools may silently mis-read it. This module provides the
//! one write discipline the whole workspace uses:
//!
//! 1. **Atomic publish** — [`atomic_write`] writes to `<file>.tmp`,
//!    fsyncs, renames over the target, and fsyncs the directory. A
//!    crash at any point leaves either the old content or the new —
//!    never a mix — plus at most a stray `.tmp` that [`scan_dir`]
//!    deletes on the next startup.
//! 2. **Completion manifest** — after the data rename, a sidecar
//!    `<file>.manifest.json` is written (itself atomically) recording
//!    the byte length and FNV-1a 64 content hash. *Manifest present
//!    and matching ⇒ artifact complete.* A file without a valid
//!    manifest is **torn** by definition and must be quarantined, not
//!    read.
//! 3. **Quarantine** — [`verify`] classifies an artifact as
//!    [`ArtifactState::Verified`] / `Missing` / `Torn`; [`quarantine`]
//!    renames a torn artifact (and its manifest, if any) to `*.torn`
//!    so the evidence survives while re-runs get a clean slate. No
//!    torn file is ever left in place without a `.torn` marker once a
//!    recovery pass has seen it.
//!
//! All mutations go through the injectable [`Fs`] trait: production
//! code uses [`RealFs`]; the chaos harness swaps in [`ChaosFs`], which
//! deterministically injects ENOSPC, short writes, and fsync failures
//! at the N-th filesystem operation — so crash-window behaviour is
//! *tested*, not assumed.
//!
//! Observability: `obs.recover.atomic_writes`, `obs.recover.torn_quarantined`,
//! and `obs.recover.tmp_removed` counters (no-ops while telemetry is
//! disabled), plus `obs.retry.attempts` via the shared retry loop when
//! [`atomic_write_retry`] re-runs a transiently failed publish.

use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

pub use hpcpower_obs::retry::{retry_io, RetryPolicy};

/// Suffix of the in-flight temp file an atomic write stages into.
pub const TMP_SUFFIX: &str = ".tmp";
/// Suffix of the completion-manifest sidecar.
pub const MANIFEST_SUFFIX: &str = ".manifest.json";
/// Suffix a quarantined torn artifact is renamed to.
pub const TORN_SUFFIX: &str = ".torn";

/// FNV-1a 64-bit content hash — small, dependency-free, and plenty to
/// detect truncation/corruption (this is an integrity check against
/// crashes, not an adversary).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The completion sidecar recorded next to every durable artifact.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Manifest {
    /// Exact byte length of the artifact.
    pub len: u64,
    /// FNV-1a 64 hash of the artifact bytes, lowercase hex.
    pub fnv64: String,
    /// Always `true` in a written manifest; the manifest's existence
    /// is the completion marker, this field makes it greppable.
    pub complete: bool,
}

impl Manifest {
    /// The manifest describing `bytes`.
    pub fn for_bytes(bytes: &[u8]) -> Self {
        Self {
            len: bytes.len() as u64,
            fnv64: format!("{:016x}", fnv1a64(bytes)),
            complete: true,
        }
    }
}

/// `<file>` → `<file>.manifest.json`.
pub fn manifest_path(path: &Path) -> PathBuf {
    sibling_with_suffix(path, MANIFEST_SUFFIX)
}

fn sibling_with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    name.push_str(suffix);
    path.with_file_name(name)
}

// ---------------------------------------------------------------------------
// The injectable filesystem
// ---------------------------------------------------------------------------

/// The mutation surface of the recovery layer. Production uses
/// [`RealFs`]; chaos tests use [`ChaosFs`] to inject faults at exact
/// operation indices. Reads are deliberately *not* on the trait —
/// verification reads plain `std::fs`, because a torn read manifests
/// as a hash mismatch, which the manifest already catches.
pub trait Fs: std::fmt::Debug + Send + Sync {
    /// Creates/truncates `path`, writes `bytes`, and fsyncs the file.
    fn write_file_sync(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Appends `bytes` to `path` (creating it if needed) and fsyncs —
    /// the journal primitive; callers pass whole lines.
    fn append_sync(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Atomically renames `from` to `to` (same directory).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Fsyncs a directory so a completed rename survives power loss.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Removes a file (used for stray `.tmp` cleanup).
    fn remove_file(&self, path: &Path) -> io::Result<()>;
}

/// The real filesystem.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealFs;

impl Fs for RealFs {
    fn write_file_sync(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = File::create(path)?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    fn append_sync(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = OpenOptions::new().create(true).append(true).open(path)?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        File::open(dir)?.sync_all()
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
}

/// The process-level fault a [`ChaosFs`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails with `StorageFull` before touching disk.
    Enospc,
    /// A write lands only half its bytes on disk, then fails — the
    /// canonical torn-file producer. Non-write operations just fail.
    ShortWrite,
    /// Data is written but the durability step (fsync) fails.
    FsyncFail,
}

#[derive(Debug)]
struct ChaosState {
    ops: u64,
    fail_at_op: u64,
    kind: FaultKind,
    /// `true`: fault fires on every op from `fail_at_op` on (a full
    /// disk stays full); `false`: exactly one op fails.
    persistent: bool,
    fired: u64,
}

/// A deterministic fault-injecting [`Fs`]: counts mutation operations
/// and makes the configured fault fire at (and optionally after) the
/// N-th one. Same code path, same op sequence, same fault — every run.
#[derive(Debug)]
pub struct ChaosFs {
    inner: RealFs,
    state: Mutex<ChaosState>,
}

impl ChaosFs {
    /// A chaos filesystem whose fault fires first at 0-based operation
    /// index `fail_at_op`; `persistent` keeps it firing on every
    /// subsequent operation (ENOSPC semantics) rather than only once.
    pub fn new(kind: FaultKind, fail_at_op: u64, persistent: bool) -> Self {
        Self {
            inner: RealFs,
            state: Mutex::new(ChaosState {
                ops: 0,
                fail_at_op,
                kind,
                persistent,
                fired: 0,
            }),
        }
    }

    /// Total mutation operations seen so far.
    pub fn ops(&self) -> u64 {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner).ops
    }

    /// How many operations the fault has failed so far.
    pub fn faults_fired(&self) -> u64 {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner).fired
    }

    /// Advances the op counter; returns the fault to apply, if any.
    fn next_op(&self) -> Option<FaultKind> {
        let mut s = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let op = s.ops;
        s.ops += 1;
        let fire = op == s.fail_at_op || (s.persistent && op > s.fail_at_op);
        if fire {
            s.fired += 1;
            Some(s.kind)
        } else {
            None
        }
    }
}

fn enospc() -> io::Error {
    io::Error::new(io::ErrorKind::StorageFull, "injected ENOSPC")
}

impl Fs for ChaosFs {
    fn write_file_sync(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.next_op() {
            None => self.inner.write_file_sync(path, bytes),
            Some(FaultKind::Enospc) => Err(enospc()),
            Some(FaultKind::ShortWrite) => {
                // Land a prefix on disk, then report failure: exactly
                // what a crash mid-write leaves behind.
                let cut = bytes.len() / 2;
                let mut f = File::create(path)?;
                f.write_all(&bytes[..cut])?;
                let _ = f.sync_all();
                Err(io::Error::new(
                    io::ErrorKind::StorageFull,
                    format!("injected short write ({cut}/{} bytes)", bytes.len()),
                ))
            }
            Some(FaultKind::FsyncFail) => {
                let mut f = File::create(path)?;
                f.write_all(bytes)?;
                Err(io::Error::other("injected fsync failure"))
            }
        }
    }

    fn append_sync(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.next_op() {
            None => self.inner.append_sync(path, bytes),
            Some(FaultKind::Enospc) => Err(enospc()),
            Some(FaultKind::ShortWrite) => {
                let cut = bytes.len() / 2;
                let mut f = OpenOptions::new().create(true).append(true).open(path)?;
                f.write_all(&bytes[..cut])?;
                let _ = f.sync_all();
                Err(io::Error::new(
                    io::ErrorKind::StorageFull,
                    format!("injected short append ({cut}/{} bytes)", bytes.len()),
                ))
            }
            Some(FaultKind::FsyncFail) => {
                let mut f = OpenOptions::new().create(true).append(true).open(path)?;
                f.write_all(bytes)?;
                Err(io::Error::other("injected fsync failure"))
            }
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.next_op() {
            None => self.inner.rename(from, to),
            Some(_) => Err(enospc()),
        }
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        match self.next_op() {
            None => self.inner.sync_dir(dir),
            Some(FaultKind::FsyncFail) => Err(io::Error::other("injected fsync failure")),
            Some(_) => Err(enospc()),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        match self.next_op() {
            None => self.inner.remove_file(path),
            Some(_) => Err(enospc()),
        }
    }
}

// ---------------------------------------------------------------------------
// Atomic publish
// ---------------------------------------------------------------------------

/// Durably publishes `bytes` as `path` with a completion manifest:
/// write `<path>.tmp` + fsync → rename over `path` → fsync dir →
/// write `<path>.manifest.json` (atomically, same discipline).
///
/// Crash-window guarantees, by interruption point:
/// - before the data rename: `path` is untouched; at most a stray
///   `.tmp` remains ([`scan_dir`] deletes it);
/// - after the data rename, before the manifest lands: `path` has the
///   full new content but no (or a stale) manifest — [`verify`]
///   reports it torn and a recovery pass quarantines and redoes it;
/// - after the manifest rename: the artifact is complete and verified.
pub fn atomic_write(fs: &dyn Fs, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let tmp = sibling_with_suffix(path, TMP_SUFFIX);
    fs.write_file_sync(&tmp, bytes)?;
    fs.rename(&tmp, path)?;
    if let Some(dir) = dir {
        fs.sync_dir(dir)?;
    }
    // Manifest second: its presence asserts the data above is whole.
    let manifest = manifest_path(path);
    let manifest_tmp = sibling_with_suffix(&manifest, TMP_SUFFIX);
    let body = serde_json::to_string(&Manifest::for_bytes(bytes))
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    fs.write_file_sync(&manifest_tmp, body.as_bytes())?;
    fs.rename(&manifest_tmp, &manifest)?;
    if let Some(dir) = dir {
        fs.sync_dir(dir)?;
    }
    hpcpower_obs::counter_add("obs.recover.atomic_writes", 1);
    Ok(())
}

/// [`atomic_write`] under the shared bounded-retry policy: transient
/// errors (interrupted syscalls, timeouts) are retried with backoff;
/// permanent ones (ENOSPC, permission denied) fail immediately.
pub fn atomic_write_retry(
    fs: &dyn Fs,
    path: &Path,
    bytes: &[u8],
    policy: &RetryPolicy,
) -> io::Result<()> {
    let salt = fnv1a64(path.to_string_lossy().as_bytes());
    retry_io(policy, salt, |_| atomic_write(fs, path, bytes))
}

// ---------------------------------------------------------------------------
// Verification and quarantine
// ---------------------------------------------------------------------------

/// What [`verify`] found at an artifact path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactState {
    /// Data present, manifest present, length and hash match.
    Verified(Manifest),
    /// Neither data nor manifest exists — never written (or already
    /// quarantined).
    Missing,
    /// Anything else: data without a valid manifest, manifest without
    /// data, length/hash mismatch. The artifact must not be read.
    Torn(String),
}

/// Classifies the artifact at `path` against its manifest sidecar.
/// Reading is plain `std::fs` — corruption shows up as a mismatch.
pub fn verify(path: &Path) -> ArtifactState {
    let manifest_file = manifest_path(path);
    let data_exists = path.exists();
    let manifest_raw = match std::fs::read_to_string(&manifest_file) {
        Ok(raw) => raw,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return if data_exists {
                ArtifactState::Torn("manifest missing".to_string())
            } else {
                ArtifactState::Missing
            };
        }
        Err(e) => return ArtifactState::Torn(format!("manifest unreadable: {e}")),
    };
    let manifest: Manifest = match serde_json::from_str(&manifest_raw) {
        Ok(m) => m,
        Err(e) => return ArtifactState::Torn(format!("manifest unparsable: {e}")),
    };
    if !manifest.complete {
        return ArtifactState::Torn("manifest lacks completion marker".to_string());
    }
    let mut bytes = Vec::new();
    match File::open(path).and_then(|mut f| f.read_to_end(&mut bytes)) {
        Ok(_) => {}
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return ArtifactState::Torn("data missing (manifest present)".to_string());
        }
        Err(e) => return ArtifactState::Torn(format!("data unreadable: {e}")),
    }
    if bytes.len() as u64 != manifest.len {
        return ArtifactState::Torn(format!(
            "length mismatch: {} bytes on disk, {} in manifest",
            bytes.len(),
            manifest.len
        ));
    }
    let hash = format!("{:016x}", fnv1a64(&bytes));
    if hash != manifest.fnv64 {
        return ArtifactState::Torn(format!(
            "hash mismatch: {hash} on disk, {} in manifest",
            manifest.fnv64
        ));
    }
    ArtifactState::Verified(manifest)
}

/// Quarantines a torn artifact: renames `path` → `path.torn` and its
/// manifest → `path.manifest.json.torn` (whichever of the two exist),
/// so re-runs see a clean slate while the evidence is preserved.
/// Idempotent — quarantining an already-clean path is a no-op. Returns
/// the `.torn` path when data was moved.
pub fn quarantine(fs: &dyn Fs, path: &Path) -> io::Result<Option<PathBuf>> {
    let mut moved = None;
    if path.exists() {
        let torn = sibling_with_suffix(path, TORN_SUFFIX);
        fs.rename(path, &torn)?;
        moved = Some(torn);
    }
    let manifest = manifest_path(path);
    if manifest.exists() {
        fs.rename(&manifest, &sibling_with_suffix(&manifest, TORN_SUFFIX))?;
    }
    if moved.is_some() {
        hpcpower_obs::counter_add("obs.recover.torn_quarantined", 1);
    }
    Ok(moved)
}

/// What a [`scan_dir`] recovery pass did.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ScanReport {
    /// Stray `.tmp` staging files deleted.
    pub tmp_removed: Vec<PathBuf>,
    /// Torn artifacts renamed to `*.torn`.
    pub quarantined: Vec<PathBuf>,
    /// Artifacts whose manifest verified clean.
    pub verified: usize,
}

/// Startup recovery sweep over one directory (non-recursive): deletes
/// stray `.tmp` files and verifies every artifact that has a manifest
/// sidecar, quarantining the torn ones. Artifacts a crash prevented
/// from getting *any* manifest are caught by the caller's journal
/// (journal says chunk N committed but [`verify`] disagrees ⇒
/// quarantine + redo), since a bare data file is indistinguishable
/// from a foreign file here.
pub fn scan_dir(fs: &dyn Fs, dir: &Path) -> io::Result<ScanReport> {
    let mut report = ScanReport::default();
    let mut manifests = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
            continue;
        };
        if name.ends_with(TMP_SUFFIX) {
            fs.remove_file(&path)?;
            hpcpower_obs::counter_add("obs.recover.tmp_removed", 1);
            report.tmp_removed.push(path);
        } else if name.ends_with(MANIFEST_SUFFIX) {
            manifests.push(path);
        }
    }
    for manifest in manifests {
        let name = manifest.file_name().unwrap_or_default().to_string_lossy();
        let data_name = name.trim_end_matches(MANIFEST_SUFFIX).to_string();
        let data = manifest.with_file_name(&data_name);
        match verify(&data) {
            ArtifactState::Verified(_) => report.verified += 1,
            ArtifactState::Missing => {}
            ArtifactState::Torn(_) => {
                quarantine(fs, &data)?;
                report.quarantined.push(data);
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hpcpower-recover-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn atomic_write_verifies_and_leaves_no_tmp() {
        let dir = tmpdir("ok");
        let path = dir.join("artifact.json");
        atomic_write(&RealFs, &path, b"{\"hello\": 1}\n").unwrap();
        assert!(matches!(verify(&path), ArtifactState::Verified(m) if m.len == 13));
        assert!(!sibling_with_suffix(&path, TMP_SUFFIX).exists());
        assert!(manifest_path(&path).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_flags_truncation_tampering_and_missing_manifest() {
        let dir = tmpdir("tamper");
        let path = dir.join("artifact.bin");
        atomic_write(&RealFs, &path, b"0123456789").unwrap();
        // Truncate the data behind the manifest's back.
        std::fs::write(&path, b"01234").unwrap();
        assert!(matches!(verify(&path), ArtifactState::Torn(m) if m.contains("length")));
        // Same-length corruption: hash catches it.
        std::fs::write(&path, b"012345678X").unwrap();
        assert!(matches!(verify(&path), ArtifactState::Torn(m) if m.contains("hash")));
        // Data without any manifest is torn; nothing at all is missing.
        std::fs::remove_file(manifest_path(&path)).unwrap();
        assert!(matches!(verify(&path), ArtifactState::Torn(m) if m.contains("manifest missing")));
        std::fs::remove_file(&path).unwrap();
        assert_eq!(verify(&path), ArtifactState::Missing);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantine_moves_both_files_and_is_idempotent() {
        let dir = tmpdir("quarantine");
        let path = dir.join("chunk-000001.bin");
        atomic_write(&RealFs, &path, b"payload").unwrap();
        std::fs::write(&path, b"pay").unwrap(); // tear it
        let torn = quarantine(&RealFs, &path).unwrap().expect("data moved");
        assert!(torn.to_string_lossy().ends_with(".torn"));
        assert!(!path.exists());
        assert!(!manifest_path(&path).exists());
        assert!(torn.exists());
        // Second pass: nothing left to move, no error.
        assert_eq!(quarantine(&RealFs, &path).unwrap(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_dir_cleans_tmp_and_quarantines_torn() {
        let dir = tmpdir("scan");
        atomic_write(&RealFs, &dir.join("good.bin"), b"good bytes").unwrap();
        atomic_write(&RealFs, &dir.join("bad.bin"), b"will be torn").unwrap();
        std::fs::write(dir.join("bad.bin"), b"will be").unwrap();
        std::fs::write(dir.join("stray.bin.tmp"), b"half a write").unwrap();
        let report = scan_dir(&RealFs, &dir).unwrap();
        assert_eq!(report.verified, 1);
        assert_eq!(report.tmp_removed.len(), 1);
        assert_eq!(report.quarantined, vec![dir.join("bad.bin")]);
        assert!(dir.join("bad.bin.torn").exists());
        assert!(!dir.join("stray.bin.tmp").exists());
        // Idempotent: a second sweep finds only the good artifact.
        let again = scan_dir(&RealFs, &dir).unwrap();
        assert_eq!(again, ScanReport {
            tmp_removed: vec![],
            quarantined: vec![],
            verified: 1,
        });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chaos_enospc_fails_before_touching_disk() {
        let dir = tmpdir("chaos-enospc");
        let path = dir.join("artifact.bin");
        let fs = ChaosFs::new(FaultKind::Enospc, 0, true);
        let err = atomic_write(&fs, &path, b"doomed").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!(verify(&path), ArtifactState::Missing);
        assert!(!sibling_with_suffix(&path, TMP_SUFFIX).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chaos_short_write_leaves_torn_tmp_never_a_torn_artifact() {
        let dir = tmpdir("chaos-short");
        let path = dir.join("artifact.bin");
        let fs = ChaosFs::new(FaultKind::ShortWrite, 0, false);
        assert!(atomic_write(&fs, &path, b"0123456789").is_err());
        // The tear landed in the staging file; the artifact itself was
        // never published and a startup sweep removes the debris.
        assert_eq!(verify(&path), ArtifactState::Missing);
        let tmp = sibling_with_suffix(&path, TMP_SUFFIX);
        assert_eq!(std::fs::read(&tmp).unwrap(), b"01234");
        let report = scan_dir(&RealFs, &dir).unwrap();
        assert_eq!(report.tmp_removed, vec![tmp]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chaos_fault_between_rename_and_manifest_is_detected_as_torn() {
        let dir = tmpdir("chaos-window");
        let path = dir.join("artifact.bin");
        // Ops: 0 write tmp, 1 rename, 2 sync dir, 3 write manifest tmp
        // — fail the manifest write: the crash window where data is
        // published but completion never recorded.
        let fs = ChaosFs::new(FaultKind::Enospc, 3, true);
        assert!(atomic_write(&fs, &path, b"published").is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"published");
        assert!(matches!(verify(&path), ArtifactState::Torn(_)));
        quarantine(&RealFs, &path).unwrap();
        assert_eq!(verify(&path), ArtifactState::Missing);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chaos_fsync_failure_surfaces_as_error() {
        let dir = tmpdir("chaos-fsync");
        let path = dir.join("artifact.bin");
        let fs = ChaosFs::new(FaultKind::FsyncFail, 0, false);
        assert!(atomic_write(&fs, &path, b"bytes").is_err());
        // Once-only fault: the retry wrapper is not fooled because
        // fsync failure is not classified transient — data may be in
        // an unknowable state, so the run must surface it.
        assert_eq!(fs.faults_fired(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every fault kind at every mutation op of an overwrite: the write
    /// fails, and after the recovery sweep the artifact is a whole
    /// version (old or new) or quarantined — never silently torn.
    #[test]
    fn chaos_at_every_op_leaves_a_whole_version_or_a_quarantine() {
        const V1: &[u8] = b"version-1";
        const V2: &[u8] = b"version-2-which-is-longer";
        for kind in [FaultKind::Enospc, FaultKind::ShortWrite, FaultKind::FsyncFail] {
            let dir = tmpdir(&format!("chaos-every-op-{kind:?}"));
            let path = dir.join("artifact.bin");
            let clean = ChaosFs::new(kind, u64::MAX, false);
            atomic_write(&clean, &path, V1).unwrap();
            let n_ops = clean.ops();
            assert!(n_ops > 0);
            for op in 0..n_ops {
                let _ = std::fs::remove_dir_all(&dir);
                std::fs::create_dir_all(&dir).unwrap();
                atomic_write(&RealFs, &path, V1).unwrap();
                let chaos = ChaosFs::new(kind, op, false);
                let attempt = atomic_write(&chaos, &path, V2);
                assert_eq!(chaos.faults_fired(), 1, "{kind:?} op {op}");
                assert!(attempt.is_err(), "{kind:?} op {op}: fault fired but write returned Ok");
                scan_dir(&RealFs, &dir).unwrap();
                match verify(&path) {
                    ArtifactState::Verified(_) => {
                        let body = std::fs::read(&path).unwrap();
                        assert!(body == V1 || body == V2, "{kind:?} op {op}: mixed bytes");
                    }
                    ArtifactState::Missing => assert!(
                        dir.join("artifact.bin.torn").exists(),
                        "{kind:?} op {op}: artifact gone without a quarantine marker"
                    ),
                    ArtifactState::Torn(why) => {
                        panic!("{kind:?} op {op}: still torn after the sweep: {why}")
                    }
                }
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn append_sync_accumulates_lines() {
        let dir = tmpdir("append");
        let journal = dir.join("journal.jsonl");
        RealFs.append_sync(&journal, b"{\"chunk\":0}\n").unwrap();
        RealFs.append_sync(&journal, b"{\"chunk\":1}\n").unwrap();
        let raw = std::fs::read_to_string(&journal).unwrap();
        assert_eq!(raw.lines().count(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let m = Manifest::for_bytes(b"abc");
        let back: Manifest = serde_json::from_str(&serde_json::to_string(&m).unwrap()).unwrap();
        assert_eq!(m, back);
    }
}
