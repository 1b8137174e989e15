//! Atomic file commit and the completed-units journal.
//!
//! Every durable write in the store stack funnels through
//! [`write_bytes_atomic`]: stage to a sibling `*.tmp`, `write_all`,
//! `sync_all`, then `rename` over the destination (plus a best-effort
//! parent-directory fsync so the rename itself is durable). A crash at
//! any point leaves either the old file or the new one — never a
//! half-written visible file. The `ppgnn-analyze` `atomic_commit` lint
//! bans bare `File::create`/`fs::rename` on store paths outside this
//! module, so the funnel stays the only write path.
//!
//! `Journal` is the store writer's completed-units log: one
//! `done=<hop>` line appended and fsynced after each hop-file commit.
//! An interrupted run replays it (entries are re-verified against the
//! hop files on disk before being trusted) and re-diffuses only the
//! missing units. The manifest — written last, atomically — is the
//! commit point; the journal is removed once it lands.
//!
//! Matrix sidecars (a partition's global rows, persisted labels and node
//! ids) are written and read through [`write_sidecar`] / [`read_sidecar`].
//!
//! Both paths are fault-injection points (see [`crate::fault`]): sites
//! are named by the caller of [`write_bytes_atomic`], and journal
//! appends check the `journal` site.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use ppgnn_tensor::{io as tio, Matrix};

use crate::error::{CorruptError, DataIoError};
use crate::fault::{self, FaultKind};

/// File name of the completed-units journal inside a store directory.
pub const JOURNAL: &str = "journal.txt";

const JOURNAL_HEADER: &str = "ppgnn-journal v1";

fn io_err(path: &Path, e: &std::io::Error) -> DataIoError {
    DataIoError::Io(format!("{}: {e}", path.display()))
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Atomically replaces `path` with `bytes`: temp file, flush,
/// `sync_all`, rename, best-effort directory sync. `site` names the
/// fault-injection point for this write (e.g. `"hop"`, `"manifest"`).
///
/// # Errors
///
/// I/O failures at any stage (including injected ones); on error the
/// destination is untouched — at worst a `*.tmp` sibling is left
/// behind, which the next successful commit overwrites.
pub fn write_bytes_atomic(site: &str, path: &Path, bytes: &[u8]) -> Result<(), DataIoError> {
    if let Some(f) = fault::write_fault(site, path) {
        match f.kind {
            FaultKind::WriteErr => return Err(f.to_io_error().into()),
            FaultKind::Torn => {
                // Half the bytes reach the temp file before the
                // "process dies": the destination must stay untouched.
                let tmp = tmp_path(path);
                let mut file = File::create(&tmp).map_err(|e| io_err(&tmp, &e))?;
                file.write_all(&bytes[..bytes.len() / 2])
                    .map_err(|e| io_err(&tmp, &e))?;
                let _ = file.sync_all();
                return Err(f.to_io_error().into());
            }
            FaultKind::BitFlip => {
                // Silent media corruption: one bit flips, the commit
                // "succeeds". Read-side checksums must catch this.
                let mut flipped = bytes.to_vec();
                if !flipped.is_empty() {
                    let (byte, bit) = f.flip_position(flipped.len());
                    flipped[byte] ^= 1u8 << bit;
                }
                return commit(path, &flipped);
            }
            FaultKind::ReadErr => {}
        }
    }
    commit(path, bytes)
}

fn commit(path: &Path, bytes: &[u8]) -> Result<(), DataIoError> {
    let tmp = tmp_path(path);
    let mut file = File::create(&tmp).map_err(|e| io_err(&tmp, &e))?;
    file.write_all(bytes).map_err(|e| io_err(&tmp, &e))?;
    file.sync_all().map_err(|e| io_err(&tmp, &e))?;
    drop(file);
    fs::rename(&tmp, path).map_err(|e| io_err(path, &e))?;
    sync_dir(path);
    Ok(())
}

/// Atomically writes `m` as a `PPGT` matrix sidecar (a partition's global
/// rows, persisted labels and node ids) through the `sidecar` fault site.
///
/// # Errors
///
/// Same failure modes as [`write_bytes_atomic`].
pub fn write_sidecar(path: &Path, m: &Matrix) -> Result<(), DataIoError> {
    let mut buf = Vec::new();
    tio::write_matrix(&mut buf, m).map_err(|e| DataIoError::Io(e.to_string()))?;
    write_bytes_atomic("sidecar", path, &buf)
}

/// Reads a matrix sidecar written by [`write_sidecar`].
///
/// # Errors
///
/// [`DataIoError::Io`] naming the path when the file cannot be opened;
/// located corruption when its bytes do not parse.
pub fn read_sidecar(path: &Path) -> Result<Matrix, DataIoError> {
    let mut file = File::open(path).map_err(|e| io_err(path, &e))?;
    tio::read_matrix(&mut file).map_err(|e| CorruptError::new(e.to_string()).with_path(path).into())
}

/// Best-effort parent-directory fsync: makes the rename durable on
/// POSIX filesystems; failures (platforms where directories cannot be
/// opened) do not fail the commit.
fn sync_dir(path: &Path) {
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
}

/// The append-only completed-units journal of one store directory.
///
/// Layout: a header line, a `geometry=` line binding the journal to the
/// store shape it was written for, then one `done=<hop>` line per
/// committed hop file. Appends are fsynced so a committed unit survives
/// the very next crash; a torn trailing line (crash mid-append) is
/// ignored on replay.
#[derive(Debug)]
pub(crate) struct Journal {
    path: PathBuf,
    file: File,
}

impl Journal {
    /// Starts a fresh journal for `dir`, truncating any stale one.
    pub(crate) fn create(dir: &Path, geometry: &str) -> Result<Self, DataIoError> {
        let path = dir.join(JOURNAL);
        let mut file = File::create(&path).map_err(|e| io_err(&path, &e))?;
        file.write_all(format!("{JOURNAL_HEADER}\ngeometry={geometry}\n").as_bytes())
            .map_err(|e| io_err(&path, &e))?;
        file.sync_all().map_err(|e| io_err(&path, &e))?;
        Ok(Journal { path, file })
    }

    /// Replays `dir`'s journal: returns the journal (reopened for
    /// append) and the hops it records as done. A missing journal, a
    /// header/geometry mismatch (the previous run had a different store
    /// shape), or an unreadable file all mean "nothing done" — the
    /// journal is recreated fresh. Malformed lines (torn appends, bit
    /// flips) are skipped; callers must still re-verify every returned
    /// hop against the bytes on disk before trusting it.
    pub(crate) fn resume(dir: &Path, geometry: &str) -> Result<(Self, Vec<usize>), DataIoError> {
        let path = dir.join(JOURNAL);
        let Ok(text) = fs::read_to_string(&path) else {
            return Ok((Journal::create(dir, geometry)?, Vec::new()));
        };
        let mut lines = text.lines();
        if lines.next() != Some(JOURNAL_HEADER)
            || lines.next() != Some(&format!("geometry={geometry}") as &str)
        {
            return Ok((Journal::create(dir, geometry)?, Vec::new()));
        }
        let mut done = Vec::new();
        for line in lines {
            if let Some(k) = line.strip_prefix("done=") {
                if let Ok(k) = k.parse::<usize>() {
                    done.push(k);
                }
            }
        }
        let file = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| io_err(&path, &e))?;
        Ok((Journal { path, file }, done))
    }

    /// Appends and fsyncs a `done=<hop>` record. Checks the `journal`
    /// fault site; an injected torn append leaves a partial line that
    /// replay skips.
    pub(crate) fn record(&mut self, hop: usize) -> Result<(), DataIoError> {
        let file = &mut self.file;
        let mut line = format!("done={hop}\n").into_bytes();
        if let Some(f) = fault::write_fault("journal", &self.path) {
            match f.kind {
                FaultKind::WriteErr => return Err(f.to_io_error().into()),
                FaultKind::Torn => {
                    let half = line.len() / 2;
                    file.write_all(&line[..half])
                        .map_err(|e| io_err(&self.path, &e))?;
                    let _ = file.sync_all();
                    return Err(f.to_io_error().into());
                }
                FaultKind::BitFlip => {
                    let (byte, bit) = f.flip_position(line.len());
                    line[byte] ^= 1u8 << bit;
                }
                FaultKind::ReadErr => {}
            }
        }
        file.write_all(&line).map_err(|e| io_err(&self.path, &e))?;
        file.sync_all().map_err(|e| io_err(&self.path, &e))?;
        Ok(())
    }

    /// Removes the journal — called after the manifest (the commit
    /// point) has landed; best-effort.
    pub(crate) fn remove(self) {
        drop(self.file);
        let _ = fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ppgnn-commit-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("fixture invariant holds");
        dir
    }

    #[test]
    fn atomic_write_replaces_contents_and_cleans_tmp() {
        let dir = tmp_dir("atomic");
        let path = dir.join("manifest.txt");
        write_bytes_atomic("manifest", &path, b"v1").expect("fixture invariant holds");
        assert_eq!(fs::read(&path).expect("fixture invariant holds"), b"v1");
        write_bytes_atomic("manifest", &path, b"v2-longer").expect("fixture invariant holds");
        assert_eq!(
            fs::read(&path).expect("fixture invariant holds"),
            b"v2-longer"
        );
        assert!(!tmp_path(&path).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_round_trips_and_tolerates_torn_tail() {
        let dir = tmp_dir("journal");
        let geometry = "2:8:4:3:f32:unit";
        let mut j = Journal::create(&dir, geometry).expect("fixture invariant holds");
        j.record(0).expect("fixture invariant holds");
        j.record(1).expect("fixture invariant holds");
        drop(j);

        // Simulate a crash mid-append: a trailing partial line.
        let path = dir.join(JOURNAL);
        let mut f = OpenOptions::new()
            .append(true)
            .open(&path)
            .expect("fixture invariant holds");
        f.write_all(b"done=").expect("fixture invariant holds");
        drop(f);

        let (_j, done) = Journal::resume(&dir, geometry).expect("fixture invariant holds");
        assert_eq!(done, vec![0, 1]);

        // A different geometry invalidates the journal entirely.
        let (_j, done) =
            Journal::resume(&dir, "3:9:4:3:f32:other").expect("fixture invariant holds");
        assert_eq!(done, Vec::<usize>::new());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_remove_deletes_the_file() {
        let dir = tmp_dir("journal-rm");
        let j = Journal::create(&dir, "g").expect("fixture invariant holds");
        assert!(dir.join(JOURNAL).exists());
        j.remove();
        assert!(!dir.join(JOURNAL).exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
