//! A RAM-backed run directory for the `resume` workload.
//!
//! Journal appends, fsyncs and the resume replay all go through the
//! program's own [`Vfs`] seam, so the journal code the benchmark times is
//! the code that ships; only the device underneath is memory. Device fsync
//! latency varies from run to run far more than anything the journal code
//! does, and a benchmark may not write outside its checkout.

use experiments::vfs::{Vfs, VfsFile};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::SystemTime;

type Data = Arc<Mutex<Vec<u8>>>;

/// An in-memory filesystem: a map from path to file bytes. Directories
/// exist implicitly as path prefixes.
#[derive(Debug, Default)]
pub struct RamVfs {
    files: Mutex<BTreeMap<PathBuf, Data>>,
    /// Bytes appended to open files (journal frames).
    appended: Arc<AtomicU64>,
}

impl RamVfs {
    /// Bytes appended through open files so far.
    pub fn bytes_appended(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
    }

    fn files(&self) -> std::sync::MutexGuard<'_, BTreeMap<PathBuf, Data>> {
        self.files.lock().expect("no RamVfs operation panics")
    }
}

#[derive(Debug)]
struct RamFile {
    data: Data,
    appended: Arc<AtomicU64>,
}

impl RamFile {
    fn data(&self) -> std::sync::MutexGuard<'_, Vec<u8>> {
        self.data.lock().expect("no RamVfs operation panics")
    }
}

impl VfsFile for RamFile {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        self.data().extend_from_slice(buf);
        self.appended.fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(())
    }
    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.data()
            .truncate(usize::try_from(len).unwrap_or(usize::MAX));
        Ok(())
    }
    fn len(&mut self) -> io::Result<u64> {
        Ok(self.data().len() as u64)
    }
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, path.display().to_string())
}

impl Vfs for RamVfs {
    fn create_dir_all(&self, _path: &Path) -> io::Result<()> {
        Ok(())
    }
    fn open_write(&self, path: &Path, truncate: bool) -> io::Result<Box<dyn VfsFile>> {
        let data = self.files().entry(path.to_path_buf()).or_default().clone();
        let file = RamFile {
            data,
            appended: self.appended.clone(),
        };
        if truncate {
            file.data().clear();
        }
        Ok(Box::new(file))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let data = self
            .files()
            .get(path)
            .cloned()
            .ok_or_else(|| not_found(path))?;
        let bytes = data.lock().expect("no RamVfs operation panics").clone();
        Ok(bytes)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let data = Arc::new(Mutex::new(bytes.to_vec()));
        self.files().insert(path.to_path_buf(), data);
        Ok(())
    }
    fn create_new(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut files = self.files();
        if files.contains_key(path) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                path.display().to_string(),
            ));
        }
        files.insert(path.to_path_buf(), Arc::new(Mutex::new(bytes.to_vec())));
        Ok(())
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut files = self.files();
        let data = files.remove(from).ok_or_else(|| not_found(from))?;
        files.insert(to.to_path_buf(), data);
        Ok(())
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.files()
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| not_found(path))
    }
    fn exists(&self, path: &Path) -> bool {
        self.files().keys().any(|p| p.starts_with(path))
    }
    fn mtime(&self, path: &Path) -> io::Result<SystemTime> {
        if self.exists(path) {
            Ok(SystemTime::now())
        } else {
            Err(not_found(path))
        }
    }
    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        Ok(self
            .files()
            .keys()
            .filter(|p| p.parent() == Some(path))
            .cloned()
            .collect())
    }
}
