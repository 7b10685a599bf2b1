//! Durable directories in anonymous tmpfs files: the benchmark's stand-in
//! for a RAM-backed tmpfs such as `/dev/shm`, which it may not write to
//! (it keeps inside its checkout).  Every file is a `memfd_create` file — a
//! tmpfs file with no name — so its bytes live in shared memory as on
//! `/dev/shm`: reads and writes are system calls, fsync is tmpfs's no-op,
//! and the bytes are not part of the process's resident set, so
//! `peak_rss_mb` counts the program's memory and not the stored files.  The
//! service's journal and snapshot code run unchanged over it, through the
//! same `Storage` seam the chaos tests use.  Only the ownership lock files
//! are named files (one per directory path), because
//! `Storage::lock_exclusive` hands back a `std::fs::File`.
//!
//! A sealed directory refuses new files.  A restarted service whose
//! checkpoint has been timed is sealed before it is dropped, so its shutdown
//! skips a second, untimed snapshot write (shutdown checkpoints are best
//! effort and their errors are ignored).

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::ffi::{c_char, c_int, c_uint};
use std::fs::File;
use std::hash::{Hash, Hasher};
use std::io::{self, Read, Write};
use std::os::fd::FromRawFd;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use templar_service::storage::StorageRead;
use templar_service::{Storage, StorageFile};

extern "C" {
    fn memfd_create(name: *const c_char, flags: c_uint) -> c_int;
}

const MFD_CLOEXEC: c_uint = 1;

/// A new, empty anonymous tmpfs file.
fn anonymous_file() -> io::Result<File> {
    // SAFETY: the name is a NUL-terminated literal that outlives the call.
    let fd = unsafe { memfd_create(c"perfbench".as_ptr(), MFD_CLOEXEC) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: a non-negative return is a fresh descriptor owned by nobody
    // else.
    Ok(unsafe { File::from_raw_fd(fd) })
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("memory storage lock poisoned")
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, path.display().to_string())
}

#[derive(Debug)]
pub struct MemStorage {
    files: Mutex<BTreeMap<PathBuf, Arc<File>>>,
    dirs: Mutex<BTreeSet<PathBuf>>,
    sealed: Mutex<BTreeSet<PathBuf>>,
    /// The real directory for the lock files, under `.bench_work/` of the
    /// directory the benchmark was started from; removed on drop.
    lock_dir: PathBuf,
}

impl MemStorage {
    pub fn new(run: &str) -> Arc<MemStorage> {
        let lock_dir = Path::new(".bench_work").join(format!("{run}-{}", std::process::id()));
        std::fs::create_dir_all(&lock_dir).expect("create the lock directory");
        Arc::new(MemStorage {
            files: Mutex::default(),
            dirs: Mutex::default(),
            sealed: Mutex::default(),
            lock_dir,
        })
    }

    /// Copy every file under `from` to the same name under `to`.
    pub fn copy_dir(&self, from: &Path, to: &Path) {
        let sources: Vec<(PathBuf, Arc<File>)> = lock(&self.files)
            .iter()
            .filter_map(|(path, file)| {
                let rest = path.strip_prefix(from).ok()?;
                Some((to.join(rest), Arc::clone(file)))
            })
            .collect();
        let mut chunk = vec![0u8; 1 << 18];
        for (path, source) in sources {
            if let Some(parent) = path.parent() {
                self.create_dir_all(parent)
                    .expect("memory mkdir cannot fail");
            }
            let copy = anonymous_file().expect("create a memory file");
            let mut at = 0u64;
            loop {
                let n = source.read_at(&mut chunk, at).expect("read a memory file");
                if n == 0 {
                    break;
                }
                copy.write_all_at(&chunk[..n], at)
                    .expect("write a memory file");
                at += n as u64;
            }
            lock(&self.files).insert(path, Arc::new(copy));
        }
    }

    /// Forget every file and directory under `root`.
    pub fn remove_dir_all(&self, root: &Path) {
        lock(&self.files).retain(|path, _| !path.starts_with(root));
        lock(&self.dirs).retain(|path| !path.starts_with(root));
        lock(&self.sealed).retain(|path| !path.starts_with(root));
    }

    /// Refuse new files under `dir` from now on.
    pub fn seal(&self, dir: &Path) {
        lock(&self.sealed).insert(dir.to_path_buf());
    }

    fn file(&self, path: &Path) -> io::Result<Arc<File>> {
        lock(&self.files)
            .get(path)
            .cloned()
            .ok_or_else(|| not_found(path))
    }
}

/// An open file: the shared tmpfs file and this handle's own cursor.
#[derive(Debug)]
struct MemFile {
    file: Arc<File>,
    pos: u64,
}

impl Write for MemFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.file.write_at(buf, self.pos)?;
        self.pos += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl StorageFile for MemFile {
    fn sync_data(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn sync_all(&mut self) -> io::Result<()> {
        self.file.sync_all()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }

    fn seek_start(&mut self, pos: u64) -> io::Result<()> {
        self.pos = pos;
        Ok(())
    }
}

impl Read for MemFile {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.file.read_at(buf, self.pos)?;
        self.pos += n as u64;
        Ok(n)
    }
}

impl StorageRead for MemFile {}

impl Drop for MemStorage {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.lock_dir).ok();
        if let Some(parent) = self.lock_dir.parent() {
            // Only succeeds once no other run still uses the directory.
            std::fs::remove_dir(parent).ok();
        }
    }
}

impl Storage for MemStorage {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut dirs = lock(&self.dirs);
        for dir in path.ancestors() {
            dirs.insert(dir.to_path_buf());
        }
        Ok(())
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        if lock(&self.sealed).iter().any(|dir| path.starts_with(dir)) {
            return Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                format!("{} is sealed", path.display()),
            ));
        }
        let file = Arc::new(anonymous_file()?);
        lock(&self.files).insert(path.to_path_buf(), Arc::clone(&file));
        Ok(Box::new(MemFile { file, pos: 0 }))
    }

    fn open_write(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        Ok(Box::new(MemFile {
            file: self.file(path)?,
            pos: 0,
        }))
    }

    fn open_read(&self, path: &Path) -> io::Result<Box<dyn StorageRead>> {
        Ok(Box::new(MemFile {
            file: self.file(path)?,
            pos: 0,
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let file = self.file(path)?;
        let mut bytes = vec![0u8; file.metadata()?.len() as usize];
        file.read_exact_at(&mut bytes, 0)?;
        Ok(bytes)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<String>> {
        if !lock(&self.dirs).contains(path) {
            return Err(not_found(path));
        }
        let in_dir = |p: &PathBuf| p.parent() == Some(path);
        let name = |p: &PathBuf| p.file_name().map(|n| n.to_string_lossy().into_owned());
        let mut names: Vec<String> = lock(&self.files)
            .keys()
            .filter(|p| in_dir(p))
            .filter_map(name)
            .collect();
        names.extend(
            lock(&self.dirs)
                .iter()
                .filter(|p| in_dir(p))
                .filter_map(name),
        );
        Ok(names)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut files = lock(&self.files);
        let file = files.remove(from).ok_or_else(|| not_found(from))?;
        files.insert(to.to_path_buf(), file);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        lock(&self.files)
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| not_found(path))
    }

    fn sync_dir(&self, _path: &Path) -> io::Result<()> {
        Ok(())
    }

    fn lock_exclusive(&self, path: &Path) -> io::Result<File> {
        let mut hasher = DefaultHasher::new();
        path.hash(&mut hasher);
        let file = File::create(self.lock_dir.join(format!("{:016x}.lock", hasher.finish())))?;
        file.try_lock()
            .map_err(|_| io::Error::from(io::ErrorKind::WouldBlock))?;
        Ok(file)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        Ok(self.file(path)?.metadata()?.len())
    }

    fn exists(&self, path: &Path) -> bool {
        lock(&self.files).contains_key(path) || lock(&self.dirs).contains(path)
    }
}
