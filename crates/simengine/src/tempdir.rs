//! Unique, self-cleaning scratch directories.
//!
//! Checkpointing runs (elastic training, fault replay, the metered demo)
//! need a directory of their own. Keying it by process id alone is not
//! enough: the default test harness runs tests on parallel threads of one
//! process, and two runs sharing a directory delete it under each other.
//! [`TempDir`] adds a process-wide counter to the name and removes the
//! directory when dropped.

use std::io;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// A fresh directory under [`std::env::temp_dir`], removed with its
/// contents on drop. Derefs to its [`Path`].
///
/// ```
/// use dt_simengine::TempDir;
///
/// let a = TempDir::new("dt-doc").unwrap();
/// let b = TempDir::new("dt-doc").unwrap();
/// assert_ne!(a.to_path_buf(), b.to_path_buf(), "one directory per call");
/// std::fs::write(a.join("f"), b"x").unwrap();
/// let kept = a.to_path_buf();
/// drop(a);
/// assert!(!kept.exists());
/// ```
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create `<temp>/<tag>-<pid>-<n>`, where `n` counts calls in this
    /// process, so no two live `TempDir`s ever share a directory. A stale
    /// directory of the same name (left by a crashed process whose pid was
    /// recycled) is cleared first.
    pub fn new(tag: &str) -> io::Result<TempDir> {
        let n = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }
}

impl Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.path
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
