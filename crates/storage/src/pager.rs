//! Backing page stores.
//!
//! A [`PageStore`] persists fixed-size pages addressed by [`PageId`].
//! [`MemStore`] keeps pages in memory (deterministic tests, benchmarks);
//! [`FileStore`] maps pages onto a file so a database survives a process.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use bdbms_common::{BdbmsError, Result};

use crate::crc::crc32;

/// Size of every page in bytes (8 KiB — PostgreSQL's default).
pub const PAGE_SIZE: usize = 8192;

/// Bytes reserved at the end of every page for the CRC-32 checksum
/// trailer.  Page users (the slotted layout, and through it the heap)
/// never touch these bytes; the buffer pool stamps them on every flush
/// and verifies them on every read miss, so a scribbled byte anywhere in
/// a persisted page surfaces as [`bdbms_common::ErrorCode::Corrupt`]
/// instead of being served to queries as garbage rows.
pub const PAGE_TRAILER: usize = 4;

/// Bytes of a page covered by the checksum (everything but the trailer).
pub const PAGE_BODY: usize = PAGE_SIZE - PAGE_TRAILER;

/// The CRC-32 a page's trailer should carry for its current body.
pub fn page_checksum(page: &[u8]) -> u32 {
    debug_assert_eq!(page.len(), PAGE_SIZE);
    crc32(&page[..PAGE_BODY])
}

/// Stamp the checksum trailer (done by the buffer pool before any page
/// write reaches the backing store).
pub fn stamp_page_checksum(page: &mut [u8]) {
    let c = page_checksum(page);
    page[PAGE_BODY..PAGE_SIZE].copy_from_slice(&c.to_le_bytes());
}

/// Does the page's trailer match its body?
///
/// An entirely zeroed page is accepted: that is the state of a page the
/// store allocated but never flushed (e.g. [`FileStore::allocate`]
/// extends the file by length, so the page reads as zeros), and of
/// pre-checksum images.  A zeroed
/// page carries no records, so accepting it serves no garbage — while
/// any single corrupted byte of a *stamped* page fails the match (a flip
/// in the body changes the CRC; a flip in the trailer breaks the stored
/// value; no flip can zero the whole page).
pub fn verify_page_checksum(page: &[u8]) -> bool {
    debug_assert_eq!(page.len(), PAGE_SIZE);
    let stored = u32::from_le_bytes(page[PAGE_BODY..PAGE_SIZE].try_into().unwrap());
    stored == page_checksum(page) || (stored == 0 && page.iter().all(|&b| b == 0))
}

/// Identifies a page within a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pg{}", self.0)
    }
}

/// A store of fixed-size pages.
pub trait PageStore: Send {
    /// Allocate a fresh zeroed page and return its id.
    fn allocate(&mut self) -> Result<PageId>;

    /// Read page `id` into `buf` (exactly [`PAGE_SIZE`] bytes).
    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> Result<()>;

    /// Write `buf` (exactly [`PAGE_SIZE`] bytes) to page `id`.
    fn write_page(&mut self, id: PageId, buf: &[u8]) -> Result<()>;

    /// Number of pages allocated so far.
    fn num_pages(&self) -> u64;

    /// Force written pages to stable storage (no-op for stores without a
    /// durable backing).
    fn sync(&mut self) -> Result<()> {
        Ok(())
    }
}

/// In-memory page store.
#[derive(Default)]
pub struct MemStore {
    pages: Vec<Box<[u8; PAGE_SIZE]>>,
}

impl MemStore {
    /// An empty in-memory store.
    pub fn new() -> Self {
        MemStore::default()
    }
}

impl PageStore for MemStore {
    fn allocate(&mut self) -> Result<PageId> {
        self.pages.push(Box::new([0u8; PAGE_SIZE]));
        Ok(PageId(self.pages.len() as u64 - 1))
    }

    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> Result<()> {
        let page = self
            .pages
            .get(id.0 as usize)
            .ok_or_else(|| BdbmsError::storage(format!("read of unallocated {id}")))?;
        buf.copy_from_slice(&page[..]);
        Ok(())
    }

    fn write_page(&mut self, id: PageId, buf: &[u8]) -> Result<()> {
        let page = self
            .pages
            .get_mut(id.0 as usize)
            .ok_or_else(|| BdbmsError::storage(format!("write of unallocated {id}")))?;
        page.copy_from_slice(buf);
        Ok(())
    }

    fn num_pages(&self) -> u64 {
        self.pages.len() as u64
    }
}

/// File-backed page store; page `i` lives at byte offset `i * PAGE_SIZE`.
pub struct FileStore {
    file: File,
    num_pages: u64,
}

impl FileStore {
    /// Open (or create) a store at `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(BdbmsError::corrupt(format!(
                "page file length {len} is not a multiple of the page size \
                 ({PAGE_SIZE}); the file is truncated or damaged"
            )));
        }
        Ok(FileStore {
            file,
            num_pages: len / PAGE_SIZE as u64,
        })
    }

    /// Create an empty store at `path`, truncating any existing file.
    pub fn create(path: impl AsRef<Path>) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(FileStore { file, num_pages: 0 })
    }
}

impl PageStore for FileStore {
    fn allocate(&mut self) -> Result<PageId> {
        // the file grows by length only: the page reads as zeros until
        // its first (and, from a checkpoint, only) write
        let id = PageId(self.num_pages);
        self.file.set_len((id.0 + 1) * PAGE_SIZE as u64)?;
        self.num_pages += 1;
        Ok(id)
    }

    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> Result<()> {
        if id.0 >= self.num_pages {
            return Err(BdbmsError::storage(format!("read of unallocated {id}")));
        }
        self.file.seek(SeekFrom::Start(id.0 * PAGE_SIZE as u64))?;
        self.file.read_exact(buf)?;
        Ok(())
    }

    fn write_page(&mut self, id: PageId, buf: &[u8]) -> Result<()> {
        if id.0 >= self.num_pages {
            return Err(BdbmsError::storage(format!("write of unallocated {id}")));
        }
        self.file.seek(SeekFrom::Start(id.0 * PAGE_SIZE as u64))?;
        self.file.write_all(buf)?;
        Ok(())
    }

    fn num_pages(&self) -> u64 {
        self.num_pages
    }

    fn sync(&mut self) -> Result<()> {
        self.file.sync_all()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &mut dyn PageStore) {
        let a = store.allocate().unwrap();
        let b = store.allocate().unwrap();
        assert_ne!(a, b);
        assert_eq!(store.num_pages(), 2);

        let mut page = [0u8; PAGE_SIZE];
        page[0] = 0xAB;
        page[PAGE_SIZE - 1] = 0xCD;
        store.write_page(b, &page).unwrap();

        let mut out = [0u8; PAGE_SIZE];
        store.read_page(b, &mut out).unwrap();
        assert_eq!(out[0], 0xAB);
        assert_eq!(out[PAGE_SIZE - 1], 0xCD);

        // page a is still zeroed
        store.read_page(a, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0));

        // unallocated access fails
        assert!(store.read_page(PageId(99), &mut out).is_err());
        assert!(store.write_page(PageId(99), &page).is_err());
    }

    #[test]
    fn mem_store_basics() {
        exercise(&mut MemStore::new());
    }

    #[test]
    fn checksum_stamp_verify_roundtrip() {
        let mut page = vec![0u8; PAGE_SIZE];
        page[17] = 0x5A;
        page[4000] = 0xC3;
        stamp_page_checksum(&mut page);
        assert!(verify_page_checksum(&page));
    }

    #[test]
    fn checksum_catches_any_single_byte_flip_of_a_stamped_page() {
        let mut page = vec![0u8; PAGE_SIZE];
        for (i, b) in page.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        stamp_page_checksum(&mut page);
        assert!(verify_page_checksum(&page));
        // Flip one byte in the body, one in the trailer: both must fail.
        for at in [0, 123, PAGE_BODY - 1, PAGE_BODY, PAGE_SIZE - 1] {
            let mut bad = page.clone();
            bad[at] ^= 0x01;
            assert!(!verify_page_checksum(&bad), "flip at {at} went undetected");
        }
    }

    /// Format pin: the trailer of a fixed-pattern page, as stamped by the
    /// commit that introduced page checksums.
    #[test]
    fn golden_page_trailer_does_not_drift() {
        let mut page = vec![0u8; PAGE_SIZE];
        for (i, b) in page.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        stamp_page_checksum(&mut page);
        assert_eq!(page[PAGE_BODY..], [0xc4, 0x22, 0xe2, 0x5b]);
    }

    #[test]
    fn all_zero_page_passes_as_never_flushed() {
        let page = vec![0u8; PAGE_SIZE];
        assert!(verify_page_checksum(&page));
        // ...but a zero trailer on a non-zero body does not.
        let mut nonzero = page.clone();
        nonzero[9] = 1;
        assert!(!verify_page_checksum(&nonzero));
    }

    /// Allocation only lengthens the file: no byte is written until a
    /// page's first write, so a checkpoint writes each page once.  (The
    /// unwritten range is a hole, which `blocks` shows on the common
    /// Linux filesystems.)
    #[cfg(unix)]
    #[test]
    fn file_store_allocation_writes_no_page() {
        use std::os::unix::fs::MetadataExt;
        let dir = std::env::temp_dir().join(format!("bdbms-alloc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.db");
        let mut fs = FileStore::create(&path).unwrap();
        for _ in 0..4 {
            fs.allocate().unwrap();
        }
        let md = std::fs::metadata(&path).unwrap();
        assert_eq!(md.len(), 4 * PAGE_SIZE as u64);
        assert!(
            md.blocks() * 512 < PAGE_SIZE as u64,
            "{} blocks",
            md.blocks()
        );
        let mut out = [1u8; PAGE_SIZE];
        fs.read_page(PageId(3), &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_store_basics_and_reopen() {
        let dir = std::env::temp_dir().join(format!("bdbms-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.db");
        let _ = std::fs::remove_file(&path);
        {
            let mut fs = FileStore::open(&path).unwrap();
            exercise(&mut fs);
        }
        {
            // reopen and observe persisted pages
            let mut fs = FileStore::open(&path).unwrap();
            assert_eq!(fs.num_pages(), 2);
            let mut out = [0u8; PAGE_SIZE];
            fs.read_page(PageId(1), &mut out).unwrap();
            assert_eq!(out[0], 0xAB);
        }
        let _ = std::fs::remove_file(&path);
    }
}
