//! Flat main memory with a bump allocator.

use std::borrow::Cow;
use std::fmt;

/// Byte-addressed main memory.
///
/// All multi-byte accesses are little-endian. Out-of-range accesses panic —
/// the simulator treats them as fatal program errors (there is no MMU in the
/// modelled embedded platform).
///
/// Only the prefix that has been allocated or written is backed by host
/// memory; every address above it reads as zero. A machine's 4 MiB RAM
/// holds a few frame buffers, so backing all of it would make each machine
/// cost up to 4 MiB of resident host memory, and how much of that the host
/// allocator actually touched (a fresh zeroed mapping or a reused, cleared
/// block) varied from one run to the next.
#[derive(Clone)]
pub struct Ram {
    /// Backing store of addresses `0..bytes.len()`.
    bytes: Vec<u8>,
    size: u32,
    brk: u32,
}

impl fmt::Debug for Ram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ram")
            .field("size", &self.size)
            .field("brk", &self.brk)
            .finish()
    }
}

impl Ram {
    /// Creates a zero-initialised memory of `size` bytes.
    #[must_use]
    pub fn new(size: u32) -> Self {
        Ram {
            bytes: Vec::new(),
            size,
            // Address 0 is reserved so that 0 can serve as a null pointer.
            brk: 64,
        }
    }

    /// Memory size in bytes.
    #[must_use]
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Panics unless an access ending just before byte `end` is within
    /// memory.
    fn check_end(&self, end: usize) {
        assert!(
            end <= self.size as usize,
            "access to byte {} of a {}-byte memory",
            end - 1,
            self.size
        );
    }

    /// The byte at `a`, which reads zero above the backed prefix.
    fn byte(&self, a: usize) -> u8 {
        self.bytes.get(a).copied().unwrap_or(0)
    }

    /// Backs addresses up to `end` with host memory (zero-filled).
    #[cold]
    fn back(&mut self, end: usize) {
        self.check_end(end);
        if end > self.bytes.len() {
            self.bytes.resize(end, 0);
        }
    }

    /// The `N` bytes at `addr`, reaching past the backed prefix.
    #[cold]
    fn load_unbacked<const N: usize>(&self, addr: u32) -> [u8; N] {
        let a = addr as usize;
        self.check_end(a + N);
        std::array::from_fn(|i| self.byte(a + i))
    }

    /// Allocates `len` bytes aligned to `align` (a power of two), returning
    /// the base address. The paper aligns frame buffers on 32-byte
    /// boundaries.
    ///
    /// # Panics
    ///
    /// Panics when memory is exhausted or `align` is not a power of two.
    pub fn alloc(&mut self, len: u32, align: u32) -> u32 {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = (self.brk + align - 1) & !(align - 1);
        let end = base
            .checked_add(len)
            .unwrap_or_else(|| panic!("allocation of {len} bytes overflows the address space"));
        assert!(
            end <= self.size(),
            "out of simulated memory: need {end} bytes, have {}",
            self.size()
        );
        self.brk = end;
        // Back the buffer now, so that a simulated run writing into it
        // does not allocate.
        self.back(end as usize);
        base
    }

    /// Loads one byte.
    #[must_use]
    #[inline]
    pub fn load8(&self, addr: u32) -> u8 {
        match self.bytes.get(addr as usize) {
            Some(&b) => b,
            None => self.load_unbacked::<1>(addr)[0],
        }
    }

    /// Loads a 16-bit little-endian value.
    #[must_use]
    #[inline]
    pub fn load16(&self, addr: u32) -> u16 {
        let a = addr as usize;
        match self.bytes.get(a..a + 2) {
            // One bounds check: the indices below are within the slice.
            Some(b) => u16::from_le_bytes([b[0], b[1]]),
            None => u16::from_le_bytes(self.load_unbacked(addr)),
        }
    }

    /// Loads a 32-bit little-endian value.
    #[must_use]
    #[inline]
    pub fn load32(&self, addr: u32) -> u32 {
        let a = addr as usize;
        match self.bytes.get(a..a + 4) {
            // One bounds check: the indices below are within the slice.
            Some(b) => u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
            None => u32::from_le_bytes(self.load_unbacked(addr)),
        }
    }

    /// Stores one byte.
    #[inline]
    pub fn store8(&mut self, addr: u32, v: u8) {
        self.write_bytes(addr, &[v]);
    }

    /// Stores a 16-bit little-endian value.
    #[inline]
    pub fn store16(&mut self, addr: u32, v: u16) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Stores a 32-bit little-endian value.
    #[inline]
    pub fn store32(&mut self, addr: u32, v: u32) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Copies a byte slice into memory at `addr`.
    #[inline]
    pub fn write_bytes(&mut self, addr: u32, data: &[u8]) {
        let (a, end) = (addr as usize, addr as usize + data.len());
        if end > self.bytes.len() {
            self.back(end);
        }
        self.bytes[a..end].copy_from_slice(data);
    }

    /// Reads `len` bytes starting at `addr`: borrowed from the backed
    /// prefix, or a copy when the range reaches past it.
    ///
    /// # Panics
    ///
    /// When the range is past the end of memory.
    #[must_use]
    #[inline]
    pub fn read_bytes(&self, addr: u32, len: u32) -> Cow<'_, [u8]> {
        let (a, end) = (addr as usize, addr as usize + len as usize);
        match self.bytes.get(a..end) {
            Some(b) => Cow::Borrowed(b),
            None => Cow::Owned(self.read_unbacked(a, end)),
        }
    }

    #[cold]
    fn read_unbacked(&self, a: usize, end: usize) -> Vec<u8> {
        self.check_end(end);
        (a..end).map(|i| self.byte(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_respects_alignment() {
        let mut ram = Ram::new(4096);
        let a = ram.alloc(10, 32);
        assert_eq!(a % 32, 0);
        let b = ram.alloc(10, 32);
        assert_eq!(b % 32, 0);
        assert!(b >= a + 10);
    }

    #[test]
    fn alloc_never_returns_null() {
        let mut ram = Ram::new(4096);
        assert_ne!(ram.alloc(1, 1), 0);
    }

    #[test]
    fn little_endian_roundtrip() {
        let mut ram = Ram::new(128);
        ram.store32(64, 0x0403_0201);
        assert_eq!(ram.load8(64), 1);
        assert_eq!(ram.load8(67), 4);
        assert_eq!(ram.load16(64), 0x0201);
        assert_eq!(ram.load32(64), 0x0403_0201);
    }

    #[test]
    #[should_panic(expected = "out of simulated memory")]
    fn alloc_exhaustion_panics() {
        let mut ram = Ram::new(128);
        let _ = ram.alloc(256, 1);
    }

    #[test]
    fn write_read_bytes() {
        let mut ram = Ram::new(256);
        ram.write_bytes(100, &[1, 2, 3, 4, 5]);
        assert_eq!(*ram.read_bytes(100, 5), [1, 2, 3, 4, 5]);
    }

    #[test]
    fn memory_above_the_backed_prefix_reads_zero() {
        let mut ram = Ram::new(256);
        assert_eq!(ram.size(), 256);
        assert_eq!(
            (ram.load8(255), ram.load16(254), ram.load32(252)),
            (0, 0, 0)
        );
        assert_eq!(*ram.read_bytes(200, 56), [0; 56]);
        ram.store16(100, 0x0201);
        // Accesses straddling the end of the backed prefix.
        assert_eq!(ram.load32(100), 0x0201);
        assert_eq!(ram.load16(101), 0x02);
        assert_eq!(*ram.read_bytes(99, 4), [0, 1, 2, 0]);
        let base = ram.alloc(64, 64);
        assert_eq!(ram.load32(base + 60), 0);
        ram.store32(252, 0x0403_0201);
        assert_eq!(ram.load32(252), 0x0403_0201);
        assert_eq!(ram.load8(200), 0);
    }

    #[test]
    #[should_panic(expected = "of a 256-byte memory")]
    fn load_past_the_end_panics() {
        let _ = Ram::new(256).load32(253);
    }

    #[test]
    #[should_panic(expected = "of a 256-byte memory")]
    fn store_past_the_end_panics() {
        Ram::new(256).store16(255, 1);
    }
}
