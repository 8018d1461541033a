//! Flat main memory with a bump allocator.

use std::fmt;

/// Byte-addressed main memory.
///
/// All multi-byte accesses are little-endian. Out-of-range accesses panic —
/// the simulator treats them as fatal program errors (there is no MMU in the
/// modelled embedded platform).
#[derive(Clone)]
pub struct Ram {
    bytes: Vec<u8>,
    brk: u32,
}

impl fmt::Debug for Ram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ram")
            .field("size", &self.bytes.len())
            .field("brk", &self.brk)
            .finish()
    }
}

impl Ram {
    /// Creates a zero-initialised memory of `size` bytes.
    #[must_use]
    pub fn new(size: u32) -> Self {
        Ram {
            bytes: vec![0; size as usize],
            // Address 0 is reserved so that 0 can serve as a null pointer.
            brk: 64,
        }
    }

    /// Memory size in bytes.
    #[must_use]
    pub fn size(&self) -> u32 {
        self.bytes.len() as u32
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
        base
    }

    /// Loads one byte.
    #[must_use]
    #[inline]
    pub fn load8(&self, addr: u32) -> u8 {
        self.bytes[addr as usize]
    }

    /// Loads a 16-bit little-endian value.
    #[must_use]
    #[inline]
    pub fn load16(&self, addr: u32) -> u16 {
        let a = addr as usize;
        u16::from_le_bytes([self.bytes[a], self.bytes[a + 1]])
    }

    /// Loads a 32-bit little-endian value.
    #[must_use]
    #[inline]
    pub fn load32(&self, addr: u32) -> u32 {
        let a = addr as usize;
        u32::from_le_bytes([
            self.bytes[a],
            self.bytes[a + 1],
            self.bytes[a + 2],
            self.bytes[a + 3],
        ])
    }

    /// Stores one byte.
    #[inline]
    pub fn store8(&mut self, addr: u32, v: u8) {
        self.bytes[addr as usize] = v;
    }

    /// Stores a 16-bit little-endian value.
    #[inline]
    pub fn store16(&mut self, addr: u32, v: u16) {
        self.bytes[addr as usize..addr as usize + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Stores a 32-bit little-endian value.
    #[inline]
    pub fn store32(&mut self, addr: u32, v: u32) {
        self.bytes[addr as usize..addr as usize + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Copies a byte slice into memory at `addr`.
    pub fn write_bytes(&mut self, addr: u32, data: &[u8]) {
        self.bytes[addr as usize..addr as usize + data.len()].copy_from_slice(data);
    }

    /// Reads `len` bytes starting at `addr`.
    #[must_use]
    #[inline]
    pub fn read_bytes(&self, addr: u32, len: u32) -> &[u8] {
        &self.bytes[addr as usize..(addr + len) as usize]
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
        assert_eq!(ram.read_bytes(100, 5), &[1, 2, 3, 4, 5]);
    }
}
