//! The `VirtualDisk` read interface and an in-memory backend.

/// Anything a cache can read from. Reads never fail: out-of-range
/// bytes are zero (sparse semantics, matching the dataset layer).
pub trait VirtualDisk {
    /// Fill `buf` with bytes at `offset`.
    fn read_at(&mut self, offset: u64, buf: &mut [u8]);

    /// Virtual size in bytes.
    fn len(&self) -> u64;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An in-memory disk.
#[derive(Clone, Debug, Default)]
pub struct MemDisk {
    pub data: Vec<u8>,
}

impl MemDisk {
    pub fn new(data: Vec<u8>) -> Self {
        MemDisk { data }
    }
}

impl VirtualDisk for MemDisk {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) {
        buf.fill(0);
        let n = self.data.len() as u64;
        if offset >= n {
            return;
        }
        let end = (offset + buf.len() as u64).min(n);
        buf[..(end - offset) as usize].copy_from_slice(&self.data[offset as usize..end as usize]);
    }

    fn len(&self) -> u64 {
        self.data.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_disk_roundtrip_and_tail_zero() {
        let mut d = MemDisk::new(vec![1, 2, 3, 4]);
        let mut buf = vec![0xff; 6];
        d.read_at(2, &mut buf);
        assert_eq!(buf, vec![3, 4, 0, 0, 0, 0]);
    }
}
