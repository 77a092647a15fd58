//! Minimal little-endian binary codec used by every on-disk format.
//!
//! All DFOGraph file formats (edge chunks, dispatch graphs, filter lists,
//! checkpoint metadata, message files) frame their contents with explicit
//! little-endian integers written through these helpers, so the formats stay
//! readable without any serialization framework.

use std::io::{self, Read, Write};

/// Writes a `u64` little-endian.
#[inline]
pub fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Writes a `u32` little-endian.
#[inline]
pub fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Reads a `u64` little-endian.
#[inline]
pub fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Reads a `u32` little-endian.
#[inline]
pub fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

/// Fills `buf` completely, or returns `Ok(false)` if the stream was already
/// at EOF. A partial fill followed by EOF is an error (truncated file).
pub fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("truncated record: got {filled} of {} bytes", buf.len()),
                ));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Writes a length-prefixed byte string.
pub fn write_bytes<W: Write>(w: &mut W, b: &[u8]) -> io::Result<()> {
    write_u64(w, b.len() as u64)?;
    w.write_all(b)
}

/// Reads a length-prefixed byte string written by [`write_bytes`].
pub fn read_bytes<R: Read>(r: &mut R) -> io::Result<Vec<u8>> {
    // allocate as the bytes arrive, not up front from an untrusted prefix
    let len = read_u64(r)?;
    let mut buf = Vec::new();
    r.take(len).read_to_end(&mut buf)?;
    if (buf.len() as u64) < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("length prefix {len} but only {} bytes follow", buf.len()),
        ));
    }
    Ok(buf)
}

/// Writes a length-prefixed UTF-8 string.
pub fn write_str<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    write_bytes(w, s.as_bytes())
}

/// Reads a string written by [`write_str`].
pub fn read_str<R: Read>(r: &mut R) -> io::Result<String> {
    let b = read_bytes(r)?;
    String::from_utf8(b).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip_ints() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX - 1).unwrap();
        write_u32(&mut buf, 0xabcd_1234).unwrap();
        let mut c = Cursor::new(buf);
        assert_eq!(read_u64(&mut c).unwrap(), u64::MAX - 1);
        assert_eq!(read_u32(&mut c).unwrap(), 0xabcd_1234);
    }

    #[test]
    fn roundtrip_strings() {
        let mut buf = Vec::new();
        write_str(&mut buf, "dispatch/p3_b7.dcsr").unwrap();
        write_str(&mut buf, "").unwrap();
        let mut c = Cursor::new(buf);
        assert_eq!(read_str(&mut c).unwrap(), "dispatch/p3_b7.dcsr");
        assert_eq!(read_str(&mut c).unwrap(), "");
    }

    #[test]
    fn eof_detection() {
        let data = vec![1u8, 2, 3, 4];
        let mut c = Cursor::new(data);
        let mut buf = [0u8; 4];
        assert!(read_exact_or_eof(&mut c, &mut buf).unwrap());
        assert_eq!(buf, [1, 2, 3, 4]);
        assert!(!read_exact_or_eof(&mut c, &mut buf).unwrap());
    }

    #[test]
    fn huge_length_prefix_is_an_error_not_an_allocation() {
        let mut data = u64::MAX.to_le_bytes().to_vec();
        data.extend_from_slice(&[1, 2, 3]);
        let err = read_bytes(&mut Cursor::new(&data)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(read_str(&mut Cursor::new(&data)).is_err());
    }

    #[test]
    fn truncated_record_is_error() {
        let data = vec![1u8, 2, 3];
        let mut c = Cursor::new(data);
        let mut buf = [0u8; 4];
        assert!(read_exact_or_eof(&mut c, &mut buf).is_err());
    }
}
