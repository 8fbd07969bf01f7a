//! A compacting receive buffer: zero-copy frame decode without the
//! per-batch memmove.
//!
//! The first server kept one `Vec<u8>` per connection and called
//! `buf.drain(..consumed)` after every read batch — an O(buffered bytes)
//! memmove per batch, paid even when every frame decoded cleanly. This
//! buffer instead tracks a consumed offset: [`RecvBuf::consume`] is
//! pointer arithmetic, frames decode zero-copy out of
//! [`RecvBuf::data`], and bytes only move when a *partial* frame must be
//! compacted to the front to make room for its remainder — amortized
//! O(1) per frame, and the moved region is at most one frame, not the
//! whole backlog.

use std::io::Read;

/// Initial buffer size; grows geometrically up to [`RECV_BUF_MAX`] when
/// a frame spans reads.
const RECV_BUF_INIT: usize = 16 * 1024;

/// Growth ceiling: one maximum wire frame (1 MiB body + 4-byte prefix)
/// plus batching headroom. A well-formed frame always fits; an oversize
/// length prefix is rejected by the decoder long before this bound.
pub const RECV_BUF_MAX: usize = (1 << 20) + 64 * 1024;

/// Compacting receive buffer for one connection.
pub struct RecvBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Default for RecvBuf {
    fn default() -> Self {
        Self::new()
    }
}

impl RecvBuf {
    /// An empty buffer with the standard initial capacity.
    pub fn new() -> RecvBuf {
        RecvBuf {
            buf: vec![0; RECV_BUF_INIT],
            start: 0,
            end: 0,
        }
    }

    /// The unconsumed bytes: decode frames from the front of this slice.
    pub fn data(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Marks `n` bytes (a decoded frame) consumed. O(1): no bytes move.
    pub fn consume(&mut self, n: usize) {
        self.start += n;
        debug_assert!(self.start <= self.end);
        if self.start == self.end {
            // Fully drained: rewind for free instead of compacting later.
            self.start = 0;
            self.end = 0;
        }
    }

    /// Bytes currently buffered (a partial frame, between batches).
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Free bytes behind the buffered data. Non-zero right after a
    /// [`RecvBuf::fill`] means the read came up short of the space it
    /// was offered: the source has nothing more to give for now, and a
    /// non-blocking reader can stop without probing for `WouldBlock`.
    pub fn spare(&self) -> usize {
        self.buf.len() - self.end
    }

    /// Makes room to read more bytes: first by compacting the (at most
    /// one-frame) unconsumed tail to the front, then by growing up to
    /// [`RECV_BUF_MAX`]. Returns `false` if the buffer is full at the
    /// ceiling — impossible for well-formed traffic, since the decoder
    /// rejects oversize length prefixes before the buffer fills.
    fn ensure_space(&mut self) -> bool {
        if self.end < self.buf.len() {
            return true;
        }
        if self.start > 0 {
            // Move only the leftover partial frame, not the whole backlog.
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            return true;
        }
        if self.buf.len() >= RECV_BUF_MAX {
            return false;
        }
        let new_len = (self.buf.len() * 2).min(RECV_BUF_MAX);
        self.buf.resize(new_len, 0);
        true
    }

    /// Reads once from `src` into the free tail. Returns the byte count
    /// exactly as `Read::read` does (`Ok(0)` = EOF, `WouldBlock` =
    /// nothing pending on a non-blocking source).
    pub fn fill<R: Read>(&mut self, src: &mut R) -> std::io::Result<usize> {
        if !self.ensure_space() {
            // Can only happen if a decoder let an oversize frame through.
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "frame exceeds receive buffer ceiling",
            ));
        }
        let n = src.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consume_is_offset_arithmetic_and_rewinds_when_drained() {
        let mut b = RecvBuf::new();
        let mut src: &[u8] = b"abcdefgh";
        assert_eq!(b.fill(&mut src).expect("fill"), 8);
        assert_eq!(b.data(), b"abcdefgh");
        b.consume(3);
        assert_eq!(b.data(), b"defgh");
        b.consume(5);
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        // Fully drained rewinds to offset 0 without any copy.
        assert_eq!((b.start, b.end), (0, 0));
    }

    #[test]
    fn partial_frame_survives_compaction_and_growth() {
        let mut b = RecvBuf::new();
        // Fill the initial capacity exactly, consume most of it, leaving
        // a "partial frame" tail that must be preserved across refills.
        let payload: Vec<u8> = (0..RECV_BUF_INIT).map(|i| (i % 251) as u8).collect();
        let mut src: &[u8] = &payload;
        while b.end < RECV_BUF_INIT {
            b.fill(&mut src).expect("fill");
        }
        let tail: Vec<u8> = b.data()[RECV_BUF_INIT - 10..].to_vec();
        b.consume(RECV_BUF_INIT - 10);
        // Buffer is full (end == len) with 10 live bytes: next fill must
        // compact, then keep reading.
        let mut more: &[u8] = b"0123456789";
        assert_eq!(b.fill(&mut more).expect("fill"), 10);
        assert_eq!(&b.data()[..10], &tail[..]);
        assert_eq!(&b.data()[10..], b"0123456789");

        // Growth: never consumed, keeps doubling up to the ceiling.
        let big = vec![7u8; RECV_BUF_MAX];
        let mut src: &[u8] = &big;
        loop {
            match b.fill(&mut src) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
                    break;
                }
            }
        }
        assert!(b.len() <= RECV_BUF_MAX);
    }

    #[test]
    fn decode_zero_copy_across_split_frames() {
        // A frame split across two reads decodes once complete, borrowing
        // straight out of the buffer.
        let mut frame = Vec::new();
        crate::frame::encode_request(&mut frame, 9, 1, 500, b"payload");
        let (a, bpart) = frame.split_at(frame.len() / 2);
        let mut b = RecvBuf::new();
        let mut src: &[u8] = a;
        b.fill(&mut src).expect("fill");
        assert!(matches!(crate::frame::decode(b.data()), Ok(None)));
        let mut src: &[u8] = bpart;
        b.fill(&mut src).expect("fill");
        let (f, consumed) = crate::frame::decode(b.data())
            .expect("well-formed")
            .expect("complete");
        match f {
            crate::frame::Frame::Request(r) => {
                assert_eq!(r.id, 9);
                assert_eq!(r.payload, b"payload");
            }
            other => panic!("expected request, got {other:?}"),
        }
        b.consume(consumed);
        assert!(b.is_empty());
    }
}
