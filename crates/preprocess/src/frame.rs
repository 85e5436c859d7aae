//! The shared length-prefix frame codec.
//!
//! One implementation of the workspace's wire framing, used by both
//! halves of the data plane (`crate::wire`, the §5.1 producer/consumer
//! protocol) and by the `dt-serve` planner daemon's request/response
//! protocol. Classic length-delimited framing, implemented synchronously:
//! every frame is a 4-byte little-endian length followed by that many
//! payload bytes. Control messages are JSON (small, debuggable); bulk
//! byte payloads travel as separate raw frames so they are never
//! base64-inflated.
//!
//! ```text
//! frame:        [u32 LE length][length payload bytes]
//! traced frame: [u32 LE (16+length) | TRACE_FLAG][16-byte TraceContext][payload]
//! ```
//!
//! The length header is *untrusted input* everywhere this codec is used
//! (a hostile or corrupt peer can claim anything), so [`read_frame`]
//! never allocates eagerly from the header: the payload buffer starts at
//! [`FRAME_READ_CHUNK`] and at most doubles each time the bytes already
//! arrived fill it, capped at the frame length, and a header above
//! [`MAX_FRAME`] is rejected outright as protocol corruption.
//!
//! ## Trace-context extension
//!
//! A frame may carry a request-scoped [`TraceContext`] (trace id + parent
//! span id) ahead of its payload. The context rides *inside* the frame:
//! bit 31 of the length word — unreachable by honest lengths, since
//! [`MAX_FRAME`] is `1 << 30` — marks the first [`TRACE_CONTEXT_LEN`]
//! payload bytes as the context. The scheme is byte-compatible in every
//! direction that matters:
//!
//! * an **untraced writer** (or a traced writer with tracing disabled,
//!   `ctx == None`) produces exactly the classic encoding — zero wire
//!   overhead, zero allocation;
//! * a **trace-aware reader** ([`read_frame_ctx`]) accepts both flavours
//!   and returns `None` for the context on plain frames;
//! * a **legacy reader** ([`read_frame`]) sees a flagged length as
//!   oversized and fails with the same typed `InvalidData` it already
//!   uses for corrupt headers — a graceful, never-panicking close, which
//!   is the most an extension an old peer cannot understand can offer.

use dt_simengine::json::Json;
use dt_simengine::trace::{TraceContext, TRACE_CONTEXT_LEN};
use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Frames larger than this are rejected as protocol corruption.
pub const MAX_FRAME: u32 = 1 << 30;

/// Length-word bit marking a frame whose payload is prefixed by an
/// encoded [`TraceContext`].
pub const TRACE_FLAG: u32 = 1 << 31;

/// How much payload [`read_frame`] buffers per read step — and therefore
/// the most memory a corrupt length header can cost before the stream
/// proves it actually carries that many bytes.
pub const FRAME_READ_CHUNK: usize = 64 * 1024;

/// Control messages that can travel as JSON frames.
pub trait WireJson: Sized {
    /// Encode into a JSON value.
    fn to_json(&self) -> Json;
    /// Decode from a JSON value.
    fn from_json(value: &Json) -> Result<Self, String>;
}

/// Write one frame: the length word and the payload leave in one
/// vectored write. Two writes would let Nagle's algorithm hold the
/// payload back until the peer's delayed ACK of the length word (a
/// ≈40 ms floor on Linux) on any socket without [`set_nodelay`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    if len > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "frame too large"));
    }
    write_vectored_all(w, &[&len.to_le_bytes(), payload])
}

/// Read one frame.
///
/// The length header is untrusted input: a corrupt 4-byte prefix can
/// claim anything up to [`MAX_FRAME`] (1 GiB), so the payload buffer is
/// grown as bytes actually arrive, never allocated eagerly from the
/// header. A truncated or corrupt stream errors with
/// [`io::ErrorKind::UnexpectedEof`] after buffering at most twice the
/// bytes it really sent (or one chunk).
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut head = [0u8; 4];
    r.read_exact(&mut head)?;
    let len = u32::from_le_bytes(head);
    if len > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "oversized frame"));
    }
    read_payload(r, len as usize)
}

/// Hostile-safe payload read shared by [`read_frame`] and
/// [`read_frame_ctx`]: the buffer starts at one [`FRAME_READ_CHUNK`] and
/// doubles only once the bytes that arrived fill it, never past `len` —
/// so an honest frame ends in exactly `len` bytes of capacity, and no
/// allocation is more than twice the bytes received (or one chunk).
fn read_payload(r: &mut impl Read, len: usize) -> io::Result<Vec<u8>> {
    let mut payload: Vec<u8> = Vec::with_capacity(len.min(FRAME_READ_CHUNK));
    while payload.len() < len {
        let filled = payload.len();
        if filled == payload.capacity() {
            payload.reserve_exact((2 * filled).min(len) - filled);
        }
        payload.resize(payload.capacity().min(len), 0);
        r.read_exact(&mut payload[filled..])?;
    }
    Ok(payload)
}

/// Write one frame, optionally prefixed by a trace context. `ctx == None`
/// produces bytes identical to [`write_frame`] — the untraced path stays
/// free (no flag, no extra bytes). Either way the frame leaves in one
/// vectored write.
pub fn write_frame_ctx(
    w: &mut impl Write,
    ctx: Option<&TraceContext>,
    payload: &[u8],
) -> io::Result<()> {
    let Some(ctx) = ctx else { return write_frame(w, payload) };
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME - TRACE_CONTEXT_LEN as u32)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    let word = (len + TRACE_CONTEXT_LEN as u32) | TRACE_FLAG;
    let mut head = [0u8; 4 + TRACE_CONTEXT_LEN];
    head[..4].copy_from_slice(&word.to_le_bytes());
    head[4..].copy_from_slice(&ctx.encode());
    write_vectored_all(w, &[&head, payload])
}

/// Turn off Nagle's algorithm on an RPC socket. Every frame protocol in
/// the workspace is request/response, so a small write must leave at
/// once instead of waiting for the ACK of the previous one. Called on
/// both ends of every connection: the consumer's connect and the
/// producer's accept, the `dt-serve` client's connect and the daemon's
/// accept.
pub fn set_nodelay(stream: &TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)
}

/// Read one frame that may carry a trace context. Plain frames come back
/// with `None`; flagged frames decode their leading
/// [`TRACE_CONTEXT_LEN`] bytes. Hostile input — a flagged length shorter
/// than a context, an oversized length, an all-zero (invalid) context, a
/// stream that ends mid-context — fails with a typed `InvalidData` /
/// `UnexpectedEof`, never a panic, and never an eager allocation from the
/// untrusted header.
pub fn read_frame_ctx(r: &mut impl Read) -> io::Result<(Option<TraceContext>, Vec<u8>)> {
    let mut head = [0u8; 4];
    r.read_exact(&mut head)?;
    let word = u32::from_le_bytes(head);
    if word & TRACE_FLAG == 0 {
        if word > MAX_FRAME {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "oversized frame"));
        }
        return Ok((None, read_payload(r, word as usize)?));
    }
    let len = word & !TRACE_FLAG;
    if len > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "oversized frame"));
    }
    if (len as usize) < TRACE_CONTEXT_LEN {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "truncated trace context"));
    }
    let mut ctx_bytes = [0u8; TRACE_CONTEXT_LEN];
    r.read_exact(&mut ctx_bytes)?;
    let ctx = TraceContext::decode(&ctx_bytes)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "invalid trace context"))?;
    let payload = read_payload(r, len as usize - TRACE_CONTEXT_LEN)?;
    Ok((Some(ctx), payload))
}

/// Write every byte of `parts` as one logical stream via vectored I/O,
/// handling partial writes. The slices are never copied into a staging
/// buffer — the kernel gathers them directly (`writev`), which is what
/// lets the producer ship a header frame plus a multi-chunk payload frame
/// without ever materializing their concatenation.
pub fn write_vectored_all(w: &mut impl Write, parts: &[&[u8]]) -> io::Result<()> {
    let total: usize = parts.iter().map(|p| p.len()).sum();
    let mut written = 0usize;
    while written < total {
        // Rebuild the remaining-slice view past `written` bytes. O(parts)
        // per syscall; parts is small (one header + one slice per sample).
        let mut slices: Vec<io::IoSlice<'_>> = Vec::with_capacity(parts.len());
        let mut skip = written;
        for p in parts {
            if skip >= p.len() {
                skip -= p.len();
            } else {
                slices.push(io::IoSlice::new(&p[skip..]));
                skip = 0;
            }
        }
        match w.write_vectored(&slices) {
            Ok(0) => {
                return Err(io::Error::new(io::ErrorKind::WriteZero, "vectored write stalled"))
            }
            Ok(n) => written += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Coalesce one response — a JSON header frame plus a raw payload frame
/// whose body is the concatenation of `payload_chunks` — into a single
/// vectored write:
///
/// ```text
/// [u32 LE header len][header][u32 LE Σchunk len][chunk 0]…[chunk n-1]
/// ```
///
/// Byte-identical on the wire to `write_json` + `write_frame` over the
/// concatenated payload, but with zero payload copies and one syscall
/// instead of four.
pub fn write_batch_frames(
    w: &mut impl Write,
    header: &[u8],
    payload_chunks: &[&[u8]],
) -> io::Result<()> {
    let oversized = |_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large");
    let header_len = u32::try_from(header.len()).map_err(oversized)?;
    let payload_len =
        u32::try_from(payload_chunks.iter().map(|c| c.len()).sum::<usize>()).map_err(oversized)?;
    if header_len > MAX_FRAME || payload_len > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "frame too large"));
    }
    let header_head = header_len.to_le_bytes();
    let payload_head = payload_len.to_le_bytes();
    let mut parts: Vec<&[u8]> = Vec::with_capacity(3 + payload_chunks.len());
    parts.push(&header_head);
    parts.push(header);
    parts.push(&payload_head);
    parts.extend(payload_chunks.iter().copied());
    write_vectored_all(w, &parts)
}

/// [`write_batch_frames`] with an optional trace context on the header
/// frame (the bulk payload frame is never flagged — the context scopes
/// the whole response). `ctx == None` is byte-identical to
/// [`write_batch_frames`].
pub fn write_batch_frames_ctx(
    w: &mut impl Write,
    ctx: Option<&TraceContext>,
    header: &[u8],
    payload_chunks: &[&[u8]],
) -> io::Result<()> {
    let Some(ctx) = ctx else { return write_batch_frames(w, header, payload_chunks) };
    let oversized = |_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large");
    let header_len = u32::try_from(header.len()).map_err(oversized)?;
    let payload_len =
        u32::try_from(payload_chunks.iter().map(|c| c.len()).sum::<usize>()).map_err(oversized)?;
    if header_len > MAX_FRAME - TRACE_CONTEXT_LEN as u32 || payload_len > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "frame too large"));
    }
    let ctx_bytes = ctx.encode();
    let header_head = ((header_len + TRACE_CONTEXT_LEN as u32) | TRACE_FLAG).to_le_bytes();
    let payload_head = payload_len.to_le_bytes();
    let mut parts: Vec<&[u8]> = Vec::with_capacity(4 + payload_chunks.len());
    parts.push(&header_head);
    parts.push(&ctx_bytes);
    parts.push(header);
    parts.push(&payload_head);
    parts.extend(payload_chunks.iter().copied());
    write_vectored_all(w, &parts)
}

/// Write a JSON control message as one frame.
pub fn write_json<T: WireJson>(w: &mut impl Write, msg: &T) -> io::Result<()> {
    write_frame(w, msg.to_json().to_string().as_bytes())
}

/// Read a JSON control message from one frame.
pub fn read_json<T: WireJson>(r: &mut impl Read) -> io::Result<T> {
    let payload = read_frame(r)?;
    decode_json(&payload)
}

/// Write a JSON control message as one frame, with an optional trace
/// context (`None` is byte-identical to [`write_json`]).
pub fn write_json_ctx<T: WireJson>(
    w: &mut impl Write,
    ctx: Option<&TraceContext>,
    msg: &T,
) -> io::Result<()> {
    write_frame_ctx(w, ctx, msg.to_json().to_string().as_bytes())
}

/// Read a JSON control message from one frame that may carry a trace
/// context.
pub fn read_json_ctx<T: WireJson>(r: &mut impl Read) -> io::Result<(Option<TraceContext>, T)> {
    let (ctx, payload) = read_frame_ctx(r)?;
    Ok((ctx, decode_json(&payload)?))
}

fn decode_json<T: WireJson>(payload: &[u8]) -> io::Result<T> {
    let text =
        std::str::from_utf8(payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let value = Json::parse(text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    T::from_json(&value).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &[7u8; 1000]).unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(read_frame(&mut cur).unwrap(), b"hello");
        assert_eq!(read_frame(&mut cur).unwrap(), b"");
        assert_eq!(read_frame(&mut cur).unwrap(), vec![7u8; 1000]);
    }

    #[test]
    fn truncated_frame_errors_cleanly() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut cur = Cursor::new(buf);
        assert!(read_frame(&mut cur).is_err());
    }

    #[test]
    fn oversized_length_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        let mut cur = Cursor::new(buf);
        let err = read_frame(&mut cur).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// Regression: a corrupt header claiming a huge frame over a stream
    /// that then ends must error with `UnexpectedEof` — the old eager
    /// `vec![0u8; len]` ballooned to the claimed size before reading a
    /// single payload byte (the allocation bound itself is pinned by the
    /// counting-allocator test in `tests/wire_alloc.rs`).
    #[test]
    fn corrupt_length_header_errors_cleanly() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAX_FRAME.to_le_bytes()); // claims 1 GiB
        buf.extend_from_slice(&[7u8; 100]); // …but carries 100 bytes
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn multi_chunk_frame_round_trips() {
        let payload: Vec<u8> = (0..3 * FRAME_READ_CHUNK + 17).map(|i| i as u8).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        assert_eq!(read_frame(&mut Cursor::new(buf)).unwrap(), payload);
    }

    #[test]
    fn large_frame_capacity_is_exactly_its_length() {
        // 3.5 chunks: the buffer doubles 1 → 2 chunks, then stops at the
        // frame's length instead of doubling again to 4.
        let payload: Vec<u8> = (0..7 * FRAME_READ_CHUNK / 2).map(|i| (i * 13) as u8).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let got = read_frame(&mut Cursor::new(buf)).unwrap();
        assert_eq!(got, payload);
        assert_eq!(got.capacity(), payload.len());
    }

    #[test]
    fn batch_frames_match_the_unbatched_encoding_byte_for_byte() {
        let header = br#"{"samples":[],"token_lens":[3,0,4]}"#;
        let chunks: [&[u8]; 3] = [b"abc", b"", b"wxyz"];
        let mut coalesced = Vec::new();
        write_batch_frames(&mut coalesced, header, &chunks).unwrap();
        let mut reference = Vec::new();
        write_frame(&mut reference, header).unwrap();
        write_frame(&mut reference, &chunks.concat()).unwrap();
        assert_eq!(coalesced, reference, "coalescing must not change the wire bytes");
        // And it reads back as two ordinary frames.
        let mut cur = Cursor::new(coalesced);
        assert_eq!(read_frame(&mut cur).unwrap(), header);
        assert_eq!(read_frame(&mut cur).unwrap(), b"abcwxyz");
    }

    #[test]
    fn empty_payload_batch_still_frames() {
        let mut buf = Vec::new();
        write_batch_frames(&mut buf, b"hdr", &[]).unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(read_frame(&mut cur).unwrap(), b"hdr");
        assert_eq!(read_frame(&mut cur).unwrap(), b"");
    }

    /// A writer that accepts at most `limit` bytes per call and ignores the
    /// vectored fast path — exercises the partial-write resume logic.
    struct Dribble {
        out: Vec<u8>,
        limit: usize,
    }

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(self.limit);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn vectored_write_survives_partial_writes() {
        let parts: [&[u8]; 4] = [b"alpha", b"", b"beta", b"gamma!"];
        for limit in [1usize, 2, 3, 7, 100] {
            let mut w = Dribble { out: Vec::new(), limit };
            write_vectored_all(&mut w, &parts).unwrap();
            assert_eq!(w.out, b"alphabetagamma!", "limit {limit}");
        }
    }

    fn ctx() -> TraceContext {
        TraceContext { trace_id: 0x1234_5678_9ABC_DEF0, parent_span: 0x42 }
    }

    /// The full traced↔untraced peer matrix at the codec level.
    #[test]
    fn trace_context_peer_matrix() {
        // traced writer → traced reader: context round-trips.
        let mut buf = Vec::new();
        write_frame_ctx(&mut buf, Some(&ctx()), b"payload").unwrap();
        let (got, payload) = read_frame_ctx(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(got, Some(ctx()));
        assert_eq!(payload, b"payload");

        // traced writer, tracing disabled → byte-identical to the classic
        // encoding, so untraced readers interoperate unchanged.
        let mut off = Vec::new();
        write_frame_ctx(&mut off, None, b"payload").unwrap();
        let mut classic = Vec::new();
        write_frame(&mut classic, b"payload").unwrap();
        assert_eq!(off, classic);

        // untraced writer → traced reader: no context, same payload.
        let (got, payload) = read_frame_ctx(&mut Cursor::new(&classic)).unwrap();
        assert_eq!(got, None);
        assert_eq!(payload, b"payload");

        // traced writer → untraced (legacy) reader: typed InvalidData on
        // the flagged length, never a panic.
        let err = read_frame(&mut Cursor::new(&buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn traced_batch_header_matches_framing_and_round_trips() {
        let header = br#"{"token_lens":[3]}"#;
        let chunks: [&[u8]; 2] = [b"abc", b"de"];
        let mut buf = Vec::new();
        write_batch_frames_ctx(&mut buf, Some(&ctx()), header, &chunks).unwrap();
        let mut cur = Cursor::new(&buf);
        let (got, hdr) = read_frame_ctx(&mut cur).unwrap();
        assert_eq!(got, Some(ctx()));
        assert_eq!(hdr, header);
        let (bulk_ctx, bulk) = read_frame_ctx(&mut cur).unwrap();
        assert_eq!(bulk_ctx, None, "bulk frame is never flagged");
        assert_eq!(bulk, b"abcde");

        // ctx == None is byte-identical to the plain batch encoding.
        let mut off = Vec::new();
        write_batch_frames_ctx(&mut off, None, header, &chunks).unwrap();
        let mut classic = Vec::new();
        write_batch_frames(&mut classic, header, &chunks).unwrap();
        assert_eq!(off, classic);
    }

    #[test]
    fn hostile_trace_context_bytes_never_panic() {
        // Flagged length shorter than a context.
        let mut buf = (8u32 | TRACE_FLAG).to_le_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 8]);
        let err = read_frame_ctx(&mut Cursor::new(&buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Flagged length, stream ends mid-context.
        let mut buf = (24u32 | TRACE_FLAG).to_le_bytes().to_vec();
        buf.extend_from_slice(&[1u8; 5]);
        let err = read_frame_ctx(&mut Cursor::new(&buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        // All-zero context bytes (invalid trace id 0).
        let mut buf = (16u32 | TRACE_FLAG).to_le_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 16]);
        let err = read_frame_ctx(&mut Cursor::new(&buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Flagged and oversized.
        let mut buf = ((MAX_FRAME + 1) | TRACE_FLAG).to_le_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 64]);
        let err = read_frame_ctx(&mut Cursor::new(&buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Flagged huge-but-legal length over a stream that ends: the
        // chunked read must bound allocation and fail with UnexpectedEof.
        let mut buf = (MAX_FRAME | TRACE_FLAG).to_le_bytes().to_vec();
        buf.extend_from_slice(&ctx().encode());
        buf.extend_from_slice(&[7u8; 100]);
        let err = read_frame_ctx(&mut Cursor::new(&buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[derive(Debug, PartialEq)]
    struct Msg(u64);

    impl WireJson for Msg {
        fn to_json(&self) -> Json {
            Json::obj(vec![("v", Json::num_u64(self.0))])
        }
        fn from_json(value: &Json) -> Result<Self, String> {
            value.get("v").and_then(Json::as_u64).map(Msg).ok_or("bad".into())
        }
    }

    #[test]
    fn json_ctx_round_trips_both_flavours() {
        let mut buf = Vec::new();
        write_json_ctx(&mut buf, Some(&ctx()), &Msg(7)).unwrap();
        write_json_ctx(&mut buf, None, &Msg(9)).unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(read_json_ctx::<Msg>(&mut cur).unwrap(), (Some(ctx()), Msg(7)));
        assert_eq!(read_json_ctx::<Msg>(&mut cur).unwrap(), (None, Msg(9)));
    }

    /// A writer that takes every byte offered and counts the calls that
    /// offered them — one call is one `write`/`writev` on a socket.
    #[derive(Default)]
    struct Counting {
        out: Vec<u8>,
        calls: usize,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[io::IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let before = self.out.len();
            bufs.iter().for_each(|b| self.out.extend_from_slice(b));
            Ok(self.out.len() - before)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Regression for the delayed-ACK stall: a frame split over two
    /// writes lets Nagle hold its payload until the peer ACKs the length
    /// word. Every frame writer must make exactly one write call.
    #[test]
    fn every_frame_leaves_in_one_write() {
        type FrameWriter = fn(&mut Counting) -> io::Result<()>;
        let writers: [(&str, FrameWriter); 6] = [
            ("write_frame", |w| write_frame(w, b"payload")),
            ("write_frame_ctx(None)", |w| write_frame_ctx(w, None, b"payload")),
            ("write_frame_ctx(Some)", |w| write_frame_ctx(w, Some(&ctx()), b"payload")),
            ("write_json", |w| write_json(w, &Msg(7))),
            ("write_json_ctx(None)", |w| write_json_ctx(w, None, &Msg(7))),
            ("write_json_ctx(Some)", |w| write_json_ctx(w, Some(&ctx()), &Msg(7))),
        ];
        for (name, write) in writers {
            let mut w = Counting::default();
            write(&mut w).unwrap();
            assert_eq!(w.calls, 1, "{name} made {} write calls", w.calls);
            assert!(read_frame_ctx(&mut Cursor::new(&w.out)).is_ok(), "{name} wrote a bad frame");
        }
    }
}
