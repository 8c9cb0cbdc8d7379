//! Plain-text and binary edge-list I/O.
//!
//! The CLI and the benchmark harness exchange graphs as whitespace-separated
//! edge lists (`u v` per line, `#`-prefixed comments ignored), the de-facto
//! format of the network repository the paper draws its real-world graphs
//! from.  Reading applies the same clean-up the paper describes: directed
//! duplicates, self-loops and multi-edges are dropped.
//!
//! For machine-to-machine exchange — the `gesmc-serve` HTTP service under
//! `Accept: application/octet-stream`, its disk spills, the out-of-core
//! store, bulk sample archives — there is also a compact binary encoding,
//! `GESMCEL1`: a magic header plus fixed-width little-endian words, 8 bytes
//! per edge ([`Edge::to_le_bytes`]), no escaping and no parsing ambiguity.
//! This module is the only code that knows its layout and its rules.
//! [`BinaryEdgeListReader`] is its one decoder; [`write_edges_binary`] and
//! [`BinaryEdgeListWriter`] are its encoders.  The reader validates the
//! header and every edge, and [`read_edge_list_binary`] caps its
//! allocations by the bytes actually present (like the engine's `GESMCKP1`
//! checkpoint parser), so a forged edge count cannot trigger an
//! out-of-memory abort.

use crate::edge::{Edge, Node};
use crate::edge_list::{EdgeListGraph, GraphError};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::path::Path;

/// Errors raised while parsing an edge list.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line could not be parsed as two node ids.
    Parse {
        /// 1-based line number.
        line: usize,
        /// The offending content.
        content: String,
    },
    /// A binary edge list is malformed (bad magic, truncated payload, or
    /// violated simple-graph invariants).
    Binary(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Parse { line, content } => write!(f, "cannot parse line {line}: {content:?}"),
            IoError::Binary(msg) => write!(f, "binary edge list: {msg}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Parse an edge list from a reader.
///
/// Node ids may be arbitrary `u32` values; the graph's node count is
/// `max id + 1`.  Self-loops and duplicate edges are silently dropped
/// (mirroring the paper's NetRep preprocessing).
pub fn read_edge_list<R: Read>(reader: R) -> Result<EdgeListGraph, IoError> {
    let reader = BufReader::new(reader);
    let mut pairs: Vec<(Node, Node)> = Vec::new();
    let mut max_node: Node = 0;
    let mut saw_any = false;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let parse = |tok: Option<&str>| -> Option<Node> { tok.and_then(|t| t.parse().ok()) };
        match (parse(it.next()), parse(it.next())) {
            (Some(a), Some(b)) => {
                max_node = max_node.max(a).max(b);
                saw_any = true;
                pairs.push((a, b));
            }
            _ => {
                return Err(IoError::Parse { line: idx + 1, content: trimmed.to_string() });
            }
        }
    }
    let n = if saw_any { max_node as usize + 1 } else { 0 };
    Ok(EdgeListGraph::from_pairs_dedup(n, pairs))
}

/// Read an edge list from a file path.
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<EdgeListGraph, IoError> {
    let file = std::fs::File::open(path)?;
    read_edge_list(file)
}

/// Write the `edges` of a graph over `num_nodes` nodes as a plain edge list
/// (`u v` per line, after a `# nodes n edges m` comment).
pub fn write_edges<W: Write>(writer: W, num_nodes: usize, edges: &[Edge]) -> std::io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# nodes {num_nodes} edges {}", edges.len())?;
    // Each line is formatted backwards into a buffer that holds two `u32`s,
    // a space and a newline, without `writeln!`'s formatting machinery.
    let mut line = [0u8; 22];
    line[21] = b'\n';
    for e in edges {
        let space = put_decimal(&mut line[..21], e.v()) - 1;
        line[space] = b' ';
        let start = put_decimal(&mut line[..space], e.u());
        w.write_all(&line[start..])?;
    }
    w.flush()
}

/// Write `x` in decimal at the end of `buf`; returns where its digits start.
fn put_decimal(buf: &mut [u8], mut x: u32) -> usize {
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            return start;
        }
    }
}

/// Write a graph as a plain edge list ([`write_edges`]).
pub fn write_edge_list<W: Write>(writer: W, graph: &EdgeListGraph) -> std::io::Result<()> {
    write_edges(writer, graph.num_nodes(), graph.edges())
}

/// Write a graph to a file path.
pub fn write_edge_list_file<P: AsRef<Path>>(path: P, graph: &EdgeListGraph) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    write_edge_list(file, graph)
}

/// Magic header of the binary edge-list encoding (version 1).
pub const BINARY_MAGIC: &[u8; 8] = b"GESMCEL1";
/// Bytes of the binary encoding's header: magic, node count, edge count.
pub const HEADER_BYTES: usize = 24;
/// Bytes of one edge record of the binary encoding ([`Edge::to_le_bytes`]).
pub const EDGE_BYTES: usize = 8;

/// The header of a binary edge list over `num_nodes` nodes and `num_edges`
/// edges.
fn binary_header(num_nodes: u64, num_edges: u64) -> [u8; HEADER_BYTES] {
    let mut header = [0u8; HEADER_BYTES];
    header[..8].copy_from_slice(BINARY_MAGIC);
    header[8..16].copy_from_slice(&num_nodes.to_le_bytes());
    header[16..].copy_from_slice(&num_edges.to_le_bytes());
    header
}

/// The per-edge rules of the binary encoding: no self-loop, and both
/// endpoints below the header's `num_nodes`.  `index` is the edge's slot.
/// The reader and [`BinaryEdgeListWriter::push`] both apply them.
#[inline]
fn check_edge(edge: Edge, index: u64, num_nodes: u64) -> Result<(), IoError> {
    let error = if edge.is_loop() {
        GraphError::SelfLoop(edge)
    } else if u64::from(edge.v()) >= num_nodes {
        GraphError::NodeOutOfRange { edge, nodes: num_nodes as usize }
    } else {
        return Ok(());
    };
    Err(IoError::Binary(format!("invalid graph: {error} (edge {index})")))
}

/// The header's node count must fit `u32` node ids.
fn check_node_count(num_nodes: u64) -> Result<(), IoError> {
    if num_nodes > u64::from(u32::MAX) + 1 {
        return Err(IoError::Binary(format!("implausible node count {num_nodes}")));
    }
    Ok(())
}

fn truncated_payload(num_edges: u64, have: u64) -> IoError {
    IoError::Binary(format!(
        "truncated payload: header claims {num_edges} edges, data ends at edge {have}"
    ))
}

fn trailing_bytes() -> IoError {
    IoError::Binary("trailing bytes after the edge payload".to_string())
}

/// Write the `edges` of a graph over `num_nodes` nodes in the compact
/// binary encoding.
///
/// Layout (all integers little-endian, no padding):
///
/// ```text
/// magic      8  b"GESMCEL1"
/// num_nodes  8  u64
/// num_edges  8  u64
/// edges    m×8  (u32 u, u32 v) per edge, slot order preserved
/// ```
///
/// The fixed-width layout makes the size exactly `24 + 8·m` bytes and keeps
/// encoding/decoding allocation-free per edge (no varints to branch on); a
/// graph round-trips through [`read_edge_list_binary`] with its edge *order*
/// intact, not just its edge set.  The edges are written as given:
/// [`BinaryEdgeListWriter`] is the encoder that checks them.
pub fn write_edges_binary<W: Write>(
    writer: W,
    num_nodes: usize,
    edges: &[Edge],
) -> std::io::Result<()> {
    let mut w = BufWriter::new(writer);
    w.write_all(&binary_header(num_nodes as u64, edges.len() as u64))?;
    for e in edges {
        w.write_all(&e.to_le_bytes())?;
    }
    w.flush()
}

/// Write a graph in the compact binary encoding ([`write_edges_binary`]).
pub fn write_edge_list_binary<W: Write>(writer: W, graph: &EdgeListGraph) -> std::io::Result<()> {
    write_edges_binary(writer, graph.num_nodes(), graph.edges())
}

/// The streaming decoder of the binary encoding, in three steps:
/// [`new`](Self::new) checks the header, [`next_edge`](Self::next_edge)
/// decodes and checks one edge at a time, and its `None` after the last
/// edge comes only once the input is known to end there.
///
/// The edges are checked one by one (no self-loop, endpoints below the
/// node count), so duplicates pass: [`read_edge_list_binary`] rejects them
/// where it builds a graph.
#[derive(Debug)]
pub struct BinaryEdgeListReader<R> {
    input: R,
    num_nodes: u64,
    num_edges: u64,
    read: u64,
    /// Whole records read ahead, and the offset of the next one.
    chunk: Vec<u8>,
    at: usize,
}

impl BinaryEdgeListReader<File> {
    /// Open a binary edge-list file.  A regular file's length must be the
    /// one its header declares.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, IoError> {
        let file = File::open(path)?;
        let meta = file.metadata()?;
        Self::new(file, meta.is_file().then_some(meta.len()))
    }
}

impl<R: Read> BinaryEdgeListReader<R> {
    /// Records read ahead at a time (64 KiB).
    const CHUNK_EDGES: u64 = 1 << 13;

    /// Read and check the header of `input`.  When the input's byte length
    /// `len` is known, it must be exactly `24 + 8·m`: a truncated payload or
    /// trailing bytes fail here, before any edge is read.
    pub fn new(mut input: R, len: Option<u64>) -> Result<Self, IoError> {
        let truncated_header = || IoError::Binary("truncated header (need 24 bytes)".to_string());
        if len.is_some_and(|len| len < HEADER_BYTES as u64) {
            return Err(truncated_header());
        }
        let mut header = [0u8; HEADER_BYTES];
        input.read_exact(&mut header).map_err(|e| match e.kind() {
            ErrorKind::UnexpectedEof => truncated_header(),
            _ => IoError::Io(e),
        })?;
        if &header[..8] != BINARY_MAGIC {
            return Err(IoError::Binary(format!(
                "bad magic {:?} (expected {:?})",
                &header[..8],
                BINARY_MAGIC
            )));
        }
        let num_nodes = u64::from_le_bytes(header[8..16].try_into().expect("length checked"));
        let num_edges = u64::from_le_bytes(header[16..].try_into().expect("length checked"));
        check_node_count(num_nodes)?;
        if let Some(len) = len {
            let expected = num_edges
                .checked_mul(EDGE_BYTES as u64)
                .and_then(|bytes| bytes.checked_add(HEADER_BYTES as u64))
                .ok_or_else(|| IoError::Binary(format!("implausible edge count {num_edges}")))?;
            if len < expected {
                let have = (len - HEADER_BYTES as u64) / EDGE_BYTES as u64;
                return Err(truncated_payload(num_edges, have));
            }
            if len > expected {
                return Err(trailing_bytes());
            }
        }
        Ok(Self { input, num_nodes, num_edges, read: 0, chunk: Vec::new(), at: 0 })
    }

    /// The node count of the header.
    pub fn num_nodes(&self) -> u64 {
        self.num_nodes
    }

    /// The edge count of the header.
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// The next edge in slot order, checked against the header; `None`
    /// after the last one, once the input has ended there.
    #[inline]
    pub fn next_edge(&mut self) -> Result<Option<Edge>, IoError> {
        if self.at == self.chunk.len() {
            if self.read == self.num_edges {
                return match self.input.read(&mut [0u8; 1])? {
                    0 => Ok(None),
                    _ => Err(trailing_bytes()),
                };
            }
            self.refill()?;
        }
        let record = self.chunk[self.at..self.at + EDGE_BYTES].try_into().expect("whole records");
        self.at += EDGE_BYTES;
        let edge = Edge::from_le_bytes(record);
        check_edge(edge, self.read, self.num_nodes)?;
        self.read += 1;
        Ok(Some(edge))
    }

    /// Read ahead the whole records of the next chunk; none left before the
    /// header's count is reached is a truncated payload.
    fn refill(&mut self) -> Result<(), IoError> {
        let want = (self.num_edges - self.read).min(Self::CHUNK_EDGES) as usize * EDGE_BYTES;
        self.chunk.resize(want, 0);
        let mut filled = 0;
        while filled < want {
            match self.input.read(&mut self.chunk[filled..]) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(IoError::Io(e)),
            }
        }
        self.chunk.truncate(filled - filled % EDGE_BYTES);
        self.at = 0;
        if self.chunk.is_empty() {
            return Err(truncated_payload(self.num_edges, self.read));
        }
        Ok(())
    }

    /// Read the remaining edges.  The vector grows as the bytes arrive, so a
    /// forged edge count cannot make it allocate more than the input backs.
    pub fn read_edges(&mut self) -> Result<Vec<Edge>, IoError> {
        let mut edges = Vec::with_capacity((self.num_edges - self.read).min(1 << 16) as usize);
        while let Some(edge) = self.next_edge()? {
            edges.push(edge);
        }
        Ok(edges)
    }

    /// Read the remaining edges into a graph, which rejects duplicates.
    fn read_graph(mut self) -> Result<EdgeListGraph, IoError> {
        let edges = self.read_edges()?;
        EdgeListGraph::new(self.num_nodes as usize, edges)
            .map_err(|e| IoError::Binary(format!("invalid graph: {e}")))
    }
}

/// Read a graph from the binary encoding of [`write_edge_list_binary`].
///
/// Fails with [`IoError::Binary`] on a bad magic, a truncated payload,
/// trailing garbage, or edges violating the simple-graph invariants
/// (self-loops, duplicates, endpoints `>= num_nodes`).
pub fn read_edge_list_binary<R: Read>(reader: R) -> Result<EdgeListGraph, IoError> {
    BinaryEdgeListReader::new(reader, None)?.read_graph()
}

/// Write a graph to a file in the binary encoding.
pub fn write_edge_list_binary_file<P: AsRef<Path>>(
    path: P,
    graph: &EdgeListGraph,
) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    write_edge_list_binary(file, graph)
}

/// Read a binary edge-list file ([`BinaryEdgeListReader::open`], then as
/// [`read_edge_list_binary`]).
pub fn read_edge_list_binary_file<P: AsRef<Path>>(path: P) -> Result<EdgeListGraph, IoError> {
    BinaryEdgeListReader::open(path)?.read_graph()
}

/// Whether a file starts with `magic`; a shorter file does not.
pub fn file_starts_with<P: AsRef<Path>>(path: P, magic: &[u8; 8]) -> std::io::Result<bool> {
    let mut head = [0u8; 8];
    match File::open(path)?.read_exact(&mut head) {
        Ok(()) => Ok(&head == magic),
        Err(e) if e.kind() == ErrorKind::UnexpectedEof => Ok(false),
        Err(e) => Err(e),
    }
}

/// Whether a file starts with the [`BINARY_MAGIC`] header (i.e. is a
/// `GESMCEL1` binary edge list rather than a plain-text one).
pub fn is_binary_edge_list_file<P: AsRef<Path>>(path: P) -> std::io::Result<bool> {
    file_starts_with(path, BINARY_MAGIC)
}

/// Incremental writer of the binary `GESMCEL1` encoding.
///
/// Writes edges one at a time in bounded buffers, so a graph never has to be
/// materialized to be serialised — the out-of-core generators and the
/// external-memory engine stream through this.  The edge count of the header
/// is unknown upfront; [`BinaryEdgeListWriter::finish`] patches it in place
/// before the fsync, then atomically renames the sibling temp file over the
/// destination (the same `write(tmp)→fsync→rename` discipline as the engine's
/// checkpoint writer), so readers only ever observe complete files.
///
/// Dropping the writer without calling `finish` removes the temp file.
#[derive(Debug)]
pub struct BinaryEdgeListWriter {
    file: Option<std::fs::File>,
    buf: Vec<u8>,
    tmp: std::path::PathBuf,
    path: std::path::PathBuf,
    num_nodes: u64,
    written: u64,
}

impl BinaryEdgeListWriter {
    /// Buffered bytes before a write syscall (8192 edges).
    const BUF_BYTES: usize = 1 << 16;

    /// Start writing a binary edge list for a graph over `num_nodes` nodes.
    ///
    /// The header is written immediately with a zero edge count; the real
    /// count is patched by [`BinaryEdgeListWriter::finish`].
    pub fn create<P: AsRef<Path>>(path: P, num_nodes: u64) -> Result<Self, IoError> {
        let path = path.as_ref().to_path_buf();
        check_node_count(num_nodes)?;
        let file_name = path
            .file_name()
            .ok_or_else(|| IoError::Binary(format!("{} has no file name", path.display())))?;
        let mut tmp_name = file_name.to_os_string();
        tmp_name.push(".tmp");
        let tmp = path.with_file_name(tmp_name);
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&binary_header(num_nodes, 0))?;
        Ok(Self {
            file: Some(file),
            buf: Vec::with_capacity(Self::BUF_BYTES),
            tmp,
            path,
            num_nodes,
            written: 0,
        })
    }

    /// Number of edges pushed so far.
    pub fn edges_written(&self) -> u64 {
        self.written
    }

    /// Append one edge (validated against self-loops and the node range).
    pub fn push(&mut self, edge: Edge) -> Result<(), IoError> {
        check_edge(edge, self.written, self.num_nodes)?;
        self.buf.extend_from_slice(&edge.to_le_bytes());
        self.written += 1;
        if self.buf.len() >= Self::BUF_BYTES {
            self.flush_buf()?;
        }
        Ok(())
    }

    fn flush_buf(&mut self) -> Result<(), IoError> {
        if !self.buf.is_empty() {
            self.file.as_mut().expect("file present until finish").write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Flush, patch the header's edge count, fsync, and atomically rename
    /// into place.  Returns the number of edges written.
    pub fn finish(mut self) -> Result<u64, IoError> {
        use std::io::{Seek, SeekFrom};
        self.flush_buf()?;
        let mut file = self.file.take().expect("finish runs once");
        file.seek(SeekFrom::Start(16))?;
        file.write_all(&self.written.to_le_bytes())?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&self.tmp, &self.path)?;
        if let Some(parent) = self.path.parent().filter(|p| !p.as_os_str().is_empty()) {
            if let Ok(dir) = std::fs::File::open(parent) {
                let _ = dir.sync_all();
            }
        }
        Ok(self.written)
    }
}

impl Drop for BinaryEdgeListWriter {
    fn drop(&mut self) {
        if self.file.take().is_some() {
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::Edge;

    #[test]
    fn roundtrip() {
        let g =
            EdgeListGraph::new(5, vec![Edge::new(0, 1), Edge::new(1, 4), Edge::new(2, 3)]).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&mut buf, &g).unwrap();
        let parsed = read_edge_list(&buf[..]).unwrap();
        assert_eq!(parsed.canonical_edges(), g.canonical_edges());
        assert_eq!(parsed.num_nodes(), 5);
    }

    #[test]
    fn text_lines_match_a_format_reference_byte_for_byte() {
        let ends = [0, 1, 9, 10, 99, 100, 12_345, 1 << 28, u32::MAX - 1, u32::MAX];
        let edges: Vec<Edge> = ends
            .iter()
            .flat_map(|&u| ends.iter().filter(move |&&v| v != u).map(move |&v| Edge::new(u, v)))
            .collect();
        let mut written = Vec::new();
        write_edges(&mut written, 7, &edges).unwrap();
        let mut expected = format!("# nodes 7 edges {}\n", edges.len());
        for e in &edges {
            expected += &format!("{} {}\n", e.u(), e.v());
        }
        assert_eq!(String::from_utf8(written).unwrap(), expected);
    }

    #[test]
    fn parses_comments_loops_and_duplicates() {
        let input = "# a comment\n% another\n0 1\n1 0\n2 2\n\n1 3\n";
        let g = read_edge_list(input.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_nodes(), 4);
        assert!(g.has_edge_slow(0, 1));
        assert!(g.has_edge_slow(1, 3));
    }

    #[test]
    fn reports_parse_errors_with_line_numbers() {
        let input = "0 1\nnot an edge\n";
        match read_edge_list(input.as_bytes()) {
            Err(IoError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let g = read_edge_list("".as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    fn binary_bytes(g: &EdgeListGraph) -> Vec<u8> {
        let mut buf = Vec::new();
        write_edge_list_binary(&mut buf, g).unwrap();
        buf
    }

    #[test]
    fn binary_roundtrip_preserves_edge_order_and_size() {
        let g =
            EdgeListGraph::new(6, vec![Edge::new(4, 1), Edge::new(0, 5), Edge::new(2, 3)]).unwrap();
        let buf = binary_bytes(&g);
        assert_eq!(buf.len(), 24 + 8 * 3, "fixed-width layout: 24 header + 8 per edge");
        assert_eq!(&buf[0..8], BINARY_MAGIC);
        let parsed = read_edge_list_binary(&buf[..]).unwrap();
        assert_eq!(parsed.num_nodes(), 6);
        // Slot order survives, not just the canonical set.
        assert_eq!(parsed.edges(), g.edges());
        // Reads that return 3 bytes at a time decode the same.
        struct Dribble<'a>(&'a [u8]);
        impl Read for Dribble<'_> {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                let n = out.len().min(3);
                self.0.read(&mut out[..n])
            }
        }
        assert_eq!(read_edge_list_binary(Dribble(&buf)).unwrap().edges(), g.edges());
        let cut = &buf[..buf.len() - 4];
        assert!(matches!(read_edge_list_binary(Dribble(cut)),
            Err(IoError::Binary(m)) if m.ends_with("data ends at edge 2")));
    }

    #[test]
    fn binary_empty_graph_roundtrips() {
        let g = EdgeListGraph::new(0, vec![]).unwrap();
        let parsed = read_edge_list_binary(&binary_bytes(&g)[..]).unwrap();
        assert_eq!(parsed.num_nodes(), 0);
        assert_eq!(parsed.num_edges(), 0);
    }

    #[test]
    fn binary_rejects_malformed_input() {
        let g = EdgeListGraph::new(3, vec![Edge::new(0, 1), Edge::new(1, 2)]).unwrap();
        let good = binary_bytes(&g);

        let expect_binary_err = |bytes: &[u8], needle: &str| match read_edge_list_binary(bytes) {
            Err(IoError::Binary(msg)) => {
                assert!(msg.contains(needle), "message {msg:?} lacks {needle:?}")
            }
            other => panic!("expected Binary error containing {needle:?}, got {other:?}"),
        };

        expect_binary_err(b"GESMCEL1", "truncated header");
        expect_binary_err(b"NOTMAGIC\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0", "bad magic");
        // Truncated payload: chop the last edge in half.
        expect_binary_err(&good[..good.len() - 4], "truncated payload");
        // Trailing garbage after the declared payload.
        let mut padded = good.clone();
        padded.push(0xFF);
        expect_binary_err(&padded, "trailing bytes");
        // A forged edge count far beyond the payload fails cleanly (and
        // cannot allocate more than the bytes present back).
        let mut forged = good.clone();
        forged[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        expect_binary_err(&forged, "truncated payload");
        // Where the length is known (files, the out-of-core store), the
        // same count fails up front: its byte length overflows.
        match BinaryEdgeListReader::new(&forged[..], Some(forged.len() as u64)) {
            Err(IoError::Binary(msg)) => assert!(msg.contains("implausible edge count"), "{msg}"),
            other => panic!("expected an implausible edge count, got {other:?}"),
        }
        // A node count beyond u32 node ids.
        let mut big_n = good.clone();
        big_n[8..16].copy_from_slice(&(u64::from(u32::MAX) + 2).to_le_bytes());
        expect_binary_err(&big_n, "implausible node count");
        // A self-loop in the payload.
        let mut looped = good.clone();
        looped[24..32].copy_from_slice(&[2, 0, 0, 0, 2, 0, 0, 0]);
        expect_binary_err(&looped, "self-loop");
        // An endpoint outside [0, n).
        let mut out_of_range = good;
        out_of_range[24..32].copy_from_slice(&[0, 0, 0, 0, 9, 0, 0, 0]);
        expect_binary_err(&out_of_range, "invalid graph");
    }

    #[test]
    fn streaming_writer_is_byte_identical_to_the_in_memory_encoder() {
        let g =
            EdgeListGraph::new(6, vec![Edge::new(4, 1), Edge::new(0, 5), Edge::new(2, 3)]).unwrap();
        let dir = std::env::temp_dir().join("gesmc-io-stream-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.el");

        let mut w = BinaryEdgeListWriter::create(&path, g.num_nodes() as u64).unwrap();
        for &e in g.edges() {
            w.push(e).unwrap();
        }
        assert_eq!(w.edges_written(), 3);
        assert_eq!(w.finish().unwrap(), 3);

        assert_eq!(std::fs::read(&path).unwrap(), binary_bytes(&g));
        assert!(is_binary_edge_list_file(&path).unwrap());
        let parsed = read_edge_list_binary_file(&path).unwrap();
        assert_eq!(parsed.edges(), g.edges());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streaming_writer_validates_and_cleans_up_on_abort() {
        let dir = std::env::temp_dir().join("gesmc-io-stream-abort-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.el");

        let mut w = BinaryEdgeListWriter::create(&path, 4).unwrap();
        assert!(
            matches!(w.push(Edge::new(2, 2)), Err(IoError::Binary(m)) if m.contains("self-loop"))
        );
        assert!(
            matches!(w.push(Edge::new(0, 9)), Err(IoError::Binary(m)) if m.contains("outside"))
        );
        drop(w);
        // Neither the destination nor the temp file survives an abort.
        assert!(std::fs::read_dir(&dir).unwrap().next().is_none());
        assert!(is_binary_edge_list_file(dir.join("missing.el")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn magic_sniffing_distinguishes_text_files() {
        let dir = std::env::temp_dir().join("gesmc-io-sniff-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let text = dir.join("g.txt");
        std::fs::write(&text, "0 1\n").unwrap();
        assert!(!is_binary_edge_list_file(&text).unwrap());
        let short = dir.join("short.el");
        std::fs::write(&short, "abc").unwrap();
        assert!(!is_binary_edge_list_file(&short).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    mod binary_proptests {
        use super::*;
        use crate::gen::gnp;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn binary_roundtrip(seed in 0u64..64, n in 2usize..40, density in 1u32..30) {
                let mut rng = gesmc_randx::rng_from_seed(seed);
                let g = gnp(&mut rng, n, f64::from(density) / 100.0);
                let buf = {
                    let mut buf = Vec::new();
                    write_edge_list_binary(&mut buf, &g).unwrap();
                    buf
                };
                prop_assert_eq!(buf.len(), 24 + 8 * g.num_edges());
                let parsed = read_edge_list_binary(&buf[..]).unwrap();
                prop_assert_eq!(parsed.num_nodes(), g.num_nodes());
                prop_assert_eq!(parsed.edges(), g.edges());
                prop_assert_eq!(parsed.canonical_edges(), g.canonical_edges());
            }
        }
    }
}
