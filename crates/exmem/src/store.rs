//! `ExternalEdgeStore` — a mutable, disk-backed [`EdgeStore`] with a bounded
//! memory budget.
//!
//! The store owns a *scratch* `GESMCEL1` file and serves slot reads and
//! writes through a small cache of fixed-size chunks (8192 edges = 64 KiB
//! each).  The number of chunks pinned in memory at once is derived from the
//! caller's byte budget (`max(1, budget / 64 KiB)`); everything else lives on
//! disk and is fetched with positioned reads.  Dirty chunks are written back
//! on eviction and on [`EdgeStore::flush`].
//!
//! Deliberately **no memory-mapping here**: a whole-file map counts against
//! the process's virtual address-space limit (`ulimit -v`), which is exactly
//! the resource the out-of-core CI smoke constrains.  Positioned reads keep
//! the address space proportional to the budget, not the graph.
//!
//! Writes go to the scratch file in place (no write-ahead journal): the
//! scratch is a private working copy whose loss on crash simply means
//! restarting from the last checkpoint, the same contract the in-memory
//! engine has.  Durable artifacts (samples, checkpoints) are still written
//! with the workspace's `write(tmp) → fsync → rename` discipline elsewhere.
//!
//! Validation: [`ExternalEdgeStore::create`] streams the input file through
//! `gesmc_graph::io::BinaryEdgeListReader`, the decoder of the heap parser
//! (magic, plausible counts, exact length, no self-loops, endpoints in
//! range).  Duplicate-edge detection needs `O(m)` memory and is
//! intentionally skipped — out-of-core inputs are produced by this
//! workspace's own writers, which never emit duplicates, and the
//! degree-sequence check downstream still holds.

use crate::error::ExmemError;
use gesmc_graph::io::{BinaryEdgeListReader, BinaryEdgeListWriter, EDGE_BYTES, HEADER_BYTES};
use gesmc_graph::{Edge, EdgeStore};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};

/// Edges per cache chunk.
pub const CHUNK_EDGES: usize = 8192;
/// Bytes per cache chunk (64 KiB).
pub const CHUNK_BYTES: usize = CHUNK_EDGES * EDGE_BYTES;

struct Chunk {
    data: Vec<u8>,
    dirty: bool,
    last_used: u64,
}

/// A disk-backed, slot-addressed edge store with a bounded chunk cache.
pub struct ExternalEdgeStore {
    file: File,
    path: PathBuf,
    num_nodes: usize,
    num_edges: usize,
    /// chunk index → cached chunk; never holds more than `max_chunks`.
    cache: HashMap<usize, Chunk>,
    max_chunks: usize,
    clock: u64,
    /// Chunks read from disk into the cache (trace-span annotation fodder).
    chunks_loaded: u64,
    /// Dirty chunks written back to disk (evictions and flushes).
    chunks_written: u64,
}

impl std::fmt::Debug for ExternalEdgeStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExternalEdgeStore")
            .field("path", &self.path)
            .field("num_nodes", &self.num_nodes)
            .field("num_edges", &self.num_edges)
            .field("max_chunks", &self.max_chunks)
            .field("cached", &self.cache.len())
            .finish()
    }
}

impl ExternalEdgeStore {
    /// Stream-copy (and validate) the `GESMCEL1` file at `input` into a
    /// fresh scratch file at `scratch`, then open the scratch read-write
    /// under the given byte budget.
    ///
    /// Memory use is bounded by the copy buffer plus the chunk cache; the
    /// input is never loaded or mapped whole.
    pub fn create<P: AsRef<Path>, Q: AsRef<Path>>(
        input: P,
        scratch: Q,
        memory_budget: usize,
    ) -> Result<Self, ExmemError> {
        let scratch = scratch.as_ref();
        let scratch_failed = |e| ExmemError::Io(format!("scratch {}: {e}", scratch.display()));
        let mut reader = BinaryEdgeListReader::open(input)?;
        let mut writer =
            BinaryEdgeListWriter::create(scratch, reader.num_nodes()).map_err(scratch_failed)?;
        while let Some(edge) = reader.next_edge()? {
            writer.push(edge).map_err(scratch_failed)?;
        }
        writer.finish().map_err(scratch_failed)?;
        Self::adopt(scratch, memory_budget)
    }

    /// Open an existing scratch `GESMCEL1` file read-write under the given
    /// byte budget, trusting its per-edge contents (the header and length
    /// are still validated).
    ///
    /// Used both by [`ExternalEdgeStore::create`] after the validated copy
    /// and by resume paths that have just re-written the scratch from a
    /// checksummed checkpoint.
    pub fn adopt<P: AsRef<Path>>(scratch: P, memory_budget: usize) -> Result<Self, ExmemError> {
        let path = scratch.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| ExmemError::Io(format!("cannot open {}: {e}", path.display())))?;
        let len = file
            .metadata()
            .map_err(|e| ExmemError::Io(format!("cannot stat {}: {e}", path.display())))?
            .len();
        let header = BinaryEdgeListReader::new(&mut file, Some(len))?;
        let (n, m) = (header.num_nodes(), header.num_edges());
        let (Ok(num_nodes), Ok(num_edges)) = (usize::try_from(n), usize::try_from(m)) else {
            return Err(ExmemError::Format(format!("implausible edge count {m}")));
        };
        let max_chunks = (memory_budget / CHUNK_BYTES).max(1);
        Ok(Self {
            file,
            path,
            num_nodes,
            num_edges,
            cache: HashMap::new(),
            max_chunks,
            clock: 0,
            chunks_loaded: 0,
            chunks_written: 0,
        })
    }

    /// Path of the backing scratch file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Maximum number of chunks the cache may pin (≥ 1).
    pub fn max_chunks(&self) -> usize {
        self.max_chunks
    }

    /// Chunk index that holds `slot`.
    fn chunk_of(slot: usize) -> usize {
        slot / CHUNK_EDGES
    }

    fn chunk_len(&self, chunk: usize) -> usize {
        let start = chunk * CHUNK_EDGES;
        let edges = CHUNK_EDGES.min(self.num_edges - start);
        edges * EDGE_BYTES
    }

    fn chunk_offset(chunk: usize) -> u64 {
        (HEADER_BYTES + chunk * CHUNK_BYTES) as u64
    }

    /// Ensure `chunk` is resident, evicting the least-recently-used chunk
    /// (with writeback if dirty) when the cache is full.
    fn load_chunk(&mut self, chunk: usize) -> std::io::Result<()> {
        self.clock += 1;
        if let Some(c) = self.cache.get_mut(&chunk) {
            c.last_used = self.clock;
            return Ok(());
        }
        while self.cache.len() >= self.max_chunks {
            let victim = self
                .cache
                .iter()
                .min_by_key(|(_, c)| c.last_used)
                .map(|(&idx, _)| idx)
                .expect("cache is non-empty");
            let c = self.cache.remove(&victim).expect("victim is cached");
            if c.dirty {
                write_all_at(&self.file, &c.data, Self::chunk_offset(victim))?;
                self.chunks_written += 1;
            }
        }
        let len = self.chunk_len(chunk);
        let mut data = vec![0u8; len];
        read_exact_at(&self.file, &mut data, Self::chunk_offset(chunk))?;
        self.chunks_loaded += 1;
        self.cache.insert(chunk, Chunk { data, dirty: false, last_used: self.clock });
        Ok(())
    }

    fn read_slot(&mut self, slot: usize) -> std::io::Result<Edge> {
        let chunk = Self::chunk_of(slot);
        self.load_chunk(chunk)?;
        let data = &self.cache.get(&chunk).expect("just loaded").data;
        let at = (slot - chunk * CHUNK_EDGES) * EDGE_BYTES;
        Ok(Edge::from_le_bytes(data[at..at + EDGE_BYTES].try_into().expect("length checked")))
    }

    fn write_slot(&mut self, slot: usize, edge: Edge) -> std::io::Result<()> {
        let chunk = Self::chunk_of(slot);
        self.load_chunk(chunk)?;
        let c = self.cache.get_mut(&chunk).expect("just loaded");
        let at = (slot - chunk * CHUNK_EDGES) * EDGE_BYTES;
        c.data[at..at + EDGE_BYTES].copy_from_slice(&edge.to_le_bytes());
        c.dirty = true;
        Ok(())
    }

    fn flush_dirty(&mut self) -> std::io::Result<()> {
        let mut dirty: Vec<usize> =
            self.cache.iter().filter(|(_, c)| c.dirty).map(|(&idx, _)| idx).collect();
        dirty.sort_unstable();
        for idx in dirty {
            let c = self.cache.get_mut(&idx).expect("listed as cached");
            write_all_at(&self.file, &c.data, Self::chunk_offset(idx))?;
            c.dirty = false;
            self.chunks_written += 1;
        }
        Ok(())
    }
}

impl EdgeStore for ExternalEdgeStore {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn num_edges(&self) -> usize {
        self.num_edges
    }

    fn edge(&mut self, slot: usize) -> Edge {
        assert!(slot < self.num_edges, "edge slot {slot} out of bounds ({} edges)", self.num_edges);
        match self.read_slot(slot) {
            Ok(e) => e,
            // The EdgeStore read path has no error channel (chains call it on
            // the hot path); an unreadable scratch file is unrecoverable for
            // the run, so fail loudly with context.
            Err(e) => panic!("external store read of slot {slot} ({}): {e}", self.path.display()),
        }
    }

    fn set_edge(&mut self, slot: usize, edge: Edge) {
        assert!(slot < self.num_edges, "edge slot {slot} out of bounds ({} edges)", self.num_edges);
        if let Err(e) = self.write_slot(slot, edge) {
            panic!("external store write of slot {slot} ({}): {e}", self.path.display());
        }
    }

    fn for_each_edge(&mut self, visit: &mut dyn FnMut(usize, Edge)) {
        // Stream chunk-by-chunk without disturbing the cache: resident
        // (possibly dirty) chunks are authoritative, everything else is read
        // into a transient buffer.
        let mut buf = vec![0u8; CHUNK_BYTES];
        let chunks = self.num_edges.div_ceil(CHUNK_EDGES);
        for chunk in 0..chunks {
            let len = self.chunk_len(chunk);
            let data: &[u8] = if let Some(c) = self.cache.get(&chunk) {
                &c.data
            } else {
                if let Err(e) =
                    read_exact_at(&self.file, &mut buf[..len], Self::chunk_offset(chunk))
                {
                    panic!("external store stream of chunk {chunk} ({}): {e}", self.path.display());
                }
                &buf[..len]
            };
            let base = chunk * CHUNK_EDGES;
            for (i, record) in data.chunks_exact(EDGE_BYTES).enumerate() {
                visit(base + i, Edge::from_le_bytes(record.try_into().expect("exact chunks")));
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.flush_dirty()
    }

    fn io_stats(&self) -> gesmc_graph::StoreIoStats {
        gesmc_graph::StoreIoStats {
            chunks_loaded: self.chunks_loaded,
            chunks_written: self.chunks_written,
        }
    }
}

fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
    }
    #[cfg(not(unix))]
    {
        use std::io::{Read, Seek, SeekFrom};
        let mut f = file;
        f.seek(SeekFrom::Start(offset))?;
        f.read_exact(buf)
    }
}

fn write_all_at(file: &File, buf: &[u8], offset: u64) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        std::os::unix::fs::FileExt::write_all_at(file, buf, offset)
    }
    #[cfg(not(unix))]
    {
        use std::io::{Seek, SeekFrom, Write};
        let mut f = file;
        f.seek(SeekFrom::Start(offset))?;
        f.write_all(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesmc_graph::io::{write_edge_list_binary_file, write_edges_binary};
    use gesmc_graph::EdgeListGraph;
    use rand::Rng;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("gesmc-exmem-store-{name}"))
    }

    fn big_graph(seed: u64, n: u32, m: usize) -> EdgeListGraph {
        let mut rng = gesmc_randx::rng_from_seed(seed);
        gesmc_graph::gen::gnp_with_expected_edges(&mut rng, n as usize, m)
    }

    #[test]
    fn create_validates_and_copies_byte_identically() {
        let g = big_graph(11, 400, 3000);
        let input = temp_path("copy-in.el");
        let scratch = temp_path("copy-scratch.el");
        write_edge_list_binary_file(&input, &g).unwrap();
        let mut store = ExternalEdgeStore::create(&input, &scratch, 1 << 20).unwrap();
        assert_eq!(EdgeStore::num_nodes(&store), g.num_nodes());
        assert_eq!(EdgeStore::num_edges(&store), g.num_edges());
        assert_eq!(std::fs::read(&input).unwrap(), std::fs::read(&scratch).unwrap());
        let copy = store.materialize();
        assert_eq!(copy.edges(), g.edges());
        let _ = std::fs::remove_file(&input);
        let _ = std::fs::remove_file(&scratch);
    }

    #[test]
    fn random_slot_traffic_matches_an_in_memory_model_at_a_one_chunk_budget() {
        let g = big_graph(23, 500, 3 * CHUNK_EDGES + 17);
        let input = temp_path("traffic-in.el");
        let scratch = temp_path("traffic-scratch.el");
        write_edge_list_binary_file(&input, &g).unwrap();
        // Budget below one chunk still pins one chunk — the floor.
        let mut store = ExternalEdgeStore::create(&input, &scratch, 1).unwrap();
        assert_eq!(store.max_chunks(), 1);

        let mut model = g.edges().to_vec();
        let mut rng = gesmc_randx::rng_from_seed(99);
        for _ in 0..20_000 {
            let slot = rng.gen_range(0..model.len());
            if rng.gen::<bool>() {
                let e = Edge::new(rng.gen_range(0..500u32), rng.gen_range(0..500u32));
                if e.is_loop() {
                    continue;
                }
                model[slot] = e;
                store.set_edge(slot, e);
            } else {
                assert_eq!(store.edge(slot), model[slot], "slot {slot}");
            }
        }
        let mut streamed = vec![None; model.len()];
        store.for_each_edge(&mut |i, e| streamed[i] = Some(e));
        for (i, (&m, s)) in model.iter().zip(&streamed).enumerate() {
            assert_eq!(Some(m), *s, "slot {i}");
        }
        // After flush the on-disk payload equals the model exactly (raw
        // bytes: random writes may have produced duplicate edges, which a
        // slot store permits even though the validating reader would not).
        store.flush().unwrap();
        let bytes = std::fs::read(&scratch).unwrap();
        let mut expected = Vec::with_capacity(bytes.len());
        write_edges_binary(&mut expected, 500, &model).unwrap();
        assert_eq!(bytes, expected);
        let _ = std::fs::remove_file(&input);
        let _ = std::fs::remove_file(&scratch);
    }

    #[test]
    fn create_rejects_corrupt_inputs() {
        let g = big_graph(7, 100, 300);
        let mut bytes = Vec::new();
        gesmc_graph::io::write_edge_list_binary(&mut bytes, &g).unwrap();
        let input = temp_path("bad-in.el");
        let scratch = temp_path("bad-scratch.el");

        let expect = |bytes: &[u8], needle: &str| {
            std::fs::write(&input, bytes).unwrap();
            match ExternalEdgeStore::create(&input, &scratch, 1 << 20) {
                Err(e) => assert!(e.to_string().contains(needle), "{e} lacks {needle:?}"),
                Ok(_) => panic!("expected error containing {needle:?}"),
            }
            assert!(!scratch.exists(), "aborted copies must not leave a scratch file");
        };

        expect(&bytes[..10], "truncated header");
        let mut bad = bytes.clone();
        bad[0] = b'X';
        expect(&bad, "bad magic");
        expect(&bytes[..bytes.len() - 3], "truncated payload");
        let mut looped = bytes.clone();
        looped[24..32].copy_from_slice(&[5, 0, 0, 0, 5, 0, 0, 0]);
        expect(&looped, "self-loop at node 5 (edge 0)");
        let mut out_of_range = bytes.clone();
        out_of_range[24..28].copy_from_slice(&1000u32.to_le_bytes());
        expect(&out_of_range, "outside [0, 100)");
        let _ = std::fs::remove_file(&input);
    }

    #[test]
    fn adopt_reopens_a_finished_scratch() {
        let g = big_graph(3, 64, 200);
        let scratch = temp_path("adopt.el");
        write_edge_list_binary_file(&scratch, &g).unwrap();
        let mut store = ExternalEdgeStore::adopt(&scratch, 4 * CHUNK_BYTES).unwrap();
        store.set_edge(0, Edge::new(60, 63));
        assert_eq!(store.edge(0), Edge::new(60, 63));
        store.flush().unwrap();
        drop(store);
        let mut reopened = ExternalEdgeStore::adopt(&scratch, 4 * CHUNK_BYTES).unwrap();
        assert_eq!(reopened.edge(0), Edge::new(60, 63));
        assert_eq!(reopened.edge(1), g.edge(1));
        let _ = std::fs::remove_file(&scratch);
    }
}
