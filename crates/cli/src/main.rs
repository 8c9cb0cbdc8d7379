//! `gesmc` — randomise an edge list with an edge switching Markov chain.
//!
//! ```text
//! USAGE:
//!   gesmc randomize  --input graph.txt --output out.txt [--algo par-global-es?pl=0.001]
//!                    [--supersteps 20] [--seed 1] [--threads N]
//!                    [--mmap [--memory-budget BYTES]]
//!   gesmc generate   --family {gnp,pld,road,mesh,dense} --edges M [--nodes N]
//!                    [--gamma 2.5] --output graph.txt [--seed 1]
//!   gesmc analyze    --input graph.txt [--algo seq-global-es] [--supersteps 30]
//!                    [--seed 1]
//!   gesmc algorithms [--names]
//!   gesmc batch      manifest.json [--workers N] [--mmap [--memory-budget BYTES]]
//!   gesmc resume     job.ckpt [--samples-dir DIR] [--supersteps T] [--threads N]
//!                    [--checkpoint-every K [--checkpoint-dir DIR]]
//!                    [--mmap [--memory-budget BYTES]]
//!   gesmc study      study.json [--scale smoke|paper|xl] [--workers N]
//!                    [--threads-per-job N] [--output-dir DIR] [--resume]
//!   gesmc serve      [--addr HOST:PORT] [--workers N] [--http-workers N]
//!                    [--cache-entries N] [--max-pending N] [--allow-shutdown]
//!                    [--data-dir DIR [--checkpoint-every K]]
//!                    [--peers A,B,C [--advertise ADDR]]
//!                    [--log-format {text,json}] [--log-level L]
//!   gesmc loadgen    --endpoints A[,B,...] [--clients M] [--duration-secs S]
//!                    [--keys K] [--edges M] [--algo SPEC] [--supersteps K] [--json]
//!   gesmc trace      TRACE_ID --endpoints A[,B,...] [--width N] [--json]
//!   gesmc --version | gesmc <subcommand> --help
//! ```
//!
//! The CLI exercises the same public API as the examples and benchmarks: it
//! reads/writes plain-text edge lists, randomises with any registered chain,
//! runs the autocorrelation analysis on small graphs, drives the batched job
//! engine (`gesmc-engine`) for multi-job manifests with checkpoint/resume,
//! and runs end-to-end mixing-time studies (`gesmc-study`, the data behind
//! the paper's Figs. 2-3).
//!
//! Everywhere a chain is named, the spelling is a
//! [`ChainSpec`] resolved against the engine's
//! [`default_registry`] — core chains and baselines alike, with optional
//! parameters (`par-global-es?pl=0.001&prefetch=off`).  `gesmc algorithms`
//! lists the registry, so the CLI's algorithm set can never drift from the
//! engine's.
//!
//! All failures are reported on stderr with a nonzero exit code; the CLI
//! never panics on bad input.

use gesmc_analysis::mixing_profile;
use gesmc_core::ChainSpec;
use gesmc_datasets::{
    netrep_like::family_graph, syn_gnp_graph, syn_pld_graph, write_syn_gnp_binary, GraphFamily,
};
use gesmc_engine::{
    default_registry, run_batch, run_job, Checkpoint, CheckpointReader, EdgeListFileSink,
    EngineError, GraphSource, JobControl, JobSpec, JobState, Manifest, SampleContext, SampleSink,
    SampleView,
};
use gesmc_graph::gen::check_gamma;
use gesmc_graph::io::{
    is_binary_edge_list_file, read_edge_list_file, write_edge_list_binary_file,
    write_edge_list_file,
};
use gesmc_serve::{ServeConfig, Server};
use gesmc_study::{run_study, StudyOptions, StudyScale, StudySpec};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

mod latency;
mod waterfall;

fn print_usage() {
    println!(
        "gesmc — uniform sampling of simple graphs with prescribed degrees\n\
         \n\
         Subcommands:\n\
           randomize  --input FILE --output FILE [--algo SPEC] [--supersteps K] [--seed S] [--threads P]\n\
                      [--mmap [--memory-budget BYTES]]\n\
           generate   --family {{gnp,pld,road,mesh,dense}} --edges M [--nodes N] [--gamma G] --output FILE [--seed S]\n\
           analyze    --input FILE [--algo SPEC] [--supersteps K] [--seed S]\n\
           algorithms [--names]\n\
           batch      MANIFEST.json [--workers N] [--mmap [--memory-budget BYTES]]\n\
           resume     JOB.ckpt [--samples-dir DIR] [--supersteps T] [--threads P]\n\
                      [--checkpoint-every K [--checkpoint-dir DIR]]\n\
                      [--mmap [--memory-budget BYTES]]\n\
           study      STUDY.json [--scale {{smoke,paper,xl}}] [--workers N]\n\
                      [--threads-per-job P] [--output-dir DIR] [--resume]\n\
           serve      [--addr HOST:PORT] [--workers N] [--http-workers N]\n\
                      [--cache-entries N] [--max-pending N] [--allow-shutdown]\n\
                      [--data-dir DIR [--checkpoint-every K]]\n\
                      [--peers A,B,C [--advertise ADDR]]\n\
                      [--log-format {{text,json}}] [--log-level L]\n\
           loadgen    --endpoints A[,B,...] [--clients M] [--duration-secs S]\n\
                      [--keys K] [--edges M] [--algo SPEC] [--supersteps K] [--json]\n\
           trace      TRACE_ID --endpoints A[,B,...] [--width N] [--json]\n\
         \n\
         Run `gesmc <subcommand> --help` for per-subcommand details and\n\
         `gesmc --version` for the version.\n\
         \n\
         An algorithm SPEC is a registered chain name with optional parameters,\n\
         e.g. par-global-es, global-curveball, or par-global-es?pl=0.001&prefetch=off.\n\
         Run `gesmc algorithms` for the full registry ({} chains), parameters and\n\
         capabilities; every listed chain works in randomize/analyze/batch/study\n\
         and checkpoints/resumes.",
        default_registry().len()
    );
}

/// The known subcommands, for dispatch and nearest-match suggestions.
const SUBCOMMANDS: &[&str] = &[
    "randomize",
    "generate",
    "analyze",
    "algorithms",
    "batch",
    "resume",
    "study",
    "serve",
    "loadgen",
    "trace",
    "help",
    "version",
];

/// Per-subcommand usage text (`gesmc <subcommand> --help`).
fn command_help(command: &str) -> Option<&'static str> {
    Some(match command {
        "randomize" => {
            "gesmc randomize --input FILE --output FILE [options]\n\
             Randomize an edge-list file with a switching chain and write the result.\n\
             Inputs may be plain text or binary GESMCEL1; the output matches the\n\
             input's format.  Runs as one engine job and logs its summary line.\n\
             \n\
             Required:\n\
               --input FILE       edge list to randomize (text or binary GESMCEL1)\n\
               --output FILE      where the randomized edge list goes\n\
             Options:\n\
               --algo SPEC        chain spec (default par-global-es); see `gesmc algorithms`\n\
               --supersteps K     superstep count (default 20)\n\
               --seed S           PRNG seed (default 1)\n\
               --threads P        rayon thread budget (default: all cores)\n\
               --mmap             run out-of-core: the graph lives in a disk-backed\n\
                                  store, never on the heap (needs a binary input and a\n\
                                  store-capable chain such as seq-es-ext; the scratch\n\
                                  copy next to the input goes when the run ends); output\n\
                                  bytes are identical to an in-memory run at the same seed\n\
               --memory-budget B  chunk-cache budget in bytes for --mmap (default 64 MiB)"
        }
        "generate" => {
            "gesmc generate --family {gnp,pld,road,mesh,dense} --edges M --output FILE [options]\n\
             Generate a synthetic graph from the dataset families.\n\
             A FILE ending in .el is written as binary GESMCEL1; for gnp the edges\n\
             stream straight to disk in bounded chunks, so --edges may exceed RAM.\n\
             \n\
             Required:\n\
               --family NAME      gnp, pld, road, mesh, or dense\n\
               --edges M          target edge count\n\
               --output FILE      where the edge list goes (.el selects binary GESMCEL1)\n\
             Options:\n\
               --nodes N          node count (default: family-specific from M)\n\
               --gamma G          power-law exponent > 1, pld only (default 2.5)\n\
               --seed S           generator seed (default 1)"
        }
        "analyze" => {
            "gesmc analyze --input FILE [options]\n\
             Estimate the mixing profile of a chain on a small graph (CSV on stdout).\n\
             \n\
             Required:\n\
               --input FILE       plain-text edge list to analyse\n\
             Options:\n\
               --algo SPEC        chain spec (default seq-global-es)\n\
               --supersteps K     supersteps per thinning (default 30)\n\
               --seed S           PRNG seed (default 1)"
        }
        "algorithms" => {
            "gesmc algorithms [--names]\n\
             List every registered chain with parameters, defaults, and capabilities.\n\
             \n\
             Options:\n\
               --names            print only the chain names, one per line"
        }
        "batch" => {
            "gesmc batch MANIFEST.json [--workers N] [--mmap [--memory-budget B]]\n\
             Run every job of a JSON manifest over the engine worker pool,\n\
             streaming thinned samples to per-job files.  Input files may be\n\
             plain text or binary GESMCEL1.\n\
             \n\
             Options:\n\
               --workers N        worker threads (default: manifest value, 0 = all cores)\n\
               --mmap             run the jobs out-of-core, N at a time on the same\n\
                                  pool (--workers 1 runs one at a time); each job\n\
                                  needs a binary GESMCEL1 file source and a\n\
                                  store-capable chain, keeps its scratch copy in the\n\
                                  output directory until it ends, and writes binary\n\
                                  {job}-s{superstep}.el samples\n\
               --memory-budget B  chunk-cache budget in bytes of each --mmap job\n\
                                  (default 64 MiB; N jobs at once hold up to N budgets)"
        }
        "resume" => {
            "gesmc resume JOB.ckpt [options]\n\
             Continue an interrupted job from its checkpoint, bit-identically.\n\
             \n\
             Options:\n\
               --samples-dir DIR      where resumed samples go (default samples)\n\
               --supersteps T         extend the superstep target\n\
               --threads P            rayon thread budget\n\
               --checkpoint-every K   keep checkpointing every K supersteps\n\
               --checkpoint-dir DIR   checkpoint directory (default: alongside JOB.ckpt)\n\
               --mmap                 resume out-of-core: the checkpointed edges stream\n\
                                      into a disk-backed store (a scratch copy next to\n\
                                      JOB.ckpt) without ever loading the graph; samples\n\
                                      are written as binary .el files\n\
               --memory-budget B      chunk-cache budget in bytes for --mmap (default 64 MiB)"
        }
        "study" => {
            "gesmc study STUDY.json [options]\n\
             Run an end-to-end mixing-time study (the data behind Figs. 2-3).\n\
             \n\
             Options:\n\
               --scale {smoke,paper,xl}  workload scale (default smoke; xl sizes the\n\
                                      graphs for the out-of-core seq-es-ext chain)\n\
               --workers N            cell-level worker threads\n\
               --threads-per-job P    rayon threads per cell\n\
               --output-dir DIR       report directory (default results)\n\
               --resume               reuse completed cells from an earlier run"
        }
        "serve" => {
            "gesmc serve [options]\n\
             Serve null-model samples over HTTP with a warm sample cache\n\
             (endpoints: /v1/sample, /v1/jobs, /v1/algorithms, /healthz, /metrics).\n\
             \n\
             Options:\n\
               --addr HOST:PORT     bind address (default 127.0.0.1:8080; port 0 = ephemeral)\n\
               --workers N          engine worker threads (default: all cores)\n\
               --http-workers N     HTTP worker threads (default 4)\n\
               --cache-entries N    warm-cache capacity (default 256; 0 disables)\n\
               --max-pending N      admission queue bound before 429s (default 64; 0 = unbounded)\n\
               --allow-shutdown     honour POST /v1/shutdown (graceful stop over HTTP)\n\
               --data-dir DIR       durability root: journal job submissions, checkpoint\n\
                                    running jobs, spill finished samples; on boot the dir is\n\
                                    replayed, resuming interrupted jobs bit-identically\n\
               --checkpoint-every K checkpoint cadence in supersteps (default 25; 0 = only\n\
                                    from-scratch recovery; needs --data-dir)\n\
               --peers A,B,C        static cluster membership: every node's address,\n\
                                    comma-separated and identical on every node; sample\n\
                                    keys are sharded over a consistent-hash ring and\n\
                                    misrouted requests are forwarded to their owner\n\
               --advertise ADDR     this node's own entry in --peers (default: --addr)\n\
               --log-format FMT     log line shape: text (default) or json\n\
               --log-level L        default log level: trace, debug, info (default),\n\
                                    warn, or error; a non-empty GESMC_LOG env var\n\
                                    (e.g. GESMC_LOG=gesmc_serve::http=debug) overrides"
        }
        "loadgen" => {
            "gesmc loadgen --endpoints A[,B,...] [options]\n\
             Drive a serve node (or cluster) with concurrent sample requests and\n\
             report throughput and latency percentiles.\n\
             \n\
             Required:\n\
               --endpoints A[,B,..] serve addresses; a multi-endpoint list routes by the\n\
                                    cluster's consistent-hash ring and fails over\n\
             Options:\n\
               --clients M          concurrent client threads (default 4)\n\
               --duration-secs S    how long to generate load (default 5)\n\
               --keys K             distinct sample keys in the workload (default 8)\n\
               --edges M            edge count per generated graph (default 200)\n\
               --algo SPEC          chain spec (default par-global-es)\n\
               --supersteps K       supersteps per sample (default 20)\n\
               --json               print the summary as one JSON object (for CI)"
        }
        "trace" => {
            "gesmc trace TRACE_ID --endpoints A[,B,...] [options]\n\
             Reconstruct one distributed request: fetch the trace's span\n\
             fragments from every listed serve node (GET /v1/debug/trace/{id}),\n\
             join them on span ids, and render an ASCII waterfall — one line\n\
             per span, bars positioned on the trace's wall-clock window.\n\
             \n\
             Trace ids come from the client SDK (Sample::trace_id), the\n\
             X-Gesmc-Trace-Id response header, or GET /v1/debug/traces.\n\
             \n\
             Required:\n\
               TRACE_ID             the 32-hex trace id to reconstruct\n\
               --endpoints A[,B,..] serve addresses to collect fragments from\n\
             Options:\n\
               --width N            waterfall bar width in columns (default 32)\n\
               --json               print the joined spans as one JSON object"
        }
        _ => return None,
    })
}

/// Levenshtein edit distance, for unknown-subcommand suggestions.
fn edit_distance(a: &str, b: &str) -> usize {
    let b_chars: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b_chars.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut previous_diagonal = row[0];
        row[0] = i + 1;
        for (j, &cb) in b_chars.iter().enumerate() {
            let substitution = previous_diagonal + usize::from(ca != cb);
            previous_diagonal = row[j + 1];
            row[j + 1] = substitution.min(row[j] + 1).min(previous_diagonal + 1);
        }
    }
    row[b_chars.len()]
}

/// The closest known subcommand, if any is close enough to be a likely typo.
fn nearest_subcommand(unknown: &str) -> Option<&'static str> {
    SUBCOMMANDS
        .iter()
        .map(|&candidate| (edit_distance(unknown, candidate), candidate))
        .min()
        .filter(|&(distance, candidate)| distance <= candidate.len().div_ceil(2).min(3))
        .map(|(_, candidate)| candidate)
}

/// Split raw arguments into positional arguments and `--flag value` pairs.
/// Flags listed in `boolean_flags` take no value (their presence maps to
/// `"true"`).
fn parse_args(
    args: &[String],
    boolean_flags: &[&str],
) -> Result<(Vec<String>, HashMap<String, String>), String> {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if let Some(name) = arg.strip_prefix("--") {
            let value = if boolean_flags.contains(&name) {
                "true".to_string()
            } else {
                iter.next().ok_or_else(|| format!("flag --{name} needs a value"))?.clone()
            };
            if flags.insert(name.to_string(), value).is_some() {
                return Err(format!("flag --{name} given twice"));
            }
        } else {
            positional.push(arg.clone());
        }
    }
    Ok((positional, flags))
}

/// Parse an optional numeric flag, naming the flag in the error message.
fn parse_flag<T: FromStr>(flags: &HashMap<String, String>, name: &str) -> Result<Option<T>, String>
where
    T::Err: std::fmt::Display,
{
    match flags.get(name) {
        None => Ok(None),
        Some(raw) => {
            raw.parse().map(Some).map_err(|e| format!("invalid value {raw:?} for --{name}: {e}"))
        }
    }
}

/// Parse an optional numeric flag with a default.
fn parse_flag_or<T: FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    Ok(parse_flag(flags, name)?.unwrap_or(default))
}

fn require<'a>(flags: &'a HashMap<String, String>, name: &str) -> Result<&'a String, String> {
    flags.get(name).ok_or_else(|| format!("missing required flag --{name}"))
}

fn no_positionals(command: &str, positional: &[String]) -> Result<(), String> {
    if let Some(unexpected) = positional.first() {
        Err(format!("{command} takes no positional arguments (got {unexpected:?})"))
    } else {
        Ok(())
    }
}

/// Reject misspelled flags instead of silently ignoring them.
fn reject_unknown_flags(
    command: &str,
    flags: &HashMap<String, String>,
    allowed: &[&str],
) -> Result<(), String> {
    let mut unknown: Vec<&str> =
        flags.keys().map(String::as_str).filter(|name| !allowed.contains(name)).collect();
    if unknown.is_empty() {
        return Ok(());
    }
    unknown.sort_unstable();
    let listed: Vec<String> = unknown.iter().map(|name| format!("--{name}")).collect();
    Err(format!(
        "unknown flag(s) for {command}: {} (accepted: {})",
        listed.join(", "),
        allowed.iter().map(|name| format!("--{name}")).collect::<Vec<_>>().join(", ")
    ))
}

/// Default chunk-cache budget for `--mmap` runs: 64 MiB.
const DEFAULT_MEMORY_BUDGET: usize = 64 << 20;

/// Parse the shared `--mmap` / `--memory-budget BYTES` pair.  Returns the
/// budget when `--mmap` is given; rejects a budget without `--mmap`.
fn parse_mmap_flags(flags: &HashMap<String, String>) -> Result<Option<usize>, String> {
    let budget: usize = parse_flag_or(flags, "memory-budget", DEFAULT_MEMORY_BUDGET)?;
    if flags.contains_key("mmap") {
        Ok(Some(budget))
    } else if flags.contains_key("memory-budget") {
        Err("--memory-budget needs --mmap".to_string())
    } else {
        Ok(None)
    }
}

/// The sink of `gesmc randomize`: writes the job's one (final) sample to
/// `--output` in the input's format, streaming a binary sample.
struct OutputSink {
    path: PathBuf,
    binary: bool,
}

impl SampleSink for OutputSink {
    fn emit(&mut self, _ctx: &SampleContext<'_>, view: &SampleView<'_>) -> Result<(), EngineError> {
        view.write_edge_list(&self.path, self.binary)
    }
}

/// `gesmc randomize`: one engine job over the input file, in memory or (with
/// `--mmap`) over a disk-backed store; both write the same bytes.
fn cmd_randomize(positional: &[String], flags: &HashMap<String, String>) -> Result<(), String> {
    no_positionals("randomize", positional)?;
    reject_unknown_flags(
        "randomize",
        flags,
        &["input", "output", "algo", "supersteps", "seed", "threads", "mmap", "memory-budget"],
    )?;
    let input = require(flags, "input")?;
    let output = require(flags, "output")?;
    let algo = flags.get("algo").map(String::as_str).unwrap_or("par-global-es");
    let algorithm = ChainSpec::parse(algo).map_err(|e| format!("{e}"))?;
    // The output keeps the input's format, so the in-memory and the --mmap
    // path stay `cmp`-comparable.
    let binary = is_binary_edge_list_file(input).map_err(|e| format!("{input}: {e}"))?;
    let source = match parse_mmap_flags(flags)? {
        Some(_) if !binary => {
            return Err(format!(
                "--mmap needs a binary GESMCEL1 input, but {input} is not one \
                 (generate one with `gesmc generate --output {input}.el`)"
            ))
        }
        // The chain randomizes a scratch copy next to the input.
        Some(memory_budget) => GraphSource::OutOfCore {
            path: PathBuf::from(input),
            scratch: Path::new(input).with_extension("scratch.el"),
            memory_budget,
        },
        None => GraphSource::File(PathBuf::from(input)),
    };
    let mut spec = JobSpec::new("randomize", source, algorithm)
        .supersteps(parse_flag_or(flags, "supersteps", 20)?)
        .seed(parse_flag_or(flags, "seed", 1)?);
    spec.threads = parse_flag(flags, "threads")?;

    let mut sink = OutputSink { path: PathBuf::from(output), binary };
    let report = run_job(default_registry(), &spec, &mut sink, None, &JobControl::new(), None)
        .map_err(|e| format!("{e}"))?;
    gesmc_obs::info!(target: "gesmc::randomize", "{}", report.summary());
    gesmc_obs::info!(target: "gesmc::randomize", "wrote {output}");
    Ok(())
}

fn cmd_generate(positional: &[String], flags: &HashMap<String, String>) -> Result<(), String> {
    no_positionals("generate", positional)?;
    reject_unknown_flags(
        "generate",
        flags,
        &["family", "output", "edges", "seed", "gamma", "nodes"],
    )?;
    let family = require(flags, "family")?;
    let output = require(flags, "output")?;
    let edges: usize =
        parse_flag(flags, "edges")?.ok_or("missing required flag --edges".to_string())?;
    let seed: u64 = parse_flag_or(flags, "seed", 1)?;
    let gamma: f64 = parse_flag_or(flags, "gamma", 2.5)?;
    check_gamma(gamma)?;
    let nodes: Option<usize> = parse_flag(flags, "nodes")?;

    // A `.el` output selects the binary GESMCEL1 format.  For `gnp` the
    // edges stream straight from the generator to the file in bounded
    // chunks (temp file, in-place header patch, atomic rename) — the graph
    // is never materialised, so `--edges` can exceed RAM.
    let binary = std::path::Path::new(output.as_str()).extension().is_some_and(|ext| ext == "el");
    if binary && family == "gnp" {
        let n = nodes.unwrap_or(edges / 8);
        let written = write_syn_gnp_binary(output, seed, n, edges).map_err(|e| format!("{e}"))?;
        gesmc_obs::info!(
            target: "gesmc::generate",
            "generated gnp (streamed): n = {n}, m = {written}, \
             avg degree = {:.2} -> {output}",
            if n == 0 { 0.0 } else { 2.0 * written as f64 / n as f64 }
        );
        return Ok(());
    }

    let graph = match family.as_str() {
        "gnp" => syn_gnp_graph(seed, nodes.unwrap_or(edges / 8), edges),
        "pld" => syn_pld_graph(seed, nodes.unwrap_or(edges / 3), gamma),
        "road" => family_graph(seed, GraphFamily::RoadLike, edges).graph,
        "mesh" => family_graph(seed, GraphFamily::Mesh, edges).graph,
        "dense" => family_graph(seed, GraphFamily::Dense, edges).graph,
        other => return Err(format!("unknown family {other:?}")),
    };
    if binary {
        write_edge_list_binary_file(output, &graph).map_err(|e| format!("{e}"))?;
    } else {
        write_edge_list_file(output, &graph).map_err(|e| format!("{e}"))?;
    }
    gesmc_obs::info!(
        target: "gesmc::generate",
        "generated {family}: n = {}, m = {}, avg degree = {:.2} -> {output}",
        graph.num_nodes(),
        graph.num_edges(),
        graph.average_degree()
    );
    Ok(())
}

fn cmd_analyze(positional: &[String], flags: &HashMap<String, String>) -> Result<(), String> {
    no_positionals("analyze", positional)?;
    reject_unknown_flags("analyze", flags, &["input", "algo", "supersteps", "seed"])?;
    let input = require(flags, "input")?;
    let algo = flags.get("algo").map(String::as_str).unwrap_or("seq-global-es");
    let supersteps: usize = parse_flag_or(flags, "supersteps", 30)?;
    let seed: u64 = parse_flag_or(flags, "seed", 1)?;

    let graph = read_edge_list_file(input).map_err(|e| format!("{e}"))?;
    let thinnings: Vec<usize> =
        (0..).map(|i| 1usize << i).take_while(|&k| k <= supersteps.max(1)).collect();

    // Any registered chain analyses: the harness only needs `EdgeSwitching`.
    let spec = ChainSpec::parse(algo).map_err(|e| format!("{e}"))?;
    let mut chain =
        default_registry().build(&spec, graph.clone(), seed).map_err(|e| format!("{e}"))?;
    let profile = mixing_profile(chain.as_mut(), &graph, supersteps, &thinnings);

    println!("algorithm,thinning,non_independent_fraction");
    for (k, frac) in &profile.points {
        println!("{},{k},{frac:.6}", profile.chain);
    }
    Ok(())
}

/// `gesmc algorithms`: list every registered chain with its parameters,
/// defaults and capabilities — sourced from the default registry, so the
/// listing can never drift from what the engine actually builds.
fn cmd_algorithms(positional: &[String], flags: &HashMap<String, String>) -> Result<(), String> {
    no_positionals("algorithms", positional)?;
    reject_unknown_flags("algorithms", flags, &["names"])?;
    let registry = default_registry();
    if flags.contains_key("names") {
        for info in registry.infos() {
            println!("{}", info.name);
        }
        return Ok(());
    }
    println!("{} registered chains (spec syntax: name[?param=value&...]):", registry.len());
    for info in registry.infos() {
        let mut capabilities = vec![
            if info.exact { "exact" } else { "inexact" },
            if info.parallel { "parallel" } else { "sequential" },
        ];
        if info.snapshot {
            capabilities.push("snapshot/resume");
        }
        println!();
        if info.aliases.is_empty() {
            println!("{}  [{}]", info.name, capabilities.join(", "));
        } else {
            println!(
                "{}  [{}]  (alias: {})",
                info.name,
                capabilities.join(", "),
                info.aliases.join(", ")
            );
        }
        println!("    {}", info.summary);
        if info.params.is_empty() {
            println!("    parameters: none");
        } else {
            for param in info.params {
                println!(
                    "    {} ({}, default {}): {}",
                    param.name,
                    param.kind.name(),
                    param.default,
                    param.doc
                );
            }
        }
    }
    Ok(())
}

/// `gesmc batch manifest.json`: run every job of the manifest over the
/// engine's job pool, streaming thinned samples to per-job files.  With
/// `--mmap` every file source runs out of core (binary samples, a scratch
/// per job in the output directory); any other source fails alone.
fn cmd_batch(positional: &[String], flags: &HashMap<String, String>) -> Result<(), String> {
    let manifest_path = match positional {
        [path] => path,
        [] => return Err("batch needs a manifest path: gesmc batch manifest.json".to_string()),
        more => return Err(format!("batch takes one manifest path, got {}", more.len())),
    };
    reject_unknown_flags("batch", flags, &["workers", "mmap", "memory-budget"])?;
    let mut manifest = Manifest::from_file(manifest_path).map_err(|e| format!("{e}"))?;
    if let Some(workers) = parse_flag::<usize>(flags, "workers")? {
        manifest.workers = workers;
    }
    let total = manifest.jobs.len();
    let mut failures = 0usize;
    let budget = parse_mmap_flags(flags)?;
    if let Some(memory_budget) = budget {
        let output_dir = manifest.output_dir.clone();
        manifest.jobs.retain_mut(|spec| {
            let GraphSource::File(path) = &spec.source else {
                failures += 1;
                let why = "--mmap requires a file graph source";
                gesmc_obs::error!(target: "gesmc::batch", id: spec.name, "FAILED: {why}");
                return false;
            };
            let scratch = output_dir.join(format!("{}.scratch.el", spec.name));
            spec.source = GraphSource::OutOfCore { path: path.clone(), scratch, memory_budget };
            true
        });
    }
    gesmc_obs::info!(
        target: "gesmc::batch",
        "batch {}: {} jobs over {} workers{} -> {}",
        manifest_path,
        manifest.jobs.len(),
        if manifest.workers == 0 { "hardware".to_string() } else { manifest.workers.to_string() },
        budget.map(|b| format!(", out of core ({b} B budget per job)")).unwrap_or_default(),
        manifest.output_dir.display()
    );

    let handles = run_batch(&manifest).map_err(|e| format!("{e}"))?;
    for handle in &handles {
        let why = match handle.state() {
            JobState::Done(report) => {
                gesmc_obs::info!(target: "gesmc::batch", id: handle.name(), "{}", report.summary());
                continue;
            }
            JobState::Failed(e) => e,
            other => other.label().to_string(),
        };
        failures += 1;
        gesmc_obs::error!(target: "gesmc::batch", id: handle.name(), "FAILED: {why}");
    }
    if failures > 0 {
        return Err(format!("{failures} of {total} jobs failed"));
    }
    gesmc_obs::info!(target: "gesmc::batch", "all {total} jobs finished");
    Ok(())
}

/// `gesmc resume job.ckpt`: continue an interrupted job from its checkpoint,
/// bit-identically to a run that was never interrupted — in memory, or with
/// `--mmap` streaming the checkpointed edges into a disk-backed store.
fn cmd_resume(positional: &[String], flags: &HashMap<String, String>) -> Result<(), String> {
    let checkpoint_path = match positional {
        [path] => path,
        [] => return Err("resume needs a checkpoint path: gesmc resume job.ckpt".to_string()),
        more => return Err(format!("resume takes one checkpoint path, got {}", more.len())),
    };
    reject_unknown_flags(
        "resume",
        flags,
        &[
            "samples-dir",
            "supersteps",
            "threads",
            "checkpoint-every",
            "checkpoint-dir",
            "mmap",
            "memory-budget",
        ],
    )?;
    let budget = parse_mmap_flags(flags)?;
    // Both modes build the job from the checkpoint header; the chain, its
    // parameters and its state come from the checkpoint itself.
    let header =
        CheckpointReader::open(checkpoint_path).map_err(|e| format!("{e}"))?.meta().clone();
    // Resolve the header's chain name through the registry; unknown chains
    // fail here with the known list.
    let info = default_registry().resolve(header.chain_name()).map_err(|e| format!("{e}"))?;
    let (source, checkpoint) = match budget {
        Some(memory_budget) => {
            let path = PathBuf::from(checkpoint_path);
            let scratch = path.with_extension("scratch.el");
            (GraphSource::OutOfCore { path, scratch, memory_budget }, None)
        }
        // Never loaded: run_job rebuilds the graph from the checkpoint.
        None => (
            GraphSource::File(PathBuf::from(checkpoint_path)),
            Some(Checkpoint::read_from_file(checkpoint_path).map_err(|e| format!("{e}"))?),
        ),
    };
    let mut spec = JobSpec::new(header.job_name.clone(), source, ChainSpec::new(info.name))
        .supersteps(header.total_supersteps)
        .thinning(header.thinning);
    if let Some(supersteps) = parse_flag::<u64>(flags, "supersteps")? {
        if supersteps <= header.snapshot.supersteps_done {
            return Err(format!(
                "--supersteps {supersteps} is not beyond the checkpoint's superstep {}",
                header.snapshot.supersteps_done
            ));
        }
        spec.supersteps = supersteps;
    }
    spec.threads = parse_flag(flags, "threads")?;
    // Inexact parallel chains (naive-par-es) interleave switches racily
    // across threads, so their resumed trajectory is only a function of the
    // checkpoint state under a single-threaded pool (see
    // `NaiveParES::snapshot`).  The registry's capability flags identify
    // them.
    if info.parallel && !info.exact && spec.threads != Some(1) {
        gesmc_obs::warn!(
            target: "gesmc::resume",
            "resuming a {} checkpoint with more than one thread; \
             the interleaving of switches is racy, so the resumed run will NOT be \
             bit-identical to the uninterrupted one (pass --threads 1 for reproducibility)",
            info.name
        );
    }
    // Keep checkpointing during the resumed run, so a second interruption
    // does not lose the progress since this one.  The interval is not stored
    // in the checkpoint file; `--checkpoint-every` re-enables it, writing to
    // the resumed checkpoint's own directory unless overridden.
    if let Some(every) = parse_flag::<u64>(flags, "checkpoint-every")? {
        let default_dir = Path::new(checkpoint_path)
            .parent()
            .filter(|dir| !dir.as_os_str().is_empty())
            .unwrap_or_else(|| Path::new("."))
            .to_path_buf();
        spec.checkpoint_every = Some(every);
        spec.checkpoint_dir =
            Some(flags.get("checkpoint-dir").map(PathBuf::from).unwrap_or(default_dir));
    } else if flags.contains_key("checkpoint-dir") {
        return Err("--checkpoint-dir needs --checkpoint-every".to_string());
    }

    let samples_dir = flags.get("samples-dir").map(String::as_str).unwrap_or("samples");
    gesmc_obs::info!(
        target: "gesmc::resume",
        id: header.job_name,
        "resuming ({}{}) at superstep {} of {}, samples -> {samples_dir}",
        info.name,
        budget.map(|b| format!(", out of core, {b} B budget")).unwrap_or_default(),
        header.snapshot.supersteps_done,
        spec.supersteps
    );

    let mut sink = EdgeListFileSink::new(samples_dir, &header.job_name)
        .map_err(|e| format!("{e}"))?
        .binary(budget.is_some());
    let resume = checkpoint.as_ref();
    let report = run_job(default_registry(), &spec, &mut sink, resume, &JobControl::new(), None)
        .map_err(|e| format!("{e}"))?;
    gesmc_obs::info!(target: "gesmc::resume", id: header.job_name, "{}", report.summary());
    for path in sink.written() {
        gesmc_obs::info!(target: "gesmc::resume", "wrote {}", path.display());
    }
    Ok(())
}

/// `gesmc study study.json`: run an end-to-end mixing-time study — sweep
/// {chain} × {graph}, stream per-superstep metrics, aggregate the
/// non-independence fractions per thinning value into deterministic JSON/CSV
/// reports (the data behind Figs. 2-3).
fn cmd_study(positional: &[String], flags: &HashMap<String, String>) -> Result<(), String> {
    let spec_path = match positional {
        [path] => path,
        [] => return Err("study needs a spec path: gesmc study study.json".to_string()),
        more => return Err(format!("study takes one spec path, got {}", more.len())),
    };
    reject_unknown_flags(
        "study",
        flags,
        &["scale", "workers", "threads-per-job", "output-dir", "resume"],
    )?;
    let spec = StudySpec::from_file(spec_path).map_err(|e| format!("{e}"))?;
    let scale = match flags.get("scale") {
        None => StudyScale::Smoke,
        Some(s) => StudyScale::parse(s).ok_or_else(|| {
            format!("invalid value {s:?} for --scale (expected smoke, paper or xl)")
        })?,
    };
    let opts = StudyOptions {
        scale,
        workers: parse_flag(flags, "workers")?,
        threads_per_job: parse_flag(flags, "threads-per-job")?,
        output_dir: flags.get("output-dir").map(PathBuf::from),
        resume: flags.contains_key("resume"),
    };
    gesmc_obs::info!(
        target: "gesmc::study",
        "study {:?}: {} cells ({} chains x {} graphs) at {} scale, {} supersteps each",
        spec.name,
        spec.chains.len() * spec.graphs.len(),
        spec.chains.len(),
        spec.graphs.len(),
        scale.name(),
        spec.supersteps_at(scale)
    );

    let run = run_study(&spec, &opts).map_err(|e| format!("{e}"))?;
    if run.resumed_cells > 0 {
        gesmc_obs::info!(
            target: "gesmc::study",
            "reused {} completed cells from an earlier run",
            run.resumed_cells
        );
    }
    for cell in &run.report.cells {
        let first = cell.points.first().map(|&(_, f)| f).unwrap_or(0.0);
        let last = cell.points.last().map(|&(_, f)| f).unwrap_or(0.0);
        let timing =
            cell.wall_clock_secs.map_or_else(|| "cached".to_string(), |s| format!("{s:.3} s"));
        gesmc_obs::info!(
            target: "gesmc::study",
            id: cell.job,
            "n = {}, m = {}, non-independent {:.3} (k = {}) -> {:.3} (k = {}), {timing}",
            cell.nodes,
            cell.edges,
            first,
            cell.points.first().map(|&(k, _)| k).unwrap_or(0),
            last,
            cell.points.last().map(|&(k, _)| k).unwrap_or(0),
        );
    }
    gesmc_obs::info!(target: "gesmc::study", "wrote {}", run.json_path.display());
    Ok(())
}

/// `gesmc serve`: run the HTTP sampling service until a graceful shutdown
/// is requested (`POST /v1/shutdown` with `--allow-shutdown`) or the process
/// is killed.
fn cmd_serve(positional: &[String], flags: &HashMap<String, String>) -> Result<(), String> {
    no_positionals("serve", positional)?;
    reject_unknown_flags(
        "serve",
        flags,
        &[
            "addr",
            "workers",
            "http-workers",
            "cache-entries",
            "max-pending",
            "allow-shutdown",
            "data-dir",
            "checkpoint-every",
            "peers",
            "advertise",
            "log-format",
            "log-level",
        ],
    )?;
    // Configure logging first so every line below (and the server's own
    // request logs) comes out in the requested shape.  A non-empty
    // `GESMC_LOG` still overrides `--log-level` for filtering.
    let format = match flags.get("log-format") {
        None => gesmc_obs::LogFormat::Text,
        Some(raw) => gesmc_obs::LogFormat::parse(raw).ok_or_else(|| {
            format!("invalid value {raw:?} for --log-format (expected text or json)")
        })?,
    };
    let level = match flags.get("log-level") {
        None => gesmc_obs::Level::Info,
        Some(raw) => gesmc_obs::Level::parse(raw).ok_or_else(|| {
            format!("invalid value {raw:?} for --log-level (expected trace, debug, info, warn, or error)")
        })?,
    };
    gesmc_obs::log::configure(format, level);
    let mut config = ServeConfig::default();
    if let Some(addr) = flags.get("addr") {
        config.addr = addr.clone();
    }
    if let Some(workers) = parse_flag::<usize>(flags, "workers")? {
        config.engine_workers = workers;
    }
    if let Some(http_workers) = parse_flag::<usize>(flags, "http-workers")? {
        if http_workers == 0 {
            return Err("--http-workers must be at least 1".to_string());
        }
        config.http_workers = http_workers;
    }
    if let Some(entries) = parse_flag::<usize>(flags, "cache-entries")? {
        config.cache_entries = entries;
    }
    if let Some(pending) = parse_flag::<usize>(flags, "max-pending")? {
        config.max_pending = pending;
    }
    config.allow_shutdown = flags.contains_key("allow-shutdown");
    if let Some(dir) = flags.get("data-dir") {
        config.data_dir = Some(std::path::PathBuf::from(dir));
    }
    if let Some(every) = parse_flag::<u64>(flags, "checkpoint-every")? {
        if config.data_dir.is_none() {
            return Err("--checkpoint-every needs --data-dir".to_string());
        }
        config.checkpoint_every = every;
    }
    match (flags.get("peers"), flags.get("advertise")) {
        (Some(raw), advertise) => {
            let peers: Vec<String> =
                raw.split(',').map(str::trim).filter(|p| !p.is_empty()).map(String::from).collect();
            if peers.len() < 2 {
                return Err("--peers needs at least two comma-separated addresses".to_string());
            }
            // The advertise address is how *other* nodes reach this one; it
            // must match a peers entry byte-for-byte so all ring positions
            // agree.  Defaulting to --addr covers the common spelling where
            // the bind address doubles as the public one.
            let advertise = advertise.cloned().unwrap_or_else(|| config.addr.clone());
            config.cluster = Some(gesmc_serve::ClusterConfig { advertise, peers });
        }
        (None, Some(_)) => return Err("--advertise needs --peers".to_string()),
        (None, None) => {}
    }

    let server =
        Server::bind(config.clone()).map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
    gesmc_obs::info!(
        target: "gesmc::serve",
        "serving on http://{} ({} engine workers, {} http workers, cache {} entries, \
         admission bound {})",
        server.local_addr(),
        if config.engine_workers == 0 {
            "all".to_string()
        } else {
            config.engine_workers.to_string()
        },
        config.http_workers,
        config.cache_entries,
        config.max_pending
    );
    if let Some(dir) = &config.data_dir {
        gesmc_obs::info!(
            target: "gesmc::serve",
            "durability on: data dir {}, checkpoint every {} supersteps",
            dir.display(),
            config.checkpoint_every
        );
    }
    if let Some(cluster) = &config.cluster {
        gesmc_obs::info!(
            target: "gesmc::serve",
            "cluster of {}: advertising as {} among [{}]",
            cluster.peers.len(),
            cluster.advertise,
            cluster.peers.join(", ")
        );
    }
    if config.allow_shutdown {
        gesmc_obs::info!(target: "gesmc::serve", "POST /v1/shutdown stops the server gracefully");
    }
    server.wait();
    gesmc_obs::info!(target: "gesmc::serve", "shut down cleanly");
    Ok(())
}

/// Per-thread tallies of one loadgen worker, merged after the run.
#[derive(Default)]
struct LoadgenTally {
    /// Bucketed latencies: constant-size per thread, whatever the run
    /// length; percentiles are derived from the merged buckets.
    latency: latency::LatencyBuckets,
    hits: u64,
    misses: u64,
    coalesced: u64,
    errors: u64,
    /// First few error messages, for the summary.
    error_samples: Vec<String>,
}

/// `gesmc loadgen`: drive one or more serve nodes with concurrent sample
/// requests through the typed client (ring routing, failover, backoff) and
/// report request rate, latency percentiles, and cache behaviour.
fn cmd_loadgen(positional: &[String], flags: &HashMap<String, String>) -> Result<(), String> {
    no_positionals("loadgen", positional)?;
    reject_unknown_flags(
        "loadgen",
        flags,
        &["endpoints", "clients", "duration-secs", "keys", "edges", "algo", "supersteps", "json"],
    )?;
    let endpoints: Vec<String> = require(flags, "endpoints")?
        .split(',')
        .map(str::trim)
        .filter(|e| !e.is_empty())
        .map(String::from)
        .collect();
    if endpoints.is_empty() {
        return Err("--endpoints needs at least one address".to_string());
    }
    let clients: usize = parse_flag_or(flags, "clients", 4)?;
    if clients == 0 {
        return Err("--clients must be at least 1".to_string());
    }
    let duration_secs: u64 = parse_flag_or(flags, "duration-secs", 5)?;
    let keys: u64 = parse_flag_or(flags, "keys", 8)?;
    if keys == 0 {
        return Err("--keys must be at least 1".to_string());
    }
    let edges: usize = parse_flag_or(flags, "edges", 200)?;
    let algo = flags.get("algo").map(String::as_str).unwrap_or("par-global-es");
    let supersteps: u64 = parse_flag_or(flags, "supersteps", 20)?;

    let client = gesmc_client::Client::builder(endpoints.clone())
        .build()
        .map_err(|e| format!("cannot build client: {e}"))?;
    // The workload: `keys` distinct cache keys (seed varies), spread over
    // the ring when several endpoints are given.  Validate them eagerly so a
    // bad --algo fails before any thread spawns.
    let specs: Vec<gesmc_client::SampleSpec> = (0..keys)
        .map(|i| {
            gesmc_client::SampleSpec::new(format!("pld:m={edges},seed={}", i + 1))
                .algo(algo)
                .supersteps(supersteps)
        })
        .collect();
    for spec in &specs {
        spec.key().map_err(|e| format!("bad workload spec: {e}"))?;
    }
    let specs = std::sync::Arc::new(specs);

    let start = std::time::Instant::now();
    let deadline = start + std::time::Duration::from_secs(duration_secs);
    let tallies: Vec<LoadgenTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|worker| {
                let client = client.clone();
                let specs = std::sync::Arc::clone(&specs);
                scope.spawn(move || {
                    let mut tally = LoadgenTally::default();
                    let mut n = worker; // stagger the key order across workers
                    while std::time::Instant::now() < deadline {
                        let spec = &specs[n % specs.len()];
                        n += 1;
                        let t0 = std::time::Instant::now();
                        match client.samples().get(spec) {
                            Ok(sample) => {
                                tally.latency.record_us(t0.elapsed().as_micros() as u64);
                                match sample.cache.as_str() {
                                    "hit" => tally.hits += 1,
                                    "coalesced" => tally.coalesced += 1,
                                    _ => tally.misses += 1,
                                }
                            }
                            Err(e) => {
                                tally.errors += 1;
                                if tally.error_samples.len() < 3 {
                                    tally.error_samples.push(e.to_string());
                                }
                            }
                        }
                    }
                    tally
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("loadgen worker panicked")).collect()
    });
    let elapsed = start.elapsed().as_secs_f64();

    let mut merged = LoadgenTally::default();
    for tally in tallies {
        merged.latency.merge(&tally.latency);
        merged.hits += tally.hits;
        merged.misses += tally.misses;
        merged.coalesced += tally.coalesced;
        merged.errors += tally.errors;
        for msg in tally.error_samples {
            if merged.error_samples.len() < 3 {
                merged.error_samples.push(msg);
            }
        }
    }
    let requests = merged.latency.count();
    let rps = if elapsed > 0.0 { requests as f64 / elapsed } else { 0.0 };
    let (p50, p90, p99) = (
        merged.latency.percentile_us(0.50),
        merged.latency.percentile_us(0.90),
        merged.latency.percentile_us(0.99),
    );

    if flags.contains_key("json") {
        let mut map = serde_json::Map::new();
        map.insert("endpoints".to_string(), serde_json::Value::Number(endpoints.len() as f64));
        map.insert("clients".to_string(), serde_json::Value::Number(clients as f64));
        map.insert("seconds".to_string(), serde_json::Value::Number(elapsed));
        map.insert("requests".to_string(), serde_json::Value::Number(requests as f64));
        map.insert("errors".to_string(), serde_json::Value::Number(merged.errors as f64));
        map.insert("rps".to_string(), serde_json::Value::Number(rps));
        map.insert("hits".to_string(), serde_json::Value::Number(merged.hits as f64));
        map.insert("misses".to_string(), serde_json::Value::Number(merged.misses as f64));
        map.insert("coalesced".to_string(), serde_json::Value::Number(merged.coalesced as f64));
        map.insert("p50_us".to_string(), serde_json::Value::Number(p50 as f64));
        map.insert("p90_us".to_string(), serde_json::Value::Number(p90 as f64));
        map.insert("p99_us".to_string(), serde_json::Value::Number(p99 as f64));
        println!("{}", serde_json::to_string(&serde_json::Value::Object(map)).expect("flat JSON"));
    } else {
        println!(
            "loadgen: {requests} requests in {elapsed:.2} s ({rps:.0} req/s), {} errors",
            merged.errors
        );
        println!(
            "  cache: {} hits, {} misses, {} coalesced over {} keys",
            merged.hits, merged.misses, merged.coalesced, keys
        );
        println!(
            "  latency: p50 {:.2} ms, p90 {:.2} ms, p99 {:.2} ms",
            p50 as f64 / 1e3,
            p90 as f64 / 1e3,
            p99 as f64 / 1e3
        );
    }
    for msg in &merged.error_samples {
        gesmc_obs::warn!(target: "gesmc::loadgen", "sample error: {msg}");
    }
    if requests == 0 {
        return Err(format!(
            "no request succeeded against {} ({} errors)",
            endpoints.join(", "),
            merged.errors
        ));
    }
    Ok(())
}

/// `gesmc trace`: fetch a trace's span fragments from every listed serve
/// node, join them on span ids, and render the cross-process waterfall.
fn cmd_trace(positional: &[String], flags: &HashMap<String, String>) -> Result<(), String> {
    reject_unknown_flags("trace", flags, &["endpoints", "width", "json"])?;
    let trace_id = match positional {
        [id] => id.as_str(),
        _ => return Err("trace takes exactly one TRACE_ID argument (32 hex digits)".to_string()),
    };
    if gesmc_obs::TraceId::parse(trace_id).is_none() {
        return Err(format!("trace id {trace_id:?} is not 32 hex digits"));
    }
    let endpoints: Vec<String> = require(flags, "endpoints")?
        .split(',')
        .map(str::trim)
        .filter(|e| !e.is_empty())
        .map(String::from)
        .collect();
    if endpoints.is_empty() {
        return Err("--endpoints needs at least one address".to_string());
    }
    let width: usize = parse_flag_or(flags, "width", 32)?;
    if width == 0 {
        return Err("--width must be at least 1".to_string());
    }

    let path = format!("/v1/debug/trace/{trace_id}");
    let mut fragments = Vec::new();
    for endpoint in &endpoints {
        match gesmc_cluster::request(endpoint, "GET", &path, &[], &[]) {
            Ok(resp) if resp.status == 200 => {
                let text = String::from_utf8_lossy(&resp.body);
                let fragment = waterfall::parse_fragment(&text, trace_id)
                    .map_err(|e| format!("{endpoint}: {e}"))?;
                fragments.push(fragment);
            }
            // 404 is normal: a node that never touched the request (or
            // whose ring evicted the trace) holds no fragment.
            Ok(resp) if resp.status == 404 => {}
            Ok(resp) => return Err(format!("{endpoint}: HTTP {}", resp.status)),
            Err(e) => return Err(format!("cannot reach {endpoint}: {e}")),
        }
    }
    let spans = waterfall::join_fragments(fragments);
    if spans.is_empty() {
        return Err(format!(
            "no node among {} holds trace {trace_id} (the tail sampler may have \
             dropped it, or the ring evicted it; client-originated traces are \
             always kept while resident)",
            endpoints.join(", ")
        ));
    }

    if flags.contains_key("json") {
        let spans_json: Vec<serde_json::Value> = spans
            .iter()
            .map(|span| {
                let mut map = serde_json::Map::new();
                map.insert("span_id".to_string(), serde_json::Value::String(span.span_id.clone()));
                map.insert(
                    "parent_id".to_string(),
                    match &span.parent_id {
                        Some(parent) => serde_json::Value::String(parent.clone()),
                        None => serde_json::Value::Null,
                    },
                );
                map.insert("name".to_string(), serde_json::Value::String(span.name.clone()));
                map.insert("service".to_string(), serde_json::Value::String(span.service.clone()));
                map.insert(
                    "start_unix_us".to_string(),
                    serde_json::Value::Number(span.start_unix_us as f64),
                );
                map.insert(
                    "duration_us".to_string(),
                    serde_json::Value::Number(span.duration_us as f64),
                );
                map.insert("error".to_string(), serde_json::Value::Bool(span.error));
                let mut annotations = serde_json::Map::new();
                for (key, value) in &span.annotations {
                    annotations.insert(key.clone(), serde_json::Value::String(value.clone()));
                }
                map.insert("annotations".to_string(), serde_json::Value::Object(annotations));
                serde_json::Value::Object(map)
            })
            .collect();
        let mut doc = serde_json::Map::new();
        doc.insert("trace_id".to_string(), serde_json::Value::String(trace_id.to_string()));
        doc.insert("spans".to_string(), serde_json::Value::Array(spans_json));
        println!("{}", serde_json::to_string(&serde_json::Value::Object(doc)).expect("flat JSON"));
    } else {
        print!("{}", waterfall::render_waterfall(trace_id, &spans, width));
    }
    Ok(())
}

fn main() -> ExitCode {
    // Spans originated here (the client SDK's fetches, loadgen) are
    // attributed to "cli" in joined trace trees; `serve` overrides this
    // with its advertise address when it binds.
    gesmc_obs::trace::tracer().set_service("cli");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        print_usage();
        return ExitCode::FAILURE;
    };
    if matches!(command.as_str(), "--version" | "-V" | "version") {
        println!("gesmc {}", env!("CARGO_PKG_VERSION"));
        return ExitCode::SUCCESS;
    }
    let (positional, flags) =
        match parse_args(rest, &["resume", "names", "help", "allow-shutdown", "json", "mmap"]) {
            Ok(parsed) => parsed,
            Err(e) => {
                gesmc_obs::error!(target: "gesmc", "{e}");
                print_usage();
                return ExitCode::FAILURE;
            }
        };
    // `gesmc <subcommand> --help` prints that subcommand's usage and exits
    // successfully, before any flag validation.
    if flags.contains_key("help") {
        match command_help(command) {
            Some(help) => {
                println!("{help}");
                return ExitCode::SUCCESS;
            }
            None => {
                print_usage();
                return ExitCode::SUCCESS;
            }
        }
    }
    let result = match command.as_str() {
        "randomize" => cmd_randomize(&positional, &flags),
        "generate" => cmd_generate(&positional, &flags),
        "analyze" => cmd_analyze(&positional, &flags),
        "algorithms" => cmd_algorithms(&positional, &flags),
        "batch" => cmd_batch(&positional, &flags),
        "resume" => cmd_resume(&positional, &flags),
        "study" => cmd_study(&positional, &flags),
        "serve" => cmd_serve(&positional, &flags),
        "loadgen" => cmd_loadgen(&positional, &flags),
        "trace" => cmd_trace(&positional, &flags),
        "--help" | "-h" | "help" => {
            print_usage();
            Ok(())
        }
        other => match nearest_subcommand(other) {
            Some(suggestion) => {
                Err(format!("unknown subcommand {other:?} (did you mean \"{suggestion}\"?)"))
            }
            None => Err(format!("unknown subcommand {other:?}")),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            gesmc_obs::error!(target: "gesmc", "{e}");
            ExitCode::FAILURE
        }
    }
}
