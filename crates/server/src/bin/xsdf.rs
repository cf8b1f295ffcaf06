//! The `xsdf` command-line tool: run the XML Semantic Disambiguation
//! Framework on files from the shell.
//!
//! ```text
//! xsdf disambiguate doc.xml [--radius N] [--process concept|context|combined]
//!                           [--threshold auto|<float>] [--network kb.sn]
//!                           [--structure-only] [--quiet]
//! xsdf batch        a.xml b.xml ... [--threads N] [--shards N] [--metrics out.json]
//!                   [--trace out.json] [--trace-jsonl out.jsonl] [--slow-ms N]
//! xsdf gen-corpus   --out dir [--count N] [--seed S] [--start P]
//! xsdf ambiguity    doc.xml [--network kb.sn]       # Amb_Deg per node
//! xsdf network      [--export kb.sn]                # MiniWordNet stats/export
//! xsdf senses       <word> [--network kb.sn]        # sense inventory of a word
//! xsdf serve        [--addr 127.0.0.1:8737] [--threads N] [--queue N] ...
//! ```

use std::io::Read;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use runtime::{BatchEngine, CacheBudget, MetricsSnapshot, ResourceLimits, ShardReport, XsdfError};
use server::service::{parse_process, parse_threshold, THRESHOLD_VALUES};
use server::{report, signal, Server, ServerConfig};
use xsdf::guard::LimitKind;
use xsdf::{Xsdf, XsdfConfig};

/// Exit code for a batch where some — but not all — documents failed.
/// `0` means every document succeeded; `1` is a total or usage failure.
const EXIT_PARTIAL: u8 = 2;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "disambiguate" => cmd_disambiguate(&args[1..]),
        "batch" => cmd_batch(&args[1..]),
        "gen-corpus" => cmd_gen_corpus(&args[1..]),
        "ambiguity" => cmd_ambiguity(&args[1..]),
        "network" => cmd_network(&args[1..]),
        "compile-network" => cmd_compile_network(&args[1..]),
        "import-wndb" => cmd_import_wndb(&args[1..]),
        "senses" => cmd_senses(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
xsdf — XML Semantic Disambiguation Framework (EDBT 2015)

USAGE:
    xsdf disambiguate <file.xml> [options]   resolve node senses, print annotated XML
    xsdf batch        <files...> [options]   disambiguate many files in parallel
                                             (add --shards N to fan out over N
                                             worker processes with merged metrics)
    xsdf gen-corpus   --out <dir> [options]  materialize streaming-corpus documents
                                             as XML files (constant memory)
    xsdf ambiguity    <file.xml> [options]   print each node's ambiguity degree
    xsdf network      [--export <file>]      built-in network stats / text export
    xsdf compile-network [<network>] --out <file.snap>
                                             compile a network (text file, --wndb <dir>,
                                             or builtin MiniWordNet) + its scoring
                                             artifacts into a binary snapshot that
                                             cold-starts as one read instead of a rebuild
    xsdf senses       <word> [options]       list a word's senses
    xsdf serve        [options]              resident HTTP service (see SERVE OPTIONS)

OPTIONS (disambiguate + batch + serve; --network also ambiguity, network,
senses; --quiet disambiguate + batch + ambiguity):
    --network <file>      load a semantic network instead of MiniWordNet; the
                          format is sniffed: compiled snapshot (from
                          compile-network) or text export
    --radius <1|2|3|..>   sphere neighborhood radius d          [default: 2]
    --process <p>         concept | context | combined          [default: concept]
    --threshold <t>       auto | a float in [0,1]               [default: 0]
    --structure-only      ignore element/attribute text values
    --quiet               suppress the per-node report

GEN-CORPUS OPTIONS:
    --out <dir>           output directory (created if missing; required)
    --count <N>           documents to write                    [default: 100]
    --seed <S>            stream seed                           [default: 42]
    --start <P>           first stream position                 [default: 0]

RESOURCE OPTIONS (disambiguate + batch + serve; --max-* also ambiguity):
    --max-bytes <N>       reject documents larger than N bytes
                          (a file's on-disk size is checked before it is
                          buffered; a pipe is read at most 1 byte past N)
    --max-nodes <N>       reject documents with more than N tree nodes
    --max-depth <N>       reject element nesting deeper than N; N may only
                          lower the 256-level ceiling      [default: 256]
    --deadline-ms <N>     per-document wall-clock budget in milliseconds

BATCH OPTIONS:
    --threads <N>         worker threads; 0 = auto, one per available
                          core (std::thread::available_parallelism)
                                                                [default: 0]
    --shards <N>          fan the batch out over N worker PROCESSES
                          (contiguous balanced slices of the input list);
                          per-document output replays in input order and
                          the merged metrics/histograms are independent
                          of N. Incompatible with --fail-fast, --trace,
                          --trace-jsonl, --slow-ms.
    --metrics <file>      write run metrics as JSON (incl. per-stage latency percentiles)
    --trace <file>        write per-document spans in Chrome trace-event format
                          (load in Perfetto or chrome://tracing; one track per worker)
    --trace-jsonl <file>  write per-document spans as JSON Lines (one object per doc)
    --slow-ms <N>         report documents slower than N ms on stderr with their
                          stage breakdown and most-missed cache concepts
    --annotate            print each document's annotated XML to stdout
    --fail-fast           stop scheduling documents after the first failure
                          (by default every document is processed)

CACHE OPTIONS (batch + serve):
    --cache-entries <N>   cap EACH similarity-cache table (pair scores,
                          context vectors) at N entries; coldest evicted
                          first (0 = unbounded)                  [default: 0]
    --cache-bytes <N>     cap the cache's total accounted heap bytes at N,
                          split across both tables (0 = unbounded)
                                                                 [default: 0]

SERVE OPTIONS (plus the shared pipeline + resource + cache options above):
    --addr <host:port>    bind address (port 0 = any free port)  [default: 127.0.0.1:8737]
    --threads <N>         concurrent worker permits; 0 = auto, one per
                          available core                         [default: 0]
    --queue <N>           bounded admission queue; requests beyond it
                          get 429 + Retry-After (0 = 4 x workers) [default: 0]
    --max-connections <N> connection cap (excess gets 503)       [default: 64]
    --slow-ms <N>         stream slow-request reports to stderr, batch format
    --metrics <file>      write the final metrics snapshot on shutdown
    Endpoints: POST /disambiguate?radius=&process=&measure=&threshold=&structure=
               GET /metrics | GET /healthz | POST /shutdown
    Shutdown:  POST /shutdown or Ctrl-C drains (in-flight requests finish);
               a second Ctrl-C aborts immediately (exit 130).

EXIT CODES (batch):
    0  every document succeeded
    2  some documents failed (each is reported on stderr with its kind),
       or a first Ctrl-C drained the batch early (cancelled slots count
       as failures; metrics/trace files are still written)
    1  all documents failed, or the invocation itself was invalid";

/// Flags that take no value.
const SWITCHES: &[&str] = &["--structure-only", "--quiet", "--annotate", "--fail-fast"];

/// The flags every pipeline-running subcommand reads: the network and
/// the pipeline configuration ([`build_config`]).
const PIPELINE_FLAGS: &[&str] = &[
    "--network",
    "--process",
    "--radius",
    "--structure-only",
    "--threshold",
];

/// The resource-limit flags [`build_limits`] reads.
const LIMIT_FLAGS: &[&str] = &["--deadline-ms", "--max-bytes", "--max-depth", "--max-nodes"];

/// The cache-budget flags [`build_cache_budget`] reads.
const CACHE_FLAGS: &[&str] = &["--cache-bytes", "--cache-entries"];

/// A subcommand's arguments: positionals plus `--flag [value]` pairs.
struct Flags<'a> {
    args: &'a [String],
}

impl<'a> Flags<'a> {
    /// Wraps `args`, rejecting any `--flag` outside the lists the
    /// subcommand `reads`, so a typo, a retired option or another
    /// subcommand's flag is a usage error instead of a silent no-op; a
    /// valued flag (any flag not in [`SWITCHES`]) without its value, so
    /// `--metrics --quiet` cannot write the metrics to a file named
    /// `--quiet`; and a flag given twice, since only its first value would
    /// be read.
    fn new(args: &'a [String], reads: &[&[&str]]) -> Result<Self, String> {
        let mut seen = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let a = args[i].as_str();
            if a.starts_with("--") {
                if !reads.iter().any(|flags| flags.contains(&a)) {
                    return Err(format!("unknown flag {a:?} (see `xsdf help`)"));
                }
                if !SWITCHES.contains(&a) {
                    match args.get(i + 1) {
                        Some(value) if !value.starts_with("--") => i += 1,
                        _ => return Err(format!("missing value for {a} (see `xsdf help`)")),
                    }
                }
                if seen.contains(&a) {
                    return Err(format!("{a} given twice"));
                }
                seen.push(a);
            }
            i += 1;
        }
        Ok(Self { args })
    }

    fn positional(&self) -> Vec<&'a str> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.args.len() {
            let a = &self.args[i];
            if a.starts_with("--") {
                if !SWITCHES.contains(&a.as_str()) {
                    i += 1; // skip the flag's value
                }
            } else {
                out.push(a.as_str());
            }
            i += 1;
        }
        out
    }

    fn value(&self, name: &str) -> Option<&'a str> {
        self.args
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    /// The flag's value parsed as `T`, or `None` when the flag is absent.
    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.value(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("bad {name} value {v:?}")),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }
}

enum Network {
    Builtin,
    Loaded(Box<semnet::SemanticNetwork>),
}

impl Network {
    fn get(&self) -> &semnet::SemanticNetwork {
        match self {
            Self::Builtin => semnet::mini_wordnet(),
            Self::Loaded(sn) => sn,
        }
    }
}

fn load_network(flags: &Flags) -> Result<Network, String> {
    match flags.value("--network") {
        None => Ok(Network::Builtin),
        Some(path) => Ok(Network::Loaded(Box::new(load_network_path(path)?))),
    }
}

/// Loads a semantic network from a path, sniffing the format: a compiled
/// snapshot (magic bytes) decodes in one pass with its artifacts already
/// built; anything else parses as the text format.
fn load_network_path(path: &str) -> Result<semnet::SemanticNetwork, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read network {path}: {e}"))?;
    if semnet::snapshot::sniff(&bytes) {
        return semnet::snapshot::decode(&bytes)
            .map_err(|e| format!("cannot load snapshot {path}: {e}"));
    }
    let text =
        String::from_utf8(bytes).map_err(|e| format!("network {path} is not UTF-8 text: {e}"))?;
    semnet::format::from_text(&text).map_err(|e| format!("cannot parse network {path}: {e}"))
}

fn build_config(flags: &Flags) -> Result<XsdfConfig, String> {
    let mut config = XsdfConfig::default();
    if let Some(radius) = flags.value("--radius") {
        config.radius = radius
            .parse()
            .map_err(|_| format!("bad --radius value {radius:?}"))?;
    }
    if let Some(process) = flags.value("--process") {
        config.process =
            parse_process(process).ok_or_else(|| format!("bad --process value {process:?}"))?;
    }
    if let Some(threshold) = flags.value("--threshold") {
        config.threshold = parse_threshold(threshold)
            .ok_or_else(|| format!("bad --threshold value {threshold:?}: {THRESHOLD_VALUES}"))?;
    }
    if flags.has("--structure-only") {
        config.structure_and_content = false;
    }
    Ok(config)
}

/// Parses the shared resource-limit flags into engine settings. A
/// `--max-depth` may only lower the nesting ceiling, never raise it.
fn build_limits(flags: &Flags) -> Result<ResourceLimits, String> {
    let mut limits = ResourceLimits::unlimited();
    if let Some(max) = flags.parsed("--max-bytes")? {
        limits = limits.max_bytes(max);
    }
    if let Some(max) = flags.parsed("--max-nodes")? {
        limits = limits.max_nodes(max);
    }
    if let Some(max) = flags.parsed("--max-depth")? {
        limits = limits.max_depth(max);
        let ceiling = limits.depth_bound();
        if max > ceiling {
            return Err(format!(
                "bad --max-depth value {max}: the ceiling is {ceiling}"
            ));
        }
    }
    if let Some(ms) = flags.parsed("--deadline-ms")? {
        limits = limits.deadline(Duration::from_millis(ms));
    }
    Ok(limits)
}

/// Why one input file could not be ingested.
enum IngestError {
    /// A typed per-document failure in the engine's taxonomy (too big,
    /// not UTF-8): reported like any other document failure, so it is
    /// counted and kind-tagged instead of sinking the whole run.
    Doc(XsdfError),
    /// A filesystem failure (missing file, permissions): an invocation
    /// problem, reported as a whole-run error.
    Io(String),
}

/// Reads one XML input with the `--max-bytes` ceiling enforced *before*
/// buffering: a regular file's on-disk length is checked against the
/// limit first, so an oversized file is rejected as a typed
/// `LimitExceeded` without `read` ever materializing it. A pipe or other
/// non-regular input reports no length, so at most one byte past the
/// limit is read from it; that byte is the first offending one. Invalid
/// UTF-8 maps to a typed parse failure (with the line/column of the first
/// bad byte) rather than an opaque io error.
fn ingest_doc(path: &str, limits: &ResourceLimits) -> Result<String, IngestError> {
    let io_error = |e: std::io::Error| IngestError::Io(format!("cannot read {path}: {e}"));
    let file = std::fs::File::open(path).map_err(io_error)?;
    let len = file.metadata().map_err(io_error)?.len();
    let max = limits.max_bytes.map_or(u64::MAX, |max| max as u64);
    let too_big = |actual| {
        IngestError::Doc(XsdfError::LimitExceeded {
            which: LimitKind::Bytes,
            limit: max,
            actual,
        })
    };
    if len > max {
        return Err(too_big(len));
    }
    let mut bytes = Vec::with_capacity(len as usize);
    file.take(max.saturating_add(1))
        .read_to_end(&mut bytes)
        .map_err(io_error)?;
    if bytes.len() as u64 > max {
        return Err(too_big(bytes.len() as u64));
    }
    let xml = runtime::utf8_document(&bytes).map_err(IngestError::Doc)?;
    Ok(xml.to_owned())
}

fn read_doc(flags: &Flags, limits: &ResourceLimits) -> Result<(String, String), String> {
    let positional = flags.positional();
    let path = positional
        .first()
        .ok_or_else(|| "missing input file (see `xsdf help`)".to_string())?;
    match ingest_doc(path, limits) {
        Ok(xml) => Ok((path.to_string(), xml)),
        Err(IngestError::Doc(e)) => Err(format!("{path}: [{}] {e}", e.kind())),
        Err(IngestError::Io(message)) => Err(message),
    }
}

fn cmd_disambiguate(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::new(args, &[PIPELINE_FLAGS, LIMIT_FLAGS, &["--quiet"]])?;
    let limits = build_limits(&flags)?;
    let (path, xml) = read_doc(&flags, &limits)?;
    let network = load_network(&flags)?;
    let config = build_config(&flags)?;
    // A one-document engine rather than `Xsdf::disambiguate_str`: the
    // engine path applies the resource limits, the deadline among them,
    // and panic isolation to interactive runs too.
    let result = BatchEngine::new(network.get(), config)
        .limits(limits)
        .process_document(&xml)
        .map_err(|e| format!("{path}: [{}] {e}", e.kind()))?;
    if !flags.has("--quiet") {
        eprintln!(
            "{path}: {} nodes, {} targets, {} senses assigned",
            result.reports.len(),
            result.targets().count(),
            result.assigned_count()
        );
        for report in &result.reports {
            if let Some((_, score)) = &report.chosen {
                // invariant: the pipeline annotates the semantic tree for
                // every report with a chosen sense
                let sense = result.semantic_tree.sense(report.node).unwrap();
                eprintln!("  {:16} -> {:24} ({score:.3})", report.label, sense.concept);
            }
        }
    }
    println!("{}", result.semantic_tree.to_annotated_xml());
    Ok(ExitCode::SUCCESS)
}

fn cmd_batch(args: &[String]) -> Result<ExitCode, String> {
    // `--shard-out` is internal: a `--shards` run passes it to its child
    // processes.
    let batch_flags = &[
        "--annotate",
        "--fail-fast",
        "--metrics",
        "--quiet",
        "--shard-out",
        "--shards",
        "--slow-ms",
        "--threads",
        "--trace",
        "--trace-jsonl",
    ];
    let flags = Flags::new(
        args,
        &[PIPELINE_FLAGS, LIMIT_FLAGS, CACHE_FLAGS, batch_flags],
    )?;
    if let Some(n) = flags.value("--shards") {
        let shards: usize = n.parse().map_err(|_| format!("bad --shards value {n:?}"))?;
        if shards == 0 {
            return Err("--shards must be at least 1".into());
        }
        return cmd_batch_sharded(&flags, shards);
    }
    let files = flags.positional();
    if files.is_empty() {
        return Err("missing input files (see `xsdf help`)".into());
    }
    let network = load_network(&flags)?;
    let config = build_config(&flags)?;
    let limits = build_limits(&flags)?;
    let threads: usize = match flags.value("--threads") {
        None => 0,
        Some(n) => n
            .parse()
            .map_err(|_| format!("bad --threads value {n:?}"))?,
    };

    // Ingest with the byte ceiling enforced up front: an oversized or
    // non-UTF-8 file becomes a typed per-document failure in its input
    // slot (never buffered when oversized); a filesystem error is still
    // a whole-run failure.
    let mut slots: Vec<Result<String, XsdfError>> = Vec::with_capacity(files.len());
    for path in &files {
        match ingest_doc(path, &limits) {
            Ok(xml) => slots.push(Ok(xml)),
            Err(IngestError::Doc(e)) => slots.push(Err(e)),
            Err(IngestError::Io(message)) => return Err(message),
        }
    }
    let docs: Vec<&str> = slots.iter().filter_map(|s| s.as_deref().ok()).collect();

    let slow_ms: Option<u64> = match flags.value("--slow-ms") {
        None => None,
        Some(n) => Some(
            n.parse()
                .map_err(|_| format!("bad --slow-ms value {n:?}"))?,
        ),
    };
    let tracing = flags.has("--trace") || flags.has("--trace-jsonl") || slow_ms.is_some();

    // First Ctrl-C stops scheduling (unstarted documents become
    // `cancelled` failures) but metrics/trace outputs are still written;
    // a second Ctrl-C aborts the process immediately.
    signal::install();
    let mut engine = BatchEngine::new(network.get(), config)
        .threads(threads)
        .limits(limits)
        .fail_fast(flags.has("--fail-fast"))
        .cancel_flag(signal::cancel_flag())
        .tracing(tracing);
    let budget = build_cache_budget(&flags)?;
    if budget.is_bounded() {
        engine = engine.cache_budget(budget);
    }
    let report = engine.run(&docs);

    // Stitch engine results back into input order around the ingest
    // failures, counting the latter into the metrics so the summary,
    // `--metrics` JSON, and shard reports all see them.
    let mut metrics = report.metrics.clone();
    let mut engine_results = report.results.iter();
    let mut failures = 0usize;
    for (path, slot) in files.iter().zip(&slots) {
        let outcome = match slot {
            // invariant: the engine got exactly the Ok slots, in order
            Ok(_) => engine_results
                .next()
                .unwrap()
                .as_ref()
                .map_err(|e| e.clone()),
            Err(e) => {
                metrics.count_document(Some(e));
                Err(e.clone())
            }
        };
        match outcome {
            Ok(result) => {
                println!(
                    "{path}\tnodes={} targets={} assigned={}",
                    result.reports.len(),
                    result.targets().count(),
                    result.assigned_count()
                );
                if flags.has("--annotate") {
                    println!("{}", result.semantic_tree.to_annotated_xml());
                }
            }
            Err(e) => {
                failures += 1;
                eprintln!("{path}: [{}] {e}", e.kind());
            }
        }
    }

    // Shard-child mode (internal, set by the `--shards` parent): ship
    // the metrics to the parent and let *it* classify the run — a child
    // whose whole slice failed must not turn into a whole-run error, or
    // shard count would change the outcome.
    if let Some(path) = flags.value("--shard-out") {
        std::fs::write(path, ShardReport::new(metrics).to_text())
            .map_err(|e| format!("cannot write shard report {path}: {e}"))?;
        return Ok(ExitCode::SUCCESS);
    }

    let m = &metrics;
    if !flags.has("--quiet") {
        print_batch_summary(m);
    }
    if let Some(path) = flags.value("--metrics") {
        std::fs::write(path, m.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if let Some(trace) = &report.trace {
        if let Some(path) = flags.value("--trace") {
            std::fs::write(path, trace.to_chrome_trace())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        if let Some(path) = flags.value("--trace-jsonl") {
            std::fs::write(path, trace.to_jsonl())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        if let Some(ms) = slow_ms {
            // Trace spans index the engine's input (the readable slots).
            let engine_paths: Vec<&str> = files
                .iter()
                .zip(&slots)
                .filter(|(_, slot)| slot.is_ok())
                .map(|(path, _)| *path)
                .collect();
            print_slow_docs(trace, &engine_paths, Duration::from_millis(ms));
        }
    }
    if signal::interrupt_count() > 0 {
        eprintln!(
            "interrupted: {} of {} document(s) cancelled before processing",
            m.failures.cancelled,
            files.len()
        );
        return Ok(ExitCode::from(EXIT_PARTIAL));
    }
    if failures == files.len() {
        return Err(format!("all {failures} document(s) failed"));
    }
    if failures > 0 {
        eprintln!("{failures} of {} document(s) failed", files.len());
        return Ok(ExitCode::from(EXIT_PARTIAL));
    }
    Ok(ExitCode::SUCCESS)
}

/// The one-line batch summary on stderr, shared between the in-process
/// batch and the sharded driver so both render merged metrics the same
/// way.
fn print_batch_summary(m: &MetricsSnapshot) {
    eprintln!(
        "{} docs ({} failed), {} nodes, {} assigned | {} threads, {:.1} ms wall | \
         {:.1} docs/s, {:.0} nodes/s | cache: {} hits / {} misses ({:.1}% hit rate)",
        m.documents,
        m.failures.total(),
        m.nodes,
        m.assigned,
        m.threads,
        m.wall_clock.as_secs_f64() * 1e3,
        m.docs_per_sec(),
        m.nodes_per_sec(),
        m.cache_hits,
        m.cache_misses,
        m.cache_hit_rate() * 100.0
    );
}

/// The batch flags a shard child inherits: every flag (with its value)
/// except the file positionals, `--shards` itself, and the outputs the
/// parent owns (`--metrics`); `--quiet` is dropped here and re-added
/// unconditionally so children never print their own summaries.
fn shard_passthrough(args: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if a.starts_with("--") {
            let boolean = SWITCHES.contains(&a.as_str());
            let drop = matches!(a.as_str(), "--shards" | "--metrics" | "--quiet");
            if !drop {
                out.push(a.clone());
            }
            if !boolean {
                if let Some(value) = args.get(i + 1) {
                    if !drop {
                        out.push(value.clone());
                    }
                }
                i += 1;
            }
        }
        i += 1;
    }
    out
}

/// `xsdf batch --shards N`: the multi-process scale-out driver.
///
/// The inputs are split into N contiguous, balanced slices in input
/// order; one child `xsdf batch` process runs per slice with the same
/// flags (plus `--quiet --shard-out <tmp>`), and the parent replays each
/// child's captured stdout/stderr in shard order — so the concatenated
/// per-document output is byte-identical for every shard count. Child
/// metrics travel back as [`ShardReport`]s and merge element-wise
/// (histograms included) via the same deterministic merge the in-process
/// executor uses across threads; the parent then overwrites the merged
/// wall clock with its own end-to-end measurement and classifies the
/// run exactly like a single process would.
fn cmd_batch_sharded(flags: &Flags, shards: usize) -> Result<ExitCode, String> {
    let files = flags.positional();
    if files.is_empty() {
        return Err("missing input files (see `xsdf help`)".into());
    }
    for banned in ["--trace", "--trace-jsonl", "--slow-ms"] {
        if flags.has(banned) {
            return Err(format!(
                "{banned} cannot be combined with --shards \
                 (per-document traces do not merge across processes)"
            ));
        }
    }
    if flags.has("--fail-fast") {
        return Err("--fail-fast cannot be combined with --shards \
                    (cross-process cancellation would make the outcome depend on shard count)"
            .into());
    }
    if flags.has("--shard-out") {
        return Err("--shard-out is internal to the shard driver".into());
    }
    let shards = shards.min(files.len());
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the xsdf binary: {e}"))?;
    let passthrough = shard_passthrough(flags.args);
    let started = Instant::now();

    // Contiguous balanced partition, earlier slices one longer when the
    // division is uneven: input order is preserved end to end.
    let base = files.len() / shards;
    let extra = files.len() % shards;
    let mut children = Vec::new();
    let mut next = 0usize;
    for shard in 0..shards {
        let take = base + usize::from(shard < extra);
        let slice = &files[next..next + take];
        next += take;
        let report_path =
            std::env::temp_dir().join(format!("xsdf-shard-{}-{shard}.report", std::process::id()));
        let child = std::process::Command::new(&exe)
            .arg("batch")
            .args(&passthrough)
            .arg("--quiet")
            .arg("--shard-out")
            .arg(&report_path)
            .args(slice.iter())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn shard {shard}: {e}"))?;
        children.push((report_path, child));
    }

    // Collect in shard order: each child's streams replay whole and in
    // input order, so the interleaving matches a single-process run.
    let mut reports: Vec<ShardReport> = Vec::new();
    let mut shard_errors: Vec<String> = Vec::new();
    for (shard, (report_path, child)) in children.into_iter().enumerate() {
        let output = child
            .wait_with_output()
            .map_err(|e| format!("cannot wait for shard {shard}: {e}"))?;
        {
            use std::io::Write as _;
            std::io::stdout().write_all(&output.stdout).ok();
            std::io::stderr().write_all(&output.stderr).ok();
        }
        let text = std::fs::read_to_string(&report_path);
        std::fs::remove_file(&report_path).ok();
        if !output.status.success() {
            shard_errors.push(format!("shard {shard} failed ({})", output.status));
            continue;
        }
        match text {
            Ok(text) => match ShardReport::from_text(&text) {
                Ok(report) => reports.push(report),
                Err(e) => shard_errors.push(format!("shard {shard}: {e}")),
            },
            Err(e) => shard_errors.push(format!("shard {shard} wrote no report: {e}")),
        }
    }
    if !shard_errors.is_empty() {
        return Err(shard_errors.join("; "));
    }
    // invariant: shards >= 1 and every shard either reported or errored
    let mut merged = ShardReport::merge_all(&reports).unwrap();
    // The merged wall clock is the max over shards (they overlap); the
    // parent's own measurement is the true end-to-end elapsed time.
    merged.wall_clock = started.elapsed();

    if !flags.has("--quiet") {
        print_batch_summary(&merged);
    }
    if let Some(path) = flags.value("--metrics") {
        std::fs::write(path, merged.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    let failures = merged.failures.total();
    if failures == files.len() {
        return Err(format!("all {failures} document(s) failed"));
    }
    if failures > 0 {
        eprintln!("{failures} of {} document(s) failed", files.len());
        return Ok(ExitCode::from(EXIT_PARTIAL));
    }
    Ok(ExitCode::SUCCESS)
}

/// `xsdf gen-corpus --out <dir>`: materializes a slice of the streaming
/// evaluation corpus as XML files — one file per stream position, named
/// `doc-<position>.xml` so shell glob order equals stream order. The
/// stream is generated lazily (one document in memory at a time), so
/// `--count 1000000` works in constant memory; `--start` resumes
/// mid-stream for incremental or sharded materialization.
fn cmd_gen_corpus(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::new(args, &[&["--count", "--out", "--seed", "--start"]])?;
    let out = flags.value("--out").ok_or("missing --out <dir>")?;
    let count: u64 = flags.parsed("--count")?.unwrap_or(100);
    let seed: u64 = flags.parsed("--seed")?.unwrap_or(42);
    let start: u64 = flags.parsed("--start")?.unwrap_or(0);
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    let sn = semnet::mini_wordnet();
    let mut bytes_total = 0u64;
    for pos in start..start.saturating_add(count) {
        let doc = corpus::stream::document_at(sn, seed, pos);
        let xml = xmltree::serialize::to_string_compact(&doc.doc);
        let path = std::path::Path::new(out).join(format!("doc-{pos:08}.xml"));
        std::fs::write(&path, &xml).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        bytes_total += xml.len() as u64;
    }
    eprintln!(
        "wrote {count} document(s) ({bytes_total} bytes) to {out} \
         (seed {seed}, positions {start}..{})",
        start.saturating_add(count)
    );
    Ok(ExitCode::SUCCESS)
}

/// Reports every document at or over the slow threshold on stderr:
/// the file, its end-to-end time, the per-stage breakdown, and the
/// concepts whose cache misses cost it most.
fn print_slow_docs(trace: &runtime::Trace, files: &[&str], threshold: Duration) {
    let slow = trace.slow_docs(threshold);
    if slow.is_empty() {
        eprintln!(
            "no documents at or over {:.1} ms",
            threshold.as_secs_f64() * 1e3
        );
        return;
    }
    // The formatter is shared with `xsdf serve --slow-ms`, so batch and
    // server reports stay byte-identical per span.
    eprintln!("{}", report::slow_header(slow.len(), threshold));
    for span in slow {
        let path = files.get(span.doc).copied().unwrap_or("?");
        eprint!("{}", report::slow_span_report(path, span));
    }
}

fn cmd_ambiguity(args: &[String]) -> Result<ExitCode, String> {
    // `--quiet` is taken as disambiguate and batch take it, so one flag
    // set drives all three; the table is the whole output, so there is
    // no report for it to drop.
    let reads = [
        "--max-bytes",
        "--max-depth",
        "--max-nodes",
        "--network",
        "--quiet",
    ];
    let flags = Flags::new(args, &[&reads])?;
    let limits = build_limits(&flags)?;
    let (path, xml) = read_doc(&flags, &limits)?;
    let network = load_network(&flags)?;
    let sn = network.get();
    let failed = |e: XsdfError| format!("{path}: [{}] {e}", e.kind());
    let doc = limits.parse(&xml).map_err(failed)?;
    let framework = Xsdf::new(sn, XsdfConfig::default());
    let tree = framework.build_tree(&doc);
    limits.check_nodes(tree.len()).map_err(failed)?;
    println!("{:>8}  {:>7}  {:>5}  label", "Amb_Deg", "senses", "depth");
    let mut rows: Vec<(f64, usize, u32, String)> = tree
        .preorder()
        .map(|n| {
            let degree =
                xsdf::ambiguity::ambiguity_degree(sn, &tree, n, xsdf::AmbiguityWeights::equal());
            let senses = sn
                .senses_normalized(tree.label(n), lingproc::porter_stem)
                .len();
            (degree, senses, tree.depth(n), tree.label(n).to_string())
        })
        .collect();
    rows.sort_by(|a, b| b.0.total_cmp(&a.0));
    for (degree, senses, depth, label) in rows {
        println!("{degree:>8.4}  {senses:>7}  {depth:>5}  {label}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_network(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::new(args, &[&["--export", "--network"]])?;
    let network = load_network(&flags)?;
    let sn = network.get();
    if let Some(path) = flags.value("--export") {
        std::fs::write(path, semnet::format::to_text(sn))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("exported {} concepts to {path}", sn.len());
        return Ok(ExitCode::SUCCESS);
    }
    println!("concepts:       {}", sn.len());
    println!("vocabulary:     {}", sn.vocabulary_size());
    println!("typed edges:    {}", sn.all_edges().count());
    println!("max depth:      {}", sn.max_depth());
    println!("max polysemy:   {}", sn.max_polysemy());
    println!("total frequency:{}", sn.total_frequency());
    Ok(ExitCode::SUCCESS)
}

/// `xsdf compile-network [<network>] [--wndb <dir>] --out <file>`:
/// builds a network from a text export, a WNDB directory, or the builtin
/// MiniWordNet, forces its scoring artifacts, and writes the compiled
/// snapshot the `--network` flag can then cold-start from.
fn cmd_compile_network(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::new(args, &[&["--out", "--wndb"]])?;
    let out_path = flags.value("--out").ok_or("missing --out <file>")?;
    let inputs = flags.positional();
    let sn = match (flags.value("--wndb"), inputs.first()) {
        (Some(_), Some(_)) => {
            return Err("pass either a network file or --wndb <dir>, not both".into())
        }
        (Some(dir), None) => {
            let mut importer = semnet::wndb::WndbImporter::new();
            for (name, pos) in [
                ("data.noun", semnet::PartOfSpeech::Noun),
                ("data.verb", semnet::PartOfSpeech::Verb),
                ("data.adj", semnet::PartOfSpeech::Adjective),
                ("data.adv", semnet::PartOfSpeech::Adverb),
            ] {
                let path = std::path::Path::new(dir).join(name);
                if !path.exists() {
                    continue;
                }
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                importer
                    .add_data(&text, pos)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                eprintln!("{}: {} synsets so far", path.display(), importer.len());
            }
            if importer.is_empty() {
                return Err(format!("no data.{{noun,verb,adj,adv}} files under {dir:?}"));
            }
            importer.build().map_err(|e| e.to_string())?
        }
        (None, Some(path)) => load_network_path(path)?,
        (None, None) => semnet::mini_wordnet().clone(),
    };
    // Force the artifact build now so the snapshot carries it and loads
    // never recompute it.
    let art = sn.gloss_artifacts();
    let vocab = art.vocab_len();
    let (bytes, layout) = semnet::snapshot::encode_with_layout(&sn);
    std::fs::write(out_path, &bytes).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    eprintln!(
        "compiled {} concepts, {} edges, {} interned tokens into {out_path} ({} bytes, {} sections)",
        sn.len(),
        sn.all_edges().count(),
        vocab,
        bytes.len(),
        layout.len() - 1, // the final entry marks the end, not a section
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_import_wndb(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::new(args, &[&["--out"]])?;
    let inputs = flags.positional();
    if inputs.is_empty() {
        return Err("missing WNDB data files (e.g. data.noun)".into());
    }
    let out_path = flags.value("--out").ok_or("missing --out <file>")?;
    let mut importer = semnet::wndb::WndbImporter::new();
    for path in inputs {
        // Infer the part of speech from the file name suffix.
        let pos = if path.ends_with("noun") {
            semnet::PartOfSpeech::Noun
        } else if path.ends_with("verb") {
            semnet::PartOfSpeech::Verb
        } else if path.ends_with("adj") {
            semnet::PartOfSpeech::Adjective
        } else if path.ends_with("adv") {
            semnet::PartOfSpeech::Adverb
        } else {
            return Err(format!("cannot infer part of speech from {path:?}"));
        };
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        importer
            .add_data(&text, pos)
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!("{path}: {} synsets so far", importer.len());
    }
    let sn = importer.build().map_err(|e| e.to_string())?;
    std::fs::write(out_path, semnet::format::to_text(&sn))
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    eprintln!("wrote {} concepts to {out_path}", sn.len());
    Ok(ExitCode::SUCCESS)
}

/// Parses the shared `--cache-entries` / `--cache-bytes` budget flags
/// (0 = unbounded, the historical behavior).
fn build_cache_budget(flags: &Flags) -> Result<CacheBudget, String> {
    Ok(CacheBudget {
        max_entries: flags.parsed("--cache-entries")?.unwrap_or(0),
        max_bytes: flags.parsed("--cache-bytes")?.unwrap_or(0),
    })
}

/// Parses the `serve` flags into a [`ServerConfig`].
fn build_server_config(flags: &Flags) -> Result<ServerConfig, String> {
    let base = build_config(flags)?;
    let mut config = ServerConfig {
        base,
        limits: build_limits(flags)?,
        ..ServerConfig::default()
    };
    if let Some(addr) = flags.value("--addr") {
        config.addr = addr.to_string();
    }
    if let Some(workers) = flags.parsed("--threads")? {
        config.workers = workers;
    }
    if let Some(queue) = flags.parsed("--queue")? {
        config.queue = queue;
    }
    if let Some(max) = flags.parsed("--max-connections")? {
        config.max_connections = max;
    }
    config.slow = flags.parsed("--slow-ms")?.map(Duration::from_millis);
    config.cache_budget = build_cache_budget(flags)?;
    Ok(config)
}

fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    let serve_flags = &[
        "--addr",
        "--max-connections",
        "--metrics",
        "--queue",
        "--slow-ms",
        "--threads",
    ];
    let flags = Flags::new(
        args,
        &[PIPELINE_FLAGS, LIMIT_FLAGS, CACHE_FLAGS, serve_flags],
    )?;
    let network = load_network(&flags)?;
    let config = build_server_config(&flags)?;
    let bind_addr = config.addr.clone();

    signal::install();
    let server =
        Server::bind(network.get(), config).map_err(|e| format!("cannot bind {bind_addr}: {e}"))?;
    let handle = server.handle();
    eprintln!(
        "listening on {} ({} workers, queue {})",
        server.local_addr(),
        server.workers(),
        server.queue_capacity()
    );

    let summary = std::thread::scope(|s| {
        // Ctrl-C watcher: `signal()` installs with SA_RESTART semantics,
        // so the blocking accept loop won't see an EINTR — a sidecar
        // thread turns the first SIGINT into an orderly drain instead.
        s.spawn(|| loop {
            if signal::interrupt_count() > 0 {
                handle.shutdown();
                break;
            }
            if handle.is_stopped() {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        });
        server.run()
    });

    if let Some(path) = flags.value("--metrics") {
        std::fs::write(path, &summary.metrics_json)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    eprintln!(
        "drained: {} document(s) ({} failed), {} response(s) over {} connection(s)",
        summary.documents, summary.failed, summary.responses, summary.connections
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_senses(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::new(args, &[&["--network"]])?;
    let positional = flags.positional();
    let word = positional
        .first()
        .ok_or_else(|| "missing word".to_string())?;
    let network = load_network(&flags)?;
    let sn = network.get();
    let senses = sn.senses_normalized(word, lingproc::porter_stem);
    if senses.is_empty() {
        println!("{word}: no senses in the network");
        return Ok(ExitCode::SUCCESS);
    }
    println!("{word}: {} sense(s)", senses.len());
    for &c in senses {
        let concept = sn.concept(c);
        println!(
            "  {:24} freq {:>4}  [{}]  {}",
            concept.key,
            concept.frequency,
            concept.lemmas.join(", "),
            concept.gloss
        );
    }
    Ok(ExitCode::SUCCESS)
}
