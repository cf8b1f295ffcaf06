//! The untraced run: end-to-end metrics as a user of `xsdf batch` or
//! `xsdf serve` sees them. No benchmark spans are recorded here.

use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use runtime::BatchEngine;
use semnet::SemanticNetwork;
use server::{Server, ServerConfig};

use crate::report::{median, peak_rss_mb, percentile_sorted, Metric, Outcome};
use crate::workload::{Inputs, Kind, Workload, THREADS};

/// Set-ups at the start of a run (more follow during it, see [`run`]).
const SETUP_REPS: usize = 11;

/// At least this many timed batches or rounds, however short the window.
const MIN_REPS: usize = 5;

/// Requests per closed-loop round. The serve pool is several rounds long,
/// so a run sees every pool document at least once and documents recur
/// only after the budgeted cache has turned over.
const SERVE_ROUND: usize = 200;

/// `setup_s` holds the set-up samples taken by [`measure_setup`], which
/// also decoded `sn`.
///
/// Host speed drifts on a scale of seconds, so one more set-up is timed
/// after every batch or round and `setup_s` is the median of all of them.
pub fn run(
    w: &Workload,
    inputs: &Inputs,
    setup_s: &[f64],
    sn: &SemanticNetwork,
    snapshot: &[u8],
    seconds: f64,
) -> Result<Outcome, String> {
    let window = Duration::from_secs_f64(seconds);
    let mut setup_s = setup_s.to_vec();
    let mut sample_setup = || {
        let (secs, _) = setup_once(w, snapshot).expect("the same set-up succeeded before the run");
        setup_s.push(secs);
    };
    let run = match w.kind {
        Kind::Batch => run_batch(w, sn, inputs, window, &mut sample_setup),
        Kind::Serve => run_serve(w, sn, inputs, window, &mut sample_setup)?,
    };
    let mut lat = run.latencies_ms;
    lat.sort_by(f64::total_cmp);
    eprintln!(
        "{}: {} documents ({} bytes) per {}, docs_per_s over {} timed reps {}, \
         {} latency samples, setup_s over {} set-ups {}",
        w.name,
        w.docs,
        inputs.bytes(),
        match w.kind {
            Kind::Batch => "batch".to_string(),
            Kind::Serve => format!("pool, rounds of {SERVE_ROUND}"),
        },
        run.rates.len(),
        spread(&run.rates),
        lat.len(),
        setup_s.len(),
        spread(&setup_s),
    );
    Ok(Outcome {
        attempted: run.attempted,
        failed: run.failed,
        metrics: vec![
            Metric {
                name: "docs_per_s",
                value: median(&run.rates),
                unit: "1/s",
            },
            Metric {
                name: "latency_p50_ms",
                value: percentile_sorted(&lat, 50.0),
                unit: "ms",
            },
            Metric {
                name: "latency_p99_ms",
                value: percentile_sorted(&lat, 99.0),
                unit: "ms",
            },
            Metric {
                name: "setup_s",
                value: median(&setup_s),
                unit: "s",
            },
            Metric {
                name: "peak_rss_mb",
                value: peak_rss_mb(),
                unit: "MB",
            },
        ],
    })
}

/// Time from workload start until the first document can be accepted:
/// decode the compiled network (the `--network <snap>` path, never
/// memoized), construct the engine, and for serve bind the listener.
/// Returns the time and the decoded network.
fn setup_once(w: &Workload, snapshot: &[u8]) -> Result<(f64, SemanticNetwork), String> {
    let t = Instant::now();
    let sn = semnet::snapshot::decode(snapshot).map_err(|e| format!("snapshot: {e}"))?;
    match w.kind {
        Kind::Batch => {
            let engine = BatchEngine::new(&sn, w.config.clone())
                .threads(THREADS)
                .cache_budget(w.budget);
            std::hint::black_box(&engine);
        }
        Kind::Serve => {
            let server =
                Server::bind(&sn, server_config(w, THREADS)).map_err(|e| format!("bind: {e}"))?;
            std::hint::black_box(&server);
        }
    }
    Ok((t.elapsed().as_secs_f64(), sn))
}

/// [`SETUP_REPS`] set-ups at the start of the run, before inputs are
/// generated. Returns the samples and the last decoded network.
pub fn measure_setup(w: &Workload, snapshot: &[u8]) -> Result<(Vec<f64>, SemanticNetwork), String> {
    let mut samples = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // Free the previous network first, so every decode starts from the
        // same allocator state.
        drop(last.take());
        let (secs, sn) = setup_once(w, snapshot)?;
        samples.push(secs);
        last = Some(sn);
    }
    Ok((samples, last.expect("SETUP_REPS > 0")))
}

/// `[min median max]` of samples, for the stderr log.
fn spread(samples: &[f64]) -> String {
    let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    format!("[{min:.4} {:.4} {max:.4}]", median(samples))
}

pub fn server_config(w: &Workload, workers: usize) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        base: w.config.clone(),
        cache_budget: w.budget,
        // Idle connections notice the final drain within this quantum.
        quantum: Duration::from_millis(20),
        ..ServerConfig::default()
    }
}

struct Run {
    /// Correct documents per second, one sample per timed batch/round.
    rates: Vec<f64>,
    latencies_ms: Vec<f64>,
    attempted: usize,
    failed: usize,
}

/// Cold `BatchEngine` batches back to back. Even batches give
/// `docs_per_s` (wall of `run` plus serializing every result); odd batches
/// switch on the engine's own per-document spans and give the per-document
/// latency (worker pick-up to result). Outputs are checked between batches.
fn run_batch(
    w: &Workload,
    sn: &SemanticNetwork,
    inputs: &Inputs,
    window: Duration,
    sample_setup: &mut dyn FnMut(),
) -> Run {
    let docs = inputs.doc_refs();
    let mut run = Run {
        rates: Vec::new(),
        latencies_ms: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let started = Instant::now();
    let mut batch = 0usize;
    while started.elapsed() < window || batch < 2 * MIN_REPS {
        let with_spans = batch % 2 == 1;
        {
            let engine = BatchEngine::new(sn, w.config.clone())
                .threads(THREADS)
                .cache_budget(w.budget)
                .tracing(with_spans);
            let t = Instant::now();
            let report = engine.run(&docs);
            let outputs: Vec<Option<String>> = report
                .results
                .iter()
                .map(|r| r.as_ref().ok().map(|d| d.semantic_tree.to_annotated_xml()))
                .collect();
            let wall = t.elapsed().as_secs_f64();

            let failed = inputs.mismatches(&outputs);
            run.attempted += docs.len();
            run.failed += failed;
            if with_spans {
                let spans = report.trace.map(|t| t.spans).unwrap_or_default();
                run.latencies_ms
                    .extend(spans.iter().map(|s| (s.end - s.start).as_secs_f64() * 1e3));
            } else {
                run.rates.push((docs.len() - failed) as f64 / wall);
            }
        }
        // After the batch's results are freed, so the extra network does
        // not add to the batch's peak memory.
        sample_setup();
        batch += 1;
    }
    run
}

/// One client's view of a response: which document, how long, and
/// whether the body was the expected annotated XML.
struct Reply {
    doc: usize,
    latency: Duration,
    status: u16,
    body: Vec<u8>,
}

/// A closed loop of [`THREADS`] keep-alive connections against an
/// in-process server. Rounds of [`SERVE_ROUND`] documents walk the
/// document pool in order, wrapping around (the next document goes to
/// whichever connection is free); round 0 is an untimed warm-up that fills
/// the budgeted cache. `docs_per_s` is the median round rate; latency is
/// every timed request, send to full response. Bodies are checked between
/// rounds.
fn run_serve(
    w: &Workload,
    sn: &SemanticNetwork,
    inputs: &Inputs,
    window: Duration,
    sample_setup: &mut dyn FnMut(),
) -> Result<Run, String> {
    let server = Server::bind(sn, server_config(w, THREADS)).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    std::thread::scope(|s| {
        let serving = s.spawn(|| server.run());
        let run = drive_closed_loop(&addr, inputs, window, sample_setup);
        handle.shutdown();
        serving
            .join()
            .map_err(|_| "server thread panicked".to_string())?;
        run
    })
}

fn drive_closed_loop(
    addr: &str,
    inputs: &Inputs,
    window: Duration,
    sample_setup: &mut dyn FnMut(),
) -> Result<Run, String> {
    let mut conns: Vec<Option<(TcpStream, Vec<u8>)>> = (0..THREADS).map(|_| None).collect();
    let mut run = Run {
        rates: Vec::new(),
        latencies_ms: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let mut timed_from = None;
    let mut round = 0usize;
    while timed_from.is_none_or(|t: Instant| t.elapsed() < window) || run.rates.len() < MIN_REPS {
        let first = round * SERVE_ROUND;
        let next = AtomicUsize::new(0);
        let t = Instant::now();
        let replies: Vec<Reply> = std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .iter_mut()
                .map(|conn| {
                    let next = &next;
                    s.spawn(move || client_loop(addr, conn, inputs, first, next))
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_default())
                .collect()
        });
        let wall = t.elapsed().as_secs_f64();

        let failed = replies
            .iter()
            .filter(|r| r.status != 200 || !body_matches(&r.body, &inputs.expected[r.doc]))
            .count()
            + SERVE_ROUND.saturating_sub(replies.len());
        run.attempted += SERVE_ROUND;
        run.failed += failed;
        if round > 0 {
            run.rates.push((SERVE_ROUND - failed) as f64 / wall);
            run.latencies_ms
                .extend(replies.iter().map(|r| r.latency.as_secs_f64() * 1e3));
        } else {
            timed_from = Some(Instant::now());
        }
        sample_setup();
        round += 1;
    }
    Ok(run)
}

/// The server answers with the annotated XML plus a trailing newline,
/// the same bytes `xsdf batch --annotate` prints.
pub fn body_matches(body: &[u8], expected: &str) -> bool {
    body.strip_suffix(b"\n") == Some(expected.as_bytes())
}

/// Sends the round's documents (pool positions `first..first +
/// SERVE_ROUND`, wrapping) as claimed from `next`, until the round is
/// exhausted. A transport error drops the connection; the reply is then
/// missing and counts as failed.
fn client_loop(
    addr: &str,
    conn: &mut Option<(TcpStream, Vec<u8>)>,
    inputs: &Inputs,
    first: usize,
    next: &AtomicUsize,
) -> Vec<Reply> {
    let mut replies = Vec::new();
    loop {
        let claimed = next.fetch_add(1, Ordering::Relaxed);
        if claimed >= SERVE_ROUND {
            return replies;
        }
        let doc = (first + claimed) % inputs.docs.len();
        if conn.is_none() {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    stream.set_nodelay(true).ok();
                    *conn = Some((stream, Vec::new()));
                }
                Err(_) => continue,
            }
        }
        let (stream, carry) = conn.as_mut().expect("connected above");
        let t = Instant::now();
        match server::http::client_roundtrip(
            stream,
            carry,
            "POST",
            "/disambiguate",
            &[("Content-Type", "application/xml")],
            inputs.docs[doc].as_bytes(),
        ) {
            Ok(response) => {
                let latency = t.elapsed();
                if response.close {
                    *conn = None;
                }
                replies.push(Reply {
                    doc,
                    latency,
                    status: response.status,
                    body: response.body,
                });
            }
            Err(_) => *conn = None,
        }
    }
}
