//! XSDF benchmark: end-to-end metrics (untraced) or per-layer metrics
//! (traced) for one named workload.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch-concept --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Everything else goes to stderr. See `perfbench/README.md` for the
//! workloads, the metrics and which layer each one belongs to.

mod e2e;
mod layers;
mod report;
mod spans;
mod workload;

use workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} value {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    format!(
                        "unknown workload {value:?} (one of {})",
                        workload::NAMES.join(", ")
                    )
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace value {value:?} (0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let w = &args.workload;
    // The compiled network every set-up decodes, as `xsdf
    // compile-network` would write it.
    let snapshot = semnet::snapshot::encode(semnet::mini_wordnet());
    let prepare = || {
        let t = std::time::Instant::now();
        let inputs = workload::prepare(w, args.seed)?;
        eprintln!(
            "{}: seed {}, {} documents and their expected outputs prepared in {:.2}s",
            w.name,
            args.seed,
            inputs.docs.len(),
            t.elapsed().as_secs_f64()
        );
        Ok::<_, String>(inputs)
    };
    let outcome = if args.trace {
        prepare().and_then(|inputs| layers::run(w, &inputs, &snapshot, args.seed))
    } else {
        e2e::measure_setup(w, &snapshot).and_then(|(setup_s, sn)| {
            let inputs = prepare()?;
            e2e::run(w, &inputs, &setup_s, &sn, &snapshot, args.seconds)
        })
    };
    match outcome {
        Ok(outcome) => {
            eprint!("{}", outcome.table());
            println!("{}", outcome.to_json());
            if !outcome.correct() {
                eprintln!(
                    "error: {} of {} outputs wrong",
                    outcome.failed, outcome.attempted
                );
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
