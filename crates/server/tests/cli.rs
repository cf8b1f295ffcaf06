//! Integration tests of the `xsdf` command-line tool, driving the real
//! binary via `CARGO_BIN_EXE_xsdf`.

use std::process::Command;

fn xsdf() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xsdf"))
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("xsdf-cli-test-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).unwrap();
    path
}

#[test]
fn disambiguate_prints_annotated_xml() {
    let doc = write_temp(
        "fig1.xml",
        "<films><picture><cast><star>Kelly</star></cast></picture></films>",
    );
    let output = xsdf()
        .arg("disambiguate")
        .arg(&doc)
        .arg("--quiet")
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("concept=\"kelly.grace\""), "{stdout}");
    assert!(stdout.contains("concept=\"cast.actors\""));
}

#[test]
fn disambiguate_honors_flags() {
    let doc = write_temp("flags.xml", "<cast><star>Kelly</star></cast>");
    let output = xsdf()
        .arg("disambiguate")
        .arg(&doc)
        .args([
            "--radius",
            "1",
            "--process",
            "combined",
            "--threshold",
            "auto",
            "--quiet",
        ])
        .output()
        .unwrap();
    assert!(output.status.success());
}

#[test]
fn ambiguity_ranks_nodes() {
    let doc = write_temp(
        "amb.xml",
        "<person><address><state/><zip/></address></person>",
    );
    let output = xsdf().arg("ambiguity").arg(&doc).output().unwrap();
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("state"));
    // The first data row (highest Amb_Deg) should be the polysemous,
    // shallow "state", not the near-monosemous "zip".
    let first_data_line = stdout.lines().nth(1).unwrap();
    assert!(first_data_line.ends_with("state"), "{first_data_line}");
}

#[test]
fn senses_lists_inventory() {
    let output = xsdf().args(["senses", "state"]).output().unwrap();
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("8 sense(s)"));
    assert!(stdout.contains("state.province"));
}

#[test]
fn network_stats_and_export_roundtrip() {
    let out = std::env::temp_dir().join(format!("xsdf-cli-export-{}.sn", std::process::id()));
    let status = xsdf()
        .args(["network", "--export"])
        .arg(&out)
        .status()
        .unwrap();
    assert!(status.success());
    // The exported network loads back and drives disambiguation.
    let doc = write_temp("roundtrip.xml", "<cast><star>Kelly</star></cast>");
    let output = xsdf()
        .arg("disambiguate")
        .arg(&doc)
        .arg("--network")
        .arg(&out)
        .arg("--quiet")
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(String::from_utf8_lossy(&output.stdout).contains("kelly.grace"));
    let _ = std::fs::remove_file(out);
}

#[test]
fn compile_network_snapshot_drives_batch_identically() {
    let pid = std::process::id();
    let snap = std::env::temp_dir().join(format!("xsdf-cli-snap-{pid}.snap"));
    // Compile the builtin MiniWordNet (no positional input).
    let output = xsdf()
        .args(["compile-network", "--out"])
        .arg(&snap)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("compiled"), "{stderr}");
    // Snapshot files start with the magic, not text.
    let bytes = std::fs::read(&snap).unwrap();
    assert_eq!(&bytes[..8], b"XSDFSNAP");

    // Batch output against the snapshot is byte-identical to the builtin
    // rebuild, across thread counts.
    let doc1 = write_temp(
        "snap1.xml",
        "<films><picture><cast><star>Kelly</star><star>Stewart</star></cast></picture></films>",
    );
    let doc2 = write_temp("snap2.xml", "<person><address><state/></address></person>");
    let run = |network: Option<&std::path::PathBuf>, threads: &str| {
        let mut cmd = xsdf();
        cmd.arg("batch").arg(&doc1).arg(&doc2).args([
            "--annotate",
            "--quiet",
            "--threads",
            threads,
        ]);
        if let Some(n) = network {
            cmd.arg("--network").arg(n);
        }
        let output = cmd.output().unwrap();
        assert!(
            output.status.success(),
            "{}",
            String::from_utf8_lossy(&output.stderr)
        );
        String::from_utf8(output.stdout).unwrap()
    };
    let rebuilt = run(None, "1");
    for threads in ["1", "2", "8"] {
        assert_eq!(rebuilt, run(Some(&snap), threads), "threads={threads}");
    }
    let _ = std::fs::remove_file(snap);
}

#[test]
fn compile_network_accepts_text_input_and_wndb_dir() {
    let pid = std::process::id();
    // From a text export.
    let text = write_temp(
        "compile-input.sn",
        "concept a.n | n | 2 | alpha | first letter\n\
         concept b.n | n | 1 | beta | second letter\n\
         rel b.n isa a.n\n",
    );
    let snap = std::env::temp_dir().join(format!("xsdf-cli-snap-text-{pid}.snap"));
    let output = xsdf()
        .arg("compile-network")
        .arg(&text)
        .arg("--out")
        .arg(&snap)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(String::from_utf8_lossy(&output.stderr).contains("compiled 2 concepts"));
    // The snapshot answers sense queries.
    let output = xsdf()
        .args(["senses", "beta", "--network"])
        .arg(&snap)
        .output()
        .unwrap();
    assert!(output.status.success());
    assert!(String::from_utf8_lossy(&output.stdout).contains("b.n"));

    // From a WNDB directory.
    let dir = std::env::temp_dir().join(format!("xsdf-cli-wndb-dir-{pid}"));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("data.noun"),
        "00001740 03 n 01 entity 0 001 ~ 00001930 n 0000 | that which exists\n\
         00001930 03 n 01 thing 0 001 @ 00001740 n 0000 | a distinct entity\n",
    )
    .unwrap();
    let snap2 = std::env::temp_dir().join(format!("xsdf-cli-snap-wndb-{pid}.snap"));
    let output = xsdf()
        .args(["compile-network", "--wndb"])
        .arg(&dir)
        .arg("--out")
        .arg(&snap2)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let output = xsdf()
        .args(["senses", "thing", "--network"])
        .arg(&snap2)
        .output()
        .unwrap();
    assert!(output.status.success());
    assert!(String::from_utf8_lossy(&output.stdout).contains("n-00001930"));
    let _ = std::fs::remove_file(snap);
    let _ = std::fs::remove_file(snap2);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn corrupt_snapshot_is_a_clean_cli_error() {
    let pid = std::process::id();
    let snap = std::env::temp_dir().join(format!("xsdf-cli-snap-corrupt-{pid}.snap"));
    let output = xsdf()
        .args(["compile-network", "--out"])
        .arg(&snap)
        .output()
        .unwrap();
    assert!(output.status.success());
    // Flip a byte inside the payload: checksum must catch it, as an
    // error message, not a panic.
    let mut bytes = std::fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&snap, &bytes).unwrap();
    let doc = write_temp("corrupt-net.xml", "<cast><star>Kelly</star></cast>");
    let output = xsdf()
        .arg("disambiguate")
        .arg(&doc)
        .arg("--network")
        .arg(&snap)
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("checksum"), "{stderr}");
    let _ = std::fs::remove_file(snap);
}

#[test]
fn import_wndb_converts_fixture() {
    let data = write_temp(
        "data.noun",
        "00001740 03 n 01 entity 0 001 ~ 00001930 n 0000 | that which exists\n\
         00001930 03 n 01 thing 0 001 @ 00001740 n 0000 | a separate and distinct entity\n",
    );
    let out = std::env::temp_dir().join(format!("xsdf-cli-wndb-{}.sn", std::process::id()));
    let output = xsdf()
        .arg("import-wndb")
        .arg(&data)
        .arg("--out")
        .arg(&out)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = std::fs::read_to_string(&out).unwrap();
    assert!(text.contains("concept n-00001740"));
    assert!(text.contains("rel n-00001930 isa n-00001740"));
    let _ = std::fs::remove_file(out);
}

#[test]
fn batch_processes_files_and_writes_metrics() {
    let doc1 = write_temp(
        "batch1.xml",
        "<films><picture><cast><star>Kelly</star></cast></picture></films>",
    );
    let doc2 = write_temp("batch2.xml", "<cast><star>Stewart</star></cast>");
    let metrics =
        std::env::temp_dir().join(format!("xsdf-batch-metrics-{}.json", std::process::id()));
    let output = xsdf()
        .arg("batch")
        .arg(&doc1)
        .arg(&doc2)
        .args(["--threads", "2", "--metrics"])
        .arg(&metrics)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    // One summary line per file, in input order.
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert!(lines[0].contains("batch1.xml") && lines[0].contains("nodes="));
    assert!(lines[1].contains("batch2.xml"));
    let json = std::fs::read_to_string(&metrics).unwrap();
    for key in [
        "\"documents\": 2",
        "\"cache_hits\":",
        "\"cache_misses\":",
        "\"wall_clock_ms\":",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    let _ = std::fs::remove_file(metrics);
}

#[test]
fn batch_trace_flags_write_spans_and_report_slow_docs() {
    let doc1 = write_temp(
        "trace1.xml",
        "<films><picture><cast><star>Kelly</star></cast></picture></films>",
    );
    let doc2 = write_temp("trace2.xml", "<cast><star>Stewart</star></cast>");
    let pid = std::process::id();
    let chrome = std::env::temp_dir().join(format!("xsdf-cli-trace-{pid}.json"));
    let jsonl = std::env::temp_dir().join(format!("xsdf-cli-trace-{pid}.jsonl"));
    let output = xsdf()
        .arg("batch")
        .arg(&doc1)
        .arg(&doc2)
        .args(["--threads", "2", "--slow-ms", "0", "--trace"])
        .arg(&chrome)
        .arg("--trace-jsonl")
        .arg(&jsonl)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let chrome_json = std::fs::read_to_string(&chrome).unwrap();
    assert!(chrome_json.starts_with("{\"traceEvents\":["));
    assert!(chrome_json.contains("\"worker-0\""));
    assert!(chrome_json.contains("\"doc 0 (ok)\""));
    assert!(chrome_json.contains("\"name\":\"disambiguate\""));
    let jsonl_text = std::fs::read_to_string(&jsonl).unwrap();
    assert_eq!(jsonl_text.lines().count(), 2);
    assert!(jsonl_text.lines().all(|l| l.contains("\"outcome\":\"ok\"")));
    // --slow-ms 0 reports every document with its stage breakdown.
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("slow document(s)"), "{stderr}");
    assert!(stderr.contains("trace1.xml"), "{stderr}");
    assert!(stderr.contains("disambiguate"), "{stderr}");
    let _ = std::fs::remove_file(chrome);
    let _ = std::fs::remove_file(jsonl);
}

#[test]
fn batch_metrics_include_latency_percentiles() {
    let doc = write_temp("lat.xml", "<cast><star>Kelly</star></cast>");
    let metrics = std::env::temp_dir().join(format!("xsdf-cli-lat-{}.json", std::process::id()));
    let output = xsdf()
        .arg("batch")
        .arg(&doc)
        .args(["--threads", "1", "--metrics"])
        .arg(&metrics)
        .output()
        .unwrap();
    assert!(output.status.success());
    let json = std::fs::read_to_string(&metrics).unwrap();
    for group in ["parse", "preprocess", "select", "disambiguate", "doc"] {
        for stat in ["p50", "p90", "p99", "max"] {
            let key = format!("\"{group}_{stat}_ms\":");
            assert!(json.contains(&key), "missing {key} in {json}");
        }
    }
    let _ = std::fs::remove_file(metrics);
}

#[test]
fn batch_output_is_thread_count_invariant() {
    let docs: Vec<_> = (0..6)
        .map(|i| {
            write_temp(
                &format!("inv{i}.xml"),
                "<films><picture><cast><star>Kelly</star><star>Stewart</star></cast></picture></films>",
            )
        })
        .collect();
    let run = |threads: &str| {
        let output = xsdf()
            .arg("batch")
            .args(&docs)
            .args(["--annotate", "--threads", threads])
            .output()
            .unwrap();
        assert!(output.status.success());
        String::from_utf8(output.stdout).unwrap()
    };
    let serial = run("1");
    assert_eq!(serial, run("2"));
    assert_eq!(serial, run("8"));
    assert!(serial.contains("concept=\"kelly.grace\""));
}

#[test]
fn batch_isolates_bad_documents_and_exits_2() {
    let good = write_temp("ok.xml", "<cast><star>Kelly</star></cast>");
    let bad = write_temp("bad.xml", "<unclosed");
    let output = xsdf().arg("batch").arg(&good).arg(&bad).output().unwrap();
    // Partial failure: the good document still processed, exit code 2.
    assert_eq!(output.status.code(), Some(2));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stdout.contains("ok.xml"), "{stdout}");
    assert!(stderr.contains("bad.xml"), "{stderr}");
    assert!(stderr.contains("[parse]"), "{stderr}");
    assert!(stderr.contains("1 of 2 document(s) failed"), "{stderr}");
}

#[test]
fn batch_where_everything_fails_exits_1() {
    let bad = write_temp("allbad.xml", "<unclosed");
    let output = xsdf().arg("batch").arg(&bad).output().unwrap();
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("all 1 document(s) failed"), "{stderr}");
}

#[test]
fn batch_resource_flags_reject_oversized_documents() {
    let good = write_temp("lim-ok.xml", "<cast><star>Kelly</star></cast>");
    let deep = write_temp(
        "lim-deep.xml",
        &("<a>".repeat(40) + "x" + &"</a>".repeat(40)),
    );
    let output = xsdf()
        .arg("batch")
        .arg(&good)
        .arg(&deep)
        .args(["--max-depth", "16", "--threads", "1"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("[limit]"), "{stderr}");
    assert!(stderr.contains("depth"), "{stderr}");
}

#[test]
fn disambiguate_applies_limits_too() {
    let doc = write_temp("one-limit.xml", "<cast><star>Kelly</star></cast>");
    let output = xsdf()
        .arg("disambiguate")
        .arg(&doc)
        .args(["--max-bytes", "4", "--quiet"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("[limit]"), "{stderr}");
    // Without the flag the same document succeeds.
    let output = xsdf()
        .arg("disambiguate")
        .arg(&doc)
        .arg("--quiet")
        .output()
        .unwrap();
    assert!(output.status.success());
}

#[test]
fn max_depth_above_the_ceiling_is_a_usage_error() {
    // Deep enough to overflow the stack if the parser were allowed to
    // follow it: the flag must be refused before any document is read.
    let deep = "<n>".repeat(100_000) + &"</n>".repeat(100_000);
    let doc = write_temp("too-deep.xml", &deep);
    for command in ["batch", "disambiguate", "ambiguity"] {
        let output = xsdf()
            .arg(command)
            .arg(&doc)
            .args(["--max-depth", "1000000", "--quiet"])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{command}: {stderr}");
        assert!(
            stderr.contains("--max-depth") && stderr.contains("256"),
            "{stderr}"
        );
    }
    // The ceiling itself is accepted.
    let shallow = write_temp("ceiling.xml", "<cast><star>Kelly</star></cast>");
    let output = xsdf()
        .arg("disambiguate")
        .arg(&shallow)
        .args(["--max-depth", "256", "--quiet"])
        .output()
        .unwrap();
    assert!(output.status.success());
}

/// `xsdf ambiguity` on a 10-deep document fails with a `[limit]` error
/// under `flag value`, and prints its table without the flag.
fn assert_ambiguity_limit(flag: &str, value: &str) {
    let deep = "<picture>".repeat(10) + &"</picture>".repeat(10);
    let doc = write_temp(&format!("amb{flag}.xml"), &deep);
    let output = xsdf()
        .arg("ambiguity")
        .arg(&doc)
        .args([flag, value])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{flag}: {stderr}");
    assert!(stderr.contains("[limit]"), "{flag}: {stderr}");
    assert!(output.stdout.is_empty(), "{flag}: no table on failure");
    let output = xsdf().arg("ambiguity").arg(&doc).output().unwrap();
    assert!(output.status.success());
}

#[test]
fn ambiguity_applies_max_depth() {
    assert_ambiguity_limit("--max-depth", "5");
}

#[test]
fn ambiguity_applies_max_bytes() {
    assert_ambiguity_limit("--max-bytes", "5");
}

#[test]
fn ambiguity_applies_max_nodes() {
    assert_ambiguity_limit("--max-nodes", "2");
}

#[test]
fn batch_rejects_contradictory_failure_modes() {
    let doc = write_temp("contradictory.xml", "<a/>");
    let output = xsdf()
        .arg("batch")
        .arg(&doc)
        .args(["--keep-going", "--fail-fast"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&output.stderr).contains("mutually exclusive"));
}

#[test]
fn unknown_command_fails_with_usage() {
    for command in ["frobnicate", "bench-serve"] {
        let output = xsdf().arg(command).output().unwrap();
        assert_eq!(output.status.code(), Some(1), "{command}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("unknown command \"{command}\"")),
            "{stderr}"
        );
        assert!(stderr.contains("USAGE"), "{stderr}");
    }
}

#[test]
fn unknown_flags_are_usage_errors() {
    let doc = write_temp("unknown-flag.xml", "<cast><star>Kelly</star></cast>");
    for (command, args) in [
        ("batch", &["--prune", "exact"][..]),
        ("batch", &["--max-sense-pairs", "5"]),
        ("disambiguate", &["--radus", "2"]),
        ("batch", &["--soak"]),
        ("batch", &["--connections", "2"]),
    ] {
        let flag = args[0];
        let output = xsdf().arg(command).arg(&doc).args(args).output().unwrap();
        assert_eq!(output.status.code(), Some(1), "{command} {flag}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("unknown flag \"{flag}\"")),
            "{flag}: {stderr}"
        );
        assert!(output.stdout.is_empty(), "{flag} must not run the command");
    }
}

/// A valued flag takes the next argument as its value, so a flag left
/// without one, or followed by another flag, is a usage error: it used to
/// run with the default, or write `--metrics` to a file named `--quiet`.
#[test]
fn valued_flags_without_a_value_are_usage_errors() {
    let doc = write_temp("missing-value.xml", "<cast><star>Kelly</star></cast>");
    let dir = std::env::temp_dir().join(format!("xsdf-cli-missing-value-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (command, args) in [
        ("batch", &["--metrics", "--quiet"][..]),
        ("batch", &["--metrics"]),
        ("disambiguate", &["--radius"]),
    ] {
        let flag = args[0];
        let output = xsdf()
            .current_dir(&dir)
            .arg(command)
            .arg(&doc)
            .args(args)
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(1), "{command} {args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("missing value for {flag}")),
            "{args:?}: {stderr}"
        );
        assert!(
            output.stdout.is_empty(),
            "{args:?} must not run the command"
        );
    }
    assert!(
        std::fs::read_dir(&dir).unwrap().next().is_none(),
        "no metrics file may be written"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// A flag given twice is a usage error: only the first value used to be
/// read, so `--radius 1 --radius 9` ran at radius 1 and a second
/// `--metrics` file was never written.
#[test]
fn repeated_flags_are_usage_errors() {
    let doc = write_temp("repeated-flag.xml", "<cast><star>Kelly</star></cast>");
    let dir = std::env::temp_dir().join(format!("xsdf-cli-repeated-flag-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (command, args) in [
        ("disambiguate", &["--radius", "1", "--radius", "9"][..]),
        ("batch", &["--metrics", "m1.json", "--metrics", "m2.json"]),
    ] {
        let flag = args[0];
        let output = xsdf()
            .current_dir(&dir)
            .arg(command)
            .arg(&doc)
            .args(args)
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(1), "{command} {args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("error: {flag} given twice")),
            "{args:?}: {stderr}"
        );
        assert!(
            output.stdout.is_empty(),
            "{args:?} must not run the command"
        );
    }
    assert!(
        std::fs::read_dir(&dir).unwrap().next().is_none(),
        "no metrics file may be written"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// `--threshold` takes what `?threshold=` takes: `auto` or a number in
/// [0, 1]. Any other float, NaN included, used to run as a fixed
/// threshold.
#[test]
fn thresholds_outside_the_unit_range_are_usage_errors() {
    let doc = write_temp("threshold.xml", "<cast><star>Kelly</star></cast>");
    for command in ["disambiguate", "batch"] {
        for value in ["1.5", "nan", "-1"] {
            let output = xsdf()
                .arg(command)
                .arg(&doc)
                .args(["--threshold", value, "--quiet"])
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert_eq!(output.status.code(), Some(1), "{command} {value}: {stderr}");
            assert!(
                stderr.contains(&format!("error: bad --threshold value \"{value}\"")),
                "{command} {value}: {stderr}"
            );
            assert!(!stderr.contains("panicked"), "{command} {value}: {stderr}");
            assert!(
                output.stdout.is_empty(),
                "{command} {value} must not run the command"
            );
        }
    }
    for value in ["0", "1", "0.25", "auto"] {
        let output = xsdf()
            .arg("disambiguate")
            .arg(&doc)
            .args(["--threshold", value, "--quiet"])
            .output()
            .unwrap();
        assert!(output.status.success(), "{value}");
    }
}

#[test]
fn missing_file_is_a_clean_error() {
    let output = xsdf()
        .args(["disambiguate", "/nonexistent/file.xml"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("cannot read"));
}

fn write_temp_bytes(name: &str, contents: &[u8]) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("xsdf-cli-test-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).unwrap();
    path
}

/// Extracts an integer field from the `--metrics` JSON.
fn json_u64(json: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\": ");
    let at = json
        .find(&needle)
        .unwrap_or_else(|| panic!("no {key} in {json}"));
    json[at + needle.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap()
}

#[test]
fn batch_max_bytes_rejects_from_file_metadata() {
    let good = write_temp("meta-ok.xml", "<a/>");
    let big = write_temp("meta-big.xml", "<cast><star>Kelly</star></cast>");
    let size = std::fs::metadata(&big).unwrap().len();
    let output = xsdf()
        .arg("batch")
        .arg(&good)
        .arg(&big)
        .args(["--max-bytes", "10", "--threads", "1"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("[limit]"), "{stderr}");
    // The reported actual is the whole on-disk size, which the ingest
    // check takes from fs::metadata before the file is read.
    assert!(stderr.contains(&format!("exceeded ({size})")), "{stderr}");
    assert!(stderr.contains("1 of 2 document(s) failed"), "{stderr}");
}

#[test]
fn non_utf8_input_is_a_typed_parse_error() {
    let good = write_temp("utf8-ok.xml", "<a/>");
    let bad = write_temp_bytes("utf8-bad.xml", b"<a>\xff\xfe</a>");
    let output = xsdf().arg("batch").arg(&good).arg(&bad).output().unwrap();
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("[parse]"), "{stderr}");
    assert!(stderr.contains("not valid UTF-8"), "{stderr}");
    // The error pinpoints where the bytes stop being UTF-8.
    assert!(stderr.contains("line 1, column 4"), "{stderr}");
    // Single-document mode fails the whole run with the same typed error.
    let output = xsdf().args(["disambiguate"]).arg(&bad).output().unwrap();
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("not valid UTF-8"), "{stderr}");
}

#[test]
fn gen_corpus_is_deterministic_and_resumable() {
    let pid = std::process::id();
    let dir_a = std::env::temp_dir().join(format!("xsdf-cli-gen-a-{pid}"));
    let dir_b = std::env::temp_dir().join(format!("xsdf-cli-gen-b-{pid}"));
    let gen = |dir: &std::path::Path, count: &str, start: &str| {
        let output = xsdf()
            .args([
                "gen-corpus",
                "--count",
                count,
                "--seed",
                "7",
                "--start",
                start,
                "--out",
            ])
            .arg(dir)
            .output()
            .unwrap();
        assert!(
            output.status.success(),
            "{}",
            String::from_utf8_lossy(&output.stderr)
        );
    };
    gen(&dir_a, "12", "0");
    // Same slice regenerated elsewhere, in two resumed halves.
    gen(&dir_b, "6", "0");
    gen(&dir_b, "6", "6");
    let mut names: Vec<String> = std::fs::read_dir(&dir_a)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(names.len(), 12);
    assert_eq!(names[0], "doc-00000000.xml");
    assert_eq!(names[11], "doc-00000011.xml");
    for name in &names {
        let a = std::fs::read(dir_a.join(name)).unwrap();
        let b = std::fs::read(dir_b.join(name)).unwrap();
        assert_eq!(a, b, "{name} differs between full and resumed generation");
    }
    let _ = std::fs::remove_dir_all(dir_a);
    let _ = std::fs::remove_dir_all(dir_b);
}

#[test]
fn sharded_batch_is_shard_count_invariant() {
    let pid = std::process::id();
    let dir = std::env::temp_dir().join(format!("xsdf-cli-shardinv-{pid}"));
    let status = xsdf()
        .args(["gen-corpus", "--count", "7", "--seed", "3", "--out"])
        .arg(&dir)
        .status()
        .unwrap();
    assert!(status.success());
    let mut docs: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    docs.sort();
    // One unparseable document exercises failure accounting across the
    // process boundary.
    let bad = dir.join("doc-zz-bad.xml");
    std::fs::write(&bad, "<unclosed").unwrap();
    docs.push(bad);

    let run = |shards: &str| {
        let metrics = std::env::temp_dir().join(format!("xsdf-cli-shardinv-{pid}-{shards}.json"));
        let output = xsdf()
            .arg("batch")
            .args(&docs)
            .args(["--threads", "1", "--shards", shards, "--metrics"])
            .arg(&metrics)
            .output()
            .unwrap();
        // Partial failure classifies identically at every shard count.
        assert_eq!(output.status.code(), Some(2), "shards={shards}");
        let json = std::fs::read_to_string(&metrics).unwrap();
        let _ = std::fs::remove_file(metrics);
        (String::from_utf8(output.stdout).unwrap(), json)
    };
    let (stdout1, json1) = run("1");
    let (stdout2, json2) = run("2");
    let (stdout4, json4) = run("4");
    // Per-document output is byte-identical regardless of shard count.
    assert_eq!(stdout1, stdout2);
    assert_eq!(stdout1, stdout4);
    assert!(stdout1.contains("doc-00000000.xml"), "{stdout1}");
    // Work-accounting metrics are invariant too, scoring work included
    // (cache and throughput figures legitimately vary: each process has
    // its own cold cache).
    for key in [
        "documents",
        "failed_documents",
        "failed_parse",
        "failed_limit",
        "failed_deadline",
        "failed_panic",
        "failed_cancelled",
        "nodes",
        "targets",
        "assigned",
        "candidates_pruned",
        "sense_pairs",
    ] {
        let v1 = json_u64(&json1, key);
        assert_eq!(v1, json_u64(&json2, key), "{key} differs at --shards 2");
        assert_eq!(v1, json_u64(&json4, key), "{key} differs at --shards 4");
    }
    assert_eq!(json_u64(&json1, "documents"), 8);
    assert_eq!(json_u64(&json1, "failed_documents"), 1);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn sharded_batch_rejects_unmergeable_flags() {
    let doc = write_temp("shard-flags.xml", "<a/>");
    for banned in [
        ["--shards", "2", "--fail-fast", ""],
        ["--shards", "2", "--slow-ms", "5"],
    ] {
        let output = xsdf()
            .arg("batch")
            .arg(&doc)
            .args(banned.iter().filter(|a| !a.is_empty()))
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(1));
        assert!(
            String::from_utf8_lossy(&output.stderr).contains("cannot be combined with --shards"),
            "banned={banned:?}"
        );
    }
}
