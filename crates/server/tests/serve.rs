//! End-to-end protocol tests for `xsdf serve`: in-process servers driven
//! over real loopback sockets, plus process-level tests of the binary.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Command, Stdio};
use std::time::Duration;

use runtime::ResourceLimits;
use server::http::{self, ClientResponse};
use server::{Server, ServerConfig, ServerSummary};

const HEALTHY: &str = "<films><picture><cast><star>Kelly</star></cast></picture></films>";

/// Binds a server on a free loopback port, runs `f` against it, then
/// drains and returns the final summary.
fn with_server<F>(mut config: ServerConfig, f: F) -> ServerSummary
where
    F: FnOnce(SocketAddr),
{
    let sn = semnet::mini_wordnet();
    config.addr = "127.0.0.1:0".to_string();
    let server = Server::bind(sn, config).expect("bind loopback server");
    let addr = server.local_addr();
    let handle = server.handle();
    let mut summary = None;
    std::thread::scope(|scope| {
        let run = scope.spawn(|| server.run());
        // A panicking test body must still drain the server, or the scope
        // join would hang forever on the accept loop.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(addr)));
        handle.shutdown();
        summary = Some(run.join().expect("server thread"));
        if let Err(panic) = outcome {
            std::panic::resume_unwind(panic);
        }
    });
    summary.unwrap()
}

/// One fresh-connection request (convenience for single-shot tests).
fn request(addr: SocketAddr, method: &str, target: &str, body: &[u8]) -> ClientResponse {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut carry = Vec::new();
    http::client_roundtrip(
        &mut stream,
        &mut carry,
        method,
        target,
        &[("Content-Type", "application/xml")],
        body,
    )
    .expect("roundtrip")
}

fn body_str(response: &ClientResponse) -> String {
    String::from_utf8_lossy(&response.body).into_owned()
}

/// A fixed generated corpus, serialized compact.
fn corpus_documents() -> Vec<String> {
    let sn = semnet::mini_wordnet();
    corpus::Corpus::generate_small(sn, 11, 2)
        .documents()
        .iter()
        .map(|d| xmltree::serialize::to_string_compact(&d.doc))
        .collect()
}

#[test]
fn healthz_metrics_and_routing() {
    with_server(ServerConfig::default(), |addr| {
        let health = request(addr, "GET", "/healthz", b"");
        assert_eq!(health.status, 200);
        assert!(body_str(&health).contains("\"status\":\"ok\""));

        let metrics = request(addr, "GET", "/metrics", b"");
        assert_eq!(metrics.status, 200);
        let json = body_str(&metrics);
        for key in [
            "\"server_state\":",
            "\"documents\":",
            "\"queue_capacity\":",
            "\"uptime_ms\":",
            "\"endpoint_healthz_requests\":",
        ] {
            assert!(json.contains(key), "metrics JSON missing {key}: {json}");
        }

        let missing = request(addr, "GET", "/nope", b"");
        assert_eq!(missing.status, 404);

        let wrong_method = request(addr, "DELETE", "/disambiguate", b"");
        assert_eq!(wrong_method.status, 405);
        assert_eq!(wrong_method.header("allow"), Some("POST"));
    });
}

#[test]
fn healthz_reports_readiness_and_memory_state() {
    with_server(ServerConfig::default(), |addr| {
        let health = request(addr, "GET", "/healthz", b"");
        assert_eq!(health.status, 200);
        let body = body_str(&health);
        assert!(
            body.starts_with("{\"status\":\"ok\",\"ready\":true,\"uptime_ms\":"),
            "{body}"
        );
        assert!(body.contains(",\"cache_bytes\":0}"), "{body}");
        assert!(!body.contains("degraded"), "{body}");
    });
}

#[test]
fn disambiguate_returns_annotated_xml() {
    let summary = with_server(ServerConfig::default(), |addr| {
        let response = request(addr, "POST", "/disambiguate", HEALTHY.as_bytes());
        assert_eq!(response.status, 200, "{}", body_str(&response));
        assert_eq!(response.header("content-type"), Some("application/xml"));
        assert!(response.header("x-xsdf-nodes").is_some());
        assert!(response.header("x-xsdf-targets").is_some());
        assert!(response.header("x-xsdf-assigned").is_some());
        let body = body_str(&response);
        assert!(body.starts_with("<element"), "{body}");
        assert!(body.contains("concept="), "annotations present: {body}");
        assert!(body.ends_with('\n'), "annotated XML ends with newline");
    });
    assert_eq!(summary.documents, 1);
    assert_eq!(summary.failed, 0);
}

#[test]
fn malformed_http_gets_400_and_close() {
    // RFC 9112 §6.3: a signed `Content-Length` and two of them are framing
    // errors, not a 7-byte body followed by a pipelined request.
    let requests: [&[u8]; 3] = [
        b"THIS IS NOT HTTP\r\n\r\n",
        b"POST /disambiguate HTTP/1.1\r\nContent-Length: +7\r\n\r\n<cast/>",
        b"POST /disambiguate HTTP/1.1\r\nContent-Length: 7\r\nContent-Length: 70\r\n\r\n<cast/>",
    ];
    with_server(ServerConfig::default(), |addr| {
        for raw_request in requests {
            let shown = String::from_utf8_lossy(raw_request);
            let mut stream = TcpStream::connect(addr).expect("connect");
            // A kept-alive connection would leave the read below waiting.
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            stream.write_all(raw_request).expect("write request");
            let mut raw = String::new();
            stream
                .read_to_string(&mut raw)
                .unwrap_or_else(|e| panic!("{shown:?}: no close after the response: {e}"));
            assert!(raw.starts_with("HTTP/1.1 400 "), "{shown:?}: {raw}");
            assert!(raw.contains("\"kind\":\"bad_request\""), "{shown:?}: {raw}");
        }
    });
}

#[test]
fn malformed_xml_gets_400_parse_kind() {
    with_server(ServerConfig::default(), |addr| {
        let response = request(addr, "POST", "/disambiguate", b"<broken");
        assert_eq!(response.status, 400);
        assert!(body_str(&response).contains("\"kind\":\"parse\""));
    });
}

#[test]
fn bad_query_parameters_get_400() {
    with_server(ServerConfig::default(), |addr| {
        for target in [
            "/disambiguate?radius=banana",
            "/disambiguate?process=quantum",
            "/disambiguate?raduis=2", // typo must not silently pass
        ] {
            let response = request(addr, "POST", target, HEALTHY.as_bytes());
            assert_eq!(response.status, 400, "{target}");
            assert!(body_str(&response).contains("\"kind\":\"bad_request\""));
        }
    });
}

#[test]
fn oversized_body_gets_413_limit_kind() {
    let config = ServerConfig {
        limits: ResourceLimits::unlimited().max_bytes(64),
        ..ServerConfig::default()
    };
    with_server(config, |addr| {
        let big = "x".repeat(1024);
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut carry = Vec::new();
        let response = http::client_roundtrip(
            &mut stream,
            &mut carry,
            "POST",
            "/disambiguate",
            &[("Content-Type", "application/xml")],
            big.as_bytes(),
        )
        .expect("roundtrip");
        assert_eq!(response.status, 413);
        assert!(body_str(&response).contains("\"kind\":\"limit\""));
        assert!(response.close, "oversized request closes the connection");
    });
}

#[test]
fn deadline_gets_504_deadline_kind() {
    let config = ServerConfig {
        limits: ResourceLimits::unlimited().deadline(Duration::from_nanos(1)),
        ..ServerConfig::default()
    };
    with_server(config, |addr| {
        let response = request(addr, "POST", "/disambiguate", HEALTHY.as_bytes());
        assert_eq!(response.status, 504, "{}", body_str(&response));
        assert!(body_str(&response).contains("\"kind\":\"deadline\""));
    });
}

/// Saturates a 1-worker, 1-slot-queue server with closed-loop clients:
/// backpressure must answer 429 + `Retry-After`, and every response must
/// be either a success or an explicit rejection — nothing hangs, nothing
/// is silently dropped.
#[test]
fn queue_full_gets_429_with_retry_after() {
    let config = ServerConfig {
        workers: 1,
        queue: 1,
        ..ServerConfig::default()
    };
    let docs = corpus_documents();
    let summary = with_server(config, |addr| {
        let saw_429 = std::sync::atomic::AtomicUsize::new(0);
        let saw_200 = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for worker in 0..12 {
                let docs = &docs;
                let saw_429 = &saw_429;
                let saw_200 = &saw_200;
                scope.spawn(move || {
                    let deadline = std::time::Instant::now() + Duration::from_secs(2);
                    let mut next = worker;
                    while std::time::Instant::now() < deadline {
                        let doc = &docs[next % docs.len()];
                        next += 1;
                        let response = request(addr, "POST", "/disambiguate", doc.as_bytes());
                        match response.status {
                            200 => {
                                saw_200.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            }
                            429 => {
                                assert_eq!(
                                    response.header("retry-after"),
                                    Some("1"),
                                    "429 must carry Retry-After"
                                );
                                assert!(body_str(&response).contains("\"kind\":\"overloaded\""));
                                saw_429.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            }
                            other => panic!("unexpected status {other}"),
                        }
                        // Enough evidence from this worker.
                        if saw_429.load(std::sync::atomic::Ordering::Relaxed) > 0
                            && saw_200.load(std::sync::atomic::Ordering::Relaxed) > 0
                        {
                            break;
                        }
                    }
                });
            }
        });
        assert!(
            saw_200.load(std::sync::atomic::Ordering::Relaxed) > 0,
            "some requests must be admitted"
        );
        assert!(
            saw_429.load(std::sync::atomic::Ordering::Relaxed) > 0,
            "a saturated 1-worker server must shed load with 429"
        );
    });
    assert!(summary.metrics_json.contains("\"rejected_queue_full\":"));
}

/// The same document posted by concurrent clients (cold cache, warm
/// cache, interleaved) must produce byte-identical annotated XML.
#[test]
fn concurrent_clients_get_byte_identical_responses() {
    with_server(ServerConfig::default(), |addr| {
        let bodies: Vec<Vec<u8>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        for _ in 0..3 {
                            let response =
                                request(addr, "POST", "/disambiguate", HEALTHY.as_bytes());
                            assert_eq!(response.status, 200);
                            out.push(response.body);
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect()
        });
        assert_eq!(bodies.len(), 12);
        for body in &bodies[1..] {
            assert_eq!(body, &bodies[0], "responses must be byte-identical");
        }
    });
}

/// Shutdown must drain: every request the engine processed corresponds to
/// a complete response delivered to a client, at 1, 2, and 8 workers.
#[test]
fn shutdown_drains_accepted_requests_at_1_2_and_8_workers() {
    let docs = corpus_documents();
    for workers in [1usize, 2, 8] {
        let config = ServerConfig {
            workers,
            ..ServerConfig::default()
        };
        let delivered_200 = std::sync::atomic::AtomicUsize::new(0);
        let summary = with_server(config, |addr| {
            std::thread::scope(|scope| {
                for worker in 0..workers * 2 {
                    let docs = &docs;
                    let delivered_200 = &delivered_200;
                    scope.spawn(move || {
                        let mut stream = match TcpStream::connect(addr) {
                            Ok(s) => s,
                            Err(_) => return, // drain already closed the door
                        };
                        let mut carry = Vec::new();
                        for i in 0..5 {
                            let doc = &docs[(worker + i) % docs.len()];
                            match http::client_roundtrip(
                                &mut stream,
                                &mut carry,
                                "POST",
                                "/disambiguate",
                                &[("Content-Type", "application/xml")],
                                doc.as_bytes(),
                            ) {
                                Ok(response) if response.status == 200 => {
                                    delivered_200
                                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                    if response.close {
                                        break;
                                    }
                                }
                                // 503 draining / 429, or the drain cut the
                                // connection: both are clean rejections.
                                Ok(_) | Err(_) => break,
                            }
                        }
                    });
                }
                // Let some requests through, then drain mid-stream.
                std::thread::sleep(Duration::from_millis(20));
                let shutdown = request(addr, "POST", "/shutdown", b"");
                assert_eq!(shutdown.status, 200);
                assert!(body_str(&shutdown).contains("\"status\":\"draining\""));
            });
        });
        assert_eq!(
            summary.documents,
            delivered_200.load(std::sync::atomic::Ordering::Relaxed),
            "workers={workers}: every processed document must reach a client"
        );
        assert!(
            summary
                .metrics_json
                .contains("\"server_state\": \"stopped\"")
                || summary
                    .metrics_json
                    .contains("\"server_state\":\"stopped\""),
            "workers={workers}: final snapshot taken after the drain barrier"
        );
    }
}

/// A draining server must refuse new work with 503 + `Retry-After`.
#[test]
fn requests_during_drain_get_503() {
    let sn = semnet::mini_wordnet();
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    };
    let server = Server::bind(sn, config).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    std::thread::scope(|scope| {
        let run = scope.spawn(|| server.run());
        // Open a keep-alive connection while running, then drain, then try
        // to use it: the pipelined request must get an explicit 503.
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut carry = Vec::new();
        let first = http::client_roundtrip(&mut stream, &mut carry, "GET", "/healthz", &[], b"")
            .expect("healthz while running");
        assert_eq!(first.status, 200);

        handle.shutdown();
        // The request may race the drain flag: a connection closed by the
        // idle reaper is an equally clean drain, but if a response comes,
        // it must be the structured rejection.
        if let Ok(response) = http::client_roundtrip(
            &mut stream,
            &mut carry,
            "POST",
            "/disambiguate",
            &[("Content-Type", "application/xml")],
            HEALTHY.as_bytes(),
        ) {
            assert_eq!(response.status, 503, "{}", body_str(&response));
            assert_eq!(response.header("retry-after"), Some("1"));
            assert!(body_str(&response).contains("\"kind\":\"draining\""));
        }
        run.join().expect("server thread");
    });
}

/// Sends `head` at once, then `trickle` one byte per 10 ms, each byte well
/// inside the server's read quantum, until the server stops reading.
/// Signals `started` once the request's first byte is out; returns the
/// response, how long after that first byte it came, and whether the
/// server closed the connection after it.
fn trickle(
    addr: SocketAddr,
    head: &[u8],
    trickle: &[u8],
    started: std::sync::mpsc::Sender<()>,
) -> (ClientResponse, Duration, bool) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let t0 = std::time::Instant::now();
    let (first, rest) = if head.is_empty() {
        trickle.split_at(1)
    } else {
        (head, trickle)
    };
    writer.write_all(first).expect("first bytes");
    started.send(()).expect("signal start");
    let rest = rest.to_vec();
    let feeder = std::thread::spawn(move || {
        for byte in rest.chunks(1) {
            std::thread::sleep(Duration::from_millis(10));
            if writer.write_all(byte).is_err() {
                break;
            }
        }
    });
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let response = http::read_client_response(&mut stream, &mut Vec::new()).expect("a response");
    let answered = t0.elapsed();
    stream
        .set_read_timeout(Some(Duration::from_secs(1)))
        .expect("read timeout");
    let closed = match stream.read(&mut [0u8; 64]) {
        Ok(n) => n == 0,
        Err(e) => !matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
    };
    feeder.join().expect("feeder thread");
    (response, answered, closed)
}

/// A started request must finish within the read deadline even when every
/// byte arrives inside one read quantum: a client trickling its head, or
/// its declared body, gets a 408 and a close, and a drain issued meanwhile
/// does not wait for the trickle to end.
#[test]
fn trickling_clients_meet_the_read_deadline_and_do_not_block_drain() {
    let config = ServerConfig {
        read_timeout: Duration::from_millis(300),
        quantum: Duration::from_millis(20),
        ..ServerConfig::default()
    };
    // 300 bytes at 10 ms each outlast the read deadline tenfold.
    let endless_head = format!("POST /disambiguate HTTP/1.1\r\nX-Pad: {}", "a".repeat(260));
    let body_head = "POST /disambiguate HTTP/1.1\r\nContent-Length: 300\r\n\r\n";
    let body = "a".repeat(300);
    let mut clients = Vec::new();
    let mut shutdown_at = None;
    with_server(config, |addr| {
        let (started_tx, started) = std::sync::mpsc::channel();
        for (head, rest) in [("", endless_head), (body_head, body)] {
            let started_tx = started_tx.clone();
            clients.push(std::thread::spawn(move || {
                trickle(addr, head.as_bytes(), rest.as_bytes(), started_tx)
            }));
        }
        for _ in 0..2 {
            started.recv().expect("client started");
        }
        // The accept queue is first in, first out: once a later connection
        // is answered, both trickling ones have been accepted.
        assert_eq!(request(addr, "GET", "/healthz", b"").status, 200);
        // Returning drains the server while both requests are mid-read.
        shutdown_at = Some(std::time::Instant::now());
    });
    let drained_in = shutdown_at.expect("the body ran").elapsed();
    assert!(
        drained_in < Duration::from_secs(2),
        "drain took {drained_in:?}"
    );
    for (which, client) in ["head", "body"].into_iter().zip(clients) {
        let (response, answered, closed) = client.join().expect("client thread");
        assert_eq!(response.status, 408, "{which}: {}", body_str(&response));
        assert!(response.close, "{which}: the 408 announces the close");
        assert!(
            answered < Duration::from_secs(1),
            "{which}: answered after {answered:?}"
        );
        assert!(closed, "{which}: the server closes the connection");
    }
}

/// The number a flat metrics JSON object holds under `key`.
fn json_number<T: std::str::FromStr>(json: &str, key: &str) -> T {
    let needle = format!("\"{key}\": ");
    let at = json
        .find(&needle)
        .unwrap_or_else(|| panic!("no {key} in {json}"));
    json[at + needle.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | '-'))
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("{key} is not a number of the expected type in {json}"))
}

/// The unsigned integer a flat metrics JSON object holds under `key`.
fn json_u64(json: &str, key: &str) -> u64 {
    json_number(json, key)
}

/// `/metrics` describes the same work the same way a batch does: the
/// documents posted one at a time to a 1-worker server read the exact
/// counters a 1-thread `BatchEngine::run` reports over the same inputs,
/// and a 2-thread run reads the counters that do not depend on how the
/// workers shared the cache.
#[test]
fn serve_metrics_match_batch_metrics_on_the_same_documents() {
    let sn = semnet::mini_wordnet();
    let mut docs: Vec<String> = corpus::Corpus::generate_small(sn, 7, 2)
        .documents()
        .iter()
        .map(|d| xmltree::serialize::to_string_pretty(&d.doc))
        .collect();
    docs.push("<a></b>".to_string());
    assert_eq!(docs.len(), 21);

    let config = xsdf::XsdfConfig {
        process: xsdf::DisambiguationProcess::Combined {
            concept: 0.5,
            context: 0.5,
        },
        ..xsdf::XsdfConfig::default()
    };
    let refs: Vec<&str> = docs.iter().map(String::as_str).collect();
    let run = |threads| {
        runtime::BatchEngine::new(sn, config.clone())
            .threads(threads)
            .run(&refs)
            .metrics
            .to_json()
    };
    let (batch, pooled) = (run(1), run(2));

    let mut served = String::new();
    let server_config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    with_server(server_config, |addr| {
        for doc in &docs {
            request(
                addr,
                "POST",
                "/disambiguate?process=combined",
                doc.as_bytes(),
            );
        }
        served = body_str(&request(addr, "GET", "/metrics", b""));
    });
    for key in [
        "documents",
        "failed_documents",
        "failed_parse",
        "nodes",
        "targets",
        "assigned",
        "cache_hits",
        "cache_misses",
        "cache_entries",
        "gloss_pairs_scored",
        "vectors_built",
        "vectors_reused",
        "vector_entries",
        "candidates_pruned",
        "sense_pairs",
    ] {
        assert_eq!(
            json_u64(&served, key),
            json_u64(&batch, key),
            "{key}: /metrics {served}\nbatch {batch}"
        );
    }
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
        "sense_pairs",
        "candidates_pruned",
    ] {
        assert_eq!(
            json_u64(&pooled, key),
            json_u64(&batch, key),
            "{key}: 2 threads {pooled}\nbatch {batch}"
        );
    }
    assert_eq!(json_u64(&pooled, "threads"), 2, "{pooled}");
    assert_eq!(json_u64(&batch, "failed_parse"), 1);
    assert!(json_u64(&batch, "nodes") > 0 && json_u64(&batch, "cache_misses") > 0);
    // `/metrics` reports the worker count as `threads` and the uptime as
    // the wall clock.
    assert_eq!(json_u64(&served, "threads"), 1, "{served}");
    assert!(
        json_number::<f64>(&served, "wall_clock_ms") > 0.0,
        "{served}"
    );
}

/// A body that is not UTF-8 is a `parse` failure naming the first bad
/// byte's position, and `/metrics` counts it the way `xsdf batch` counts
/// a non-UTF-8 file: one more document, one more `failed_parse`.
#[test]
fn non_utf8_body_is_a_counted_parse_failure() {
    with_server(ServerConfig::default(), |addr| {
        let ok = request(addr, "POST", "/disambiguate", HEALTHY.as_bytes());
        assert_eq!(ok.status, 200);
        let before = body_str(&request(addr, "GET", "/metrics", b""));

        let response = request(addr, "POST", "/disambiguate", b"<a>\n  caf\xe9</a>");
        assert_eq!(response.status, 400);
        let body = body_str(&response);
        assert!(body.contains("\"kind\":\"parse\""), "{body}");
        assert!(
            body.contains("not valid UTF-8 at line 2, column 6"),
            "{body}"
        );

        let after = body_str(&request(addr, "GET", "/metrics", b""));
        for key in ["documents", "failed_documents", "failed_parse"] {
            assert_eq!(json_u64(&after, key), json_u64(&before, key) + 1, "{key}");
        }
        // Only the document the engine ran was timed and queued.
        assert_eq!(json_u64(&after, "endpoint_disambiguate_requests"), 1);
        assert_eq!(json_u64(&after, "queue_wait_requests"), 1);
    });
}

/// The keys of a flat JSON object, in order.
fn json_keys(json: &str) -> Vec<&str> {
    json.lines()
        .filter_map(|line| line.trim_start().strip_prefix('"')?.split('"').next())
        .collect()
}

/// README's serving-layer key table lists exactly the keys `/metrics`
/// appends after the snapshot's own, as README's snapshot table is
/// checked against `MetricsSnapshot::to_json`. `http_<status>` stands
/// for one key per status code served.
#[test]
fn readme_serving_key_table_matches_the_metrics_keys() {
    let readme = include_str!("../../../README.md");
    let mut documented: Vec<&str> = readme
        .lines()
        .skip_while(|line| !line.starts_with("| serving key | unit | meaning |"))
        .skip(2)
        .take_while(|line| line.starts_with('|'))
        .flat_map(|row| {
            let key_cell = row.split('|').nth(1).expect("a key cell");
            key_cell.split('`').skip(1).step_by(2)
        })
        .collect();

    let mut served = String::new();
    with_server(ServerConfig::default(), |addr| {
        let response = request(addr, "POST", "/disambiguate", HEALTHY.as_bytes());
        assert_eq!(response.status, 200);
        assert_eq!(request(addr, "GET", "/healthz", b"").status, 200);
        assert_eq!(request(addr, "GET", "/metrics", b"").status, 200);
        served = body_str(&request(addr, "GET", "/metrics", b""));
    });
    assert!(served.contains("\"server_state\": \"running\""), "{served}");
    assert_eq!(json_u64(&served, "documents"), 1, "{served}");
    let keys = json_keys(&served);
    let unique: std::collections::BTreeSet<&str> = keys.iter().copied().collect();
    assert_eq!(unique.len(), keys.len(), "duplicate keys in {served}");

    let snapshot_json = runtime::MetricsSnapshot::default().to_json();
    let snapshot_keys = json_keys(&snapshot_json);
    assert_eq!(snapshot_keys.len(), 51, "{snapshot_json}");
    assert_eq!(keys[..snapshot_keys.len()], snapshot_keys[..], "{served}");

    let mut appended: Vec<&str> = keys[snapshot_keys.len()..]
        .iter()
        .map(|&key| match key.strip_prefix("http_") {
            Some(status) if status.bytes().all(|b| b.is_ascii_digit()) => "http_<status>",
            _ => key,
        })
        .collect();
    appended.sort_unstable();
    appended.dedup();
    documented.sort_unstable();
    assert_eq!(
        documented, appended,
        "README's serving-layer key table must list exactly the keys /metrics appends"
    );
}

/// A byte-bounded cache holds its budget while the key space keeps
/// growing: two keep-alive connections post 400 fresh documents of one
/// seeded stream, each connection taking every other position, while a
/// third thread scrapes `/metrics`. Every sampled `cache_bytes`, and the
/// lifetime high watermark `cache_bytes_peak`, stays within the budget,
/// the cache evicts, and no request fails.
#[test]
fn byte_budget_holds_at_every_sample_over_a_streaming_corpus() {
    const BUDGET: u64 = 65_536;
    const DOCUMENTS: u64 = 400;
    const CONNECTIONS: u64 = 2;
    const STREAM_SEED: u64 = 0x50AC;
    let config = ServerConfig {
        cache_budget: runtime::CacheBudget {
            max_entries: 0,
            max_bytes: BUDGET as usize,
        },
        ..ServerConfig::default()
    };
    let connect = |addr| {
        let stream = TcpStream::connect(addr).expect("connect");
        (stream, Vec::new())
    };
    let done = std::sync::atomic::AtomicBool::new(false);
    let mut samples: Vec<u64> = Vec::new();
    let mut errors = 0;
    let mut last = String::new();
    with_server(config, |addr| {
        std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CONNECTIONS)
                .map(|first| {
                    scope.spawn(move || {
                        let sn = semnet::mini_wordnet();
                        let (mut stream, mut carry) = connect(addr);
                        let mut errors = 0u64;
                        for pos in (first..DOCUMENTS).step_by(CONNECTIONS as usize) {
                            let doc = corpus::stream::document_at(sn, STREAM_SEED, pos);
                            let xml = xmltree::serialize::to_string_compact(&doc.doc);
                            let response = http::client_roundtrip(
                                &mut stream,
                                &mut carry,
                                "POST",
                                "/disambiguate",
                                &[("Content-Type", "application/xml")],
                                xml.as_bytes(),
                            );
                            let reconnect = match response {
                                Ok(response) => {
                                    errors += u64::from(response.status != 200);
                                    response.close
                                }
                                Err(_) => {
                                    errors += 1;
                                    true
                                }
                            };
                            if reconnect {
                                (stream, carry) = connect(addr);
                            }
                        }
                        errors
                    })
                })
                .collect();
            let sampler = scope.spawn(|| {
                let (mut stream, mut carry) = connect(addr);
                let mut samples = Vec::new();
                loop {
                    // Read the flag first, so the last sample is taken
                    // after every client finished.
                    let finished = done.load(std::sync::atomic::Ordering::SeqCst);
                    let response = http::client_roundtrip(
                        &mut stream,
                        &mut carry,
                        "GET",
                        "/metrics",
                        &[],
                        b"",
                    )
                    .expect("scrape /metrics");
                    samples.push(json_u64(&body_str(&response), "cache_bytes"));
                    if finished {
                        return samples;
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
            });
            let outcomes: Vec<_> = clients.into_iter().map(|c| c.join()).collect();
            done.store(true, std::sync::atomic::Ordering::SeqCst);
            samples = sampler.join().expect("sampler thread");
            errors = outcomes
                .into_iter()
                .map(|outcome| outcome.expect("client thread"))
                .sum();
        });
        last = body_str(&request(addr, "GET", "/metrics", b""));
    });

    assert_eq!(errors, 0, "every request must succeed: {last}");
    assert!(samples.len() >= 2, "{samples:?}");
    for (i, bytes) in samples.iter().enumerate() {
        assert!(
            *bytes <= BUDGET,
            "sample {i}: cache_bytes {bytes} over {BUDGET}"
        );
    }
    let peak = json_u64(&last, "cache_bytes_peak");
    assert!(peak <= BUDGET, "cache_bytes_peak {peak} over {BUDGET}");
    assert!(json_u64(&last, "cache_evictions") > 0, "{last}");
    assert_eq!(json_u64(&last, "documents"), DOCUMENTS, "{last}");
    assert_eq!(json_u64(&last, "failed_documents"), 0, "{last}");
}

// ---------------------------------------------------------------------
// Process-level: the actual binary.
// ---------------------------------------------------------------------

/// The server's 200 body must be byte-identical to what `xsdf batch
/// --annotate` prints for the same document and configuration.
#[test]
fn serve_body_matches_batch_annotate_bytes() {
    let dir = std::env::temp_dir().join(format!("xsdf-serve-eq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let docs = corpus_documents();
    let mut cases = vec![HEALTHY.to_string()];
    cases.extend(docs.iter().take(3).cloned());

    for (i, doc) in cases.iter().enumerate() {
        let path = dir.join(format!("doc-{i}.xml"));
        std::fs::write(&path, doc).expect("write doc");

        let output = Command::new(env!("CARGO_BIN_EXE_xsdf"))
            .args(["batch", path.to_str().unwrap(), "--annotate"])
            .output()
            .expect("run xsdf batch");
        assert!(output.status.success(), "batch failed for doc {i}");
        let stdout = String::from_utf8(output.stdout).expect("utf8 stdout");
        // Per-document output is one summary line, then the annotated XML.
        let (_header, annotated) = stdout
            .split_once('\n')
            .expect("batch prints a summary line before the XML");

        let served = with_server(ServerConfig::default(), |addr| {
            let response = request(addr, "POST", "/disambiguate", doc.as_bytes());
            assert_eq!(response.status, 200, "doc {i}");
            assert_eq!(
                body_str(&response),
                annotated,
                "doc {i}: served body must be byte-identical to batch --annotate"
            );
        });
        assert_eq!(served.documents, 1);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Spawns the binary, parses the bound address off stderr, and returns
/// the child plus its address and the buffered stderr reader.
fn spawn_serve(extra: &[&str]) -> (std::process::Child, SocketAddr) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_xsdf"));
    cmd.args(["serve", "--addr", "127.0.0.1:0"])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("spawn xsdf serve");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("serve must announce its address")
            .expect("read stderr");
        if let Some(rest) = line.strip_prefix("listening on ") {
            let addr = rest.split(' ').next().expect("addr token");
            break addr.parse().expect("socket addr");
        }
    };
    // Keep draining stderr so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

#[test]
fn serve_binary_serves_and_drains_on_shutdown_endpoint() {
    let dir = std::env::temp_dir().join(format!("xsdf-serve-bin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let metrics_path = dir.join("serve-metrics.json");
    let (mut child, addr) = spawn_serve(&["--metrics", metrics_path.to_str().unwrap()]);

    let response = request(addr, "POST", "/disambiguate", HEALTHY.as_bytes());
    assert_eq!(response.status, 200, "{}", body_str(&response));
    let health = request(addr, "GET", "/healthz", b"");
    assert_eq!(health.status, 200);

    let shutdown = request(addr, "POST", "/shutdown", b"");
    assert_eq!(shutdown.status, 200);
    let status = child.wait().expect("serve exit");
    assert_eq!(status.code(), Some(0), "drain exits cleanly");

    let metrics = std::fs::read_to_string(&metrics_path).expect("metrics flushed on drain");
    assert!(metrics.contains("\"documents\": 1") || metrics.contains("\"documents\":1"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_binary_drains_on_sigint() {
    let (mut child, addr) = spawn_serve(&[]);
    let response = request(addr, "POST", "/disambiguate", HEALTHY.as_bytes());
    assert_eq!(response.status, 200);

    let kill = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("send SIGINT");
    assert!(kill.success());
    let status = child.wait().expect("serve exit");
    assert_eq!(status.code(), Some(0), "SIGINT drains and exits cleanly");
}
