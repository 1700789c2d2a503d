//! Integration tests for the `rms serve` subsystem: content-addressed
//! cache correctness across circuit spellings, byte-identity of cache
//! hits, concurrent clients, batch determinism across worker counts, and
//! the HTTP transport end to end.

use rms_serve::{spawn_http, ServeConfig, Service};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// Four-input circuit `f = (a & b) & (c | d)` with the AND gate declared
/// first.
const BLIF_AND_FIRST: &str =
    ".model t\\n.inputs a b c d\\n.outputs f\\n.names a b w1\\n11 1\\n.names c d w2\\n1- 1\\n-1 1\\n.names w1 w2 f\\n11 1\\n.end\\n";

/// The same DAG with the OR gate declared first — every internal node id
/// is permuted relative to [`BLIF_AND_FIRST`].
const BLIF_OR_FIRST: &str =
    ".model t\\n.inputs a b c d\\n.outputs f\\n.names c d w2\\n1- 1\\n-1 1\\n.names a b w1\\n11 1\\n.names w1 w2 f\\n11 1\\n.end\\n";

/// The same DAG again, spelled as structural Verilog.
const VERILOG_SAME: &str =
    "module t(a, b, c, d, f);\\n  input a, b, c, d;\\n  output f;\\n  wire w1, w2;\\n  assign w1 = a & b;\\n  assign w2 = c | d;\\n  assign f = w1 & w2;\\nendmodule\\n";

fn service() -> Service {
    Service::new(ServeConfig::default())
}

fn request(id: &str, circuit: &str) -> String {
    format!(
        "{{\"id\":\"{id}\",\"circuit\":\"{circuit}\",\"opt\":\"cut\",\"effort\":4,\"deterministic\":true}}"
    )
}

/// The `"report":{…}` payload of a response envelope (the envelope
/// always ends with the report object).
fn report_of(response: &str) -> &str {
    let idx = response.find("\"report\":").expect("response has a report");
    &response[idx + "\"report\":".len()..response.len() - 1]
}

#[test]
fn permuted_node_ids_and_formats_share_one_cache_entry() {
    let s = service();
    let cold = s.handle_line(&request("first", BLIF_AND_FIRST));
    assert!(cold.contains("\"cache\":\"miss\""), "{cold}");

    let permuted = s.handle_line(&request("second", BLIF_OR_FIRST));
    assert!(
        permuted.contains("\"cache\":\"hit\""),
        "permuted gate declaration order must hit: {permuted}"
    );
    let verilog = s.handle_line(&request("third", VERILOG_SAME));
    assert!(
        verilog.contains("\"cache\":\"hit\""),
        "same DAG in Verilog must hit: {verilog}"
    );
    // All three spellings share one entry, and provenance names the
    // request that did the work.
    let stats = s.cache_stats();
    assert_eq!(stats.entries, 1, "one content-addressed entry");
    assert_eq!((stats.misses, stats.hits), (1, 2));
    assert!(permuted.contains("\"request_id\":\"first\""), "{permuted}");

    // Different options are a different address.
    let other =
        s.handle_line(&request("fourth", BLIF_AND_FIRST).replace("\"effort\":4", "\"effort\":5"));
    assert!(other.contains("\"cache\":\"miss\""), "{other}");
    assert_eq!(s.cache_stats().entries, 2);
}

#[test]
fn removed_engine_spelling_is_a_structured_error_and_serving_continues() {
    // Every engine spelling is rejected rather than silently ignored.
    let s = service();
    for engine in ["from-scratch", "rebuild", "incremental"] {
        let bad = s.handle_line(&request("bad", BLIF_AND_FIRST).replace(
            "\"opt\":\"cut\"",
            &format!("\"opt\":\"cut\",\"engine\":\"{engine}\""),
        ));
        assert!(bad.contains("\"status\":\"error\""), "{bad}");
        assert!(bad.contains("\"kind\":\"bad_request\""), "{bad}");
        assert!(bad.contains("unknown engine"), "{bad}");
        let ok = s.handle_line(&request("ok", BLIF_AND_FIRST));
        assert!(ok.contains("\"status\":\"ok\""), "{engine}: {ok}");
    }
}

#[test]
fn cache_hit_report_is_byte_identical_to_cold_run() {
    let s = service();
    let cold = s.handle_line(&request("cold", BLIF_AND_FIRST));
    let warm = s.handle_line(&request("warm", BLIF_OR_FIRST));
    assert!(cold.contains("\"cache\":\"miss\"") && warm.contains("\"cache\":\"hit\""));
    assert_eq!(
        report_of(&cold),
        report_of(&warm),
        "a hit must serve the memoized report byte for byte"
    );
    // The report carries the schema version stamp.
    assert!(
        report_of(&cold).starts_with("{\"schema\":\"rms-flow-report-v2\""),
        "{}",
        report_of(&cold)
    );
    // Only provenance and the envelope differ: swap the disposition and
    // ids and the rest matches.
    let normalized_warm = warm
        .replace("\"cache\":\"hit\"", "\"cache\":\"miss\"")
        .replace("\"id\":\"warm\"", "\"id\":\"cold\"")
        .replace("\"hits\":1", "\"hits\":0");
    assert_eq!(cold, normalized_warm);
}

#[test]
fn concurrent_clients_agree_and_share_entries() {
    let s = Arc::new(service());
    let circuits = [BLIF_AND_FIRST, BLIF_OR_FIRST, VERILOG_SAME];
    let mut handles = Vec::new();
    for t in 0..6 {
        let s = Arc::clone(&s);
        handles.push(std::thread::spawn(move || {
            let mut responses = Vec::new();
            for round in 0..3 {
                let circuit = circuits[(t + round) % circuits.len()];
                responses.push(s.handle_line(&request("c", circuit)));
            }
            responses
        }));
    }
    let all: Vec<String> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    assert_eq!(all.len(), 18);
    let reference = report_of(&all[0]).to_string();
    for response in &all {
        assert!(response.contains("\"status\":\"ok\""), "{response}");
        // All three spellings are one function — every response carries
        // the identical report bytes.
        assert_eq!(report_of(response), reference, "{response}");
    }
    // One content-addressed entry no matter how the 18 requests raced.
    assert_eq!(s.cache_stats().entries, 1);
}

#[test]
fn single_request_envelope_is_its_one_item_batch_envelope() {
    // Two services see the same sequence, one as single requests, one as
    // one-item batches carrying the same id, circuit and options.
    let (singles, batches) = (service(), service());
    let opts = "\"opt\":\"cut\",\"effort\":4,\"deterministic\":true";
    let cases = [
        (
            "r1",
            format!("\"circuit\":\"{BLIF_AND_FIRST}\""),
            opts.to_string(),
            "\"cache\":\"miss\"",
        ),
        (
            "r2",
            format!("\"circuit\":\"{BLIF_OR_FIRST}\""),
            opts.to_string(),
            "\"cache\":\"hit\"",
        ),
        (
            "r3",
            "\"bench\":\"misex1\"".to_string(),
            format!("{opts},\"deadline_ms\":0,\"best_effort\":true"),
            "\"cache\":\"bypass\"",
        ),
        (
            "r4",
            "\"circuit\":\"f = (\"".to_string(),
            opts.to_string(),
            "\"status\":\"error\"",
        ),
    ];
    for (id, circuit, opts, disposition) in cases {
        let single = singles.handle_line(&format!("{{\"id\":\"{id}\",{circuit},{opts}}}"));
        assert!(single.contains(disposition), "{single}");
        let batch = batches.handle_line(&format!(
            "{{\"id\":\"{id}\",{opts},\"batch\":[{{\"id\":\"{id}\",{circuit}}}]}}"
        ));
        let wrapper = format!(
            "{{\"protocol\":\"rms-serve-v1\",\"id\":\"{id}\",\"status\":\"ok\",\"count\":1,\"results\":["
        );
        let item = batch
            .strip_prefix(&wrapper)
            .and_then(|rest| rest.strip_suffix("]}"))
            .unwrap_or_else(|| panic!("not a one-item batch: {batch}"));
        assert_eq!(single, item, "{id}");
    }
    assert_eq!(singles.cache_stats(), batches.cache_stats());
}

#[test]
fn batch_responses_are_bit_identical_across_worker_counts() {
    let batch_for = |jobs: usize| {
        format!(
            "{{\"id\":\"b\",\"opt\":\"cut\",\"effort\":3,\"deterministic\":true,\"jobs\":{jobs},\
             \"batch\":[{{\"id\":\"i0\",\"bench\":\"rd53_f2\"}},\
             {{\"id\":\"i1\",\"circuit\":\"{BLIF_AND_FIRST}\"}},\
             {{\"id\":\"i2\",\"bench\":\"xor5_d\"}},\
             {{\"id\":\"i3\",\"circuit\":\"{BLIF_OR_FIRST}\"}},\
             {{\"id\":\"i4\",\"bench\":\"rd53_f2\"}}]}}"
        )
    };
    let sequential = service().handle_line(&batch_for(1));
    let parallel = service().handle_line(&batch_for(4));
    assert_eq!(
        sequential, parallel,
        "batch byte stream must not depend on the worker count"
    );
    // Within one batch, the first occurrence computes and later
    // duplicates (even under a different spelling) hit.
    let i3 = sequential.find("\"id\":\"i3\"").expect("item i3");
    assert!(
        sequential[i3..].contains("\"cache\":\"hit\""),
        "{sequential}"
    );
}

#[test]
fn oversized_batch_jobs_is_capped_and_changes_nothing() {
    // The worker count is capped at the core count, so a huge `jobs`
    // starts no more threads than there are cores, and the response is
    // byte-identical to the one-worker response.
    let batch_for = |jobs: usize| {
        format!(
            "{{\"id\":\"b\",\"opt\":\"cut\",\"effort\":2,\"deterministic\":true,\"jobs\":{jobs},\
             \"batch\":[{{\"id\":\"i0\",\"bench\":\"rd53_f2\"}},{{\"id\":\"i1\",\"bench\":\"xor5_d\"}}]}}"
        )
    };
    let one = service().handle_line(&batch_for(1));
    let huge = service().handle_line(&batch_for(1_000_000));
    assert!(one.contains("\"count\":2"), "{one}");
    assert!(!one.contains("\"status\":\"error\""), "{one}");
    assert_eq!(
        one, huge,
        "a capped worker count must not change the response"
    );
}

#[test]
fn batch_hits_survive_eviction_by_earlier_misses() {
    // A cache budget of exactly one entry: the batch's first miss evicts
    // the warmed entry before the batch renders that entry's hit.
    let probe = service();
    probe.handle_line(&request("warm", BLIF_AND_FIRST));
    let budget = probe.cache_stats().bytes;
    let run = |jobs: usize| {
        let s = Service::new(ServeConfig {
            cache_bytes: budget,
            ..ServeConfig::default()
        });
        let warm = s.handle_line(&request("warm", BLIF_AND_FIRST));
        assert!(warm.contains("\"cache\":\"miss\""), "{warm}");
        assert_eq!(s.cache_stats().entries, 1, "the budget fits the warm entry");
        s.handle_line(&format!(
            "{{\"id\":\"b\",\"opt\":\"cut\",\"effort\":4,\"deterministic\":true,\"jobs\":{jobs},\
             \"batch\":[{{\"id\":\"i0\",\"bench\":\"rd53_f2\"}},\
             {{\"id\":\"i1\",\"bench\":\"xor5_d\"}},\
             {{\"id\":\"i2\",\"circuit\":\"{BLIF_OR_FIRST}\"}},\
             {{\"id\":\"i3\",\"bench\":\"rd53_f2\"}}]}}"
        ))
    };
    let sequential = run(1);
    let parallel = run(4);
    assert_eq!(
        sequential, parallel,
        "batch byte stream must not depend on the worker count"
    );
    assert!(!sequential.contains("\"status\":\"error\""), "{sequential}");
    assert_eq!(
        sequential.matches("\"status\":\"ok\"").count(),
        5,
        "the envelope and all four items are ok: {sequential}"
    );
    let i2 = sequential.find("\"id\":\"i2\"").expect("item i2");
    assert!(
        sequential[i2..].starts_with("\"id\":\"i2\",\"status\":\"ok\",\"cache\":\"hit\""),
        "the warmed entry is served as a hit: {sequential}"
    );
}

#[test]
fn http_transport_serves_cache_hits_end_to_end() {
    let addr = spawn_http(Arc::new(service()), "127.0.0.1:0").expect("bind ephemeral port");
    let post = |body: &str| -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(
            stream,
            "POST /synth HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        )
        .expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("receive");
        response
    };
    let cold = post(&format!("{}\n", request("h1", BLIF_AND_FIRST)));
    assert!(cold.starts_with("HTTP/1.1 200 OK\r\n"), "{cold}");
    assert!(cold.contains("\"cache\":\"miss\""), "{cold}");
    let warm = post(&format!("{}\n", request("h2", VERILOG_SAME)));
    assert!(
        warm.contains("\"cache\":\"hit\""),
        "Verilog spelling over HTTP must hit the BLIF entry: {warm}"
    );
    let cold_body = cold.split("\r\n\r\n").nth(1).expect("body");
    let warm_body = warm.split("\r\n\r\n").nth(1).expect("body");
    assert_eq!(
        report_of(cold_body.trim_end()),
        report_of(warm_body.trim_end()),
        "identical report bytes across transports"
    );
}
