//! Benchmark self-test: tiny-size runs emit every declared metric with
//! its unit, and the failure paths (a corrupted stream, a shed request)
//! are counted as failures.

use fxrz_compressors::sz::Sz;
use fxrz_core::train::Trainer;
use fxrz_core::FixedRatioCompressor;
use fxrz_datagen::nyx::{self, NyxConfig};
use fxrz_datagen::Dims;
use fxrz_perfbench::report::Tally;
use fxrz_perfbench::{serve, stream, END_TO_END, PER_LAYER, WORKLOADS};
use fxrz_serve::{SchedulerConfig, Server, ServerConfig};
use fxrz_stream::{StreamConfig, StreamDecoder, StreamEncoder};
use serde::Value;
use std::path::PathBuf;
use std::process::Command;

fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key {key}"))
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to perfbench/");
    let v = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
    get(&v, list)
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                get(m, "name").as_str().unwrap().to_owned(),
                get(m, "unit").as_str().unwrap().to_owned(),
            )
        })
        .collect()
}

/// Runs the benchmark binary at tiny size; returns the result line and
/// the run record.
fn run(workload: &str, trace: u8) -> (Value, Value) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("selftest");
    let out = Command::new(env!("CARGO_BIN_EXE_fxrz-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--size", "tiny"])
        .arg("--record-dir")
        .arg(&dir)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace}: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = serde_json::parse_value(last).expect("result line is JSON");
    let rec = std::fs::read_to_string(dir.join(format!("{workload}-seed7-trace{trace}.json")))
        .expect("run record written");
    (
        result,
        serde_json::parse_value(&rec).expect("record is JSON"),
    )
}

/// Workload-specific per-layer metrics the run record must carry.
fn record_layers(workload: &str) -> &'static [&'static str] {
    match workload {
        "snapshot-sz" => &[
            "core.model_load_ms.sz",
            "core.model_json_bytes.sz",
            "core.ca_us",
            "core.ca_nonconst_frac",
            "core.predict_us",
            "compressors.slab.range_touched_frac",
            "parallel.slab_decode_speedup",
            "parallel.cores",
            "archive.add_us",
            "archive.open_us",
            "archive.get_overhead_us",
            "trace.unexplained_frac",
            "stream.push_us.p50",
            "stream.codec_calls_per_frame",
            "stream.cumulative_err_pct",
        ],
        "serve-mixed" => &[
            "core.model_load_ms.mgard",
            "core.model_json_bytes.fpzip",
            "core.ca_us",
            "core.predict_us",
            "compressors.zfp.compress_mibps",
            "compressors.mgard.decompress_mibps",
            "serve.call_us.compress.p99",
            "serve.exec_us.predict.p50",
            "serve.queue_us.p99",
            "serve.wire_us.decompress",
            "serve.req_bytes.compress",
            "serve.reply_bytes.predict",
            "serve.shed",
            "serve.deadline_exceeded",
            "serve.panics",
            "serve.registry_load_ms",
        ],
        _ => &[
            "stream.push_us.p50",
            "stream.push_us.p90",
            "stream.codec_calls_per_frame",
            "stream.frame_cr_err_p50",
            "stream.cumulative_err_pct",
            "stream.frames.sz",
            "stream.scan_us",
            "stream.decode_ms",
        ],
    }
}

#[test]
fn tiny_runs_emit_every_declared_metric_with_its_unit() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    let as_pairs = |l: &[(&str, &str)]| -> Vec<(String, String)> {
        l.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    };
    assert_eq!(e2e, as_pairs(END_TO_END), "BENCHMARK.json end_to_end");
    assert_eq!(layers, as_pairs(PER_LAYER), "BENCHMARK.json per_layer");
    let mut traced_records = Vec::new();
    for (workload, _) in WORKLOADS {
        for trace in [0u8, 1] {
            let (result, record) = run(workload, trace);
            assert_eq!(
                get(&result, "correct"),
                &Value::Bool(true),
                "{workload}: {result:?}"
            );
            assert_eq!(get(&result, "failed").as_i64(), Some(0));
            assert!(get(&result, "attempted").as_i64().unwrap() >= 1);
            let metrics = get(&result, "metrics").as_object().expect("metrics object");
            let want = if trace == 1 { &layers } else { &e2e };
            assert_eq!(metrics.len(), want.len(), "{workload} trace {trace}");
            for (name, unit) in want {
                let m = get(get(&result, "metrics"), name);
                assert!(
                    get(m, "value").as_f64().is_some(),
                    "{workload}: {name} value"
                );
                assert_eq!(
                    get(m, "unit").as_str(),
                    Some(unit.as_str()),
                    "{workload}: {name}"
                );
            }
            assert_eq!(get(&record, "seed").as_i64(), Some(7));
            assert!(get(&record, "nproc").as_i64().unwrap() >= 1);
            assert!(get(&record, "input_bytes").as_i64().unwrap() > 0);
            get(&record, "samples");
            if trace == 1 {
                let rec_layers = get(&record, "layers");
                for name in record_layers(workload) {
                    let m = get(rec_layers, name);
                    assert!(get(m, "unit").as_str().is_some(), "{workload}: {name} unit");
                }
                assert!(!get(&record, "spans").as_array().unwrap().is_empty());
                traced_records.push((*workload, record));
            }
        }
    }

    // Each layer decode rate must count every decode it times: the sz
    // codec alone is at least as fast as a full archive read of the same
    // fields, and its rate on small served fields is of the same order.
    let value = |workload: &str, block: &str, name: &str| {
        let (_, rec) = traced_records
            .iter()
            .find(|(w, _)| *w == workload)
            .expect("traced record");
        get(get(get(rec, block), name), "value").as_f64().unwrap()
    };
    let sz = "compressors.sz.decompress_mibps";
    let snapshot = value("snapshot-sz", "layers", sz);
    let via_archive = value("snapshot-sz", "end_to_end", "decompress_mibps");
    assert!(
        (0.75..4.0).contains(&(snapshot / via_archive)),
        "snapshot sz decode {snapshot} MiB/s vs archive get {via_archive} MiB/s"
    );
    let served = value("serve-mixed", "layers", sz);
    assert!(
        (0.1..10.0).contains(&(snapshot / served)),
        "snapshot sz decode {snapshot} MiB/s vs serve-mixed {served} MiB/s"
    );
}

#[test]
fn corrupted_stream_counts_as_a_failure() {
    let input: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.01).sin() * 3.0).collect();
    let mut enc = StreamEncoder::new(StreamConfig::new(8.0)).unwrap();
    let mut bytes = enc.header();
    for chunk in input.chunks(1024) {
        bytes.extend_from_slice(&enc.push(chunk).unwrap().bytes);
    }
    bytes.extend_from_slice(&enc.finish());
    let check = |b: &[u8]| {
        stream::check_decode(
            StreamDecoder::decode(b),
            &input,
            enc.frames(),
            enc.samples(),
        )
        .map(|_| ())
    };
    let mut tally = Tally::default();
    assert!(tally.check(check(&bytes)));
    let mut bad = bytes.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x5A;
    assert!(!tally.check(check(&bad)));
    assert_eq!((tally.attempted, tally.failed), (2, 1));
}

#[test]
fn shed_request_counts_as_a_failure() {
    let dims = Dims::d3(8, 8, 8);
    let field = |t| nyx::baryon_density(dims, NyxConfig::default().with_timestep(t));
    let model = Trainer::new().train(&Sz, &[field(0)]).unwrap();
    let frc = FixedRatioCompressor::new(model.clone(), Box::new(Sz)).unwrap();
    let plan = serve::tiny_plan(&frc, field(1)).unwrap();

    // A zero admission bound sheds every data-plane request with Busy.
    let server = Server::new(ServerConfig {
        scheduler: SchedulerConfig {
            queue_bound: 0,
            ..SchedulerConfig::default()
        },
        ..ServerConfig::default()
    });
    server.registry().insert("sz", 1, model).unwrap();
    let handle = server.serve_tcp("127.0.0.1:0").unwrap();
    let tally = serve::one_request(&handle.local_addr().unwrap().to_string(), &plan, 3);
    handle.shutdown();
    assert_eq!((tally.attempted, tally.failed), (1, 1));
    assert!(tally.reasons[0].contains("shed"), "{:?}", tally.reasons);
}
