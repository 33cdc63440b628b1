//! End-to-end and per-layer benchmark of the fxrz fixed-ratio compression
//! framework.
//!
//! Three workloads drive the public entry points — the library
//! `FixedRatioCompressor` with a slab archive (`snapshot-sz`), the
//! in-process daemon over loopback (`serve-mixed`), and the `FXRZS1`
//! stream encoder (`stream-drift`). Untraced runs report the end-to-end
//! metrics; traced runs (`--trace 1`) record spans around calls into each
//! layer and report the per-layer breakdown. Every operation is checked
//! and counted.

pub mod checks;
pub mod inputs;
pub mod replay;
pub mod report;
pub mod serve;
pub mod snapshot;
pub mod stats;
pub mod stream;
pub mod trace;

use std::time::Instant;

/// End-to-end metrics every workload reports (name, unit), in order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("compress_mibps", "MiB/s"),
    ("decompress_mibps", "MiB/s"),
    ("range_per_s", "1/s"),
    ("ratio_err_pct", "%"),
    ("psnr_db", "dB"),
    ("req_per_s", "1/s"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics every workload's traced run reports (name, unit).
/// Workload-specific layers (archive, serve, stream, model load) are
/// reported beside them in the run record.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.features_us", "us"),
    ("core.features_points", "count"),
    ("core.analysis_share", "ratio"),
    ("compressors.sz.compress_mibps", "MiB/s"),
    ("compressors.sz.decompress_mibps", "MiB/s"),
    ("compressors.sz.predict_quantize_ms", "ms"),
    ("compressors.entropy.encode_ms", "ms"),
    ("compressors.entropy.decode_ms", "ms"),
    ("compressors.entropy.fse_blocks", "count"),
    ("compressors.entropy.huffman_blocks", "count"),
    ("compressors.slab.count", "count"),
    ("codec.lz77.compress_ms", "ms"),
    ("codec.lz77.decompress_ms", "ms"),
    ("codec.lz77.gain", "ratio"),
    ("parallel.threads", "count"),
    ("parallel.decode_speedup", "ratio"),
    ("telemetry.trace_overhead_frac", "ratio"),
];

/// The workloads, with the one-line reason each exists. `BENCHMARK.json`
/// gates `snapshot-sz` and `serve-mixed`; the traced `snapshot-sz` run
/// also reports `stream-drift`'s stream layer.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "snapshot-sz",
        "library fixed-ratio SZ on 8 MiB Nyx fields with archive pack, full get and sub-slab \
         range reads: the SZ codec and slab layer dominate",
    ),
    (
        "serve-mixed",
        "in-process daemon over loopback, nproc closed-loop clients, 128 KiB fields on the \
         sz/zfp/fpzip/mgard rows: per-request costs dominate",
    ),
    (
        "stream-drift",
        "FXRZS1 stream of drifting RTM timesteps in 4096-sample frames: per-frame features, \
         codec selection, controller and retries, no model load",
    ),
];

/// Target compression ratios of the model-driven workloads
/// (`snapshot-sz`, `serve-mixed`).
pub const TARGETS: [f64; 3] = [10.0, 20.0, 40.0];

/// Settings shared by every workload.
#[derive(Clone, Copy, Debug)]
pub struct Ctx {
    /// Workload seed; every input is a function of it.
    pub seed: u64,
    /// Measured time, seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Tiny inputs for the self-test.
    pub tiny: bool,
}

/// Runs `f` and returns its result with the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Bytes to MiB.
pub fn mib(bytes: f64) -> f64 {
    bytes / (1024.0 * 1024.0)
}

/// Peak resident set size of this process (VmHWM), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Logical cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Current value of a framework telemetry counter.
pub fn counter(name: &str) -> u64 {
    fxrz_telemetry::global().counter(name).get()
}

/// Runs the named workload.
///
/// # Errors
/// Fails on an unknown workload or when preparation (input generation,
/// training, setup) fails — a run that could not start reports nothing.
pub fn run_workload(name: &str, ctx: &Ctx) -> Result<report::Report, String> {
    match name {
        "snapshot-sz" => snapshot::run(ctx),
        "serve-mixed" => serve::run(ctx),
        "stream-drift" => stream::run(ctx),
        other => Err(format!("unknown workload {other:?}")),
    }
}
