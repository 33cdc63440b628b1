//! `stream-drift`: the `FXRZS1` stream path with the CLI defaults.
//!
//! Consecutive RTM timesteps (a drifting wavefield) are pushed through
//! `StreamEncoder::new(StreamConfig::new(12.0))` — heuristic codec
//! selection, no model load — in 4096-sample frames, then decoded with
//! `StreamDecoder::decode`, and read back in random sample spans by
//! seeking: `StreamDecoder::inspect` plus `frame::decode_frame` on the
//! covering frames. Each run streams several independent simulations
//! (velocity models) in turn, so no single model's codec mix decides the
//! run's figures.

use crate::checks;
use crate::inputs::{self, derive, Rng};
use crate::replay::{self, SzStages};
use crate::report::{Metrics, Report, Tally};
use crate::stats::{group_medians, median, quantile, sum};
use crate::trace::Tracer;
use crate::{counter, mib, timed, Ctx};
use fxrz_compressors::entropy::EntropyMode;
use fxrz_compressors::{by_name, sz::Sz, Compressor, ErrorConfig};
use fxrz_core::features;
use fxrz_core::sampling::StridedSampler;
use fxrz_datagen::{Dims, Field};
use fxrz_stream::{frame, StreamConfig, StreamDecoder, StreamEncoder, StreamError};
use serde::Serialize;
use std::time::{Duration, Instant};

/// The stream's global target ratio (the CLI default).
pub const TARGET: f64 = 12.0;

struct Params {
    dims: Dims,
    sims: u64,
    steps: u32,
    first: u32,
    stride: u32,
    frame: usize,
    seeks: usize,
}

fn params(tiny: bool) -> Params {
    if tiny {
        Params {
            dims: Dims::d3(16, 16, 16),
            sims: 2,
            steps: 4,
            first: 10,
            stride: 2,
            frame: 512,
            seeks: 4,
        }
    } else {
        Params {
            dims: Dims::d3(32, 64, 64),
            sims: 8,
            steps: 4,
            first: 60,
            stride: 6,
            frame: 4096,
            seeks: 16,
        }
    }
}

/// Encoder constructions timed for `setup_s` in each pass; the median
/// over every pass is reported, so the figure covers the whole run.
const SETUPS_PER_PASS: usize = 32;

/// One encoded frame as the encoder reported it.
struct FrameInfo {
    codec: String,
    eb: f64,
    target: f64,
    achieved: f64,
}

/// One encode → decode → seek pass over one simulation's stream.
struct Pass {
    input: usize,
    setup_s: Vec<f64>,
    push_s: Vec<f64>,
    decode_s: f64,
    seek_s: Vec<f64>,
    cumulative: f64,
    psnr: f64,
    frames: Vec<FrameInfo>,
    retries: u64,
    codecs: Vec<(String, u64)>,
    /// The encoded stream, kept for traced passes' replays.
    bytes: Option<Vec<u8>>,
}

/// Runs the workload.
///
/// # Errors
/// Fails when the encoder cannot be configured.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let p = params(ctx.tiny);
    let streams: Vec<Vec<f32>> = (0..p.sims)
        .map(|i| {
            let steps =
                inputs::rtm_series(derive(ctx.seed, 3 + i), p.dims, p.first, p.stride, p.steps);
            steps.iter().flat_map(|f| f.data().to_vec()).collect()
        })
        .collect();
    let sims = streams.len();

    let mut tally = Tally::default();
    let mut rng = Rng::new(derive(ctx.seed, 4));
    // Warm-up pass (pool start, scratch buffers); checked, not timed.
    let mut off = Tracer::new(false);
    pass(&streams, 0, &p, &mut rng, &mut tally, &mut off);

    // Whole rounds over every simulation, so each weighs the same. A
    // traced run alternates untraced and traced rounds, so the tracing
    // overhead is measured against the same stretch of host time.
    let end = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut tr = Tracer::new(ctx.trace);
    let mut untraced = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut k = 0usize;
    while !k.is_multiple_of(sims)
        || untraced.is_empty()
        || (ctx.trace && traced.is_empty())
        || Instant::now() < end
    {
        let traced_round = ctx.trace && (k / sims) % 2 == 1;
        let tracer = if traced_round { &mut tr } else { &mut off };
        if let Some(ps) = pass(&streams, k % sims, &p, &mut rng, &mut tally, tracer) {
            if traced_round {
                traced.push(ps);
            } else {
                untraced.push(ps);
            }
        }
        k += 1;
        if (untraced.is_empty() || (ctx.trace && traced.is_empty())) && k >= 4 * sims {
            break;
        }
    }
    if untraced.is_empty() {
        return Err(format!("no stream pass succeeded: {:?}", tally.reasons));
    }

    let mut rep = Report::default();
    let raw = mib((streams[0].len() * 4) as f64);
    let pushes: Vec<f64> = untraced.iter().flat_map(|ps| ps.push_s.clone()).collect();
    // A request is one simulation's stream encoded end to end (its frame
    // pushes, back to back); whole rounds keep every simulation equally
    // represented. Single pushes are too short: host contention comes in
    // blocks of a few hundred milliseconds and flips their median from run
    // to run. Whole rounds would leave only ~7 samples per run.
    let requests: Vec<f64> = untraced.iter().map(|ps| sum(&ps.push_s)).collect();
    let seeks: Vec<f64> = untraced.iter().flat_map(|ps| ps.seek_s.clone()).collect();
    // Rates come from each simulation's median over its passes: every
    // simulation weighs the same, and a burst of host contention during a
    // few passes does not move the figure.
    let encode = group_medians(untraced.iter().map(|ps| (ps.input, sum(&ps.push_s))));
    let decode = group_medians(untraced.iter().map(|ps| (ps.input, ps.decode_s)));
    let seek = group_medians(
        untraced
            .iter()
            .flat_map(|ps| ps.seek_s.iter().map(|&s| (ps.input, s))),
    );
    let m = &mut rep.end_to_end;
    let setups: Vec<f64> = untraced.iter().flat_map(|ps| ps.setup_s.clone()).collect();
    m.put("setup_s", median(&setups), "s");
    m.put(
        "compress_mibps",
        raw * encode.len() as f64 / sum(&encode),
        "MiB/s",
    );
    m.put(
        "decompress_mibps",
        raw * decode.len() as f64 / sum(&decode),
        "MiB/s",
    );
    m.put("range_per_s", seek.len() as f64 / sum(&seek), "1/s");
    // Per compress call (frame push), against that frame's controller
    // target: this gates per-frame codec accuracy, not controller drift.
    // The cumulative ratio against the stream target, which does show
    // drift, is recorded beside it as `stream.cumulative_err_pct`.
    m.put(
        "ratio_err_pct",
        100.0
            * median(
                &untraced
                    .iter()
                    .flat_map(|ps| {
                        ps.frames
                            .iter()
                            .map(|f| (f.achieved - f.target).abs() / f.target)
                    })
                    .collect::<Vec<_>>(),
            ),
        "%",
    );
    m.put(
        "stream.cumulative_err_pct",
        cumulative_err_pct(&untraced),
        "%",
    );
    m.put(
        "psnr_db",
        median(&untraced.iter().map(|ps| ps.psnr).collect::<Vec<_>>()),
        "dB",
    );
    m.put("req_per_s", encode.len() as f64 / sum(&encode), "1/s");
    m.put("req_p50_ms", quantile(&requests, 0.5) * 1e3, "ms");
    m.put("req_p99_ms", quantile(&requests, 0.99) * 1e3, "ms");

    if ctx.trace {
        let mut layer = LayerState::default();
        // Passes over one simulation all produce the same stream, so the
        // first traced pass of each carries every replay; replays run
        // after the timed loop so they cannot disturb it.
        for ps in traced.iter().take(sims) {
            layer.replay(&streams[ps.input], p.frame, ps, &mut tally, &mut tr);
        }
        let push_total = |ps: &[Pass], i: usize| {
            median(
                &ps.iter()
                    .filter(|x| x.input == i)
                    .map(|x| sum(&x.push_s))
                    .collect::<Vec<_>>(),
            )
        };
        let overhead = median(
            &(0..sims)
                .map(|i| push_total(&traced, i) / push_total(&untraced, i) - 1.0)
                .collect::<Vec<_>>(),
        );
        layer.metrics(
            &untraced[..sims.min(untraced.len())],
            &tr,
            overhead,
            &mut rep.layers,
        );
        rep.note("spans", tr.spans());
        rep.note("span_totals", tr.totals());
    }
    rep.note("input_bytes", streams.len() * streams[0].len() * 4);
    rep.note("streams", sims);
    rep.note(
        "samples",
        Samples {
            passes: untraced.len(),
            pushes: pushes.len(),
            requests: requests.len(),
            seeks: seeks.len(),
            setups: setups.len(),
        },
    );
    rep.note("frames_per_pass", untraced[0].frames.len());
    rep.tally = tally;
    Ok(rep)
}

/// Sample counts behind the percentiles, for the run record.
#[derive(Serialize)]
struct Samples {
    passes: usize,
    pushes: usize,
    /// Untraced stream encodes (the end-to-end requests).
    requests: usize,
    seeks: usize,
    setups: usize,
}

/// Median |cumulative CR − target| / target over `passes`, in percent.
fn cumulative_err_pct(passes: &[Pass]) -> f64 {
    100.0
        * median(
            &passes
                .iter()
                .map(|p| (p.cumulative - TARGET).abs() / TARGET)
                .collect::<Vec<_>>(),
        )
}

/// Encodes, decodes and seeks once over stream `input`; every push, the
/// decode and every seek is a checked operation.
fn pass(
    streams: &[Vec<f32>],
    input: usize,
    p: &Params,
    rng: &mut Rng,
    tally: &mut Tally,
    tr: &mut Tracer,
) -> Option<Pass> {
    let samples = &streams[input][..];
    // Setup is the encoder a stream needs before its first push (there is
    // no model to load); it is sub-microsecond, so it is timed many times.
    let mut setup_s = Vec::with_capacity(SETUPS_PER_PASS);
    for _ in 0..SETUPS_PER_PASS {
        let (enc, s) =
            timed(|| StreamEncoder::new(StreamConfig::new(TARGET)).map(|e| (e.header().len(), e)));
        if let Err(e) = enc {
            tally.check(Err(format!("encoder: {e}")));
            return None;
        }
        setup_s.push(s);
    }
    let mut enc = match StreamEncoder::new(StreamConfig::new(TARGET)) {
        Ok(e) => e,
        Err(e) => {
            tally.check(Err(format!("encoder: {e}")));
            return None;
        }
    };
    let mut bytes = enc.header();
    let mut push_s = Vec::with_capacity(samples.len() / p.frame + 1);
    let mut frames = Vec::with_capacity(push_s.capacity());
    for chunk in samples.chunks(p.frame) {
        let (out, s) = tr.span("stream.push", |_| timed(|| enc.push(chunk)));
        match out {
            Ok(o) => {
                tally.check(Ok(()));
                bytes.extend_from_slice(&o.bytes);
                push_s.push(s);
                frames.push(FrameInfo {
                    codec: o.codec,
                    eb: o.eb,
                    target: o.target_ratio,
                    achieved: o.achieved_ratio,
                });
            }
            Err(e) => {
                tally.check(Err(format!("push: {e}")));
                return None;
            }
        }
    }
    bytes.extend_from_slice(&enc.finish());
    let summary = enc.summary();

    let (decoded, decode_s) = tr.span("stream.decode", |_| timed(|| StreamDecoder::decode(&bytes)));
    let decoded = match check_decode(decoded, samples, enc.frames(), enc.samples()) {
        Ok(d) => d,
        Err(e) => {
            tally.check(Err(e));
            return None;
        }
    };
    tally.check(Ok(()));

    let mut seek_s = Vec::with_capacity(p.seeks);
    for _ in 0..p.seeks {
        let len = (2 * p.frame).min(samples.len());
        let start = rng.below(samples.len() - len + 1);
        let (got, s) = tr.span("stream.seek", |_| {
            timed(|| seek(&bytes, start, start + len))
        });
        if tally
            .check(got.and_then(|v| checks::same_values("seek", &decoded[start..start + len], &v)))
        {
            seek_s.push(s);
        }
    }
    Some(Pass {
        input,
        setup_s,
        push_s,
        decode_s,
        seek_s,
        cumulative: summary.cumulative_ratio,
        psnr: checks::samples(samples).psnr(&checks::samples(&decoded)),
        frames,
        retries: summary.retries,
        codecs: summary.codecs,
        bytes: tr.enabled().then_some(bytes),
    })
}

/// Checks a decoded stream against the encoder's counts and every
/// frame's stored error bound; returns the samples.
pub fn check_decode(
    decoded: Result<fxrz_stream::DecodedStream, StreamError>,
    input: &[f32],
    frames: u64,
    samples: u64,
) -> Result<Vec<f32>, String> {
    let d = decoded.map_err(|e| format!("decode: {e}"))?;
    if d.trailer.frames != frames || d.frames.len() as u64 != frames {
        return Err(format!(
            "decode: {} frames (trailer {}), encoder wrote {frames}",
            d.frames.len(),
            d.trailer.frames
        ));
    }
    if d.trailer.samples != samples || d.samples.len() as u64 != samples {
        return Err(format!(
            "decode: {} samples (trailer {}), encoder wrote {samples}",
            d.samples.len(),
            d.trailer.samples
        ));
    }
    let mut at = 0usize;
    for f in &d.frames {
        let end = at + f.samples;
        let (Some(orig), Some(rec)) = (input.get(at..end), d.samples.get(at..end)) else {
            return Err("decode: frames overrun the input".to_owned());
        };
        checks::error_control(
            &checks::samples(orig),
            &checks::samples(rec),
            &ErrorConfig::Abs(f.eb),
        )
        .map_err(|e| format!("frame {}: {e}", f.index))?;
        at = end;
    }
    Ok(d.samples)
}

/// Reads samples `start..end` by seeking: scan the frame directory,
/// decode only the covering frames.
fn seek(bytes: &[u8], start: usize, end: usize) -> Result<Vec<f32>, String> {
    let scan = StreamDecoder::inspect(bytes).map_err(|e| e.to_string())?;
    let mut out = Vec::with_capacity(end - start);
    let mut at = 0usize;
    for view in &scan.frames {
        let next = at + view.samples;
        if next > start && at < end {
            let vals = frame::decode_frame(bytes, view).map_err(|e| e.to_string())?;
            let lo = start.saturating_sub(at);
            let hi = (end - at).min(vals.len());
            out.extend_from_slice(&vals[lo..hi]);
        }
        if next >= end {
            break;
        }
        at = next;
    }
    Ok(out)
}

/// Static span names of the per-row codec replays.
fn row_spans(codec: &str) -> Option<(&'static str, &'static str)> {
    Some(match codec {
        "sz" => ("compressors.sz.compress", "compressors.sz.decompress"),
        "sz2" => ("compressors.sz2.compress", "compressors.sz2.decompress"),
        "szi" => ("compressors.szi.compress", "compressors.szi.decompress"),
        "sz-fse" => (
            "compressors.sz-fse.compress",
            "compressors.sz-fse.decompress",
        ),
        _ => return None,
    })
}

/// Per-frame replays collected over traced passes.
#[derive(Default)]
struct LayerState {
    feature_points: Vec<f64>,
    stages: Vec<SzStages>,
    /// sz compress time per frame (frames are monolithic, so this is
    /// single-threaded work).
    sz_compress_s: Vec<f64>,
    row_bytes: Vec<(String, f64)>,
}

impl LayerState {
    /// Replays every frame of a traced pass: features, the frame's own
    /// codec at its stored bound (must reproduce the frame payload), the
    /// sz row at that bound with its stage replay, the directory scan and
    /// a single-thread decode.
    fn replay(
        &mut self,
        samples: &[f32],
        frame_len: usize,
        ps: &Pass,
        tally: &mut Tally,
        tr: &mut Tracer,
    ) {
        let Some(bytes) = &ps.bytes else { return };
        let scan = match tr.span("stream.scan", |_| StreamDecoder::inspect(bytes)) {
            Ok(s) => s,
            Err(e) => {
                tally.check(Err(format!("scan: {e}")));
                return;
            }
        };
        let one = tr.span("parallel.decode_1thread", |_| {
            fxrz_parallel::with_threads(1, || StreamDecoder::decode(bytes))
        });
        tally.check(
            check_decode(one, samples, ps.frames.len() as u64, samples.len() as u64).map(|_| ()),
        );

        for ((chunk, info), view) in samples.chunks(frame_len).zip(&ps.frames).zip(&scan.frames) {
            let field = Field::new("frame", Dims::d1(chunk.len()), chunk.to_vec());
            let before = counter(fxrz_core::names::FEATURES_SAMPLED_POINTS);
            tr.span("core.features", |_| {
                features::extract(&field, StridedSampler::full())
            });
            self.feature_points
                .push((counter(fxrz_core::names::FEATURES_SAMPLED_POINTS) - before) as f64);
            let cfg = ErrorConfig::Abs(info.eb);

            let payload = frame::verify_payload(bytes, view).map(<[u8]>::to_vec);
            let (Some(comp), Some((c_span, d_span))) =
                (by_name(&info.codec), row_spans(&info.codec))
            else {
                tally.check(Err(format!("frame codec {} is not replayable", info.codec)));
                continue;
            };
            let (own, own_s) = tr.span(c_span, |_| timed(|| comp.compress(&field, &cfg)));
            tally.check(match (&own, &payload) {
                (Ok(b), Ok(p)) if b == p => Ok(()),
                (Ok(_), Ok(_)) => Err(format!(
                    "{} replay differs from the frame payload",
                    info.codec
                )),
                (Err(e), _) => Err(format!("{} replay: {e}", info.codec)),
                (_, Err(e)) => Err(format!("frame payload: {e}")),
            });
            let Ok(own) = own else { continue };
            if let Err(e) = tr.span(d_span, |_| comp.decompress(&own)) {
                tally.check(Err(format!("{} decompress: {e}", info.codec)));
            }
            self.row_bytes
                .push((info.codec.clone(), field.nbytes() as f64));

            // The sz row at the same bound, with its stage replay.
            let (sz_bytes, sz_s) = if info.codec == "sz" {
                (Ok(own), own_s)
            } else {
                tr.span("compressors.sz.compress", |_| {
                    timed(|| Sz.compress(&field, &cfg))
                })
            };
            let sz_bytes = match sz_bytes {
                Ok(b) => b,
                Err(e) => {
                    tally.check(Err(format!("sz replay: {e}")));
                    continue;
                }
            };
            if info.codec != "sz" {
                if let Err(e) = tr.span("compressors.sz.decompress", |_| Sz.decompress(&sz_bytes)) {
                    tally.check(Err(format!("sz decompress: {e}")));
                }
                self.row_bytes
                    .push(("sz".to_owned(), field.nbytes() as f64));
            }
            match replay::replay_sz(&sz_bytes, EntropyMode::Auto, tr) {
                Ok(s) => {
                    self.sz_compress_s.push(sz_s);
                    self.stages.push(s);
                }
                Err(e) => {
                    tally.check(Err(format!("sz stage replay: {e}")));
                }
            }
        }
    }

    fn metrics(&self, passes: &[Pass], tr: &Tracer, overhead: f64, m: &mut Metrics) {
        let us = |name: &str| median(&tr.durations(name)) / 1e3;
        m.put("core.features_us", us("core.features"), "us");
        m.put(
            "core.features_points",
            crate::stats::mean(&self.feature_points),
            "count",
        );
        m.put(
            "core.analysis_share",
            sum(&tr.durations("core.features")) / sum(&tr.durations("compressors.sz.compress")),
            "ratio",
        );
        for row in ["sz", "sz2", "szi", "sz-fse"] {
            let Some((c, d)) = row_spans(row) else {
                continue;
            };
            let bytes: f64 = self
                .row_bytes
                .iter()
                .filter(|(r, _)| r == row)
                .map(|(_, b)| b)
                .sum();
            if bytes > 0.0 {
                m.put(
                    format!("compressors.{row}.compress_mibps"),
                    mib(bytes) / (sum(&tr.durations(c)) / 1e9),
                    "MiB/s",
                );
                m.put(
                    format!("compressors.{row}.decompress_mibps"),
                    mib(bytes) / (sum(&tr.durations(d)) / 1e9),
                    "MiB/s",
                );
            }
        }
        // Derived, not measured: sz compress minus its entropy and LZ77
        // replays, per frame.
        let pq: Vec<f64> = self
            .sz_compress_s
            .iter()
            .zip(&self.stages)
            .map(|(t, s)| t - s.entropy_encode_s - s.lz77_compress_s)
            .collect();
        m.put(
            "compressors.sz.predict_quantize_ms",
            median(&pq) * 1e3,
            "ms",
        );
        replay::stage_metrics(&self.stages, m);
        m.put(
            "parallel.threads",
            fxrz_parallel::current_threads() as f64,
            "count",
        );
        m.put("parallel.cores", crate::cores() as f64, "count");
        m.put(
            "parallel.decode_speedup",
            median(&tr.durations("parallel.decode_1thread"))
                / median(&tr.durations("stream.decode")),
            "ratio",
        );
        m.put("telemetry.trace_overhead_frac", overhead, "ratio");

        let push = tr.durations("stream.push");
        m.put("stream.push_us.p50", quantile(&push, 0.5) / 1e3, "us");
        m.put("stream.push_us.p90", quantile(&push, 0.9) / 1e3, "us");
        // Over one pass of each simulation.
        let frames: f64 = passes.iter().map(|p| p.frames.len() as f64).sum();
        let retries: f64 = passes.iter().map(|p| p.retries as f64).sum();
        m.put(
            "stream.codec_calls_per_frame",
            (frames + retries) / frames,
            "ratio",
        );
        let errs: Vec<f64> = passes
            .iter()
            .flat_map(|p| {
                p.frames
                    .iter()
                    .map(|f| (f.achieved - f.target).abs() / f.target)
            })
            .collect();
        m.put("stream.frame_cr_err_p50", median(&errs), "ratio");
        m.put("stream.cumulative_err_pct", cumulative_err_pct(passes), "%");
        for (i, (codec, _)) in passes[0].codecs.iter().enumerate() {
            let n: u64 = passes
                .iter()
                .filter_map(|p| p.codecs.get(i))
                .map(|(_, n)| n)
                .sum();
            m.put(format!("stream.frames.{codec}"), n as f64, "count");
        }
        m.put("stream.scan_us", us("stream.scan"), "us");
        m.put(
            "stream.decode_ms",
            median(&tr.durations("stream.decode")) / 1e6,
            "ms",
        );
    }
}
