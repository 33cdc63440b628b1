//! `snapshot-sz`: the library path.
//!
//! A `FixedRatioCompressor` (sz row, model trained on 64³ Nyx timesteps
//! with the production trainer defaults) compresses 128³ Nyx
//! baryon-density timesteps — slabbed v2 streams — at targets cycling
//! through CR 10/20/40. Each stream is packed into an `ArchiveWriter`
//! and read back with a full `Archive::get` and with
//! `Archive::decompress_range` over sub-slab spans.

use crate::checks;
use crate::inputs::{self, derive, Rng};
use crate::replay::{self, SzStages};
use crate::report::{Metrics, Report, Tally};
use crate::stats::{group_medians, mean, median, quantile, sum};
use crate::trace::Tracer;
use crate::{counter, mib, timed, Ctx, TARGETS};
use fxrz_archive::{Archive, ArchiveWriter};
use fxrz_compressors::entropy::EntropyMode;
use fxrz_compressors::header::magic;
use fxrz_compressors::{slab, sz::Sz, Compressor, ErrorConfig};
use fxrz_core::features;
use fxrz_core::sampling::StridedSampler;
use fxrz_core::train::TrainedModel;
use fxrz_core::FixedRatioCompressor;
use fxrz_datagen::{Dims, Field};
use serde::Serialize;
use std::collections::HashMap;
use std::time::{Duration, Instant};

struct Params {
    train: Dims,
    train_steps: u32,
    test: Dims,
    /// Test fields, one timestep from each of this many simulations.
    sims: u32,
    ranges: usize,
}

fn params(tiny: bool) -> Params {
    if tiny {
        Params {
            train: Dims::d3(16, 16, 16),
            train_steps: 1,
            test: Dims::d3(32, 128, 128),
            sims: 2,
            ranges: 2,
        }
    } else {
        Params {
            train: Dims::d3(64, 64, 64),
            train_steps: 3,
            test: Dims::d3(128, 128, 128),
            sims: 12,
            ranges: 4,
        }
    }
}

/// One field's compress → pack → read-back round.
struct Round {
    combo: (usize, usize),
    raw_bytes: usize,
    compress_s: f64,
    add_s: f64,
    get_s: f64,
    range_s: Vec<f64>,
    tcr: f64,
    mcr: f64,
    psnr: f64,
    analysis_s: f64,
    codec_s: f64,
    touched_frac: f64,
    /// The stream and its configuration, kept on traced rounds for the
    /// replays that follow the timed loop.
    kept: Option<(Vec<u8>, ErrorConfig)>,
}

/// Stage replays and single-thread references for one traced round.
struct Replayed {
    stages: SzStages,
    compress_1t_s: f64,
}

/// Traced rounds whose streams are replayed after the timed loop.
const REPLAY_ROUNDS: usize = 6;

struct State<'a> {
    frc: &'a FixedRatioCompressor,
    fields: &'a [Field],
    ranges: usize,
    rng: Rng,
    tally: Tally,
    /// FNV-1a of the library stream per (field, target), for the traced
    /// decomposition's byte-identity check.
    reference: HashMap<(usize, usize), u32>,
    /// Points the feature sampler visited, per traced compress.
    feature_points: Vec<f64>,
    /// Non-constant block fraction from CA, per traced compress.
    nonconst: Vec<f64>,
}

/// Runs the workload.
///
/// # Errors
/// Fails when training or model setup fails.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let p = params(ctx.tiny);
    let train_fields = inputs::nyx_series(derive(inputs::TRAIN_SEED, 1), p.train, 0, p.train_steps);
    let json = inputs::model_json(&inputs::train(&Sz, &train_fields)?)?;
    drop(train_fields);
    // One timestep from each of several independent simulations, so the
    // run's figures average over realisations instead of following one
    // simulation's structure.
    let fields: Vec<Field> = (0..p.sims)
        .map(|i| {
            let sim = derive(ctx.seed, 100 + u64::from(i));
            inputs::nyx_series(sim, p.test, p.train_steps + i, 1).remove(0)
        })
        .collect();

    // Setup: parse the stored model and bind it — what a user pays
    // before the first compression.
    let t0 = Instant::now();
    let (model, parse_s) = timed(|| serde_json::from_str::<TrainedModel>(&json));
    let model = model.map_err(|e| format!("model parse failed: {e}"))?;
    model.check_format().map_err(|e| e.to_string())?;
    let frc = FixedRatioCompressor::new(model, Box::new(Sz)).map_err(|e| e.to_string())?;
    let setup_s = t0.elapsed().as_secs_f64();

    let mut st = State {
        frc: &frc,
        fields: &fields,
        ranges: p.ranges,
        rng: Rng::new(derive(ctx.seed, 2)),
        tally: Tally::default(),
        reference: HashMap::new(),
        feature_points: Vec::new(),
        nonconst: Vec::new(),
    };
    let mut off = Tracer::new(false);
    // Warm-up round (pool start, scratch tables); checked, not timed.
    st.round(0, &mut off);

    // Rounds walk every (field, target) in turn. A traced run pairs each
    // untraced round with a traced round of the same (field, target),
    // in alternating order, so the tracing overhead is measured against
    // the same stretch of host time and the same cache state.
    let mut tr = Tracer::new(ctx.trace);
    let mut untraced: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let mut overhead = Vec::new();
    let end = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    // At least one full cycle over every (field, target), unless rounds
    // keep failing: the quality figures are taken over exactly one cycle.
    let cycle = fields.len() * TARGETS.len();
    let mut k = 0;
    while (k < cycle && st.tally.failed < 8) || Instant::now() < end {
        let (base, on) = if !ctx.trace {
            (st.round(k, &mut off), None)
        } else if k % 2 == 0 {
            let base = st.round(k, &mut off);
            (base, st.round(k, &mut tr))
        } else {
            let on = st.round(k, &mut tr);
            (st.round(k, &mut off), on)
        };
        if let (Some(b), Some(t)) = (&base, &on) {
            overhead.push((t.compress_s + t.add_s) / (b.compress_s + b.add_s) - 1.0);
        }
        untraced.extend(base);
        traced.extend(on);
        k += 1;
    }

    let mut rep = Report {
        end_to_end: end_to_end(&untraced, cycle, setup_s),
        ..Report::default()
    };
    let mut layers = Metrics::default();
    layers.put("core.model_load_ms.sz", parse_s * 1e3, "ms");
    layers.put("core.model_json_bytes.sz", json.len() as f64, "bytes");
    layers.put(
        "core.analysis_share",
        median(
            &untraced
                .iter()
                .map(|r| r.analysis_s / r.codec_s)
                .collect::<Vec<_>>(),
        ),
        "ratio",
    );

    if ctx.trace {
        let kept: Vec<(usize, Vec<u8>, ErrorConfig)> = traced
            .iter_mut()
            .filter_map(|r| r.kept.take().map(|(b, c)| (r.combo.0, b, c)))
            .take(REPLAY_ROUNDS)
            .collect();
        let replayed: Vec<Replayed> = kept
            .iter()
            .filter_map(|(f, bytes, cfg)| st.replays(&mut tr, *f, cfg, bytes))
            .collect();
        traced_layers(&traced, &overhead, &replayed, &tr, &mut layers);
        layers.put("core.features_points", mean(&st.feature_points), "count");
        layers.put("core.ca_nonconst_frac", median(&st.nonconst), "ratio");
        rep.note("spans", tr.spans());
        rep.note("span_totals", tr.totals());
        stream_phase(ctx, &mut st.tally, &mut layers, &mut rep)?;
    }
    rep.layers = layers;
    rep.note("input_bytes", fields.len() * fields[0].nbytes());
    rep.note("model_json_bytes", json.len());
    rep.note(
        "samples",
        Samples {
            compress: untraced.len(),
            get: untraced.len(),
            range: untraced.iter().map(|r| r.range_s.len()).sum(),
            requests: untraced.len(),
            traced_rounds: traced.len(),
        },
    );
    rep.tally = st.tally;
    Ok(rep)
}

/// The stream layer's figures for the traced run: `stream-drift` is not
/// one of the benchmark's gated workloads, so a short traced
/// `stream-drift` run (a quarter of the run length, whole rounds) follows
/// the snapshot rounds. Its `stream.*` metrics join the layers, its
/// operations the tally, and its record goes under `stream_phase`.
fn stream_phase(
    ctx: &Ctx,
    tally: &mut Tally,
    layers: &mut Metrics,
    rep: &mut Report,
) -> Result<(), String> {
    let sub = crate::stream::run(&Ctx {
        seconds: ctx.seconds / 4.0,
        ..*ctx
    })?;
    for (name, value, unit) in sub.end_to_end.iter().chain(sub.layers.iter()) {
        if name.starts_with("stream.") {
            layers.put(name.clone(), *value, unit);
        }
    }
    tally.merge(sub.tally);
    let record: Vec<(String, serde::Value)> = sub
        .record
        .into_iter()
        .filter(|(k, _)| k != "spans" && k != "span_totals")
        .collect();
    rep.note("stream_phase", serde::Value::Object(record));
    Ok(())
}

/// Sample counts behind the percentiles, for the run record.
#[derive(Serialize)]
struct Samples {
    compress: usize,
    get: usize,
    range: usize,
    /// Untraced fixed-ratio compress calls (the end-to-end requests).
    requests: usize,
    traced_rounds: usize,
}

fn end_to_end(rounds: &[Round], cycle: usize, setup_s: f64) -> Metrics {
    // Ratio error and PSNR are fixed per (field, target): one cycle
    // weighs every pair once, however many rounds the machine managed.
    let first = &rounds[..cycle.min(rounds.len())];
    // Rates come from each field's median time over its rounds (the
    // targets cost about the same): every field weighs the same, and a
    // burst of host contention during a few rounds does not move the
    // figure.
    // Every field has the same size.
    let raw = rounds.first().map_or(0, |r| r.raw_bytes) as f64;
    let compress = group_medians(rounds.iter().map(|r| (r.combo.0, r.compress_s)));
    let get = group_medians(rounds.iter().map(|r| (r.combo.0, r.get_s)));
    let range = group_medians(
        rounds
            .iter()
            .flat_map(|r| r.range_s.iter().map(|&s| (r.combo.0, s))),
    );
    // A request is one fixed-ratio compress, the library's entry point.
    let requests: Vec<f64> = rounds.iter().map(|r| r.compress_s).collect();
    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    m.put(
        "compress_mibps",
        mib(raw * compress.len() as f64) / sum(&compress),
        "MiB/s",
    );
    m.put(
        "decompress_mibps",
        mib(raw * get.len() as f64) / sum(&get),
        "MiB/s",
    );
    m.put("range_per_s", range.len() as f64 / sum(&range), "1/s");
    m.put(
        "ratio_err_pct",
        100.0
            * median(
                &first
                    .iter()
                    .map(|r| (r.mcr - r.tcr).abs() / r.tcr)
                    .collect::<Vec<_>>(),
            ),
        "%",
    );
    m.put(
        "psnr_db",
        median(&first.iter().map(|r| r.psnr).collect::<Vec<_>>()),
        "dB",
    );
    m.put("req_per_s", compress.len() as f64 / sum(&compress), "1/s");
    m.put("req_p50_ms", quantile(&requests, 0.5) * 1e3, "ms");
    m.put("req_p99_ms", quantile(&requests, 0.99) * 1e3, "ms");
    m
}

/// Per-layer figures of the traced rounds and the replays that followed;
/// `overhead` holds each traced round's wall time against its untraced
/// pair's, less one.
fn traced_layers(traced: &[Round], overhead: &[f64], t: &[Replayed], tr: &Tracer, m: &mut Metrics) {
    let us = |name: &str| median(&tr.durations(name)) / 1e3;
    let raw: f64 = traced.iter().map(|r| r.raw_bytes as f64).sum();
    // Every field has the same size; each decode span covers one field.
    let decodes = tr.durations("compressors.sz.decompress");
    let raw_decoded = traced.first().map_or(0, |r| r.raw_bytes) as f64 * decodes.len() as f64;
    let per = |f: &dyn Fn(&Replayed) -> f64| t.iter().map(f).collect::<Vec<f64>>();

    m.put("core.features_us", us("core.features"), "us");
    m.put("core.ca_us", us("core.ca"), "us");
    m.put("core.predict_us", us("core.predict"), "us");
    m.put(
        "compressors.sz.compress_mibps",
        mib(raw) / (sum(&tr.durations("compressors.sz.compress")) / 1e9),
        "MiB/s",
    );
    m.put(
        "compressors.sz.decompress_mibps",
        mib(raw_decoded) / (sum(&decodes) / 1e9),
        "MiB/s",
    );
    // Derived, not measured: single-thread sz compress minus the entropy
    // and LZ77 replays on the same stream.
    m.put(
        "compressors.sz.predict_quantize_ms",
        median(&per(&|x| {
            x.compress_1t_s - x.stages.entropy_encode_s - x.stages.lz77_compress_s
        })) * 1e3,
        "ms",
    );
    replay::stage_metrics(&t.iter().map(|x| x.stages).collect::<Vec<_>>(), m);
    m.put(
        "compressors.slab.range_touched_frac",
        mean(&traced.iter().map(|r| r.touched_frac).collect::<Vec<_>>()),
        "ratio",
    );
    m.put(
        "parallel.threads",
        fxrz_parallel::current_threads() as f64,
        "count",
    );
    m.put("parallel.cores", crate::cores() as f64, "count");
    let speedup = median(&tr.durations("parallel.decode_1thread"))
        / median(&tr.durations("compressors.sz.decompress"));
    m.put("parallel.decode_speedup", speedup, "ratio");
    m.put("parallel.slab_decode_speedup", speedup, "ratio");
    m.put("archive.add_us", us("archive.add"), "us");
    m.put("archive.open_us", us("archive.open"), "us");
    m.put(
        "archive.get_overhead_us",
        us("archive.get") - us("compressors.sz.decompress"),
        "us",
    );

    // Layer accounting per traced round: its analysis stages, its codec
    // call and its archive add against its own compress + add wall time.
    let unexplained: Vec<f64> = traced
        .iter()
        .map(|r| 1.0 - (r.analysis_s + r.codec_s + r.add_s) / (r.compress_s + r.add_s))
        .collect();
    m.put("telemetry.trace_overhead_frac", median(overhead), "ratio");
    m.put("trace.unexplained_frac", median(&unexplained), "ratio");
    m.put("trace.accounted_rounds", unexplained.len() as f64, "count");
}

impl State<'_> {
    /// Round `k`: (field, target) pair `k` of the cycle, compressed,
    /// packed and read back. `None` when an operation failed (and was
    /// counted).
    fn round(&mut self, k: usize, tr: &mut Tracer) -> Option<Round> {
        let n = self.fields.len();
        let combo = (k % n, (k / n) % TARGETS.len());
        let field = &self.fields[combo.0];
        let tcr = TARGETS[combo.1];
        let name = field.name().to_owned();

        // Fixed-ratio compress. Traced rounds run the same pipeline
        // through each layer's public functions so every stage gets a
        // span; the bytes must match the library call's.
        let compressed = if tr.enabled() {
            self.compress_traced(tr, field, tcr)
        } else {
            let (out, s) = timed(|| self.frc.compress(field, tcr));
            out.map(|o| {
                let a = o.estimate.analysis_time.as_secs_f64();
                let c = o.compression_time.as_secs_f64();
                (o.bytes, o.estimate.config, s, a, c)
            })
            .map_err(|e| format!("compress {name} @ {tcr}: {e}"))
        };
        let (bytes, cfg, compress_s, analysis_s, codec_s) = match compressed {
            Ok(v) => v,
            Err(e) => {
                self.tally.check(Err(e));
                return None;
            }
        };
        let hash = slab::checksum(&bytes);
        let identical = match self.reference.get(&combo) {
            Some(&h) => h == hash,
            None if tr.enabled() => self
                .frc
                .compress(field, tcr)
                .is_ok_and(|o| slab::checksum(&o.bytes) == hash),
            None => true,
        };
        self.reference.entry(combo).or_insert(hash);
        if !self.tally.check(if identical {
            Ok(())
        } else {
            Err(format!(
                "traced compress of {name} differs from the library's"
            ))
        }) {
            return None;
        }

        let blob = bytes.clone();
        let (buf, add_s) = tr.span("archive.add", |_| {
            timed(|| {
                let mut w = ArchiveWriter::new();
                w.add_raw(&name, blob).map(|()| w.finish())
            })
        });
        let buf = match buf {
            Ok(b) => b,
            Err(e) => {
                self.tally.check(Err(format!("archive add: {e}")));
                return None;
            }
        };
        let archive = tr.span("archive.open", |_| Archive::open(&buf));
        let archive = match archive {
            Ok(a) => a,
            Err(e) => {
                self.tally.check(Err(format!("archive open: {e}")));
                return None;
            }
        };
        let (recon, get_s) = tr.span("op.get", |_| timed(|| archive.get(&name)));
        let recon = match recon {
            Ok(f) if f.dims() == field.dims() => f,
            Ok(f) => {
                self.tally
                    .check(Err(format!("get {name}: dims {:?}", f.dims())));
                return None;
            }
            Err(e) => {
                self.tally.check(Err(format!("get {name}: {e}")));
                return None;
            }
        };
        let ok = self.tally.check(
            checks::error_control(field, &recon, &cfg)
                .map_err(|e| format!("get {name} @ {tcr}: {e}")),
        );
        if !ok {
            return None;
        }

        // Sub-slab range reads: a random span inside a random slab.
        let entries = slab::table(&bytes, magic::SZ, "sz")
            .ok()
            .flatten()
            .map(|(_, _, e)| e)
            .unwrap_or_default();
        let plane = field.len() / field.dims().axis(0);
        let mut range_s = Vec::with_capacity(self.ranges);
        let mut touched = Vec::new();
        for _ in 0..self.ranges {
            let (start, len) = if entries.is_empty() {
                (0, field.len())
            } else {
                let k = self.rng.below(entries.len());
                let slab_start: usize = entries[..k].iter().map(|e| e.raw_elems).sum();
                let n = entries[k].raw_elems;
                let len = (n / 4).max(plane).min(n);
                (slab_start + self.rng.below(n - len + 1), len)
            };
            let range = start..start + len;
            let (vals, s) = tr.span("op.range", |_| {
                timed(|| archive.decompress_range(&name, range.clone()))
            });
            let ok = self.tally.check(match vals {
                Ok(v) => checks::same_values("range", &recon.data()[range.clone()], &v),
                Err(e) => Err(format!("range {name} {range:?}: {e}")),
            });
            if ok {
                range_s.push(s);
                let mut at = 0usize;
                let hit = entries
                    .iter()
                    .filter(|e| {
                        let (a, b) = (at, at + e.raw_elems);
                        at = b;
                        a < range.end && range.start < b
                    })
                    .count();
                touched.push(hit as f64 / entries.len().max(1) as f64);
            }
        }

        Some(Round {
            combo,
            raw_bytes: field.nbytes(),
            compress_s,
            add_s,
            get_s,
            range_s,
            tcr,
            mcr: field.nbytes() as f64 / bytes.len() as f64,
            psnr: field.psnr(&recon),
            analysis_s,
            codec_s,
            touched_frac: mean(&touched),
            kept: tr.enabled().then_some((bytes, cfg)),
        })
    }

    /// The fixed-ratio pipeline, stage by stage, under spans.
    fn compress_traced(
        &mut self,
        tr: &mut Tracer,
        field: &Field,
        tcr: f64,
    ) -> Result<(Vec<u8>, ErrorConfig, f64, f64, f64), String> {
        let frc = self.frc;
        let model = frc.model();
        let t = Instant::now();
        let out = tr.span("op.compress", |tr| {
            let points0 = counter(fxrz_core::names::FEATURES_SAMPLED_POINTS);
            let (fv, t_f) = tr.span("core.features", |_| {
                timed(|| features::extract(field, StridedSampler::new(model.stride)))
            });
            let points = counter(fxrz_core::names::FEATURES_SAMPLED_POINTS) - points0;
            let (r, t_ca) = tr.span("core.ca", |_| {
                timed(|| model.ca.map_or(1.0, |ca| ca.non_constant_ratio(field)))
            });
            let (cfg, t_p) = tr.span("core.predict", |_| {
                timed(|| {
                    let coord = model.predict_coordinate(&fv, (tcr * r).max(1.0));
                    model.config_space.from_coordinate(coord, fv.value_range)
                })
            });
            let (bytes, t_c) = tr.span("compressors.sz.compress", |_| {
                timed(|| frc.compressor().compress(field, &cfg))
            });
            (bytes, cfg, t_f + t_ca + t_p, t_c, points, r)
        });
        let wall = t.elapsed().as_secs_f64();
        let (bytes, cfg, analysis, codec, points, r) = out;
        let bytes = bytes.map_err(|e| format!("traced compress: {e}"))?;
        self.feature_points.push(points as f64);
        self.nonconst.push(r);
        Ok((bytes, cfg, wall, analysis, codec))
    }

    /// Stage replays and single-thread references for one traced
    /// round's stream: sz at one thread, the entropy/LZ77 replay, and
    /// full decodes directly, through the archive and at one thread.
    fn replays(
        &mut self,
        tr: &mut Tracer,
        f: usize,
        cfg: &ErrorConfig,
        bytes: &[u8],
    ) -> Option<Replayed> {
        let field = &self.fields[f];
        let (one, compress_1t_s) = tr.span("compressors.sz.compress_1thread", |_| {
            timed(|| fxrz_parallel::with_threads(1, || Sz.compress(field, cfg)))
        });
        let ok = self.tally.check(match one {
            Ok(b) if b == bytes => Ok(()),
            Ok(_) => Err("single-thread sz stream differs from the pooled one".to_owned()),
            Err(e) => Err(format!("single-thread sz compress: {e}")),
        });
        let stages = match replay::replay_sz(bytes, EntropyMode::Auto, tr) {
            Ok(s) => s,
            Err(e) => {
                self.tally.check(Err(format!("sz stage replay: {e}")));
                return None;
            }
        };
        let mut w = ArchiveWriter::new();
        let buf = w.add_raw(field.name(), bytes.to_vec()).map(|()| w.finish());
        let archive = buf
            .as_ref()
            .map_err(ToString::to_string)
            .and_then(|b| Archive::open(b).map_err(|e| e.to_string()));
        let archive = match archive {
            Ok(a) => a,
            Err(e) => {
                self.tally.check(Err(format!("archive: {e}")));
                return None;
            }
        };
        // Direct and archive decodes swap order between the two passes,
        // so neither always runs first after the single-thread decode
        // (the pool's workers idle through it).
        for pass in 0..2 {
            let one = tr
                .span("parallel.decode_1thread", |_| {
                    fxrz_parallel::with_threads(1, || Sz.decompress(bytes))
                })
                .map_err(|e| e.to_string());
            let direct = |tr: &mut Tracer| {
                tr.span("compressors.sz.decompress", |_| Sz.decompress(bytes))
                    .map_err(|e| e.to_string())
            };
            let via = |tr: &mut Tracer| {
                tr.span("archive.get", |_| archive.get(field.name()))
                    .map_err(|e| e.to_string())
            };
            let (direct, via) = if pass == 0 {
                let d = direct(tr);
                (d, via(tr))
            } else {
                let v = via(tr);
                (direct(tr), v)
            };
            self.tally.check(match (direct, via, one) {
                (Ok(d), Ok(v), Ok(o)) => checks::error_control(field, &d, cfg)
                    .and_then(|()| checks::same_values("archive get", d.data(), v.data()))
                    .and_then(|()| checks::same_values("single-thread decode", d.data(), o.data())),
                (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => Err(format!("decode: {e}")),
            });
        }
        ok.then_some(Replayed {
            stages,
            compress_1t_s,
        })
    }
}
