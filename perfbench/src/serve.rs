//! `serve-mixed`: the daemon path.
//!
//! An in-process `Server` listens on `127.0.0.1:0` with models for the
//! paper's four rows (sz, zfp, fpzip, mgard) registered from JSON through
//! its `ModelRegistry`. `nproc` client threads of this process each hold
//! one connection and run a closed loop — the next request goes out only
//! after the previous reply arrived — over 128 KiB fields from Hurricane
//! (QCLOUD, TC), RTM, QMCPACK and Nyx, with an op mix of 50% compress,
//! 30% decompress and 20% predict, at the targets `snapshot-sz` uses
//! (CR 10/20/40, inside every row model's valid ratio range). The last
//! eighth of the run issues `DecompressRange` requests instead, for
//! `range_per_s`.

use crate::checks;
use crate::inputs::{self, derive, Rng};
use crate::replay::{self, SzStages};
use crate::report::{Metrics, Report, Tally};
use crate::stats::{group_medians, mean, median, quantile, sum};
use crate::trace::Tracer;
use crate::{counter, mib, timed, Ctx, TARGETS};
use fxrz_compressors::entropy::EntropyMode;
use fxrz_compressors::{by_name, ErrorConfig};
use fxrz_core::features;
use fxrz_core::sampling::StridedSampler;
use fxrz_core::FixedRatioCompressor;
use fxrz_datagen::Field;
use fxrz_serve::protocol::ResponseFrame;
use fxrz_serve::{Client, ModelRegistry, Op, Reply, Request, Server, ServerConfig, Status};
use serde::{Serialize, Value};
use std::time::{Duration, Instant};

/// The paper's four codec rows, each served by its own model.
pub const ROWS: [&str; 4] = ["sz", "zfp", "fpzip", "mgard"];

/// Operation kinds, indexing per-op tables.
const OPS: [&str; 4] = ["compress", "decompress", "predict", "range"];
const COMPRESS: usize = 0;
const DECOMPRESS: usize = 1;
const PREDICT: usize = 2;
const RANGE: usize = 3;

struct Params {
    side: usize,
    /// Which of `inputs::mixed_apps`' fields each row model trains on.
    train_apps: &'static [usize],
    test_variants: u32,
}

fn params(tiny: bool) -> Params {
    if tiny {
        Params {
            side: 8,
            train_apps: &[4],
            test_variants: 1,
        }
    } else {
        Params {
            side: 32,
            train_apps: &[0, 2, 4],
            test_variants: 4,
        }
    }
}

/// One (row, field, target) request shape with the library's answer.
pub struct Combo {
    row: usize,
    field: usize,
    tcr: f64,
    config: ErrorConfig,
    bytes: Vec<u8>,
    recon: Vec<f32>,
    /// |MCR − TCR| / TCR of the stream.
    ratio_err: f64,
    /// PSNR of the reconstruction against the field, dB.
    psnr: f64,
}

/// Everything the clients share, read-only.
pub struct Plan {
    fields: Vec<Field>,
    combos: Vec<Combo>,
}

/// Per-client request shapes: each op walks one shared shuffled order of
/// the combos from the client's own offset, so every run covers the rows,
/// fields and targets evenly instead of as a random draw happens to.
struct Deck {
    order: Vec<usize>,
    next: [usize; 4],
}

impl Deck {
    fn new(n: usize, seed: u64, client: usize, clients: usize) -> Self {
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = Rng::new(seed);
        for i in (1..n).rev() {
            order.swap(i, rng.below(i + 1));
        }
        let start = client * n / clients.max(1);
        Self {
            order,
            next: [start; 4],
        }
    }

    fn draw(&mut self, op: usize) -> usize {
        let i = self.order[self.next[op] % self.order.len()];
        self.next[op] += 1;
        i
    }
}

/// One completed call, as the client saw it.
#[derive(Clone, Copy)]
struct Call {
    op: usize,
    /// Index into [`ROWS`] of the request's model or stream.
    row: usize,
    /// Whether the call ran under an enabled tracer.
    traced: bool,
    latency_s: f64,
    req_bytes: usize,
    reply_bytes: usize,
    raw_bytes: usize,
}

/// What one client thread measured.
#[derive(Default)]
pub struct ClientRun {
    calls: Vec<Call>,
    /// Operation accounting.
    pub tally: Tally,
}

/// Runs the workload.
///
/// # Errors
/// Fails when training, model setup or the listener fails.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let p = params(ctx.tiny);
    // Each row's model trains on one QCLOUD, one RTM and one Nyx field
    // (Nyx alone at tiny size).
    let train: Vec<Field> = inputs::mixed_apps(derive(inputs::TRAIN_SEED, 21), p.side, 0)
        .into_iter()
        .enumerate()
        .filter(|(i, _)| p.train_apps.contains(i))
        .map(|(_, f)| f)
        .collect();
    let mut models = Vec::with_capacity(ROWS.len());
    let mut jsons = Vec::with_capacity(ROWS.len());
    for row in ROWS {
        let comp = by_name(row).ok_or_else(|| format!("unknown row {row}"))?;
        let model = inputs::train(comp.as_ref(), &train)?;
        jsons.push(inputs::model_json(&model)?);
        models.push(model);
    }
    let fields: Vec<Field> = (0..p.test_variants)
        .flat_map(|t| inputs::mixed_apps(derive(ctx.seed, 22), p.side, t))
        .collect();

    // Setup: registry load of every model from JSON, then listen. The
    // registry parses outside its lock, so the models load on one thread
    // per core. `fxrz serve` loads them one after another, which takes
    // about the sum of the per-model load times the traced run reports.
    let t0 = Instant::now();
    let server = Server::new(ServerConfig::default());
    let load_s = load_models(server.registry(), &jsons)?;
    let handle = server
        .serve_tcp("127.0.0.1:0")
        .map_err(|e| format!("listen: {e}"))?;
    let setup_s = t0.elapsed().as_secs_f64();
    let addr = handle
        .local_addr()
        .ok_or("listener has no address")?
        .to_string();

    let mut tally = Tally::default();
    let engines: Vec<FixedRatioCompressor> = models
        .into_iter()
        .zip(ROWS)
        .map(|(m, row)| FixedRatioCompressor::new(m, by_name(row).expect("known row")))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let (plan, shares) = plan(&engines, fields, &mut tally);
    if plan.combos.is_empty() {
        handle.shutdown();
        return Err(format!(
            "no library reference succeeded: {:?}",
            tally.reasons
        ));
    }

    let clients = crate::cores().max(1);
    // Warm-up: every client connection serves a few checked requests.
    let warm = phase(
        &addr,
        &plan,
        clients,
        derive(ctx.seed, 30),
        Duration::ZERO,
        false,
        4,
    );
    tally.merge(warm.0.tally);

    // A traced run alternates untraced and traced requests on every
    // client, so the tracing overhead is measured against the same
    // stretch of host time.
    let (mix, range, mut tr) = phase(
        &addr,
        &plan,
        clients,
        derive(ctx.seed, 31),
        Duration::from_secs_f64(ctx.seconds),
        ctx.trace,
        0,
    );
    let mut rep = Report {
        end_to_end: end_to_end(&plan, &mix, &range, setup_s),
        ..Report::default()
    };
    let mut layers = Metrics::default();
    for ((row, s), json) in ROWS.iter().zip(&load_s).zip(&jsons) {
        layers.put(format!("core.model_load_ms.{row}"), s * 1e3, "ms");
        layers.put(
            format!("core.model_json_bytes.{row}"),
            json.len() as f64,
            "bytes",
        );
    }
    layers.put("serve.registry_load_ms", sum(&load_s) * 1e3, "ms");
    layers.put("core.analysis_share", median(&shares), "ratio");

    let untraced = |op: usize| mix.calls.iter().filter(|c| !c.traced && c.op == op).count();
    rep.note(
        "samples",
        Samples {
            clients,
            requests: mix.calls.iter().filter(|c| !c.traced).count(),
            traced_requests: mix.calls.iter().filter(|c| c.traced).count(),
            range_requests: range.calls.iter().filter(|c| !c.traced).count(),
            compress: untraced(COMPRESS),
            decompress: untraced(DECOMPRESS),
            predict: untraced(PREDICT),
        },
    );

    if ctx.trace {
        // Per op, traced against untraced median latency; the median
        // over the ops.
        let lat = |op: usize, traced: bool| {
            let v: Vec<f64> = mix
                .calls
                .iter()
                .filter(|c| c.op == op && c.traced == traced)
                .map(|c| c.latency_s)
                .collect();
            (!v.is_empty()).then(|| median(&v))
        };
        let overhead: Vec<f64> = [COMPRESS, DECOMPRESS, PREDICT]
            .into_iter()
            .filter_map(|op| Some(lat(op, true)? / lat(op, false)? - 1.0))
            .collect();
        layers.put("telemetry.trace_overhead_frac", median(&overhead), "ratio");
        call_metrics(&mix, &tr, &mut layers);
        if let Err(e) = stats_metrics(&addr, &mut layers) {
            tally.check(Err(format!("stats: {e}")));
        }
        replays(&engines, &plan, &mut tr, &mut tally, &mut layers);
        rep.note("spans", tr.spans());
        rep.note("span_totals", tr.totals());
    }
    let report = handle.shutdown();
    if !report.drained {
        tally.check(Err("server did not drain on shutdown".to_owned()));
    }
    tally.merge(mix.tally);
    tally.merge(range.tally);
    rep.layers = layers;
    rep.note(
        "input_bytes",
        plan.fields.iter().map(Field::nbytes).sum::<usize>(),
    );
    rep.note("combos", plan.combos.len());
    rep.tally = tally;
    Ok(rep)
}

/// Loads row `i`'s model from `jsons[i]` for every row, spreading the
/// rows over one loader thread per core. Returns each row's load time.
fn load_models(registry: &ModelRegistry, jsons: &[String]) -> Result<Vec<f64>, String> {
    let loaders = crate::cores().clamp(1, ROWS.len());
    let mut load_s = vec![0.0; ROWS.len()];
    let loaded: Vec<Vec<(usize, Result<f64, String>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..loaders)
            .map(|l| {
                s.spawn(move || {
                    (l..ROWS.len())
                        .step_by(loaders)
                        .map(|i| {
                            let (r, secs) = timed(|| registry.load_json(ROWS[i], 1, &jsons[i]));
                            let r = r
                                .map(|_| secs)
                                .map_err(|e| format!("registry load of {}: {e}", ROWS[i]));
                            (i, r)
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loader thread panicked"))
            .collect()
    });
    for (i, r) in loaded.into_iter().flatten() {
        load_s[i] = r?;
    }
    Ok(load_s)
}

/// Sample counts behind the percentiles, for the run record.
#[derive(Serialize)]
struct Samples {
    clients: usize,
    /// Untraced mix requests (the end-to-end figures' samples).
    requests: usize,
    traced_requests: usize,
    range_requests: usize,
    compress: usize,
    decompress: usize,
    predict: usize,
}

/// Library references for every (row, field, target): the stream, the
/// chosen configuration and the reconstruction the daemon must match.
/// Also returns each compress's analysis/compression time share.
fn plan(
    engines: &[FixedRatioCompressor],
    fields: Vec<Field>,
    tally: &mut Tally,
) -> (Plan, Vec<f64>) {
    let mut combos = Vec::new();
    let mut shares = Vec::new();
    for (row, frc) in engines.iter().enumerate() {
        for (fi, field) in fields.iter().enumerate() {
            for &tcr in &TARGETS {
                let out = frc.compress(field, tcr).and_then(|o| {
                    let recon = frc.decompress(&o.bytes)?;
                    Ok((o, recon))
                });
                match out {
                    Ok((o, recon)) => {
                        let ok = tally.check(
                            checks::error_control(field, &recon, &o.estimate.config).map_err(|e| {
                                format!("library {} {}: {e}", ROWS[row], field.name())
                            }),
                        );
                        if ok {
                            shares.push(
                                o.estimate.analysis_time.as_secs_f64()
                                    / o.compression_time.as_secs_f64(),
                            );
                            let mcr = field.nbytes() as f64 / o.bytes.len() as f64;
                            combos.push(Combo {
                                row,
                                field: fi,
                                tcr,
                                ratio_err: (mcr - tcr).abs() / tcr,
                                psnr: field.psnr(&recon),
                                config: o.estimate.config,
                                bytes: o.bytes,
                                recon: recon.into_data(),
                            });
                        }
                    }
                    Err(e) => {
                        tally.check(Err(format!("library {} {}: {e}", ROWS[row], field.name())));
                    }
                }
            }
        }
    }
    (Plan { fields, combos }, shares)
}

/// Runs `clients` closed-loop client threads for `dur`: the op mix for
/// the first seven eighths, range reads for the rest. With `traced`,
/// every second request of each client runs under an enabled tracer.
/// With `warm > 0` each client instead issues `warm` mix requests and
/// stops. Returns the merged mix and range measurements and the merged
/// client spans.
fn phase(
    addr: &str,
    plan: &Plan,
    clients: usize,
    seed: u64,
    dur: Duration,
    traced: bool,
    warm: usize,
) -> (ClientRun, ClientRun, Tracer) {
    let start = Instant::now();
    let mix_end = start + dur.mul_f64(7.0 / 8.0);
    let end = start + dur;
    let mut tracer = Tracer::new(traced);
    let mut mix = ClientRun::default();
    let mut range = ClientRun::default();
    let results: Vec<(ClientRun, ClientRun, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let client_seed = derive(seed, c as u64);
                s.spawn(move || {
                    let mut on = Tracer::new(traced);
                    let mut off = Tracer::new(false);
                    let mut rng = Rng::new(client_seed);
                    let mut deck = Deck::new(plan.combos.len(), seed, c, clients);
                    let mut m = ClientRun::default();
                    let mut r = ClientRun::default();
                    let mut client = match Client::connect_tcp(addr) {
                        Ok(cl) => cl,
                        Err(e) => {
                            m.tally.check(Err(format!("connect: {e}")));
                            return (m, r, on);
                        }
                    };
                    let mut n = 0usize;
                    let mut next = |range_phase: bool, run: &mut ClientRun| {
                        let tr = if n % 2 == 1 { &mut on } else { &mut off };
                        n += 1;
                        request(&mut client, plan, &mut rng, &mut deck, range_phase, run, tr);
                    };
                    if warm > 0 {
                        for _ in 0..warm {
                            next(false, &mut m);
                        }
                        return (m, r, on);
                    }
                    // At least two calls per part, so a traced run has
                    // both kinds, unless they keep failing.
                    while m.calls.len() < 2 || Instant::now() < mix_end {
                        next(false, &mut m);
                        if m.tally.failed > 0 && m.calls.len() < 2 && Instant::now() >= mix_end {
                            break;
                        }
                    }
                    while r.calls.len() < 2 || Instant::now() < end {
                        next(true, &mut r);
                        if r.tally.failed > 0 && r.calls.len() < 2 && Instant::now() >= end {
                            break;
                        }
                    }
                    (m, r, on)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    for (m, r, tr) in results {
        mix.calls.extend(m.calls);
        mix.tally.merge(m.tally);
        range.calls.extend(r.calls);
        range.tally.merge(r.tally);
        tracer.absorb(tr);
    }
    (mix, range, tracer)
}

/// Sends one request drawn from the mix (or a range read), times it on
/// the client, and checks the reply against the library reference.
fn request(
    client: &mut Client,
    plan: &Plan,
    rng: &mut Rng,
    deck: &mut Deck,
    range_phase: bool,
    run: &mut ClientRun,
    tr: &mut Tracer,
) {
    let op = if range_phase {
        RANGE
    } else {
        match rng.unit() {
            u if u < 0.5 => COMPRESS,
            u if u < 0.8 => DECOMPRESS,
            _ => PREDICT,
        }
    };
    let combo = &plan.combos[deck.draw(op)];
    let field = &plan.fields[combo.field];
    let model = ROWS[combo.row].to_owned();
    let (start, end) = {
        let len = (field.len() / 4).max(1);
        let s = rng.below(field.len() - len + 1);
        (s, s + len)
    };
    let req = match op {
        COMPRESS => Request::Compress {
            model,
            ratio: combo.tcr,
            field: field.clone(),
        },
        DECOMPRESS => Request::Decompress {
            stream: combo.bytes.clone(),
        },
        PREDICT => Request::Predict {
            model,
            ratio: combo.tcr,
            field: field.clone(),
        },
        _ => Request::DecompressRange {
            start: start as u64,
            end: end as u64,
            stream: combo.bytes.clone(),
        },
    };
    let req_bytes = req.encode().len();
    let span = [
        "serve.call.compress",
        "serve.call.decompress",
        "serve.call.predict",
        "serve.call.range",
    ][op];
    let (reply, latency_s) = tr.span(span, |_| {
        timed(|| {
            client
                .call_raw(&req)
                .map_err(|e| format!("transport: {e}"))
                .and_then(|resp| decode(req.op(), resp))
        })
    });
    let checked = reply.and_then(|(reply, reply_bytes)| {
        check_reply(op, reply, combo, field, start..end).map(|()| reply_bytes)
    });
    if let Ok(reply_bytes) = checked {
        run.calls.push(Call {
            op,
            row: combo.row,
            traced: tr.enabled(),
            latency_s,
            req_bytes,
            reply_bytes,
            raw_bytes: field.nbytes(),
        });
    }
    run.tally
        .check(checked.map(|_| ()).map_err(|e| format!("{}: {e}", OPS[op])));
}

/// Decodes a response frame; `Busy` (shed) and error frames fail.
pub fn decode(op: Op, resp: ResponseFrame) -> Result<(Reply, usize), String> {
    match resp.status {
        Status::Ok => Reply::decode(op, &resp.payload)
            .map(|r| (r, resp.payload.len()))
            .map_err(|e| format!("bad reply: {e}")),
        Status::Busy => Err("request shed (Busy)".to_owned()),
        Status::Error => {
            let (code, msg) = resp
                .error_parts()
                .unwrap_or((0, "malformed error".to_owned()));
            Err(format!("server error {code}: {msg}"))
        }
    }
}

fn check_reply(
    op: usize,
    reply: Reply,
    combo: &Combo,
    field: &Field,
    range: std::ops::Range<usize>,
) -> Result<(), String> {
    match (op, reply) {
        (COMPRESS, Reply::Compress { stream, .. }) => {
            if stream != combo.bytes {
                return Err(format!(
                    "served {} stream of {} differs from the library's",
                    ROWS[combo.row],
                    field.name()
                ));
            }
            Ok(())
        }
        (DECOMPRESS, Reply::Field(f)) => {
            if f.dims() != field.dims() {
                return Err(format!("decompressed dims {:?}", f.dims()));
            }
            checks::error_control(field, &f, &combo.config)?;
            checks::same_values("served decompress", &combo.recon, f.data())?;
            Ok(())
        }
        (PREDICT, Reply::Json(json)) => {
            let want = format!("\"config\":\"{}\"", combo.config);
            if json.contains(&want) {
                Ok(())
            } else {
                Err(format!("predict reply lacks {want}"))
            }
        }
        (RANGE, Reply::Range(v)) => checks::same_values("served range", &combo.recon[range], &v),
        _ => Err("unexpected reply kind".to_owned()),
    }
}

/// End-to-end figures from the untraced calls.
fn end_to_end(plan: &Plan, mix: &ClientRun, range: &ClientRun, setup_s: f64) -> Metrics {
    let calls =
        |r: &ClientRun| -> Vec<Call> { r.calls.iter().filter(|c| !c.traced).copied().collect() };
    let (mix_calls, range_calls) = (calls(mix), calls(range));
    let lat: Vec<f64> = mix_calls.iter().map(|c| c.latency_s).collect();
    let of = |op: usize| mix_calls.iter().filter(move |c| c.op == op);
    // Per row, the median request: with both clients sharing two cores,
    // a request's latency has a long tail from whatever the other
    // client's request is doing, and a total-time rate would follow that
    // tail. The rate is one median request of each row, so how many
    // requests a run happened to draw per row does not move it.
    let rate = |op: usize| {
        let raw = group_medians(of(op).map(|c| (c.row, c.raw_bytes as f64)));
        let secs = group_medians(of(op).map(|c| (c.row, c.latency_s)));
        mib(sum(&raw)) / sum(&secs)
    };
    let wall = |calls: &[Call]| {
        // Closed loop: every client is always busy, so the calls' summed
        // latency over the clients is the per-client busy time.
        let clients = crate::cores().max(1) as f64;
        sum(&calls.iter().map(|c| c.latency_s).collect::<Vec<_>>()) / clients
    };
    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    m.put("compress_mibps", rate(COMPRESS), "MiB/s");
    m.put("decompress_mibps", rate(DECOMPRESS), "MiB/s");
    m.put(
        "range_per_s",
        range_calls.len() as f64 / wall(&range_calls),
        "1/s",
    );
    // Quality over every (row, field, target) once: the daemon's compress
    // replies are checked byte-identical to these library streams and its
    // decompress replies value-identical to their reconstructions, so the
    // figures are the served ones without depending on which requests
    // a run happened to complete.
    let quality =
        |f: &dyn Fn(&Combo) -> f64| median(&plan.combos.iter().map(f).collect::<Vec<_>>());
    m.put("ratio_err_pct", 100.0 * quality(&|c| c.ratio_err), "%");
    m.put("psnr_db", quality(&|c| c.psnr), "dB");
    m.put(
        "req_per_s",
        mix_calls.len() as f64 / wall(&mix_calls),
        "1/s",
    );
    m.put("req_p50_ms", quantile(&lat, 0.5) * 1e3, "ms");
    m.put("req_p99_ms", quantile(&lat, 0.99) * 1e3, "ms");
    m
}

/// Client-side per-op call times and wire sizes from a traced phase.
fn call_metrics(mix: &ClientRun, tr: &Tracer, m: &mut Metrics) {
    for (op, name) in OPS.iter().enumerate().take(3) {
        let span = [
            "serve.call.compress",
            "serve.call.decompress",
            "serve.call.predict",
        ][op];
        let d = tr.durations(span);
        m.put(
            format!("serve.call_us.{name}.p50"),
            quantile(&d, 0.5) / 1e3,
            "us",
        );
        m.put(
            format!("serve.call_us.{name}.p99"),
            quantile(&d, 0.99) / 1e3,
            "us",
        );
        m.put(format!("serve.call_us.{name}.mean"), mean(&d) / 1e3, "us");
        let calls: Vec<&Call> = mix.calls.iter().filter(|c| c.op == op).collect();
        m.put(
            format!("serve.req_bytes.{name}"),
            mean(&calls.iter().map(|c| c.req_bytes as f64).collect::<Vec<_>>()),
            "bytes",
        );
        m.put(
            format!("serve.reply_bytes.{name}"),
            mean(
                &calls
                    .iter()
                    .map(|c| c.reply_bytes as f64)
                    .collect::<Vec<_>>(),
            ),
            "bytes",
        );
    }
}

fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// Daemon-side numbers from its own `Stats` reply: per-op dispatch time
/// (request decode, queue wait and execution) and queue wait from its
/// HDR histograms, plus the scheduler's shed/deadline/panic counters.
fn stats_metrics(addr: &str, m: &mut Metrics) -> Result<(), String> {
    let mut client = Client::connect_tcp(addr).map_err(|e| e.to_string())?;
    let json = client.stats().map_err(|e| e.to_string())?;
    let v = serde_json::parse_value(&json).map_err(|e| e.to_string())?;
    let num = |v: Option<&Value>| v.and_then(Value::as_f64).unwrap_or(f64::NAN);
    let sched = get(&v, "scheduler").ok_or("no scheduler block")?;
    for key in ["shed", "deadline_exceeded", "panics"] {
        m.put(format!("serve.{key}"), num(get(sched, key)), "count");
    }
    let ops = get(&v, "ops")
        .and_then(Value::as_array)
        .ok_or("no ops block")?;
    for name in ["compress", "decompress", "predict"] {
        let row = ops
            .iter()
            .find(|o| get(o, "op").and_then(Value::as_str) == Some(name))
            .ok_or_else(|| format!("no {name} row"))?;
        let p50 = num(get(row, "p50_ns")) / 1e3;
        m.put(format!("serve.exec_us.{name}.p50"), p50, "us");
        m.put(
            format!("serve.exec_us.{name}.p99"),
            num(get(row, "p99_ns")) / 1e3,
            "us",
        );
        let exec_mean = num(get(row, "mean_ns")) / 1e3;
        m.put(format!("serve.exec_us.{name}.mean"), exec_mean, "us");
        // Derived: client call time minus daemon dispatch time (which
        // already contains the queue wait) — framing, socket and
        // (de)serialization on both ends.
        if let Some(call) = m.get(&format!("serve.call_us.{name}.mean")) {
            m.put(format!("serve.wire_us.{name}"), call - exec_mean, "us");
        }
    }
    let hdrs = get(&v, "metrics")
        .and_then(|mv| get(mv, "hdrs"))
        .and_then(Value::as_array)
        .ok_or("no hdr histograms")?;
    let queue = hdrs
        .iter()
        .find(|h| get(h, "name").and_then(Value::as_str) == Some(fxrz_serve::names::SCHED_QUEUE_NS))
        .ok_or("no queue histogram")?;
    m.put("serve.queue_us.p50", num(get(queue, "p50")) / 1e3, "us");
    m.put("serve.queue_us.p99", num(get(queue, "p99")) / 1e3, "us");
    Ok(())
}

/// In-process replays of the daemon's layers on a sample of request
/// shapes: analysis stages through the row models, each row's codec, and
/// the SZ stage replay.
fn replays(
    engines: &[FixedRatioCompressor],
    plan: &Plan,
    tr: &mut Tracer,
    tally: &mut Tally,
    m: &mut Metrics,
) {
    const PER_ROW: usize = 24;
    let mut points = Vec::new();
    let mut stages: Vec<SzStages> = Vec::new();
    let mut pq = Vec::new();
    let mut raw = [0.0f64; 4];
    for (row, frc) in engines.iter().enumerate() {
        let model = frc.model();
        let (c_span, d_span) = [
            ("compressors.sz.compress", "compressors.sz.decompress"),
            ("compressors.zfp.compress", "compressors.zfp.decompress"),
            ("compressors.fpzip.compress", "compressors.fpzip.decompress"),
            ("compressors.mgard.compress", "compressors.mgard.decompress"),
        ][row];
        for combo in plan.combos.iter().filter(|c| c.row == row).take(PER_ROW) {
            let field = &plan.fields[combo.field];
            let before = counter(fxrz_core::names::FEATURES_SAMPLED_POINTS);
            let fv = tr.span("core.features", |_| {
                features::extract(field, StridedSampler::new(model.stride))
            });
            points.push((counter(fxrz_core::names::FEATURES_SAMPLED_POINTS) - before) as f64);
            let r = tr.span("core.ca", |_| {
                model.ca.map_or(1.0, |ca| ca.non_constant_ratio(field))
            });
            let cfg = tr.span("core.predict", |_| {
                let coord = model.predict_coordinate(&fv, (combo.tcr * r).max(1.0));
                model.config_space.from_coordinate(coord, fv.value_range)
            });
            let (bytes, c_s) =
                tr.span(c_span, |_| timed(|| frc.compressor().compress(field, &cfg)));
            let ok = tally.check(match &bytes {
                Ok(b) if *b == combo.bytes => Ok(()),
                Ok(_) => Err(format!(
                    "{} replay differs from the library stream",
                    ROWS[row]
                )),
                Err(e) => Err(format!("{} replay: {e}", ROWS[row])),
            });
            if !ok {
                continue;
            }
            raw[row] += field.nbytes() as f64;
            let bytes = bytes.expect("checked above");
            let dec = tr.span(d_span, |_| frc.decompress(&bytes));
            tally.check(match dec {
                Ok(f) => checks::same_values("replay decompress", &combo.recon, f.data()),
                Err(e) => Err(format!("{} decompress: {e}", ROWS[row])),
            });
            if row == 0 {
                let one = tr.span("parallel.decode_1thread", |_| {
                    fxrz_parallel::with_threads(1, || frc.decompress(&bytes))
                });
                tally.check(one.map(|_| ()).map_err(|e| e.to_string()));
                match replay::replay_sz(&bytes, EntropyMode::Auto, tr) {
                    Ok(s) => {
                        pq.push(c_s - s.entropy_encode_s - s.lz77_compress_s);
                        stages.push(s);
                    }
                    Err(e) => {
                        tally.check(Err(format!("sz stage replay: {e}")));
                    }
                }
            }
        }
    }
    let us = |name: &str| median(&tr.durations(name)) / 1e3;
    m.put("core.features_us", us("core.features"), "us");
    m.put("core.features_points", mean(&points), "count");
    m.put("core.ca_us", us("core.ca"), "us");
    m.put("core.predict_us", us("core.predict"), "us");
    for (row, name) in ROWS.iter().enumerate() {
        if raw[row] > 0.0 {
            let c = sum(&tr.durations(&format!("compressors.{name}.compress"))) / 1e9;
            let d = sum(&tr.durations(&format!("compressors.{name}.decompress"))) / 1e9;
            m.put(
                format!("compressors.{name}.compress_mibps"),
                mib(raw[row]) / c,
                "MiB/s",
            );
            m.put(
                format!("compressors.{name}.decompress_mibps"),
                mib(raw[row]) / d,
                "MiB/s",
            );
        }
    }
    // Derived, not measured: sz compress minus its entropy and LZ77
    // replays (32³ sz streams are monolithic, so single-threaded).
    m.put(
        "compressors.sz.predict_quantize_ms",
        median(&pq) * 1e3,
        "ms",
    );
    replay::stage_metrics(&stages, m);
    m.put(
        "parallel.threads",
        fxrz_parallel::current_threads() as f64,
        "count",
    );
    m.put("parallel.cores", crate::cores() as f64, "count");
    m.put(
        "parallel.decode_speedup",
        median(&tr.durations("parallel.decode_1thread"))
            / median(&tr.durations("compressors.sz.decompress")),
        "ratio",
    );
}

/// Sends one mix request through a client of `addr` and reports whether
/// it passed — the unit the self-test drives against a shedding server.
pub fn one_request(addr: &str, plan: &Plan, seed: u64) -> Tally {
    let mut run = ClientRun::default();
    let mut tr = Tracer::new(false);
    match Client::connect_tcp(addr) {
        Ok(mut c) => {
            let mut deck = Deck::new(plan.combos.len(), seed, 0, 1);
            request(
                &mut c,
                plan,
                &mut Rng::new(seed),
                &mut deck,
                false,
                &mut run,
                &mut tr,
            );
        }
        Err(e) => {
            run.tally.check(Err(format!("connect: {e}")));
        }
    }
    run.tally
}

/// A one-field plan for the self-test: `field` compressed by `frc`.
///
/// # Errors
/// Fails when the library compress fails.
pub fn tiny_plan(frc: &FixedRatioCompressor, field: Field) -> Result<Plan, String> {
    let out = frc
        .compress(&field, TARGETS[0])
        .map_err(|e| e.to_string())?;
    let recon = frc.decompress(&out.bytes).map_err(|e| e.to_string())?;
    let row = ROWS
        .iter()
        .position(|r| *r == frc.compressor().name())
        .ok_or("row not served")?;
    Ok(Plan {
        combos: vec![Combo {
            row,
            field: 0,
            tcr: TARGETS[0],
            ratio_err: (field.nbytes() as f64 / out.bytes.len() as f64 - TARGETS[0]).abs()
                / TARGETS[0],
            psnr: field.psnr(&recon),
            config: out.estimate.config,
            bytes: out.bytes,
            recon: recon.into_data(),
        }],
        fields: vec![field],
    })
}
