//! Benchmark driver binary.
//!
//! ```text
//! fxrz-perfbench --workload <snapshot-sz|serve-mixed|stream-drift>
//!                --seed N --seconds S --trace <0|1>
//!                [--record-dir DIR] [--size tiny]
//! ```
//!
//! Writes the run record to `--record-dir`, prints every metric measured,
//! and as the last line of standard output one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics untraced,
//! the per-layer metrics with `--trace 1`). Exits non-zero without a
//! result line when the run cannot start.

use fxrz_perfbench::report::Report;
use fxrz_perfbench::{run_workload, Ctx, END_TO_END, PER_LAYER, WORKLOADS};
use serde::{Serialize, Value};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    ctx: Ctx,
    record_dir: Option<PathBuf>,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut record_dir = None;
    let mut tiny = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            "--record-dir" => record_dir = Some(PathBuf::from(value()?)),
            "--size" => {
                tiny = match value()?.as_str() {
                    "tiny" => true,
                    "full" => false,
                    other => return Err(format!("--size takes tiny or full, got {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(w, _)| *w == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        ctx: Ctx {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            tiny,
        },
        record_dir,
    })
}

/// The run record: everything measured plus the facts needed to
/// reproduce and interpret it.
fn record(args: &Args, rep: &Report) -> Value {
    let why = WORKLOADS
        .iter()
        .find(|(w, _)| *w == args.workload)
        .map_or("", |(_, why)| why);
    let commit = std::env::var("FXRZ_BENCH_COMMIT").unwrap_or_else(|_| "unknown".to_owned());
    let mut fields = vec![
        ("workload", args.workload.to_value()),
        ("why", why.to_value()),
        ("seed", args.ctx.seed.to_value()),
        ("seconds", args.ctx.seconds.to_value()),
        ("trace", args.ctx.trace.to_value()),
        (
            "size",
            (if args.ctx.tiny { "tiny" } else { "full" }).to_value(),
        ),
        ("nproc", fxrz_perfbench::cores().to_value()),
        ("pool_threads", fxrz_parallel::current_threads().to_value()),
        ("git_commit", commit.to_value()),
        ("attempted", rep.tally.attempted.to_value()),
        ("failed", rep.tally.failed.to_value()),
        ("failures", rep.tally.reasons.to_value()),
        ("end_to_end", rep.end_to_end.to_value()),
        ("layers", rep.layers.to_value()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_owned(), v))
    .collect::<Vec<_>>();
    fields.extend(rep.record.iter().cloned());
    Value::Object(fields)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut rep = match run_workload(&args.workload, &args.ctx) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    if let Some(rss) = fxrz_perfbench::peak_rss_mib() {
        rep.end_to_end.put("peak_rss_mib", rss, "MiB");
    }
    if rep.tally.attempted == 0 {
        eprintln!("error: {}: no operation was attempted", args.workload);
        return ExitCode::from(1);
    }
    let names = if args.ctx.trace {
        PER_LAYER
    } else {
        END_TO_END
    };
    let source = if args.ctx.trace {
        &rep.layers
    } else {
        &rep.end_to_end
    };
    let metrics = match source.select(names) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };

    let result = Value::Object(vec![
        ("correct".to_owned(), (rep.tally.failed == 0).to_value()),
        ("attempted".to_owned(), rep.tally.attempted.to_value()),
        ("failed".to_owned(), rep.tally.failed.to_value()),
        ("metrics".to_owned(), metrics),
    ]);
    let (Ok(rec), Ok(result)) = (
        serde_json::to_string(&record(&args, &rep)),
        serde_json::to_string(&result),
    ) else {
        eprintln!("error: {}: the result does not serialize", args.workload);
        return ExitCode::from(1);
    };
    if let Some(dir) = &args.record_dir {
        let path = dir.join(format!(
            "{}-seed{}-trace{}.json",
            args.workload,
            args.ctx.seed,
            u8::from(args.ctx.trace)
        ));
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &rec)) {
            eprintln!("warning: run record not written to {}: {e}", path.display());
        } else {
            println!("record: {}", path.display());
        }
    }
    for (n, v, u) in rep.end_to_end.iter().chain(rep.layers.iter()) {
        println!("{:<44} {:>14.4} {u}", n, v);
    }
    for reason in &rep.tally.reasons {
        println!("failure: {reason}");
    }
    println!("{result}");
    ExitCode::SUCCESS
}
