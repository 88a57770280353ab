//! One workload of the varitune end-to-end benchmark, in its own process.
//!
//! ```text
//! e2ebench --workload signoff|serve_mix --seed N --seconds S
//!          [--traced] [--setup-reps K] [--max-ops N] [--print-digests]
//! ```
//!
//! Prints human-readable progress, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics` (name → value).
//! `run.py` drives it; see `NOTES.md`.

mod common;
mod flow;
mod serve_mix;
mod signoff;

use std::process::ExitCode;

use common::{Args, Layers};

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        traced: false,
        setup_reps: 3,
        max_ops: usize::MAX,
        print_digests: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} expects a value"));
        match a.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--setup-reps" => {
                args.setup_reps = value()?.parse().map_err(|e| format!("--setup-reps: {e}"))?;
            }
            "--max-ops" => {
                args.max_ops = value()?.parse().map_err(|e| format!("--max-ops: {e}"))?;
            }
            "--traced" => args.traced = true,
            "--print-digests" => args.print_digests = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.print_digests {
        match args.workload.as_str() {
            "signoff" => signoff::print_digests(),
            "serve_mix" => serve_mix::print_digests(),
            other => {
                eprintln!("e2ebench: unknown workload {other:?}");
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }
    let mut layers = Layers::new(args.traced);
    let mut report = match args.workload.as_str() {
        "signoff" => signoff::run(&args, &mut layers),
        "serve_mix" => serve_mix::run(&args, &mut layers),
        other => {
            eprintln!("e2ebench: unknown workload {other:?}");
            return ExitCode::FAILURE;
        }
    };
    if args.traced {
        println!("{}", layers.table(report.setup_ms, report.op_ms));
        report.metrics.extend(layers.metrics());
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
