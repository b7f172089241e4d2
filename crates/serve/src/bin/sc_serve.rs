//! The `sc_serve` binary: run the solver service on stdin/stdout (pipe
//! mode, the default) or a TCP listener.
//!
//! ```text
//! sc_serve [--tcp ADDR] [--devices N] [--streams N] [--cache-mb MB]
//! ```
//!
//! Pipe mode serves exactly one session (EOF or `{"op":"shutdown"}` ends
//! it); TCP mode accepts connections sequentially, sharing one service —
//! one cache, one fairness ledger — across all of them.

use std::process::ExitCode;
use std::sync::Arc;

use sc_gpu::{DevicePool, DeviceSpec};
use sc_serve::{serve_stdio, serve_tcp, ServeOptions};

struct Args {
    tcp: Option<String>,
    devices: usize,
    streams: usize,
    cache_mb: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        tcp: None,
        devices: 2,
        streams: 2,
        cache_mb: 256,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match a.as_str() {
            "--tcp" => args.tcp = Some(val("--tcp")?),
            "--devices" => {
                args.devices = val("--devices")?
                    .parse()
                    .map_err(|e| format!("--devices: {e}"))?
            }
            "--streams" => {
                args.streams = val("--streams")?
                    .parse()
                    .map_err(|e| format!("--streams: {e}"))?
            }
            "--cache-mb" => {
                args.cache_mb = val("--cache-mb")?
                    .parse()
                    .map_err(|e| format!("--cache-mb: {e}"))?
            }
            "--help" | "-h" => {
                println!(
                    "usage: sc_serve [--tcp ADDR] [--devices N] [--streams N] [--cache-mb MB]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument \"{other}\"")),
        }
    }
    if args.devices == 0 || args.streams == 0 {
        return Err("--devices and --streams must be positive".to_string());
    }
    Ok(args)
}

fn pool_of(args: &Args) -> Arc<DevicePool> {
    DevicePool::uniform(DeviceSpec::a100(), args.devices, args.streams)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sc_serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let opts = ServeOptions {
        pool: pool_of(&args),
        cache_budget_bytes: args.cache_mb << 20,
    };
    let result = match &args.tcp {
        Some(addr) => {
            eprintln!("sc_serve: listening on {addr}");
            serve_tcp(addr, opts)
        }
        None => serve_stdio(opts),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sc_serve: I/O error: {e}");
            ExitCode::FAILURE
        }
    }
}
