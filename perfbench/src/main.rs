//! The SAPA benchmark: four workloads driving the public APIs of
//! `workloads`, `isa`, `cpu`, `repro`, `bioseq`, `align` and `service`.
//!
//! ```text
//! perfbench --workload <sim_paper|search_scan|search_indexed|service_mixed>
//!           --seed <n> --seconds <s> --trace <0|1> --offered-rps <r>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with no
//! tracing. With `--trace 1` it repeats that measurement untraced, runs
//! it again with spans around every layer call, and prints the
//! per-layer metrics, the residual (end-to-end time minus the layers it
//! covers) and the tracing overhead (traced minus untraced). Every
//! workload checks its own output; a failed check fails the run. The
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod host;
mod search;
mod service;
mod sim;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use spans::Tracer;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed; 0 reproduces the inputs the repository's own
    /// experiments use.
    pub seed: u64,
    /// Measured seconds per phase.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Open-loop offered rate for `service_mixed`, requests/s.
    pub offered_rps: Option<f64>,
}

/// Worker threads for every parallel stage: the host's CPU count.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// One end-to-end metric every workload reports, with its unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric: name, unit, and the end-to-end metric (and
/// workload) it should move. A traced run prints all of them; a layer
/// the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("workloads.trace_s", "s", "setup_s on sim_paper"),
    ("isa.pack_s", "s", "setup_s on sim_paper"),
    ("isa.check_s", "s", "setup_s on sim_paper"),
    ("isa.decode_ns_per_inst", "ns", "ops_per_s on sim_paper"),
    (
        "cpu.run_ns_per_inst.SSEARCH34",
        "ns",
        "ops_per_s on sim_paper",
    ),
    (
        "cpu.run_ns_per_inst.SW_vmx128",
        "ns",
        "ops_per_s on sim_paper",
    ),
    (
        "cpu.run_ns_per_inst.SW_vmx256",
        "ns",
        "ops_per_s on sim_paper",
    ),
    (
        "cpu.run_ns_per_inst.FASTA34",
        "ns",
        "ops_per_s on sim_paper",
    ),
    ("cpu.run_ns_per_inst.BLAST", "ns", "ops_per_s on sim_paper"),
    ("cpu.sweep_efficiency", "frac", "ops_per_s on sim_paper"),
    (
        "cpu.sweep_slowest_job_share",
        "frac",
        "ops_per_s, p50_ms on sim_paper",
    ),
    (
        "cpu.cycles.SSEARCH34",
        "count",
        "identical in a simulator-speed-only change",
    ),
    (
        "cpu.cycles.SW_vmx128",
        "count",
        "identical in a simulator-speed-only change",
    ),
    (
        "cpu.cycles.SW_vmx256",
        "count",
        "identical in a simulator-speed-only change",
    ),
    (
        "cpu.cycles.FASTA34",
        "count",
        "identical in a simulator-speed-only change",
    ),
    (
        "cpu.cycles.BLAST",
        "count",
        "identical in a simulator-speed-only change",
    ),
    (
        "cpu.sim_digest",
        "count",
        "identical in a simulator-speed-only change",
    ),
    (
        "bioseq.profile.build_us",
        "us",
        "p50_ms on search_scan, search_indexed",
    ),
    (
        "align.parallel.kernel_ms",
        "ms",
        "ops_per_s on search_scan (mostly), search_indexed",
    ),
    (
        "align.striped.gcups",
        "Gcell/s",
        "ops_per_s on search_scan (mostly), search_indexed",
    ),
    (
        "align.striped.rescore_frac",
        "frac",
        "ops_per_s on search_scan, search_indexed",
    ),
    (
        "align.striped.rescored",
        "count",
        "identical in a kernel-only change",
    ),
    ("align.traceback.ms_per_hit", "ms", "tail_ms on search_scan"),
    ("bioseq.index.build_s", "s", "setup_s on search_indexed"),
    ("bioseq.index.open_ms", "ms", "setup_s on search_indexed"),
    (
        "bioseq.index.bytes_per_residue",
        "B/residue",
        "peak_rss_mb on search_indexed",
    ),
    (
        "bioseq.index.prefilter_ms",
        "ms",
        "ops_per_s on search_indexed",
    ),
    (
        "bioseq.index.survival",
        "count",
        "ops_per_s on search_indexed",
    ),
    (
        "bioseq.index.read_shard_ms",
        "ms",
        "ops_per_s on search_indexed",
    ),
    (
        "bioseq.index.shards_read",
        "count",
        "ops_per_s on search_indexed",
    ),
    (
        "bioseq.index.decode_mb_per_s",
        "MB/s",
        "ops_per_s on search_indexed",
    ),
    (
        "bioseq.index.word_free_misses",
        "count",
        "significant hits the seed prefilter prunes by design, search_indexed",
    ),
    ("align.engine.residual_ms", "ms", "p50_ms on search_scan"),
    (
        "align.indexed.residual_ms",
        "ms",
        "p50_ms on search_indexed",
    ),
    ("service.protocol.parse_us", "us", "p50_ms on service_mixed"),
    (
        "service.protocol.render_us",
        "us",
        "p50_ms on service_mixed",
    ),
    (
        "service.admission.price_us",
        "us",
        "p50_ms on service_mixed",
    ),
    (
        "service.engine.prepare_us.striped",
        "us",
        "tail_ms, ops_per_s on service_mixed",
    ),
    (
        "service.engine.prepare_us.blast",
        "us",
        "tail_ms, ops_per_s on service_mixed",
    ),
    (
        "service.engine.prepare_us.fasta",
        "us",
        "tail_ms, ops_per_s on service_mixed",
    ),
    (
        "service.engine.scan_ms.striped",
        "ms",
        "tail_ms, ops_per_s on service_mixed",
    ),
    (
        "service.engine.scan_ms.blast",
        "ms",
        "tail_ms, ops_per_s on service_mixed",
    ),
    (
        "service.engine.scan_ms.fasta",
        "ms",
        "tail_ms, ops_per_s on service_mixed",
    ),
    ("service.queue_wait_ms_p50", "ms", "p50_ms on service_mixed"),
    (
        "service.queue_wait_ms_p99",
        "ms",
        "tail_ms on service_mixed",
    ),
    ("service.submitted", "count", "failed on service_mixed"),
    ("service.served_clean", "count", "failed on service_mixed"),
    ("service.rejected", "count", "failed on service_mixed"),
    (
        "service.quarantined_requests",
        "count",
        "failed on service_mixed",
    ),
    (
        "loadgen.late_p99_ms",
        "ms",
        "run validity only; moves no metric",
    ),
    (
        "trace.e2e_ms",
        "ms",
        "median traced operation (sim_paper: one sim_batch call), every workload",
    ),
    (
        "trace.residual_ms",
        "ms",
        "op time minus the layers it covers, every workload",
    ),
    (
        "trace.overhead_frac",
        "frac",
        "(traced - untraced) / untraced op time",
    ),
    ("trace.spans", "count", "spans recorded by the traced run"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (sim jobs, queries, requests).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Output-check failures; empty means correct.
    pub errors: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a check: `Err` marks the run incorrect.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.errors.push(e);
        }
    }

    /// Sets one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Records a latency distribution's median and tail with their sample
/// counts, in the workload's own metric names.
pub fn note_latency(out: &mut Outcome, label: &str, samples: &[f64], tail_p: f64) {
    let p50 = stats::median(samples).unwrap_or(0.0);
    let tail = stats::percentile(samples, tail_p).unwrap_or(0.0);
    out.note(format!(
        "{label}: p50 {p50:.3} ms ({} beyond), p{tail_p} {tail:.3} ms ({} beyond), n={}",
        stats::beyond(samples.len(), 50.0),
        stats::beyond(samples.len(), tail_p),
        samples.len()
    ));
    out.set("p50_ms", p50);
    out.set("tail_ms", tail);
}

/// Folds the spans of a traced run into the generic trace metrics and
/// writes them to `.perfbench-spans/<workload>-seed<n>.jsonl`.
pub fn finish_trace(out: &mut Outcome, tracer: &Tracer, args: &Args) {
    out.set("trace.spans", tracer.spans().len() as f64);
    for (name, (count, secs)) in tracer.self_times() {
        out.note(format!(
            "self time {name}: {:.3} ms total over {count} span(s)",
            secs * 1e3
        ));
    }
    let path = PathBuf::from(".perfbench-spans")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => out.note(format!("spans written to {}", path.display())),
        Err(e) => out.note(format!("could not write spans to {}: {e}", path.display())),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut offered_rps = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--offered-rps" => {
                let r: f64 = value()?
                    .parse()
                    .map_err(|e| format!("--offered-rps: {e}"))?;
                if !(r > 0.0 && r <= 100_000.0) {
                    return Err("--offered-rps must be in (0, 100000]".into());
                }
                offered_rps = Some(r);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        offered_rps,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "sim_paper" => Ok(sim::run(args)),
        "search_scan" => Ok(search::run(args, search::Mode::Scan)),
        "search_indexed" => Ok(search::run(args, search::Mode::Indexed)),
        "service_mixed" => service::run(args),
        other => Err(format!(
            "unknown workload {other}; expected sim_paper, search_scan, search_indexed or service_mixed"
        )),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("# host: {}", host::fingerprint());
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for line in &out.notes {
        println!("# {line}");
    }
    for e in &out.errors {
        println!("# CHECK FAILED: {e}");
    }

    let expected: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
    } else {
        out.set("peak_rss_mb", host::peak_rss_mib());
        END_TO_END.to_vec()
    };
    for name in out.metrics.keys() {
        assert!(
            expected.iter().any(|(n, _)| n == name),
            "workload reported undeclared metric {name}"
        );
    }
    let mut fields = Vec::with_capacity(expected.len());
    for (name, unit) in &expected {
        let value = out.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            out.errors.push(format!("metric {name} is not finite"));
            continue;
        }
        if args.trace {
            let maps = PER_LAYER.iter().find(|m| m.0 == *name).map_or("", |m| m.2);
            println!("# per-layer {name} = {value} {unit}  -> {maps}");
        } else {
            println!("# end-to-end {name} = {value} {unit}");
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    if out.attempted == 0 {
        out.errors.push("no operation was attempted".into());
    }
    let correct = out.errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
