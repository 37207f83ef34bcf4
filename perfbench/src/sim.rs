//! `sim_paper`: the paper's own experiment.
//!
//! Builds the paper-scale inputs (400 sequences, SW subset 4), has a
//! fresh `repro` [`Context`] generate and pack the five paper traces,
//! then simulates each trace at 4-way and 8-way with the default model
//! through [`Context::sim_batch`] on `nproc` threads. Nearly all of the
//! time is in `workloads`, `isa` and `cpu`; the search engines, the
//! index and the service are never reached, so this is the workload
//! that shows simulator-speed changes and bypasses every search change.
//!
//! One operation is one `sim_batch` call: one trace at both widths.

use std::time::Instant;

use sapa_align::engine::{Prefilter, SearchRequest};
use sapa_align::result::Hit;
use sapa_bioseq::db::DatabaseBuilder;
use sapa_bioseq::{AminoAcid, Sequence};
use sapa_cpu::{DecodeBuf, SimConfig, SimReport, Simulator};
use sapa_isa::{BlockDecoder, Inst, PackedTrace, BLOCK_LEN};
use sapa_repro::context::{Context, Scale};
use sapa_workloads::{StandardInputs, TraceBundle, Workload};

use crate::spans::Tracer;
use crate::{nproc, stats, Args, Outcome};

/// The database seed of the repository's paper-scale experiments;
/// `--seed n` draws the database from `PAPER_DB_SEED + n`.
const PAPER_DB_SEED: u64 = 2006;

/// Whole passes over the five traces a run makes at least, so the
/// median has ten samples above it.
const MIN_PASSES: usize = 4;

/// The paper-scale inputs with the database drawn from `seed`. The
/// Smith-Waterman subset stays the paper's four sequences: three of
/// the five traces scale with the subset's total length, and four
/// fresh lengths per seed moved trace sizes, and with them set-up time
/// and peak memory, by a fifth from seed to seed.
pub fn inputs(seed: u64) -> StandardInputs {
    let mut inputs = StandardInputs::paper_scale();
    let subset = inputs.sw_db().to_vec();
    inputs.db = DatabaseBuilder::new()
        .seed(PAPER_DB_SEED.wrapping_add(seed))
        .sequences(400)
        .homolog_template(inputs.query.clone())
        .build()
        .sequences()
        .to_vec();
    inputs.db[..subset.len()].clone_from_slice(&subset);
    inputs
}

fn widths() -> [(&'static str, SimConfig); 2] {
    [
        ("4-way", SimConfig::four_way()),
        ("8-way", SimConfig::eight_way()),
    ]
}

/// One `sim_batch` call: a trace at both widths.
struct Call {
    workload: Workload,
    ms: f64,
    instructions: u64,
}

impl Call {
    /// Host time per simulated instruction, ms.
    fn ms_per_inst(&self) -> f64 {
        self.ms / self.instructions.max(1) as f64
    }
}

/// What one measurement (a series of passes) saw.
struct Measured {
    setup_s: Vec<f64>,
    calls: Vec<Call>,
    jobs: u64,
    failed: u64,
    /// The first pass's reports: (workload, width index) order.
    reports: Vec<(Workload, usize, SimReport)>,
    errors: Vec<String>,
}

/// Checks one pass's reports: every job succeeded and retired exactly
/// the instructions of its trace.
pub fn check_jobs(
    outcomes: &[(Workload, &'static str, Result<SimReport, String>, usize)],
) -> Result<(), String> {
    for (w, width, outcome, trace_len) in outcomes {
        match outcome {
            Err(cause) => return Err(format!("{w} {width}: job failed: {cause}")),
            Ok(r) if r.instructions != *trace_len as u64 => {
                return Err(format!(
                    "{w} {width}: retired {} instructions of a {trace_len}-instruction trace",
                    r.instructions
                ))
            }
            Ok(_) => {}
        }
    }
    Ok(())
}

/// Checks that a traced workload's hits equal its native engine's
/// ranked hits on the same inputs.
pub fn check_bundle_hits(bundle: &TraceBundle, inputs: &StandardInputs) -> Result<(), String> {
    let w = bundle.workload;
    let (db, min_score) = match w {
        Workload::Fasta34 => (&inputs.db[..], inputs.fasta.min_report_score),
        Workload::Blast => (&inputs.db[..], inputs.blast.min_report_score),
        _ => (inputs.sw_db(), 1),
    };
    let subjects: Vec<&[AminoAcid]> = db.iter().map(Sequence::residues).collect();
    let req = SearchRequest {
        query: inputs.query.residues(),
        matrix: &inputs.matrix,
        gaps: inputs.gaps,
        top_k: inputs.keep,
        min_score,
        deadline: None,
        report_alignments: false,
        prefilter: Prefilter::Off,
    };
    let resp = w.engine().search(&req, &subjects, 1);
    let engine_hits: Vec<Hit> = resp
        .hits
        .iter()
        .map(|h| Hit {
            seq_index: h.seq_index,
            score: h.score,
        })
        .collect();
    if engine_hits == bundle.hits {
        Ok(())
    } else {
        Err(format!(
            "{w}: traced hits ({}) differ from engine {} hits ({})",
            bundle.hits.len(),
            w.engine(),
            engine_hits.len()
        ))
    }
}

/// FNV-1a over the reports' full debug rendering, folded to 53 bits
/// so it prints exactly as a JSON number.
pub fn digest(reports: &[(Workload, usize, SimReport)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (w, width, r) in reports {
        for b in format!("{w}/{width}/{r:?}").bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h & ((1 << 53) - 1)
}

fn measure(seed: u64, seconds: f64, mut tracer: Option<&mut Tracer>) -> Measured {
    let threads = nproc();
    let mut m = Measured {
        setup_s: Vec::new(),
        calls: Vec::new(),
        jobs: 0,
        failed: 0,
        reports: Vec::new(),
        errors: Vec::new(),
    };
    // Only the untraced measurement reports percentiles, so only it
    // needs the minimum sample count.
    let min = if tracer.is_some() { 1 } else { MIN_PASSES };
    let start = Instant::now();
    let mut passes = 0;
    while passes < min || start.elapsed().as_secs_f64() < seconds {
        // Set-up: inputs, then trace generation and packing inside a
        // fresh context (a reused one would answer from its memo).
        let span = tracer.as_deref_mut().map(|t| t.open("setup"));
        let t0 = Instant::now();
        let mut ctx = Context::with_threads(Scale::Paper, threads);
        ctx.inputs = inputs(seed);
        let lens: Vec<usize> = Workload::ALL.iter().map(|&w| ctx.trace(w).len()).collect();
        m.setup_s.push(t0.elapsed().as_secs_f64());
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
            t.close(id);
        }

        let pass = tracer.as_deref_mut().map(|t| t.open("pass"));
        for &w in &Workload::ALL {
            let points: Vec<(Workload, SimConfig)> =
                widths().into_iter().map(|(_, c)| (w, c)).collect();
            let before = ctx.sim_instructions();
            let t0 = Instant::now();
            match tracer.as_deref_mut() {
                Some(t) => t.time("cpu.sim_batch", || ctx.sim_batch(&points)).0,
                None => ctx.sim_batch(&points),
            }
            m.calls.push(Call {
                workload: w,
                ms: t0.elapsed().as_secs_f64() * 1e3,
                instructions: ctx.sim_instructions() - before,
            });
        }
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), pass) {
            t.close(id);
        }

        let mut outcomes = Vec::new();
        let mut reports = Vec::new();
        for (&w, &len) in Workload::ALL.iter().zip(&lens) {
            for (i, (name, cfg)) in widths().into_iter().enumerate() {
                let r = ctx.try_sim(w, &cfg).cloned();
                if let Ok(rep) = &r {
                    reports.push((w, i, rep.clone()));
                }
                outcomes.push((w, name, r, len));
            }
        }
        if let Err(e) = check_jobs(&outcomes) {
            m.errors.push(e);
        }
        if m.reports.is_empty() {
            m.reports = reports;
        } else if digest(&m.reports) != digest(&reports) {
            m.errors
                .push("simulation reports differ between passes of one run".into());
        }
        m.jobs += ctx.sim_jobs();
        m.failed += ctx.sim_failed();
        passes += 1;
    }
    m
}

/// Runs `sim_paper`.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let inputs = inputs(args.seed);
    let mut tracer = Tracer::new();

    // Per-trace layer calls: generation, packing, checking, decoding.
    // The hits check needs the bundles, so every run makes them once.
    let mut packed: Vec<(Workload, PackedTrace)> = Vec::new();
    for w in Workload::ALL {
        let (bundle, _) = tracer.time("workloads.trace", || w.trace(&inputs));
        out.check(check_bundle_hits(&bundle, &inputs));
        if args.trace {
            let (p, _) = tracer.time("isa.pack", || PackedTrace::from_trace(&bundle.trace));
            let (ok, _) = tracer.time("isa.check", || p.check());
            out.check(ok.map_err(|e| format!("{w}: packed trace fails check: {e}")));
            packed.push((w, p));
        }
    }

    let plain = measure(args.seed, args.seconds, None);
    out.attempted = plain.jobs;
    out.failed = plain.failed;
    out.errors.extend(plain.errors.iter().cloned());
    if !args.trace {
        // Each trace simulates at a nearly size-independent rate, but
        // the seed moves the BLAST and FASTA traces' lengths and so the
        // mix. The geometric mean of the five
        // per-trace rates, and latency per simulated instruction, keep
        // the metrics a property of the simulator rather than of the
        // draw. Each trace's rate is its median over the passes.
        let mut log_rates = 0.0;
        for w in Workload::ALL {
            let rates: Vec<f64> = plain
                .calls
                .iter()
                .filter(|c| c.workload == w)
                .map(|c| 1e3 / c.ms_per_inst())
                .collect();
            let r = stats::median(&rates).unwrap_or(0.0);
            out.note(format!("{w}: {:.3} M simulated instructions/s", r / 1e6));
            log_rates += r.ln();
        }
        let rate = (log_rates / Workload::ALL.len() as f64).exp();
        let insts: u64 = plain.calls.iter().map(|c| c.instructions).sum();
        let secs: f64 = plain.calls.iter().map(|c| c.ms).sum::<f64>() / 1e3;
        out.set("setup_s", stats::median(&plain.setup_s).unwrap_or(0.0));
        out.set("ops_per_s", rate);
        out.note(format!(
            "sim_minst_per_s = {:.3} (geometric mean over traces; pooled {:.3}: {insts} instructions in {secs:.3} s)",
            rate / 1e6,
            insts as f64 / secs / 1e6
        ));
        out.note(format!(
            "setup_s = median of {} set-ups {:?}",
            plain.setup_s.len(),
            plain.setup_s
        ));
        let per_inst: Vec<f64> = plain.calls.iter().map(Call::ms_per_inst).collect();
        crate::note_latency(
            &mut out,
            "sim_batch host time per simulated instruction",
            &per_inst,
            90.0,
        );
        return out;
    }

    let traced = measure(args.seed, args.seconds, Some(&mut tracer));
    out.errors.extend(traced.errors.iter().cloned());

    let sum = |name: &str| tracer.durations(name).iter().sum::<f64>();
    out.set("workloads.trace_s", sum("workloads.trace"));
    out.set("isa.pack_s", sum("isa.pack"));
    out.set("isa.check_s", sum("isa.check"));

    // Decode alone, then each job serially: the layers under a pass.
    let mut block = vec![Inst::default(); BLOCK_LEN];
    let mut decoded = 0usize;
    let (_, decode_s) = tracer.time("isa.decode", || {
        for (_, p) in &packed {
            let mut dec = BlockDecoder::new(p);
            loop {
                let n = dec.fill(&mut block);
                if n == 0 {
                    break;
                }
                decoded += n;
            }
        }
    });
    out.set(
        "isa.decode_ns_per_inst",
        decode_s * 1e9 / decoded.max(1) as f64,
    );

    let mut buf = DecodeBuf::new();
    let (mut job_sum, mut slowest_sum, mut wall_sum, mut critical_gap) = (0.0, 0.0, 0.0, 0.0);
    for (w, p) in &packed {
        let mut times = Vec::new();
        for (i, (_, cfg)) in widths().into_iter().enumerate() {
            let sim = Simulator::new(cfg);
            let (report, secs) = tracer.time("cpu.run", || sim.run_packed_with(p, &mut buf));
            if i == 0 {
                let per_inst = secs * 1e9 / report.instructions.max(1) as f64;
                out.set(run_metric(*w), per_inst);
                out.set(cycles_metric(*w), report.cycles as f64);
            }
            match traced
                .reports
                .iter()
                .find(|(rw, ri, _)| rw == w && *ri == i)
            {
                Some((_, _, r)) if *r == report => {}
                _ => out
                    .errors
                    .push(format!("{w}: serial replay differs from the sweep report")),
            }
            times.push(secs);
        }
        let walls: Vec<f64> = traced
            .calls
            .iter()
            .filter(|c| c.workload == *w)
            .map(|c| c.ms / 1e3)
            .collect();
        let wall = stats::median(&walls).unwrap_or(0.0);
        let slowest = times.iter().copied().fold(0.0, f64::max);
        job_sum += times.iter().sum::<f64>();
        slowest_sum += slowest;
        wall_sum += wall;
        critical_gap += wall - slowest;
    }
    // A two-job batch runs on at most two of the sweep's threads.
    let threads = nproc().min(2) as f64;
    out.set("cpu.sweep_efficiency", job_sum / (threads * wall_sum));
    out.set("cpu.sweep_slowest_job_share", slowest_sum / wall_sum);
    out.set("cpu.sim_digest", digest(&traced.reports) as f64);

    let kind = |m: &Measured| -> Vec<(usize, f64)> {
        m.calls
            .iter()
            .map(|c| {
                (
                    Workload::ALL
                        .iter()
                        .position(|x| *x == c.workload)
                        .unwrap_or(0),
                    c.ms,
                )
            })
            .collect()
    };
    let traced_ms: Vec<f64> = traced.calls.iter().map(|c| c.ms).collect();
    out.set("trace.e2e_ms", stats::median(&traced_ms).unwrap_or(0.0));
    out.set(
        "trace.residual_ms",
        critical_gap * 1e3 / packed.len() as f64,
    );
    out.set(
        "trace.overhead_frac",
        stats::overhead(&kind(&plain), &kind(&traced)),
    );
    out.note(format!(
        "e2e = median sim_batch call (one trace, both widths); residual = its wall minus its slowest serial job, mean over {} traces",
        packed.len()
    ));
    crate::finish_trace(&mut out, &tracer, args);
    out
}

fn run_metric(w: Workload) -> &'static str {
    match w {
        Workload::Ssearch34 => "cpu.run_ns_per_inst.SSEARCH34",
        Workload::SwVmx128 => "cpu.run_ns_per_inst.SW_vmx128",
        Workload::SwVmx256 => "cpu.run_ns_per_inst.SW_vmx256",
        Workload::Fasta34 => "cpu.run_ns_per_inst.FASTA34",
        Workload::Blast => "cpu.run_ns_per_inst.BLAST",
    }
}

fn cycles_metric(w: Workload) -> &'static str {
    match w {
        Workload::Ssearch34 => "cpu.cycles.SSEARCH34",
        Workload::SwVmx128 => "cpu.cycles.SW_vmx128",
        Workload::SwVmx256 => "cpu.cycles.SW_vmx256",
        Workload::Fasta34 => "cpu.cycles.FASTA34",
        Workload::Blast => "cpu.cycles.BLAST",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> StandardInputs {
        StandardInputs::with_db_size(12, 1)
    }

    #[test]
    fn traced_hits_match_the_engine_and_a_changed_hit_fails() {
        let inputs = tiny();
        let mut bundle = Workload::Blast.trace(&inputs);
        assert_eq!(check_bundle_hits(&bundle, &inputs), Ok(()));
        bundle.hits.push(Hit {
            seq_index: 0,
            score: 1,
        });
        assert!(check_bundle_hits(&bundle, &inputs).is_err());
    }

    #[test]
    fn a_job_that_retires_the_wrong_count_or_fails_is_caught() {
        let inputs = tiny();
        let trace = PackedTrace::from_trace(&Workload::Blast.trace(&inputs).trace);
        let report = Simulator::new(SimConfig::four_way()).run_packed(&trace);
        let ok = vec![(Workload::Blast, "4-way", Ok(report.clone()), trace.len())];
        assert_eq!(check_jobs(&ok), Ok(()));
        let short = vec![(Workload::Blast, "4-way", Ok(report), trace.len() + 1)];
        assert!(check_jobs(&short).is_err());
        let failed = vec![(Workload::Blast, "4-way", Err("boom".to_string()), 1)];
        assert!(check_jobs(&failed).is_err());
    }

    #[test]
    fn default_seed_reproduces_the_paper_inputs() {
        assert_eq!(inputs(0).db, StandardInputs::paper_scale().db);
        assert_ne!(inputs(1).db, inputs(0).db);
        assert_eq!(inputs(1).sw_db(), inputs(0).sw_db());
    }

    #[test]
    fn digest_changes_with_any_report_field() {
        let inputs = tiny();
        let trace = PackedTrace::from_trace(&Workload::Blast.trace(&inputs).trace);
        let report = Simulator::new(SimConfig::four_way()).run_packed(&trace);
        let a = vec![(Workload::Blast, 0, report.clone())];
        let mut changed = report;
        changed.cycles += 1;
        let b = vec![(Workload::Blast, 0, changed)];
        assert_ne!(digest(&a), digest(&b));
        assert!(digest(&a) < 1 << 53);
    }
}
