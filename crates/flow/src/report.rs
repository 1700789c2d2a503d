//! Rendering of [`FlowReport`] as human-readable text or machine-readable
//! JSON.
//!
//! The JSON writer is hand-rolled (the build is offline, so no `serde`):
//! it emits a stable, flat-ish document whose field names match the
//! [`FlowReport`] structure.

use crate::pipeline::{FlowReport, StageTimings};
use rms_core::cost::{MigStats, RramCost};
use std::fmt::Write as _;
use std::time::Duration;

/// Renders a report as an aligned text block for terminals.
pub fn render_text(r: &FlowReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "circuit {:?}: {} inputs, {} outputs, {} source gates",
        r.name, r.num_inputs, r.num_outputs, r.source_gates
    );
    let _ = writeln!(
        out,
        "flow: frontend={} algorithm={} realization={} effort={}",
        r.frontend, r.algorithm, r.realization, r.effort
    );
    let _ = writeln!(
        out,
        "mig:  {} -> {} majority nodes, depth {} -> {}, complemented edges {} -> {}",
        r.initial.gates,
        r.optimized.gates,
        r.initial.depth,
        r.optimized.depth,
        r.initial.complemented_edges,
        r.optimized.complemented_edges
    );
    let _ = writeln!(
        out,
        "opt:  {} cycles, {} passes, {} cut rewrites, peak {} nodes{}",
        r.opt.cycles,
        r.opt.passes,
        r.opt.rewrites,
        r.opt.peak_nodes,
        if r.opt.cancelled {
            " (truncated at deadline)"
        } else {
            ""
        }
    );
    let _ = writeln!(
        out,
        "sweep: {} classes, {} merges proved, {} resubs accepted, {} SAT conflicts ({} budget-exhausted)",
        r.opt.fraig_classes,
        r.opt.fraig_merges,
        r.opt.resubs,
        r.opt.sat_conflicts,
        r.opt.sat_budget_exhausted
    );
    let _ = writeln!(
        out,
        "cost ({}): R = {} devices, S = {} steps   (before optimization: R = {}, S = {})",
        r.realization,
        r.cost.rrams,
        r.cost.steps,
        initial_cost(r).rrams,
        initial_cost(r).steps
    );
    let _ = writeln!(
        out,
        "array: {} steps, {} physical devices   plim: {} instructions, {} cells",
        r.array_steps, r.array_physical_rrams, r.plim_instructions, r.plim_cells
    );
    let _ = writeln!(
        out,
        "verification: {} [policy: {}]",
        r.verify.label(),
        r.verify_mode
    );
    let t = &r.timings;
    let _ = writeln!(
        out,
        "time: parse {} + construct {} + optimize {} + compile {} + verify {}",
        ms(t.parse),
        ms(t.construct),
        ms(t.optimize),
        ms(t.compile),
        ms(t.verify)
    );
    out
}

/// Schema identifier stamped into every JSON report (the first field),
/// so machine consumers — `rms serve` clients in particular — can detect
/// format drift instead of silently misparsing. Bump the suffix whenever
/// a field is renamed, removed, or changes meaning; adding fields is
/// backward-compatible and does not bump it.
pub const REPORT_SCHEMA: &str = "rms-flow-report-v2";

/// Renders a report as a JSON object (one document, trailing newline).
pub fn render_json(r: &FlowReport) -> String {
    let mut j = Json::new();
    j.open();
    j.str_field("schema", REPORT_SCHEMA);
    j.str_field("name", &r.name);
    j.num_field("num_inputs", r.num_inputs as u64);
    j.num_field("num_outputs", r.num_outputs as u64);
    j.num_field("source_gates", r.source_gates as u64);
    j.str_field("algorithm", &r.algorithm.to_string());
    j.str_field("realization", &r.realization.to_string());
    j.num_field("effort", r.effort as u64);
    j.str_field("frontend", &r.frontend.to_string());
    j.obj_field("initial", |j| mig_stats(j, &r.initial));
    j.obj_field("optimized", |j| mig_stats(j, &r.optimized));
    j.obj_field("cost", |j| rram_cost(j, &r.cost));
    j.obj_field("array", |j| {
        j.num_field("steps", r.array_steps);
        j.num_field("physical_rrams", r.array_physical_rrams);
    });
    j.obj_field("plim", |j| {
        j.num_field("instructions", r.plim_instructions);
        j.num_field("cells", r.plim_cells);
    });
    j.obj_field("opt", |j| {
        j.num_field("cycles", r.opt.cycles as u64);
        j.num_field("passes", r.opt.passes);
        j.num_field("rewrites", r.opt.rewrites);
        j.num_field("gates_before", r.opt.gates_before);
        j.num_field("gates_after", r.opt.gates_after);
        j.num_field("peak_nodes", r.opt.peak_nodes);
        j.num_field("fraig_classes", r.opt.fraig_classes);
        j.num_field("fraig_merges", r.opt.fraig_merges);
        j.num_field("resubs", r.opt.resubs);
        j.num_field("sat_conflicts", r.opt.sat_conflicts);
        j.num_field("sat_budget_exhausted", r.opt.sat_budget_exhausted);
        j.bool_field("cancelled", r.opt.cancelled);
    });
    j.str_field("verification", &r.verify.label());
    j.obj_field("verify", |j| {
        j.str_field("mode", &r.verify_mode.to_string());
        let (method, conflicts, decisions) = match &r.verify {
            crate::verify::VerifyOutcome::Proved {
                conflicts,
                decisions,
            } => ("sat-proved", *conflicts, *decisions),
            crate::verify::VerifyOutcome::Exhaustive => ("exhaustive", 0, 0),
            crate::verify::VerifyOutcome::Sampled { .. } => ("sampled", 0, 0),
            crate::verify::VerifyOutcome::Skipped => ("skipped", 0, 0),
            crate::verify::VerifyOutcome::Failed { .. } => ("failed", 0, 0),
        };
        j.str_field("method", method);
        j.bool_field("proof", r.verify.is_proof());
        j.num_field("sat_conflicts", conflicts);
        j.num_field("sat_decisions", decisions);
    });
    j.num_field("verify_seed", r.verify_seed);
    j.obj_field("timings_ms", |j| timings(j, &r.timings));
    j.close();
    j.finish()
}

/// Table I metrics of the *initial* graph for the report's realization.
fn initial_cost(r: &FlowReport) -> RramCost {
    match r.realization {
        rms_core::Realization::Imp => r.initial.imp,
        rms_core::Realization::Maj => r.initial.maj,
    }
}

fn mig_stats(j: &mut Json, s: &MigStats) {
    j.num_field("gates", s.gates);
    j.num_field("depth", s.depth);
    j.num_field("complemented_edges", s.complemented_edges);
    j.num_field("levels_with_compl", s.levels_with_compl);
    j.obj_field("imp", |j| rram_cost(j, &s.imp));
    j.obj_field("maj", |j| rram_cost(j, &s.maj));
}

fn rram_cost(j: &mut Json, c: &RramCost) {
    j.num_field("rrams", c.rrams);
    j.num_field("steps", c.steps);
}

fn timings(j: &mut Json, t: &StageTimings) {
    j.float_field("parse", t.parse.as_secs_f64() * 1e3);
    j.float_field("construct", t.construct.as_secs_f64() * 1e3);
    j.float_field("optimize", t.optimize.as_secs_f64() * 1e3);
    j.float_field("compile", t.compile.as_secs_f64() * 1e3);
    j.float_field("verify", t.verify.as_secs_f64() * 1e3);
}

fn ms(d: Duration) -> String {
    format!("{:.2?}", d)
}

/// A tiny JSON object writer: fields are appended in call order, commas
/// and escaping handled internally.
struct Json {
    out: String,
    needs_comma: Vec<bool>,
}

impl Json {
    fn new() -> Self {
        Json {
            out: String::new(),
            needs_comma: Vec::new(),
        }
    }

    fn open(&mut self) {
        self.out.push('{');
        self.needs_comma.push(false);
    }

    fn close(&mut self) {
        self.out.push('}');
        self.needs_comma.pop();
    }

    fn key(&mut self, name: &str) {
        if let Some(c) = self.needs_comma.last_mut() {
            if *c {
                self.out.push(',');
            }
            *c = true;
        }
        let _ = write!(self.out, "\"{}\":", escape(name));
    }

    fn str_field(&mut self, name: &str, value: &str) {
        self.key(name);
        let _ = write!(self.out, "\"{}\"", escape(value));
    }

    fn num_field(&mut self, name: &str, value: u64) {
        self.key(name);
        let _ = write!(self.out, "{value}");
    }

    fn bool_field(&mut self, name: &str, value: bool) {
        self.key(name);
        let _ = write!(self.out, "{value}");
    }

    fn float_field(&mut self, name: &str, value: f64) {
        self.key(name);
        let _ = write!(self.out, "{value:.3}");
    }

    fn obj_field(&mut self, name: &str, body: impl FnOnce(&mut Json)) {
        self.key(name);
        self.open();
        body(self);
        self.close();
    }

    fn finish(mut self) -> String {
        self.out.push('\n');
        self.out
    }
}

/// Escapes a string for inclusion in a JSON document (used by every
/// hand-rolled JSON emitter in the workspace — the build is offline, so
/// no `serde`).
pub fn escape_json(s: &str) -> String {
    escape(s)
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::InputFormat;
    use crate::Pipeline;

    fn sample_report() -> FlowReport {
        Pipeline::from_str(
            InputFormat::Blif,
            ".model j\n.inputs a b c\n.outputs f\n.names a b c f\n111 1\n000 1\n.end\n",
            "j",
        )
        .unwrap()
        .effort(4)
        .run()
        .unwrap()
        .report
    }

    #[test]
    fn text_mentions_the_essentials() {
        let text = render_text(&sample_report());
        assert!(text.contains("circuit \"j\""));
        assert!(text.contains("verification: exhaustive"));
        assert!(text.contains("R = "));
        assert!(text.contains("cut rewrites"));
    }

    #[test]
    fn json_is_balanced_and_escaped() {
        let json = render_json(&sample_report());
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert!(
            json.starts_with(&format!("{{\"schema\":\"{REPORT_SCHEMA}\"")),
            "schema version must lead the report: {json}"
        );
        assert!(json.contains("\"algorithm\":\"RRAM costs\""));
        assert!(json.contains("\"cost\":{\"rrams\":"));
        assert!(json.contains("\"opt\":{\"cycles\":"));
        assert!(json.contains("\"verify\":{\"mode\":\"auto\""));
        assert!(json.contains("\"method\":\"exhaustive\""));
        assert!(json.contains("\"proof\":true"));
        assert!(json.contains("\"verify_seed\":24301"));
        assert!(json.ends_with("}\n"));
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
