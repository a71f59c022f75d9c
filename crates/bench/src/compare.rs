//! BENCH file parsing and the perf-trajectory regression gate.
//!
//! `bench compare old.json new.json` loads two `BENCH_psb.json` files (any
//! schema version that carries the per-kernel `results` rows), matches rows by
//! `(workload, dims, index, kernel)`, and reports every matched row whose
//! throughput dropped or whose p99/p99.9 latency rose by more than the
//! threshold (default 10%). The binary exits nonzero when any regression is
//! found, which is what lets `ci.sh bench-compare` gate a branch against the
//! committed baseline.
//!
//! Two optional gates ride on newer schemas and degrade gracefully on older
//! files (a field present in only one file is simply not compared):
//!
//! * **p99.9** (`p999_us`, schema v5+) — the tail-latency row field, gated
//!   exactly like p99.
//! * **serving outcome mix** (schema v5+) — the five outcome fractions of the
//!   pressured resilience replay. These are deterministic model outputs, so
//!   the gate is *absolute*: a degradation fraction (retried / degraded /
//!   deadline-degraded / rejected) that rose by more than `threshold` fraction
//!   points, or a clean fraction that fell by more, fails. A mix shift means
//!   the front-end started shedding or degrading queries it used to answer
//!   exactly — a serving regression even when every latency row got faster.
//! * **wave section** (schema v6+) — the buffer-wave engine's headline batch.
//!   `wave_qps` is gated like a row qps (relative drop beyond threshold
//!   fails), `wave_speedup` must not fall below parity-minus-threshold (the
//!   wave engine losing to the scheduled engine is the regression the section
//!   exists to catch), and `mean_buffer_fill` — a deterministic model output —
//!   must not drop by more than the threshold (lost fill means lost fetch
//!   amortization even if this machine's wall clock hides it).
//! * **memory section** (schema v8+) — per-family index footprint on the
//!   headline workload. Footprints are deterministic model outputs, so the
//!   gate compares **bytes per point** (robust to workload resizes): a family
//!   whose per-point footprint grew by more than the threshold fails. A
//!   family present in only one file is a note.
//! * **fast-path section** (schema v7+) — the headline batch under the
//!   `Metering::Off` fast path. `metering_off_qps` is gated like a row qps
//!   (relative drop beyond threshold fails).
//!
//! Parsing is deliberately line-oriented: the harness emits one result row per
//! line, so a full JSON parser is unnecessary (and the workspace is offline —
//! no serde). Rows that exist in only one file are reported as notes, never as
//! regressions: shrinking a workload should be an explicit review decision,
//! not a silent pass *or* a spurious failure.

use std::fmt::Write as _;

/// One per-kernel measurement row parsed back out of a BENCH file.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRow {
    pub workload: String,
    pub dims: usize,
    pub index: String,
    pub kernel: String,
    pub qps: f64,
    pub p99_us: f64,
    /// Tail latency, schema v5+; `None` on older files (not compared then).
    pub p999_us: Option<f64>,
}

impl BenchRow {
    /// Stable identity used to match rows across the two files.
    pub fn key(&self) -> String {
        format!("{}/{}d/{}/{}", self.workload, self.dims, self.index, self.kernel)
    }
}

/// The serving outcome mix (schema v5+): what fraction of the pressured
/// resilience replay resolved to each typed outcome. Deterministic model
/// outputs — comparable exactly, unlike wall-clock rows.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ServingMix {
    pub clean_frac: f64,
    pub retried_frac: f64,
    pub degraded_frac: f64,
    pub deadline_degraded_frac: f64,
    pub rejected_frac: f64,
}

/// The wave section (schema v6+): the headline batch through the buffer-wave
/// engine. Throughput fields are wall clock; `mean_buffer_fill` is a
/// deterministic model output.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WaveSection {
    pub wave_qps: f64,
    pub vs_scheduled_qps: f64,
    pub wave_speedup: f64,
    pub mean_buffer_fill: f64,
}

/// The fast-path section (schema v7+): the headline batch under the default
/// metered configuration and under `Metering::Off`. All wall clock.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FastPathSection {
    pub simd_qps: f64,
    pub metering_off_qps: f64,
}

/// One memory-section row (schema v8+): an index family's footprint beside
/// the raw point array. Deterministic model outputs.
#[derive(Clone, Debug, PartialEq)]
pub struct MemoryRow {
    pub index: String,
    pub index_bytes: f64,
    pub points_bytes: f64,
}

impl MemoryRow {
    /// Footprint normalized by workload size, the cross-file comparable.
    pub fn bytes_per_point(&self) -> f64 {
        self.index_bytes / self.points_bytes.max(1.0)
    }
}

/// The subset of a BENCH file the gate compares.
#[derive(Clone, Debug, Default)]
pub struct BenchFile {
    pub schema: String,
    pub rows: Vec<BenchRow>,
    /// Present on schema v5+ files that carry a `serving` section.
    pub serving: Option<ServingMix>,
    /// Present on schema v6+ files that carry a `wave` section.
    pub wave: Option<WaveSection>,
    /// Present on schema v7+ files that carry a `fast_path` section.
    pub fast_path: Option<FastPathSection>,
    /// Present on schema v8+ files that carry a `memory` section; empty
    /// otherwise.
    pub memory: Vec<MemoryRow>,
}

/// One threshold violation between two matched rows.
#[derive(Clone, Debug, PartialEq)]
pub struct Regression {
    /// Row identity, `workload/dims/index/kernel` — or `"serving"` for an
    /// outcome-mix violation.
    pub key: String,
    /// Which metric regressed: `"qps"`, `"p99_us"`, `"p999_us"`, or one of
    /// the `*_frac` outcome-mix fields.
    pub metric: &'static str,
    pub old: f64,
    pub new: f64,
    /// Change magnitude, signed so every regression direction is positive:
    /// relative for qps/latency, **absolute fraction points** for the
    /// outcome-mix fields.
    pub ratio: f64,
}

/// Extracts the value of `"field": <num>` from a flat JSON object line.
fn num_field(line: &str, field: &str) -> Option<f64> {
    let pat = format!("\"{field}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Extracts the value of `"field": "<str>"` from a flat JSON object line.
fn str_field(line: &str, field: &str) -> Option<String> {
    let pat = format!("\"{field}\": \"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

/// Parses the comparable subset of a BENCH file. Succeeds on any file whose
/// `results` rows carry the v1+ fields; the schema string is reported but not
/// enforced, so the gate can diff across schema bumps.
pub fn parse_bench(json: &str) -> Result<BenchFile, String> {
    let schema = str_field(json, "schema").ok_or("missing \"schema\" field")?;
    let mut rows = Vec::new();
    let mut serving = None;
    let mut wave = None;
    let mut fast_path = None;
    let mut memory = Vec::new();
    for line in json.lines() {
        // A memory row is the only line shape carrying `index_bytes`.
        if let (Some(index), Some(index_bytes), Some(points_bytes)) = (
            str_field(line, "index"),
            num_field(line, "index_bytes"),
            num_field(line, "points_bytes"),
        ) {
            memory.push(MemoryRow { index, index_bytes, points_bytes });
            continue;
        }
        // The fast-path section is emitted on a single line; nothing else in
        // the file carries `simd_qps` or `metering_off_qps`.
        if let (Some(simd_qps), Some(metering_off_qps)) =
            (num_field(line, "simd_qps"), num_field(line, "metering_off_qps"))
        {
            fast_path = Some(FastPathSection { simd_qps, metering_off_qps });
            continue;
        }
        // The wave section is emitted on a single line; nothing else in the
        // file carries `wave_qps`.
        if let (Some(wave_qps), Some(vs_scheduled_qps), Some(wave_speedup), Some(fill)) = (
            num_field(line, "wave_qps"),
            num_field(line, "vs_scheduled_qps"),
            num_field(line, "wave_speedup"),
            num_field(line, "mean_buffer_fill"),
        ) {
            wave = Some(WaveSection {
                wave_qps,
                vs_scheduled_qps,
                wave_speedup,
                mean_buffer_fill: fill,
            });
            continue;
        }
        // The serving outcome mix is emitted on a single line carrying all
        // five fractions; nothing else in the file has `clean_frac`.
        if let (Some(clean), Some(retried), Some(degraded), Some(deadline), Some(rejected)) = (
            num_field(line, "clean_frac"),
            num_field(line, "retried_frac"),
            num_field(line, "degraded_frac"),
            num_field(line, "deadline_degraded_frac"),
            num_field(line, "rejected_frac"),
        ) {
            serving = Some(ServingMix {
                clean_frac: clean,
                retried_frac: retried,
                degraded_frac: degraded,
                deadline_degraded_frac: deadline,
                rejected_frac: rejected,
            });
            continue;
        }
        // A result row is the only line shape with all five of these fields;
        // the throughput/sharding sections lack `p99_us` or `kernel`.
        let (Some(workload), Some(index), Some(kernel)) =
            (str_field(line, "workload"), str_field(line, "index"), str_field(line, "kernel"))
        else {
            continue;
        };
        let (Some(dims), Some(qps), Some(p99_us)) =
            (num_field(line, "dims"), num_field(line, "qps"), num_field(line, "p99_us"))
        else {
            continue;
        };
        let p999_us = num_field(line, "p999_us");
        rows.push(BenchRow { workload, dims: dims as usize, index, kernel, qps, p99_us, p999_us });
    }
    if rows.is_empty() {
        return Err("no result rows found (not a BENCH file?)".to_string());
    }
    Ok(BenchFile { schema, rows, serving, wave, fast_path, memory })
}

/// Compares matched rows; returns every violation of `threshold` (a fraction:
/// 0.10 means a >10% qps drop or >10% p99 rise fails). Rows present in only
/// one file are skipped — [`render_report`] lists them as notes.
pub fn compare(old: &BenchFile, new: &BenchFile, threshold: f64) -> Vec<Regression> {
    let mut out = Vec::new();
    for o in &old.rows {
        let Some(n) = new.rows.iter().find(|n| n.key() == o.key()) else { continue };
        if o.qps > 0.0 && n.qps < o.qps * (1.0 - threshold) {
            out.push(Regression {
                key: o.key(),
                metric: "qps",
                old: o.qps,
                new: n.qps,
                ratio: 1.0 - n.qps / o.qps,
            });
        }
        if o.p99_us > 0.0 && n.p99_us > o.p99_us * (1.0 + threshold) {
            out.push(Regression {
                key: o.key(),
                metric: "p99_us",
                old: o.p99_us,
                new: n.p99_us,
                ratio: n.p99_us / o.p99_us - 1.0,
            });
        }
        if let (Some(op), Some(np)) = (o.p999_us, n.p999_us) {
            if op > 0.0 && np > op * (1.0 + threshold) {
                out.push(Regression {
                    key: o.key(),
                    metric: "p999_us",
                    old: op,
                    new: np,
                    ratio: np / op - 1.0,
                });
            }
        }
    }
    if let (Some(om), Some(nm)) = (&old.serving, &new.serving) {
        // Absolute gate: the mix fractions are deterministic model outputs,
        // so any shift beyond `threshold` fraction points toward degradation
        // is a behavior change, not machine noise.
        let degrading: [(&'static str, f64, f64); 4] = [
            ("retried_frac", om.retried_frac, nm.retried_frac),
            ("degraded_frac", om.degraded_frac, nm.degraded_frac),
            ("deadline_degraded_frac", om.deadline_degraded_frac, nm.deadline_degraded_frac),
            ("rejected_frac", om.rejected_frac, nm.rejected_frac),
        ];
        for (metric, o, n) in degrading {
            if n > o + threshold {
                out.push(Regression {
                    key: "serving".into(),
                    metric,
                    old: o,
                    new: n,
                    ratio: n - o,
                });
            }
        }
        if nm.clean_frac < om.clean_frac - threshold {
            out.push(Regression {
                key: "serving".into(),
                metric: "clean_frac",
                old: om.clean_frac,
                new: nm.clean_frac,
                ratio: om.clean_frac - nm.clean_frac,
            });
        }
    }
    if let (Some(ow), Some(nw)) = (&old.wave, &new.wave) {
        if ow.wave_qps > 0.0 && nw.wave_qps < ow.wave_qps * (1.0 - threshold) {
            out.push(Regression {
                key: "wave".into(),
                metric: "wave_qps",
                old: ow.wave_qps,
                new: nw.wave_qps,
                ratio: 1.0 - nw.wave_qps / ow.wave_qps,
            });
        }
        // The section's reason to exist: the wave engine beating the
        // scheduled engine. A speedup below parity-minus-threshold fails
        // regardless of what the baseline measured.
        if nw.wave_speedup < 1.0 - threshold {
            out.push(Regression {
                key: "wave".into(),
                metric: "wave_speedup",
                old: ow.wave_speedup,
                new: nw.wave_speedup,
                ratio: 1.0 - nw.wave_speedup,
            });
        }
        // Deterministic model output: lost buffer fill is lost fetch
        // amortization, even when this machine's wall clock hides it.
        if ow.mean_buffer_fill > 0.0
            && nw.mean_buffer_fill < ow.mean_buffer_fill * (1.0 - threshold)
        {
            out.push(Regression {
                key: "wave".into(),
                metric: "mean_buffer_fill",
                old: ow.mean_buffer_fill,
                new: nw.mean_buffer_fill,
                ratio: 1.0 - nw.mean_buffer_fill / ow.mean_buffer_fill,
            });
        }
    }
    for om in &old.memory {
        let Some(nm) = new.memory.iter().find(|n| n.index == om.index) else { continue };
        // Deterministic model output, compared per point so workload resizes
        // between baselines don't read as footprint changes.
        let (o, n) = (om.bytes_per_point(), nm.bytes_per_point());
        if o > 0.0 && n > o * (1.0 + threshold) {
            out.push(Regression {
                key: format!("memory/{}", om.index),
                metric: "index_bytes_per_point",
                old: o,
                new: n,
                ratio: n / o - 1.0,
            });
        }
    }
    if let (Some(of), Some(nf)) = (&old.fast_path, &new.fast_path) {
        if of.metering_off_qps > 0.0
            && nf.metering_off_qps < of.metering_off_qps * (1.0 - threshold)
        {
            out.push(Regression {
                key: "fast_path".into(),
                metric: "metering_off_qps",
                old: of.metering_off_qps,
                new: nf.metering_off_qps,
                ratio: 1.0 - nf.metering_off_qps / of.metering_off_qps,
            });
        }
    }
    out
}

/// Human-readable comparison report: regressions first, then unmatched-row
/// notes, then the verdict line.
pub fn render_report(
    old: &BenchFile,
    new: &BenchFile,
    threshold: f64,
    regs: &[Regression],
) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "bench compare: {} old rows ({}) vs {} new rows ({}), threshold {:.0}%",
        old.rows.len(),
        old.schema,
        new.rows.len(),
        new.schema,
        threshold * 100.0
    );
    for r in regs {
        let _ = writeln!(
            s,
            "  REGRESSION {:<40} {:>7}: {:.3} -> {:.3} ({:+.1}%)",
            r.key,
            r.metric,
            r.old,
            r.new,
            r.ratio * 100.0 * if r.metric == "qps" { -1.0 } else { 1.0 }
        );
    }
    for o in &old.rows {
        if !new.rows.iter().any(|n| n.key() == o.key()) {
            let _ = writeln!(s, "  note: row {} missing from new file", o.key());
        }
    }
    for n in &new.rows {
        if !old.rows.iter().any(|o| o.key() == n.key()) {
            let _ = writeln!(s, "  note: row {} new (no baseline)", n.key());
        }
    }
    match (&old.serving, &new.serving) {
        (Some(_), None) => {
            let _ = writeln!(s, "  note: serving outcome mix missing from new file");
        }
        (None, Some(_)) => {
            let _ = writeln!(s, "  note: serving outcome mix new (no baseline)");
        }
        _ => {}
    }
    match (&old.wave, &new.wave) {
        (Some(_), None) => {
            let _ = writeln!(s, "  note: wave section missing from new file");
        }
        (None, Some(_)) => {
            let _ = writeln!(s, "  note: wave section new (no baseline)");
        }
        _ => {}
    }
    for om in &old.memory {
        if !new.memory.iter().any(|n| n.index == om.index) {
            let _ = writeln!(s, "  note: memory row {} missing from new file", om.index);
        }
    }
    for nm in &new.memory {
        if !old.memory.iter().any(|o| o.index == nm.index) {
            let _ = writeln!(s, "  note: memory row {} new (no baseline)", nm.index);
        }
    }
    match (&old.fast_path, &new.fast_path) {
        (Some(_), None) => {
            let _ = writeln!(s, "  note: fast-path section missing from new file");
        }
        (None, Some(_)) => {
            let _ = writeln!(s, "  note: fast-path section new (no baseline)");
        }
        _ => {}
    }
    if regs.is_empty() {
        let _ = writeln!(s, "  OK: no regression beyond {:.0}%", threshold * 100.0);
    } else {
        let _ = writeln!(s, "  FAIL: {} regression(s)", regs.len());
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Emits the v5 row shape (with `p999_us` = 2 × p99).
    fn bench_json(rows: &[(&str, usize, &str, &str, f64, f64)]) -> String {
        let mut s = String::from("{\n  \"schema\": \"psb-bench-v5\",\n  \"results\": [\n");
        for (i, (w, d, ix, k, qps, p99)) in rows.iter().enumerate() {
            let comma = if i + 1 == rows.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "    {{\"workload\": \"{w}\", \"dims\": {d}, \"index\": \"{ix}\", \
                 \"kernel\": \"{k}\", \"build_ms\": 1.0, \"queries\": 8, \"qps\": {qps:.3}, \
                 \"p50_us\": 1.0, \"p99_us\": {p99:.3}, \"p999_us\": {:.3}}}{comma}",
                p99 * 2.0
            );
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Appends a serving section with the given outcome mix to a bench file.
    fn with_serving(json: &str, mix: &ServingMix) -> String {
        let body = json.trim_end().trim_end_matches('}');
        format!(
            "{body},\n  \"serving\": {{\n    \"batch_size\": 240, \"shards\": 4, \
             \"qps\": 100.0, \"cache_hit_frac\": 0.1,\n    \"outcome_mix\": \
             {{\"clean_frac\": {:.4}, \"retried_frac\": {:.4}, \"degraded_frac\": {:.4}, \
             \"deadline_degraded_frac\": {:.4}, \"rejected_frac\": {:.4}}}\n  }}\n}}\n",
            mix.clean_frac,
            mix.retried_frac,
            mix.degraded_frac,
            mix.deadline_degraded_frac,
            mix.rejected_frac
        )
    }

    /// Appends a wave section (the v6 one-line shape) to a bench file.
    fn with_wave(json: &str, w: &WaveSection) -> String {
        let body = json.trim_end().trim_end_matches('}');
        format!(
            "{body},\n  \"wave\": {{\n    \"workload\": \"uniform-16d/sstree/psb\", \
             \"batch_size\": 240, \"wave_qps\": {:.3}, \"vs_scheduled_qps\": {:.3}, \
             \"wave_speedup\": {:.4}, \"waves\": 4, \"coalesced_sweeps\": 1300, \
             \"buffered_entries\": 320000, \"mean_buffer_fill\": {:.4}, \
             \"max_buffer_fill\": 240\n  }}\n}}\n",
            w.wave_qps, w.vs_scheduled_qps, w.wave_speedup, w.mean_buffer_fill
        )
    }

    /// Appends a fast-path section (the v7 one-line shape) to a bench file.
    fn with_fast_path(json: &str, fp: &FastPathSection) -> String {
        let body = json.trim_end().trim_end_matches('}');
        format!(
            "{body},\n  \"fast_path\": {{\n    \"workload\": \"uniform-16d/sstree/psb\", \
             \"batch_size\": 240, \"simd_qps\": {:.3}, \"metering_off_qps\": {:.3}\n  }}\n}}\n",
            fp.simd_qps, fp.metering_off_qps
        )
    }

    /// Appends a memory section (the v8 one-row-per-line shape) to a bench
    /// file.
    fn with_memory(json: &str, rows: &[(&str, u64, u64)]) -> String {
        let body = json.trim_end().trim_end_matches('}');
        let mut s =
            format!("{body},\n  \"memory\": {{\n    \"workload\": \"uniform-16d\", \"rows\": [");
        for (i, (index, ib, pb)) in rows.iter().enumerate() {
            let comma = if i + 1 == rows.len() { "" } else { "," };
            let _ = write!(
                s,
                "\n      {{\"index\": \"{index}\", \"index_bytes\": {ib}, \
                 \"points_bytes\": {pb}}}{comma}"
            );
        }
        s.push_str("\n    ]\n  }\n}\n");
        s
    }

    #[test]
    fn memory_section_parses_and_gates() {
        let base = bench_json(&[("uniform", 16, "sstree", "psb", 1000.0, 50.0)]);
        let old = parse_bench(&with_memory(
            &base,
            &[("sstree", 2_400_000, 1_600_000), ("kdtree", 1_600_016, 1_600_000)],
        ))
        .unwrap();
        assert_eq!(old.memory.len(), 2, "memory rows must parse back out");
        assert_eq!(old.memory[1].index, "kdtree");

        // Self-compare is clean, and a workload resize at the same
        // bytes-per-point ratio is not a regression.
        assert!(compare(&old, &old, 0.0).is_empty());
        let resized = parse_bench(&with_memory(
            &base,
            &[("sstree", 4_800_000, 3_200_000), ("kdtree", 3_200_016, 3_200_000)],
        ))
        .unwrap();
        assert!(compare(&old, &resized, 0.10).is_empty());

        // A family whose per-point footprint grew beyond the threshold fails.
        let grown = parse_bench(&with_memory(
            &base,
            &[("sstree", 2_400_000, 1_600_000), ("kdtree", 2_600_000, 1_600_000)],
        ))
        .unwrap();
        let regs = compare(&old, &grown, 0.10);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert_eq!(regs[0].key, "memory/kdtree");
        assert_eq!(regs[0].metric, "index_bytes_per_point");
    }

    #[test]
    fn memory_row_in_one_file_is_a_note_not_a_regression() {
        let base = bench_json(&[("uniform", 16, "sstree", "psb", 1000.0, 50.0)]);
        let old = parse_bench(&base).unwrap();
        let new = parse_bench(&with_memory(&base, &[("kdtree", 1_600_016, 1_600_000)])).unwrap();
        let regs = compare(&old, &new, 0.10);
        assert!(regs.is_empty());
        let report = render_report(&old, &new, 0.10, &regs);
        assert!(report.contains("memory row kdtree new"));
        let report = render_report(&new, &old, 0.10, &compare(&new, &old, 0.10));
        assert!(report.contains("memory row kdtree missing"));
    }

    #[test]
    fn parses_rows_back_out_of_emitted_shape() {
        let json = bench_json(&[
            ("uniform", 16, "sstree", "psb", 1000.0, 50.0),
            ("gaussian", 4, "rtree", "bnb", 2000.0, 25.0),
        ]);
        let f = parse_bench(&json).unwrap();
        assert_eq!(f.schema, "psb-bench-v5");
        assert_eq!(f.rows.len(), 2);
        assert_eq!(f.rows[0].key(), "uniform/16d/sstree/psb");
        assert_eq!(f.rows[1].dims, 4);
        assert_eq!(f.rows[1].qps, 2000.0);
        assert_eq!(f.rows[1].p99_us, 25.0);
        assert_eq!(f.rows[1].p999_us, Some(50.0));
        assert!(f.serving.is_none());
    }

    #[test]
    fn v4_files_without_p999_still_parse_and_compare() {
        // The committed baseline may predate the tail field: rows parse with
        // `p999_us: None` and the p999 gate silently does not apply.
        let v4 = "{\n  \"schema\": \"psb-bench-v4\",\n  \"results\": [\n    \
                  {\"workload\": \"uniform\", \"dims\": 16, \"index\": \"sstree\", \
                  \"kernel\": \"psb\", \"build_ms\": 1.0, \"queries\": 8, \"qps\": 1000.0, \
                  \"p50_us\": 1.0, \"p99_us\": 50.0}\n  ]\n}\n";
        let old = parse_bench(v4).unwrap();
        assert_eq!(old.rows[0].p999_us, None);
        let new =
            parse_bench(&bench_json(&[("uniform", 16, "sstree", "psb", 1000.0, 50.0)])).unwrap();
        assert!(compare(&old, &new, 0.10).is_empty());
        let report = render_report(&old, &new, 0.10, &[]);
        assert!(report.contains("OK"));
    }

    #[test]
    fn rejects_files_without_rows() {
        assert!(parse_bench("{}").is_err());
        assert!(parse_bench("{\"schema\": \"psb-bench-v4\"}").is_err());
    }

    #[test]
    fn injected_p99_regression_beyond_threshold_fails() {
        let old = parse_bench(&bench_json(&[("uniform", 16, "sstree", "psb", 1000.0, 50.0)]));
        let new = parse_bench(&bench_json(&[("uniform", 16, "sstree", "psb", 1000.0, 60.0)]));
        let regs = compare(&old.unwrap(), &new.unwrap(), 0.10);
        // The helper derives p999 from p99, so the tail gate trips alongside.
        assert_eq!(regs.len(), 2);
        assert_eq!(regs[0].metric, "p99_us");
        assert!(regs[0].ratio > 0.10);
        assert_eq!(regs[1].metric, "p999_us");
    }

    #[test]
    fn qps_drop_beyond_threshold_fails() {
        let old = parse_bench(&bench_json(&[("uniform", 16, "sstree", "psb", 1000.0, 50.0)]));
        let new = parse_bench(&bench_json(&[("uniform", 16, "sstree", "psb", 850.0, 50.0)]));
        let regs = compare(&old.unwrap(), &new.unwrap(), 0.10);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "qps");
    }

    #[test]
    fn changes_within_threshold_pass() {
        let old = parse_bench(&bench_json(&[("uniform", 16, "sstree", "psb", 1000.0, 50.0)]));
        let new = parse_bench(&bench_json(&[("uniform", 16, "sstree", "psb", 950.0, 54.0)]));
        assert!(compare(&old.unwrap(), &new.unwrap(), 0.10).is_empty());
    }

    #[test]
    fn self_compare_is_always_clean() {
        let f = parse_bench(&bench_json(&[
            ("uniform", 16, "sstree", "psb", 1000.0, 50.0),
            ("gaussian", 4, "rtree", "brute", 10.0, 9999.0),
        ]))
        .unwrap();
        assert!(compare(&f, &f, 0.0).is_empty());
    }

    #[test]
    fn p999_regression_beyond_threshold_fails() {
        // Same qps and p99 — only the tail moved. The injected p999 (2 × p99
        // via the helper) rises from 100 to 140.
        let old = parse_bench(&bench_json(&[("uniform", 16, "sstree", "psb", 1000.0, 50.0)]));
        let new = parse_bench(&bench_json(&[("uniform", 16, "sstree", "psb", 1000.0, 70.0)]));
        let regs = compare(&old.unwrap(), &new.unwrap(), 0.10);
        assert_eq!(regs.len(), 2, "p99 and p999 both moved: {regs:?}");
        assert!(regs.iter().any(|r| r.metric == "p999_us" && r.old == 100.0 && r.new == 140.0));
    }

    #[test]
    fn outcome_mix_shift_toward_degradation_fails() {
        let base = bench_json(&[("uniform", 16, "sstree", "psb", 1000.0, 50.0)]);
        let om = ServingMix {
            clean_frac: 0.70,
            retried_frac: 0.05,
            degraded_frac: 0.02,
            deadline_degraded_frac: 0.13,
            rejected_frac: 0.10,
        };
        let nm = ServingMix { clean_frac: 0.50, rejected_frac: 0.30, ..om };
        let old = parse_bench(&with_serving(&base, &om)).unwrap();
        assert_eq!(old.serving, Some(om), "serving section must parse back out");
        let new = parse_bench(&with_serving(&base, &nm)).unwrap();
        let regs = compare(&old, &new, 0.10);
        assert_eq!(regs.len(), 2, "rejected rose and clean fell: {regs:?}");
        assert!(regs.iter().any(|r| r.metric == "rejected_frac" && r.key == "serving"));
        assert!(regs.iter().any(|r| r.metric == "clean_frac"));
        // Within-threshold drift passes.
        let drift = ServingMix { clean_frac: 0.65, rejected_frac: 0.15, ..om };
        let ok = parse_bench(&with_serving(&base, &drift)).unwrap();
        assert!(compare(&old, &ok, 0.10).is_empty());
    }

    #[test]
    fn serving_section_in_one_file_is_a_note_not_a_regression() {
        let base = bench_json(&[("uniform", 16, "sstree", "psb", 1000.0, 50.0)]);
        let om = ServingMix { clean_frac: 1.0, ..ServingMix::default() };
        let old = parse_bench(&base).unwrap();
        let new = parse_bench(&with_serving(&base, &om)).unwrap();
        let regs = compare(&old, &new, 0.10);
        assert!(regs.is_empty());
        let report = render_report(&old, &new, 0.10, &regs);
        assert!(report.contains("serving outcome mix new"));
    }

    #[test]
    fn wave_section_parses_and_gates() {
        let base = bench_json(&[("uniform", 16, "sstree", "psb", 1000.0, 50.0)]);
        let ow = WaveSection {
            wave_qps: 3000.0,
            vs_scheduled_qps: 2200.0,
            wave_speedup: 1.3636,
            mean_buffer_fill: 240.0,
        };
        let old = parse_bench(&with_wave(&base, &ow)).unwrap();
        assert_eq!(old.wave, Some(ow), "wave section must parse back out");

        // Self-compare and within-threshold drift pass.
        assert!(compare(&old, &old, 0.0).is_empty());
        let drift = WaveSection { wave_qps: 2800.0, wave_speedup: 1.27, ..ow };
        let ok = parse_bench(&with_wave(&base, &drift)).unwrap();
        assert!(compare(&old, &ok, 0.10).is_empty());

        // Wave throughput collapsing fails on both the qps and speedup gates.
        let slow = WaveSection {
            wave_qps: 1800.0,
            vs_scheduled_qps: 2200.0,
            wave_speedup: 0.8182,
            mean_buffer_fill: 240.0,
        };
        let new = parse_bench(&with_wave(&base, &slow)).unwrap();
        let regs = compare(&old, &new, 0.10);
        assert!(regs.iter().any(|r| r.metric == "wave_qps" && r.key == "wave"), "{regs:?}");
        assert!(regs.iter().any(|r| r.metric == "wave_speedup"), "{regs:?}");

        // Lost buffer occupancy fails even with wall clock intact.
        let hollow = WaveSection { mean_buffer_fill: 12.0, ..ow };
        let new = parse_bench(&with_wave(&base, &hollow)).unwrap();
        let regs = compare(&old, &new, 0.10);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert_eq!(regs[0].metric, "mean_buffer_fill");
    }

    #[test]
    fn wave_section_in_one_file_is_a_note_not_a_regression() {
        let base = bench_json(&[("uniform", 16, "sstree", "psb", 1000.0, 50.0)]);
        let ow = WaveSection {
            wave_qps: 3000.0,
            vs_scheduled_qps: 2200.0,
            wave_speedup: 1.3636,
            mean_buffer_fill: 240.0,
        };
        let old = parse_bench(&base).unwrap();
        let new = parse_bench(&with_wave(&base, &ow)).unwrap();
        let regs = compare(&old, &new, 0.10);
        assert!(regs.is_empty());
        let report = render_report(&old, &new, 0.10, &regs);
        assert!(report.contains("wave section new"));
        let report = render_report(&new, &old, 0.10, &compare(&new, &old, 0.10));
        assert!(report.contains("wave section missing"));
    }

    #[test]
    fn fast_path_section_parses_and_gates() {
        let base = bench_json(&[("uniform", 16, "sstree", "psb", 1000.0, 50.0)]);
        let of = FastPathSection { simd_qps: 2400.0, metering_off_qps: 3000.0 };
        let old = parse_bench(&with_fast_path(&base, &of)).unwrap();
        assert_eq!(old.fast_path, Some(of), "fast-path section must parse back out");

        // Self-compare and within-threshold drift pass.
        assert!(compare(&old, &old, 0.0).is_empty());
        let drift = FastPathSection { metering_off_qps: 2800.0, ..of };
        let ok = parse_bench(&with_fast_path(&base, &drift)).unwrap();
        assert!(compare(&old, &ok, 0.10).is_empty());

        // The fast path losing more than the threshold fails the qps gate.
        let slow = FastPathSection { simd_qps: 2400.0, metering_off_qps: 1700.0 };
        let new = parse_bench(&with_fast_path(&base, &slow)).unwrap();
        let regs = compare(&old, &new, 0.10);
        assert!(
            regs.iter().any(|r| r.metric == "metering_off_qps" && r.key == "fast_path"),
            "{regs:?}"
        );
    }

    #[test]
    fn fast_path_section_in_one_file_is_a_note_not_a_regression() {
        let base = bench_json(&[("uniform", 16, "sstree", "psb", 1000.0, 50.0)]);
        let of = FastPathSection { simd_qps: 2400.0, metering_off_qps: 3000.0 };
        let old = parse_bench(&base).unwrap();
        let new = parse_bench(&with_fast_path(&base, &of)).unwrap();
        let regs = compare(&old, &new, 0.10);
        assert!(regs.is_empty());
        let report = render_report(&old, &new, 0.10, &regs);
        assert!(report.contains("fast-path section new"));
        let report = render_report(&new, &old, 0.10, &compare(&new, &old, 0.10));
        assert!(report.contains("fast-path section missing"));
    }

    #[test]
    fn unmatched_rows_are_notes_not_regressions() {
        let old = parse_bench(&bench_json(&[
            ("uniform", 16, "sstree", "psb", 1000.0, 50.0),
            ("uniform", 16, "sstree", "bnb", 500.0, 90.0),
        ]))
        .unwrap();
        let new =
            parse_bench(&bench_json(&[("uniform", 16, "sstree", "psb", 1000.0, 50.0)])).unwrap();
        let regs = compare(&old, &new, 0.10);
        assert!(regs.is_empty());
        let report = render_report(&old, &new, 0.10, &regs);
        assert!(report.contains("missing from new file"));
        assert!(report.contains("OK"));
    }
}
