//! `unsampled-span`: direct construction of `EventKind::Span` inside a
//! tick-phase function of a pipeline crate.
//!
//! Spans are the only telemetry emitted per *request*, so the tracing
//! layer's overhead budget rests on one invariant: every span produced on
//! the per-request tick path flows through a sampling-aware helper
//! (`push_span` / `emit_span`), which drops [`SPAN_NONE`] ids before any
//! buffering or serialization happens. A tick-phase function that builds
//! `EventKind::Span(..)` directly bypasses that guard — every request pays
//! for the span whether sampled or not, which is exactly the regression
//! the `< 2 %` overhead gate exists to catch, caught here at lint time
//! instead of on a noisy benchmark box.
//!
//! Epoch-phase functions (the batch barrier, epoch drivers) are exempt:
//! they run once per window, where unconditional emission (execution
//! spans, barrier spans) is the intended design. Consumers in the
//! telemetry crate (sinks matching on `EventKind::Span`) are out of scope
//! — the rule only covers [`PIPELINE_CRATES`].
//!
//! [`SPAN_NONE`]: https://docs.rs/ (mempod_telemetry::SPAN_NONE)

use crate::callgraph::{Model, PIPELINE_CRATES};
use crate::lint::Violation;

/// Helpers sanctioned to build span events: they own the `SPAN_NONE` /
/// sampling check, so construction inside them is the guard, not a bypass.
const SANCTIONED_FNS: &[&str] = &["push_span", "emit_span"];

/// Runs the rule over every tick-phase pipeline function of the model.
pub fn check(model: &Model, out: &mut Vec<Violation>) {
    let tick = model.tick_fns();
    for file in &model.files {
        if !PIPELINE_CRATES.contains(&file.crate_name.as_str()) {
            continue;
        }
        let pf = &file.parsed;
        let src = &pf.src;
        let toks = &pf.tokens;
        for it in &pf.items {
            if it.kind != crate::parser::ItemKind::Fn
                || it.cfg_test
                || SANCTIONED_FNS.contains(&it.name.as_str())
                || !tick.contains(&it.qual)
            {
                continue;
            }
            let Some((lo, hi)) = it.body_tokens else {
                continue;
            };
            for i in lo..hi.min(toks.len()).saturating_sub(2) {
                if toks[i].is_ident(src, "EventKind")
                    && toks[i + 1].is_punct(src, "::")
                    && toks[i + 2].is_ident(src, "Span")
                {
                    out.push(super::violation(
                        &file.rel,
                        pf,
                        toks[i].line,
                        toks[i].start,
                        "unsampled-span",
                        format!(
                            "tick-phase `{}` builds `EventKind::Span` directly, bypassing \
                             the sampling guard; route it through `push_span`/`emit_span` \
                             (or move the emission to an epoch-barrier function)",
                            it.qual
                        ),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// A one-crate fixture whose sim crate has a tick root (`pump`) with
    /// the given body, plus the sanctioned `push_span` helper.
    fn fixture(tag: &str, body: &str, extra: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!(
            "mempod-unsampled-span-{tag}-{}",
            std::process::id()
        ));
        if root.exists() {
            std::fs::remove_dir_all(&root).expect("stale fixture removed");
        }
        let write = |rel: &str, content: &str| {
            let p = root.join(rel);
            std::fs::create_dir_all(p.parent().expect("parent")).expect("mkdir");
            std::fs::write(p, content).expect("write");
        };
        write(
            "crates/sim/Cargo.toml",
            "[package]\nname = \"mempod-sim\"\n",
        );
        write("crates/sim/src/lib.rs", "pub mod simulator;\n");
        write(
            "crates/sim/src/simulator.rs",
            &format!(
                "pub struct Simulator {{ events: Vec<u64> }}\n\
                 impl Simulator {{\n\
                 \x20 pub fn run(&mut self) {{ self.pump(); }}\n\
                 \x20 fn pump(&mut self) {{\n{body}\n  }}\n\
                 \x20 fn push_span(&mut self, id: u64) {{\n\
                 \x20   if id != 0 {{ self.events.push(id); let _ = EventKind::Span(id); }}\n\
                 \x20 }}\n\
                 }}\n\
                 pub enum EventKind {{ Span(u64) }}\n{extra}"
            ),
        );
        root
    }

    fn findings(root: &PathBuf) -> Vec<Violation> {
        let model = Model::build(root).expect("model");
        let mut out = Vec::new();
        check(&model, &mut out);
        std::fs::remove_dir_all(root).ok();
        out
    }

    #[test]
    fn direct_span_construction_in_tick_fn_flags() {
        let root = fixture("direct", "    let e = EventKind::Span(7); let _ = e;", "");
        let v = findings(&root);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "unsampled-span");
        assert!(v[0].message.contains("Simulator::pump"), "{v:?}");
    }

    #[test]
    fn sanctioned_helper_and_epoch_barrier_do_not_flag() {
        // `push_span` (sanctioned) and `barrier` (epoch-phase by name)
        // both construct span events legitimately.
        let root = fixture(
            "clean",
            "    self.push_span(7);",
            "pub fn barrier(v: &mut Vec<EventKind>) {\n  \
             v.push(EventKind::Span(1));\n}\n",
        );
        let v = findings(&root);
        assert!(v.is_empty(), "{v:?}");
    }
}
