//! In-memory span recorder for the traced run.
//!
//! Every call the harness makes into a layer is wrapped in a span named
//! `<layer>.<call>`. Spans nest (a span opened while another is open
//! becomes its child), carry the id of the run they belong to, and stay in
//! memory until [`Tracer::write_json`] writes them out when the run ends.
//! A disabled tracer reads no clock and records nothing, so the timed runs
//! pay one branch per span.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub run: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Layer name of the harness's own root spans; everything else is a
/// layer of the program.
pub const BENCH_LAYER: &str = "bench";

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    run: u32,
    spans: Vec<Span>,
    /// Indices into `spans` of the currently open spans, innermost last.
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(), // lint:allow(wall-clock)
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off; spans already recorded are kept.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "cannot toggle tracing inside a span");
        self.enabled = enabled;
    }

    /// Sets the run id stamped on spans opened from now on.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().map(|&i| self.spans[i].id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            run: self.run,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id as usize);
    }

    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover (children never overlap on one thread).
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] -= s.dur_ns();
            }
        }
        own
    }

    /// Summed self time per layer, harness root spans included.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.layer()).or_insert(0) += own;
        }
        out
    }

    /// Σ self time of the program's layers ÷ Σ duration of the root spans:
    /// how much of the traced wall-clock the layer spans account for.
    pub fn stage_sum_ratio(&self) -> f64 {
        let roots: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur_ns)
            .sum();
        let layers: u64 = self
            .layer_self_ns()
            .iter()
            .filter(|(layer, _)| **layer != BENCH_LAYER)
            .map(|(_, ns)| ns)
            .sum();
        layers as f64 / roots.max(1) as f64
    }

    /// Total duration (seconds) of the spans named `name`, per run id.
    pub fn seconds_by_run(&self, name: &str) -> BTreeMap<u32, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.run).or_insert(0.0) += s.dur_ns() as f64 / 1e9;
        }
        out
    }

    /// Writes every span as one JSON document.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}  {{\"id\": {}, \"parent\": {}, \"run\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                if i == 0 { "" } else { ",\n" },
                s.id,
                parent,
                s.run,
                s.name,
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_roots_sum() {
        let mut t = Tracer::new(true);
        t.enter("bench.iter");
        t.span("core.inject", || {
            std::hint::black_box((0..1000).sum::<u64>())
        });
        t.enter("netsim.run");
        t.span("policy.replay", || ());
        t.exit();
        t.exit();
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        let own = t.self_ns();
        assert_eq!(own[2], spans[2].dur_ns() - spans[3].dur_ns());
        let total: u64 = own.iter().sum();
        assert_eq!(total, spans[0].dur_ns());
        assert!(t.stage_sum_ratio() <= 1.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.span("core.inject", || ());
        assert!(t.spans().is_empty());
    }
}
