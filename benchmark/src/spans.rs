//! Wall-clock spans recorded by the harness around its calls into the
//! program: name, start, end, enclosing span and repetition id. Held in
//! memory for the life of the process and written once at exit.

use std::time::Instant;

pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub rep: u32,
}

pub struct Spans {
    origin: Instant,
    recs: Vec<SpanRec>,
    open: Vec<usize>,
    rep: u32,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            recs: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Repetition id stamped on every span opened from now on.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration in seconds.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> (R, f64) {
        let id = self.recs.len();
        let start_ns = self.now_ns();
        self.recs.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.recs[id].end_ns = end_ns;
        (r, (end_ns - start_ns) as f64 / 1e9)
    }

    /// [`Spans::timed`] for callers that do not need the duration.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        self.timed(name, f).0
    }

    /// Total seconds of the spans named `name` in repetition `rep`.
    pub fn total_s(&self, name: &str, rep: u32) -> f64 {
        self.recs
            .iter()
            .filter(|r| r.name == name && r.rep == rep)
            .fold(0.0, |sum, r| sum + (r.end_ns - r.start_ns) as f64 / 1e9)
    }

    /// Self time per span name: each span's duration minus the part its
    /// child spans cover, summed by name, in first-seen order.
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        let mut child_ns = vec![0u64; self.recs.len()];
        for r in &self.recs {
            if let Some(p) = r.parent {
                child_ns[p] += r.end_ns - r.start_ns;
            }
        }
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (i, r) in self.recs.iter().enumerate() {
            let own = (r.end_ns - r.start_ns).saturating_sub(child_ns[i]) as f64 / 1e9;
            match out.iter_mut().find(|(n, _)| *n == r.name) {
                Some(slot) => slot.1 += own,
                None => out.push((r.name, own)),
            }
        }
        out
    }

    /// Chrome `trace_event` complete events for the harness track
    /// (pid 1, so it sits beside the program's pid 0 virtual-time tracks),
    /// ready to splice into a `traceEvents` array.
    pub fn chrome_events(&self) -> Vec<String> {
        let mut ev = vec!["{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\
             \"args\":{\"name\":\"benchmark harness (wall clock)\"}}"
            .to_string()];
        for (i, r) in self.recs.iter().enumerate() {
            let parent = match r.parent {
                Some(p) => format!("{p}"),
                None => "null".to_string(),
            };
            ev.push(format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"name\":\"{}\",\"cat\":\"harness\",\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\"rep\":{}}}}}",
                r.name,
                r.start_ns as f64 / 1e3,
                (r.end_ns - r.start_ns) as f64 / 1e3,
                r.rep,
            ));
        }
        ev
    }
}
