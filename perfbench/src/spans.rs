//! The traced run's span log.
//!
//! The benchmark wraps each call into a layer's public function in a
//! span (name, start, end, parent). Spans are kept in memory, shared
//! by the measuring threads, and written out once the run ends. A
//! span's self time is its duration minus the time its child spans
//! cover.

use std::path::Path;
use std::sync::Mutex;

use tea_exp::json::Json;

/// One recorded span. Times are host monotonic nanoseconds
/// ([`tea_obs::now_ns`]).
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name, `crate::module` style.
    pub name: String,
    /// Host start time.
    pub start_ns: u64,
    /// Host end time (equal to the start while the span is open).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<usize>,
}

impl Span {
    /// Host duration in seconds.
    #[must_use]
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// An append-only, thread-shared span log. Span ids are indices.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> SpanLog {
        SpanLog::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span log lock is never held across a panic point")
    }

    /// Opens a span and returns its id.
    pub fn open(&self, name: &str, parent: Option<usize>) -> usize {
        let now = tea_obs::now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent,
        });
        spans.len() - 1
    }

    /// Closes span `id` and returns its host duration in seconds.
    pub fn close(&self, id: usize) -> f64 {
        let now = tea_obs::now_ns();
        let mut spans = self.lock();
        spans[id].end_ns = now;
        spans[id].secs()
    }

    /// Runs `f` inside a span; returns its value and host seconds.
    pub fn time<T>(&self, name: &str, parent: Option<usize>, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name, parent);
        let value = f();
        (value, self.close(id))
    }

    /// A copy of every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Host seconds of span `id` not covered by its direct children.
    #[must_use]
    pub fn self_secs(&self, id: usize) -> f64 {
        let spans = self.lock();
        let children: f64 = spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::secs)
            .sum();
        spans[id].secs() - children
    }

    /// Writes the log as one JSON document (a `spans` array with the
    /// self time of each span).
    ///
    /// # Errors
    ///
    /// The I/O error of the write.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let rows = (0..spans.len())
            .map(|id| {
                let s = &spans[id];
                Json::obj(vec![
                    ("id", Json::UInt(id as u64)),
                    ("name", Json::Str(s.name.clone())),
                    ("start_ns", Json::UInt(s.start_ns)),
                    ("end_ns", Json::UInt(s.end_ns)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                    ),
                    ("self_s", Json::Num(self.self_secs(id))),
                ])
            })
            .collect();
        let doc = Json::obj(vec![
            ("schema", Json::Str("tea-perfbench-spans/v1".to_string())),
            ("spans", Json::Arr(rows)),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.render_pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let log = SpanLog::new();
        let root = log.open("root", None);
        let (_, child) = log.time("child", Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let total = log.close(root);
        let own = log.self_secs(root);
        assert!(child >= 0.005);
        assert!((total - child - own).abs() < 1e-9);
    }
}
