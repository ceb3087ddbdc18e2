//! In-memory span recorder of the traced run.
//!
//! Spans are opened and closed on the calling thread (PCG calls the
//! preconditioner from its caller), so a stack gives each span its parent.
//! Nothing is written until the run ends.

use std::sync::Mutex;
use std::time::Instant;

use solverbench::Span;

pub struct Recorder {
    origin: Instant,
    state: Mutex<State>,
}

struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    solve: u32,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            state: Mutex::new(State { spans: Vec::new(), open: Vec::new(), solve: 0 }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("span recorder poisoned by a panicking span")
    }

    /// Spans opened from now on belong to solve `id` (0: none).
    pub fn set_solve(&self, id: u32) {
        self.state().solve = id;
    }

    pub fn begin(&self, name: &str) -> usize {
        let start_ns = self.now_ns();
        let mut st = self.state();
        let idx = st.spans.len();
        let (parent, solve) = (st.open.last().copied(), st.solve);
        st.spans.push(Span { name: name.to_string(), start_ns, end_ns: start_ns, parent, solve });
        st.open.push(idx);
        idx
    }

    pub fn end(&self, idx: usize) {
        let end_ns = self.now_ns();
        let mut st = self.state();
        st.spans[idx].end_ns = end_ns;
        let popped = st.open.pop();
        debug_assert_eq!(popped, Some(idx), "spans must nest");
    }

    pub fn spans(&self) -> Vec<Span> {
        self.state().spans.clone()
    }
}

/// Run `f` inside a span named `name` when a recorder is given.
pub fn span<R>(rec: Option<&Recorder>, name: &str, f: impl FnOnce() -> R) -> R {
    match rec {
        None => f(),
        Some(rec) => {
            let idx = rec.begin(name);
            let out = f();
            rec.end(idx);
            out
        }
    }
}
