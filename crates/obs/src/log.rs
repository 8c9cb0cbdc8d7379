//! Structured leveled logging with text and JSON line formats.
//!
//! One process-global logger, configured once at startup (CLI flags) and/or
//! via the `GESMC_LOG` environment variable, then used through the
//! [`trace!`](crate::trace!)/[`debug!`](crate::debug!)/[`info!`](crate::info!)/
//! [`warn!`](crate::warn!)/[`error!`](crate::error!) macros:
//!
//! ```
//! gesmc_obs::info!(target: "gesmc_serve", "listening on {}", "127.0.0.1:8080");
//! gesmc_obs::warn!(target: "gesmc_serve", id: "req-00c0ffee", "slow request");
//! ```
//!
//! * **Filtering** — a spec like `info` or `warn,gesmc_serve=debug`: a bare
//!   level sets the default, `target=level` overrides for any target with
//!   that prefix (longest prefix wins).  `GESMC_LOG` takes precedence over
//!   the programmatic default so operators can always turn up verbosity.
//! * **Formats** — `text` (RFC 3339 timestamp, level, target, optional
//!   `[id]`, message) for humans, `json` (one object per line with `ts`,
//!   `level`, `target`, optional `id`, `msg`) for ingestion.
//! * **Correlation ids** — the optional `id:` argument stamps a
//!   per-request/job id on the line (`gesmc-serve` uses the request's root
//!   span id, [`SpanId`](crate::SpanId)).
//!
//! Output goes to stderr; tests can capture it with [`capture_for_tests`].

use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// Log severity, ascending.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Very fine-grained tracing.
    Trace = 0,
    /// Developer diagnostics.
    Debug = 1,
    /// Normal operational messages (the default).
    Info = 2,
    /// Something degraded but handled.
    Warn = 3,
    /// An operation failed.
    Error = 4,
}

impl Level {
    /// Parse a level name (case-insensitive); also accepts `off`.
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "trace" => Some(Level::Trace),
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" | "warning" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }

    /// Lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Trace => "trace",
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    fn padded(self) -> &'static str {
        match self {
            Level::Trace => "TRACE",
            Level::Debug => "DEBUG",
            Level::Info => "INFO ",
            Level::Warn => "WARN ",
            Level::Error => "ERROR",
        }
    }
}

/// Line format of the logger output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LogFormat {
    /// Human-readable single line: `ts LEVEL target [id] message`.
    #[default]
    Text,
    /// One JSON object per line: `{"ts","level","target","id"?,"msg"}`.
    Json,
}

impl LogFormat {
    /// Parse `text` or `json` (case-insensitive).
    pub fn parse(s: &str) -> Option<LogFormat> {
        match s.to_ascii_lowercase().as_str() {
            "text" => Some(LogFormat::Text),
            "json" => Some(LogFormat::Json),
            _ => None,
        }
    }
}

/// Per-target level filter parsed from a `GESMC_LOG`-style spec.
#[derive(Debug, Clone)]
struct Filter {
    default: Level,
    // (target prefix, minimum level), longest prefix consulted first.
    targets: Vec<(String, Level)>,
}

impl Filter {
    fn parse(spec: &str, fallback: Level) -> Filter {
        let mut default = fallback;
        let mut targets: Vec<(String, Level)> = Vec::new();
        for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            match token.split_once('=') {
                None => {
                    if let Some(level) = Level::parse(token) {
                        default = level;
                    }
                }
                Some((target, level)) => {
                    if let Some(level) = Level::parse(level.trim()) {
                        targets.push((target.trim().to_string(), level));
                    }
                }
            }
        }
        targets.sort_by_key(|(t, _)| std::cmp::Reverse(t.len()));
        Filter { default, targets }
    }

    fn min_level(&self, target: &str) -> Level {
        for (prefix, level) in &self.targets {
            if target.starts_with(prefix.as_str()) {
                return *level;
            }
        }
        self.default
    }

    /// The lowest level any target can pass, for the fast pre-check.
    fn floor(&self) -> Level {
        self.targets.iter().map(|(_, l)| *l).fold(self.default, Level::min)
    }
}

enum Sink {
    Stderr,
    Capture(Arc<Mutex<Vec<u8>>>),
}

struct LoggerState {
    format: LogFormat,
    filter: Filter,
    sink: Sink,
}

fn state() -> &'static Mutex<LoggerState> {
    static STATE: OnceLock<Mutex<LoggerState>> = OnceLock::new();
    STATE.get_or_init(|| {
        let spec = std::env::var("GESMC_LOG").unwrap_or_default();
        Mutex::new(LoggerState {
            format: LogFormat::Text,
            filter: Filter::parse(&spec, Level::Info),
            sink: Sink::Stderr,
        })
    })
}

/// Cheap lock-free floor for the common "level disabled" early-out.
static LEVEL_FLOOR: AtomicU8 = AtomicU8::new(0);

fn store_floor(filter: &Filter) {
    LEVEL_FLOOR.store(filter.floor() as u8, Ordering::Relaxed);
}

/// Configure the global logger: output `format` and default `level`.
///
/// A non-empty `GESMC_LOG` environment variable still takes precedence for
/// filtering (its bare level, if any, overrides `level`; its `target=level`
/// clauses always apply), so operator overrides survive CLI defaults.
pub fn configure(format: LogFormat, level: Level) {
    let mut state = state().lock().expect("logger state poisoned");
    state.format = format;
    let spec = std::env::var("GESMC_LOG").unwrap_or_default();
    state.filter = Filter::parse(&spec, level);
    store_floor(&state.filter);
}

/// Would a message for `target` at `level` be emitted?
pub fn enabled(target: &str, level: Level) -> bool {
    // Fast path: the floor is monotone under configure(); OnceLock init of
    // the state sets it lazily, so only consult it after first configure.
    if (level as u8) < LEVEL_FLOOR.load(Ordering::Relaxed) {
        return false;
    }
    let state = state().lock().expect("logger state poisoned");
    level >= state.filter.min_level(target)
}

/// Redirect logger output into a buffer and return it (tests only).
pub fn capture_for_tests() -> Arc<Mutex<Vec<u8>>> {
    let buffer = Arc::new(Mutex::new(Vec::new()));
    let mut state = state().lock().expect("logger state poisoned");
    state.sink = Sink::Capture(buffer.clone());
    buffer
}

/// Restore stderr output after [`capture_for_tests`].
pub fn uncapture_for_tests() {
    let mut state = state().lock().expect("logger state poisoned");
    state.sink = Sink::Stderr;
}

/// Emit one log line (used by the level macros; not called directly).
pub fn log(level: Level, target: &str, id: Option<&str>, args: fmt::Arguments<'_>) {
    let mut state = state().lock().expect("logger state poisoned");
    if level < state.filter.min_level(target) {
        return;
    }
    let mut line = format_line(state.format, now_rfc3339().as_str(), level, target, id, args);
    // One write_all per line, newline included: even if another process
    // shares the pipe (no lock can help there), a single write under
    // PIPE_BUF cannot tear mid-line, so JSON lines stay parseable.
    line.push('\n');
    match &mut state.sink {
        Sink::Stderr => {
            let _ = std::io::stderr().lock().write_all(line.as_bytes());
        }
        Sink::Capture(buffer) => {
            let mut buffer = buffer.lock().expect("capture buffer poisoned");
            buffer.extend_from_slice(line.as_bytes());
        }
    }
}

/// Render one line without emitting it (pure; unit-tested directly).
pub fn format_line(
    format: LogFormat,
    timestamp: &str,
    level: Level,
    target: &str,
    id: Option<&str>,
    args: fmt::Arguments<'_>,
) -> String {
    match format {
        LogFormat::Text => match id {
            Some(id) => format!("{timestamp} {} {target} [{id}] {args}", level.padded()),
            None => format!("{timestamp} {} {target} {args}", level.padded()),
        },
        LogFormat::Json => {
            let mut line = String::with_capacity(96);
            line.push_str("{\"ts\":\"");
            line.push_str(timestamp);
            line.push_str("\",\"level\":\"");
            line.push_str(level.as_str());
            line.push_str("\",\"target\":\"");
            push_json_escaped(&mut line, target);
            if let Some(id) = id {
                line.push_str("\",\"id\":\"");
                push_json_escaped(&mut line, id);
            }
            line.push_str("\",\"msg\":\"");
            push_json_escaped(&mut line, &args.to_string());
            line.push_str("\"}");
            line
        }
    }
}

/// Append `s` to `out` with JSON string escaping.
pub(crate) fn push_json_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Current UTC time as an RFC 3339 timestamp with millisecond precision.
pub fn now_rfc3339() -> String {
    let now = SystemTime::now().duration_since(UNIX_EPOCH).unwrap_or_default();
    rfc3339_from_epoch_millis(now.as_millis())
}

/// Format an epoch-milliseconds value as `YYYY-MM-DDTHH:MM:SS.mmmZ`.
pub fn rfc3339_from_epoch_millis(epoch_millis: u128) -> String {
    let millis = (epoch_millis % 1000) as u32;
    let secs = (epoch_millis / 1000) as i64;
    let days = secs.div_euclid(86_400);
    let tod = secs.rem_euclid(86_400);
    let (hour, minute, second) = (tod / 3600, (tod / 60) % 60, tod % 60);
    // Civil-from-days (Howard Hinnant's algorithm), valid for the epoch era.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let year = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = if month <= 2 { year + 1 } else { year };
    format!("{year:04}-{month:02}-{day:02}T{hour:02}:{minute:02}:{second:02}.{millis:03}Z")
}

/// Log at an explicit [`Level`] with a `target:` and optional `id:`.
#[macro_export]
macro_rules! log_at {
    ($level:expr, target: $target:expr, id: $id:expr, $($arg:tt)+) => {
        $crate::log::log($level, $target, Some(::std::convert::AsRef::<str>::as_ref(&$id)),
            format_args!($($arg)+))
    };
    ($level:expr, target: $target:expr, $($arg:tt)+) => {
        $crate::log::log($level, $target, None, format_args!($($arg)+))
    };
    ($level:expr, $($arg:tt)+) => {
        $crate::log::log($level, module_path!(), None, format_args!($($arg)+))
    };
}

/// Log at trace level; same argument forms as [`log_at!`](crate::log_at!).
#[macro_export]
macro_rules! trace {
    ($($arg:tt)+) => { $crate::log_at!($crate::Level::Trace, $($arg)+) };
}

/// Log at debug level; same argument forms as [`log_at!`](crate::log_at!).
#[macro_export]
macro_rules! debug {
    ($($arg:tt)+) => { $crate::log_at!($crate::Level::Debug, $($arg)+) };
}

/// Log at info level; same argument forms as [`log_at!`](crate::log_at!).
#[macro_export]
macro_rules! info {
    ($($arg:tt)+) => { $crate::log_at!($crate::Level::Info, $($arg)+) };
}

/// Log at warn level; same argument forms as [`log_at!`](crate::log_at!).
#[macro_export]
macro_rules! warn {
    ($($arg:tt)+) => { $crate::log_at!($crate::Level::Warn, $($arg)+) };
}

/// Log at error level; same argument forms as [`log_at!`](crate::log_at!).
#[macro_export]
macro_rules! error {
    ($($arg:tt)+) => { $crate::log_at!($crate::Level::Error, $($arg)+) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_and_format_parse() {
        assert_eq!(Level::parse("DEBUG"), Some(Level::Debug));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("nope"), None);
        assert_eq!(LogFormat::parse("JSON"), Some(LogFormat::Json));
        assert_eq!(LogFormat::parse("yaml"), None);
    }

    #[test]
    fn filter_spec_longest_prefix_wins() {
        let f = Filter::parse("warn,gesmc_serve=info,gesmc_serve::persist=trace", Level::Info);
        assert_eq!(f.default, Level::Warn);
        assert_eq!(f.min_level("gesmc_engine"), Level::Warn);
        assert_eq!(f.min_level("gesmc_serve"), Level::Info);
        assert_eq!(f.min_level("gesmc_serve::persist::journal"), Level::Trace);
        assert_eq!(f.floor(), Level::Trace);
    }

    #[test]
    fn rfc3339_golden_timestamps() {
        assert_eq!(rfc3339_from_epoch_millis(0), "1970-01-01T00:00:00.000Z");
        // 2026-08-09 12:34:56.789 UTC.
        assert_eq!(rfc3339_from_epoch_millis(1_786_278_896_789), "2026-08-09T12:34:56.789Z");
        // Leap-year day: 2024-02-29 00:00:00 UTC.
        assert_eq!(rfc3339_from_epoch_millis(1_709_164_800_000), "2024-02-29T00:00:00.000Z");
    }

    #[test]
    fn format_line_text_and_json() {
        let text = format_line(
            LogFormat::Text,
            "2026-01-01T00:00:00.000Z",
            Level::Info,
            "gesmc_serve",
            Some("req-1"),
            format_args!("hello {}", 7),
        );
        assert_eq!(text, "2026-01-01T00:00:00.000Z INFO  gesmc_serve [req-1] hello 7");
        let json = format_line(
            LogFormat::Json,
            "2026-01-01T00:00:00.000Z",
            Level::Warn,
            "gesmc_serve",
            None,
            format_args!("a \"quoted\"\nline"),
        );
        assert_eq!(
            json,
            "{\"ts\":\"2026-01-01T00:00:00.000Z\",\"level\":\"warn\",\
             \"target\":\"gesmc_serve\",\"msg\":\"a \\\"quoted\\\"\\nline\"}"
        );
    }

    /// Minimal JSON validator for the capture test: returns the byte length
    /// consumed by one value starting at `s`, or `None` if malformed.
    fn json_value_len(s: &[u8]) -> Option<usize> {
        match *s.first()? {
            b'{' => {
                let mut i = 1;
                loop {
                    match *s.get(i)? {
                        b'}' => return Some(i + 1),
                        b',' if i > 1 => i += 1,
                        _ => {}
                    }
                    i += json_value_len(&s[i..])?; // key
                    if *s.get(i)? != b':' {
                        return None;
                    }
                    i += 1;
                    i += json_value_len(&s[i..])?; // value
                }
            }
            b'"' => {
                let mut i = 1;
                loop {
                    match *s.get(i)? {
                        b'"' => return Some(i + 1),
                        b'\\' => i += 2,
                        c if c < 0x20 => return None,
                        _ => i += 1,
                    }
                }
            }
            b'0'..=b'9' | b'-' => {
                let digits = s
                    .iter()
                    .take_while(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                    .count();
                Some(digits)
            }
            b't' => s.starts_with(b"true").then_some(4),
            b'f' => s.starts_with(b"false").then_some(5),
            b'n' => s.starts_with(b"null").then_some(4),
            _ => None,
        }
    }

    fn assert_valid_json_line(line: &str) {
        let bytes = line.as_bytes();
        let len = json_value_len(bytes).unwrap_or_else(|| panic!("torn JSON line: {line:?}"));
        assert_eq!(len, bytes.len(), "trailing garbage after JSON object: {line:?}");
    }

    #[test]
    fn concurrent_json_lines_never_tear() {
        let buffer = capture_for_tests();
        configure(LogFormat::Json, Level::Info);
        let threads: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..50 {
                        crate::info!(
                            target: "gesmc_obs::tear_test",
                            id: format!("t{t}"),
                            "line {i} with \"quotes\" and a\nnewline"
                        );
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let bytes = buffer.lock().unwrap().clone();
        uncapture_for_tests();
        configure(LogFormat::Text, Level::Info);

        let text = String::from_utf8(bytes).expect("captured lines are UTF-8");
        let lines: Vec<&str> =
            text.lines().filter(|l| l.contains("gesmc_obs::tear_test")).collect();
        assert_eq!(lines.len(), 8 * 50, "every line arrived whole");
        for line in lines {
            assert_valid_json_line(line);
        }
    }
}
