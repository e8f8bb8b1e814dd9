//! A shared line logger injected by the embedding binary.
//!
//! The fabric never prints on its own (R4's clippy lints reserve stdout
//! for the CLI): every unit, combinator, and target writes through a
//! [`Log`] handed in by whoever started the manager — the CLI passes
//! stdout, in-process tests pass a captured buffer or a sink.

use std::fmt;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// A cloneable, thread-safe line sink.
#[derive(Clone)]
pub struct Log {
    sink: Arc<Mutex<Box<dyn Write + Send>>>,
}

impl fmt::Debug for Log {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Log")
    }
}

impl Log {
    /// Log through an arbitrary writer.
    pub fn to(sink: Box<dyn Write + Send>) -> Log {
        Log {
            sink: Arc::new(Mutex::new(sink)),
        }
    }

    /// Discard everything (tests and benches).
    pub fn sink() -> Log {
        Log::to(Box::new(std::io::sink()))
    }

    /// Write one line and flush it, so piped readers (the multi-process
    /// chain test greps our output live) see it immediately. Logging is
    /// best-effort: a dead sink never takes the fabric down.
    pub fn line(&self, msg: &fmt::Arguments<'_>) {
        // A writer that panicked mid-line leaves at worst a torn line
        // behind; the next one is still worth writing.
        let mut sink = self
            .sink
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = writeln!(sink, "{msg}");
        let _ = sink.flush();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::mpsc;

    struct Lines(mpsc::Sender<String>);

    impl Write for Lines {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let _ = self.0.send(String::from_utf8_lossy(buf).into_owned());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A log whose text a test reads back, in order, as it is written.
    pub(crate) fn captured() -> (Log, mpsc::Receiver<String>) {
        let (lines, logged) = mpsc::channel();
        (Log::to(Box::new(Lines(lines))), logged)
    }

    #[test]
    fn lines_are_written_and_flushed() {
        let (log, logged) = captured();
        log.line(&format_args!("hello {}", 7));
        assert_eq!(logged.try_iter().collect::<String>(), "hello 7\n");
    }
}
