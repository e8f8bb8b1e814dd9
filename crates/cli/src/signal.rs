//! The shutdown signal every serving command waits on.

use ripki_proxy::origin::pause;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Install the SIGTERM/SIGINT handlers (again, harmlessly, on every
/// call) and return the flag they raise. The handler performs a single
/// atomic store — async-signal-safe — so a serving command can drain
/// its planes on shutdown instead of dying mid-response.
#[cfg(unix)]
pub(crate) fn shutdown_flag() -> &'static AtomicBool {
    use std::os::raw::c_int;
    static REQUESTED: AtomicBool = AtomicBool::new(false);
    extern "C" fn on_signal(_signum: c_int) {
        // Release: pairs with the SeqCst load in `pause`, so the waiter
        // observes everything sequenced before the signal.
        REQUESTED.store(true, Ordering::Release);
    }
    const SIGINT: c_int = 2;
    const SIGTERM: c_int = 15;
    extern "C" {
        fn signal(signum: c_int, handler: usize) -> usize;
    }
    // SAFETY: the handler only performs an atomic store (async-signal-
    // safe), and the function pointer lives for the whole process.
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
    &REQUESTED
}

/// Without signals there is nothing to raise the flag.
#[cfg(not(unix))]
pub(crate) fn shutdown_flag() -> &'static AtomicBool {
    static NEVER: AtomicBool = AtomicBool::new(false);
    &NEVER
}

/// Park the calling thread until SIGTERM or SIGINT arrives.
pub(crate) fn wait_for_shutdown_signal() {
    let stop = shutdown_flag();
    while pause(Duration::from_secs(3600), stop) {}
}
