//! Fixture for R7's *declared* order: the catalog fixes
//! `CacheServer.state` before `CacheServer.wakers` even though the real
//! cache never nests the two. `advance` takes them one after the other
//! (no edge), `advance_and_signal` nests them the declared way (fine),
//! and `prune` nests them the other way — the only finding, reported
//! although no *code* path exhibits the opposite order.

use std::sync::Mutex;

pub struct CacheServer {
    state: Mutex<u32>,
    wakers: Mutex<Vec<u32>>,
}

impl CacheServer {
    pub fn advance(&self) -> u32 {
        let serial = {
            let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
            *state += 1;
            *state
        };
        let wakers = self.wakers.lock().unwrap_or_else(|e| e.into_inner());
        serial + wakers.len() as u32
    }

    pub fn advance_and_signal(&self) -> u32 {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let wakers = self.wakers.lock().unwrap_or_else(|e| e.into_inner());
        *state + wakers.len() as u32
    }

    pub fn prune(&self) -> u32 {
        let mut wakers = self.wakers.lock().unwrap_or_else(|e| e.into_inner());
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        wakers.retain(|w| *w > *state);
        *state
    }
}
