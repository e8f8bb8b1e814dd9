//! Fixture RTR session loop: R6 also roots at `SessionLoop::turn` in
//! this exact file. `Session::drive` is reached through a loop variable
//! (the unique-name fallback) and blocks in a channel `recv`; the
//! blessed `poll_ready` and `Peer::read_ready` park and `accept` by
//! design and must not be traversed.

pub struct Session {
    pub replies: std::sync::mpsc::Receiver<Vec<u8>>,
    pub outbound: Vec<u8>,
}

impl Session {
    fn drive(&mut self) {
        if let Ok(reply) = self.replies.recv() {
            self.outbound = reply;
        }
    }
}

pub struct Peer {
    pub session: Session,
}

impl Peer {
    fn read_ready(&mut self, listener: &std::net::TcpListener) {
        let _ = listener.accept();
    }
}

pub struct SessionLoop {
    pub listener: std::net::TcpListener,
    pub peers: Vec<Peer>,
}

impl SessionLoop {
    pub fn turn(&mut self) {
        poll_ready(10);
        for peer in &mut self.peers {
            peer.read_ready(&self.listener);
            peer.session.drive();
        }
    }
}

/// Blessed poll site: blocks by design.
fn poll_ready(timeout_ms: i32) {
    if timeout_ms > 0 {
        std::thread::park_timeout(std::time::Duration::from_millis(1));
    }
}
