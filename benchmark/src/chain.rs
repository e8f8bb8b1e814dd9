//! The distribution chain both churn workloads drive: an origin RTR
//! cache behind `RtrListener` (as `ripki-cli serve --rtr-listen` runs
//! it), one proxy hop started from TOML (as `ripki-cli proxy` runs it),
//! and a notify-driven router following the hop's edge target.

use crate::host::scratch_dir;
use ripki_payload::{VrpPayload, VrpTriple};
use ripki_proxy::{Log, Manager};
use ripki_rtr::{CacheServer, Client, ClientError, ListenerConfig, RtrListener};
use ripki_slurm::{ExceptionSet, SlurmFile};
use std::collections::BTreeSet;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long an operation may wait for the router or the HTTP plane to
/// catch up before it counts as failed.
pub const CATCH_UP: Duration = Duration::from_secs(5);

/// The router's read timeout while it waits for a Serial Notify.
const NOTIFY_POLL: Duration = Duration::from_millis(5);

/// One completed router sync.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// Serial held after the sync.
    pub serial: u32,
    /// When `poll_notify` reported the Serial Notify.
    pub notified: Instant,
    /// When the following `sync` returned.
    pub synced: Instant,
}

/// What a stopped chain hands back: the follower's syncs and final
/// set, and the hop's compiled exceptions to check that set against.
pub struct FollowerLog {
    pub arrivals: Vec<Arrival>,
    pub vrps: BTreeSet<VrpTriple>,
    pub error: Option<String>,
    pub exceptions: ExceptionSet,
}

fn connect_router(edge: SocketAddr) -> std::io::Result<(Client<TcpStream>, TcpStream)> {
    let stream = TcpStream::connect(edge)?;
    // A handle on the same socket, kept to switch read timeouts between
    // the short notify poll and the patient sync.
    let control = stream.try_clone()?;
    control.set_read_timeout(Some(CATCH_UP))?;
    Ok((Client::new(stream), control))
}

/// A fresh router: TCP connect, Reset Query, End of Data. Returns the
/// serial and set it ended up holding.
pub fn cold_sync(edge: SocketAddr) -> Result<(u32, BTreeSet<VrpTriple>), String> {
    let (mut client, _control) = connect_router(edge).map_err(|e| e.to_string())?;
    client.sync().map_err(|e| e.to_string())?;
    let (_, serial) = client.state().ok_or("no state after sync")?;
    Ok((serial, client.vrps().clone()))
}

type Followed = Result<(Vec<Arrival>, BTreeSet<VrpTriple>), String>;

fn follow(edge: SocketAddr, stop: &AtomicBool, progress: &AtomicU32) -> Followed {
    let (mut client, control) = connect_router(edge).map_err(|e| e.to_string())?;
    // The edge answers "no data" until the first payload crossed the hop.
    let deadline = Instant::now() + CATCH_UP * 4;
    loop {
        match client.sync() {
            Ok(_) => break,
            Err(ClientError::CacheError { .. }) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => return Err(format!("initial sync: {e}")),
        }
    }
    let held = |c: &Client<TcpStream>| c.state().map_or(0, |(_, serial)| serial);
    progress.store(held(&client), Ordering::SeqCst);
    let mut arrivals = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        control
            .set_read_timeout(Some(NOTIFY_POLL))
            .map_err(|e| e.to_string())?;
        let notified = match client.poll_notify() {
            Ok(Some(_)) => Instant::now(),
            Ok(None) => continue,
            Err(e) => return Err(format!("notify poll: {e}")),
        };
        control
            .set_read_timeout(Some(CATCH_UP))
            .map_err(|e| e.to_string())?;
        let before = held(&client);
        client.sync().map_err(|e| format!("delta sync: {e}"))?;
        let serial = held(&client);
        if serial != before {
            arrivals.push(Arrival {
                serial,
                notified,
                synced: Instant::now(),
            });
            progress.store(serial, Ordering::SeqCst);
        }
    }
    Ok((arrivals, client.vrps().clone()))
}

pub struct Chain {
    /// The origin cache the driver feeds.
    pub cache: Arc<CacheServer>,
    /// The proxy hop's RTR target.
    pub edge: SocketAddr,
    /// The hop's compiled local exceptions (for reference checks).
    pub exceptions: ExceptionSet,
    listener: RtrListener,
    manager: Option<Manager>,
    stop: Arc<AtomicBool>,
    progress: Arc<AtomicU32>,
    follower: Option<JoinHandle<Followed>>,
    slurm_path: std::path::PathBuf,
}

impl Chain {
    /// Start origin, proxy hop and follower, and return once the
    /// follower holds `initial`'s serial.
    pub fn start(initial: &VrpPayload, slurm_text: &str) -> Result<Chain, String> {
        let cache = Arc::new(CacheServer::new(0x1715));
        cache.install_payload(initial);
        let bound = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let listener = RtrListener::spawn(bound, Arc::clone(&cache), ListenerConfig::default())
            .map_err(|e| e.to_string())?;

        let dir = scratch_dir();
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let slurm_path = dir.join(format!("slurm-{}-{:p}.json", std::process::id(), &*cache));
        std::fs::write(&slurm_path, slurm_text).map_err(|e| e.to_string())?;
        let exceptions = SlurmFile::parse(slurm_text)
            .map_err(|e| e.to_string())?
            .compile();
        let toml = format!(
            "[units.up]\ntype = \"rtr\"\nconnect = \"{}\"\n\n\
             [units.local]\ntype = \"slurm\"\nfile = \"{}\"\nsource = \"up\"\n\n\
             [units.relay]\ntype = \"any\"\nsources = [\"local\"]\n\n\
             [targets.edge]\ntype = \"rtr\"\nlisten = \"127.0.0.1:0\"\nunit = \"relay\"\n",
            listener.addr(),
            slurm_path.display(),
        );
        let manager = Manager::from_toml(&toml, &Log::sink()).map_err(|e| e.to_string())?;
        let edge = manager
            .target_addrs()
            .first()
            .map(|(_, addr)| *addr)
            .ok_or("proxy started no target")?;

        let stop = Arc::new(AtomicBool::new(false));
        let progress = Arc::new(AtomicU32::new(0));
        let follower = {
            let stop = Arc::clone(&stop);
            let progress = Arc::clone(&progress);
            std::thread::Builder::new()
                .name("bench-router".into())
                .spawn(move || follow(edge, &stop, &progress))
                .map_err(|e| e.to_string())?
        };
        let chain = Chain {
            cache,
            edge,
            exceptions,
            listener,
            manager: Some(manager),
            stop,
            progress,
            follower: Some(follower),
            slurm_path,
        };
        if !chain.wait_for(initial.serial(), CATCH_UP * 4) {
            let log = chain.stop();
            return Err(format!(
                "router never reached the initial serial: {}",
                log.error.unwrap_or_else(|| "timed out".into())
            ));
        }
        Ok(chain)
    }

    /// Block until the follower holds at least `serial`.
    pub fn wait_for(&self, serial: u32, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.progress.load(Ordering::SeqCst) >= serial {
                return true;
            }
            let finished = self.follower.as_ref().is_none_or(JoinHandle::is_finished);
            if finished || Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Stop the follower, the proxy hop and the origin listener, in
    /// that order, joining each.
    pub fn stop(mut self) -> FollowerLog {
        self.stop.store(true, Ordering::SeqCst);
        let followed = match self.follower.take().map(JoinHandle::join) {
            Some(Ok(followed)) => followed,
            _ => Err("router thread panicked".into()),
        };
        if let Some(manager) = self.manager.take() {
            manager.shutdown();
        }
        self.listener.shutdown();
        let _ = std::fs::remove_file(&self.slurm_path);
        let (arrivals, vrps, error) = match followed {
            Ok((arrivals, vrps)) => (arrivals, vrps, None),
            Err(error) => (Vec::new(), BTreeSet::new(), Some(error)),
        };
        FollowerLog {
            arrivals,
            vrps,
            error,
            exceptions: self.exceptions,
        }
    }
}
